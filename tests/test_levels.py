"""The factored transform: a tensor window on a frame whose rows touch
disjoint signal axes streams one level per y~ axis (windows.window_levels).
Every factored case is checked against the brute-force oracles, which
evaluate the full window, and against the one-level path of a window with
the same values and no factors."""

import numpy as np
import pytest

from dirstft import Grid, Window, build_frame, gaussian_window
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import BLOCK_ELEMS, relative_error
from dirstft.invariants import multiplier_error
from dirstft.synthesis import _frame_operator, dso, dso_direct, reconstruct
from dirstft.transform import _spectra, default_y_grid, dstft_direct, dstft_fast
from dirstft.windows import (_lattice_blocks, gevrey_bump, pairing_check, window_at,
                             window_blocks, window_levels)

G16 = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
G3 = Grid.from_bounds([-4, -4, -2], [4, 4, 2], [12, 10, 4])
G32 = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
# two different Gaussian factors, on window axes of different extents
TENSOR = gaussian_window(Grid.from_bounds([-4, -3], [4, 3], [16, 12]), [1.0, 1.5])


def unfactored(w):
    """The same window values with no factors: the one-level path."""
    return Window(w.grid, w.values, w.kind)


def lattice_case():
    return (gaussian(G16, 1.0, [0.3, -0.2], [0.5, 0.25]),
            gaussian_window(G16, [1.0, 1.2]), identity_frame(2, 2), None)


def blind_case():
    w = gaussian_window(Grid.from_bounds([-4, -4], [4, 4], [12, 10]), [1.5, 1.2])
    return random_bandlimited(G3, 3, band=0.4), w, identity_frame(3, 2), None


def off_lattice_case():
    # y~ shifted by a third of a sample: the trigonometric path per factor
    y_grid = Grid((-3.9, -2.95), (0.5, 0.5), (16, 12))
    return random_bandlimited(G16, 4, band=0.5), TENSOR, identity_frame(2, 2), y_grid


def spanning_case():
    # 9 y~ rows per outer index, 64 rows per block
    y_grid = Grid((-3.0, -2.0), (1.0, 0.5), (7, 9))
    return (gaussian(G32, 1.0, [0.5, 0.0], [0.0, 0.5]), gaussian_window(G32, [1.0, 1.0]),
            identity_frame(2, 2), y_grid)


def swapped_case():
    # row 1 touches axis 1 and row 2 axis 0: the innermost level is axis 0
    return (random_bandlimited(G16, 5, band=0.5), gaussian_window(G16, [1.0, 1.5]),
            build_frame([[0.0, 1.0], [1.0, 0.0]]), None)


def three_level_case(last_spacing=1.0):
    # 68-row blocks over 5 x 7 rows per outer index: both outer levels
    # change inside a block
    grid = Grid.from_bounds([-4, -4, -4], [4, 4, 4], [12, 10, 8])
    y_grid = Grid((-2.0, -1.6, -2.0), (2.0 / 3, 0.8, last_spacing), (3, 5, 7))
    return (random_bandlimited(grid, 6, band=0.4), gaussian_window(grid, [1.5, 1.5, 1.5]),
            identity_frame(3, 3), y_grid)


def three_level_off_lattice_case():
    # half a window step on the last y~ axis: the full window takes the
    # trigonometric path, the first two factors the lattice gather, and
    # u . t - y~ reaches the window box's upper edge on the first axis
    return three_level_case(0.5)


CASES = {"lattice k=n=2": lattice_case, "e^2 in R^3, blind axis": blind_case,
         "tensor window off lattice": off_lattice_case,
         "blocks span outer indices": spanning_case, "rows swapped": swapped_case,
         "k=n=3": three_level_case, "k=n=3 off lattice": three_level_off_lattice_case}
# (outer levels' axes, innermost axes) of each case
LEVELS = {"rows swapped": ([(1,)], (0,)), "k=n=3": ([(0,), (1,)], (2,)),
          "k=n=3 off lattice": ([(0,), (1,)], (2,))}


def oracle_reconstruction(f, g, phi, frame, y_grid):
    field = dstft_direct(f, g, frame, y_grid=y_grid)
    return dso_direct(field, phi, frame, f.grid).values / pairing_check(g, phi).value


def stream(f, g, phi, frame, y_grid):
    """reconstruct's stream before it divides by M: DS*_phi DS_g f / (g, phi)
    and M, on y_grid (the default y~ grid when None), which need not cover
    the window's reach."""
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    return _frame_operator(f, g, phi, frame, y_grid, pairing_check(g, phi).value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_factored_case_takes_one_level_per_y_axis(case):
    f, g, frame, y_grid = CASES[case]()
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    levels = window_levels(g, f.grid, frame.u, y_grid)
    outer, inner = LEVELS.get(case, ([(0,)], (1,)))
    assert [axes for axes, _ in levels.outer] == outer and levels.axes == inner
    assert levels.blind == tuple(range(frame.k, f.grid.dim))
    # only the innermost factor is gathered per block
    shape = tuple(n if i in inner else 1 for i, n in enumerate(f.grid.counts))
    rows = BLOCK_ELEMS // f.grid.size
    for lo, hi, W in levels.blocks:
        assert W.shape == (hi - lo,) + shape
        assert hi - lo == min(rows, y_grid.size - lo)


@pytest.mark.parametrize("case", sorted(CASES))
def test_factored_transform_matches_the_oracles(case):
    f, g, frame, y_grid = CASES[case]()
    fast = dstft_fast(f, g, frame, y_grid=y_grid)
    assert relative_error(fast.values,
                          dstft_direct(f, g, frame, y_grid=y_grid).values) <= 1e-12
    assert relative_error(dso(fast, g, frame, f.grid).values,
                          dso_direct(fast, g, frame, f.grid).values) <= 1e-12


@pytest.mark.parametrize("case", sorted(CASES))
def test_factored_reconstruction_matches_the_oracle(case):
    f, g, frame, y_grid = CASES[case]()
    rec = stream(f, g, g, frame, y_grid)[0]
    assert relative_error(rec, oracle_reconstruction(f, g, g, frame, y_grid)) <= 1e-13


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_multiplier_is_the_sum_of_the_window_products(case):
    # a factored pair's M is the product of its per-level sums; it must be
    # the y~ sum of the full windows' products, and the stream f M
    f, g, frame, y_grid = CASES[case]()
    assert multiplier_error(f, g, g, frame, y_grid) <= 1e-13


@pytest.mark.parametrize("case", sorted(CASES))
def test_factored_and_unfactored_windows_agree(case):
    f, g, frame, y_grid = CASES[case]()
    plain = unfactored(g)
    fields = [dstft_fast(f, w, frame, y_grid=y_grid).values for w in (g, plain)]
    assert relative_error(*fields) <= 1e-14
    recs = [stream(f, w, w, frame, y_grid) for w in (g, plain)]
    for a, b in zip(*recs):
        assert relative_error(a, b) <= 1e-14


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_stream_of_some_rows_gives_those_rows_of_the_field(case):
    # a third of the rows, skipping whole outer indices and ending some
    # runs inside one, or a single row: each streamed row is the field's
    # row, bit for bit, on the factored and the one-level path
    f, g, frame, y_grid = CASES[case]()
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    some = np.flatnonzero(np.random.default_rng(3).random(y_grid.size) < 0.3)
    for w in (g, unfactored(g)):
        field = dstft_fast(f, w, frame, y_grid=y_grid).values
        for rows in (some, np.array([y_grid.size // 2])):
            levels = window_levels(w, f.grid, frame.u, y_grid, rows)
            got = np.concatenate([S.reshape(hi - lo, -1).copy()
                                  for lo, hi, _, S in _spectra(f, levels)])
            assert np.array_equal(got, field.reshape(y_grid.size, -1)[rows])


def test_the_cases_reach_the_trig_path_and_straddling_blocks():
    f, g, _, y_grid = off_lattice_case()
    for j, p in enumerate(g.factors):
        proj, y = f.grid.axis(j)[:, None], y_grid.axis(j)[:, None]
        assert _lattice_blocks(p, proj, y) is None
    f, g, frame, y_grid = spanning_case()
    inner = y_grid.counts[1]
    spans = [lo // inner != (hi - 1) // inner
             for lo, hi, _ in window_levels(g, f.grid, frame.u, y_grid).blocks]
    assert all(spans)


def test_the_lattice_reconstruction_recovers_the_signal():
    f, g, frame, _ = lattice_case()
    big = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(big, 1.0, [0.3, -0.2], [0.5, 0.25])
    g = gaussian_window(big, [1.0, 1.2])
    assert relative_error(reconstruct(f, g, g, frame).values, f.values) <= 1e-13


@pytest.mark.parametrize("factored", ["g", "phi"])
def test_reconstruct_pairs_a_factored_and_an_unfactored_window(factored):
    # one window takes the factored levels, the other the one-level stream;
    # their blocks pair up row for row
    f, _, frame, y_grid = spanning_case()
    g = gaussian_window(G32, [1.0, 1.0])
    phi = unfactored(gaussian_window(G32, [1.5, 0.8]))
    if factored == "phi":
        g, phi = unfactored(g), gaussian_window(G32, [1.5, 0.8])
    rec = stream(f, g, phi, frame, y_grid)[0]
    assert relative_error(rec, oracle_reconstruction(f, g, phi, frame, y_grid)) <= 1e-13
    same = stream(f, unfactored(g), unfactored(phi), frame, y_grid)[0]
    assert relative_error(rec, same) <= 1e-14


def test_a_rotated_frame_takes_one_level():
    frame = build_frame([[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]])
    g = gaussian_window(G16, [1.0, 1.0])
    levels = window_levels(g, G16, frame.u, G16)
    assert levels.outer == () and levels.axes == (0, 1) and levels.blind == ()
    assert next(levels.blocks)[2].shape == (BLOCK_ELEMS // G16.size,) + G16.counts


def test_a_window_without_factors_takes_one_level():
    bump = gevrey_bump(G16, 2.0, 2.0)
    assert bump.factors == ()
    levels = window_levels(bump, G16, identity_frame(2, 2).u, G16)
    assert levels.outer == () and levels.axes == (0, 1)


def test_gaussian_and_tensor_factors_build_the_product_exactly():
    g = gaussian_window(G16, [1.0, 1.3])
    assert len(g.factors) == 2
    assert np.array_equal(np.multiply.outer(*(p.values for p in g.factors)), g.values)
    assert [p.grid for p in TENSOR.factors] == [Grid.from_bounds([-4], [4], [16]),
                                                Grid.from_bounds([-3], [3], [12])]
    assert np.array_equal(np.multiply.outer(*(p.values for p in TENSOR.factors)),
                          TENSOR.values)


def test_only_the_product_constructors_set_factors():
    g = gaussian_window(G16, [1.0, 1.3])
    with pytest.raises(TypeError):
        Window(G16, g.values, factors=g.factors)
    assert Window(G16, g.values).factors == ()


def test_a_window_whose_values_were_reassigned_takes_one_level():
    f, g, frame, _ = lattice_case()
    g.values = gaussian_window(G16, [1.5, 0.8]).values
    levels = window_levels(g, G16, frame.u, G16)
    assert levels.outer == () and levels.axes == (0, 1)
    assert relative_error(dstft_fast(f, g, frame).values,
                          dstft_direct(f, g, frame).values) <= 1e-12


def test_the_trig_blocks_zero_the_box_edge_as_window_at_does():
    # a lattice coordinate at the window box's upper edge rounds either
    # side of it; the interpolant there is the first sample's periodic image
    f, g, frame, y_grid = three_level_off_lattice_case()
    Y, proj = y_grid.points(), f.grid.points()
    blocks = np.concatenate([np.broadcast_to(W, (hi - lo,) + f.grid.counts)
                             for lo, hi, W in window_blocks(unfactored(g), f.grid,
                                                            frame.u, Y)])
    exact = np.stack([window_at(g, proj - y) for y in Y])
    assert np.max(np.abs(blocks.reshape(exact.shape) - exact)) <= 1e-14
