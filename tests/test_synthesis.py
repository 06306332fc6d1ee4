import tracemalloc

import numpy as np
import pytest

from dirstft import (Grid, Signal, build_frame, dstft_fast, gaussian_window,
                     pairing_check, reconstruct, window_change)
from dirstft import transform
from dirstft.invariants import multiplier, orthogonality_error
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import BLOCK_ELEMS, inner_product, rel_l2_error, relative_error
from dirstft.synthesis import covering_y_grid, dso, dso_direct, multiplier_stride
from dirstft.transform import default_y_grid
from dirstft.windows import Window, WindowKind, gevrey_bump


def test_dso_fast_matches_direct():
    g = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    f = random_bandlimited(g, 3, band=0.5)
    win = gaussian_window(Grid.from_bounds([-4], [4], [8]), 1.0)
    frame = build_frame([[1.0, 0.0]])
    F = dstft_fast(f, win, frame)
    fast = dso(F, win, frame, g)
    slow = dso_direct(F, win, frame, g)
    assert relative_error(fast.values, slow.values) < 1e-10


def test_reconstruct_same_window():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    rec = reconstruct(f, win, win, identity_frame(1, 1))
    assert rel_l2_error(rec.values, f.values) < 1e-6


def test_reconstruct_different_windows():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    ga = gaussian_window(g, 1.0)
    gb = gaussian_window(g, 2.0)
    rec = reconstruct(f, ga, gb, identity_frame(1, 1))
    assert rel_l2_error(rec.values, f.values) < 1e-4


def test_reconstruct_directional_2d():
    g = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    rec = reconstruct(f, win, win, frame)
    assert rel_l2_error(rec.values, f.values) < 1e-3


def test_reconstruct_rejects_inadmissible_pair():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    t = g.axis(0)
    even = gaussian_window(g, 1.0)
    odd = Window(g, t * np.exp(-np.pi * t ** 2), WindowKind.CUSTOM)
    with pytest.raises(ValueError, match="inadmissible"):
        reconstruct(f, even, odd, identity_frame(1, 1))


def test_a_bump_narrower_than_its_sample_spacing_is_refused():
    # radius 0.6 on window samples 1.5 apart: the covering y~ grid steps by
    # the window's spacing, so no translate reaches the points of u . t
    # farther than 0.6 from every y~, and M = 0 there
    grid = Grid.from_bounds([-4], [4], [32])
    bump = gevrey_bump(Grid((-3.0,), (1.5,), (4,)), 0.6, 2.0)
    assert covering_y_grid(grid, bump, bump, identity_frame(1, 1))[0].spacing == (1.5,)
    with pytest.raises(ValueError, match=r"y_grid does not cover .* 15\.6% of the signal"):
        reconstruct(gaussian(grid), bump, bump, identity_frame(1, 1))


def test_the_stride_does_not_outrun_a_bump_between_its_samples():
    # a bump of radius 0.6 on samples 0.5 apart times a Gaussian: on the
    # window lattice alone the stride-3 cosets sum to within a gain of 21,
    # but y~ 1.5 apart leave M = 0 between the translates, where samples
    # 0.3 apart fall; half-spaced samples of conj(g) phi see those gaps
    wgrid = Grid((-1.0,), (0.5,), (5,))
    g, phi = gevrey_bump(wgrid, 0.6, 2.0), gaussian_window(wgrid, 1.0)
    f = random_bandlimited(Grid((-3.0,), (0.3,), (16,)), 3, band=0.5)
    assert multiplier_stride(g, phi) == 2
    rec = reconstruct(f, g, phi, identity_frame(1, 1))
    assert rel_l2_error(rec.values, f.values) <= 1e-12


@pytest.mark.parametrize("phi_grid", [Grid.from_bounds([-4], [4], [64]),
                                      Grid.from_bounds([-8], [8], [128])])
def test_windows_on_different_grids_are_refused(phi_grid):
    # conj(g) phi is taken sample by sample, so a phi on other bounds with
    # g's counts would pair the wrong samples, and other counts would not
    # broadcast; both are refused, naming the two grids
    g = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    phi = gaussian_window(phi_grid, 1.0)
    grid = Grid.from_bounds([-8], [8], [64])
    for call in (lambda: multiplier_stride(g, phi),
                 lambda: covering_y_grid(grid, g, phi, identity_frame(1, 1))):
        with pytest.raises(ValueError, match="share one window grid") as err:
            call()
        assert str(g.grid) in str(err.value) and str(phi_grid) in str(err.value)


def modulated_window(grid, sigma, freq):
    """A complex window: synthesizing with conj(g) in place of g would
    change the result."""
    g = gaussian_window(grid, sigma)
    phase = np.exp(2j * np.pi * (grid.points() @ np.asarray(freq, dtype=float)))
    return Window(grid, g.values * phase.reshape(grid.counts), WindowKind.CUSTOM)


def reconstruct_case(case):
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = random_bandlimited(grid, 5, band=0.5)
    wgrid = Grid.from_bounds([-8], [8], [32])
    if case == "k2_lattice":
        grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        f = random_bandlimited(grid, 6, band=0.5)
        g = modulated_window(grid, [1.0, 1.0], [0.25, -0.5])
        return f, g, g, identity_frame(2, 2), None
    if case == "diag_trig":
        g = modulated_window(wgrid, [1.0], [0.25])
        return f, g, g, build_frame([[1.0, 1.0]]), None
    if case == "phi_differs":
        g = modulated_window(wgrid, [1.0], [0.25])
        return f, g, gaussian_window(wgrid, 2.0), build_frame([[1.0, 0.0]]), None
    # y~ points off the window lattice take the trigonometric path
    g = modulated_window(wgrid, [1.0], [0.25])
    y_grid = Grid.from_bounds([-9.03], [8.97], [40])
    return f, g, g, build_frame([[1.0, 0.0]]), y_grid


@pytest.mark.parametrize("case", ["k2_lattice", "diag_trig", "phi_differs",
                                  "off_lattice_y"])
def test_reconstruct_matches_materialized_path(case):
    # the stream divided by M, on reconstruct's covering y~ grid by default
    f, g, phi, frame, y_grid = reconstruct_case(case)
    grid = covering_y_grid(f.grid, g, phi, frame)[0] if y_grid is None else y_grid
    F = dstft_fast(f, g, frame, y_grid=grid)
    want = (dso(F, phi, frame, f.grid).values / pairing_check(g, phi).value
            / multiplier(g, phi, frame, f.grid, grid))
    got = reconstruct(f, g, phi, frame, y_grid=y_grid)
    assert got.grid == f.grid
    assert relative_error(got.values, want) <= 1e-14


def test_reconstruct_memory_bounded(monkeypatch):
    # the k=n=2 field at 32^2 takes 16 MiB, twice the allowance; two shards
    # (transform._in_shards) whatever the CPUs of the machine
    monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, sigma=1.0)
    win = gaussian_window(grid, [1.0, 1.0])
    bound = f.values.nbytes + 8 * BLOCK_ELEMS * 16
    assert bound < 16 * grid.size * grid.size
    tracemalloc.start()
    try:
        rec = reconstruct(f, win, win, identity_frame(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert rel_l2_error(rec.values, f.values) < 1e-3


def test_factored_dso_memory_bounded(monkeypatch):
    # two shards of a k=n=2 field at 32^2 (16 MiB): dso holds a block
    # buffer and the accumulators per shard, not a second field
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, sigma=1.0)
    win = gaussian_window(grid, [1.0, 1.0])
    frame = identity_frame(2, 2)
    field = dstft_fast(f, win, frame)
    monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
    bound = f.values.nbytes + 8 * BLOCK_ELEMS * 16
    tracemalloc.start()
    try:
        rec = dso(field, win, frame, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert rel_l2_error(rec.values, f.values * pairing_check(win, win).value) < 1e-3


Y_EXT = Grid.from_bounds([-16], [16], [128])


def test_orthogonality_identity_frame():
    g = Grid.from_bounds([-8], [8], [64])
    f1 = gaussian(g, sigma=1.0)
    f2 = gaussian(g, sigma=2.0)
    ga = gaussian_window(g, 1.0)
    gb = gaussian_window(g, 2.0)
    assert orthogonality_error(f1, f2, ga, gb, identity_frame(1, 1),
                               y_grid=Y_EXT) < 1e-8


def test_orthogonality_parseval_special_case():
    # g = phi, f1 = f2: both sides equal ||f||^2 ||g||^2
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    F = dstft_fast(f, win, identity_frame(1, 1), y_grid=Y_EXT)
    lhs = F.inner_product(F)
    nf = inner_product(f, f).real
    ng = inner_product(win.as_signal(), win.as_signal()).real
    assert lhs.real == pytest.approx(nf * ng, rel=1e-8)
    assert abs(lhs.imag) < 1e-12
    assert orthogonality_error(f, f, win, win, identity_frame(1, 1),
                               y_grid=Y_EXT) < 1e-10


def test_orthogonality_directional_frame():
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f1 = gaussian(g, sigma=2.0)
    f2 = gaussian(g, sigma=2.0)
    win = gaussian_window(Grid.from_bounds([-16], [16], [64]), 2.0)
    frame = build_frame([[1.0, 1.0]])
    import warnings
    from dirstft.grids import CoverageWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        assert orthogonality_error(f1, f2, win, win, frame, y_grid=Y_EXT) < 1e-3


def test_orthogonality_requires_shared_grid():
    a = gaussian(Grid.from_bounds([-8], [8], [64]), sigma=1.0)
    b = gaussian(Grid.from_bounds([-8], [8], [32]), sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    with pytest.raises(ValueError, match="share a grid"):
        orthogonality_error(a, b, win, win, identity_frame(1, 1))


def test_window_change_identity_kernel():
    # phi = g, gamma = g / ||g||^2: the field maps to itself
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    norm2 = inner_product(win.as_signal(), win.as_signal()).real
    gamma = Window(g, win.values / norm2, WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, win, frame)
    out = window_change(F, gamma, win, win)
    assert relative_error(out.values, F.values) < 1e-12


def test_window_change_gaussian_sigma_swap():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    ga = gaussian_window(g, 1.0)
    gb = gaussian_window(g, 2.0)
    norm2 = inner_product(ga.as_signal(), ga.as_signal()).real
    gamma = Window(g, ga.values / norm2, WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, ga, frame)
    out = window_change(F, gamma, gb, ga)
    ref = dstft_fast(f, gb, frame)
    assert relative_error(out.values, ref.values) < 1e-12


def test_window_change_directional_k1():
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(g, sigma=1.0)
    wg = Grid.from_bounds([-8], [8], [32])
    ga = gaussian_window(wg, 1.0)
    gb = gaussian_window(wg, 2.0)
    norm2 = inner_product(ga.as_signal(), ga.as_signal()).real
    gamma = Window(wg, ga.values / norm2, WindowKind.CUSTOM)
    frame = build_frame([[1.0, 0.0]])
    F = dstft_fast(f, ga, frame)
    out = window_change(F, gamma, gb, ga)
    ref = dstft_fast(f, gb, frame)
    assert relative_error(out.values, ref.values) < 1e-12


def test_window_change_rejects_inadmissible_gamma():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    t = g.axis(0)
    odd = Window(g, t * np.exp(-np.pi * t ** 2), WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, win, frame)
    with pytest.raises(ValueError, match="inadmissible"):
        window_change(F, odd, win, win)


def window_change_case(case):
    """(f, g, gamma, phi, frame): gamma = g / ||g||^2, phi a wider
    Gaussian on g's grid."""
    wgrid = Grid.from_bounds([-8], [8], [32])
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    if case == "e2":
        frame = build_frame([[0.0, 1.0]])
    elif case == "diagonal":
        frame = build_frame([[1.0, 1.0]])
    elif case == "window grid 48 under 64":
        grid = Grid.from_bounds([-8], [8], [64])
        wgrid = Grid.from_bounds([-8], [8], [48])
        frame = identity_frame(1, 1)
    elif case == "signal origin -7.9":
        grid = Grid.from_bounds([-7.9], [8.1], [64])
        wgrid = Grid.from_bounds([-8], [8], [64])
        frame = identity_frame(1, 1)
    else:  # k = n = 2, rotated by 30 degrees
        c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
        grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        wgrid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        frame = build_frame([[c, s], [-s, c]])
    f = gaussian(grid, sigma=1.0)
    g = gaussian_window(wgrid, [1.0] * frame.k)
    norm2 = inner_product(g.as_signal(), g.as_signal()).real
    gamma = Window(wgrid, g.values / norm2, WindowKind.CUSTOM)
    return f, g, gamma, gaussian_window(wgrid, [2.0] * frame.k), frame


@pytest.mark.parametrize("case", ["e2", "diagonal", "window grid 48 under 64",
                                  "signal origin -7.9", "k2 rotated"])
def test_window_change_is_phi_analysis_of_the_reconstruction(case):
    # DS_phi DS*_gamma DS_g f / (g, gamma) = DS_phi (f M), M the
    # reconstruction multiplier, for any frame, window grid and signal grid
    f, g, gamma, phi, frame = window_change_case(case)
    got = window_change(dstft_fast(f, g, frame), gamma, phi, g)
    M = multiplier(g, gamma, frame, f.grid, default_y_grid(f.grid, frame))
    want = dstft_fast(Signal(f.grid, f.values * M), phi, frame)
    assert got.y_grid == want.y_grid and got.grid == want.grid
    assert relative_error(got.values, want.values) <= 1e-12


def test_dso_non_primal_out_grid_uses_direct_path():
    g = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    f = random_bandlimited(g, 3, band=0.5)
    win = gaussian_window(Grid.from_bounds([-4], [4], [8]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    F = dstft_fast(f, win, frame)
    other = Grid.from_bounds([-3, -3], [3, 3], [6, 6])
    got = dso(F, win, frame, other)
    assert np.array_equal(got.values, dso_direct(F, win, frame, other).values)


@pytest.mark.parametrize("synth", [dso, dso_direct])
@pytest.mark.parametrize("counts", [(16, 16), (12, 12)], ids=["primal", "other grid"])
def test_synthesis_refuses_a_frame_other_than_the_fields(synth, counts):
    # a field of u = (1, 1)/sqrt2 synthesized with e_1 would be 8% off
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(gaussian(grid, 1.0), win, build_frame([[1.0, 1.0]]))
    out_grid = Grid.from_bounds([-4, -4], [4, 4], counts)
    with pytest.raises(ValueError, match=r"^frame rows \[\[1\.0, 0\.0\]\] are not the field's \[\[0\.7071"):
        synth(F, win, build_frame([[1.0, 0.0]]), out_grid)
    synth(F, win, build_frame(F.frame.u), out_grid)


def test_synthesis_rejects_a_window_of_other_dimension():
    # k = n = 2 with a 1-D window: the oracle names the mismatch, as the
    # fast path does, instead of failing on a numpy broadcast
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    frame = identity_frame(2, 2)
    F = dstft_fast(gaussian(g, sigma=1.0), gaussian_window(g, [1.0, 1.0]), frame)
    w1 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    for synth in (dso, dso_direct):
        with pytest.raises(ValueError, match="window and signal dimensions 1, 2"):
            synth(F, w1, frame, g)


def test_dso_non_primal_out_grid_above_cap_rejected():
    g = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    frame = build_frame([[1.0, 0.0]])
    F = dstft_fast(f, win, frame)
    other = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    with pytest.raises(ValueError, match="exceeds cap .* primal grid"):
        dso(F, win, frame, other)


@pytest.mark.parametrize("case", ["one level", "factored", "blind axis"])
def test_dso_never_writes_into_its_field(case):
    # dso phases each block into a buffer of its own, which synthesis then
    # inverts in place; the field's rows are only read
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    win1 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    win, frame = {"one level": (win1, build_frame([[1.0, 1.0]])),
                  "factored": (gaussian_window(g, [1.0, 1.2]), identity_frame(2, 2)),
                  "blind axis": (win1, build_frame([[0.0, 1.0]]))}[case]
    F = dstft_fast(random_bandlimited(g, 4, band=0.5), win, frame)
    before = F.values.copy()
    dso(F, win, frame, g)
    assert np.array_equal(F.values, before)
