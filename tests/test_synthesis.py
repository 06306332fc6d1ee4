import tracemalloc

import numpy as np
import pytest

from dirstft import (Grid, Signal, build_frame, dstft_fast, gaussian_window,
                     orthogonality_check, pairing_check, reconstruct,
                     window_change)
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import BLOCK_ELEMS, inner_product, rel_l2_error, relative_error
from dirstft.synthesis import dso, dso_direct
from dirstft.windows import Window, WindowKind


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
    f, g, phi, frame, y_grid = reconstruct_case(case)
    F = dstft_fast(f, g, frame, y_grid=y_grid)
    want = dso(F, phi, frame, f.grid).values / pairing_check(g, phi).value
    got = reconstruct(f, g, phi, frame, y_grid=y_grid)
    assert got.grid == f.grid
    assert relative_error(got.values, want) <= 1e-14


def test_reconstruct_memory_bounded():
    # the k=n=2 field at 32^2 takes 16 MiB, twice the allowance
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


Y_EXT = Grid.from_bounds([-16], [16], [128])


def test_orthogonality_identity_frame():
    g = Grid.from_bounds([-8], [8], [64])
    f1 = gaussian(g, sigma=1.0)
    f2 = gaussian(g, sigma=2.0)
    ga = gaussian_window(g, 1.0)
    gb = gaussian_window(g, 2.0)
    lhs, rhs = orthogonality_check(f1, f2, ga, gb, identity_frame(1, 1),
                                   y_grid=Y_EXT)
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_orthogonality_parseval_special_case():
    # g = phi, f1 = f2: both sides equal ||f||^2 ||g||^2
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    lhs, rhs = orthogonality_check(f, f, win, win, identity_frame(1, 1),
                                   y_grid=Y_EXT)
    nf = inner_product(f, f).real
    ng = inner_product(win.as_signal(), win.as_signal()).real
    assert lhs.real == pytest.approx(nf * ng, rel=1e-8)
    assert abs(lhs.imag) < 1e-12
    assert abs(lhs - rhs) < 1e-10


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
        lhs, rhs = orthogonality_check(f1, f2, win, win, frame, y_grid=Y_EXT)
    assert abs(lhs - rhs) / abs(rhs) < 1e-3


def test_orthogonality_requires_shared_grid():
    a = gaussian(Grid.from_bounds([-8], [8], [64]), sigma=1.0)
    b = gaussian(Grid.from_bounds([-8], [8], [32]), sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    with pytest.raises(ValueError):
        orthogonality_check(a, b, win, win, identity_frame(1, 1))


def test_window_change_identity_kernel():
    # phi = g, gamma = g / ||g||^2: the field maps to itself
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    norm2 = inner_product(win.as_signal(), win.as_signal()).real
    gamma = Window(g, win.values / norm2, WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, win, frame)
    out = window_change(F, gamma, win, frame, win)
    assert relative_error(out.values, F.values) < 1e-10


def test_window_change_gaussian_sigma_swap():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    ga = gaussian_window(g, 1.0)
    gb = gaussian_window(g, 2.0)
    norm2 = inner_product(ga.as_signal(), ga.as_signal()).real
    gamma = Window(g, ga.values / norm2, WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, ga, frame)
    out = window_change(F, gamma, gb, frame, ga)
    ref = dstft_fast(f, gb, frame)
    assert relative_error(out.values, ref.values) < 1e-3


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
    out = window_change(F, gamma, gb, frame, ga)
    ref = dstft_fast(f, gb, frame)
    assert relative_error(out.values, ref.values) < 1e-3


def test_window_change_rejects_inadmissible_gamma():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    t = g.axis(0)
    odd = Window(g, t * np.exp(-np.pi * t ** 2), WindowKind.CUSTOM)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, win, frame)
    with pytest.raises(ValueError, match="inadmissible"):
        window_change(F, odd, win, frame, win)


def test_window_change_rejects_incommensurate_gamma_grid():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    frame = identity_frame(1, 1)
    F = dstft_fast(f, win, frame)
    other = Grid.from_bounds([-8], [8], [48])
    norm2 = inner_product(win.as_signal(), win.as_signal()).real
    gamma = gaussian_window(other, 1.0)
    phi = gaussian_window(other, 1.0)
    with pytest.raises(ValueError):
        window_change(F, gamma, phi, frame, gaussian_window(other, 1.0))


def test_dso_non_primal_out_grid_uses_direct_path():
    g = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    f = random_bandlimited(g, 3, band=0.5)
    win = gaussian_window(Grid.from_bounds([-4], [4], [8]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    F = dstft_fast(f, win, frame)
    other = Grid.from_bounds([-3, -3], [3, 3], [6, 6])
    got = dso(F, win, frame, other)
    assert np.array_equal(got.values, dso_direct(F, win, frame, other).values)


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
