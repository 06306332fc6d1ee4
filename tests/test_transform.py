import tracemalloc

import numpy as np
import pytest

from dirstft import (BallSpec, DstftField, Grid, Signal, build_frame,
                     dstft_direct, dstft_fast, gaussian_window, gevrey_bump,
                     invariants, pairing_check, reconstruct,
                     transform, wavefront_scan)
from dirstft import grids
from dirstft.direction import identity_frame
from dirstft.synthesis import covering_y_grid, dso
from dirstft.fixtures import gaussian, heaviside_sheet, random_bandlimited
from dirstft.grids import BLOCK_ELEMS, relative_error
from dirstft.transform import default_y_grid, dstft_direct_at
from dirstft.wavefront import cone_dictionary_2d
from dirstft.windows import _lattice_blocks, window_at, window_blocks, window_levels


def classical_stft(f, g, y_grid, xi_grid):
    """Independent reference: plain windowed Fourier quadrature, k = n."""
    T = f.grid.points()
    Y = y_grid.points()
    Xi = xi_grid.points()
    ff = f.values.ravel()
    gg = g.values.ravel()
    vol = f.grid.cell_volume
    out = np.empty((Y.shape[0], Xi.shape[0]), dtype=complex)
    tg = {tuple(np.round(t / np.asarray(g.grid.spacing)).astype(int)): v
          for t, v in zip(T, gg)}
    sp = np.asarray(g.grid.spacing)
    for a, y in enumerate(Y):
        w = np.array([tg.get(tuple(np.round((t - y) / sp).astype(int)), 0.0)
                      for t in T])
        for b, xi in enumerate(Xi):
            out[a, b] = vol * np.sum(ff * np.conj(w) * np.exp(-2j * np.pi * (T @ xi)))
    return out


def test_matches_classical_stft_k_equals_n():
    g = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    f = random_bandlimited(g, 21, band=0.6)
    win = gaussian_window(g, [1.0, 1.0])
    field = dstft_fast(f, win, identity_frame(2, 2))
    ref = classical_stft(f, win, field.y_grid, field.xi_grid)
    assert relative_error(field.values.reshape(ref.shape), ref) < 1e-10


def test_gaussian_pair_magnitude_closed_form():
    # n = k = 1, unit Gaussians: |DS f(y, xi)| = 2^{-1/2} e^{-pi (y^2 + xi^2)/2}
    g = Grid.from_bounds([-8], [8], [128])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    field = dstft_fast(f, win, identity_frame(1, 1))
    Y = field.y_grid.points()[:, 0]
    Xi = field.xi_grid.points()[:, 0]
    want = 2 ** -0.5 * np.exp(-np.pi * (Y[:, None] ** 2 + Xi[None, :] ** 2) / 2)
    got = np.abs(field.values.reshape(want.shape))
    mask = want > 1e-8
    assert np.max(np.abs(got - want)[mask]) < 1e-10


@pytest.mark.parametrize("u", [[[1.0, 0.0]], [[1.0, 1.0]], [[0.6, -0.8]]])
def test_fast_matches_direct_k1(u):
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = random_bandlimited(g, 5, band=0.5)
    frame = build_frame(u)
    wg = Grid.from_bounds([-4], [4], [16])
    win = gaussian_window(wg, 1.0)
    fast = dstft_fast(f, win, frame)
    slow = dstft_direct(f, win, frame)
    assert relative_error(fast.values, slow.values) < 1e-10


def test_fast_matches_direct_k2():
    g = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    f = random_bandlimited(g, 6, band=0.5)
    frame = build_frame([[1.0, 1.0], [1.0, -1.0]])
    wg = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    win = gaussian_window(wg, [1.0, 1.0])
    fast = dstft_fast(f, win, frame)
    slow = dstft_direct(f, win, frame)
    assert relative_error(fast.values, slow.values) < 1e-10


def test_delta_signal_factorizes():
    # f = delta at t0: DS f(y, xi) = conj(g(u.t0 - y)) e^{-2 pi i t0 xi}
    g = Grid.from_bounds([-4], [4], [32])
    t0 = 0.75
    vals = np.zeros(32, dtype=complex)
    vals[g.lattice_index(np.array([[t0]]))[0]] = 1.0 / g.cell_volume
    f = Signal(g, vals)
    win = gaussian_window(g, 1.0)
    field = dstft_fast(f, win, identity_frame(1, 1))
    Y = field.y_grid.points()[:, 0]
    Xi = field.xi_grid.points()[:, 0]
    want = np.conj(np.exp(-np.pi * (t0 - Y)[:, None] ** 2)) \
        * np.exp(-2j * np.pi * t0 * Xi)[None, :]
    assert relative_error(field.values.reshape(want.shape), want) < 1e-12


def test_direct_at_off_lattice_points():
    g = Grid.from_bounds([-8], [8], [128])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, 1.0)
    frame = identity_frame(1, 1)
    y = np.array([[0.3], [-0.7]])
    xi = np.array([[0.45], [1.2]])
    got = dstft_direct_at(f, win, frame, y, xi)
    # closed form: DS f(y, xi) = 2^{-1/2} e^{-pi y^2/2} e^{-pi xi^2/2}
    #              e^{-pi i y xi}   (Gaussian pair, exact up to truncation)
    want = 2 ** -0.5 * np.exp(-np.pi * y ** 2 / 2) \
        * np.exp(-np.pi * xi[:, 0] ** 2 / 2)[None, :] \
        * np.exp(-1j * np.pi * y * xi[:, 0][None, :])
    assert np.max(np.abs(got - want)) < 1e-10


def test_default_y_grid_projection():
    g = Grid.from_bounds([-4, -2], [4, 2], [32, 16])
    y = default_y_grid(g, build_frame([[1.0, 0.0]]))
    assert y.dim == 1
    assert y.origin == (g.origin[0],)
    assert y.counts == (32,)


def test_default_y_grid_follows_a_coordinate_axis_frame():
    # u = e_2 takes axis 1's origin, spacing and count, so a window on
    # axis 1's 0.5 lattice gathers; the first-k projection (axis 0's 0.4
    # lattice) sends it down the trigonometric path
    grid = Grid.from_bounds([-4, -5], [4, 5], [20, 20])
    frame = build_frame([[0.0, 1.0]])
    y = default_y_grid(grid, frame)
    assert (y.origin, y.spacing, y.counts) == ((-5.0,), (0.5,), (20,))
    g = gaussian_window(Grid.from_bounds([-2], [2], [8]), [1.0])
    proj = grid.points() @ frame.u.T
    assert _lattice_blocks(g, proj, y.points()) is not None
    first = Grid(grid.origin[:1], grid.spacing[:1], grid.counts[:1])
    assert _lattice_blocks(g, proj, first.points()) is None
    # rows that are coordinate axes in any order pick those axes
    g3 = Grid((0.0, 1.0, 2.0), (0.1, 0.2, 0.3), (4, 5, 6))
    y3 = default_y_grid(g3, build_frame([[0, 0, 1], [1, 0, 0]]))
    assert (y3.origin, y3.spacing, y3.counts) == ((2.0, 0.0), (0.3, 0.1), (6, 4))
    # any other frame keeps the first-k projection
    s = 2 ** -0.5
    for frame in (identity_frame(2, 2), build_frame([[1.0, 0.0]]),
                  build_frame([[s, s]]), build_frame([[0.0, -1.0]])):
        y = default_y_grid(grid, frame)
        assert y == Grid(grid.origin[:frame.k], grid.spacing[:frame.k],
                         grid.counts[:frame.k])


def test_direct_work_cap(monkeypatch):
    g = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-4], [4], [64]), 1.0)
    monkeypatch.setattr(grids, "ORACLE_WORK_CAP", 2 ** 20)
    with pytest.raises(ValueError, match="cap"):
        dstft_direct(f, win, build_frame([[1.0, 0.0]]))


def test_direct_at_refuses_work_above_the_oracle_cap(monkeypatch):
    # Nt Ny Nxi = 256 * 4 * 8 terms
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    y_pts = np.linspace(-1, 1, 4)[:, None]
    xi_pts = np.stack([np.linspace(-1, 1, 8), np.zeros(8)], axis=-1)
    monkeypatch.setattr(grids, "ORACLE_WORK_CAP", 256 * 4 * 8 - 1)
    with pytest.raises(ValueError, match="exceeds cap 8191"):
        dstft_direct_at(f, win, frame, y_pts, xi_pts)
    monkeypatch.setattr(grids, "ORACLE_WORK_CAP", 256 * 4 * 8)
    assert dstft_direct_at(f, win, frame, y_pts, xi_pts).shape == (4, 8)


def test_dimension_mismatch_rejected():
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(g, [1.0, 1.0])       # 2-dim window, k = 1 frame
    with pytest.raises(ValueError):
        dstft_fast(f, win, build_frame([[1.0, 0.0]]))


def test_direct_and_streamed_paths_reject_dimensions_off_the_frame():
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(g, sigma=1.0)
    w1 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    k2 = identity_frame(2, 2)
    with pytest.raises(ValueError, match="window and signal dimensions 1, 2"):
        dstft_direct_at(f, w1, k2, [[0.0, 0.0]], [[0.0, 0.0]])
    f1 = gaussian(Grid.from_bounds([-4], [4], [16]), sigma=1.0)
    with pytest.raises(ValueError, match="window and signal dimensions 1, 1"):
        dstft_direct_at(f1, w1, build_frame([[1.0, 0.0]]), [[0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="1 coordinates"):
        dstft_direct_at(f, w1, build_frame([[1.0, 0.0]]), [[0.0, 3.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="2 coordinates"):
        dstft_direct_at(f, w1, build_frame([[1.0, 0.0]]), [[0.0]], [[0.0]])
    # rejected when called, before a block is computed
    with pytest.raises(ValueError, match="frame's k, n = \\(2, 2\\)"):
        window_blocks(w1, g, k2.u, g.points())


def test_lattice_window_upper_edge_rounding():
    # spacing 2/3: some u.t - y~ that belong on the window's upper edge
    # (outside its half-open box) round to just inside it
    g = Grid.from_bounds([-4, -4], [4, 4], [12, 12])
    f = random_bandlimited(g, 8, band=0.5)
    wg = Grid.from_bounds([-4], [4], [12])
    win = gaussian_window(wg, 1.0)
    frame = build_frame([[1.0, 0.0]])
    fast = dstft_fast(f, win, frame)
    assert relative_error(fast.values, dstft_direct(f, win, frame).values) < 1e-10
    edge = np.array([[wg.upper[0] - 1e-15]])
    assert window_at(win, edge)[0] == 0


def test_field_bytes_cap_checked_before_allocating(monkeypatch):
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(grid, sigma=1.0)
    win = gevrey_bump(Grid.from_bounds([-4], [4], [16]), 1.0, 2.0)
    frame = build_frame([[1.0, 0.0]])
    nbytes = 16 * 16 * grid.size
    monkeypatch.setattr(transform, "FIELD_BYTES_CAP", nbytes - 1)
    for analyze in (dstft_fast, dstft_direct):
        with pytest.raises(ValueError, match=f"takes {nbytes} bytes.*stream"):
            analyze(f, win, frame)
    # the streaming consumers store no field, so the cap does not bind them
    rec = reconstruct(f, win, win, frame)
    assert relative_error(rec.values, f.values) < 1e-6
    cells = [BallSpec((0.0,), 0.5)]
    assert len(wavefront_scan(f, win, frame, 2.0, cells,
                              cone_dictionary_2d(4, r_min=0.25)).entries) == 4
    monkeypatch.setattr(transform, "FIELD_BYTES_CAP", nbytes)
    assert dstft_fast(f, win, frame).values.nbytes == nbytes


@pytest.mark.parametrize("index", [0, BLOCK_ELEMS, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_field_finiteness_checked_in_every_chunk(index, bad):
    y_grid = Grid.from_bounds([0.0], [1.0], [5])
    grid = Grid.from_bounds([0.0, 0.0], [1.0, 1.0], [128, 128])
    frame = identity_frame(2, 1)
    vals = np.ones((5, 128, 128), dtype=complex)
    # two chunks, the last one partial
    assert BLOCK_ELEMS < vals.size < 2 * BLOCK_ELEMS
    assert DstftField(y_grid, grid, vals, frame).values.shape == vals.shape
    vals.flat[index] = bad
    with pytest.raises(ValueError, match="finite"):
        DstftField(y_grid, grid, vals, frame)


BLIND_FRAMES = {
    "u=[[1,0]]": (build_frame([[1.0, 0.0]]), (12, 10)),
    "u=[[0,1]]": (build_frame([[0.0, 1.0]]), (12, 10)),
    "e^1 in R^3": (identity_frame(3, 1), (6, 5, 4)),
    "e^2 in R^3": (identity_frame(3, 2), (6, 5, 4)),
}


@pytest.mark.parametrize("on_lattice", [True, False])
@pytest.mark.parametrize("name", list(BLIND_FRAMES))
def test_blind_axes_match_the_oracles(name, on_lattice):
    # the transform along the frame-blind axes runs once per call, and the
    # window blocks have size 1 along them; both oracles broadcast them
    frame, counts = BLIND_FRAMES[name]
    grid = Grid.from_bounds([-3.0] * len(counts), [3.5] * len(counts), counts)
    rng = np.random.default_rng(len(counts) + frame.k)
    f = Signal(grid, rng.normal(size=counts) + 1j * rng.normal(size=counts))
    seen = [i for i in range(frame.n) if np.any(frame.u[:, i])]
    h = [grid.spacing[i] for i in seen]
    n = [grid.counts[i] for i in seen]
    if on_lattice:
        w_grid = Grid(tuple(-(m // 2) * s for m, s in zip(n, h)), h, n)
    else:
        w_grid = Grid.from_bounds([-3.0] * frame.k, [3.0] * frame.k, [7] * frame.k)
    g = gaussian_window(w_grid, [1.0] * frame.k)
    assert invariants.oracle_error(f, g, frame) <= 1e-10
    for phi in (g, gaussian_window(w_grid, [1.3] * frame.k)):
        # the synthesis of the field on reconstruct's covering y~ grid, / M
        y_grid = covering_y_grid(grid, g, phi, frame)[0]
        field = dstft_fast(f, g, frame, y_grid=y_grid)
        want = (dso(field, phi, frame, grid).values / pairing_check(g, phi).value
                / invariants.multiplier(g, phi, frame, grid, y_grid))
        assert relative_error(reconstruct(f, g, phi, frame).values, want) <= 1e-12


def full_spectrum_field(monkeypatch, f, g, frame):
    """dstft_fast with no stream taken as Hermitian (transform._half_axis)."""
    with monkeypatch.context() as mp:
        mp.setattr(transform, "_half_axis", lambda f, levels: None)
        return dstft_fast(f, g, frame)


@pytest.mark.parametrize("case", ["complex f", "off-lattice window", "k = n"])
def test_complex_signals_trig_windows_and_square_frames_keep_the_full_spectrum(
        case, monkeypatch):
    # the half spectrum needs a real f, real window values and a blind
    # axis: a modulated f, a window interpolated off its lattice (not
    # exactly real) and a frame with no blind axis each miss one, and
    # stream the whole spectrum
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = heaviside_sheet(grid, (1.0, 0.3), 0.2)
    g = gevrey_bump(Grid.from_bounds([-2], [2], [8]), 1.2, 2.0)
    frame = build_frame([[1.0, 0.0]])
    if case == "complex f":
        f = gaussian(grid, modulation=(0.5, 0.25))
    elif case == "off-lattice window":
        grid = Grid.from_bounds([-4] * 3, [4] * 3, [8, 8, 6])
        f = heaviside_sheet(grid, (1.0, 0.3, 0.5), 0.2)
        frame = build_frame([[1.0, 1.0, 0.0]])
    else:
        g = gaussian_window(Grid.from_bounds([-2, -2], [2, 2], [8, 8]), [1.0, 1.0])
        frame = identity_frame(2, 2)
    levels = window_levels(g, f.grid, frame.u, default_y_grid(f.grid, frame))
    assert transform._half_axis(f, levels) is None
    assert (levels.real, bool(levels.blind)) == {
        "complex f": (True, True), "off-lattice window": (False, True),
        "k = n": (True, False)}[case]
    assert np.array_equal(dstft_fast(f, g, frame).values,
                          full_spectrum_field(monkeypatch, f, g, frame).values)


def test_half_spectrum_holds_no_more_memory_than_the_full_one(monkeypatch):
    # a real n = 3 sheet on the e_1, e_2 frame (a 16 MiB field, halved
    # along its last axis): the half spectrum is streamed in the field's
    # own rows and filled in place, so dstft_fast's peak is no higher than
    # the full spectrum's.  One shard, as the peak of two depends on how
    # their block temporaries overlap in time; each path runs once first,
    # so neither peak holds the set-up of a cache
    monkeypatch.setattr(transform, "_cpu_count", lambda: 1)
    grid = Grid.from_bounds([-4] * 3, [4] * 3, [16, 16, 16])
    f = heaviside_sheet(grid, (1.0, 0.4, 0.7), 0.1)
    g = gevrey_bump(Grid.from_bounds([-2, -2], [2, 2], [8, 8]), 1.5, 2.0)
    frame = identity_frame(3, 2)
    peaks = []
    for field in [lambda: dstft_fast(f, g, frame),
                  lambda: full_spectrum_field(monkeypatch, f, g, frame)] * 2:
        tracemalloc.start()
        try:
            F = field()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del F
    assert peaks[2] <= peaks[3]
