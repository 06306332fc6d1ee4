import numpy as np
import pytest

from dirstft import (BallSpec, DstftField, Grid, Signal, build_frame,
                     dstft_direct, dstft_fast, gaussian_window, gevrey_bump,
                     partial_stft, reconstruct, transform, wavefront_scan)
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import BLOCK_ELEMS, relative_error
from dirstft.transform import default_y_grid, dstft_blocks, dstft_direct_at
from dirstft.wavefront import cone_dictionary_2d
from dirstft.windows import window_at


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


def test_partial_stft_matches_tensor_window():
    from dirstft.windows import tensor_window
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = random_bandlimited(g, 13, band=0.5)
    g1 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    g2 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 2.0)
    frame = identity_frame(2, 2)
    a = partial_stft(f, [g1, g2], frame)
    b = dstft_fast(f, tensor_window([g1, g2]), frame)
    assert np.array_equal(a.values, b.values)


def test_default_y_grid_projection():
    g = Grid.from_bounds([-4, -2], [4, 2], [32, 16])
    y = default_y_grid(g, 1)
    assert y.dim == 1
    assert y.origin == (g.origin[0],)
    assert y.counts == (32,)


def test_direct_work_cap():
    g = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    f = gaussian(g, sigma=1.0)
    win = gaussian_window(Grid.from_bounds([-4], [4], [64]), 1.0)
    with pytest.raises(ValueError, match="cap"):
        dstft_direct(f, win, build_frame([[1.0, 0.0]]), work_cap=2 ** 20)


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
        dstft_blocks(f, w1, k2, g)


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
    xi_grid = Grid.from_bounds([0.0, 0.0], [1.0, 1.0], [128, 128])
    vals = np.ones((5, 128, 128), dtype=complex)
    # two chunks, the last one partial
    assert BLOCK_ELEMS < vals.size < 2 * BLOCK_ELEMS
    assert DstftField(y_grid, xi_grid, vals).values.shape == vals.shape
    vals.flat[index] = bad
    with pytest.raises(ValueError, match="finite"):
        DstftField(y_grid, xi_grid, vals)
