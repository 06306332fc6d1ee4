"""The batched window engine against per-point window_at, the separable
trigonometric interpolation against the dense formula, and the memory
budget, input safety and overflow checks of the blocked transform paths."""

import math
import tracemalloc

import numpy as np
import pytest

from dirstft import Grid, Signal, build_frame, dstft_fast, gaussian_window, gevrey_bump
from dirstft import transform, windows
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, heaviside_sheet
from dirstft.grids import BLOCK_ELEMS, LATTICE_TOL, dft, evaluate_trig
from dirstft.synthesis import dso, dso_direct, reconstruct
from dirstft.transform import DstftField, dstft_direct
from dirstft.wavefront import BallSpec, cone_dictionary_2d, wavefront_scan
from dirstft.windows import (Window, WindowKind, _lattice_blocks,
                             _projected_box, window_at, window_blocks)

S2 = 1 / math.sqrt(2)


def engine(w, grid, u, Y):
    """Concatenated engine blocks broadcast to (B, Nt), checking they tile
    the y~ points and have size 1 on exactly the axes u is zero along."""
    moving = np.any(np.atleast_2d(u) != 0, axis=0)
    shape = tuple(n if m else 1 for n, m in zip(grid.counts, moving))
    rows, end = [], 0
    for lo, hi, W in window_blocks(w, grid, u, Y):
        assert lo == end and hi > lo and W.shape == (hi - lo,) + shape
        rows.append(np.broadcast_to(W, (hi - lo,) + grid.counts).reshape(hi - lo, -1))
        end = hi
    assert end == len(Y)
    return np.concatenate(rows)


def per_point(w, grid, u, Y):
    proj = grid.points() @ np.atleast_2d(u).T
    return np.stack([window_at(w, proj - y) for y in Y])


def is_lattice(w, grid, u, Y):
    proj = grid.points() @ np.atleast_2d(u).T
    return _lattice_blocks(w, proj, np.atleast_2d(Y)) is not None


def assert_engine_matches(w, grid, u, Y, lattice):
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    assert is_lattice(w, grid, u, Y) == lattice
    got = engine(w, grid, u, Y)
    want = per_point(w, grid, u, Y)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    return want


GRID2 = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
WIN1 = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)


def test_lattice_frame():
    Y = Grid.from_bounds([-4], [4], [16]).points()
    assert_engine_matches(WIN1, GRID2, [[1.0, 0.0]], Y, lattice=True)


def test_lattice_frame_k2():
    grid = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    win = gaussian_window(grid, [1.0, 0.7])
    assert_engine_matches(win, grid, np.eye(2), grid.points(), lattice=True)


def test_off_lattice_frame():
    Y = Grid.from_bounds([-4], [4], [16]).points()
    assert_engine_matches(WIN1, GRID2, [[S2, S2]], Y, lattice=False)


def test_off_lattice_frame_k2():
    grid = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    win = gaussian_window(grid, [1.0, 1.0])
    frame = build_frame([[1.0, 1.0], [1.0, -1.0]])
    assert_engine_matches(win, grid, frame.u, grid.points(), lattice=False)


def test_off_lattice_frame_n3():
    # three signal axes: the per-axis factors are contracted in order
    grid = Grid.from_bounds([-3, -3, -3], [3, 3, 3], [6, 5, 4])
    win = gaussian_window(Grid.from_bounds([-3], [3], [12]), 1.0)
    frame = build_frame([[1.0, 0.6, -0.3]])
    Y = Grid.from_bounds([-3], [3], [12]).points()
    assert_engine_matches(win, grid, frame.u, Y, lattice=False)


@pytest.mark.parametrize("u, lattice", [([[0.0, 1.0]], True),
                                        ([[0.0, 1.0]], False),
                                        ([[1.0, 0.0, 0.6]], False),
                                        ([[0.0, 0.6, 0.8]], False)])
def test_blind_axes_broadcast(u, lattice):
    # frames blind to a leading, a middle or a trailing axis: each block
    # has size 1 there and broadcasts to window_at on the whole grid
    grid = Grid.from_bounds([-3] * len(u[0]), [3] * len(u[0]), [8, 6, 5][:len(u[0])])
    win = gaussian_window(Grid.from_bounds([-3], [3], [6 if lattice else 7]), 1.0)
    Y = Grid.from_bounds([-3], [3], [6]).points() + [[0.0 if lattice else 0.3]]
    assert_engine_matches(win, grid, build_frame(u).u, Y, lattice)


def test_incommensurate_y_grid():
    # the lattice frame with the y~ origin shifted by half a step
    Y = Grid.from_bounds([-4], [4], [16]).points() + 0.25
    assert_engine_matches(WIN1, GRID2, [[1.0, 0.0]], Y, lattice=False)


@pytest.mark.parametrize("u, lattice", [([[1.0, 0.0]], True),
                                        ([[S2, S2]], False)])
def test_y_points_outside_window_box(u, lattice):
    Y = np.array([[-40.0], [-9.0], [-4.5], [0.0], [4.0], [12.0], [1e3]])
    want = assert_engine_matches(WIN1, GRID2, u, Y, lattice)
    assert not np.any(want[0]) and not np.any(want[-1])


@pytest.mark.parametrize("u, lattice", [([[1.0, 0.0]], True),
                                        ([[S2, S2]], False)])
def test_gevrey_bump(u, lattice):
    bump = gevrey_bump(Grid.from_bounds([-2], [2], [32]), 0.75, 2.0)
    grid = Grid.from_bounds([-2, -2], [2, 2], [32, 32])
    Y = Grid.from_bounds([-2], [2], [32]).points()
    want = assert_engine_matches(bump, grid, u, Y, lattice)
    assert np.count_nonzero(want) < want.size / 2     # the support mask bites


@pytest.mark.parametrize("u, lattice", [([[1.0, 0.0]], True),
                                        ([[S2, S2]], False)])
def test_support_radius_masks_nonzero_values(u, lattice):
    # a bump-kind window whose samples do not vanish at the support radius:
    # the radius, not the samples, must zero the window
    wg = Grid.from_bounds([-2], [2], [32])
    win = Window(wg, gaussian_window(wg, 1.0).values, WindowKind.GEVREY_BUMP,
                 alpha=2.0, support_radius=0.75)
    grid = Grid.from_bounds([-2, -2], [2, 2], [32, 32])
    want = assert_engine_matches(win, grid, u, wg.points(), lattice)
    assert np.count_nonzero(want) < want.size / 2


@pytest.mark.parametrize("a, b", [(0.5, 0.0), (0.9, 0.9), (0.0, 1.5), (0.4, 0.4)])
def test_lattice_path_takes_the_rule_of_lattice_index(a, b):
    # a signal origin a LATTICE_TOL steps off the window lattice and a
    # spacing that drifts b LATTICE_TOL steps over the grid: the engine
    # gathers exactly when window_at's rule, Grid.lattice_index, accepts
    # every proj - y~, which is when the largest offset a + b is at most 1
    wg = Grid.from_bounds([-8], [8], [64])
    h = wg.spacing[0]
    grid = Grid((-8 + a * LATTICE_TOL * h,), (h * (1 + b * LATTICE_TOL / 63),), (64,))
    Y = np.zeros((1, 1))
    accepted = wg.lattice_index(grid.points() - Y[0]) is not None
    assert accepted == (a + b <= 1)
    assert_engine_matches(gaussian_window(wg, 1.0), grid, [[1.0]], Y, accepted)


def test_lattice_path_takes_the_support_rule_of_window_at():
    # a bump-kind window with nonzero samples past its support radius, on
    # the lattice path in k = 2: the padded window is masked by window_at's
    # own test, so the blocks equal window_at exactly
    wg = Grid.from_bounds([-2, -2], [2, 2], [16, 16])
    win = Window(wg, gaussian_window(wg, [1.0, 1.0]).values, WindowKind.GEVREY_BUMP,
                 alpha=2.0, support_radius=1.3)
    Y = wg.points()[::37]
    assert is_lattice(win, wg, np.eye(2), Y)
    want = per_point(win, wg, np.eye(2), Y)
    assert np.array_equal(engine(win, wg, np.eye(2), Y), want)
    assert 0 < np.count_nonzero(want) < want.size / 2


def box_size(w, grid, u):
    u = np.atleast_2d(u)
    box = _projected_box(w, grid, u, grid.points() @ u.T)
    return None if box is None else box[0].size


@pytest.mark.parametrize("u, size", [([[1.0, 2.0]], 46), ([[1.0, -1.0]], 31),
                                     ([[1.0, 1e-300]], 16),
                                     ([[1.0, 1.000001]], None)])
def test_projected_box_matches_window_at(u, size):
    # J_0 = |q| . (N - 1) + 1 points: q = (1, 2), (1, -1) and (1, 0), the
    # 1e-300 term moving the projection by less than the lattice tolerance;
    # q = (1, 1) misses (1, 1.000001) by more than that, so it has no box
    frame = build_frame(u)
    assert box_size(WIN1, GRID2, frame.u) == size
    Y = np.concatenate([Grid.from_bounds([-4], [4], [16]).points(),
                        [[-9.0], [0.3], [12.0]]])
    assert_engine_matches(WIN1, GRID2, frame.u, Y, lattice=False)


def test_projected_box_k2_n3():
    # one lattice row and one diagonal row: a 6 x 9 box for 6 x 6 x 4 samples
    grid = Grid.from_bounds([-3, -3, -2], [3, 3, 2], [6, 6, 4])
    win = gaussian_window(Grid.from_bounds([-3, -3], [3, 3], [12, 12]),
                          [1.0, 0.8])
    frame = build_frame([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    assert box_size(win, grid, frame.u) == 6 * 9
    Y = Grid.from_bounds([-3, -3], [3, 3], [5, 7]).points() + [0.05, 0.0]
    assert_engine_matches(win, grid, frame.u, Y, lattice=False)


def test_projected_box_edges_use_the_exact_points():
    # y~ that put some proj - y~ exactly on the window box edges and on a
    # bump's support radius; the masks must see those points, not the box
    # points p + delta j that carry the window values
    wg = Grid.from_bounds([-2], [2], [32])
    grid = Grid.from_bounds([-2, -2], [2, 2], [32, 32])
    frame = build_frame([[1.0, 2.0]])
    proj = (grid.points() @ frame.u.T)[::97]
    Y = np.concatenate([proj + 2.0, proj - 2.0, proj - 0.75, proj + 0.75])
    gauss = gaussian_window(wg, 1.0)
    assert box_size(gauss, grid, frame.u) is not None
    bump = Window(wg, gauss.values, WindowKind.GEVREY_BUMP, alpha=2.0,
                  support_radius=0.75)
    for win in (gauss, bump):
        want = assert_engine_matches(win, grid, frame.u, Y, lattice=False)
        assert np.count_nonzero(want) < want.size


def test_diagonal_64_takes_the_box_path(monkeypatch):
    # u = (1, 1)/sqrt 2 on 64^2: 127 distinct projections t1 + t2 instead
    # of 4096 samples; a direction whose box is not smaller keeps the
    # per-sample path
    grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    boxes = []

    def spy(*args):
        boxes.append(_projected_box(*args))
        return boxes[-1]

    monkeypatch.setattr(windows, "_projected_box", spy)
    Y = [[-8.0], [0.3], [7.75]]
    W = engine(win, grid, build_frame([[1.0, 1.0]]).u, Y)
    box, index = boxes[0]
    assert len(boxes) == 1 and box.counts == (127,)
    assert index.shape == (4096,) and index.min() == 0 and index.max() == 126
    # samples with one box index get one window value
    first = np.unique(index, return_index=True)[1]
    assert np.array_equal(W, W[:, first[index]])
    want = per_point(win, grid, build_frame([[1.0, 1.0]]).u, Y)
    assert np.max(np.abs(W - want)) <= 1e-12 * np.max(np.abs(want))
    small = Grid.from_bounds([-2, -2], [2, 2], [8, 8])
    assert box_size(WIN1, small, build_frame([[1.0, 9.0]]).u) is None   # 71
    assert box_size(WIN1, GRID2, build_frame([[1.0, 9.0]]).u) == 151
    assert box_size(WIN1, small, build_frame([[1.0, math.sqrt(2)]]).u) is None
    # a non-integer step ratio has no box, whatever the grid size
    assert box_size(WIN1, GRID2, build_frame([[1.0, 0.3]]).u) is None


def test_box_block_is_the_gathered_box_rows_with_zeros(monkeypatch):
    # a bump on u = (1, 2): each box-path block is its box values gathered
    # to the samples, then +0.0 wherever window_at's mask, tested at the
    # exact points proj - y~, rejects a point
    grid = Grid.from_bounds([-2, -2], [2, 2], [32, 32])
    win = gevrey_bump(Grid.from_bounds([-2], [2], [32]), 1.5, 1.5)
    u = build_frame([[1.0, 2.0]]).u
    evaluated, trig_grid = [], windows._trig_grid

    def spy_grid(*args):
        evaluate = trig_grid(*args)

        def recorded(Z):
            evaluated.append(evaluate(Z).copy())
            return evaluated[-1]

        return recorded

    monkeypatch.setattr(windows, "_trig_grid", spy_grid)
    proj = grid.points() @ u.T
    Y = np.linspace(-4.0, 4.0, 100)[:, None]
    blocks = list(window_blocks(win, grid, u, Y))
    index = _projected_box(win, grid, u, proj)[1]
    assert len(blocks) == len(evaluated) > 1
    for (lo, hi, W), Wbox in zip(blocks, evaluated):
        keep = windows._keep(win, proj[None] - Y[lo:hi, None])
        want = np.where(keep, Wbox.reshape(hi - lo, -1)[:, index], 0)
        assert 0 < keep.sum() < keep.size
        assert W.dtype == want.dtype and W.tobytes() == want.tobytes()
        zeros = W.reshape(hi - lo, -1)[~keep]
        assert not (np.signbit(zeros.real).any() or np.signbit(zeros.imag).any())


def test_y_points_of_other_dimension_rejected():
    with pytest.raises(ValueError, match="1 coordinates"):
        window_blocks(WIN1, GRID2, [[S2, S2]], np.zeros((4, 2)))


def test_block_boundary_mid_grid():
    grid = Grid.from_bounds([-4, -4], [4, 4], [48, 48])
    rows = BLOCK_ELEMS // grid.size
    assert 0 < rows < 48 and 48 % rows          # a block ends mid-grid
    win = gaussian_window(Grid.from_bounds([-4], [4], [48]), 1.0)
    Y = Grid.from_bounds([-4], [4], [48]).points()
    for u, lattice in (([[1.0, 0.0]], True), ([[S2, S2]], False)):
        blocks = [(lo, hi) for lo, hi, _ in window_blocks(win, grid, u, Y)]
        assert blocks[0] == (0, rows) and blocks[-1][1] == 48
        assert_engine_matches(win, grid, u, Y, lattice)


def dense_trig(f, pts):
    """The dense formula: sum over every mode of c_m exp(2 pi i x . X_m)."""
    spec = dft(f)
    X = spec.grid.points()
    coeff = spec.values.ravel() * spec.grid.cell_volume
    return np.exp(2j * np.pi * (pts @ X.T)) @ coeff


@pytest.mark.parametrize("counts", [(7,), (8,), (5, 6), (8, 7),
                                    (3, 4, 5), (4, 5, 3)])
def test_separable_trig_matches_dense(counts):
    rng = np.random.default_rng(sum(counts))
    dim = len(counts)
    grid = Grid.from_bounds([-2.0] * dim, [3.0] * dim, counts)
    vals = rng.normal(size=counts) + 1j * rng.normal(size=counts)
    f = Signal(grid, vals)
    # more points than one chunk, a few of them outside the box
    pts = rng.uniform(-2.5, 3.5, size=(4000, dim))
    want = dense_trig(f, pts)
    got = evaluate_trig(f, pts)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.allclose(evaluate_trig(f, grid.points()), vals.ravel(),
                       rtol=0, atol=1e-12 * np.max(np.abs(vals)))


@pytest.mark.parametrize("case", ["k2_lattice_32", "k1_diag_64"])
def test_block_memory_bounded(case):
    # 2**16 entries per block keeps the peak RSS of analyze + synthesize
    # flat; 2**19 was measured to raise it past the benchmark's bound
    assert BLOCK_ELEMS <= 2 ** 16
    if case == "k2_lattice_32":
        grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
        win = gaussian_window(grid, [1.0, 1.0])
        frame = identity_frame(2, 2)
    else:
        grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
        win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
        frame = build_frame([[1.0, 1.0]])
    f = gaussian(grid, sigma=1.0)
    tracemalloc.start()
    try:
        F = dstft_fast(f, win, frame)
        analysis_peak = tracemalloc.get_traced_memory()[1]
        dso(F, win, frame, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - F.values.nbytes < 8 * BLOCK_ELEMS * 16
    # one analysis block in flight: its window, the windowed signal and the
    # FFT temporaries of dft (~5.2 blocks); keeping the previous window and
    # spectrum alive while the next block is computed reads ~7.2
    assert analysis_peak - F.values.nbytes < 6 * BLOCK_ELEMS * 16


def test_off_lattice_analysis_holds_under_3_blocks():
    # the k1_diag_64 set-up: a box-path window block is one gather zeroed in
    # place, and its conjugate is written straight into the work rows, so
    # analysis holds ~2.4 blocks above the field; one more (B, Nt)
    # temporary per block would cross the bound
    grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    f = gaussian(grid, sigma=1.0)
    dstft_fast(f, win, frame)       # fills the caches a first call fills
    tracemalloc.start()
    try:
        F = dstft_fast(f, win, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - F.values.nbytes < 3 * BLOCK_ELEMS * 16


def test_off_lattice_k2_window_memory_bounded(monkeypatch):
    # a 64^2 bump off the lattice of a rotated k = n = 2 frame, in two
    # shards: the trigonometric window path holds work buffers of about one
    # block per shard, not a per-row intermediate of window modes times
    # samples on one axis (3 MiB a row, a 16.5 MiB peak in all)
    monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
    grid = Grid.from_bounds([-4, -4], [4, 4], [48, 48])
    f = gaussian(grid, sigma=1.0)
    win = gevrey_bump(Grid.from_bounds([-4, -4], [4, 4], [64, 64]), 1.5, 2.0)
    frame = build_frame([[0.6, 0.8], [-0.8, 0.6]])
    y_grid = Grid.from_bounds([-2, -2], [2, 2], [8, 8])
    assert _lattice_blocks(win, grid.points() @ frame.u.T, y_grid.points()) is None
    assert _projected_box(win, grid, frame.u, grid.points() @ frame.u.T) is None
    tracemalloc.start()
    try:
        F = dstft_fast(f, win, frame, y_grid=y_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F.values.nbytes + f.values.nbytes + 8 * BLOCK_ELEMS * 16


def test_oracles_hold_no_phase_matrix():
    # the sheet_wavefront benchmark's oracle case (32² Heaviside sheet,
    # 16-sample bump on [-2, 2], e_1 frame): each direct sum keeps block-
    # sized phase tables, not the 1024 x 1024 phase matrix (16 MiB)
    grid = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
    f = heaviside_sheet(grid, (1.0, 0.0), 0.0)
    g = gevrey_bump(Grid.from_bounds([-2], [2], [16]), 0.5, 2.0)
    frame = build_frame([[1.0, 0.0]])
    F = dstft_fast(f, g, frame)
    for oracle in (lambda: dstft_direct(f, g, frame),
                   lambda: dso_direct(F, g, frame, grid)):
        tracemalloc.start()
        try:
            oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


def test_dso_leaves_the_field_unchanged():
    # dso's spectra are views of the field; its inverses go to a buffer
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    win = gaussian_window(grid, [1.0, 1.0])
    frame = identity_frame(2, 2)
    F = dstft_fast(gaussian(grid, sigma=1.0), win, frame)
    before = F.values.copy()
    dso(F, win, frame, grid)
    assert np.array_equal(F.values, before)


def test_overflowing_transform_is_rejected():
    # the streams skip per-block checks; each consumer must still refuse
    # a transform that overflows to Inf/NaN
    grid = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
    sheet = heaviside_sheet(grid, [1.0, 0.0])
    huge = Signal(grid, sheet.values * 1e307)
    bump = gevrey_bump(Grid.from_bounds([-2], [2], [16]), 0.5, 2.0)
    frame = build_frame([[1.0, 0.0]])
    F = dstft_fast(sheet, bump, frame)
    huge_field = DstftField(F.y_grid, F.grid, F.values * 1e307, frame)
    calls = [
        lambda: reconstruct(huge, bump, bump, frame),
        lambda: dstft_fast(huge, bump, frame),
        lambda: dso(huge_field, bump, frame, grid),
        lambda: wavefront_scan(huge, bump, frame, 2.0, [BallSpec((0.0,), 0.5)],
                               cone_dictionary_2d(8)),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()
