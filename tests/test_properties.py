"""Property tests: the exact identities of dirstft.invariants over drawn
grids (odd and even counts, nonzero origins, anisotropic spacings), frames
and windows, at sizes under the oracle caps."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirstft import (BallSpec, ConeSpec, Grid, Signal, build_frame,
                     cone_dictionary_2d, decay_fit, default_y_grid, dstft_fast,
                     gaussian_window, gevrey_bump, invariants, pairing_check,
                     reconstruct, transform, wavefront, wavefront_scan,
                     window_change)
from dirstft.direction import identity_frame
from dirstft.fixtures import delta_sheet, heaviside_sheet, random_bandlimited
from dirstft.grids import (BLOCK_ELEMS, _dft_inplace, _direct_sum, _trig_grid,
                           evaluate_trig, evaluate_trig_grid, rel_l2_error,
                           relative_error)
from dirstft.synthesis import _frame_operator, covering_y_grid, dso
from dirstft.wavefront import WindowClassWarning
from dirstft.windows import _projected_box, window_at, window_blocks, window_levels

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=25)


@st.composite
def grids(draw, dim, max_count=8):
    return Grid(tuple(draw(st.floats(-3.0, 3.0)) for _ in range(dim)),
                tuple(draw(st.floats(0.25, 1.0)) for _ in range(dim)),
                tuple(draw(st.integers(3, max_count)) for _ in range(dim)))


@st.composite
def signals(draw, grid):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Signal(grid, rng.normal(size=grid.counts)
                  + 1j * rng.normal(size=grid.counts))


@st.composite
def frames(draw, n, k=None):
    k = draw(st.integers(1, n)) if k is None else k
    rows = [[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(k)]
    try:
        return build_frame(rows)
    except ValueError:
        assume(False)


@st.composite
def windows(draw, k):
    """A Gaussian or Gevrey bump window on a k-dimensional grid that
    straddles the origin, as gevrey_bump requires."""
    lo = [draw(st.floats(-3.0, -1.0)) for _ in range(k)]
    hi = [draw(st.floats(1.0, 3.0)) for _ in range(k)]
    grid = Grid.from_bounds(lo, hi, [draw(st.integers(4, 8)) for _ in range(k)])
    if draw(st.booleans()):
        return gaussian_window(grid, [draw(st.floats(0.5, 2.0)) for _ in range(k)])
    try:
        return gevrey_bump(grid, draw(st.floats(0.6, 0.95)),
                           draw(st.floats(1.5, 3.0)))
    except ValueError:          # no lattice point inside the support
        assume(False)


@st.composite
def transform_cases(draw):
    """(f1, f2, g, frame) with f1, f2 on one 2-d grid, g on R^k."""
    grid = draw(grids(2))
    frame = draw(frames(2))
    return draw(signals(grid)), draw(signals(grid)), draw(windows(frame.k)), frame


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: grids(d, max_count=12)).flatmap(signals))
def test_dft_matches_oracle_and_inverts(f):
    assert invariants.dft_oracle_error(f) <= 1e-10
    assert invariants.dft_roundtrip_error(f) <= 1e-10


@SETTINGS
@given(grids(2).flatmap(lambda g: st.tuples(signals(g), signals(g))))
def test_parseval(pair):
    assert invariants.parseval_error(*pair) <= 1e-8


@SETTINGS
@given(transform_cases())
def test_fast_paths_match_oracles(case):
    f1, _, g, frame = case
    assert invariants.oracle_error(f1, g, frame) <= 1e-10


@SETTINGS
@given(transform_cases())
def test_synthesis_is_the_adjoint(case):
    assert invariants.adjoint_error(*case) <= 1e-8


@SETTINGS
@given(transform_cases(), st.data())
def test_window_change_is_phi_analysis_of_the_reconstruction(case, data):
    # F = DS_g f: window_change(F) = DS_phi DS*_gamma F / (g, gamma) is
    # DS_phi of the reconstruction f M through gamma, for any frame (rows
    # off the coordinate axes included); gamma is g or a Gaussian on g's
    # grid, as the pairing requires, and phi any window
    f, _, g, frame = case
    gamma = g if data.draw(st.booleans()) else gaussian_window(
        g.grid, [data.draw(st.floats(0.5, 2.0)) for _ in range(frame.k)])
    phi = data.draw(windows(frame.k))
    assume(pairing_check(g, gamma).admissible)
    got = window_change(dstft_fast(f, g, frame), gamma, phi, g)
    M = invariants.multiplier(g, gamma, frame, f.grid, default_y_grid(f.grid, frame))
    want = dstft_fast(Signal(f.grid, f.values * M), phi, frame)
    assert relative_error(got.values, want.values) <= 1e-12


@SETTINGS
@given(transform_cases(), st.data())
def test_orthogonality_in_multiplier_form(case, data):
    # (DS_g f1, DS_phi f2) = (g, phi) (f1 M, f2) for signals that do not
    # decay, frames on and off the window lattice, and dstft_fast's default
    # y~ grid or reconstruct's strided covering one
    f1, f2, g, frame = case
    phi = g if data.draw(st.booleans()) else gaussian_window(
        g.grid, [data.draw(st.floats(0.5, 2.0)) for _ in range(frame.k)])
    assume(pairing_check(g, phi).admissible)
    y_grid = covering_y_grid(f1.grid, g, phi, frame)[0] if data.draw(st.booleans()) else None
    assert invariants.orthogonality_multiplier_error(f1, f2, g, phi, frame, y_grid) <= 1e-12


@st.composite
def blind_cases(draw, n):
    """(f, g, frame) with the frame's rows zero on a drawn nonempty set of
    axes, anywhere among the n."""
    k = draw(st.integers(1, n - 1))
    blind = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - k))
    u = np.array([[0.0 if i in blind else draw(st.floats(-1.0, 1.0))
                   for i in range(n)] for _ in range(k)])
    assume(np.linalg.norm(u, axis=1).min() > 1e-3)
    try:
        frame = build_frame(u)
    except ValueError:
        assume(False)
    grid = draw(grids(n, max_count=8 if n == 2 else 5))
    return draw(signals(grid)), draw(windows(k)), frame


@SETTINGS
@given(st.integers(2, 3).flatmap(blind_cases))
def test_blind_axes_match_the_oracles(case):
    assert invariants.oracle_error(*case) <= 1e-10


@st.composite
def streamed_cases(draw):
    """(f, g, phi, frame, y_grid) on a 2-d grid of 40-64 points per axis,
    so a y~ block holds only BLOCK_ELEMS // Nt rows, with y~ counts that
    leave the last block partial; phi is g or a Gaussian on g's grid."""
    grid = Grid(tuple(draw(st.floats(-3.0, 3.0)) for _ in range(2)),
                tuple(draw(st.floats(0.1, 0.2)) for _ in range(2)),
                tuple(draw(st.integers(40, 64)) for _ in range(2)))
    frame = draw(frames(2))
    g = draw(windows(frame.k))
    phi = g if draw(st.booleans()) else gaussian_window(
        g.grid, [draw(st.floats(0.5, 2.0)) for _ in range(frame.k)])
    rows = BLOCK_ELEMS // grid.size
    if frame.k == 1:
        y_counts = (draw(st.integers(rows + 1, 3 * rows)),)
    else:
        y_counts = (2, draw(st.integers(rows // 2 + 1, 2 * rows)))
    y_grid = Grid.from_bounds([draw(st.floats(-3.0, -1.0)) for _ in y_counts],
                              [draw(st.floats(1.0, 3.0)) for _ in y_counts],
                              y_counts)
    sizes = [hi - lo for lo, hi, _ in
             window_blocks(g, grid, frame.u, y_grid.points())]
    assume(len(sizes) > 1 and sizes[-1] < sizes[0])
    assume(pairing_check(g, phi).admissible)
    return draw(signals(grid)), g, phi, frame, y_grid


@SETTINGS
@given(streamed_cases())
def test_reconstruct_matches_synthesis_of_the_field(case):
    # the fused stream reuses one inverse buffer across blocks of unequal
    # length; it must agree with synthesis of the stored field
    # (the stream before reconstruct divides by M, as the drawn y~ grids
    # need not cover the window's reach); its M, summed from the blocks the
    # stream holds, is the reference multiplier's (invariants.multiplier)
    f, g, phi, frame, y_grid = case
    pairing = pairing_check(g, phi).value
    want = dso(dstft_fast(f, g, frame, y_grid=y_grid), phi, frame, f.grid).values / pairing
    got, M = _frame_operator(f, g, phi, frame, y_grid, pairing)
    assert relative_error(got, want) <= 1e-12
    assert relative_error(np.broadcast_to(M, f.grid.counts),
                          invariants.multiplier(g, phi, frame, f.grid, y_grid)) <= 1e-12


@st.composite
def covered_cases(draw):
    """(f, g, phi, frame, y_grid): a random band-limited f, which does not
    decay, on a drawn 2-d grid; a drawn k = 1 frame or the identity k = n =
    2 frame; phi g or a Gaussian on g's grid; y_grid None (reconstruct's
    covering grid) or that grid's span at a drawn stride up to its own."""
    grid = draw(grids(2, max_count=16))
    f = random_bandlimited(grid, draw(st.integers(0, 2 ** 16)),
                           band=draw(st.floats(0.2, 1.0)))
    frame = identity_frame(2, 2) if draw(st.booleans()) else draw(frames(2, k=1))
    g = draw(windows(frame.k))
    # a y~ step of the window's spacing leaves gaps between the translates
    # of a bump narrower than that, which reconstruct refuses (test_synthesis.py,
    # test_a_bump_narrower_than_its_sample_spacing_is_refused)
    assume(not g.compact or g.support_radius >= np.linalg.norm(g.grid.spacing))
    phi = g if draw(st.booleans()) else gaussian_window(
        g.grid, [draw(st.floats(0.5, 2.0)) for _ in range(frame.k)])
    assume(pairing_check(g, phi).admissible)
    y_grid = None
    if draw(st.booleans()):
        base, s = covering_y_grid(grid, g, phi, frame)
        step = np.asarray(g.grid.spacing) * draw(st.integers(1, s))
        span = (np.asarray(base.counts) - 1) * np.asarray(base.spacing)
        y_grid = Grid(base.origin, step, np.ceil(span / step - 1e-9).astype(int) + 1)
    return f, g, phi, frame, y_grid


@SETTINGS
@given(covered_cases())
def test_reconstruct_recovers_a_signal_that_does_not_decay(case):
    # DS*_phi DS_g f / ((g, phi) M) is f to roundoff on a y~ grid that
    # covers the window's reach, on one CPU and in two shards alike
    f, g, phi, frame, y_grid = case
    recs = []
    for n in (1, 2):
        with mock.patch("dirstft.transform._cpu_count", lambda: n):
            recs.append(reconstruct(f, g, phi, frame, y_grid=y_grid).values)
    assert rel_l2_error(recs[0], f.values) <= 1e-12
    assert rel_l2_error(recs[1], recs[0]) <= 1e-15


@SETTINGS
@given(data=st.data())
def test_direct_sum_matches_the_dense_phase_matrix(data):
    # 1-3-d grids with unequal spacings and off-zero origins, batched
    # values, off-lattice points, both signs, and chunks of 1, a few and
    # all points
    grid = data.draw(grids(data.draw(st.integers(1, 3))))
    batch = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=batch + grid.counts) + 1j * rng.normal(size=batch + grid.counts)
    pts = np.array(data.draw(st.lists(
        st.lists(st.floats(-4.0, 4.0), min_size=grid.dim, max_size=grid.dim),
        min_size=1, max_size=40)))
    sign = data.draw(st.sampled_from([-1, 1]))
    want = values.reshape(batch + (-1,)) @ np.exp(
        sign * 2j * np.pi * (grid.points() @ pts.T))
    with mock.patch("dirstft.grids.BLOCK_ELEMS",
                    data.draw(st.sampled_from([1, 64, BLOCK_ELEMS]))):
        got = _direct_sum(values, grid, pts, sign)
    assert got.shape == batch + (len(pts),)
    assert relative_error(got, want) <= 1e-12


@st.composite
def mapped_lattices(draw, n, k):
    """(fs, C, out_grid): 1-4 signals on one n-d grid, the C of a k-frame
    (upper triangular for k = 1, dense for k = n) and an output grid other
    than theirs."""
    grid = draw(grids(n, max_count=12))
    out = draw(grids(n, max_count=12))
    assume(out != grid)
    fs = [draw(signals(grid)) for _ in range(draw(st.integers(1, 4)))]
    return fs, draw(frames(n, k)).C, out


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
@SETTINGS
@given(data=st.data())
def test_trig_on_a_mapped_lattice_matches_scattered_points(n, k, data):
    # every row of a batch of coefficient rows, its blocks cut to any size,
    # matches evaluate_trig and has the bits of the row evaluated alone
    fs, A, out = data.draw(mapped_lattices(n, k))
    pts = out.points() @ A.T
    modes = fs[0].grid.dual()
    c = _dft_inplace(np.stack([f.values for f in fs]), fs[0].grid) * modes.cell_volume
    with mock.patch("dirstft.grids.BLOCK_ELEMS",
                    data.draw(st.sampled_from([1, 64, BLOCK_ELEMS]))):
        evaluate = _trig_grid(modes, A, out)
        got = evaluate(c)
        alone = [evaluate(row)[0] for row in c]
    assert got.shape == (len(fs),) + out.counts
    # both sides round each phase 2 pi xi . t to a few ulps of its size, so
    # a nearly singular frame (entries of C up to ~1e4) widens the tolerance
    xi_max = np.abs(np.asarray(fs[0].grid.dual().origin))
    tol = max(1e-12, 1e-14 * 2 * np.pi * np.max(np.abs(pts) @ xi_max))
    for f, row, one in zip(fs, got, alone):
        assert np.array_equal(row, one)
        assert relative_error(row.ravel(), evaluate_trig(f, pts)) <= tol
    one = evaluate_trig_grid(fs[0], A, out)
    assert one.shape == out.counts
    assert relative_error(one.ravel(), evaluate_trig(fs[0], pts)) <= tol


@st.composite
def box_frames(draw):
    """(grid, rows, J): an n-d grid (n = 2, 3) with unequal spacings and an
    origin off zero, and k <= 2 direction rows whose steps u_ri spacing_i
    along the signal axes are -2 ... 2 times a step of the row's own, +-1
    times it on some axis, with J the number of values each row's
    projection takes."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2))
    spacing = [draw(st.floats(0.25, 1.0)) for _ in range(n)]
    assume(len(set(spacing)) == n)
    grid = Grid([draw(st.floats(-3.0, -0.1)) for _ in range(n)], spacing,
                [draw(st.integers(3, 6)) for _ in range(n)])
    rows, J = [], []
    for _ in range(k):
        q = np.array([draw(st.integers(-2, 2)) for _ in range(n)])
        q[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, 1]))
        rows.append(q * draw(st.floats(0.1, 1.0)) / np.asarray(spacing))
        J.append(int(np.abs(q) @ (np.asarray(grid.counts) - 1)) + 1)
    return grid, rows, J


def boxes_of(w, grid, frame, Y):
    """The projected boxes window_blocks sets up (at most one), and its
    blocks."""
    boxes = []

    def spy(*args):
        boxes.append(_projected_box(*args))
        return boxes[-1]

    with mock.patch("dirstft.windows._projected_box", spy):
        W = np.concatenate([np.broadcast_to(B, (hi - lo,) + grid.counts)
                            for lo, hi, B in window_blocks(w, grid, frame.u, Y)])
    return boxes, W.reshape(len(Y), -1)


@SETTINGS
@given(box_frames(), st.data())
def test_integer_step_ratios_take_the_projected_box(case, data):
    # the box exactly when it is smaller than the (seen) grid, with J_r
    # values per row; the same rows nudged off their ratios take the
    # per-sample path; both match window_at within the engine tests' bound
    grid, rows, J = case
    try:
        frame = build_frame(rows)
        nudged = build_frame([rows[0] + 1e-6 * np.arange(1, grid.dim + 1)] + rows[1:])
    except ValueError:
        assume(False)
    w = data.draw(windows(frame.k))
    Y = [[data.draw(st.floats(-4.0, 4.0)) for _ in range(frame.k)] for _ in range(5)]
    for fr, on_ratios in ((frame, True), (nudged, False)):
        proj = grid.points() @ fr.u.T
        boxes, W = boxes_of(w, grid, fr, Y)
        want = np.stack([window_at(w, proj - y) for y in Y])
        assert np.max(np.abs(W - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assume(boxes)           # not every proj - y~ on the window lattice
        seen = grid.take(np.flatnonzero(fr.u.any(axis=0)))
        if on_ratios and np.prod(J) < seen.size:
            assert boxes[0][0].counts == tuple(J)
        else:
            assert boxes[0] is None


@pytest.mark.parametrize("n, counts", [(64, (127,)), (96, (191,))])
def test_the_benchmark_diagonals_keep_their_boxes(n, counts):
    # the u = (1, 1)/sqrt 2 boxes of the file and frame-change workloads:
    # the sample (i, j) projects to box point i + j
    grid = Grid.from_bounds([-8, -8], [8, 8], [n, n])
    w = gaussian_window(Grid.from_bounds([-8], [8], [n]), [1.0])
    frame = build_frame([[1.0, 1.0]])
    box, index = _projected_box(w, grid, frame.u, grid.points() @ frame.u.T)
    assert box.counts == counts
    assert np.array_equal(index, np.add.outer(np.arange(n), np.arange(n)).ravel())


@st.composite
def scan_cases(draw):
    """(f, g, frame, cells, cones): a delta or Heaviside sheet at a drawn
    angle and offset on a 16-20 point grid per axis, the k = 1 frame
    e_1 or e_2 or the k = n = 2 identity frame, a radial bump of radius r
    or a factored Gaussian of width r (the factored path for k = 2) of spacing
    4 / round(N / 2) on [-2, 2] per seen axis of N points (on the
    signal's lattice for even N, off it for odd N), and 1-4 cells centered
    on y~ points (box edges included) or anywhere in the y~ box (far from
    the sheet included), each holding a y~ point."""
    counts = tuple(draw(st.integers(16, 20)) for _ in range(2))
    grid = Grid.from_bounds([-4.0, -4.0], [4.0, 4.0], counts)
    theta = draw(st.floats(0.0, np.pi))
    sheet = draw(st.sampled_from([delta_sheet, heaviside_sheet]))
    f = sheet(grid, (np.cos(theta), np.sin(theta)), draw(st.floats(-2.0, 2.0)))
    k = draw(st.integers(1, 2))
    frame = (identity_frame(2, 2) if k == 2
             else build_frame([[1.0, 0.0]] if draw(st.booleans()) else [[0.0, 1.0]]))
    axes = [i for i in range(2) if frame.u[:, i].any()]
    wgrid = Grid.from_bounds([-2.0] * k, [2.0] * k,
                             [int(round(4 / grid.spacing[i])) for i in axes])
    width = draw(st.floats(0.6, 1.5))
    g = (gevrey_bump(wgrid, width, 2.0) if draw(st.booleans())
         else gaussian_window(wgrid, [width] * k))
    y_grid = default_y_grid(grid, frame)
    Y = y_grid.points()
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            center = Y[draw(st.sampled_from([0, len(Y) - 1, len(Y) // 2,
                                             draw(st.integers(0, len(Y) - 1))]))]
        else:
            center = [draw(st.floats(-4.0, 4.0)) for _ in range(k)]
        cell = BallSpec(tuple(center), draw(st.floats(0.1, 1.0)))
        assume(cell.contains(Y).any())
        cells.append(cell)
    return f, g, frame, cells, cone_dictionary_2d(draw(st.integers(4, 8)), r_min=0.25)


def scan(f, g, frame, cells, cones):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowClassWarning)   # Gaussian windows
        return wavefront_scan(f, g, frame, 2.0, cells, cones, threshold_N=1.7)


@SETTINGS
@given(scan_cases())
def test_scan_entries_are_local_to_their_cells(case):
    # each entry is decay_fit on the stored field, with the cell's own
    # peak as its noise reference, and does not depend on the other cells
    f, g, frame, cells, cones = case
    report = scan(f, g, frame, cells, cones)
    F = dstft_fast(f, g, frame)
    Y = F.y_grid.points()
    assert report.rows_total == len(Y)
    assert report.rows_streamed == np.count_nonzero(
        np.any([c.contains(Y) for c in cells], axis=0))
    for e in report.entries:
        assert e.fit == decay_fit(F, e.y_cell, e.cone, 2.0)
    for i, cell in enumerate(cells):
        alone = scan(f, g, frame, [cell], cones)
        assert alone.entries == report.entries[i * len(cones):(i + 1) * len(cones)]
        assert alone.noise_ref == (report.noise_ref[i],)


@st.composite
def hermitian_cases(draw):
    """(f, g, frame, cells, cones): a real delta or Heaviside sheet on an
    n = 2 or 3 grid of spacing 1/2, odd and even counts and a drawn
    origin, a frame of k < n coordinate rows (so at least one blind axis),
    a radial bump or a Gaussian (factored for k = 2) of spacing 1/2 on
    [-2, 2]^k, on the signal's lattice, 1-3 cells each holding a y~ point
    and the cones around +-e_a.  The sheet's normal has components of
    distinct sizes, none small, so that no symmetry of f ties two
    frequencies of a shell in |F|: a tie is broken by roundoff, which
    differs between the half and the full spectrum, and moves the fit."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n - 1))
    counts = tuple(draw(st.integers(8, 14) if n == 2 else st.integers(5, 8))
                   for _ in range(n))
    grid = Grid(tuple(draw(st.floats(-4.0, -1.0)) for _ in range(n)), (0.5,) * n, counts)
    sizes = draw(st.permutations([0.3, 0.55, 0.8][:n]))
    normal = np.array([draw(st.sampled_from([-1.0, 1.0])) * x for x in sizes])
    normal *= 1 + draw(st.floats(0.0, 0.1))
    center = np.asarray(grid.origin) + 0.25 * np.asarray(counts)
    sheet = draw(st.sampled_from([delta_sheet, heaviside_sheet]))
    f = sheet(grid, normal, float(center @ normal / np.linalg.norm(normal))
              + draw(st.floats(-0.9, 0.9)))
    axes = draw(st.permutations(range(n)))[:k]
    frame = build_frame(np.eye(n)[axes])
    wgrid = Grid.from_bounds([-2.0] * k, [2.0] * k, [8] * k)
    width = draw(st.floats(0.6, 1.5))
    g = (gevrey_bump(wgrid, width, 2.0) if draw(st.booleans())
         else gaussian_window(wgrid, [width] * k))
    Y = default_y_grid(grid, frame).points()
    cells = [BallSpec(tuple(Y[draw(st.integers(0, len(Y) - 1))]),
                      draw(st.floats(0.3, 1.0))) for _ in range(draw(st.integers(1, 3)))]
    cones = [ConeSpec(tuple(s * np.eye(n)[a]), 1.0, 0.25)
             for a in range(n) for s in (1.0, -1.0)]
    return f, g, frame, cells, cones


def full_spectrum(monkeypatch):
    """Force the full-spectrum path: no stream is taken as Hermitian."""
    monkeypatch.setattr(transform, "_half_axis", lambda f, levels: None)
    monkeypatch.setattr(wavefront, "_half_axis", lambda f, levels: None)


# The largest relative difference of a fit's fields between the half and
# the full spectrum over the drawn cases' untied entries (see CHANGES.md
# for the measured value): FFT roundoff in |F|, carried through the
# log-linear fit.
HALF_FIT_RTOL = 1e-9


def shell_peaks(F, cell, cone):
    """(peaks, tied): per dyadic shell of the cone (the scan's shell
    table), the sup of |F| over the cell's rows, and whether some shell's
    fit input hangs on roundoff: another point of the shell, at another
    |xi|, within 1e-9 of the sup (the first argmax gives the fit its
    abscissa), or a sup within 1e-9 of the cell's noise floor."""
    xi = F.xi_grid.points()
    sup = np.abs(F.values.reshape(F.y_size, -1)[cell.contains(F.y_grid.points())]).max(axis=0)
    floor = max(wavefront.DYNAMIC_RANGE_FLOOR, wavefront.NOISE_FLOOR_REL * sup.max())
    shells, _ = wavefront._shell_table(xi, cone, wavefront._lattice(xi))
    peaks, tied = [], False
    for cols, norms in shells:
        values = sup[cols]
        top = values.max()
        tied |= bool(np.ptp(norms[values >= top * (1 - 1e-9)]) > 0
                     or abs(top / floor - 1) < 1e-9)
        peaks.append(top)
    return np.array(peaks), tied


@SETTINGS
@given(hermitian_cases())
def test_real_streams_take_half_the_spectrum(case):
    # a real f and real window values: the fast field is transformed on
    # the leading slice of the first blind axis and filled from its mirror,
    # exactly conjugate there, and agrees with the full spectrum to
    # roundoff; the scan reads the same |F|, so its shell suprema agree to
    # roundoff, and so do its fits and verdicts where no exact tie in |F|
    # leaves the choice of a shell's argmax to roundoff
    f, g, frame, cells, cones = case
    b = transform._half_axis(f, window_levels(g, f.grid, frame.u,
                                              default_y_grid(f.grid, frame)))
    assert b == int(np.flatnonzero(~frame.u.any(axis=0))[0])
    F = dstft_fast(f, g, frame)
    for dst, src in transform._mirror(f.grid.counts, b):
        # the -N/2 line of an even axis carries a phase unless the grid's
        # origin is a whole number of steps
        if not any(d == slice(0, 1) and not float(o / 0.5).is_integer()
                   for d, o in zip(dst, f.grid.origin)):
            assert np.array_equal(F.values[(Ellipsis,) + dst],
                                  np.conj(F.values[(Ellipsis,) + src]))
    try:
        report = scan_with_cones(f, g, frame, cells, cones)
    except ValueError:          # a cone with too few lattice points
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        full_spectrum(mp)
        full = dstft_fast(f, g, frame)
        reference = scan_with_cones(f, g, frame, cells, cones)
    assert relative_error(F.values, full.values) <= 1e-12
    assert report.noise_ref == pytest.approx(reference.noise_ref, rel=1e-12)
    for e, r in zip(report.entries, reference.entries):
        peaks, tied = shell_peaks(full, e.y_cell, e.cone)
        assert shell_peaks(F, e.y_cell, e.cone)[0] == pytest.approx(peaks, rel=1e-12)
        if not tied:
            assert e.regular == r.regular
            for x, y in zip(vars(e.fit).values(), vars(r.fit).values()):
                assert x == pytest.approx(y, rel=HALF_FIT_RTOL, abs=HALF_FIT_RTOL)


def scan_with_cones(f, g, frame, cells, cones):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowClassWarning)   # Gaussian windows
        return wavefront_scan(f, g, frame, 2.0, cells, cones, threshold_N=1.7)
