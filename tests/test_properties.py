"""Property tests: the exact identities of dirstft.invariants over drawn
grids (odd and even counts, nonzero origins, anisotropic spacings), frames
and windows, at sizes under the oracle caps."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirstft import (BallSpec, Grid, Signal, build_frame, cone_dictionary_2d,
                     decay_fit, default_y_grid, dstft_fast, gaussian_window,
                     gevrey_bump, invariants, pairing_check, reconstruct,
                     regular_point_test, wavefront_scan)
from dirstft.direction import identity_frame
from dirstft.fixtures import delta_sheet, heaviside_sheet
from dirstft.grids import (BLOCK_ELEMS, _direct_sum, evaluate_trig, evaluate_trig_grid,
                           relative_error)
from dirstft.synthesis import dso
from dirstft.wavefront import WindowClassWarning
from dirstft.windows import tensor_window, window_blocks

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
    f, g, phi, frame, y_grid = case
    want = (dso(dstft_fast(f, g, frame, y_grid=y_grid), phi, frame, f.grid).values
            / pairing_check(g, phi).value)
    got = reconstruct(f, g, phi, frame, y_grid=y_grid).values
    assert relative_error(got, want) <= 1e-12


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
    """(f, C, out_grid): a signal on an n-d grid, the C of a k-frame (upper
    triangular for k = 1, dense for k = n) and an output grid other than
    f's."""
    grid = draw(grids(n, max_count=12))
    out = draw(grids(n, max_count=12))
    assume(out != grid)
    return draw(signals(grid)), draw(frames(n, k)).C, out


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
@SETTINGS
@given(data=st.data())
def test_trig_on_a_mapped_lattice_matches_scattered_points(n, k, data):
    f, A, out = data.draw(mapped_lattices(n, k))
    pts = out.points() @ A.T
    want = evaluate_trig(f, pts)
    got = evaluate_trig_grid(f, A, out)
    assert got.shape == out.counts
    # both sides round each phase 2 pi xi . t to a few ulps of its size, so
    # a nearly singular frame (entries of C up to ~1e4) widens the tolerance
    xi_max = np.abs(np.asarray(f.grid.dual().origin))
    phase = 2 * np.pi * np.max(np.abs(pts) @ xi_max)
    assert relative_error(got.ravel(), want) <= max(1e-12, 1e-14 * phase)


@st.composite
def scan_cases(draw):
    """(f, g, frame, cells, cones): a delta or Heaviside sheet at a drawn
    angle and offset on a 16-20 point grid per axis, the k = 1 frame
    e_1 or e_2 or the k = n = 2 identity frame, a radial bump or a
    tensor_window of 1-d bumps (the factored path for k = 2) of spacing
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
    wgrids = [Grid.from_bounds([-2.0], [2.0], [int(round(4 / grid.spacing[i]))])
              for i in axes]
    radius = draw(st.floats(0.6, 1.5))
    if draw(st.booleans()):
        g = gevrey_bump(Grid(*(tuple(w.origin[0] for w in wgrids),
                               tuple(w.spacing[0] for w in wgrids),
                               tuple(w.counts[0] for w in wgrids))), radius, 2.0)
    else:
        g = tensor_window([gevrey_bump(w, radius, 2.0) for w in wgrids])
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
        warnings.simplefilter("ignore", WindowClassWarning)   # tensor windows
        return wavefront_scan(f, g, frame, 2.0, cells, cones, threshold_N=1.7,
                              strict=False)


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
        assert e.regular == regular_point_test(F, e.y_cell, e.cone, 2.0,
                                               threshold_N=1.7)
    for i, cell in enumerate(cells):
        alone = scan(f, g, frame, [cell], cones)
        assert alone.entries == report.entries[i * len(cones):(i + 1) * len(cones)]
        assert alone.noise_ref == (report.noise_ref[i],)
