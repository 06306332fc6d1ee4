import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dirstft import wavefront as wavefront_module
from dirstft import (BallSpec, ConeSpec, Grid, Signal, build_frame, decay_fit,
                     dstft_fast, gaussian_window, gevrey_bump,
                     partial_wf_test, transform, wavefront_scan)
from dirstft.fixtures import delta_sheet, gaussian, heaviside_sheet
from dirstft.grids import BLOCK_ELEMS
from dirstft.wavefront import (DYNAMIC_RANGE_FLOOR, LOG_FLOOR, NOISE_FLOOR_REL,
                               WindowClassWarning, _blind_first, _decay_fits,
                               _scan_fits, cone_dictionary_2d, fit_spectrum_decay)


def test_cone_center_normalized_and_contains():
    cone = ConeSpec((3.0, 4.0), math.pi / 8, 1.0)
    assert np.allclose(cone.center, (0.6, 0.8))
    pts = np.array([
        [0.6, 0.8],          # on axis, |xi| = 1
        [6.0, 8.0],          # on axis, far out
        [-0.6, -0.8],        # opposite direction
        [0.06, 0.08],        # on axis but below r_min
    ])
    assert list(cone.contains(pts)) == [True, True, False, False]


def test_cone_validation():
    with pytest.raises(ValueError):
        ConeSpec((0.0, 0.0), math.pi / 8, 1.0)
    with pytest.raises(ValueError):
        ConeSpec((1.0, 0.0), math.pi, 1.0)
    with pytest.raises(ValueError):
        ConeSpec((1.0, 0.0), math.pi / 8, 0.0)


def test_ball_contains():
    ball = BallSpec((0.0,), 0.25)
    assert ball.contains(np.array([[0.2], [0.3]])).tolist() == [True, False]
    with pytest.raises(ValueError):
        BallSpec((0.0,), -1.0)


@pytest.mark.parametrize("center, half_angle, r_min", [
    ((math.nan, 0.0), math.pi / 8, 1.0), ((math.inf, 0.0), math.pi / 8, 1.0),
    ((1.0, 0.0), math.pi / 8, math.nan), ((1.0, 0.0), math.pi / 8, math.inf)])
def test_cone_rejects_non_finite_values(center, half_angle, r_min):
    with pytest.raises(ValueError, match="finite"):
        ConeSpec(center, half_angle, r_min)


@pytest.mark.parametrize("center, radius", [
    ((0.0,), math.nan), ((0.0,), math.inf), ((math.nan,), 0.25), ((0.0, -math.inf), 0.25)])
def test_ball_rejects_non_finite_values(center, radius):
    with pytest.raises(ValueError, match="finite"):
        BallSpec(center, radius)


@pytest.mark.parametrize("center, want", [
    ((1e308, 1e308), (math.sqrt(0.5), math.sqrt(0.5))),
    ((1e-320, 0.0), (1.0, 0.0)),
    ((0.0, -5e-324), (0.0, -1.0))])
def test_cone_center_of_extreme_scale_is_a_direction(center, want):
    # the norm is taken of the center scaled by a power of two, so it
    # neither overflows nor underflows to zero
    with np.errstate(all="raise"):
        assert ConeSpec(center, math.pi / 8, 1.0).center == pytest.approx(want, abs=1e-15)


def test_cone_center_scaling_keeps_the_bits_of_the_plain_norm():
    for c in [(3.0, 4.0), (0.1, -0.2, 0.3), (2.0 ** 40, 1.0)]:
        want = np.array(c) / np.linalg.norm(c)
        assert ConeSpec(c, math.pi / 8, 1.0).center == tuple(want.tolist())


def test_ball_rejects_points_of_other_dimension():
    # a 2-d center is not broadcast against points of one coordinate
    with pytest.raises(ValueError, match="2 coordinates, but the points have 1"):
        BallSpec((0.0, 0.0), 0.25).contains([[0.1]])


def synthetic_xi_field(rate, root=2.0):
    grid = Grid.from_bounds([-32, -32], [32, 32], [128, 128])
    xi = grid.points()
    mags = np.exp(-rate * np.linalg.norm(xi, axis=-1) ** (1.0 / root))
    return xi, mags


def test_fit_recovers_synthetic_rate():
    # |F| = e^{-3 |xi|^{1/2}}: the shell regression recovers N exactly
    xi, mags = synthetic_xi_field(3.0)
    cone = ConeSpec((1.0, 0.0), math.pi / 16, 1.0)
    fit = fit_spectrum_decay(xi, mags, cone, alpha=2.0)
    assert fit.N_hat == pytest.approx(3.0, rel=1e-3)
    assert fit.residual < 0.05


def test_fit_slow_decay_below_threshold():
    xi, mags = synthetic_xi_field(0.5)
    cone = ConeSpec((1.0, 0.0), math.pi / 16, 1.0)
    fit = fit_spectrum_decay(xi, mags, cone, alpha=2.0)
    assert fit.N_hat == pytest.approx(0.5, rel=1e-2)
    assert fit.N_hat < 1.0


def test_fit_saturates_on_vanishing_cone():
    xi, mags = synthetic_xi_field(3.0)
    cone = ConeSpec((1.0, 0.0), math.pi / 16, 1.0)
    mags = np.where(cone.contains(xi), 0.0, mags)
    fit = fit_spectrum_decay(xi, mags, cone, alpha=2.0)
    assert fit.N_hat >= 1e6


def test_fit_rejects_tiny_cone():
    xi, mags = synthetic_xi_field(3.0)
    cone = ConeSpec((1.0, 0.0), 1e-6, 30.0)
    with pytest.raises(ValueError, match="lattice points in the cone"):
        fit_spectrum_decay(xi, mags, cone, alpha=2.0)


def test_a_cone_on_a_lattice_that_is_not_centred_names_both_counts():
    # the shells count only points whose mirror -xi is in the lattice box,
    # which on this lattice drops every point of the cone
    xi = Grid((0.5, 0.5), (1, 1), (16, 16)).points()
    cone = ConeSpec((1.0, 1.0), math.pi / 8, 1.0)
    assert np.count_nonzero(cone.contains(xi)) == 149
    with pytest.raises(ValueError, match=r"only 0 frequency lattice points in the "
                       r"cone \(need >= 8\): 149 lie in it, .* zero-centred"):
        fit_spectrum_decay(xi, np.ones(len(xi)), cone, alpha=2.0)


def loop_fit(xi_pts, mags, cone, alpha, ref):
    """The per-shell loop that the shell tables replaced, kept as the
    reference: each shell's argmax is the first in lattice order.  Only
    points whose mirror -xi is on the lattice count."""
    mirrored = np.all([np.isin(-col, col) for col in xi_pts.T], axis=0)
    mask = cone.contains(xi_pts) & mirrored
    norms = np.linalg.norm(xi_pts[mask], axis=-1)
    vals = np.maximum(mags[mask], LOG_FLOOR)
    floor = max(DYNAMIC_RANGE_FLOOR, NOISE_FLOOR_REL * ref)
    r_max = float(norms.max())
    edges = [cone.r_min]
    while edges[-1] < r_max * (1 + 1e-12):
        edges.append(edges[-1] * 2)
    xs, ys, decayed = [], [], 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (norms >= lo) & (norms < hi)
        if lo == edges[-2]:
            sel = (norms >= lo) & (norms <= r_max)
        if not np.any(sel):
            continue
        j = np.argmax(vals[sel])
        s = float(vals[sel][j])
        if s <= floor:
            decayed += 1
            continue
        xs.append(float(norms[sel][j]) ** (1.0 / alpha))
        ys.append(math.log(s))
    return _decay_fits(np.reshape(xs, (1, 1, -1)), np.reshape(ys, (1, 1, -1)),
                       np.ones((1, 1, len(xs)), dtype=bool),
                       [(len(xs) + decayed, int(np.count_nonzero(mask)))], alpha)[0][0]


def test_shell_tables_match_per_shell_loop():
    xi, smooth = synthetic_xi_field(3.0)
    radius = np.linalg.norm(xi, axis=-1)
    # constant on unit annuli: every shell's sup is a tie between points
    # of different |xi|
    ties = np.exp(-np.floor(radius))
    part = np.where(radius < 6.0, smooth, 0.0)     # outer shells decayed
    rows = np.stack([smooth, ties, part])
    for cone in cone_dictionary_2d(16, r_min=1.0):
        fits = _scan_fits(xi, rows, [cone], 2.0, 1.0)[0]
        assert fits == [loop_fit(xi, row, cone, 2.0, 1.0) for row in rows]


@pytest.mark.parametrize("case", ["longer", "shorter", "2-d", "nan"])
def test_fit_refuses_magnitudes_that_are_not_one_finite_value_per_point(case):
    # a longer, shorter or 2-d row would be misread or fail in indexing,
    # and NaNs would give a saturated fit, so a regular entry
    xi, mags = synthetic_xi_field(3.0)
    bad = {"longer": np.concatenate([mags, mags]), "shorter": mags[:-1],
           "2-d": mags.reshape(128, 128),
           "nan": np.where(np.arange(len(mags)) % 2, mags, np.nan)}[case]
    with pytest.raises(ValueError, match="finite" if case == "nan" else "one value per"):
        fit_spectrum_decay(xi, bad, ConeSpec((1.0, 0.0), math.pi / 16, 1.0), alpha=2.0)


def test_cone_rejects_points_of_other_dimension():
    # a 2-d center is not broadcast against points of three coordinates
    with pytest.raises(ValueError, match=r"cone center \[1.0, 0.0\] has 2 "
                                         "coordinates, but the points have 3"):
        ConeSpec((1.0, 0.0), math.pi / 8, 0.5).contains([[1.0, 0.0, 0.0]])


def test_alpha_must_exceed_one():
    xi, mags = synthetic_xi_field(3.0)
    cone = ConeSpec((1.0, 0.0), math.pi / 16, 1.0)
    with pytest.raises(ValueError):
        fit_spectrum_decay(xi, mags, cone, alpha=1.0)


GRID = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
WGRID = Grid.from_bounds([-2], [2], [32])


def sheet_report(radius=0.5, threshold=1.0):
    f = delta_sheet(GRID, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=radius, alpha=2.0)
    frame = build_frame([[1.0, 0.0]])
    cells = [BallSpec((0.0,), 0.25), BallSpec((2.0,), 0.25)]
    cones = cone_dictionary_2d(8, r_min=0.5)
    return wavefront_scan(f, win, frame, 2.0, cells, cones,
                          threshold_N=threshold)


def test_sheet_scan_localizes_the_jump():
    report = sheet_report()
    got = {(e.y_cell.center[0], tuple(np.round(e.cone.center).astype(int)))
           for e in report.singular}
    assert got == {(0.0, (1, 0)), (0.0, (-1, 0))}


def test_sheet_scan_window_independent():
    a = sheet_report(radius=0.5)
    b = sheet_report(radius=0.25)
    flags_a = [e.regular for e in a.entries]
    flags_b = [e.regular for e in b.entries]
    assert flags_a == flags_b


@pytest.mark.parametrize("empty", ["cell", "cone"])
def test_scan_rejects_an_empty_cell_or_cone_list(empty):
    # an empty dictionary would pass every check with no entry to check
    cells = [] if empty == "cell" else [BallSpec((0.0,), 0.25)]
    cones = [] if empty == "cone" else cone_dictionary_2d(8, r_min=0.5)
    with pytest.raises(ValueError, match=f"{empty} list is empty"):
        wavefront_scan(delta_sheet(GRID, (1.0, 0.0), 0.0),
                       gevrey_bump(WGRID, radius=0.5, alpha=2.0),
                       build_frame([[1.0, 0.0]]), 2.0, cells, cones)


@pytest.mark.parametrize("wrong", ["cell", "cone"])
def test_scan_rejects_a_cell_or_cone_of_the_wrong_dimension(wrong, monkeypatch):
    # cells live in R^k and cones in R^n; the scan checks both before it
    # streams anything, and names the one it refuses
    def stream(*args):
        raise AssertionError("the scan streamed before checking its cells and cones")

    monkeypatch.setattr(wavefront_module, "_spectra", stream)
    cells = [BallSpec((0.0, 0.0) if wrong == "cell" else (0.0,), 0.25)]
    cones = ([ConeSpec((1.0, 0.0, 0.0), math.pi / 8, 0.5)] if wrong == "cone"
             else cone_dictionary_2d(8, r_min=0.5))
    name = "k = 1" if wrong == "cell" else "n = 2"
    with pytest.raises(ValueError, match=rf"{wrong}s\[0\] center .* the frame has {name}"):
        wavefront_scan(delta_sheet(GRID, (1.0, 0.0), 0.0),
                       gevrey_bump(WGRID, radius=0.5, alpha=2.0),
                       build_frame([[1.0, 0.0]]), 2.0, cells, cones)


def test_gaussian_scan_all_regular():
    f = gaussian(GRID, sigma=1.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    frame = build_frame([[1.0, 0.0]])
    cells = [BallSpec((0.0,), 0.25)]
    cones = cone_dictionary_2d(8, r_min=0.5)
    report = wavefront_scan(f, win, frame, 2.0, cells, cones)
    assert report.singular == []


def test_partial_matches_scan_booleans():
    f = delta_sheet(GRID, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    frame = build_frame([[1.0, 0.0]])
    cells = [BallSpec((0.0,), 0.25), BallSpec((2.0,), 0.25)]
    cones = cone_dictionary_2d(8, r_min=0.5)
    report = wavefront_scan(f, win, frame, 2.0, cells, cones)
    for entry in report.entries:
        got = partial_wf_test(f, win, [entry.y_cell.center[0]], entry.cone, 2.0)
        assert got == entry.regular, (entry.y_cell, entry.cone)


def test_scan_matches_per_entry_decay_fit():
    grid = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    f = heaviside_sheet(grid, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    frame = build_frame([[1.0, 0.0]])
    cells = [BallSpec((-2.0,), 0.25), BallSpec((0.0,), 0.25),
             BallSpec((1.0,), 0.25)]
    cones = cone_dictionary_2d(16, r_min=0.5)
    F = dstft_fast(f, win, frame)
    # the rows of the cell at -2 straddle a y~ block boundary of the stream
    rows = np.flatnonzero(cells[0].contains(F.y_grid.points()))
    block = BLOCK_ELEMS // grid.size
    assert rows[0] // block != rows[-1] // block
    report = wavefront_scan(f, win, frame, 2.0, cells, cones, threshold_N=1.7)
    assert len(report.entries) == len(cells) * len(cones)
    assert [(e.y_cell, e.cone) for e in report.entries] == \
        [(c, k) for c in cells for k in cones]
    for e in report.entries:
        assert e.fit == decay_fit(F, e.y_cell, e.cone, 2.0)


def test_scan_treats_xi_and_minus_xi_alike():
    # a real signal and a real window give |F(y~, xi)| = |F(y~, -xi)|; the
    # even-grid dual lattice holds -N/2 but not +N/2 on each axis, and that
    # line must not give the cones on one side extra points or shells
    grid = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    f = heaviside_sheet(grid, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    cones = cone_dictionary_2d(16, r_min=0.5)
    report = wavefront_scan(f, win, build_frame([[1.0, 0.0]]), 2.0,
                            [BallSpec((0.0,), 0.25)], cones, threshold_N=1.7)
    for plus, minus in zip(report.entries[:8], report.entries[8:]):
        assert np.allclose(plus.cone.center, -np.asarray(minus.cone.center))
        assert plus.fit.n_points == minus.fit.n_points
        assert plus.fit.n_shells == minus.fit.n_shells
        assert plus.fit.N_hat == pytest.approx(minus.fit.N_hat, rel=1e-9)
        assert plus.regular == minus.regular
    # the cone around (-1, 0) read singular while its Nyquist column counted
    assert report.entries[8].regular


def test_scan_memory_bounded():
    # the 128^2 field takes 32 MiB, well above the allowance
    grid = Grid.from_bounds([-4, -4], [4, 4], [128, 128])
    f = heaviside_sheet(grid, (1.0, 0.0), 0.0)
    win = gevrey_bump(Grid.from_bounds([-2], [2], [64]), radius=0.5, alpha=2.0)
    cells = [BallSpec((y,), 0.25) for y in (-2.0, 0.0, 2.0)]
    cones = cone_dictionary_2d(16, r_min=1.75)
    bound = len(cells) * grid.size * 8 + f.values.nbytes + 8 * BLOCK_ELEMS * 16
    assert bound < 16 * grid.counts[0] * grid.size
    tracemalloc.start()
    try:
        report = wavefront_scan(f, win, build_frame([[1.0, 0.0]]), 2.0,
                                cells, cones, threshold_N=1.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert len(report.singular) == 2


def test_strict_mode_rejects_gaussian_window():
    f = gaussian(GRID, sigma=1.0)
    win = gaussian_window(WGRID, 0.5)
    frame = build_frame([[1.0, 0.0]])
    cells = [BallSpec((0.0,), 0.25)]
    cones = cone_dictionary_2d(8, r_min=0.5)
    with pytest.warns(WindowClassWarning):
        wavefront_scan(f, win, frame, 2.0, cells, cones)


def test_cone_dictionary_shapes():
    cones = cone_dictionary_2d(16, r_min=1.75, half_angle=math.pi / 16)
    assert len(cones) == 16
    assert all(abs(np.linalg.norm(c.center) - 1.0) < 1e-12 for c in cones)
    with pytest.raises(ValueError):
        cone_dictionary_2d(1)
    # the default half angle pi/count is pi/2 at count 2, which no cone takes
    with pytest.raises(ValueError, match="needs count >= 3, got count 2"):
        cone_dictionary_2d(2)
    assert [c.half_angle for c in cone_dictionary_2d(2, half_angle=1.5)] == [1.5, 1.5]


@pytest.mark.parametrize("sheet", [delta_sheet, heaviside_sheet])
def test_sheet_refuses_a_zero_normal(sheet):
    with pytest.raises(ValueError, match="sheet normal must be nonzero"):
        sheet(Grid.from_bounds([-4, -4], [4, 4], [8, 8]), [0.0, 0.0])


def test_partial_rejects_bad_center_length():
    f = delta_sheet(GRID, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    cone = ConeSpec((1.0, 0.0), math.pi / 8, 0.5)
    with pytest.raises(ValueError, match="length"):
        partial_wf_test(f, win, [0.0, 0.0], cone, 2.0)


@pytest.mark.parametrize("y0", [math.nan, math.inf])
def test_partial_rejects_a_center_that_is_not_finite(y0):
    # a center of NaN or inf must not be read as regular
    f = delta_sheet(GRID, (1.0, 0.0), 0.0)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    cone = ConeSpec((1.0, 0.0), math.pi / 8, 0.5)
    with pytest.raises(ValueError, match="cut-off center must be a vector of finite numbers"):
        partial_wf_test(f, win, [y0], cone, 2.0)


R3 = Grid.from_bounds([-4, -4, -4], [4, 4, 4], [16, 12, 10])
CONES3 = [ConeSpec(c, 0.5, 0.15) for c in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                          (0, -1, 0), (0, 0, 1), (0, 0, -1),
                                          (1, 1, 1))]
# window axes on the lattice of signal axis 0 (spacing 0.5), 1 (2/3), 2 (0.8)
W0, W01 = Grid.from_bounds([-2], [2], [8]), Grid.from_bounds([-2, -2], [2, 2], [8, 6])
W20 = Grid.from_bounds([-2.4, -2], [2.4, 2], [6, 8])


@pytest.mark.parametrize("rows, g, centers", [
    ([[1, 0, 0]], gaussian_window(W0, [0.7]), [(-2.0,), (0.0,), (1.5,)]),
    ([[1, 0, 0]], gevrey_bump(W0, 1.2, 2.0), [(-2.0,), (0.0,), (1.5,)]),
    ([[1, 0, 0], [0, 1, 0]], gaussian_window(W01, [0.7, 0.7]),
     [(0.0, 0.0), (1.5, -1.0)]),
    ([[0, 0, 1], [1, 0, 0]], gaussian_window(W20, [0.8, 0.7]),
     [(0.0, 0.0), (-1.6, 1.5)]),
    ([[0, 0, 1], [1, 0, 0]], gevrey_bump(W20, 1.5, 2.0),
     [(0.0, 0.0), (-1.6, 1.5)]),
], ids=["e1-gaussian", "e1-bump", "e1e2-gaussian", "e3e1-gaussian",
        "e3e1-bump"])
def test_scan_with_a_blind_axis_before_a_seen_one(monkeypatch, rows, g, centers):
    # the stream moves the blind axes first; each entry must still be the
    # oracle's on the field in the signal's own layout, for any shard count
    f = heaviside_sheet(R3, (0.8, 0.6, 0.0), 0.3)
    frame = build_frame(rows)
    assert _blind_first(f, frame.u)[2] is not None
    cells = [BallSpec(c, 0.4) for c in centers]
    reports = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowClassWarning)
        for n in (1, 2, 3):
            monkeypatch.setattr(transform, "_cpu_count", lambda: n)
            reports[n] = wavefront_scan(f, g, frame, 2.0, cells, CONES3,
                                        threshold_N=1.7)
    F = dstft_fast(f, g, frame)
    for e in reports[1].entries:
        assert e.fit == decay_fit(F, e.y_cell, e.cone, 2.0)
    assert reports[2] == reports[1] and reports[3] == reports[1]


def test_transposed_sheet_scans_alike():
    # a sheet with normal e_1 scanned along e_1 (axis 1 moved first) and
    # its transpose scanned along e_2 (no axis moved) give one verdict per
    # entry, with each cone mirrored across the diagonal
    f = delta_sheet(Grid.from_bounds([-4, -3], [4, 3], [32, 24]), (1.0, 0.0), 0.0)
    ft = Signal(Grid.from_bounds([-3, -4], [3, 4], [24, 32]), f.values.T)
    win = gevrey_bump(WGRID, radius=0.5, alpha=2.0)
    cells = [BallSpec((y,), 0.25) for y in (-2.0, 0.0, 1.0)]
    cones = cone_dictionary_2d(16, r_min=0.5)
    mirrored = [ConeSpec(c.center[::-1], c.half_angle, c.r_min) for c in cones]
    a = wavefront_scan(f, win, build_frame([[1.0, 0.0]]), 2.0, cells, cones)
    b = wavefront_scan(ft, win, build_frame([[0.0, 1.0]]), 2.0, cells, mirrored)
    assert [e.regular for e in a.entries] == [e.regular for e in b.entries]
    singular = {(e.y_cell, e.cone.center[::-1]) for e in b.singular}
    assert singular == {(e.y_cell, e.cone.center) for e in a.singular}
    assert {(e.y_cell.center, tuple(np.round(e.cone.center).astype(int)))
            for e in a.singular} == {((0.0,), (1, 0)), ((0.0,), (-1, 0))}
