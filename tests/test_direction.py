import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dirstft import (Grid, Signal, build_frame, frequency_map, gaussian_window,
                     pullback)
from dirstft import invariants
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import CoverageWarning

SQ2 = math.sqrt(2.0)


def test_rows_normalized_and_b_assembled():
    fr = build_frame([[3.0, 4.0]])
    assert np.allclose(fr.u, [[0.6, 0.8]])
    assert np.allclose(fr.B, [[0.6, 0.8], [0.0, 1.0]])
    assert np.allclose(fr.B @ fr.C, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("rows", [[[1.0, 1.0]], [[3.0, 4.0]], [[1.0, 2.0, 2.0], [0.0, 1.0, -1.0]]])
def test_a_frame_rebuilt_from_its_rows_has_the_same_bits(rows):
    # rows within 1e-12 of unit length are kept as given, not renormalized
    u = build_frame(rows).u
    assert np.array_equal(build_frame(u).u, u)


def test_identity_frame_is_identity():
    fr = identity_frame(3, 2)
    assert np.allclose(fr.B, np.eye(3), atol=1e-14)
    assert fr.det_C == pytest.approx(1.0)


def test_degenerate_direction_rejected():
    with pytest.raises(ValueError, match="dependent directions"):
        build_frame([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_frame([[0.0, 0.0]])


@pytest.mark.parametrize("rows, B", [
    # blind to a leading axis: the trailing axes cannot complete u
    ([[0.0, 1.0]], [[0, 1], [1, 0]]),
    ([[0.0, 0.6, 0.8]], [[0, 0.6, 0.8], [1, 0, 0], [0, 1, 0]]),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    # the trailing axes complete u: B = [u; e_(k+1) ... e_n] as before
    ([[0.6, 0.8]], [[0.6, 0.8], [0, 1]]),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
])
def test_frame_completed_by_coordinate_axes(rows, B):
    fr = build_frame(rows)
    assert np.array_equal(fr.B, np.asarray(B, dtype=float))
    assert np.allclose(fr.B @ fr.C, np.eye(fr.n), atol=1e-14)
    assert fr.det_C == pytest.approx(1.0 / np.linalg.det(fr.B))


def test_frame_change_blind_to_the_leading_axis():
    # u = e_2: the pullback swaps the axes of a square grid
    grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    f = gaussian(grid, sigma=2.0, center=[0.5, -0.25])
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), [2.0])
    err = invariants.frame_change_error(
        f, win, build_frame([[0.0, 1.0]]), [[0.0], [0.5], [-1.0]],
        [[0.0, 0.0], [0.5, 0.25], [1.0, -0.5]])
    assert err <= 1e-4


@pytest.mark.parametrize("rows, u", [
    # huge and subnormal rows normalize without overflow or underflow
    ([[1e308, 0.0]], [[1.0, 0.0]]),
    ([[1e-320, 1e-320]], [[1 / SQ2, 1 / SQ2]]),
])
def test_extreme_but_finite_directions_normalize(rows, u):
    with np.errstate(over="raise", under="ignore", invalid="raise"):
        assert np.allclose(build_frame(rows).u, u, rtol=1e-15, atol=0)


def test_zero_direction_row_rejected():
    with pytest.raises(ValueError, match="direction row 1 is zero"):
        build_frame([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("rows", [[[float("nan"), 1.0]],
                                  [[1.0, 0.0], [0.0, float("inf")]]])
def test_non_finite_direction_rejected(rows):
    with pytest.raises(ValueError, match=f"row {len(rows) - 1} is not finite"):
        build_frame(rows)


def test_frequency_map_hand_inverted():
    # u = (1,1)/sqrt(2): B = [[1/sq2, 1/sq2], [0, 1]],
    # C = [[sq2, -1], [0, 1]], so eta = C^T xi with xi = (1, 0) is (sq2, -1).
    fr = build_frame([[1.0, 1.0]])
    assert np.allclose(fr.C, [[SQ2, -1.0], [0.0, 1.0]], atol=1e-14)
    eta = frequency_map(np.array([1.0, 0.0]), fr)
    assert np.allclose(eta, [SQ2, -1.0], atol=1e-14)


def test_frequency_map_duality():
    # t . xi = s . eta whenever s = B t
    rng = np.random.default_rng(11)
    fr = build_frame([[1.0, 2.0, 0.5]])
    t = rng.standard_normal((20, 3))
    xi = rng.standard_normal((20, 3))
    s = t @ fr.B.T
    eta = frequency_map(xi, fr)
    assert np.allclose(np.sum(t * xi, axis=-1), np.sum(s * eta, axis=-1))


def test_pullback_identity_is_copy():
    g = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
    f = gaussian(g, sigma=1.0)
    h = pullback(f, identity_frame(2, 1), g)
    assert np.allclose(h.values, f.values)
    h.values[0, 0] = 99.0
    assert f.values[0, 0] != 99.0


@pytest.mark.parametrize("interpolation", ["trig"])
def test_pullback_gaussian_closed_form(interpolation):
    # h(s) = |det C| f(Cs); with f = e^{-pi |t|^2} and u = (1,1)/sq2 this is
    # sq2 * exp(-pi |Cs|^2), checked at off-lattice probe points.
    g = Grid.from_bounds([-8, -8], [8, 8], [128, 128])
    f = gaussian(g, sigma=1.0)
    fr = build_frame([[1.0, 1.0]])
    out = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        h = pullback(f, fr, out)
    S = out.points()
    T = S @ fr.C.T
    want = SQ2 * np.exp(-np.pi * np.sum(T ** 2, axis=-1))
    mask = np.linalg.norm(S, axis=-1) <= 2.0
    err = np.max(np.abs(h.values.ravel()[mask] - want[mask]))
    assert err < 1e-9


def test_pullback_mass_scaling():
    # |det C| makes the pullback measure preserving: integrals agree
    g = Grid.from_bounds([-8, -8], [8, 8], [128, 128])
    f = gaussian(g, sigma=1.0)
    fr = build_frame([[1.0, 1.0]])
    out = Grid.from_bounds([-8, -8], [8, 8], [128, 128])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        h = pullback(f, fr, out)
    mass_f = np.sum(f.values) * f.grid.cell_volume
    mass_h = np.sum(h.values) * out.cell_volume
    assert abs(mass_h - mass_f) / abs(mass_f) < 1e-3


def test_pullback_coverage_warning():
    # a strongly sheared frame pushes mass outside the source box
    g = Grid.from_bounds([-2, -2], [2, 2], [32, 32])
    f = Signal(g, np.ones((32, 32), dtype=complex))
    fr = build_frame([[1.0, 5.0]])
    with pytest.warns(CoverageWarning):
        pullback(f, fr, g)


def test_pullback_zeroes_a_point_that_rounds_onto_the_upper_edge():
    # u = (5, 12)/13 maps s = (4, 1) to C s = (8 - eps, 1), whose index
    # rounds to 32, one past the [-8, 8) box; the interpolant there is the
    # periodic image f(-8, 1), and the pullback must give 0 instead
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = random_bandlimited(g, 1)
    fr = build_frame([[5.0, 12.0]])
    i, j = 24, 18                           # s = (4, 1)
    assert np.allclose(g.points()[i * 32 + j], [4.0, 1.0])
    x = fr.C @ [4.0, 1.0]
    assert x[0] < 8.0 and round((x[0] + 8) / 0.5) == 32
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        assert pullback(f, fr, g).values[i, j] == 0


def test_pullback_dim_mismatch():
    g = Grid.from_bounds([-2], [2], [16])
    f = gaussian(g, sigma=0.5)
    fr = build_frame([[1.0, 0.0]])
    with pytest.raises(ValueError):
        pullback(f, fr, g)


@pytest.mark.parametrize("counts", [(16,), (8, 8, 8)])
def test_pullback_rejects_signal_of_other_dimension(counts):
    d = len(counts)
    f = gaussian(Grid.from_bounds([-2] * d, [2] * d, counts), sigma=0.5)
    out = Grid.from_bounds([-2, -2], [2, 2], [16, 16])
    with pytest.raises(ValueError, match=f"signal dimension {d} .* n = 2"):
        pullback(f, build_frame([[1.0, 1.0]]), out)


@pytest.mark.parametrize("rows", [[[1.0, 1.0]], [[0.6, 0.8], [-0.8, 0.6]]])
def test_pullback_memory_bounded(rows):
    # a k=1 frame and a k=n=2 rotation on 96^2; 4.7 MiB is the peak of the
    # same pullback evaluated as scattered points by evaluate_trig
    g = Grid.from_bounds([-8, -8], [8, 8], [96, 96])
    f = gaussian(g, sigma=1.0)
    fr = build_frame(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        pullback(f, fr, g)          # caches the grid's phase tables
        tracemalloc.start()
        try:
            pullback(f, fr, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 4.7 * 2 ** 20
