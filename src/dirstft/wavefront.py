"""Directional microlocal regularity testing and wavefront-set estimation.

A position/direction pair (ball of y~ positions, frequency cone) is regular
when the field decays like C exp(-N |xi|^(1/alpha)) over the ball x cone with
a rate N above threshold.  The rate is estimated by regressing dyadic-shell
suprema of log |F| against |xi|^(1/alpha).

The model bound is one-sided: decay faster than the model (a Gaussian field,
say) produces a concave log-magnitude curve whose linear-fit residual is
large even though the bound trivially holds.  The classifier therefore also
accepts entries whose pairwise secant slopes all stay above threshold, and
entries whose cone values sit entirely below the floating-point dynamic
range.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .direction import DirectionFrame
from .grids import Grid, Signal, dft
from .transform import (DstftField, _half_axis, _in_shards, _level0, _mirror,
                        _spectra, default_y_grid)
from .windows import Window, _seen, window_at, window_levels

LOG_FLOOR = 1e-300          # floor before taking logs (exact zeros)
DYNAMIC_RANGE_FLOOR = 1e-280  # below this a shell is "fully decayed"
NOISE_FLOOR_REL = 1e-12     # relative to the peak of |F| over the cell;
                            # shell suprema below this are FFT rounding,
                            # not signal
N_HAT_SATURATED = 1e6       # reported rate when decay exhausts the range
RESIDUAL_CAP = 0.5          # log-units, the largest rms residual of a fit
DEFAULT_THRESHOLD_N = 1.0
MIN_CONE_POINTS = 8


class WindowClassWarning(UserWarning):
    """Non-compactly-supported window used for a wavefront scan."""


@dataclass(frozen=True)
class ConeSpec:
    """Frequencies within half_angle of a unit center direction, |xi| >= r_min."""

    center: tuple
    half_angle: float
    r_min: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        norm = np.linalg.norm(c)
        if abs(norm - 1.0) > 1e-12:
            if norm == 0:
                raise ValueError("cone center must be a nonzero direction")
            c = c / norm
        object.__setattr__(self, "center", tuple(float(x) for x in c))
        if not 0 < self.half_angle < np.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        if self.r_min <= 0:
            raise ValueError("r_min must be positive")

    def contains(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        return self._contains(xi, np.linalg.norm(xi, axis=-1))

    def _contains(self, xi: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """contains, given the points' norms."""
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = (xi @ np.asarray(self.center)) / norms
        return (norms >= self.r_min) & (cosang >= math.cos(self.half_angle))


@dataclass(frozen=True)
class BallSpec:
    """Euclidean ball enclosing the product of k per-coordinate balls of
    radius `radius` (so the effective Euclidean radius is radius * sqrt(k))."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def reach(self) -> float:
        """The largest distance from the center that contains accepts: the
        effective radius radius * sqrt(k), plus 1e-12 for rounding."""
        return self.radius * math.sqrt(len(self.center)) + 1e-12

    def contains(self, y: np.ndarray) -> np.ndarray:
        return _in_balls([self], np.atleast_2d(y))[0]


def _in_balls(cells: list, y: np.ndarray) -> np.ndarray:
    """The (cells, points) mask of the points y, shaped (P, k), within
    each BallSpec's reach of its center: the ball rule, for every cell at
    once by one broadcast."""
    centers = np.array([cell.center for cell in cells])
    return (np.linalg.norm(y - centers[:, None], axis=-1)
            <= np.array([[cell.reach] for cell in cells]))


@dataclass(frozen=True)
class DecayFit:
    N_hat: float
    logC_hat: float
    residual: float
    n_points: int
    alpha: float
    n_shells: int = 0
    slope_floor: float = 0.0


@dataclass(frozen=True)
class ScanEntry:
    y_cell: BallSpec
    cone: ConeSpec
    fit: DecayFit
    regular: bool


@dataclass
class WavefrontReport:
    """The scan's entries, cell-major, and what the scan read: the y~ rows
    it transformed (those inside some cell) of the y~ grid's rows_total,
    and each cell's noise_ref, in cell order, the peak of |F| over the
    cell against which its noise floor was measured."""

    entries: list
    threshold_N: float
    rows_streamed: int = 0
    rows_total: int = 0
    noise_ref: tuple = ()

    @property
    def singular(self) -> list:
        return [e for e in self.entries if not e.regular]


def _mirrored(xi_pts: np.ndarray) -> np.ndarray:
    """Mask of the points whose mirror -xi also lies in the lattice box.
    On the zero-centered dual lattice this drops the -N/2 line of each
    even axis, which has no +N/2 partner; keeping it would give the cone
    around -xi points and shells that the cone around xi lacks."""
    ok = np.ones(len(xi_pts), dtype=bool)
    for col in xi_pts.T:        # per column: numpy reduces (N, 2) rows slowly
        ok &= np.abs(col) <= min(-col.min(), col.max()) * (1 + 1e-12)
    return ok


def _lattice(xi_pts: np.ndarray, pos: np.ndarray | None = None):
    """(norms, mirrored, pos) of a frequency lattice: every point's |xi|,
    the _mirrored mask and the column of each point in the magnitudes
    (pos, None for lattice order), shared by the shell tables of all
    cones."""
    return np.linalg.norm(xi_pts, axis=-1), _mirrored(xi_pts), pos


def _shell_table(xi_pts: np.ndarray, cone: ConeSpec, lattice):
    """The cone's dyadic shells on a frequency lattice with _lattice
    geometry: a list of (cols, norms) pairs, one per nonempty shell, with
    cols the magnitude columns (the lattice's pos) of the in-shell points
    of xi_pts, in lattice order, and norms their |xi|; plus the in-cone
    point count.  Only mirrored points count (see _mirrored).  Shells
    double in radius from r_min; the last one is closed at the largest
    in-cone |xi|."""
    norms, mirrored, pos = lattice
    mask = cone._contains(xi_pts, norms) & mirrored
    n_points = int(np.count_nonzero(mask))
    if n_points < MIN_CONE_POINTS:
        raise ValueError(
            f"only {n_points} frequency lattice points in the cone "
            f"(need >= {MIN_CONE_POINTS})"
        )
    idx = np.flatnonzero(mask)
    norms = norms[idx]
    cols = idx if pos is None else pos[idx]
    r_max = float(norms.max())
    edges = [cone.r_min]
    while edges[-1] < r_max * (1 + 1e-12):
        edges.append(edges[-1] * 2)
    shells = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (norms >= lo) & (norms < hi)
        if lo == edges[-2]:
            sel = (norms >= lo) & (norms <= r_max)
        if np.any(sel):
            shells.append((cols[sel], norms[sel]))
    return shells, n_points


def _cone_fits(xi_pts: np.ndarray, mags: np.ndarray, cone: ConeSpec,
               alpha: float, ref, lattice) -> list:
    """One DecayFit per row of mags (rows, Nxi) over one cone, from the
    dyadic-shell suprema of each row: x = |xi*|^(1/alpha) at the first
    argmax in lattice order and y = log sup |F|, for the shells whose sup
    is above the floor; the others count as decayed.  Each shell's
    columns are gathered with np.take, in lattice order, whatever order
    the columns of mags hold the lattice in.

    ref holds, per row (a scalar serves every row), the magnitude against
    which the rounding-noise floor NOISE_FLOOR_REL * ref is measured: the
    peak of |F| over the row's own cell (see wavefront_scan).  lattice is
    xi_pts' _lattice geometry.  A row with fewer than 2 shells above its
    floor has the same fit as every other such row, whatever the floors,
    so _fit runs once for all of them."""
    shells, n_points = _shell_table(xi_pts, cone, lattice)
    floor = np.maximum(DYNAMIC_RANGE_FLOOR, NOISE_FLOOR_REL * np.reshape(ref, (-1, 1)))
    rows = np.arange(len(mags))
    at = np.empty((len(mags), len(shells)))         # |xi*| per row, shell
    sup = np.empty((len(mags), len(shells)))
    for s, (cols, norms) in enumerate(shells):
        vals = np.take(mags, cols, axis=1)
        np.maximum(vals, LOG_FLOOR, out=vals)
        best = np.argmax(vals, axis=1)
        at[:, s], sup[:, s] = norms[best], vals[rows, best]
    usable = sup > floor

    def row_fit(r):
        xs = [float(x) ** (1.0 / alpha) for x in at[r, usable[r]]]
        ys = [math.log(y) for y in sup[r, usable[r]]]
        return _fit(np.asarray(xs), np.asarray(ys), n_points,
                    len(shells) - len(xs), alpha)

    few = np.count_nonzero(usable, axis=1) < 2
    short = row_fit(int(np.argmax(few))) if few.any() else None
    return [short if few[r] else row_fit(r) for r in rows]


def _fit(xs: np.ndarray, ys: np.ndarray, n_points: int, decayed: int,
         alpha: float) -> DecayFit:
    if len(xs) < 2:
        if decayed > 0:
            # the cone decays below the floating-point dynamic range
            return DecayFit(N_HAT_SATURATED, 0.0, 0.0, n_points, alpha,
                            n_shells=len(xs) + decayed,
                            slope_floor=N_HAT_SATURATED)
        raise ValueError("fewer than 2 usable dyadic shells in the cone")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    floor = math.inf
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[j] > xs[i] + 1e-12:
                floor = min(floor, -(ys[j] - ys[i]) / (xs[j] - xs[i]))
    if not math.isfinite(floor):
        floor = -slope
    return DecayFit(float(-slope), float(intercept), resid, n_points, alpha,
                    n_shells=len(xs) + decayed, slope_floor=float(floor))


def _classify(fit: DecayFit, threshold_N: float) -> bool:
    if fit.N_hat >= N_HAT_SATURATED:
        return True
    if fit.N_hat >= threshold_N and fit.residual <= RESIDUAL_CAP:
        return True
    # one-sided bound: uniformly steep secants mean faster-than-model decay
    return fit.slope_floor >= threshold_N


def _check_alpha(alpha: float) -> None:
    """The Gevrey index of a decay model must exceed 1 and be finite."""
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite, got {alpha}")


def fit_spectrum_decay(xi_pts: np.ndarray, mags: np.ndarray, cone: ConeSpec,
                       alpha: float) -> DecayFit:
    """Decay fit of raw magnitudes over a frequency cone, with the noise
    floor measured against their peak."""
    _check_alpha(alpha)
    return _cone_fits(xi_pts, np.asarray(mags)[None, :], cone, alpha,
                      float(np.max(mags)), _lattice(xi_pts))[0]


def decay_fit(F: DstftField, ball: BallSpec, cone: ConeSpec, alpha: float) -> DecayFit:
    """Fit the decay rate of sup over the ball of |F| over the cone, with
    the noise floor measured against the ball's own peak of |F|: one
    wavefront_scan entry, recomputed from a stored field (the scan's
    oracle)."""
    ymask = ball.contains(F.y_grid.points())
    if not np.any(ymask):
        raise ValueError("no y~ lattice points inside the ball")
    sup = np.abs(F.values.reshape(F.y_size, F.xi_size)[ymask]).max(axis=0)
    return fit_spectrum_decay(F.xi_grid.points(), sup, cone, alpha)


def _check_scan_window(g: Window):
    if not g.compact:
        warnings.warn("wavefront scan expects a compactly supported Gevrey "
                      f"bump window, got kind {g.kind.value!r}",
                      WindowClassWarning, stacklevel=3)
    elif window_at(g, np.zeros((1, g.grid.dim)))[0] == 0:
        raise ValueError("scan window must not vanish at the origin")


def _blind_first(f: Signal, u: np.ndarray):
    """(f, u, perm) with the frame's blind axes (those no row of u touches)
    moved first in a contiguous copy of f, so that a stream's per-row FFTs
    run along its last axes; the blind axes, and the seen ones, keep their
    order, so every window and phase table holds the same values.  u is
    then the frame's rows on the moved axes and perm the order of the
    moved axes.  When no axis moves, f is not copied and perm is None."""
    perm = np.argsort(_seen(u), kind="stable")
    if np.array_equal(perm, np.arange(len(perm))):
        return f, u, None
    return Signal(f.grid.take(perm), f.values.transpose(perm)), u[:, perm], perm


def _columns(counts: tuple, perm, shape: tuple):
    """The column of each lattice point, in lattice order, in the scan's
    |F| layout: the axes of the lattice counts in the order perm (None:
    unmoved), shaped shape, which holds only the leading slice of the
    first axis when the stream is Hermitian (transform._half_axis).  A
    point past the slice takes the column of its mirror (transform._mirror),
    since |F(y~, -xi)| = |F(y~, xi)|.  None when the layout is the
    lattice's own."""
    moved = counts if perm is None else tuple(counts[p] for p in perm)
    if perm is None and shape == moved:
        return None
    cols = np.empty(moved, dtype=np.intp)
    cols[:shape[0]] = np.arange(math.prod(shape)).reshape(shape)
    if shape != moved:
        for dst, src in _mirror(moved, 0):
            cols[dst] = cols[src]
    return cols.ravel() if perm is None else cols.transpose(np.argsort(perm)).ravel()


def wavefront_scan(f: Signal, g: Window, frame: DirectionFrame, alpha: float,
                   y_cells: list, cones: list,
                   threshold_N: float = DEFAULT_THRESHOLD_N,
                   y_grid: Grid | None = None) -> WavefrontReport:
    """Exhaustive regular-point test over a (cell, cone) dictionary.

    Each entry depends only on the y~ rows inside its own cell, so only
    the rows some cell contains are transformed: they are streamed in
    blocks and never stored, and each block updates the running sup of |F|
    over each cell's rows.  Each cell's noise floor is NOISE_FLOOR_REL
    times the peak of |F| over its own rows (the cell's noise_ref): every
    row is its own FFT, so its rounding noise scales with that row's
    ||S||_2, and sup_xi |S| >= ||S||_2 / sqrt(Nxi) keeps the noise below
    the floor for Nxi up to about 10^7.  An entry is then the same
    whichever other cells the list holds, and equals decay_fit on the
    stored field.  The rows stream in shards (transform._in_shards) that
    share f along level 0 and one sup, each cell's under a lock of its
    own; a maximum does not depend on the order it is taken in, so the
    report is the same for any shard count.  Each shard takes a block's
    |F| into one float buffer, sized by its largest block, and is done
    with the block before the next is asked for, as the stream reuses its
    buffer too.  The stream takes f with the frame's blind axes moved
    first (_blind_first), so each row's FFT runs along the contiguous
    last axes, and |F| and the sups stay in that layout.  A Hermitian
    stream (transform._half_axis) takes only the leading slice of its
    first blind axis, now the first axis, and each point past it reads its
    mirror's sup (_columns).  The lattice geometry (|xi|, the mirrored
    mask and the layout column of each point) is computed once, and each
    cone's shell table is then built once and its suprema gathered for
    every cell at once, in lattice order.  The singular set is the
    complement of the regular entries.
    """
    _check_alpha(alpha)
    if math.isnan(threshold_N):
        raise ValueError("threshold_N must be a number, got NaN")
    if not (y_cells and cones):
        raise ValueError(f"the {'cone' if y_cells else 'cell'} list is empty")
    _check_scan_window(g)
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    Y = y_grid.points()
    member = _in_balls(y_cells, Y)
    for cell, hit in zip(y_cells, member):
        if not hit.any():
            raise ValueError(f"no y~ lattice points inside cell {cell}")
    rows = np.flatnonzero(member.any(axis=0))
    member = member[:, rows]
    ft, u, perm = _blind_first(f, frame.u)
    levels = window_levels(g, ft.grid, u, y_grid, rows)
    G = _level0(ft, levels, _half_axis(ft, levels))
    size = G.size
    sup = np.zeros((len(y_cells), size))
    locks = [threading.Lock() for _ in y_cells]

    def shard(a, b, part):
        buf = np.empty((0, size))
        for lo, hi, _, S in _spectra(ft, part, G=G):
            if hi - lo > len(buf):
                buf = np.empty((hi - lo, size))
            mags = np.abs(S.reshape(hi - lo, -1), out=buf[:hi - lo])
            # one in-place maximum per (cell, row) pair, with no gathered copy
            for i, j in zip(*np.nonzero(member[:, a + lo:a + hi])):
                with locks[i]:
                    np.maximum(sup[i], mags[j], out=sup[i])

    _in_shards(shard, levels)
    ref = sup.max(axis=1)
    for cell, peak in zip(y_cells, ref):
        if not math.isfinite(peak):     # also NaN, which maximum keeps
            raise ValueError(f"transform values must be finite; the rows "
                             f"of cell {cell} overflowed")
    xi_pts = f.grid.dual().points()
    lattice = _lattice(xi_pts, _columns(f.grid.counts, perm, G.shape))
    fits = [_cone_fits(xi_pts, sup, cone, alpha, ref, lattice) for cone in cones]
    entries = []
    for i, cell in enumerate(y_cells):
        for cone, cone_fits in zip(cones, fits):
            fit = cone_fits[i]
            entries.append(ScanEntry(cell, cone, fit, _classify(fit, threshold_N)))
    return WavefrontReport(entries, threshold_N, rows_streamed=len(rows),
                           rows_total=y_grid.size, noise_ref=tuple(float(x) for x in ref))


def partial_wf_test(f: Signal, chi: Window, y0, cone: ConeSpec, alpha: float,
                    threshold_N: float = DEFAULT_THRESHOLD_N) -> bool:
    """The oracle of the paper's cut-off characterization of directional
    regularity, which the paper proves agrees with the cone decay of
    DS_g f that wavefront_scan measures: multiply f by chi(t~ - y0)
    extended constantly in the trailing coordinates, take the full Fourier
    transform and threshold the cone decay of the spectrum."""
    _check_alpha(alpha)
    k = chi.grid.dim
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.shape[0] != k:
        raise ValueError("y0 must have length k")
    if window_at(chi, np.zeros((1, k)))[0] == 0:
        raise ValueError("cut-off must not vanish at its center")
    T = f.grid.points()[:, :k]
    ext = window_at(chi, T - y0).reshape(f.grid.counts)
    cut = Signal(f.grid, f.values * ext)
    spec = dft(cut)
    fit = fit_spectrum_decay(spec.grid.points(), np.abs(spec.values.ravel()),
                             cone, alpha)
    return _classify(fit, threshold_N)


def cone_dictionary_2d(count: int = 16, r_min: float = 0.5,
                       half_angle: float | None = None) -> list:
    """Evenly spaced covering dictionary of cones on the circle."""
    if count < 2:
        raise ValueError("need at least 2 cones")
    half = math.pi / count if half_angle is None else half_angle
    cones = []
    for j in range(count):
        theta = 2 * math.pi * j / count
        cones.append(ConeSpec((math.cos(theta), math.sin(theta)), half, r_min))
    return cones
