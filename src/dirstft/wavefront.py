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
import warnings
from dataclasses import dataclass

import numpy as np

from .direction import DirectionFrame
from .grids import Grid, Signal, dft
from .transform import (DstftField, _half_axis, _level0, _mirror, _spectra,
                        default_y_grid)
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
        c = _finite_center(self.center, "cone")
        big = max(map(abs, c))
        if big == 0:
            raise ValueError("cone center must be a nonzero direction")
        # scaled by the power of two at or below its largest |entry| before
        # its norm is taken, as build_frame does, so that the norm neither
        # overflows nor underflows; the scaling is exact, so a center whose
        # norm does neither normalizes to the same bits as unscaled.  One
        # within 1e-12 of unit length is kept as given; norm * scale is a
        # Python float product, inf on overflow, not an error.
        scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
        scaled = np.array(c) / scale
        norm = float(np.linalg.norm(scaled))
        if abs(norm * scale - 1.0) > 1e-12:
            c = tuple(float(x) for x in scaled / norm)
        object.__setattr__(self, "center", c)
        if not 0 < self.half_angle < np.pi / 2:
            raise ValueError("half_angle must lie in (0, pi/2)")
        if not 0 < self.r_min < math.inf:
            raise ValueError(f"r_min must be positive and finite, got {self.r_min}")

    def contains(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        return _in_cones([self], xi, np.linalg.norm(xi, axis=-1))[0]


@dataclass(frozen=True)
class BallSpec:
    """Euclidean ball enclosing the product of k per-coordinate balls of
    radius `radius` (so the effective Euclidean radius is radius * sqrt(k))."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_center(self.center, "ball"))
        if not 0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius}")

    @property
    def reach(self) -> float:
        """The largest distance from the center that contains accepts: the
        effective radius radius * sqrt(k), plus 1e-12 for rounding."""
        return self.radius * math.sqrt(len(self.center)) + 1e-12

    def contains(self, y: np.ndarray) -> np.ndarray:
        return _in_balls([self], np.atleast_2d(y))[0]


def _finite_center(center, what: str) -> tuple:
    """center as a nonempty tuple of floats, every one finite."""
    c = tuple(float(x) for x in center)
    if not (c and all(map(math.isfinite, c))):
        raise ValueError(f"{what} center must be a vector of finite numbers, "
                         f"got {list(c)}")
    return c


def _in_cones(cones: list, xi: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The (cones, points) mask of the points xi, shaped (P, n), with
    norms |xi|, that lie in each ConeSpec: |xi| >= r_min and a cosine to
    the center of at least cos(half_angle), the cone rule.  Each cone takes
    its own matrix-vector product, so a cone's mask does not depend on the
    others in the list.  A center of other than n coordinates is refused,
    not broadcast."""
    for cone in cones:
        if len(cone.center) != xi.shape[1]:
            raise ValueError(f"cone center {list(cone.center)} has {len(cone.center)} "
                             f"coordinates, but the points have {xi.shape[1]}")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.array([(norms >= cone.r_min)
                         & ((xi @ np.asarray(cone.center)) / norms >= math.cos(cone.half_angle))
                         for cone in cones])


def _in_balls(cells: list, y: np.ndarray) -> np.ndarray:
    """The (cells, points) mask of the points y, shaped (P, k), within
    each BallSpec's reach of its center: the ball rule, for every cell at
    once by one broadcast.  A center of other than k coordinates is
    refused, not broadcast."""
    for cell in cells:
        if len(cell.center) != y.shape[1]:
            raise ValueError(f"ball center {list(cell.center)} has {len(cell.center)} "
                             f"coordinates, but the points have {y.shape[1]}")
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


def _shell_index(xi_pts: np.ndarray, cones: list, pos: np.ndarray | None = None):
    """Each cone's dyadic shells on a frequency lattice, one cone's table
    at a time: (shells, n) per cone, with shells a list of (cols, norms)
    pairs, one per nonempty shell in order of radius, cols the magnitude
    columns (pos, None for lattice order) of the shell's points in lattice
    order and norms their |xi|, and n the cone's point count.  |xi| and
    the _mirrored mask are computed once for every cone, and only mirrored
    points count.  Shell s holds r_min 2^s <= |xi| < r_min 2^(s+1), found by
    np.searchsorted on those edges, each exactly twice the one before."""
    norms, mirrored = np.linalg.norm(xi_pts, axis=-1), _mirrored(xi_pts)
    for cone in cones:
        idx = np.flatnonzero(_in_cones([cone], xi_pts, norms)[0] & mirrored)
        if len(idx) < MIN_CONE_POINTS:
            raise ValueError(f"only {len(idx)} frequency lattice points in the cone "
                             f"(need >= {MIN_CONE_POINTS})")
        r, edges = norms[idx], [cone.r_min]
        top = r.max()
        while edges[-1] <= top:
            edges.append(2 * edges[-1])
        shell = np.searchsorted(edges, r, side="right")
        cols = idx if pos is None else pos[idx]
        sels = [shell == s for s in range(1, len(edges))]   # lattice order within a shell
        yield [(cols[sel], r[sel]) for sel in sels if sel.any()], len(idx)


def _scan_fits(xi_pts, mags, cones: list, alpha: float, ref, pos=None) -> list:
    """One list per cone of one DecayFit per row of mags (rows, Nxi), by
    _decay_fits on the row's dyadic-shell suprema (_shell_index, with pos
    the column of each lattice point in mags, None for lattice order): x =
    |xi*|^(1/alpha) at the first argmax in lattice order and y = log sup
    |F|, for shells above the row's floor NOISE_FLOOR_REL * ref (ref per
    row, or a scalar: the peak of |F| over the row's cell); the others
    decayed."""
    picks, counts = {}, []
    for c, (shells, n) in enumerate(_shell_index(xi_pts, cones, pos)):
        counts.append((len(shells), n))
        for s, (cols, norms) in enumerate(shells):
            vals = np.take(mags, cols, axis=1)
            np.maximum(vals, LOG_FLOOR, out=vals)
            picks[c, s] = norms[np.argmax(vals, axis=1)], vals.max(axis=1)
        del shells, vals        # before the next cone's table is built
    at = np.ones((len(cones), len(mags), max(k for k, _ in counts)))  # |xi*| per shell
    sup = np.zeros(at.shape)                # padding shells: 0, never usable
    for (c, s), (a, v) in picks.items():
        at[c, :, s], sup[c, :, s] = a, v
    usable = sup > np.maximum(DYNAMIC_RANGE_FLOOR, NOISE_FLOOR_REL * np.reshape(ref, (-1, 1)))
    x, y = np.zeros(at.shape), np.zeros(at.shape)  # libm pow and log, not SIMD
    x[usable] = [v ** (1.0 / alpha) for v in at[usable].tolist()]
    y[usable] = [math.log(v) for v in sup[usable].tolist()]
    return _decay_fits(x, y, usable, counts, alpha)


def _decay_fits(x, y, usable, counts: list, alpha: float) -> list:
    """One list per cone of the DecayFit of each row of (x, y), shaped
    (cones, rows, shells), over its usable shells, with each cone's (shell
    count, point count) in counts: the least-squares line from centred
    sums, its rms residual, and the least secant decay over usable shells
    i < j with x_j > x_i + 1e-12 (-slope if none).  Sums add shell by
    shell, 0 for a masked shell, and the rest is elementwise, so a row's
    bits do not depend on the batch."""
    def total(v):
        return sum(np.where(usable[..., s], v[..., s], 0.0) for s in range(v.shape[-1]))

    n = np.count_nonzero(usable, axis=-1)
    if np.any((n < 2) & (n == np.array([[k] for k, _ in counts]))):
        raise ValueError("fewer than 2 usable dyadic shells in the cone")
    m = np.maximum(n, 1)
    mx, my = total(x) / m, total(y) / m
    dx = x - mx[..., None]
    slope = np.divide(total(dx * (y - my[..., None])), total(dx * dx),
                      out=np.zeros(n.shape), where=n >= 2)
    intercept = my - slope * mx
    resid = np.sqrt(total((y - (slope[..., None] * x + intercept[..., None])) ** 2) / m)
    i, j = np.triu_indices(x.shape[-1], 1)
    secant = np.divide(-(y[..., j] - y[..., i]), x[..., j] - x[..., i],
                       out=np.full(n.shape + i.shape, math.inf),
                       where=usable[..., i] & usable[..., j] & (x[..., j] > x[..., i] + 1e-12))
    floor = secant.min(axis=-1, initial=math.inf)
    floor = np.where(np.isfinite(floor), floor, -slope)
    fits = []
    for (shells, points), *cone in zip(counts, n.tolist(), (-slope).tolist(),
                                       intercept.tolist(), resid.tolist(), floor.tolist()):
        # under 2 usable shells, some decayed: below the floating-point range
        saturated = DecayFit(N_HAT_SATURATED, 0.0, 0.0, points, alpha, n_shells=shells,
                             slope_floor=N_HAT_SATURATED)
        fits.append([DecayFit(rate, logc, res, points, alpha, n_shells=shells,
                              slope_floor=low) if used >= 2 else saturated
                     for used, rate, logc, res, low in zip(*cone)])
    return fits


def _classify(fit: DecayFit, threshold_N: float) -> bool:
    # saturated, a good fit above threshold, or, by the one-sided bound,
    # uniformly steep secants: faster-than-model decay
    return (fit.N_hat >= N_HAT_SATURATED
            or (fit.N_hat >= threshold_N and fit.residual <= RESIDUAL_CAP)
            or fit.slope_floor >= threshold_N)


def _check_alpha(alpha: float) -> None:
    """The Gevrey index of a decay model must exceed 1 and be finite."""
    if not 1 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite, got {alpha}")


def fit_spectrum_decay(xi_pts: np.ndarray, mags: np.ndarray, cone: ConeSpec,
                       alpha: float) -> DecayFit:
    """Decay fit of raw magnitudes, one finite value per row of xi_pts, over
    a frequency cone, with the noise floor measured against their peak."""
    _check_alpha(alpha)
    mags = np.asarray(mags)
    if mags.shape != (len(xi_pts),):
        raise ValueError(f"mags must hold one value per frequency point: shape "
                         f"{mags.shape} for {len(xi_pts)} points")
    if not np.isfinite(mags).all():
        raise ValueError("mags must be finite")
    return _scan_fits(xi_pts, mags[None, :], [cone], alpha, float(mags.max()))[0][0]


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


def _cell_sups(f: Signal, g: Window, frame: DirectionFrame, y_grid: Grid,
               rows: np.ndarray, member: np.ndarray):
    """(sup, perm, shape): the sup of |F| over each cell's rows (member:
    the (cells, rows) mask of the rows streamed) in the stream's layout,
    the lattice axes in the order perm shaped shape (_columns).  The rows
    stream in one pass on the calling thread, with no shards (a second CPU
    was measured not to speed the scan up), and each block's |F| goes into
    one buffer sized by the largest block.  f has the frame's blind axes
    moved first (_blind_first), so each row's FFT runs along the contiguous
    last axes; a Hermitian stream (transform._half_axis) takes only the
    leading slice of the first axis.  What the stream holds is let go on
    return, before the fits."""
    ft, u, perm = _blind_first(f, frame.u)
    levels = window_levels(g, ft.grid, u, y_grid, rows)
    G = _level0(ft, levels, _half_axis(ft, levels))
    sup = np.zeros((len(member), G.size))
    buf = np.empty((0, G.size))
    for lo, hi, _, S in _spectra(ft, levels, G=G):
        if hi - lo > len(buf):
            buf = np.empty((hi - lo, G.size))
        mags = np.abs(S.reshape(hi - lo, -1), out=buf[:hi - lo])
        # one in-place maximum per (cell, row) pair, with no gathered copy
        for i, j in zip(*np.nonzero(member[:, lo:hi])):
            np.maximum(sup[i], mags[j], out=sup[i])
    return sup, perm, G.shape


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
    stored field.  The rows stream in one pass on the calling thread
    (_cell_sups), and every entry is fitted in one pass over the shells of
    one shell index (_scan_fits).  The singular set is the complement of
    the regular entries.
    """
    _check_alpha(alpha)
    if math.isnan(threshold_N):
        raise ValueError("threshold_N must be a number, got NaN")
    if not (y_cells and cones):
        raise ValueError(f"the {'cone' if y_cells else 'cell'} list is empty")
    for what, specs, dim, name in (("cells", y_cells, frame.k, "k"),
                                   ("cones", cones, frame.n, "n")):
        for i, spec in enumerate(specs):
            if len(spec.center) != dim:
                raise ValueError(f"{what}[{i}] center {list(spec.center)} has "
                                 f"{len(spec.center)} coordinates; the frame "
                                 f"has {name} = {dim}")
    _check_scan_window(g)
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    member = _in_balls(y_cells, y_grid.points())
    for cell, hit in zip(y_cells, member):
        if not hit.any():
            raise ValueError(f"no y~ lattice points inside cell {cell}")
    rows = np.flatnonzero(member.any(axis=0))
    sup, perm, shape = _cell_sups(f, g, frame, y_grid, rows, member[:, rows])
    ref = sup.max(axis=1)
    for cell, peak in zip(y_cells, ref):
        if not math.isfinite(peak):     # also NaN, which maximum keeps
            raise ValueError(f"transform values must be finite; the rows "
                             f"of cell {cell} overflowed")
    xi_pts = f.grid.dual().points()
    fits = _scan_fits(xi_pts, sup, cones, alpha, ref, _columns(f.grid.counts, perm, shape))
    entries = [ScanEntry(cell, cone, fit[i], _classify(fit[i], threshold_N))
               for i, cell in enumerate(y_cells) for cone, fit in zip(cones, fits)]
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
    y0 = np.array(_finite_center(np.ravel(y0), "cut-off"))
    if len(y0) != k:
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
    thetas = [2 * math.pi * j / count for j in range(count)]
    return [ConeSpec((math.cos(t), math.sin(t)), half, r_min) for t in thetas]
