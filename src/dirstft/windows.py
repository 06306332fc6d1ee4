"""Window functions on R^k: Gaussians, compactly supported Gevrey bumps
and pairing (synthesis-window) checks.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import (BLOCK_ELEMS, LATTICE_TOL, Grid, Signal, _outer,
                    _phase_table, _sample_values, _trig_grid, as_points, dft,
                    evaluate_trig, inner_product)


class WindowKind(enum.Enum):
    GAUSSIAN = "gaussian"
    GEVREY_BUMP = "gevrey_bump"
    CUSTOM = "custom"


# Relative pairing threshold: below quadrature noise the 1/(g, phi)
# reconstruction factor is unusable.
EPS_PAIR = 1e-8


@dataclass
class Window:
    grid: Grid
    values: np.ndarray = field(repr=False)
    kind: WindowKind = WindowKind.CUSTOM
    alpha: float | None = None
    support_radius: float = 0.0
    # one 1-D window per axis whose values the product in values was built
    # from, set by gaussian_window only, else ()
    factors: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        counts = self.grid.counts
        self.values = _sample_values(self.values, counts, "window")
        if not np.any(self.values):
            raise ValueError("window must not be identically zero")

    def as_signal(self) -> Signal:
        return Signal(self.grid, self.values)

    @property
    def compact(self) -> bool:
        """Whether the window is a bump that is zero at and beyond
        support_radius, wherever its samples are evaluated."""
        return self.kind is WindowKind.GEVREY_BUMP and self.support_radius > 0

    @property
    def meta(self) -> dict:
        return {
            "kind": self.kind.value,
            "alpha": self.alpha,
            "support_radius": self.support_radius,
            "counts": list(self.grid.counts),
        }


@dataclass(frozen=True)
class PairingCert:
    value: complex
    magnitude: float
    admissible: bool


def gaussian_window(grid: Grid, sigma) -> Window:
    """g(t) = prod_j exp(-pi t_j^2 / sigma_j^2); strictly positive, g(0) = 1."""
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.shape[0] != grid.dim:
        raise ValueError("sigma length must match grid dimension")
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    parts = [np.exp(-np.pi * (grid.axis(j) / sigma[j]) ** 2)
             for j in range(grid.dim)]
    w = Window(grid, _outer(parts), WindowKind.GAUSSIAN)
    w.factors = tuple(Window(grid.take([j]), p, WindowKind.GAUSSIAN)
                      for j, p in enumerate(parts))
    return w


def gevrey_bump(grid: Grid, radius: float, alpha: float) -> Window:
    """Compactly supported Gevrey-class bump, zero for ||t|| >= radius.

    b(t) = exp(-(1 - ||t/r||^2)^(-q)) with q = 1/(alpha - 1), so b(0) = 1/e.
    """
    if alpha <= 1:
        raise ValueError("Gevrey index alpha must exceed 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.upper)
    half_extent = min(float(np.min(-lo)), float(np.min(hi)))
    if radius >= half_extent:
        raise ValueError(
            f"bump radius {radius} does not fit strictly inside the grid "
            f"(half extent {half_extent})"
        )
    q = 1.0 / (alpha - 1.0)
    pts = grid.points()
    rho2 = np.sum((pts / radius) ** 2, axis=-1)
    vals = np.zeros(pts.shape[0])
    inside = rho2 < 1.0
    vals[inside] = np.exp(-((1.0 - rho2[inside]) ** (-q)))
    return Window(grid, vals.reshape(grid.counts), WindowKind.GEVREY_BUMP,
                  alpha=alpha, support_radius=radius)


def window_at(w: Window, pts: np.ndarray) -> np.ndarray:
    """Evaluate a window at arbitrary k-dim points.

    Lattice hits are gathered exactly; otherwise trigonometric interpolation
    of the periodized window is used (the same rule as the signal pullback).
    Points outside the window's grid box (see Grid.contains) are 0, as are
    points at or beyond the support radius of a compact window.
    """
    pts = as_points(pts, w.grid.dim)
    idx = w.grid.lattice_index(pts)
    if idx is None:
        out = evaluate_trig(w.as_signal(), pts)
    else:
        out = w.values.ravel()[np.ravel_multi_index(idx.T, w.grid.counts,
                                                    mode="clip")]
    return np.where(_keep(w, pts), out, 0.0)


def _keep(w: Window, pts: np.ndarray) -> np.ndarray:
    """Mask of the points where w is not zeroed: inside its box
    (Grid.contains) and, for a compact window, strictly inside its support
    radius."""
    keep = w.grid.contains(pts)
    if w.compact:
        keep &= np.linalg.norm(pts, axis=-1) < w.support_radius
    return keep


def window_blocks(w: Window, grid: Grid, u: np.ndarray, Y: np.ndarray):
    """Iterator of (lo, hi, W) with W[b] = window_at(w, proj - Y[lo + b]),
    where proj = grid.points() @ u.T are the sample points t projected on
    the k x n direction rows ``u`` and ``Y`` holds the y~ points, shape
    (Ny, k).  The window and grid dimensions are checked against k and n,
    and the y~ points against k, at the call, before any block is
    computed.  A block holds the rows of _block_bounds over Y, as its
    consumers expand it to the whole grid; each is _row_window's W at
    those rows.
    """
    u = _frame_rows(w, grid, u)
    Y = as_points(Y, w.grid.dim)
    if Y.shape[0] == 0:
        return iter(())
    window, _ = _row_window(w, grid, u, Y)
    return ((lo, hi, window(np.arange(lo, hi)))
            for lo, hi in _block_bounds(len(Y), grid.size))


def _row_window(w: Window, grid: Grid, u: np.ndarray, Y: np.ndarray):
    """(window, real): window maps rows -> W, with W[b] = window_at(w, proj
    - Y[rows[b]]) for the checked (k, n) direction rows u and the nonempty
    y~ points Y, (Ny, k); the set-up is done once, here, and any run of
    rows reads it.  real tells, before any block is evaluated, that every
    W holds real values: a lattice gather of a window with real samples
    (a gather reads only samples and zeros).

    g(u . t - y~) does not depend on t_i along a blind axis i of the frame,
    one whose column u_(.i) is zero.  So W is evaluated on the sub-grid of
    the other, seen, axes and shaped (len(rows),) + grid.counts with 1 on
    each blind axis, the shape it broadcasts from.  One path serves the
    whole y~ set Y, whichever rows are asked for, so a row's window is the
    same in every stream: a gather from a zero-padded copy of the window
    when every proj - y~ hits the window lattice, else the trigonometric
    interpolation of window_at by grids._trig_grid, whose work buffers
    hold about BLOCK_ELEMS entries (see _trig_blocks).
    """
    seen = _seen(u)
    shape = tuple(n if s else 1 for n, s in zip(grid.counts, seen))
    sub = grid.take(np.flatnonzero(seen))
    u = u[:, seen]
    proj = sub.points() @ u.T
    lattice = _lattice_blocks(w, proj, Y)
    block = lattice or _trig_blocks(w, sub, u, proj, Y)
    real = lattice is not None and not w.values.imag.any()
    return lambda rows: block(rows).reshape((len(rows),) + shape), real


def _frame_rows(w: Window, grid: Grid, u, y_grid: Grid | None = None) -> np.ndarray:
    """The direction rows u as a (k, n) array, checked against the window
    and signal dimensions, and against y_grid's when given."""
    u = np.atleast_2d(u)
    if (w.grid.dim, grid.dim) != u.shape:
        raise ValueError(f"window and signal dimensions {w.grid.dim}, "
                         f"{grid.dim} must equal the frame's k, n = {u.shape}")
    if y_grid is not None and y_grid.dim != len(u):
        raise ValueError(f"y_grid has {y_grid.dim} axes, but the frame has k = {len(u)}")
    return u


def _seen(u: np.ndarray) -> np.ndarray:
    """Mask of the signal axes some direction row touches; u = 0, a window
    constant in t, counts the first axis as seen."""
    seen = np.any(u != 0, axis=0)
    seen[0] |= not seen.any()
    return seen


def _block_bounds(ny: int, nt: int):
    """(lo, hi) of the y~ blocks of every window stream on a grid of nt
    samples: B = max(1, BLOCK_ELEMS // nt) rows each, the last one
    partial."""
    step = max(1, BLOCK_ELEMS // nt)
    return ((lo, min(lo + step, ny)) for lo in range(0, ny, step))


@dataclass(frozen=True)
class WindowLevels:
    """The signal axes of a window stream, grouped into levels (see
    window_levels), and the window of its innermost level.

    Level 0 is the blind axes.  outer holds (axes, table) for each level
    1 .. L-1, outermost first, with table[i] the level's factor at its i-th
    y~ value, shaped like a window block row.  rows holds the ascending
    flat y~ indices the stream takes, and window maps an array of flat y~
    indices to the innermost level's factor at each, the level covering
    the signal axes in axes.  blocks yields (lo, hi, W) over the positions
    lo:hi of rows in the blocks of _block_bounds(len(rows), nt), with W
    the window at rows[lo:hi] and nt the signal grid's size.  real tells
    that every window value the stream multiplies, the outer tables' and
    W's, is real."""

    blind: tuple
    outer: tuple
    axes: tuple
    y_counts: tuple         # y~ counts of the outer levels
    inner: int              # y~ rows per index of the outer levels
    rows: np.ndarray
    window: Callable = field(repr=False)
    nt: int
    real: bool

    @property
    def blocks(self) -> Iterator:
        rows = self.rows
        return ((lo, hi, self.window(rows[lo:hi]))
                for lo, hi in _block_bounds(len(rows), self.nt))

    def split(self, a: int, b: int) -> "WindowLevels":
        """The stream of the positions a:b of rows alone."""
        return replace(self, rows=self.rows[a:b])

    def segments(self, lo: int, hi: int):
        """(a, b, index) for each run a:b of the positions lo:hi of rows
        under one index of the outer levels, a tuple of one y~ index per
        outer level."""
        inner, rows = self.inner, self.rows
        while lo < hi:
            p = int(rows[lo]) // inner
            b = min(hi, int(np.searchsorted(rows, (p + 1) * inner)))
            index = ()
            for n in reversed(self.y_counts):
                p, i = divmod(p, n)
                index = (i,) + index
            yield lo, b, index
            lo = b


def window_levels(w: Window, grid: Grid, u: np.ndarray, y_grid: Grid,
                  rows: np.ndarray | None = None,
                  factored: bool | None = None) -> WindowLevels:
    """The levels of the window stream g(u . t - y~) for y~ at the
    ascending flat indices rows of y_grid (default: every point).

    When w is factored (_factored, unless told, as transform._plan tells a
    pair), g(u . t - y~) = prod_j g_j(u_j . t - y_j) and level j is the
    axes row j touches, with the table of g_j over (y_j, those axes) from
    window_blocks; the innermost window gathers rows of g_k's table at
    rows % inner, so no (B, Nt) block of the full window is formed, and
    an outer index no row touches is never visited.  Any
    other window or frame has one level over every seen axis, whose window
    is _row_window on the points of y_grid.  Either way the blocks are
    those of _block_bounds over rows, so streams of different windows pair
    up.
    """
    u = _frame_rows(w, grid, u)
    factored = _factored(w, u, y_grid) if factored is None else factored
    touched, seen = u != 0, _seen(u)
    blind = _axes(~seen)
    if rows is None:
        rows = np.arange(y_grid.size)
    if not factored:
        window, real = _row_window(w, grid, u, as_points(y_grid.points(), w.grid.dim))
        return WindowLevels(blind, (), _axes(seen), (), y_grid.size, rows,
                            window, grid.size, real)
    tables = [np.concatenate([W for _, _, W in window_blocks(
        p, grid, u[j:j + 1], y_grid.axis(j)[:, None])])
        for j, p in enumerate(w.factors)]
    outer = tuple((_axes(t), table) for t, table in zip(touched[:-1], tables[:-1]))
    table = tables[-1]
    return WindowLevels(blind, outer, _axes(touched[-1]), y_grid.counts[:-1],
                        y_grid.counts[-1], rows, lambda r: table[r % len(table)],
                        grid.size, not any(t.imag.any() for t in tables))


def _factored(w: Window, u: np.ndarray, y_grid: Grid) -> bool:
    """Whether w streams one level per direction row: it carries k > 1
    factors whose product is still exactly w.values (a window whose values
    were reassigned takes one level), y_grid has k axes and the checked
    direction rows u touch pairwise disjoint sets of signal axes."""
    touched = u != 0
    return bool(len(w.factors) > 1 and y_grid.dim == w.grid.dim
                and touched.any(axis=1).all() and touched.sum(axis=0).max() == 1
                and np.array_equal(_outer([p.values for p in w.factors]), w.values))


def _axes(mask: np.ndarray) -> tuple:
    return tuple(int(i) for i in np.flatnonzero(mask))


def _lattice_blocks(w: Window, proj: np.ndarray, Y: np.ndarray):
    """Block gatherer for lattice frames, block(idx) for the y~ points
    Y[idx], or None when some proj - y~ is off the window lattice.

    The lattice test is Grid.lattice_index, window_at's, applied once in
    O(Nt + Ny): to proj - Y[0] on the window grid, giving the index ip of
    each sample, and to Y - Y[0] on the window's spacing from a zero
    origin, giving the index shift iq of each y~; the index of
    proj[t] - Y[b] is then ip[t] - iq[b].  The indices are clipped to the
    range that can reach the window, and the window is zero-padded to the
    range of their differences, so a block is one flat gather at
    fp[t] - fq[y~] with no per-point bounds test.  A compact window's
    padding is zeroed where _keep, window_at's support test, rejects its
    lattice points origin + index * spacing.
    """
    grid = w.grid
    ip = grid.lattice_index(proj - Y[0])
    iq = Grid((0.0,) * grid.dim, grid.spacing, grid.counts).lattice_index(Y - Y[0])
    if ip is None or iq is None:
        return None
    n = np.asarray(grid.counts)
    # clipping keeps every (t, y~) pair that misses the window missing
    iq = np.clip(iq, ip.min(axis=0) - n, ip.max(axis=0) + 1)
    ip = np.clip(ip, iq.min(axis=0) - 1, iq.max(axis=0) + n)
    base = ip.min(axis=0) - iq.max(axis=0)          # smallest index ip - iq
    shape = tuple(ip.max(axis=0) - iq.min(axis=0) - base + 1)
    padded = np.zeros(shape, dtype=complex)
    src = tuple(slice(max(0, b), min(c, b + s)) for b, c, s in zip(base, n, shape))
    dst = tuple(slice(x.start - b, x.stop - b) for x, b in zip(src, base))
    padded[dst] = w.values[src]
    if w.compact:
        coords = [grid.origin[j] + (base[j] + np.arange(shape[j])) * grid.spacing[j]
                  for j in range(grid.dim)]
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        padded[~_keep(w, pts)] = 0.0
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    fp = (ip - base) @ strides
    fq = iq @ strides
    flat = padded.ravel()

    def block(idx):
        return flat[fp[None, :] - fq[idx, None]]

    return block


def _trig_blocks(w: Window, grid: Grid, u: np.ndarray, proj: np.ndarray,
                 Y: np.ndarray):
    """Block evaluator, block(idx) for the y~ points Y[idx], by
    trigonometric interpolation of the window: with window modes X_m and
    coefficients c_m, W[b, t] = sum_m c_m exp(2 pi i X_m . (u t - Y_b)),
    _trig_grid's sum at u t of the coefficients modulated by
    exp(-2 pi i X_m . Y_b), a product of one factor per mode axis, on the
    projected index box of _projected_box (then gathered at each sample's
    box index) or else at the samples.  Points outside the window box (and
    a bump's support) are then zeroed, as in window_at, by testing the
    points proj - y~.
    """
    spec = dft(w.as_signal())
    modes = spec.grid
    c = spec.values * modes.cell_volume
    box = _projected_box(w, grid, u, proj)
    evaluate = (_trig_grid(modes, u, grid) if box is None
                else _trig_grid(modes, np.eye(modes.dim), box[0]))

    def block(idx):
        y = Y[idx]
        # the mask first, so that its temporaries are gone before Z is made
        keep = _keep(w, proj[None, :, :] - y[:, None, :])
        Z = np.repeat(c[None], len(y), axis=0)
        for j, m in enumerate(modes.counts):
            Z *= _phase_table(y[:, j], -1.0, modes, j).reshape(
                (len(y),) + tuple(m if i == j else 1 for i in range(modes.dim)))
        W = evaluate(Z).reshape(len(y), -1)
        if box is not None:
            W = W[:, box[1]]
        W[~keep] = 0.0
        return W

    return block


def _projected_box(w: Window, grid: Grid, u: np.ndarray, proj: np.ndarray):
    """(box, index) of the projected index box of the sample projections
    proj = grid.points() @ u.T, or None when it is not smaller than the
    signal grid.

    Row r of the projection of t = origin + spacing * m moves in steps
    u_ri spacing_i; delta_r is the smallest of them that moves it by more
    than LATTICE_TOL window steps over the grid.  When every projection
    is on the lattice of spacing delta from the smallest one, by
    Grid.lattice_index (window_at's rule), u_r . t takes J_r equally
    spaced values.  box is the Grid of those values (one value padded to
    2, as a Grid needs), and index maps each sample, row-major, to its
    flat position in box; rows with other step ratios take the per-sample
    path.  A float bound on the box size is checked before any index is
    formed.
    """
    step = np.abs(u * np.asarray(grid.spacing))
    reach = step * (np.asarray(grid.counts) - 1)
    moving = reach > LATTICE_TOL * np.asarray(w.grid.spacing)[:, None]
    delta = np.where(moving.any(axis=1), np.where(moving, step, np.inf).min(axis=1),
                     w.grid.spacing)
    if not np.prod(reach.sum(axis=1) / delta) < grid.size:
        return None
    low = proj.min(axis=0)
    idx = Grid(low, delta, (2,) * len(delta)).lattice_index(proj)
    if idx is None:
        return None
    box = Grid(low, delta, np.maximum(idx.max(axis=0) + 1, 2))
    return (box, np.ravel_multi_index(idx.T, box.counts)) if box.size < grid.size else None


def _check_grids(g: Window, phi: Window) -> None:
    """Raise ValueError, naming both grids, unless g and phi share one."""
    if g.grid != phi.grid:
        raise ValueError(f"g and phi must share one window grid: g on {g.grid}, "
                         f"phi on {phi.grid}")


def pairing_check(g: Window, phi: Window) -> PairingCert:
    """Certify (g, phi) != 0 so phi can act as a synthesis window for g."""
    _check_grids(g, phi)
    value = inner_product(g.as_signal(), phi.as_signal())
    ng = math.sqrt(abs(inner_product(g.as_signal(), g.as_signal())))
    np_ = math.sqrt(abs(inner_product(phi.as_signal(), phi.as_signal())))
    threshold = EPS_PAIR * ng * np_
    mag = abs(value)
    return PairingCert(value=value, magnitude=mag, admissible=mag >= threshold)
