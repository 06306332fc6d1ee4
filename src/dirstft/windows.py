"""Window functions on R^k: Gaussians, compactly supported Gevrey bumps,
pairing (synthesis-window) checks and a finite-difference seminorm probe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import (BLOCK_ELEMS, LATTICE_TOL, Grid, Signal, _sample_values,
                    as_points, dft, evaluate_trig, inner_product)


class WindowKind(enum.Enum):
    GAUSSIAN = "gaussian"
    GEVREY_BUMP = "gevrey_bump"
    CUSTOM = "custom"


# Default relative pairing threshold: below quadrature noise the 1/(g, phi)
# reconstruction factor is unusable.
EPS_PAIR = 1e-8


@dataclass
class Window:
    grid: Grid
    values: np.ndarray = field(repr=False)
    kind: WindowKind = WindowKind.CUSTOM
    alpha: float | None = None
    support_radius: float = 0.0

    def __post_init__(self):
        counts = self.grid.counts
        self.values = _sample_values(np.reshape(self.values, counts), counts,
                                     "window")
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
    vals = np.ones(grid.counts)
    for j in range(grid.dim):
        axis = grid.axis(j)
        shape = [1] * grid.dim
        shape[j] = len(axis)
        vals = vals * np.exp(-np.pi * (axis / sigma[j]) ** 2).reshape(shape)
    return Window(grid, vals, WindowKind.GAUSSIAN)


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


def shifted(w: Window, delta) -> Window:
    """Window translated by a lattice-commensurate vector (values resampled
    by trigonometric interpolation when the shift is off-lattice)."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    pts = w.grid.points() - delta
    vals = window_at(w, pts).reshape(w.grid.counts)
    return Window(w.grid, vals, WindowKind.CUSTOM, alpha=w.alpha,
                  support_radius=0.0)


def window_at(w: Window, pts: np.ndarray) -> np.ndarray:
    """Evaluate a window at arbitrary k-dim points.

    Lattice hits are gathered exactly; otherwise trigonometric interpolation
    of the periodized window is used (the same rule as the signal pullback).
    Points outside the window's grid box are 0, as are points at or beyond
    the support radius of a compact window.
    """
    pts = as_points(pts, w.grid.dim)
    idx = w.grid.lattice_index(pts)
    if idx is None:
        out = evaluate_trig(w.as_signal(), pts)
        keep = w.grid.contains(pts)
    else:
        out = w.values.ravel()[np.ravel_multi_index(idx.T, w.grid.counts,
                                                    mode="clip")]
        # a lattice hit is inside iff its index is: near the upper edge the
        # coordinate test can disagree with the rounded index
        keep = np.all((idx >= 0) & (idx < np.asarray(w.grid.counts)), axis=-1)
    if w.compact:
        keep &= np.linalg.norm(pts, axis=-1) < w.support_radius
    return np.where(keep, out, 0.0)


def window_blocks(w: Window, grid: Grid, u: np.ndarray, Y: np.ndarray):
    """Iterator of (lo, hi, W) with W[b] = window_at(w, proj - Y[lo + b]),
    where proj = grid.points() @ u.T are the sample points t projected on
    the k x n direction rows ``u``, and ``Y`` holds the y~ points, shape
    (Ny, k).  The window and grid dimensions are checked against k and n
    at the call, before any block is computed.

    W is shaped (B, Nt) with B = max(1, BLOCK_ELEMS // Nt) rows.  One path
    serves the whole y~ set: a gather from a zero-padded copy of the window
    when every proj - y~ hits the window lattice, else the trigonometric
    interpolation of window_at, factorized over (t, y~).  The trigonometric
    path holds M Nt / N_0 entries per row (M window modes, N_0 samples on
    the first signal axis) and takes fewer rows when that exceeds Nt.
    """
    u = np.atleast_2d(u)
    if (w.grid.dim, grid.dim) != u.shape:
        raise ValueError(f"window and signal dimensions {w.grid.dim}, "
                         f"{grid.dim} must equal the frame's k, n = {u.shape}")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] == 0:
        return iter(())
    proj = grid.points() @ u.T
    row = proj.shape[0]
    block = _lattice_blocks(w, proj, Y)
    if block is None:
        block = _trig_blocks(w, grid, u, proj, Y)
        row = max(row, w.grid.size * row // grid.counts[0])
    step = max(1, BLOCK_ELEMS // row)
    bounds = ((lo, min(lo + step, Y.shape[0])) for lo in range(0, Y.shape[0], step))
    return ((lo, hi, block(lo, hi)) for lo, hi in bounds)


def _lattice_blocks(w: Window, proj: np.ndarray, Y: np.ndarray):
    """Block gatherer for lattice frames, or None when some proj - y~ is off
    the window lattice.

    In window-lattice units proj is P (Nt, k) and y~ is Q (Ny, k); every
    difference P - Q is integral iff P - P[0], Q - Q[0] and P[0] - Q[0] are,
    which is checked once in O(Nt + Ny).  The integer indices are clipped to
    the range that can reach the window, and the window is zero-padded to
    the range of their differences, so a block is one flat gather
    at fp[t] - fq[y~] with no per-point bounds test.
    """
    grid = w.grid
    P = (proj - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    Q = Y / np.asarray(grid.spacing)
    parts = [P - P[0], Q - Q[0], (P[0] - Q[0])[None, :]]
    ints = [np.rint(x) for x in parts]
    if any(np.any(np.abs(x - i) > LATTICE_TOL) for x, i in zip(parts, ints)):
        return None
    n = np.asarray(grid.counts)
    ip = (ints[0] + ints[2]).astype(np.int64)       # index of proj - Y[0]
    iq = ints[1].astype(np.int64)                   # index shift of each y~
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
        mesh = np.meshgrid(*coords, indexing="ij")
        radius = np.sqrt(sum(m ** 2 for m in mesh))
        padded[radius >= w.support_radius] = 0.0
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    fp = (ip - base) @ strides
    fq = iq @ strides
    flat = padded.ravel()

    def block(lo, hi):
        return flat[fp[None, :] - fq[lo:hi, None]]

    return block


def _trig_blocks(w: Window, grid: Grid, u: np.ndarray, proj: np.ndarray,
                 Y: np.ndarray):
    """Block evaluator by trigonometric interpolation of the window.

    With window modes X_m and coefficients c_m,
    W[b, t] = sum_m c_m exp(-2 pi i X_m . Y_b) E[m, t], where
    E[m, t] = exp(2 pi i X_m . u t) = prod_i exp(2 pi i (X_m . u_i) t_i)
    factorizes over the signal axes.  A block multiplies in one per-axis
    table at a time, last axis first, and contracts the modes against the
    first; E itself is never formed.  Points outside the window box (and
    outside a bump's support) are then zeroed, as in window_at.
    """
    spec = dft(w.as_signal())
    X = spec.freq_grid.points()
    c = spec.values.ravel() * spec.freq_grid.cell_volume
    rates = X @ u                                   # (M, n)
    tables = [np.exp(2j * np.pi * np.outer(rates[:, i], grid.axis(i)))
              for i in range(grid.dim)]             # (M, N_i) each

    def block(lo, hi):
        y = Y[lo:hi]
        Z = (np.exp(-2j * np.pi * (y @ X.T)) * c)[:, :, None]    # (B, M, 1)
        for e in tables[:0:-1]:
            Z = (Z[:, :, None, :] * e[None, :, :, None]).reshape(
                len(y), len(c), -1)
        W = np.matmul(tables[0].T, Z).reshape(len(y), -1)
        pts = proj[None, :, :] - y[:, None, :]
        keep = w.grid.contains(pts)
        if w.compact:
            keep &= np.linalg.norm(pts, axis=-1) < w.support_radius
        W[~keep] = 0.0
        return W

    return block


def pairing_check(g: Window, phi: Window, eps_pair: float = EPS_PAIR) -> PairingCert:
    """Certify (g, phi) != 0 so phi can act as a synthesis window for g."""
    if g.grid != phi.grid:
        raise ValueError("pairing_check requires identical window grids")
    value = inner_product(g.as_signal(), phi.as_signal())
    ng = math.sqrt(abs(inner_product(g.as_signal(), g.as_signal())))
    np_ = math.sqrt(abs(inner_product(phi.as_signal(), phi.as_signal())))
    threshold = eps_pair * ng * np_
    mag = abs(value)
    return PairingCert(value=value, magnitude=mag, admissible=mag >= threshold)


def tensor_window(parts: list) -> Window:
    """Assemble the product window g(s) = g_1(s_1) ... g_k(s_k) explicitly."""
    if not parts:
        raise ValueError("tensor_window needs at least one factor")
    for p in parts:
        if p.grid.dim != 1:
            raise ValueError("tensor_window factors must be one-dimensional")
    grid = Grid(
        tuple(p.grid.origin[0] for p in parts),
        tuple(p.grid.spacing[0] for p in parts),
        tuple(p.grid.counts[0] for p in parts),
    )
    vals = parts[0].values
    for p in parts[1:]:
        vals = np.multiply.outer(vals, p.values)
    kind = WindowKind.CUSTOM
    alpha = None
    if all(p.kind is WindowKind.GAUSSIAN for p in parts):
        kind = WindowKind.GAUSSIAN
    return Window(grid, vals, kind, alpha=alpha)


def _diff4(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order central first derivative along one axis (periodic roll;
    windows are assumed negligible at the grid boundary)."""
    f1 = np.roll(vals, -1, axis=axis)
    f2 = np.roll(vals, -2, axis=axis)
    b1 = np.roll(vals, 1, axis=axis)
    b2 = np.roll(vals, 2, axis=axis)
    return (-f2 + 8 * f1 - 8 * b1 + b2) / (12 * h)


def gs_seminorm_probe(w: Window, a: float, alpha: float, beta: float,
                      p_max: int, q_max: int) -> float:
    """Diagnostic truncation of the factorial-weighted seminorm

        sup over t, |p| and |q| of a^(|p|+|q|) / (p!^beta q!^alpha)
            * |t^p d^q w(t)|

    with derivatives by 4th-order central finite differences.  Caps above 4
    are rejected: higher orders are numerically meaningless at double
    precision.  Monotone nondecreasing in both caps.
    """
    if p_max > 4 or q_max > 4:
        raise ValueError("finite-difference stability cap: p_max, q_max <= 4")
    if p_max < 0 or q_max < 0:
        raise ValueError("caps must be nonnegative")
    if a <= 0:
        raise ValueError("a must be positive")
    k = w.grid.dim
    pts = w.grid.points()

    # All multi-indices with every component <= cap.
    def multi_indices(cap):
        ranges = [range(cap + 1)] * k
        out = [()]
        for r in ranges:
            out = [m + (i,) for m in out for i in r]
        return out

    derivs = {(0,) * k: np.asarray(w.values, dtype=complex)}
    for q in sorted(multi_indices(q_max), key=sum):
        if q in derivs:
            continue
        j = next(i for i, qi in enumerate(q) if qi > 0)
        prev = tuple(qi - (1 if i == j else 0) for i, qi in enumerate(q))
        derivs[q] = _diff4(derivs[prev], j, w.grid.spacing[j])

    best = 0.0
    for p in multi_indices(p_max):
        tp = np.prod(pts ** np.asarray(p, dtype=float), axis=-1)
        pfac = np.prod([math.factorial(pi) for pi in p])
        for q, dq in derivs.items():
            qfac = np.prod([math.factorial(qi) for qi in q])
            weight = a ** (sum(p) + sum(q)) / (pfac ** beta * qfac ** alpha)
            cand = weight * float(np.max(np.abs(tp * dq.ravel())))
            best = max(best, cand)
    return best
