"""Direction frames u^k = (u_1, ..., u_k) of unit vectors, the associated
linear coordinate change (B maps t to s = (u_1.t, ..., u_k.t, t_{k+1}, ...),
C = B^-1) and the signal pullback h(s) = |det C| f(Cs)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import CoverageWarning, Grid, Signal, evaluate_trig_grid

SINGULARITY_THRESHOLD = 1e-10
COVERAGE_WARN_FRACTION = 0.01


@dataclass(frozen=True)
class DirectionFrame:
    n: int
    k: int
    u: np.ndarray = field(repr=False)   # (k, n), unit rows
    B: np.ndarray = field(repr=False)   # (n, n)
    C: np.ndarray = field(repr=False)   # (n, n) = B^-1
    det_C: float = 0.0


def build_frame(u_rows) -> DirectionFrame:
    """Normalize the direction rows (_unit_rows) and complete them to
    B = [u; e_j ...], j ascending over n - k coordinate axes.

    The trailing axes e_{k+1} ... e_n are taken whenever they complete u.
    They do not when u is blind to a leading axis (u = e_2 in R^2, say), and
    then the axes are those off the columns u pivots on in Gaussian
    elimination with the largest pivot per row, which complete any
    independent rows.  Rows that are dependent, |det B| below
    SINGULARITY_THRESHOLD, are rejected.
    """
    u = np.atleast_2d(np.asarray(u_rows, dtype=float))
    k, n = u.shape
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"direction row {bad} is not finite: {u[bad].tolist()}")
    big = np.abs(u).max(axis=1)
    if np.any(big == 0):
        bad = int(np.argmin(big))
        raise ValueError(f"direction row {bad} is zero and cannot be normalized")
    u = _unit_rows(u)
    B = np.eye(n)
    B[:k, :] = u
    det_B = np.linalg.det(B)
    if abs(det_B) < SINGULARITY_THRESHOLD:
        B = np.vstack([u, np.eye(n)[_completion(u)]])
        det_B = np.linalg.det(B)
    if abs(det_B) < SINGULARITY_THRESHOLD:
        raise ValueError(
            "dependent directions: the rows of u are linearly dependent "
            "(|det B| below threshold for B = [u; e_j ...])")
    C = np.linalg.inv(B)
    return DirectionFrame(n=n, k=k, u=u, B=B, C=C, det_C=1.0 / det_B)


def _unit_rows(u: np.ndarray) -> np.ndarray:
    """The finite nonzero rows of u at unit length: a row within 1e-12 of
    it is kept as given, so that rows normalized once keep their bits (a
    frame rebuilt from a field file's rows, say).  Each row is scaled by
    the power of two at or below its largest |entry| before its norm is
    taken, so that the norm neither overflows nor underflows; the scaling
    is exact, so a row whose norm does neither normalizes to the same bits
    as unscaled."""
    scale = np.ldexp(1.0, np.frexp(np.abs(u).max(axis=1))[1] - 1)[:, None]
    norm = np.linalg.norm(u / scale, axis=1)[:, None]
    # scale capped at 2, past which no row is near unit length: no overflow
    unit = np.abs(norm * np.minimum(scale, 2.0) - 1.0) <= 1e-12
    return np.where(unit, u, u / scale / norm)


def _completion(u: np.ndarray) -> list:
    """The n - k coordinate axes off the pivot columns of Gaussian
    elimination on the rows of u, each row pivoting on its largest entry;
    dependent rows leave B singular."""
    k, n = u.shape
    rows, pivots = u.copy(), []
    for r in range(k):
        j = int(np.argmax(np.abs(rows[r])))
        if rows[r, j] == 0:
            break
        pivots.append(j)
        rows[r + 1:] -= np.outer(rows[r + 1:, j] / rows[r, j], rows[r])
    return [i for i in range(n) if i not in pivots][:n - k]


def identity_frame(n: int, k: int) -> DirectionFrame:
    return build_frame(np.eye(n)[:k])


def frequency_map(xi, frame: DirectionFrame) -> np.ndarray:
    """eta = C^T xi, so that t . xi = s . eta whenever t = C s."""
    xi = np.asarray(xi, dtype=float)
    return xi @ frame.C


def pullback(f: Signal, frame: DirectionFrame, out_grid: Grid) -> Signal:
    """Sample h(s) = |det C| f(Cs) on out_grid.

    f is evaluated at Cs by its trigonometric interpolant (exact for
    band-limited periodized signals), contracted along the lattice of
    out_grid by :func:`grids.evaluate_trig_grid`.  Points mapping outside
    f's grid box (:meth:`grids.Grid.contains`) evaluate to 0; a coverage
    warning fires when more than 1% of the mass-weighted samples are
    exterior.
    """
    if f.grid.dim != frame.n:
        raise ValueError(f"signal dimension {f.grid.dim} must equal the frame "
                         f"dimension n = {frame.n}")
    if out_grid.dim != frame.n:
        raise ValueError("out_grid dimension must equal the frame dimension n")
    inside = f.grid.contains(out_grid.points() @ frame.C.T)
    raw = evaluate_trig_grid(f, frame.C, out_grid).ravel()
    total = float(np.sum(np.abs(raw)))
    exterior = float(np.sum(np.abs(raw[~inside])))
    if total > 0 and exterior / total > COVERAGE_WARN_FRACTION:
        warnings.warn(
            f"pullback maps {exterior / total:.2%} of mass outside the source grid",
            CoverageWarning,
            stacklevel=2,
        )
    vals = np.where(inside, raw, 0.0) * abs(frame.det_C)
    return Signal(out_grid, vals.reshape(out_grid.counts))
