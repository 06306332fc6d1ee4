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

    @property
    def is_identity(self) -> bool:
        return np.allclose(self.B, np.eye(self.n), atol=1e-14)


def build_frame(u_rows) -> DirectionFrame:
    """Normalize the direction rows and assemble B = [u; e_{k+1} ... e_n].

    Note the construction is degenerate (singular B) when a direction lies in
    the span of the trailing coordinate axes even if the rows themselves are
    independent; that case is rejected with a message naming the constraint.
    """
    u = np.atleast_2d(np.asarray(u_rows, dtype=float))
    k, n = u.shape
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    norms = np.linalg.norm(u, axis=1)
    if np.any(norms == 0):
        bad = int(np.argmin(norms))
        raise ValueError(f"direction row {bad} is zero and cannot be normalized")
    u = u / norms[:, None]
    B = np.eye(n)
    B[:k, :] = u
    det_B = np.linalg.det(B)
    if abs(det_B) < SINGULARITY_THRESHOLD:
        raise ValueError(
            "dependent directions: |det B| below threshold -- the frame matrix "
            "[u; e_{k+1}..e_n] is singular (this also happens when some u_i "
            "lies in span(e_{k+1}, ..., e_n))"
        )
    C = np.linalg.inv(B)
    return DirectionFrame(n=n, k=k, u=u, B=B, C=C, det_C=1.0 / det_B)


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
    f's grid evaluate to 0; a coverage warning fires when more than 1% of
    the mass-weighted samples are exterior.
    """
    if f.grid.dim != frame.n:
        raise ValueError(f"signal dimension {f.grid.dim} must equal the frame "
                         f"dimension n = {frame.n}")
    if out_grid.dim != frame.n:
        raise ValueError("out_grid dimension must equal the frame dimension n")
    if frame.is_identity and out_grid == f.grid:
        return Signal(f.grid, f.values.copy())
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
