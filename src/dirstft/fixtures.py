"""Deterministic test-signal generators with analytic ground truth where one
exists (singular hyperplane position and directions for sheet fixtures)."""

from __future__ import annotations

import numpy as np

from .grids import Grid, Signal, idft


def gaussian(grid: Grid, sigma=1.0, center=None, modulation=None) -> Signal:
    """f(t) = prod_j exp(-pi (t_j - c_j)^2 / sigma_j^2), optionally modulated
    by exp(2 pi i t . xi0)."""
    d = grid.dim
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (d,))
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    pts = grid.points()
    vals = np.exp(-np.pi * np.sum(((pts - center) / sigma) ** 2, axis=-1))
    vals = vals.astype(complex)
    if modulation is not None:
        xi0 = np.asarray(modulation, dtype=float)
        vals *= np.exp(2j * np.pi * (pts @ xi0))
    return Signal(grid, vals.reshape(grid.counts))


def heaviside_sheet(grid: Grid, u, c: float = 0.0) -> Signal:
    """H(u . t - c): 0 below the hyperplane, 1 on and above it."""
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0:
        raise ValueError("sheet normal must be nonzero")
    u = u / norm
    pts = grid.points()
    vals = (pts @ u >= c).astype(complex)
    return Signal(grid, vals.reshape(grid.counts))


def delta_sheet(grid: Grid, u, c: float = 0.0) -> Signal:
    """Discrete approximation of delta(u . t - c): indicator of the cells
    nearest the hyperplane scaled by 1/h with h the first-axis spacing."""
    u = np.asarray(u, dtype=float)
    u = u / np.linalg.norm(u)
    h = grid.spacing[0]
    pts = grid.points()
    vals = (np.abs(pts @ u - c) < h / 2).astype(complex) / h
    return Signal(grid, vals.reshape(grid.counts))


def plane_wave(grid: Grid, xi0) -> Signal:
    """exp(2 pi i t . xi0); smooth but non-decaying."""
    xi0 = np.asarray(xi0, dtype=float)
    pts = grid.points()
    return Signal(grid, np.exp(2j * np.pi * (pts @ xi0)).reshape(grid.counts))


def random_bandlimited(grid: Grid, seed: int, band: float = 0.5) -> Signal:
    """Seeded random signal whose spectrum is supported on the central
    `band` fraction of the dual lattice."""
    if not 0 < band <= 1:
        raise ValueError("band must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    dual = grid.dual()
    coeffs = rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts)
    pts = dual.points().reshape(dual.counts + (grid.dim,))
    lim = np.array([band * abs(dual.origin[j]) for j in range(grid.dim)])
    mask = np.all(np.abs(pts) <= lim, axis=-1)
    coeffs = coeffs * mask
    return idft(Signal(dual, coeffs), grid)


def signal_sum(parts: list) -> Signal:
    if not parts:
        raise ValueError("sum of no signals")
    grid = parts[0].grid
    vals = np.zeros(grid.counts, dtype=complex)
    for p in parts:
        if p.grid != grid:
            raise ValueError("sum requires identical grids")
        vals = vals + p.values
    return Signal(grid, vals)


def ground_truth(kind: str, params: dict) -> dict | None:
    """Analytic singular-support metadata for fixtures that have one."""
    if kind in ("heaviside_sheet", "delta_sheet"):
        u = np.asarray(params["u"], dtype=float)
        u = u / np.linalg.norm(u)
        return {"singular": {"u": [float(x) for x in u],
                             "offset": float(params.get("c", 0.0))}}
    if kind in ("gaussian", "plane_wave", "random_bandlimited"):
        return {"singular": None}
    return None
