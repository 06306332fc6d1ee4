"""The paper's identities as measured errors.

Each *_error function computes both sides of one identity on the caller's
fixture and returns how far apart they are, so `dstft selftest`, the
acceptance suite and the property tests check one computation against
their own tolerances.  multiplier is the reference reconstruction
multiplier those checks hold reconstruct's against.
"""

from __future__ import annotations

import warnings

import numpy as np

from .direction import DirectionFrame, frequency_map, identity_frame, pullback
from .grids import (CoverageWarning, Grid, Signal, dft, dft_oracle, idft,
                    inner_product, rel_l2_error, relative_error)
from .synthesis import (_frame_operator, covering_y_grid, dso, dso_direct,
                        reconstruct, window_change)
from .transform import default_y_grid, dstft_direct, dstft_direct_at, dstft_fast
from .wavefront import WavefrontReport, decay_fit, wavefront_scan
from .windows import Window, pairing_check, window_at, window_blocks


def dft_oracle_error(f: Signal) -> float:
    """FFT transform vs the direct-sum oracle."""
    return relative_error(dft(f).values, dft_oracle(f).values)


def dft_roundtrip_error(f: Signal) -> float:
    """idft(dft(f)) vs f."""
    return relative_error(idft(dft(f), f.grid).values, f.values)


def parseval_error(f1: Signal, f2: Signal) -> float:
    """(f1, f2) vs (dft f1, dft f2)."""
    return relative_error(inner_product(f1, f2),
                          inner_product(dft(f1), dft(f2)))


def adjoint_error(f1: Signal, f2: Signal, g: Window,
                  frame: DirectionFrame) -> float:
    """(DS_g f1, G) vs (f1, DS*_g G) with G = DS_g f2."""
    G = dstft_fast(f2, g, frame)
    return relative_error(dstft_fast(f1, g, frame).inner_product(G),
                          inner_product(f1, dso(G, g, frame, f1.grid)))


def oracle_error(f: Signal, g: Window, frame: DirectionFrame) -> float:
    """The larger of dstft_fast vs dstft_direct and of dso vs dso_direct."""
    fast = dstft_fast(f, g, frame)
    analysis = relative_error(fast.values, dstft_direct(f, g, frame).values)
    synthesis = relative_error(dso(fast, g, frame, f.grid).values,
                               dso_direct(fast, g, frame, f.grid).values)
    return max(analysis, synthesis)


def orthogonality_error(f1: Signal, f2: Signal, g: Window, phi: Window,
                        frame: DirectionFrame, y_grid=None) -> float:
    """(DS_g f1, DS_phi f2) vs |det B| (h1, h2) (conj g, conj phi), with
    h1, h2 the pullbacks of f1, f2 onto their shared grid.

    The field inner product on the left integrates over (y~, xi); the
    substitution xi = B^T eta that reduces to the axis-aligned case carries
    the Jacobian |det B| = 1/|det C|, so the pullback side must be weighted
    by it (it is 1 for the identity frame).
    """
    if f1.grid != f2.grid:
        raise ValueError("signals must share a grid")
    lhs = dstft_fast(f1, g, frame, y_grid=y_grid).inner_product(
        dstft_fast(f2, phi, frame, y_grid=y_grid))
    h1 = pullback(f1, frame, f1.grid)
    h2 = pullback(f2, frame, f2.grid)
    jac = 1.0 / abs(frame.det_C)
    gbar = Signal(g.grid, np.conj(g.values))
    pbar = Signal(phi.grid, np.conj(phi.values))
    return relative_error(lhs, jac * inner_product(h1, h2) * inner_product(gbar, pbar))


def reconstruction_error(f: Signal, g: Window, phi: Window,
                         frame: DirectionFrame) -> float:
    """Relative L2 error of synthesis.reconstruct."""
    return rel_l2_error(reconstruct(f, g, phi, frame).values, f.values)


def multiplier(g: Window, phi: Window, frame: DirectionFrame, grid: Grid,
               y_grid: Grid) -> np.ndarray:
    """The reconstruction multiplier

        M(t) = sum_y conj(g)(u . t - y) phi(u . t - y) dy / (g, phi)

    at the samples t of grid, over y_grid, shaped grid.counts: on the
    DFT-dual xi lattice DS*_phi DS_g f = (g, phi) f M for every f on grid.
    The reference for the M that reconstruct divides by, summed here from
    the full window blocks of window_blocks alone, with no FFT and none of
    reconstruct's per-level sums."""
    Y = y_grid.points()
    M = sum((np.conj(Wg) * Wp).sum(axis=0) for (_, _, Wg), (_, _, Wp) in zip(
        window_blocks(g, grid, frame.u, Y), window_blocks(phi, grid, frame.u, Y),
        strict=True))
    return np.broadcast_to(M * (y_grid.cell_volume / pairing_check(g, phi).value),
                           grid.counts)


def multiplier_error(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                     y_grid=None) -> float:
    """How far reconstruct's stream is from the multiplier identity
    DS*_phi DS_g f = (g, phi) f M on the DFT-dual xi lattice, with M the
    reference multiplier over the y~ grid (synthesis.covering_y_grid by
    default), for any signal, frame and y~ grid: the larger of the
    relative L2 distances of the undivided reconstruction
    DS*_phi DS_g f / (g, phi) from f M, and of the M that reconstruct
    divides by from this M."""
    y_grid = covering_y_grid(f.grid, g, phi, frame)[0] if y_grid is None else y_grid
    M = multiplier(g, phi, frame, f.grid, y_grid)
    rec, lib = _frame_operator(f, g, phi, frame, y_grid, pairing_check(g, phi).value)
    return max(rel_l2_error(rec, f.values * M),
               rel_l2_error(np.broadcast_to(lib, f.grid.counts), M))


def orthogonality_multiplier_error(f1: Signal, f2: Signal, g: Window, phi: Window,
                                   frame: DirectionFrame, y_grid=None) -> float:
    """(DS_g f1, DS_phi f2) vs (g, phi) (f1 M, f2), the orthogonality
    relation in multiplier form: the field inner product conjugates its
    second argument, so (DS_g f1, DS_phi f2) = (DS*_phi DS_g f1, f2), and
    DS*_phi DS_g f1 = (g, phi) f1 M, with M the reference multiplier over
    the fields' y~ grid (dstft_fast's default by default)."""
    y_grid = default_y_grid(f1.grid, frame) if y_grid is None else y_grid
    lhs = dstft_fast(f1, g, frame, y_grid=y_grid).inner_product(
        dstft_fast(f2, phi, frame, y_grid=y_grid))
    M = multiplier(g, phi, frame, f1.grid, y_grid)
    rhs = pairing_check(g, phi).value * inner_product(
        Signal(f1.grid, f1.values * M), f2)
    return relative_error(lhs, rhs)


def frame_change_error(f: Signal, g: Window, frame: DirectionFrame,
                       y_pts, xi_pts) -> float:
    """DS_g f in the u-frame at (y~, xi) vs DS_g h in the e^k frame at
    (y~, C^T xi), with h the pullback of f onto its own grid."""
    lhs = dstft_direct_at(f, g, frame, y_pts, xi_pts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        h = pullback(f, frame, f.grid)
    rhs = dstft_direct_at(h, g, identity_frame(frame.n, frame.k), y_pts,
                          frequency_map(xi_pts, frame))
    return relative_error(lhs, rhs)


def window_engine_error(w: Window, grid: Grid, frame: DirectionFrame) -> float:
    """The window engine's blocks (window_blocks, whose off-lattice values
    both dstft_fast and the oracle dstft_direct_at read) vs window_at, the
    dense evaluate_trig off the window lattice, at the samples of grid and
    the y~ points of dstft_fast's default grid."""
    Y = default_y_grid(grid, frame).points()
    proj = grid.points() @ frame.u.T
    got = np.concatenate([np.broadcast_to(W, (hi - lo,) + grid.counts).reshape(hi - lo, -1)
                          for lo, hi, W in window_blocks(w, grid, frame.u, Y)])
    return relative_error(got, np.stack([window_at(w, proj - y) for y in Y]))


def window_change_error(f: Signal, g: Window, phi: Window,
                        frame: DirectionFrame) -> float:
    """DS_phi f from DS_g f by window_change with gamma = g / (g, g), vs
    DS_phi f computed directly."""
    gamma = Window(g.grid, g.values / inner_product(g.as_signal(), g.as_signal()))
    got = window_change(dstft_fast(f, g, frame), gamma, phi, g)
    return relative_error(got.values, dstft_fast(f, phi, frame).values)


def scan_oracle_error(f: Signal, g: Window, frame: DirectionFrame, alpha: float,
                      cells: list, cones: list) -> int:
    """The number of wavefront_scan entries whose DecayFit differs from
    decay_fit on the stored dstft_fast field.  The scan transforms only
    the y~ rows inside its cells and measures each cell's noise floor
    against the cell's own peak, as decay_fit does, so the count is 0."""
    report = wavefront_scan(f, g, frame, alpha, cells, cones)
    F = dstft_fast(f, g, frame)
    return sum(e.fit != decay_fit(F, e.y_cell, e.cone, alpha)
               for e in report.entries)


def singular_keys(report: WavefrontReport) -> set:
    """(first cell coordinate, cone center rounded to 6 places) of each
    singular entry."""
    return {(e.y_cell.center[0], tuple(np.round(e.cone.center, 6)))
            for e in report.singular}
