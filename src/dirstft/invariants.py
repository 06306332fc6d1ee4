"""The paper's identities as measured errors.

Each function computes both sides of one identity on the caller's fixture
and returns how far apart they are, so `dstft selftest`, the acceptance
suite and the property tests check one computation against their own
tolerances.
"""

from __future__ import annotations

import warnings

import numpy as np

from .direction import DirectionFrame, frequency_map, identity_frame, pullback
from .grids import (CoverageWarning, Signal, dft, dft_oracle, idft, inner_product,
                    inner_product_spectrum, rel_l2_error, relative_error)
from .synthesis import dso, dso_direct, orthogonality_check, reconstruct, window_change
from .transform import default_y_grid, dstft_direct, dstft_direct_at, dstft_fast
from .wavefront import WavefrontReport, decay_fit, wavefront_scan
from .windows import Window, pairing_check, window_blocks


def dft_oracle_error(f: Signal) -> float:
    """FFT transform vs the direct-sum oracle."""
    return relative_error(dft(f).values, dft_oracle(f).values)


def dft_roundtrip_error(f: Signal) -> float:
    """idft(dft(f)) vs f."""
    return relative_error(idft(dft(f), f.grid).values, f.values)


def parseval_error(f1: Signal, f2: Signal) -> float:
    """(f1, f2) vs (dft f1, dft f2)."""
    return relative_error(inner_product(f1, f2),
                          inner_product_spectrum(dft(f1), dft(f2)))


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
    """The two sides of synthesis.orthogonality_check."""
    return relative_error(*orthogonality_check(f1, f2, g, phi, frame, y_grid=y_grid))


def reconstruction_error(f: Signal, g: Window, phi: Window,
                         frame: DirectionFrame) -> float:
    """Relative L2 error of synthesis.reconstruct."""
    return rel_l2_error(reconstruct(f, g, phi, frame).values, f.values)


def multiplier_error(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                     y_grid=None) -> float:
    """Relative L2 distance of synthesis.reconstruct from f M, with the
    reconstruction multiplier

        M(t) = sum_y conj(g)(u . t - y) phi(u . t - y) dy / (g, phi)

    over the y~ grid.  On the DFT-dual xi lattice idft . dft cancels inside
    every y~ block, so reconstruct is f M up to roundoff for any signal,
    frame and y~ grid; M needs no FFT."""
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    Y = y_grid.points()
    M = sum((np.conj(Wg) * Wp).sum(axis=0) for (_, _, Wg), (_, _, Wp) in zip(
        window_blocks(g, f.grid, frame.u, Y), window_blocks(phi, f.grid, frame.u, Y),
        strict=True))
    M = M * (y_grid.cell_volume / pairing_check(g, phi).value)
    return rel_l2_error(reconstruct(f, g, phi, frame, y_grid).values, f.values * M)


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


def window_change_error(f: Signal, g: Window, phi: Window,
                        frame: DirectionFrame) -> float:
    """DS_phi f from DS_g f by window_change with gamma = g / (g, g), vs
    DS_phi f computed directly."""
    gamma = Window(g.grid, g.values / inner_product(g.as_signal(), g.as_signal()))
    got = window_change(dstft_fast(f, g, frame), gamma, phi, frame, g)
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
