"""k-directional synthesis operator, reconstruction, the Parseval-type
orthogonality relation and the window-change convolution identity.

DS*_{g,u^k} F(t) = integral integral F(y~, xi) g((u.t) - y~)
                   exp(2 pi i xi . t) dy~ dxi
"""

from __future__ import annotations

import numpy as np

from .direction import DirectionFrame, identity_frame, pullback
from .grids import (Grid, Signal, _check_oracle_work, _direct_sum, _idft_into,
                    _phase_tables, _trailing, inner_product, primal_phase)
from .transform import DstftField, _unphased, default_y_grid, dstft_fast
from .windows import Window, WindowLevels, pairing_check, window_blocks, window_levels


def dso(F: DstftField, g: Window, frame: DirectionFrame, out_grid: Grid) -> Signal:
    """Quadrature synthesis: per y~ block, one batched inverse DFT along
    the innermost window level, weighted by the windows, then the y~
    Riemann sum (see _synthesize), phasing each block of F into a buffer.

    Falls back to direct phase summation, capped at grids.ORACLE_WORK_CAP
    terms, when out_grid is not the primal grid of the field's frequency
    lattice.
    """
    if out_grid.dual() != F.xi_grid:
        return dso_direct(F, g, frame, out_grid)

    slices = F.values.reshape((F.y_size,) + F.xi_grid.counts)
    levels = window_levels(g, out_grid, frame.u, F.y_grid)
    pre = _phase_tables(out_grid, levels.axes).idft_pre

    def pairs():
        buf = np.empty((0,) + out_grid.counts, dtype=complex)
        for lo, hi, W in levels.blocks:
            if hi - lo > len(buf):
                buf = np.empty((hi - lo,) + out_grid.counts, dtype=complex)
            yield lo, hi, np.multiply(slices[lo:hi], pre, out=buf[:hi - lo]), W

    return Signal(out_grid, _synthesize(pairs(), levels, out_grid,
                                        F.y_grid.cell_volume))


def _synthesize(pairs, levels: WindowLevels, out_grid: Grid,
                y_volume: float) -> np.ndarray:
    """sum over y~ of idft(S) . phi(u . t - y~) for each (lo, hi, R, W) of
    pairs: R the spectra S of the y~ rows lo:hi times the innermost idft
    pre-phase (as transform._unphased yields it), which is overwritten, and
    W the innermost window block of levels for the same rows.

    Each block is inverted along the innermost axes in place, weighted by W
    and summed into the accumulator of its index of the outer levels.  When
    the stream leaves that index, each outer level's accumulator whose
    index ends is inverted along the level's axes, weighted by its factor
    and added to the level above (see _close), which commutes as the window
    does not depend on those axes; level 0 is inverted once, on the sum.
    idft's primal phase is applied last, with the y~ cell volume."""
    acc = [np.zeros(out_grid.counts, dtype=complex)
           for _ in range(len(levels.outer) + 1)]
    axes = _trailing(out_grid, levels.axes)
    held = None
    for lo, hi, R, W in pairs:
        inv = np.fft.ifftn(R, axes=axes, out=R)
        inv *= W
        for a, b, index in levels.segments(lo, hi):
            if index != held:
                _close(acc, levels, out_grid, held, index)
                held = index
            acc[-1] += inv[a - lo:b - lo].sum(axis=0)
    _close(acc, levels, out_grid, held, None)
    rec = acc[0]
    if levels.blind:
        _idft_into(rec, rec, out_grid, levels.blind)
    rec *= primal_phase(out_grid) * y_volume
    return rec


def _close(acc: list, levels: WindowLevels, out_grid: Grid, held, index) -> None:
    """Fold acc[j] into acc[j - 1] for each outer level j whose index
    changes from held to index (every one when index is None), innermost
    first: invert it along level j's axes, weight it by the level's factor
    at its y~ index and clear it."""
    if held is None:
        return
    for j in range(len(held), 0, -1):
        if index is not None and held[:j] == index[:j]:
            break
        axes, table = levels.outer[j - 1]
        inv = _idft_into(acc[j], acc[j], out_grid, axes)
        inv *= table[held[j - 1]]
        acc[j - 1] += inv
        acc[j].fill(0)


def dso_direct(F: DstftField, g: Window, frame: DirectionFrame,
               out_grid: Grid) -> Signal:
    """Brute-force synthesis oracle, a direct sum (grids._direct_sum) per y~
    block, capped at grids.ORACLE_WORK_CAP terms (Nout Ny Nxi); the cap is
    checked before anything the size of out_grid is allocated."""
    _check_oracle_work(
        out_grid.size * F.y_size * F.xi_size, "direct synthesis",
        f"; the fast path needs out_grid = {F.xi_grid.primal()}, the primal "
        "grid of the field's frequency lattice")
    T = out_grid.points()
    slices = F.values.reshape((F.y_size,) + F.xi_grid.counts)
    acc = np.zeros(out_grid.counts, dtype=complex)
    for lo, hi, W in window_blocks(g, out_grid, frame.u, F.y_grid.points()):
        inv = _direct_sum(slices[lo:hi], F.xi_grid, T, 1)
        acc += (inv.reshape((hi - lo,) + out_grid.counts) * W).sum(axis=0)
    acc *= F.y_grid.cell_volume * F.xi_grid.cell_volume
    return Signal(out_grid, acc)


def reconstruct(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                y_grid: Grid | None = None) -> Signal:
    """(1/(g, phi)) DS*_{phi} DS_g f; requires an admissible window pairing.

    Analysis and synthesis are fused per y~ block, and each block is
    inverted in the analysis buffer, so memory stays at a block plus the
    signal.  The analysis post-phase and synthesis pre-phase cancel when
    both windows stream the same innermost axes; a factored window paired
    with an unfactored one takes their product per block.  When phi is g,
    the analysis window levels and blocks are reused for synthesis.
    """
    cert = pairing_check(g, phi)
    if not cert.admissible:
        raise ValueError(f"inadmissible window pairing: {cert}")
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    levels = window_levels(g, f.grid, frame.u, y_grid)
    analysis = _unphased(f, levels)
    if phi is g:
        synth, pairs = levels, ((lo, hi, R, W) for lo, hi, W, R in analysis)
    else:
        # every window stream on one grid takes the same y~ blocks
        synth = window_levels(phi, f.grid, frame.u, y_grid)
        pairs = ((lo, hi, R, W) for (lo, hi, _, R), (_, _, W)
                 in zip(analysis, synth.blocks, strict=True))
    if synth.axes != levels.axes:
        table = (_phase_tables(f.grid, levels.axes).dft_post
                 * _phase_tables(f.grid, synth.axes).idft_pre)
        pairs = ((lo, hi, np.multiply(R, table, out=R), W) for lo, hi, R, W in pairs)
    rec = _synthesize(pairs, synth, f.grid, y_grid.cell_volume)
    return Signal(f.grid, rec / cert.value)


def orthogonality_check(f1: Signal, f2: Signal, g: Window, phi: Window,
                        frame: DirectionFrame, y_grid: Grid | None = None):
    """Both sides of (DS_g f1, DS_phi f2) = |det B| (h1, h2) (conj g, conj phi).

    The field inner product on the left integrates over (y~, xi); the
    substitution xi = B^T eta that reduces to the axis-aligned case carries
    the Jacobian |det B| = 1/|det C|, so the pullback side must be weighted
    by it (it is 1 for the identity frame).
    """
    if f1.grid != f2.grid:
        raise ValueError("signals must share a grid")
    F1 = dstft_fast(f1, g, frame, y_grid=y_grid)
    F2 = dstft_fast(f2, phi, frame, y_grid=y_grid)
    lhs = F1.inner_product(F2)
    h1 = pullback(f1, frame, f1.grid)
    h2 = pullback(f2, frame, f2.grid)
    jac = 1.0 / abs(frame.det_C)
    gbar = Signal(g.grid, np.conj(g.values))
    pbar = Signal(phi.grid, np.conj(phi.values))
    rhs = jac * inner_product(h1, h2) * inner_product(gbar, pbar)
    return lhs, rhs


def window_change(F_g: DstftField, gamma: Window, phi: Window,
                  frame: DirectionFrame, g: Window) -> DstftField:
    """DS_phi f from DS_g f by convolution with the field DS_{phi,e^k} gamma.

    gamma must be an admissible synthesis window for g; it is normalized
    internally so (g, gamma) = 1.  The convolution is zero-padded linear in
    y~ and circular in the first k frequency axes (the DFT lattice is
    periodic); the trailing n-k frequency axes carry a delta and pass through
    unchanged.

    The kernel carries the modulation factor exp(-2 pi i y~ . (eta - xi)):
    shifting the analysis point y~ conjugates the window by a translation,
    which in frequency is exactly this phase.  Dropping it leaves only an
    envelope inequality, not a pointwise identity.
    """
    cert = pairing_check(g, gamma)
    if not cert.admissible:
        raise ValueError(f"inadmissible (g, gamma) pairing: {cert}")
    k = frame.k
    if gamma.grid.dim != k or phi.grid.dim != k:
        raise ValueError("gamma and phi must live on R^k")

    kernel = dstft_fast(gamma.as_signal(), phi, identity_frame(k, k))
    for j in range(k):
        if not np.isclose(kernel.xi_grid.spacing[j], F_g.xi_grid.spacing[j]):
            raise ValueError("gamma grid is not commensurate with the field's "
                             "frequency lattice")
        if not np.isclose(kernel.y_grid.spacing[j], F_g.y_grid.spacing[j]):
            raise ValueError("gamma grid is not commensurate with the field's "
                             "y~ lattice")

    ky = kernel.y_grid.counts
    kxi = kernel.xi_grid.counts
    ny = F_g.y_grid.counts
    nxi = F_g.xi_grid.counts
    n = len(nxi)
    for j in range(k):
        if kxi[j] != nxi[j]:
            raise ValueError("gamma grid must produce the same first-k "
                             "frequency lattice as the field")

    K = kernel.values / cert.value

    # Kernel y origin in lattice units; out[i] = sum_j A[j] K[i - j - o0].
    o0 = []
    for j in range(k):
        oj = kernel.y_grid.origin[j] / kernel.y_grid.spacing[j]
        if abs(oj - round(oj)) > 1e-9:
            raise ValueError("kernel y~ origin must sit on the y~ lattice")
        o0.append(int(round(oj)))
        if -o0[j] < 0 or -o0[j] + ny[j] - 1 > ny[j] + ky[j] - 2:
            raise ValueError("kernel y~ grid too short to cover the output range")

    # The frequency-wrap ambiguity of the circular xi axes must not leak into
    # the modulation factor, which requires the y~ lattice to be commensurate
    # with the period of the first-k frequency axes.
    Y = F_g.y_grid.points()
    for j in range(k):
        period = nxi[j] * F_g.xi_grid.spacing[j]
        for v in (F_g.y_grid.origin[j], F_g.y_grid.spacing[j]):
            if abs(v * period - round(v * period)) > 1e-9:
                raise ValueError("y~ lattice is not commensurate with the "
                                 "frequency period; the wrapped modulation "
                                 "factor would be ambiguous")

    y_axes = tuple(range(k))
    xi_axes = tuple(k + j for j in range(k))
    pad = tuple(ny[j] + ky[j] - 1 for j in range(k))
    sl = tuple(slice(-o0[j], -o0[j] + ny[j]) for j in range(k)) \
        + tuple(slice(None) for _ in range(n))
    dxi = np.asarray(F_g.xi_grid.spacing[:k])

    out = np.zeros(ny + nxi, dtype=complex)
    # One linear y~ convolution per circular frequency offset d; the centered
    # representative of d picks the kernel sample and the modulation phase.
    for d_idx in np.ndindex(*kxi):
        d_signed = np.array([d_idx[j] - kxi[j] // 2 for j in range(k)])
        Kd = K[(slice(None),) * k + tuple(d_idx)]
        if not np.any(Kd):
            continue
        phase = np.exp(-2j * np.pi * (Y @ (d_signed * dxi)))
        A = F_g.values * phase.reshape(ny + (1,) * n)
        Af = np.fft.fftn(A, s=pad, axes=y_axes)
        Kf = np.fft.fftn(Kd, s=pad, axes=y_axes).reshape(pad + (1,) * n)
        conv = np.fft.ifftn(Af * Kf, axes=y_axes)[sl]
        out += np.roll(conv, tuple(d_signed), axis=xi_axes)

    weight = F_g.y_grid.cell_volume * float(np.prod(dxi))
    out = out * weight
    return DstftField(F_g.y_grid, F_g.xi_grid, out, frame=frame,
                      window_meta=phi.meta)
