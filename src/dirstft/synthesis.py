"""k-directional synthesis operator, reconstruction, the Parseval-type
orthogonality relation and the window-change convolution identity.

DS*_{g,u^k} F(t) = integral integral F(y~, xi) g((u.t) - y~)
                   exp(2 pi i xi . t) dy~ dxi
"""

from __future__ import annotations

import numpy as np

from .direction import DirectionFrame, identity_frame, pullback
from .grids import Grid, Signal, _idft_into, inner_product, primal_phase
from .transform import DstftField, default_y_grid, dstft_blocks, dstft_fast
from .windows import Window, pairing_check, window_blocks

DSO_WORK_CAP = 2 ** 27


def dso(F: DstftField, g: Window, frame: DirectionFrame, out_grid: Grid) -> Signal:
    """Quadrature synthesis: per y~ block, one batched inverse DFT weighted
    by the windows, then the y~ Riemann sum.

    Falls back to direct phase summation, capped at DSO_WORK_CAP, when
    out_grid is not the primal grid of the field's frequency lattice.
    """
    if out_grid.dual() != F.xi_grid:
        return dso_direct(F, g, frame, out_grid)

    slices = F.values.reshape((F.y_size,) + F.xi_grid.counts)
    pairs = ((slices[lo:hi], W) for lo, hi, W
             in window_blocks(g, out_grid, frame.u, F.y_grid.points()))
    return Signal(out_grid, _synthesize(pairs, F.xi_grid, out_grid,
                                        F.y_grid.cell_volume))


def _synthesize(pairs, xi_grid: Grid, out_grid: Grid, y_volume: float) -> np.ndarray:
    """sum over y~ blocks of idft(S) . W for each (S, W) pair, with S shaped
    (B,) + xi_grid.counts and W shaped (B, Nt).  Each inverse leaves out
    idft's primal phase factor, which is applied once after the sum, together
    with the y~ cell volume.

    Every inverse is computed in one work buffer, sized by the largest
    block; S is only read, as dso's blocks are views of its field."""
    acc = np.zeros(out_grid.size, dtype=complex)
    buf = np.empty((0,) + xi_grid.counts, dtype=complex)
    for S, W in pairs:
        if len(S) > len(buf):
            buf = np.empty(S.shape, dtype=complex)
        inv = _idft_into(buf[:len(S)], S, out_grid)
        acc += np.einsum("bt,bt->t", inv.reshape(W.shape), W)
    acc *= primal_phase(out_grid).ravel() * y_volume
    return acc.reshape(out_grid.counts)


def dso_direct(F: DstftField, g: Window, frame: DirectionFrame, out_grid: Grid,
               work_cap: int = DSO_WORK_CAP) -> Signal:
    """Brute-force double-loop synthesis oracle, capped at work_cap terms."""
    blocks = window_blocks(g, out_grid, frame.u, F.y_grid.points())
    work = out_grid.size * F.y_size * F.xi_size
    if work > work_cap:
        raise ValueError(
            f"direct synthesis work {work} exceeds cap {work_cap}; the fast "
            f"path needs out_grid = {F.xi_grid.primal()}, the primal grid of "
            "the field's frequency lattice")
    T = out_grid.points()
    Xi = F.xi_grid.points()
    phases = np.exp(2j * np.pi * (Xi @ T.T))   # (Nxi, Nt)
    slices = F.values.reshape(F.y_size, F.xi_size)
    acc = np.zeros(out_grid.size, dtype=complex)
    for lo, hi, W in blocks:
        acc += np.einsum("bt,bt->t", slices[lo:hi] @ phases, W)
    acc *= F.y_grid.cell_volume * F.xi_grid.cell_volume
    return Signal(out_grid, acc.reshape(out_grid.counts))


def reconstruct(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                y_grid: Grid | None = None) -> Signal:
    """(1/(g, phi)) DS*_{phi} DS_g f; requires an admissible window pairing.

    Analysis and synthesis are fused per y~ block, so memory stays at a few
    blocks plus the signal; the field is never stored.  When phi is g, the
    analysis window blocks are reused for synthesis.
    """
    cert = pairing_check(g, phi)
    if not cert.admissible:
        raise ValueError(f"inadmissible window pairing: {cert}")
    y_grid = default_y_grid(f.grid, frame.k) if y_grid is None else y_grid
    analysis = dstft_blocks(f, g, frame, y_grid)
    if phi is g:
        pairs = ((S, W) for _, _, W, S in analysis)
    else:
        pairs = _zip_blocks(analysis, window_blocks(phi, f.grid, frame.u,
                                                    y_grid.points()))
    rec = _synthesize(pairs, f.grid.dual(), f.grid, y_grid.cell_volume)
    return Signal(f.grid, rec / cert.value)


def _zip_blocks(analysis, synthesis):
    """(S, W_phi) pairs from analysis and synthesis blocks of the same y~
    rows; windows on one grid take the same path and block size."""
    for (lo, hi, _, S), (lo_w, hi_w, W) in zip(analysis, synthesis, strict=True):
        if (lo, hi) != (lo_w, hi_w):
            raise RuntimeError(f"analysis block {lo}:{hi} does not match "
                               f"synthesis block {lo_w}:{hi_w}")
        yield S, W


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
    if frame.is_identity:
        h1, h2 = f1, f2
        jac = 1.0
    else:
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
