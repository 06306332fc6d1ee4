"""k-directional synthesis operator, reconstruction, the Parseval-type
orthogonality relation and the window change DS_phi DS*_gamma / (g, gamma).

DS*_{g,u^k} F(t) = integral integral F(y~, xi) g((u.t) - y~)
                   exp(2 pi i xi . t) dy~ dxi
"""

from __future__ import annotations

import numpy as np

from .direction import DirectionFrame, pullback
from .grids import (Grid, Signal, _check_oracle_work, _direct_sum, _idft_into,
                    _phase_tables, _trailing, inner_product, primal_phase)
from .transform import (DstftField, _in_shards, _level0, _unphased, default_y_grid,
                        dstft_fast)
from .windows import Window, WindowLevels, pairing_check, window_blocks, window_levels


def dso(F: DstftField, g: Window, frame: DirectionFrame, out_grid: Grid) -> Signal:
    """Quadrature synthesis: per y~ block, one batched inverse DFT along
    the innermost window level, weighted by the windows, then the y~
    Riemann sum (see _synthesize), phasing each block of F into a buffer;
    the stream runs in shards (transform._in_shards).

    Falls back to direct phase summation, capped at grids.ORACLE_WORK_CAP
    terms, when out_grid is not the primal grid of the field's frequency
    lattice.
    """
    if out_grid.dual() != F.xi_grid:
        return dso_direct(F, g, frame, out_grid)

    slices = F.values.reshape((F.y_size,) + F.xi_grid.counts)
    levels = window_levels(g, out_grid, frame.u, F.y_grid)
    pre = _phase_tables(out_grid, levels.axes).idft_pre

    def shard(a, b, part):
        def pairs():
            buf = np.empty((0,) + out_grid.counts, dtype=complex)
            for lo, hi, W in part.blocks:
                if hi - lo > len(buf):
                    buf = np.empty((hi - lo,) + out_grid.counts, dtype=complex)
                yield lo, hi, np.multiply(slices[a + lo:a + hi], pre,
                                          out=buf[:hi - lo]), W

        return _synthesize(pairs(), part, out_grid)

    return Signal(out_grid, _finish(_in_shards(shard, levels), levels, out_grid,
                                    F.y_grid.cell_volume))


def _synthesize(pairs, levels: WindowLevels, out_grid: Grid) -> np.ndarray:
    """sum over y~ of idft(S) . phi(u . t - y~) for each (lo, hi, R, W) of
    pairs, before the inversion along level 0 and the primal phase that
    _finish applies: R the spectra S of the y~ rows lo:hi times the
    innermost idft pre-phase (as transform._unphased yields it), which is
    overwritten, and W the innermost window block of levels for the same
    rows.

    Each block is inverted along the innermost axes in place, weighted by W
    and summed into the accumulator of its index of the outer levels.  When
    the stream leaves that index, each outer level's accumulator whose
    index ends is inverted along the level's axes, weighted by its factor
    and added to the level above (see _close), which commutes as the window
    does not depend on those axes."""
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
    return acc[0]


def _finish(accs: list, levels: WindowLevels, out_grid: Grid,
            y_volume: float) -> np.ndarray:
    """The sum of the shards' _synthesize accumulators, added in shard
    order, inverted along level 0 once and given idft's primal phase and
    the y~ cell volume."""
    rec = accs[0]
    for acc in accs[1:]:
        rec += acc
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
        f"; the fast path needs an out_grid with the spacing and counts of "
        f"the field's primal grid {F.grid}")
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
    the analysis window levels and blocks are reused for synthesis.  The
    stream runs in shards (transform._in_shards).
    """
    cert = pairing_check(g, phi)
    if not cert.admissible:
        raise ValueError(f"inadmissible window pairing: {cert}")
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    levels = window_levels(g, f.grid, frame.u, y_grid)
    # every window stream on one grid takes the same y~ blocks
    synth = levels if phi is g else window_levels(phi, f.grid, frame.u, y_grid)
    table = None
    if synth.axes != levels.axes:
        table = (_phase_tables(f.grid, levels.axes).dft_post
                 * _phase_tables(f.grid, synth.axes).idft_pre)
    G = _level0(f, levels)

    def shard(a, b, analysis, synthesis=None):
        stream = _unphased(f, analysis, G=G)
        if synthesis is None:
            synthesis, pairs = analysis, ((lo, hi, R, W) for lo, hi, W, R in stream)
        else:
            pairs = ((lo, hi, R, W) for (lo, hi, _, R), (_, _, W)
                     in zip(stream, synthesis.blocks, strict=True))
        if table is not None:
            pairs = ((lo, hi, np.multiply(R, table, out=R), W) for lo, hi, R, W in pairs)
        return _synthesize(pairs, synthesis, f.grid)

    streams = (levels,) if synth is levels else (levels, synth)
    rec = _finish(_in_shards(shard, *streams), synth, f.grid, y_grid.cell_volume)
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
                  g: Window) -> DstftField:
    """DS_phi f from F_g = DS_g f, as DS_phi DS*_gamma F_g / (g, gamma).

    DS_phi DS*_gamma is twisted convolution with the reproducing kernel
    V_phi gamma, and DS*_gamma DS_g f = (g, gamma) f for an admissible
    synthesis window gamma, so the composition is the window change.  On
    the sampled lattices DS*_gamma DS_g f is (g, gamma) f M, with M the
    reconstruction multiplier (invariants.multiplier_error), and the result
    is DS_phi (f M), on F_g's signal grid, frame and y~ grid.
    """
    cert = pairing_check(g, gamma)
    if not cert.admissible:
        raise ValueError(f"inadmissible (g, gamma) pairing: {cert}")
    f = dso(F_g, gamma, F_g.frame, F_g.grid)
    return dstft_fast(Signal(f.grid, f.values / cert.value), phi, F_g.frame,
                      y_grid=F_g.y_grid)
