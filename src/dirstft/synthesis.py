"""k-directional synthesis operator, reconstruction by the canonical dual
(division by the reconstruction multiplier M on a covering y~ grid) and
the window change DS_phi DS*_gamma / (g, gamma).

DS*_{g,u^k} F(t) = integral integral F(y~, xi) g((u.t) - y~)
                   exp(2 pi i xi . t) dy~ dxi
"""

from __future__ import annotations

import numpy as np

from .direction import DirectionFrame
from .grids import (LATTICE_TOL, Grid, Signal, _check_oracle_work, _direct_sum,
                    _idft_into, _phase_tables, _trailing, primal_phase)
from .transform import DstftField, _in_shards, _level0, _unphased, dstft_fast
from .windows import (Window, WindowLevels, _check_grids, _keep, _pair_levels,
                      pairing_check, window_blocks, window_levels)


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


# Largest roundoff gain max_r A_r / min_r |C_r| that the default y~ stride
# of reconstruct accepts (multiplier_stride).  Dividing by M multiplies
# the relative roundoff of the undivided stream, f M, by up to this gain.
# Over drawn frames, windows, window pairs and non-decaying signals that
# roundoff stayed below 9.6e-16, so 2^6 times it is 6.1e-14, a decade
# inside the 1e-12 that reconstruct is held to; 2^7 would not be.
ROUNDOFF_GAIN_MAX = 2.0 ** 6

# Smallest |M| that reconstruct divides by.  f M is computed to roundoff of
# its largest value, so dividing by an M below this would lift that
# roundoff past 1e-10 of f; a y~ grid that leaves M this small misses the
# window's reach.
MULTIPLIER_FLOOR = 1e-6


def multiplier_stride(g: Window, phi: Window) -> int:
    """The largest y~ stride t, tried upward from 1 until one fails, whose
    window-only multiplier divides out within ROUNDOFF_GAIN_MAX.

    P = conj(g) phi is sampled at half the window spacing (_half_samples),
    and C_r, A_r are the sums of P and of |P| over the coset r + 2t Z^k of
    that lattice; t passes while max_r A_r / min_r |C_r| is within the cap.
    On y~ t window steps apart, C_r is M at the samples u . t - y~ of coset
    r, up to a constant, and A_r bounds the roundoff the stream leaves
    there, so the ratio is the factor by which the division lifts that
    roundoff (for a nonnegative P, cond(M)).  The even cosets are the
    window lattice, which a lattice gather samples; the odd ones see M
    between, where samples off that lattice fall and where a bump that
    the stride outruns leaves M = 0.  P, a product of two interpolants
    band-limited to the window lattice, has half its spacing as Nyquist
    step, so the 2t samples per period are alias-free.  One FFT per
    window, then O(2^k N_w) per candidate; nothing depends on the signal."""
    _check_grids(g, phi)
    G = _half_samples(g)
    P = np.abs(G) ** 2 if phi is g else np.conj(G) * _half_samples(phi)
    # for a nonnegative P, A = |C|
    absP = None if phi is g else np.abs(P)
    s = 1
    while s < max(g.grid.counts):
        t = s + 1
        C = np.abs(_coset_sums(P, 2 * t))
        A = C if absP is None else _coset_sums(absP, 2 * t)
        if not A.max() <= ROUNDOFF_GAIN_MAX * C.min():
            break
        s = t
    return s


def _half_samples(w: Window) -> np.ndarray:
    """w on its box at half its spacing, 2 n points per axis of n samples:
    its samples at the even indices and, between, its trigonometric
    interpolant (window_at's rule, by zero-padding the spectrum), zeroed
    where window_at zeroes it."""
    v = w.values.astype(complex)
    for axis, n in enumerate(w.grid.counts):
        c = np.moveaxis(np.fft.fft(v, axis=axis), axis, -1)
        up = np.zeros(c.shape[:-1] + (2 * n,), dtype=complex)
        # modes -(n // 2) .. n - 1 - n // 2 of grids.Grid.dual, in FFT order
        up[..., :n - n // 2] = c[..., :n - n // 2]
        up[..., 2 * n - n // 2:] = c[..., n - n // 2:]
        v = np.moveaxis(2 * np.fft.ifft(up), -1, axis)
    v[(slice(None, None, 2),) * v.ndim] = w.values
    if w.compact:
        # every point is inside w's box, so only a bump's support zeroes any
        half = Grid(w.grid.origin, np.asarray(w.grid.spacing) / 2,
                    tuple(2 * n for n in w.grid.counts))
        v[~_keep(w, half.points()).reshape(half.counts)] = 0.0
    return v


def _coset_sums(P: np.ndarray, t: int) -> np.ndarray:
    """The sums of P over the cosets r + t Z^k of its index lattice,
    shaped (t,) * k."""
    padded = np.pad(P, [(0, -n % t) for n in P.shape])
    blocks = padded.reshape([d for n in padded.shape for d in (n // t, t)])
    return blocks.sum(axis=tuple(range(0, 2 * P.ndim, 2)))


def covering_y_grid(grid: Grid, g: Window, phi: Window,
                    frame: DirectionFrame) -> tuple:
    """(y_grid, s), reconstruct's default y~ grid for signals on grid.

    Per y~ axis j it spans the projections u_j . t of the grid's samples,
    widened by the numerical support of P = conj(g) phi, taken from P's
    samples, not each window's: the bounding box of the samples where
    |P| > eps max |P| (eps the float64 machine epsilon), widened by one
    window step on each side, so a coarsely sampled window keeps the rows
    its interpolant reaches, within the window's samples and a compact
    window's support radius.  On the window lattice a row it leaves out
    adds at most eps max |P| to M.  Its spacing is the window's times the
    stride s of multiplier_stride, the largest whose division by M lifts
    the stream's roundoff at most ROUNDOFF_GAIN_MAX times.  Its origin is
    on the lattice u . (grid origin) - (window origin) + window spacing Z,
    so that on a coordinate frame whose signal spacing is a multiple of
    the window's, every u . t - y~ is on the window lattice, the exact
    gather of windows._lattice_blocks."""
    s = multiplier_stride(g, phi)
    P = np.abs(np.conj(g.values) * phi.values)
    idx = np.argwhere(P > np.finfo(float).eps * P.max())
    h = np.asarray(g.grid.spacing)
    r = min((w.support_radius for w in (g, phi) if w.compact), default=np.inf)
    box = np.clip([idx.min(axis=0) - 1, idx.max(axis=0) + 1], 0, np.subtract(P.shape, 1))
    lo, hi = np.clip(g.grid.origin + box * h, -r, r)
    reach = frame.u * ((np.asarray(grid.counts) - 1) * np.asarray(grid.spacing))
    base = frame.u @ np.asarray(grid.origin)
    y_lo = base + np.minimum(reach, 0).sum(axis=1) - hi
    y_hi = base + np.maximum(reach, 0).sum(axis=1) - lo
    ref = base - np.asarray(g.grid.origin)
    origin = ref + np.floor((y_lo - ref) / h + LATTICE_TOL) * h
    counts = np.floor((y_hi - origin) / (s * h) + LATTICE_TOL) + 1
    return Grid(origin, s * h, np.maximum(counts, 2).astype(int)), s


def reconstruct(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                y_grid: Grid | None = None) -> Signal:
    """The canonical dual reconstruction DS*_phi DS_g f / ((g, phi) M),
    which is f to roundoff for any signal: on the DFT-dual xi lattice
    DS*_phi DS_g is multiplication by (g, phi) M, with M the
    reconstruction multiplier

        M(t) = sum over y~ of conj(g)(u . t - y~) phi(u . t - y~) dy / (g, phi),

    which is divided out.  The division is exact for any y~ grid that
    keeps M away from 0, so the y~ density trades only cost against
    roundoff; the default, covering_y_grid, takes the sparsest stride
    whose division lifts the roundoff at most ROUNDOFF_GAIN_MAX times.

    Requires an admissible window pairing, and raises ValueError when
    min |M| on the signal grid is below MULTIPLIER_FLOOR, naming the
    fraction of the samples it leaves uncovered.  M comes from the same
    stream as the synthesis (_frame_operator)."""
    return _reconstruct(f, g, phi, frame, y_grid)[0]


def _reconstruct(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                 y_grid: Grid | None = None) -> tuple:
    """(reconstruct's result, the M it divided by, shaped to broadcast
    over the signal grid, the y~ grid it streamed and the stride of its
    covering y~ grid, None for a given y_grid)."""
    pairing = _pairing(g, phi)
    s = None
    if y_grid is None:
        y_grid, s = covering_y_grid(f.grid, g, phi, frame)
    rec, M = _frame_operator(f, g, phi, frame, y_grid, pairing)
    low = np.abs(M) < MULTIPLIER_FLOOR
    if low.any():
        raise ValueError(
            f"y_grid does not cover the window's reach: |M| < {MULTIPLIER_FLOOR:g} "
            f"on {np.broadcast_to(low, f.grid.counts).mean():.1%} of the signal "
            f"samples (min |M| = {np.abs(M).min():.3g})")
    rec /= M
    return Signal(f.grid, rec), M, y_grid, s


def _pairing(g: Window, phi: Window) -> complex:
    cert = pairing_check(g, phi)
    if not cert.admissible:
        raise ValueError(f"inadmissible window pairing: {cert}")
    return cert.value


def _frame_operator(f: Signal, g: Window, phi: Window, frame: DirectionFrame,
                    y_grid: Grid, pairing: complex) -> tuple:
    """(DS*_phi DS_g f / (g, phi), M) over y_grid, from one stream.

    Analysis and synthesis are fused per y~ block, and each block is
    inverted in the analysis buffer, so memory stays at a block plus the
    signal.  The two windows stream in one shape (windows._pair_levels),
    so the analysis post-phase and synthesis pre-phase cancel; when phi is
    g, the analysis window levels and blocks are reused for synthesis.  The
    stream runs in shards (transform._in_shards).  M of two factored
    windows is the product of their per-level sums (_level_sums); any
    other pair's is summed from the window blocks the shards already
    hold, so no window is evaluated twice.
    """
    levels, synth = _pair_levels(g, phi, f.grid, frame.u, y_grid)
    G = _level0(f, levels)
    M = _level_sums(levels, synth)

    def shard(a, b, analysis, synthesis=None):
        same = synthesis is None
        synthesis = analysis if same else synthesis
        m = 0

        def pairs():
            nonlocal m
            stream = _unphased(f, analysis, G=G)
            if same:
                blocks = (((lo, hi, W, R), W) for lo, hi, W, R in stream)
            else:
                blocks = zip(stream, (W for _, _, W in synthesis.blocks), strict=True)
            for (lo, hi, W, R), Wp in blocks:
                if M is None:
                    m += np.einsum("i...,i...->...", np.conj(W), Wp)
                yield lo, hi, R, Wp

        acc = _synthesize(pairs(), synthesis, f.grid)
        return acc, m

    streams = (levels,) if synth is levels else (levels, synth)
    parts = _in_shards(shard, *streams)
    rec = _finish([acc for acc, _ in parts], synth, f.grid, y_grid.cell_volume)
    if M is None:
        M = sum(m for _, m in parts)
    rec /= pairing
    return rec, M * (y_grid.cell_volume / pairing)


def _level_sums(levels: WindowLevels, synth: WindowLevels):
    """sum over y~ of conj(g) phi for two factored streams over all the
    rows of one y~ grid, as the product over levels of the sums of their
    tables' conj(g_j) phi_j over y_j, shaped like a window block row; None
    for one-level streams."""
    if not levels.outer:
        return None

    def tables(s):
        return [t for _, t in s.outer] + [s.window(np.arange(s.inner))]

    M = 1.0
    for tg, tp in zip(tables(levels), tables(synth), strict=True):
        M = M * np.einsum("i...,i...->...", np.conj(tg), tp)
    return M


def window_change(F_g: DstftField, gamma: Window, phi: Window,
                  g: Window) -> DstftField:
    """DS_phi f from F_g = DS_g f, as DS_phi DS*_gamma F_g / (g, gamma).

    DS_phi DS*_gamma is twisted convolution with the reproducing kernel
    V_phi gamma, and DS*_gamma DS_g f = (g, gamma) f for an admissible
    synthesis window gamma, so the composition is the window change.  On
    the sampled lattices DS*_gamma DS_g f is (g, gamma) f M, with M the
    reconstruction multiplier of reconstruct over F_g's y~ grid, and the
    result is DS_phi (f M), on F_g's signal grid, frame and y~ grid.
    """
    pairing = _pairing(g, gamma)
    f = dso(F_g, gamma, F_g.frame, F_g.grid)
    return dstft_fast(Signal(f.grid, f.values / pairing), phi, F_g.frame,
                      y_grid=F_g.y_grid)
