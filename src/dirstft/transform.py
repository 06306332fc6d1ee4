"""Forward k-directional short-time Fourier transform.

DS_{g,u^k} f(y~, xi) = integral f(t) conj(g((u_1.t, ..., u_k.t) - y~))
                       exp(-2 pi i t . xi) dt

sampled on a y~-grid in R^k and the DFT-dual frequency lattice in R^n.  The
fast path hands each y~ block of windowed signals to one batched FFT
quadrature and yields the block's spectra; dstft_fast writes them into a
field, while reconstruction and the wavefront scan consume them block by
block.  Each such y~ stream builds one plan (_plan) of its window levels,
half axis and shards before it allocates anything, then only executes it
(_in_shards).  The direct path, on windows.window_blocks, is the
brute-force oracle and also accepts arbitrary off-lattice frequencies.

The fast path is factored into levels of signal axes, by the frame and the
window (windows.window_levels):

- level 0 is the frame's blind axes, those i whose column u_(.i) is
  exactly zero.  The window does not depend on t_i there, so along them
  DS f is the plain Fourier transform of f, the same for every y~ (for the
  e^k frame, k < n, the partial STFT in the first k variables composed
  with the Fourier transform in the others);
- a tensor window g = g_1 x ... x g_k (k > 1) on a frame whose rows touch
  pairwise disjoint sets of signal axes has one level per row j, the axes
  u_j touches, since g(u . t - y~) = prod_j g_j(u_j . t - y_j): the
  partial STFT in those axes (the e^k frame on R^n, k > 1, is the
  multivariate tensor-product Gabor setting);
- any other window or frame has one level over every axis it sees.

Level 0 is transformed once per call.  The y~ rows stream in row-major
order: for each index (y_1, ..., y_(L-1)) of the outer levels, level j's
factor at y_j is multiplied into the partial transform of level j - 1 and
transformed along level j's axes, once; each y~ block then multiplies only
its innermost factor and transforms along the innermost axes.  On the
identity frame in R^2 that halves the FFT work against transforming every
row along both axes.  The blocks stream without their last phase (_unphased).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .direction import DirectionFrame
from .grids import (Grid, Signal, _check_oracle_work, _dft_inplace, _direct_sum,
                    _phase_tables, _sample_values, _trailing, as_points)
from .windows import (Window, WindowLevels, _factored, _frame_rows, window_blocks,
                      window_levels)

# Largest field, in bytes, that dstft_fast and dstft_direct allocate.
FIELD_BYTES_CAP = 2 ** 31


@dataclass
class DstftField:
    """Samples of DS f on y_grid x xi_grid, for f on the signal grid grid
    and the direction frame frame; values shaped y_counts + xi_counts."""

    y_grid: Grid
    grid: Grid
    values: np.ndarray = field(repr=False)
    frame: DirectionFrame

    def __post_init__(self):
        counts = self.y_grid.counts + self.grid.counts
        self.values = _sample_values(self.values, counts, "field")

    @property
    def xi_grid(self) -> Grid:
        """The frequency lattice, the zero-centered dual of grid."""
        return self.grid.dual()

    @property
    def y_size(self) -> int:
        return self.y_grid.size

    @property
    def xi_size(self) -> int:
        return self.xi_grid.size

    def inner_product(self, other: "DstftField") -> complex:
        """Quadrature L2 inner product over (y~, xi)."""
        if self.y_grid != other.y_grid or self.xi_grid != other.xi_grid:
            raise ValueError("field inner product requires identical grids")
        weight = self.y_grid.cell_volume * self.xi_grid.cell_volume
        return complex(weight * np.vdot(other.values, self.values))


def default_y_grid(grid: Grid, frame: DirectionFrame) -> Grid:
    """The signal grid's axes j, when every row of u is a coordinate axis
    e_j (lattice-exact window evaluation), else its first k axes."""
    axes = np.argmax(frame.u, axis=1)
    if not np.array_equal(frame.u, np.eye(frame.n)[axes]):
        axes = range(frame.k)
    return grid.take(axes)


def _check_field_bytes(y_grid: Grid, xi_grid: Grid) -> None:
    nbytes = 16 * y_grid.size * xi_grid.size
    if nbytes > FIELD_BYTES_CAP:
        raise ValueError(
            f"a field of {y_grid.size} y~ points x {xi_grid.size} frequencies "
            f"takes {nbytes} bytes, above the cap of {FIELD_BYTES_CAP}; "
            "roundtrip and wavefront stream the transform in y~ blocks "
            "instead of storing it")


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity), else the machine's."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@dataclass(frozen=True)
class _Plan:
    """One y~ stream's path (_plan): g's window levels, phi's (levels itself
    for one window), the half axis (None: the full spectrum) and one (a, b,
    *streams) per shard, each window's levels split to rows a:b."""

    levels: WindowLevels
    synth: WindowLevels
    half: int | None
    parts: tuple


def _plan(grid: Grid, g: Window, u: np.ndarray, y_grid: Grid,
          rows: np.ndarray | None = None, *, phi: Window | None = None,
          real: bool = False, shards: bool = True) -> _Plan:
    """The plan of the stream of g (and phi) over the ascending flat
    indices rows of y_grid (default: all), for a signal on grid and the
    direction rows u: the one place where its path is decided, before it
    allocates anything.  A pair streams factored only when both windows
    are.  Given real (f has no imaginary part) and real window values
    (levels.real), DS f(y~, -xi) = conj DS f(y~, xi): the half axis is the
    first blind axis b, whose slice [0, N_b//2] and mirrors (_mirror) cover
    every frequency.  The parts are runs of whole outer y~ indices, at most
    as many as CPUs (_cpu_count), one unless shards; a one-level stream
    has no outer index, so it runs as one part."""
    u = _frame_rows(g, grid, u, y_grid)
    ws = (g,) if phi is None or phi is g else (g, phi)
    factored = all(_factored(w, u, y_grid) for w in ws)
    streams = tuple(window_levels(w, grid, u, y_grid, rows, factored) for w in ws)
    levels, rows = streams[0], streams[0].rows
    half = levels.blind[0] if real and levels.blind and levels.real else None
    starts = np.flatnonzero(np.diff(rows // levels.inner, prepend=-1))
    n = min(_cpu_count() if shards else 1, len(starts))
    cuts = [int(starts[s * len(starts) // n]) for s in range(n)] + [len(rows)]
    parts = tuple((a, b, *(s.split(a, b) for s in streams))
                  for a, b in zip(cuts[:-1], cuts[1:]))
    return _Plan(levels, streams[-1], half, parts)


def _in_shards(task, plan: _Plan) -> list:
    """[task(a, b, *streams) for each part of the plan], in order; nothing
    is decided here.  The first part, a one-level stream's only one, runs
    on the calling thread and each other on a thread of its own, in a copy
    of the caller's context
    (numpy's error state lives there), all joined before this returns, so
    a shard's exception is raised once no shard runs (the first's first).
    numpy's FFTs release the interpreter lock, so the shards run at once."""
    parts = plan.parts
    results, errors = [None] * len(parts), [None] * len(parts)

    def run(i):
        try:
            results[i] = task(*parts[i])
        except BaseException as e:      # raised on the calling thread below
            errors[i] = e

    threads = []
    try:
        for i in range(1, len(parts)):
            threads.append(threading.Thread(target=contextvars.copy_context().run,
                                            args=(run, i)))
            threads[-1].start()
        run(0)
    finally:
        for t in threads:
            t.join()
    for e in errors:
        if e is not None:
            raise e
    return results


def _spectra(f: Signal, levels: WindowLevels, out: np.ndarray | None = None,
             G: np.ndarray | None = None):
    """(lo, hi, W, S) for each block of _unphased, with S = dft(conj(g(u .
    t - y~)) f) for the y~ rows lo:hi computed in R's buffer."""
    post = _phase_tables(f.grid, levels.axes).dft_post
    for lo, hi, W, R in _unphased(f, levels, out, G):
        R *= post
        yield lo, hi, W, R


def _unphased(f: Signal, levels: WindowLevels, out: np.ndarray | None = None,
              G: np.ndarray | None = None):
    """(lo, hi, W, R) for each innermost window block (lo, hi, W) of levels
    (windows.window_levels): R = fftn(conj(W) P) along the innermost axes
    for the y~ rows lo:hi, shaped (hi - lo,) + G.shape, with P from
    _partials.  R lacks the innermost post-phase of the block's spectra,
    which synthesis's pre-phase cancels, so only a field's reader or writer
    applies either (_spectra, dso).  R is computed in the rows lo:hi of out
    when it is given, else in one work array per stream, sized by the
    largest block, that the consumer may overwrite and that the next block
    reuses.  W is yielded unconjugated, for reuse as a synthesis window.  R
    is not checked for finiteness; its consumers check what they return.
    G, f along level 0 (_level0), is computed here, over the whole grid,
    unless the caller gives it, as the shards of one stream and the
    wavefront scan do; a G of the leading slice of a
    blind axis alone (_Plan.half) streams that slice alone, with W real."""
    axes = _trailing(f.grid, levels.axes)
    G = _level0(f, levels) if G is None else G
    partial = _partials(f, levels, G)
    # a halved G comes with real window values, whose conjugates are
    # themselves: multiplying W in place of a copy holds one block less
    conj = np.conjugate if G.shape == f.grid.counts else np.asarray
    buf = np.empty((0,) + G.shape, dtype=complex)
    for lo, hi, W in levels.blocks:
        if out is None and hi - lo > len(buf):
            buf = np.empty((hi - lo,) + G.shape, dtype=complex)
        work = buf[:hi - lo] if out is None else out[lo:hi]
        for a, b, index in levels.segments(lo, hi):
            np.multiply(conj(W[a - lo:b - lo]), partial(index),
                        out=work[a - lo:b - lo])
        yield lo, hi, W, np.fft.fftn(work, axes=axes, out=work)
        del W       # let go of this window block before the next one is made


def _mirror(counts: tuple, b: int) -> list:
    """(dst, src) index pairs, of slices, that map each lattice frequency
    past the leading slice [0, N_b//2] of axis b (dst) to its mirror -xi
    (src), which lies inside the slice: index i of an axis of N points
    holds xi = i - N//2 steps, whose mirror is at (2 (N//2) - i) mod N, a
    reversal of the axis, which on an axis of even N keeps the -N/2 line
    (i = 0) in place.  That line has no mirror in the lattice; its partner
    +N/2 is its periodic image, whose values match it up to a phase
    (_mirror_fill) and whose magnitudes match it exactly."""
    axes = []
    for a, n in enumerate(counts):
        m = n // 2
        if a == b:      # i > m from 2m - i, down to 0 (odd N) or 1 (even N)
            axes.append([(slice(m + 1, None), slice(m - 1, None if n % 2 else 0, -1))])
        elif n % 2:     # i from N - 1 - i
            axes.append([(slice(None), slice(None, None, -1))])
        else:           # the -N/2 line in place, and i > 0 from N - i
            axes.append([(slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1))])
    return [tuple(zip(*pairs)) for pairs in itertools.product(*axes)]


def _mirror_fill(values: np.ndarray, grid: Grid, b: int) -> None:
    """Fill the frequencies past the leading slice [0, N_b//2] of axis b of
    values, spectra on grid's dual lattice shaped batch + grid.counts whose
    leading slices hold a Hermitian transform (_Plan.half), with F(xi) =
    conj F(-xi) at their mirrors (_mirror), in place, one spectrum at a
    time: a ufunc copies an input that may overlap its output, so each
    copy holds a part of one spectrum.  On the -N/2 line of another even
    axis a the value is that of the +N/2 partner, the periodic image
    times exp(2 pi i origin_a / spacing_a), a factor of 1, which is
    skipped, when the grid's origin is a whole number of steps (a centred
    grid)."""
    steps = [o / h for o, h in zip(grid.origin, grid.spacing)]
    pairs = [(dst, src, [np.exp(2j * np.pi * (k - round(k)))
                         for d, k in zip(dst, steps) if d == slice(0, 1) and k != round(k)])
             for dst, src in _mirror(grid.counts, b)]
    for spectrum in values.reshape((-1,) + grid.counts):
        for dst, src, phases in pairs:
            part = np.conjugate(spectrum[src], out=spectrum[dst])
            for phase in phases:
                part *= phase


def _level0(f: Signal, levels: WindowLevels, b: int | None = None) -> np.ndarray:
    """f transformed along level 0, the blind axes, and for a one-level
    stream multiplied by the innermost axes' dft pre-phase; read-only.
    Given a blind axis b (_Plan.half), only its leading slice [0, N_b//2]."""
    grid, blind = f.grid, levels.blind
    G = _dft_inplace(f.values.copy(), grid, blind) if blind else f.values
    if b is not None:
        G = G[(slice(None),) * b + (slice(0, grid.counts[b] // 2 + 1),)]
    return G if levels.outer else G * _phase_tables(grid, levels.axes).dft_pre


def _partials(f: Signal, levels: WindowLevels, G: np.ndarray):
    """index -> P: G (_level0), then for each outer level, outermost first,
    weighted by its conjugate factor at the index's y~ value and transformed
    along its axes, and last multiplied by the innermost axes' dft
    pre-phase.  Each outer level keeps its last result in one buffer,
    shaped like G, recomputed when its own or an outer index changes."""
    grid = f.grid
    pre = _phase_tables(grid, levels.axes).dft_pre
    bufs = [np.empty(G.shape, dtype=complex) for _ in levels.outer]
    held = [None] * len(levels.outer)

    def partial(index):
        prev = G
        for j, (axes, table) in enumerate(levels.outer):
            if held[j] != index[:j + 1]:
                np.multiply(np.conjugate(table[index[j]]), prev, out=bufs[j])
                bufs[j] = _dft_inplace(bufs[j], grid, axes)
                if j == len(bufs) - 1:
                    bufs[j] *= pre
                held[j] = index[:j + 1]
            prev = bufs[j]
        return prev

    return partial


def dstft_fast(f: Signal, g: Window, frame: DirectionFrame,
               y_grid: Grid | None = None) -> DstftField:
    """FFT-quadrature k-DSTFT on the dual frequency lattice, as one field.

    Rejects a field above FIELD_BYTES_CAP, then builds the stream's plan
    (_plan), before allocating the field.  Each y~ block is transformed in
    the field's own rows, in the plan's shards, whose rows do not overlap
    (_in_shards).  A Hermitian stream (_Plan.half) is transformed on the
    leading slice of its blind axis b alone, in a view of the field, and
    the rest is then filled from the mirrors (_mirror_fill).
    """
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    plan = _plan(f.grid, g, frame.u, y_grid, real=not f.values.imag.any())
    out = np.empty((y_grid.size,) + xi_grid.counts, dtype=complex)
    axis = plan.half
    G = _level0(f, plan.levels, axis)
    half = out if axis is None else out[(slice(None),) * (axis + 1)
                                        + (slice(0, G.shape[axis]),)]

    def shard(a, b, part):
        for lo, hi, W, S in _spectra(f, part, out=half[a:b], G=G):
            del W, S    # S is a view of out
            if axis is not None:
                _mirror_fill(out[a + lo:a + hi], f.grid, axis)

    _in_shards(shard, plan)
    return DstftField(y_grid, f.grid, out, frame)


def dstft_direct(f: Signal, g: Window, frame: DirectionFrame,
                 y_grid: Grid | None = None) -> DstftField:
    """Brute-force quadrature oracle on the dual lattice."""
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    _frame_rows(g, f.grid, frame.u, y_grid)
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    vals = dstft_direct_at(f, g, frame, y_grid.points(), xi_grid.points())
    return DstftField(y_grid, f.grid, vals, frame)


def dstft_direct_at(f: Signal, g: Window, frame: DirectionFrame,
                    y_pts: np.ndarray, xi_pts: np.ndarray) -> np.ndarray:
    """Direct quadrature at arbitrary (y~, xi) points; shape (Ny, Nxi).
    Refuses more than grids.ORACLE_WORK_CAP terms (Nt Ny Nxi)."""
    y_pts, xi_pts = as_points(y_pts, frame.k), as_points(xi_pts, frame.n)
    _check_oracle_work(f.grid.size * len(y_pts) * len(xi_pts), "direct-path")
    out = np.empty((y_pts.shape[0], xi_pts.shape[0]), dtype=complex)
    for lo, hi, W in window_blocks(g, f.grid, frame.u, y_pts):
        out[lo:hi] = _direct_sum(f.values * np.conj(W), f.grid, xi_pts, -1)
    out *= f.grid.cell_volume
    return out
