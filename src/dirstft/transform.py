"""Forward k-directional short-time Fourier transform.

DS_{g,u^k} f(y~, xi) = integral f(t) conj(g((u_1.t, ..., u_k.t) - y~))
                       exp(-2 pi i t . xi) dt

sampled on a y~-grid in R^k and the DFT-dual frequency lattice in R^n.  Both
paths take their windows in y~ blocks, the fast path from
windows.window_levels and the direct path from windows.window_blocks.  The
fast path hands each block of windowed signals to one batched FFT quadrature and
yields the block's spectra; dstft_fast writes them into a field, while
reconstruction and the wavefront scan consume them block by block.  The
direct path is the brute-force oracle and also accepts arbitrary
off-lattice frequencies.

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

from dataclasses import dataclass, field

import numpy as np

from .direction import DirectionFrame
from .grids import (Grid, Signal, _check_oracle_work, _dft_inplace, _direct_sum,
                    _phase_tables, _sample_values, _trailing, as_points)
from .windows import Window, WindowLevels, window_blocks, window_levels

# Largest field, in bytes, that dstft_fast and dstft_direct allocate.
FIELD_BYTES_CAP = 2 ** 31


@dataclass
class DstftField:
    """Samples of DS f on y_grid x xi_grid; values shaped y_counts + xi_counts."""

    y_grid: Grid
    xi_grid: Grid
    values: np.ndarray = field(repr=False)
    frame: DirectionFrame = None
    window_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = self.y_grid.counts + self.xi_grid.counts
        self.values = _sample_values(np.reshape(self.values, counts), counts,
                                     "field")

    @property
    def y_size(self) -> int:
        return self.y_grid.size

    @property
    def xi_size(self) -> int:
        return self.xi_grid.size

    def slice_at(self, y_flat_index: int) -> np.ndarray:
        return self.values.reshape(self.y_size, *self.xi_grid.counts)[y_flat_index]

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
    return Grid(*([v[j] for j in axes] for v in (grid.origin, grid.spacing, grid.counts)))


def _check_field_bytes(y_grid: Grid, xi_grid: Grid) -> None:
    nbytes = 16 * y_grid.size * xi_grid.size
    if nbytes > FIELD_BYTES_CAP:
        raise ValueError(
            f"a field of {y_grid.size} y~ points x {xi_grid.size} frequencies "
            f"takes {nbytes} bytes, above the cap of {FIELD_BYTES_CAP}; "
            "roundtrip and wavefront stream the transform in y~ blocks "
            "instead of storing it")


def _spectra(f: Signal, levels: WindowLevels, out: np.ndarray | None = None):
    """(lo, hi, W, S) for each block of _unphased, with S = dft(conj(g(u .
    t - y~)) f) for the y~ rows lo:hi computed in R's buffer."""
    post = _phase_tables(f.grid, levels.axes).dft_post
    for lo, hi, W, R in _unphased(f, levels, out):
        R *= post
        yield lo, hi, W, R


def _unphased(f: Signal, levels: WindowLevels, out: np.ndarray | None = None):
    """(lo, hi, W, R) for each innermost window block (lo, hi, W) of levels
    (windows.window_levels): R = fftn(conj(W) P) along the innermost axes
    for the y~ rows lo:hi, shaped (hi - lo,) + f.grid.counts, with P from
    _partials.  R lacks the innermost post-phase of the block's spectra,
    which synthesis's pre-phase cancels, so only a field's reader or writer
    applies either (_spectra, dso).  R is computed in the rows lo:hi of out
    when it is given, else in one work array per stream, sized by the
    largest block, that the consumer may overwrite and that the next block
    reuses.  W is yielded unconjugated, for reuse as a synthesis window.  R
    is not checked for finiteness; its consumers check what they return."""
    grid, axes = f.grid, _trailing(f.grid, levels.axes)
    partial = _partials(f, levels)
    buf = np.empty((0,) + grid.counts, dtype=complex)
    for lo, hi, W in levels.blocks:
        if out is None and hi - lo > len(buf):
            buf = np.empty((hi - lo,) + grid.counts, dtype=complex)
        work = buf[:hi - lo] if out is None else out[lo:hi]
        for a, b, index in levels.segments(lo, hi):
            np.multiply(np.conjugate(W[a - lo:b - lo]), partial(index),
                        out=work[a - lo:b - lo])
        yield lo, hi, W, np.fft.fftn(work, axes=axes, out=work)
        del W       # let go of this window block before the next one is made


def _partials(f: Signal, levels: WindowLevels):
    """index -> P: f transformed along level 0, then for each outer level,
    outermost first, weighted by its conjugate factor at the index's y~
    value and transformed along its axes, and last multiplied by the
    innermost axes' dft pre-phase.  Each outer level keeps its last result
    in one buffer, recomputed when its own or an outer index changes."""
    grid, blind = f.grid, levels.blind
    pre = _phase_tables(grid, levels.axes).dft_pre
    G = _dft_inplace(f.values.copy(), grid, blind) if blind else f.values
    G = G if levels.outer else G * pre
    bufs = [np.empty(grid.counts, dtype=complex) for _ in levels.outer]
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

    Rejects a field above FIELD_BYTES_CAP before allocating it.  Each y~
    block is transformed in the field's own rows.
    """
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    levels = window_levels(g, f.grid, frame.u, y_grid)
    out = np.empty((y_grid.size,) + xi_grid.counts, dtype=complex)
    for _, _, W, S in _spectra(f, levels, out=out):
        del W, S        # S is a view of out
    return DstftField(y_grid, xi_grid, out.reshape(y_grid.counts + xi_grid.counts),
                      frame=frame, window_meta=g.meta)


def dstft_direct(f: Signal, g: Window, frame: DirectionFrame,
                 y_grid: Grid | None = None) -> DstftField:
    """Brute-force quadrature oracle on the dual lattice."""
    y_grid = default_y_grid(f.grid, frame) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    vals = dstft_direct_at(f, g, frame, y_grid.points(), xi_grid.points())
    return DstftField(y_grid, xi_grid, vals.reshape(y_grid.counts + xi_grid.counts),
                      frame=frame, window_meta=g.meta)


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
