"""Forward k-directional short-time Fourier transform.

DS_{g,u^k} f(y~, xi) = integral f(t) conj(g((u_1.t, ..., u_k.t) - y~))
                       exp(-2 pi i t . xi) dt

sampled on a y~-grid in R^k and the DFT-dual frequency lattice in R^n.  Both
paths take their windows in y~ blocks from windows.window_blocks.  The fast
path hands each block of windowed signals to one batched FFT quadrature and
yields the block's spectra; dstft_fast writes them into a field, while
reconstruction and the wavefront scan consume them block by block.  The
direct path is the brute-force oracle and also accepts arbitrary
off-lattice frequencies.

The fast path is factored by the frame's blind axes, the signal axes i
whose column u_(.i) is exactly zero.  The window does not depend on t_i
there, and window_blocks gives its blocks size 1 along them, so along those
axes DS f is the plain Fourier transform of f, the same for every y~ (for
the e^k frame, k < n, the partial STFT in the first k variables composed
with the Fourier transform in the others).  Their phase factors and FFT run
once per call; each y~ block then multiplies its window into that partial
transform and runs the FFT along the seen axes.  A frame without a zero
column has no blind axis and runs the per-block transform along every axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .direction import DirectionFrame
from .grids import Grid, Signal, _dft_inplace, _sample_values, as_points
from .windows import Window, _split_axes, tensor_window, window_blocks

DIRECT_WORK_CAP = 2 ** 27

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


def default_y_grid(grid: Grid, k: int) -> Grid:
    """First-k-axes projection of the signal grid (lattice-exact window
    evaluation for the e^k frame)."""
    return Grid(grid.origin[:k], grid.spacing[:k], grid.counts[:k])


def _check_field_bytes(y_grid: Grid, xi_grid: Grid) -> None:
    nbytes = 16 * y_grid.size * xi_grid.size
    if nbytes > FIELD_BYTES_CAP:
        raise ValueError(
            f"a field of {y_grid.size} y~ points x {xi_grid.size} frequencies "
            f"takes {nbytes} bytes, above the cap of {FIELD_BYTES_CAP}; "
            "roundtrip and wavefront stream the transform in y~ blocks "
            "instead of storing it")


def _spectra(f: Signal, blocks, out: np.ndarray | None = None):
    """(lo, hi, W, S) for each window block (lo, hi, W) of
    windows.window_blocks: S = dft(conj(W) f), shaped
    (hi - lo,) + f.grid.counts.

    The transform along the blind axes, which W has size 1 along, is taken
    once, at the first block; each block's product and its transform along
    the seen axes run in one buffer: the rows lo:hi of out when it is given
    (a field shaped (Ny,) + f.grid.counts), else one work array per stream,
    sized by the largest block and reused by every block.  So without out,
    S is valid only until the consumer asks for the next block, and a
    consumer that keeps it copies it.  A fresh 1 MiB array per block cost
    a k=n=2 64^2 reconstruct about 62 000 minor page faults, as the
    allocator handed each one back to the system, and made small blocks
    look faster (see grids.BLOCK_ELEMS); the reused one keeps it near
    1 200.  W is yielded as the stream made it, not conjugated, so a
    consumer can reuse it as a synthesis window.  S is not checked for
    finiteness, so a consumer checks what it returns (as dstft_fast,
    reconstruct and wavefront_scan do)."""
    grid = f.grid
    G = None
    buf = np.empty((0,) + grid.counts, dtype=complex)
    for lo, hi, W in blocks:
        seen, blind = _split_axes(W)
        if G is None:
            G = _dft_inplace(f.values.copy(), grid, blind) if blind else f.values
        if out is None and hi - lo > len(buf):
            buf = np.empty((hi - lo,) + grid.counts, dtype=complex)
        work = buf[:hi - lo] if out is None else out[lo:hi]
        np.conjugate(W, out=work)
        work *= G
        yield lo, hi, W, _dft_inplace(work, grid, seen)
        del W       # let go of this window block before the next one is made


def dstft_fast(f: Signal, g: Window, frame: DirectionFrame,
               y_grid: Grid | None = None) -> DstftField:
    """FFT-quadrature k-DSTFT on the dual frequency lattice, as one field.

    Rejects a field above FIELD_BYTES_CAP before allocating it.  Each y~
    block is transformed in the field's own rows.
    """
    y_grid = default_y_grid(f.grid, frame.k) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    blocks = window_blocks(g, f.grid, frame.u, y_grid.points())
    out = np.empty((y_grid.size,) + xi_grid.counts, dtype=complex)
    for _, _, W, S in _spectra(f, blocks, out=out):
        del W, S        # S is a view of out
    return DstftField(y_grid, xi_grid, out.reshape(y_grid.counts + xi_grid.counts),
                      frame=frame, window_meta=g.meta)


def dstft_direct(f: Signal, g: Window, frame: DirectionFrame,
                 y_grid: Grid | None = None,
                 work_cap: int = DIRECT_WORK_CAP) -> DstftField:
    """Brute-force quadrature oracle on the dual lattice."""
    y_grid = default_y_grid(f.grid, frame.k) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    work = f.grid.size * y_grid.size * xi_grid.size
    if work > work_cap:
        raise ValueError(f"direct-path work {work} exceeds cap {work_cap}")
    vals = dstft_direct_at(f, g, frame, y_grid.points(), xi_grid.points())
    return DstftField(y_grid, xi_grid, vals.reshape(y_grid.counts + xi_grid.counts),
                      frame=frame, window_meta=g.meta)


def dstft_direct_at(f: Signal, g: Window, frame: DirectionFrame,
                    y_pts: np.ndarray, xi_pts: np.ndarray) -> np.ndarray:
    """Direct quadrature at arbitrary (y~, xi) points; shape (Ny, Nxi)."""
    y_pts, xi_pts = as_points(y_pts, frame.k), as_points(xi_pts, frame.n)
    blocks = window_blocks(g, f.grid, frame.u, y_pts)
    T = f.grid.points()
    vol = f.grid.cell_volume
    out = np.empty((y_pts.shape[0], xi_pts.shape[0]), dtype=complex)
    phases = np.exp(-2j * np.pi * (T @ xi_pts.T))   # (Nt, Nxi)
    for lo, hi, W in blocks:
        out[lo:hi] = vol * ((f.values * np.conj(W)).reshape(hi - lo, -1) @ phases)
    return out


def partial_stft(f: Signal, g_list: list, frame: DirectionFrame,
                 y_grid: Grid | None = None) -> DstftField:
    """Partial STFT: tensor-product window g(s) = g_1(s_1) ... g_k(s_k)."""
    if len(g_list) != frame.k:
        raise ValueError("need exactly k one-dimensional windows")
    g = tensor_window(list(g_list))
    return dstft_fast(f, g, frame, y_grid=y_grid)
