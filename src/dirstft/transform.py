"""Forward k-directional short-time Fourier transform.

DS_{g,u^k} f(y~, xi) = integral f(t) conj(g((u_1.t, ..., u_k.t) - y~))
                       exp(-2 pi i t . xi) dt

sampled on a y~-grid in R^k and the DFT-dual frequency lattice in R^n.  Both
paths take their windows in y~ blocks from windows.window_blocks.  The fast
path, dstft_blocks, hands each block of windowed signals to one batched FFT
quadrature and yields the block's spectra; dstft_fast collects them into a
field, while reconstruction and the wavefront scan consume them block by
block.  The direct path is the brute-force oracle and also accepts arbitrary
off-lattice frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .direction import DirectionFrame
from .grids import BLOCK_ELEMS, Grid, Signal, _dft_inplace
from .windows import Window, tensor_window, window_blocks

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
        vals = np.ascontiguousarray(self.values, dtype=complex)
        expected = self.y_grid.counts + self.xi_grid.counts
        if vals.shape != expected:
            vals = vals.reshape(expected)
        # chunked, so the check allocates one block-sized mask, not a mask
        # the size of the field
        parts = vals.reshape(-1).view(np.float64)
        step = 2 * BLOCK_ELEMS
        for lo in range(0, parts.size, step):
            if not np.isfinite(parts[lo:lo + step]).all():
                raise ValueError("field values must be finite")
        self.values = vals

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


def dstft_blocks(f: Signal, g: Window, frame: DirectionFrame, y_grid: Grid):
    """The FFT-quadrature k-DSTFT in y~ blocks.

    Returns an iterator of (lo, hi, W, S): W is the window block of
    windows.window_blocks for the y~ rows lo:hi, shaped (hi - lo, Nt), and
    S = dft(conj(W) f) holds DS f on those rows, shaped
    (hi - lo,) + xi_grid.counts with xi_grid = f.grid.dual().  W is left
    unchanged, so a consumer can reuse it as a synthesis window.  The
    arguments are checked before the first block is computed; S is not
    checked for finiteness, so a consumer checks what it returns (as
    dstft_fast, reconstruct and wavefront_scan do).
    """
    if f.grid.dim != frame.n:
        raise ValueError("signal dimension must match frame n")
    if g.grid.dim != frame.k:
        raise ValueError("window dimension must match frame k")
    return _spectra(f, window_blocks(g, f.grid, frame.u, y_grid.points()))


def _spectra(f: Signal, blocks):
    """Each block's spectra, transformed in the memory of its own
    conj(W) f product."""
    flat_f = f.values.ravel()
    for lo, hi, W in blocks:
        work = np.conjugate(W)
        work *= flat_f
        S = _dft_inplace(work.reshape((hi - lo,) + f.grid.counts), f.grid)
        del work
        yield lo, hi, W, S
        # let go of this block before the next one is computed
        del W, S


def dstft_fast(f: Signal, g: Window, frame: DirectionFrame,
               y_grid: Grid | None = None) -> DstftField:
    """FFT-quadrature k-DSTFT on the dual frequency lattice, as one field.

    Rejects a field above FIELD_BYTES_CAP before allocating it.
    """
    y_grid = default_y_grid(f.grid, frame.k) if y_grid is None else y_grid
    xi_grid = f.grid.dual()
    _check_field_bytes(y_grid, xi_grid)
    blocks = dstft_blocks(f, g, frame, y_grid)
    out = np.empty((y_grid.size,) + xi_grid.counts, dtype=complex)
    for lo, hi, W, S in blocks:
        out[lo:hi] = S
        del W, S        # the field holds the copy
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
    if f.grid.dim != frame.n or g.grid.dim != frame.k:
        raise ValueError("grid dimensions must match the frame")
    y_pts = np.atleast_2d(np.asarray(y_pts, dtype=float))
    xi_pts = np.atleast_2d(np.asarray(xi_pts, dtype=float))
    T = f.grid.points()
    flat_f = f.values.ravel()
    vol = f.grid.cell_volume
    out = np.empty((y_pts.shape[0], xi_pts.shape[0]), dtype=complex)
    phases = np.exp(-2j * np.pi * (T @ xi_pts.T))   # (Nt, Nxi)
    for lo, hi, W in window_blocks(g, f.grid, frame.u, y_pts):
        out[lo:hi] = vol * ((flat_f * np.conj(W)) @ phases)
    return out


def partial_stft(f: Signal, g_list: list, frame: DirectionFrame,
                 y_grid: Grid | None = None) -> DstftField:
    """Partial STFT: tensor-product window g(s) = g_1(s_1) ... g_k(s_k)."""
    if len(g_list) != frame.k:
        raise ValueError("need exactly k one-dimensional windows")
    g = tensor_window(list(g_list))
    return dstft_fast(f, g, frame, y_grid=y_grid)
