"""Uniform sampling grids, sampled complex signals, and the Fourier transform
in the continuous convention

    f_hat(xi) = integral f(t) exp(-2 pi i xi . t) dt,

approximated by a cell-volume weighted Riemann sum over the lattice.  The fast
path reduces the sum to an FFT with exact origin phase factors, so it agrees
with direct summation to accumulation error.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# Budget of every brute-force oracle (dft_oracle, dstft_direct_at,
# dso_direct), in sample-times-frequency terms summed, checked before the
# oracle allocates anything of that size.
ORACLE_WORK_CAP = 2 ** 27

# Complex entries per work block of the batched window, transform and
# interpolation loops (1 MiB).  Larger blocks buy no speed and raise the
# peak memory of every command.  Smaller ones buy none either now that the
# analysis and synthesis streams reuse one work buffer each: 2^14 blocks
# once ran a k=n=2 64^2 reconstruct 12-23% faster than 2^16, but only
# because every 2^16 block allocated a fresh array that the allocator gave
# back to the system and then page-faulted in again; with reuse, 2^14, 2^15
# and 2^16 are within run-to-run noise.
BLOCK_ELEMS = 2 ** 16

# A point is on a lattice when each coordinate is within this many lattice
# steps of an integer.
LATTICE_TOL = 1e-9

# Boundary samples may carry at most this fraction of the total mass before a
# periodization warning is issued.
BOUNDARY_MASS_THRESHOLD = 1e-9


class BoundaryMassWarning(UserWarning):
    """Signal does not decay below tolerance at the grid boundary."""


class CoverageWarning(UserWarning):
    """A coordinate change mapped a significant amount of mass off-grid."""


@dataclass(frozen=True)
class Grid:
    """Uniform lattice origin + i * spacing, i in prod([0, counts_j))."""

    origin: tuple
    spacing: tuple
    counts: tuple

    def __post_init__(self):
        origin = tuple(float(x) for x in self.origin)
        spacing = tuple(float(x) for x in self.spacing)
        counts = _grid_counts(self.counts)
        if not (len(origin) == len(spacing) == len(counts)) or not origin:
            raise ValueError("origin, spacing and counts must share a positive length")
        if not all(math.isfinite(o + n * s)
                   for o, s, n in zip(origin, spacing, counts)):
            raise ValueError("grid origin, spacing and extent must be finite")
        if any(s <= 0 for s in spacing):
            raise ValueError("grid spacing must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_bounds(cls, lo, hi, counts):
        """Half-open box [lo, hi) sampled with the given counts."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        counts = _grid_counts(np.atleast_1d(counts).tolist())
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo
        if not np.all(np.isfinite(width)):
            raise ValueError(f"grid bounds must be finite and span a finite "
                             f"width hi - lo, got {lo.tolist()} and {hi.tolist()}")
        spacing = width / np.asarray(counts)
        return cls(tuple(lo), tuple(spacing), counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        return math.prod(self.counts)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def upper(self) -> tuple:
        return tuple(o + n * s for o, s, n in zip(self.origin, self.spacing, self.counts))

    def axis(self, j: int) -> np.ndarray:
        return self.origin[j] + self.spacing[j] * np.arange(self.counts[j])

    def axes(self) -> list:
        return [self.axis(j) for j in range(self.dim)]

    def take(self, axes) -> "Grid":
        """The grid of the given axes, in the given order."""
        return Grid(*([v[j] for j in axes] for v in (self.origin, self.spacing,
                                                      self.counts)))

    def points(self) -> np.ndarray:
        """All lattice points, row-major, shape (size, dim)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def dual(self) -> "Grid":
        """Zero-centered DFT-dual lattice: spacing 1/(N dx), counts unchanged."""
        dxi = tuple(1.0 / (n * s) for n, s in zip(self.counts, self.spacing))
        origin = tuple(-(n // 2) * d for n, d in zip(self.counts, dxi))
        return Grid(origin, dxi, self.counts)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask for points inside the half-open box [origin, upper)
        with both ends moved down by LATTICE_TOL steps; the last axis of
        pts holds the coordinates.  A coordinate within LATTICE_TOL steps
        of the lattice is then inside iff its rounded index is, as a
        lattice gather decides; without the shift, one that rounds just
        below upper would be inside, where a trigonometric interpolant
        returns the periodic image of the first sample."""
        pts = _coordinates(pts, self.dim)
        shift = LATTICE_TOL * np.asarray(self.spacing)
        return np.all((pts >= np.asarray(self.origin) - shift)
                      & (pts < np.asarray(self.upper) - shift), axis=-1)

    def lattice_index(self, pts: np.ndarray):
        """Multi-indices of the points when every coordinate is within
        LATTICE_TOL steps of the lattice, else None; so is a point whose
        rounded index falls outside int64 (it is exactly integral in
        float64, but has no integer index)."""
        pts = _coordinates(pts, self.dim)
        frac = (pts - np.asarray(self.origin)) / np.asarray(self.spacing)
        idx = np.rint(frac)
        if not (np.all(np.abs(frac - idx) <= LATTICE_TOL)
                and np.all(np.abs(idx) < 2.0 ** 63)):
            return None
        return idx.astype(int)


def _integral(n) -> bool:
    """Whether n is an integral number: 16 or 16.0, not a string, a
    fraction such as 16.5 or NaN."""
    return isinstance(n, numbers.Integral) or (
        isinstance(n, numbers.Real) and float(n).is_integer())


def _grid_counts(counts) -> tuple:
    """Per-axis sample counts as ints, each an integral number (_integral)
    of at least 2; any other value is rejected, not truncated."""
    out = []
    for n in counts:
        if not _integral(n):
            raise ValueError(f"grid counts must be integers, got {n!r}")
        if n < 2:
            raise ValueError("grid counts must be at least 2 per axis")
        out.append(int(n))
    return tuple(out)


def _sample_values(values, counts: tuple, what: str) -> np.ndarray:
    """C-contiguous complex samples shaped counts (values of any other shape
    are reshaped to it, so they must hold exactly its number of samples),
    checked for NaN and Inf in chunks, so the check allocates one
    block-sized mask, not a mask the size of the samples."""
    vals = np.ascontiguousarray(values, dtype=complex).reshape(counts)
    parts = vals.reshape(-1).view(np.float64)
    step = 2 * BLOCK_ELEMS
    for lo in range(0, parts.size, step):
        if not np.isfinite(parts[lo:lo + step]).all():
            raise ValueError(f"{what} values must be finite (no NaN/Inf)")
    return vals


@dataclass
class Signal:
    """Complex samples of a function on a Grid, shaped like its counts.
    A spectrum is a Signal on the zero-centered dual lattice.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = _sample_values(self.values, self.grid.counts, "signal")


def _outer(parts: list) -> np.ndarray:
    """The product array parts[0][i_0] parts[1][i_1] ..., multiplied left to
    right: per-axis factors multiplied out to one array shaped like a grid."""
    out = parts[0]
    for p in parts[1:]:
        out = np.multiply.outer(out, p)
    return out


def primal_phase(grid: Grid) -> np.ndarray:
    """exp(-2 pi i c . i / N) with c = N // 2 per axis: the factor that
    re-centers an inverse FFT onto the zero-centered frequency index.  idft
    applies it last, so it commutes with pointwise products and sums.
    The array is the grid's cached, read-only table."""
    return _phase_tables(grid).primal


class _PhaseTables(NamedTuple):
    """The phase factors of dft and idft along some axes of one grid,
    shaped like the grid with 1 along the other axes."""

    dft_pre: np.ndarray     # conj(primal)
    dft_post: np.ndarray    # exp(-2 pi i xi . origin) * cell volume
    idft_pre: np.ndarray    # exp(2 pi i xi . origin) / cell volume
    primal: np.ndarray      # the primal_phase factor


def _phase_tables(grid: Grid, axes: tuple | None = None) -> _PhaseTables:
    """The grid's phase tables along axes (all of them by default), built
    once per grid and set of axes and read-only, so the batched transforms
    of a stream share them.  Every factor is a product of per-axis factors,
    so transforms along disjoint sets of axes compose to the transform
    along their union."""
    return _axis_tables(grid, tuple(range(grid.dim)) if axes is None else axes)


@functools.lru_cache(maxsize=16)
def _axis_tables(grid: Grid, axes: tuple) -> _PhaseTables:
    dual = grid.dual()
    shape = tuple(n if j in axes else 1 for j, n in enumerate(grid.counts))
    volume = float(np.prod([grid.spacing[j] for j in axes]))
    n = grid.counts
    primal = _outer([np.exp(-2j * np.pi * (n[j] // 2) * np.arange(n[j]) / n[j])
                     for j in axes]).reshape(shape)
    shift = [np.exp(-2j * np.pi * dual.axis(j) * grid.origin[j]) for j in axes]
    unshift = [np.exp(2j * np.pi * dual.axis(j) * grid.origin[j]) for j in axes]
    tables = _PhaseTables(np.conj(primal),
                          _outer(shift).reshape(shape) * volume,
                          _outer(unshift).reshape(shape) / volume,
                          primal)
    for t in tables:
        t.setflags(write=False)
    return tables


def _dft_inplace(work: np.ndarray, grid: Grid, axes: tuple | None = None) -> np.ndarray:
    """dft of work, a complex array shaped batch + grid.counts that the
    caller owns, along the given grid axes (all of them by default),
    computed in work's memory.  Use the returned array: it is work itself
    unless numpy.fft hands back a new one."""
    tables = _phase_tables(grid, axes)
    work *= tables.dft_pre
    work = np.fft.fftn(work, axes=_trailing(grid, axes), out=work)
    work *= tables.dft_post
    return work


def _idft_into(buf: np.ndarray, values: np.ndarray, out_grid: Grid,
               axes: tuple | None = None) -> np.ndarray:
    """The idft of spectrum values, shaped batch + out_grid.counts, along
    the given grid axes (all of them by default) and without the final
    primal phase, computed in buf (same shape, complex; it may be values
    itself).  values is otherwise only read."""
    np.multiply(values, _phase_tables(out_grid, axes).idft_pre, out=buf)
    return np.fft.ifftn(buf, axes=_trailing(out_grid, axes), out=buf)


def _trailing(grid: Grid, axes: tuple | None) -> tuple:
    """Grid axes as axes of an array shaped batch + grid.counts."""
    axes = range(grid.dim) if axes is None else axes
    return tuple(j - grid.dim for j in axes)


def dft(f: Signal) -> Signal:
    """Riemann-sum Fourier transform on the dual lattice, via FFT.

    f_hat(xi_m) = cell_volume * sum_i f(t_i) exp(-2 pi i xi_m . t_i), with the
    frequency index centered at zero and the grid-origin phase applied exactly.
    """
    return Signal(f.grid.dual(), _dft_inplace(f.values.copy(), f.grid))


def idft(spec: Signal, out_grid: Grid) -> Signal:
    """Exact inverse of :func:`dft` back onto the primal grid."""
    if out_grid.dual() != spec.grid:
        raise ValueError("out_grid is not the primal grid of this spectrum")
    vals = _idft_into(np.empty(spec.values.shape, dtype=complex), spec.values,
                      out_grid)
    vals *= primal_phase(out_grid)
    return Signal(out_grid, vals)


def _check_oracle_work(terms: int, what: str, hint: str = "") -> None:
    """Refuse an oracle sum of more than ORACLE_WORK_CAP terms."""
    if terms > ORACLE_WORK_CAP:
        raise ValueError(f"{what} work {terms} exceeds cap {ORACLE_WORK_CAP}{hint}")


def dft_oracle(f: Signal) -> Signal:
    """Direct evaluation of the same quadrature sum (_direct_sum).

    Deterministic for a fixed numpy/BLAS build and thread count; refuses
    more than ORACLE_WORK_CAP terms (N^2 for N samples, so N <= 11 585).
    """
    _check_oracle_work(f.grid.size ** 2, "dft oracle")
    dual = f.grid.dual()
    return Signal(dual, _direct_sum(f.values * f.grid.cell_volume, f.grid,
                                    dual.points(), -1))


def _direct_sum(values, grid: Grid, pts, sign: int) -> np.ndarray:
    """sum_t values[..., t] exp(sign 2 pi i t . p) over the samples t of
    grid (values shaped batch + grid.counts) for each row p of pts, shaped
    batch + (P,).  The phase is a product of per-axis phases, so each chunk
    of points builds one (N_a, chunk) table per axis (sum_a N_a P
    exponentials, not N_t P) and contracts the last axis by a matrix
    product and each other axis by an in-place multiply and a sum; the
    chunks keep the intermediate near BLOCK_ELEMS entries."""
    batch = values.shape[:values.ndim - grid.dim]
    rows = values.reshape(-1, grid.counts[-1])
    out = np.empty((math.prod(batch), len(pts)), dtype=complex)
    chunk = max(1, BLOCK_ELEMS // max(rows.shape[0], max(grid.counts)))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        tables = [np.exp(sign * 2j * np.pi * np.outer(grid.axis(a), p[:, a]))
                  for a in range(grid.dim)]
        acc = rows @ tables[-1]
        for a in range(grid.dim - 2, -1, -1):
            acc = acc.reshape(-1, grid.counts[a], len(p))
            acc *= tables[a]
            acc = acc.sum(axis=1)
        out[:, lo:lo + len(p)] = acc
    return out.reshape(batch + (len(pts),))


def inner_product(f: Signal, g: Signal) -> complex:
    """Quadrature L2 inner product (f, g) = cell_volume * sum f conj(g)."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires identical grids")
    return complex(f.grid.cell_volume * np.vdot(g.values, f.values))


def boundary_mass_fraction(f: Signal) -> float:
    """Fraction of the total |f| mass carried by the outermost sample layer."""
    mags = np.abs(f.values)
    total = float(mags.sum())
    if total == 0.0:
        return 0.0
    interior = mags[tuple(slice(1, -1) for _ in range(f.grid.dim))]
    return float((total - interior.sum()) / total)


def check_boundary_mass(f: Signal) -> float:
    frac = boundary_mass_fraction(f)
    if frac > BOUNDARY_MASS_THRESHOLD:
        warnings.warn(
            f"boundary carries {frac:.3e} of total mass "
            f"(> {BOUNDARY_MASS_THRESHOLD:.1e}); "
            "implicit periodization may not be negligible",
            BoundaryMassWarning,
            stacklevel=2,
        )
    return frac


def as_points(pts, dim: int) -> np.ndarray:
    """pts as a float array of shape (P, dim); a single point may be given
    as a flat vector.  Any other column count is rejected."""
    return _coordinates(np.asarray(pts, dtype=float), dim, ndim=2)


def _coordinates(pts, dim: int, ndim: int | None = None) -> np.ndarray:
    """pts with at least 2 axes (exactly ndim when given), the last one
    holding dim coordinates."""
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != dim or (ndim is not None and pts.ndim != ndim):
        raise ValueError(f"points must have {dim} coordinates each, "
                         f"got an array of shape {pts.shape}")
    return pts


def evaluate_trig(f: Signal, pts: np.ndarray) -> np.ndarray:
    """Trigonometric (Fourier) interpolation of the periodized signal.

    Exact at lattice points and for band-limited periodized signals.  The
    interpolant is periodic with the grid box, so a point outside the box
    gets the value of its periodic image inside it; callers that want zero
    extension mask with :meth:`Grid.contains`, as window_at does.

    It is the direct sum over the mode lattice (_direct_sum).  For points
    A s with s on a grid, :func:`evaluate_trig_grid` computes the same
    values with far less work.
    """
    pts = as_points(pts, f.grid.dim)
    spec = dft(f)
    return _direct_sum(spec.values * spec.grid.cell_volume, spec.grid, pts, 1)


def evaluate_trig_grid(f: Signal, A, out_grid: Grid) -> np.ndarray:
    """The trigonometric interpolant of f at A s for every s on out_grid,
    shaped out_grid.counts: ``evaluate_trig(f, out_grid.points() @ A.T)``
    by _trig_grid, the periodic interpolant, not zero outside f's box."""
    A = np.asarray(A, dtype=float)
    if A.shape != (f.grid.dim, out_grid.dim):
        raise ValueError(f"A must be {f.grid.dim} x {out_grid.dim} to map "
                         f"out_grid into f's grid, got shape {A.shape}")
    spec = dft(f)
    return _trig_grid(spec.grid, A, out_grid)(spec.values * spec.grid.cell_volume)[0]


def _trig_grid(modes: Grid, A: np.ndarray, out_grid: Grid):
    """evaluate(c), the sums sum_m c[b, m] exp(2 pi i X_m . A s) over the
    points X_m of the grid modes, shaped (B,) + out_grid.counts for the B
    rows of c (shaped batch + modes.counts); set up once, here, evaluate
    may run on any thread.

    X . A s = sum_l s_l sum_j A_jl X_j, so mode axis j contributes one
    (M_j, N_l) phase table per output axis l with A_jl != 0.  The mode axes
    are contracted last to first.  Each multiplies in its tables of the
    output axes already held and those of its new axes but the last, as
    new array axes, and is contracted against the last by a matrix product
    (with no new axis, against a held one by a matrix-vector product); no
    table over several output axes is formed.  Upper-triangular A (the C of
    a k = 1 frame) costs O(sum_j M_<=j N_>=j), a dense A M P.  Each row
    takes products of its own and the blocks depend on the shapes alone,
    so a row's values do not depend on the rows beside it.  The blocks cut
    the axes that the first contraction multiplies in (else its one axis),
    whole axes from the last one down, then the rows, so that the work
    buffers, which the blocks of a call reuse, hold about BLOCK_ELEMS entries.
    """
    M, N = modes.counts, out_grid.counts
    # steps: (mode axis j, output axes held before it, its new axes, the axis
    # it is contracted along, its tables, those of the new axes but the last
    # stored (N_l, M_j)); the intermediate is shaped (rows, M_0 ... M_j,
    # held...) before step j and (rows, M_0 ... M_j-1, new..., held...) after
    steps, held = [], []
    for j in reversed(range(modes.dim)):
        # a mode axis no output axis depends on is summed: its table along
        # the last output axis is all ones
        touched = [int(l) for l in np.flatnonzero(A[j])] or [len(N) - 1]
        new = [l for l in touched if l not in held]
        tables = {l: _phase_table(modes.axis(j), A[j, l], out_grid, l) for l in touched}
        tables.update({l: np.ascontiguousarray(tables[l].T) for l in new[:-1]})
        along = new[-1] if new else next(l for l in held if l in tables)
        steps.append((j, held, new, along, tables))
        held = new + held
    cut_axes = steps[0][2][:-1] or steps[0][2]
    # entries per row of the work buffers, with one index per cut axis: each
    # step's new axes but the last multiplied in one by one, then its product
    n1 = [1 if l in cut_axes else n for l, n in enumerate(N)]
    size = sum(math.prod(M[:j]) * math.prod(n1[l] for l in h) * (
        sum(M[j] * math.prod(n1[l] for l in new[:i]) for i in range(1, len(new)))
        + math.prod(n1[l] for l in new)) for j, h, new, _, _ in steps)
    cells = max(1, BLOCK_ELEMS // size)
    width = {}
    for l in reversed(cut_axes):        # the cells left are rows
        width[l] = min(N[l], cells)
        cells = max(1, cells // N[l])
    order = [0] + [1 + i for i in np.argsort(held)]

    def evaluate(c):
        c = c.reshape((-1,) + M)
        out = np.empty((len(c),) + N, dtype=complex)
        work = {}

        def buffer(key, shape):
            # the first block is the largest, so later blocks fit its buffers
            if key not in work:
                work[key] = np.empty(math.prod(shape), dtype=complex)
            return work[key][:math.prod(shape)].reshape(shape)

        for lo in range(0, len(c), cells):
            for corner in itertools.product(*(range(0, N[l], width[l]) for l in cut_axes)):
                cut = [slice(None)] * len(N)
                for l, a in zip(cut_axes, corner):
                    cut[l] = slice(a, a + width[l])
                n = [len(range(N[l])[cut[l]]) for l in range(len(N))]
                acc = c[lo:lo + cells]
                b = len(acc)
                for key, (j, h, new, along, tables) in enumerate(steps):
                    acc = acc.reshape((b, -1, M[j]) + tuple(n[l] for l in h))
                    for l in h:
                        if l in tables and l != along:
                            # acc is a buffer of this call once it holds an axis
                            acc *= tables[l][:, cut[l]].reshape(
                                [M[j]] + [n[x] if x == l else 1 for x in h])
                    t = tables[along][:, cut[along]]
                    if not new:
                        # a matrix-vector product per index along the held axis
                        k = 4 + h.index(along)
                        acc = acc.reshape(acc.shape[:k] + (-1,))
                        res = buffer(key, acc.shape[:2] + acc.shape[3:k] + (1, acc.shape[k]))
                        np.matmul(t.T[:, None, :], acc.transpose((0, 1, *range(3, k), 2, k)),
                                  out=res)
                        acc = res
                        continue
                    mode = acc.ndim - len(h) - 1
                    for i, l in enumerate(new[:-1]):
                        r = tables[l][cut[l]]
                        grown = buffer((key, i), acc.shape[:mode] + r.shape + acc.shape[mode + 1:])
                        np.multiply(acc.reshape(acc.shape[:mode] + (1,) + acc.shape[mode:]),
                                    r.reshape(r.shape + (1,) * len(h)), out=grown)
                        acc, mode = grown, mode + 1
                    q = math.prod(n[l] for l in h)
                    res = buffer(key, acc.shape[:mode] + (t.shape[1], q))
                    if h:
                        np.matmul(t.T, acc.reshape(-1, M[j], q), out=res.reshape(-1, t.shape[1], q))
                    else:
                        np.matmul(acc.reshape(b, -1, M[j]), t, out=res.reshape(b, -1, t.shape[1]))
                    acc = res
                # output axes that no mode touches broadcast
                acc = acc.reshape([b] + [n[l] for l in held]).transpose(order)
                out[(slice(lo, lo + b),) + tuple(cut)] = acc.reshape(
                    [b] + [n[l] if l in held else 1 for l in range(len(N))])
        return out

    return evaluate


def _phase_table(x: np.ndarray, a: float, grid: Grid, l: int) -> np.ndarray:
    """exp(2 pi i x_m a s_n) for the samples s_n of axis l of grid, shaped
    (len(x), N_l), from about 2 sqrt(N_l) exponentials per row, not N_l:
    with B = isqrt(N_l) and n = q B + r, s_n = s_qB + r h, so each entry is
    the product of a coarse table at s_qB and a fine one at r h, as FFT
    libraries build their twiddle factors.  Each entry's phases are rounded
    to a few ulps of their size, as np.exp of the full outer product rounds
    its one; for N_l < 4, B = 1 and the fine table is all ones.  The table
    is a view of the product, whose rows hold ceil(N_l / B) B entries.  The
    oracles keep the full product (_direct_sum), the reference the tests
    hold this table to."""
    n = grid.counts[l]
    b = math.isqrt(n)
    s = grid.axis(l)
    coarse = np.exp(2j * np.pi * np.outer(x, a * s[::b]))
    fine = np.exp(2j * np.pi * np.outer(x, a * (grid.spacing[l] * np.arange(b))))
    out = np.empty((len(x), coarse.shape[1], b), dtype=complex)
    np.multiply(coarse[:, :, None], fine[:, None, :], out=out)
    return out.reshape(len(x), -1)[:, :n]


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max |a - b| / max |b|, falling back to absolute error for zero reference."""
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    scale = float(np.max(np.abs(exact))) if exact.size else 0.0
    err = float(np.max(np.abs(approx - exact))) if exact.size else 0.0
    if scale == 0.0:
        return err
    return err / scale


def rel_l2_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 error; absolute L2 error when the reference is zero."""
    num = float(np.linalg.norm(np.ravel(approx) - np.ravel(exact)))
    den = float(np.linalg.norm(np.ravel(exact)))
    return num if den == 0.0 else num / den
