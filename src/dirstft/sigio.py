"""Binary and CSV file formats.

Signal (version 1):
    magic "DSTF", version u32 = 1, dim u32,
    per axis: origin f64, spacing f64, count u64,
    then interleaved (re, im) f64 samples in row-major index order.

Field (version 2):
    magic "DSTF", version u32 = 2,
    y-grid header (dim + axes as above), xi-grid header,
    frame block: n u32, k u32, then k*n f64 direction rows,
    then interleaved (re, im) f64 field samples, y-major then xi row-major.

All values little-endian.  Readers reject a file whose length differs from
the one its header implies (truncated, or with trailing bytes) before
unpacking any samples.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .direction import DirectionFrame, build_frame
from .grids import Grid, Signal
from .transform import DstftField

MAGIC = b"DSTF"
SIGNAL_VERSION = 1
FIELD_VERSION = 2


def _pack_grid(grid: Grid) -> bytes:
    out = [struct.pack("<I", grid.dim)]
    for j in range(grid.dim):
        out.append(struct.pack("<ddQ", grid.origin[j], grid.spacing[j],
                               grid.counts[j]))
    return b"".join(out)


def _unpack_from(fmt: str, buf: bytes, off: int, path) -> tuple:
    try:
        return struct.unpack_from(fmt, buf, off)
    except struct.error:
        raise ValueError(f"{path}: truncated header ({len(buf)} bytes)") from None


def _unpack_grid(buf: bytes, off: int, path):
    (dim,) = _unpack_from("<I", buf, off, path)
    off += 4
    origin, spacing, counts = [], [], []
    for _ in range(dim):
        o, s, n = _unpack_from("<ddQ", buf, off, path)
        off += 24
        origin.append(o)
        spacing.append(s)
        counts.append(n)
    return Grid(tuple(origin), tuple(spacing), tuple(counts)), off


def _check_length(path, buf: bytes, expected: int) -> None:
    """Reject truncated files and trailing bytes before anything is unpacked."""
    if len(buf) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(buf)}")


def _pack_values(values: np.ndarray) -> bytes:
    # little-endian complex128 is the interleaved (re, im) f64 layout
    return np.ascontiguousarray(values, dtype="<c16").tobytes()


def _unpack_values(buf: bytes, off: int, count: int) -> np.ndarray:
    return np.frombuffer(buf, dtype="<c16", count=count, offset=off).astype(complex)


def write_signal(path, f: Signal) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", SIGNAL_VERSION))
        fh.write(_pack_grid(f.grid))
        fh.write(_pack_values(f.values))


def read_signal(path) -> Signal:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    (version,) = _unpack_from("<I", buf, 4, path)
    if version != SIGNAL_VERSION:
        raise ValueError(f"{path}: expected signal version {SIGNAL_VERSION}, "
                         f"got {version}")
    grid, off = _unpack_grid(buf, 8, path)
    _check_length(path, buf, off + 16 * math.prod(grid.counts))
    vals = _unpack_values(buf, off, grid.size)
    return Signal(grid, vals.reshape(grid.counts))


def write_signal_csv(path, f: Signal) -> None:
    """One sample per line: index tuple, then re, im.  Grid metadata is kept
    in leading comment lines so the file round-trips."""
    with open(path, "w") as fh:
        fh.write(f"# dim,{f.grid.dim}\n")
        fh.write("# origin," + ",".join(repr(float(x)) for x in f.grid.origin) + "\n")
        fh.write("# spacing," + ",".join(repr(float(x)) for x in f.grid.spacing) + "\n")
        fh.write("# counts," + ",".join(str(n) for n in f.grid.counts) + "\n")
        flat = f.values.ravel()
        for m, idx in enumerate(np.ndindex(f.grid.counts)):
            cells = [str(i) for i in idx] + [repr(float(flat[m].real)),
                                             repr(float(flat[m].imag))]
            fh.write(",".join(cells) + "\n")


def read_signal_csv(path) -> Signal:
    meta = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(",")
                meta[parts[0]] = parts[1:]
                continue
            rows.append(line.split(","))
    if "counts" not in meta:
        raise ValueError(f"{path}: missing grid metadata header")
    grid = Grid(tuple(float(x) for x in meta["origin"]),
                tuple(float(x) for x in meta["spacing"]),
                tuple(int(x) for x in meta["counts"]))
    vals = np.zeros(grid.size, dtype=complex)
    for row in rows:
        idx = tuple(int(x) for x in row[:grid.dim])
        flat = np.ravel_multi_index(idx, grid.counts)
        vals[flat] = float(row[grid.dim]) + 1j * float(row[grid.dim + 1])
    return Signal(grid, vals.reshape(grid.counts))


def write_field(path, F: DstftField) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FIELD_VERSION))
        fh.write(_pack_grid(F.y_grid))
        fh.write(_pack_grid(F.xi_grid))
        fh.write(struct.pack("<II", F.frame.n, F.frame.k))
        fh.write(np.ascontiguousarray(F.frame.u, dtype="<f8").tobytes())
        fh.write(_pack_values(F.values))


def read_field(path) -> DstftField:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {buf[:4]!r}")
    (version,) = _unpack_from("<I", buf, 4, path)
    if version != FIELD_VERSION:
        raise ValueError(f"{path}: expected field version {FIELD_VERSION}, "
                         f"got {version}")
    y_grid, off = _unpack_grid(buf, 8, path)
    xi_grid, off = _unpack_grid(buf, off, path)
    n, k = _unpack_from("<II", buf, off, path)
    off += 8
    _check_length(path, buf, off + 8 * n * k
                  + 16 * math.prod(y_grid.counts) * math.prod(xi_grid.counts))
    u = np.frombuffer(buf, dtype="<f8", count=n * k, offset=off).reshape(k, n)
    off += 8 * n * k
    frame = build_frame(u)
    vals = _unpack_values(buf, off, y_grid.size * xi_grid.size)
    return DstftField(y_grid, xi_grid,
                      vals.reshape(y_grid.counts + xi_grid.counts), frame=frame)


def write_magnitude_csv(path, F: DstftField, y_flat_index: int = 0) -> None:
    """|F| on one y~ slice as a CSV matrix (first two xi axes; higher axes
    are flattened into rows)."""
    mags = np.abs(F.slice_at(y_flat_index))
    mat = mags.reshape(mags.shape[0], -1) if mags.ndim > 1 else mags[None, :]
    with open(path, "w") as fh:
        for row in mat:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
