"""Binary file formats.

Signal (version 1):
    magic "DSTF", version u32 = 1, dim u32,
    per axis: origin f64, spacing f64, count u64,
    then interleaved (re, im) f64 samples in row-major index order.

Field (version 3):
    magic "DSTF", version u32 = 3,
    y-grid header (dim + axes as above), signal-grid header,
    frame block: n u32, k u32, then k*n f64 direction rows,
    then interleaved (re, im) f64 field samples, y-major then xi row-major,
    xi on the zero-centered dual lattice of the signal grid.

A version 2 field has the same layout with the xi-lattice header in place
of the signal-grid header; it is read onto the lattice's zero-centered
dual, the signal grid it fixes up to the origin.

All values little-endian.  Readers reject a file whose length differs from
the one its header implies (truncated, or with trailing bytes): a regular
file before unpacking any samples, a pipe or FIFO as it is read.  They read
the samples straight into the array they return; writers write them from
the array's own memory.

Every writer opens its output with create(), which replaces an ordinary
file on a fresh inode instead of truncating it in place.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .direction import build_frame
from .grids import Grid, Signal
from .transform import DstftField

MAGIC = b"DSTF"
SIGNAL_VERSION = 1
FIELD_VERSION = 3


def create(path, mode: str = "wb"):
    """path opened for writing in mode, as open(path, mode) opens it, except
    that an ordinary file is replaced on a fresh inode instead of truncated.

    An ordinary file is a regular file with one link, owned by this process's
    user and writable by it.  It is unlinked and made again, with its
    permission bits, so its old pages are dropped unwritten: a truncation
    waits on some filesystems (ext4) for the write-back of the file's
    previous contents, which a file written and then rewritten at once has
    not finished.  A missing path, a symlink (written through to its
    target), a FIFO, a device or a hard-linked file is opened by
    open(path, mode) itself, and so is an ordinary file that its directory
    does not let this process unlink.  Nothing is synced, before or after.
    """
    try:
        st = os.lstat(path)
    except (OSError, TypeError):    # missing, or an integer descriptor
        return open(path, mode)
    if not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and st.st_uid == os.geteuid() and os.access(path, os.W_OK)):
        return open(path, mode)
    try:
        os.unlink(path)
    except OSError:                 # a read-only or sticky directory
        return open(path, mode)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                 stat.S_IMODE(st.st_mode))
    try:
        os.fchmod(fd, stat.S_IMODE(st.st_mode))     # past the umask
        return open(fd, mode)
    except BaseException:
        os.close(fd)
        raise


def _pack_grid(grid: Grid) -> bytes:
    out = [struct.pack("<I", grid.dim)]
    for j in range(grid.dim):
        out.append(struct.pack("<ddQ", grid.origin[j], grid.spacing[j],
                               grid.counts[j]))
    return b"".join(out)


def _read_header(fh, fmt: str, path) -> tuple:
    """The next header fields of fmt, from the file's current position."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated header (got {len(raw)} of "
                         f"{size} bytes)")
    return struct.unpack(fmt, raw)


def _read_start(fh, path, versions: tuple, what: str) -> int:
    """The version of the file, one of versions, after its magic."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    (got,) = _read_header(fh, "<I", path)
    if got not in versions:
        raise ValueError(f"{path}: expected {what} version "
                         f"{' or '.join(map(str, versions))}, got {got}")
    return got


def _read_grid(fh, path) -> Grid:
    (dim,) = _read_header(fh, "<I", path)
    origin, spacing, counts = [], [], []
    for _ in range(dim):
        o, s, n = _read_header(fh, "<ddQ", path)
        origin.append(o)
        spacing.append(s)
        counts.append(n)
    return Grid(tuple(origin), tuple(spacing), tuple(counts))


def _check_length(path, fh, rest: int) -> None:
    """Reject a regular file whose length is not the header read so far
    plus rest bytes (truncated, or with trailing bytes) before anything
    more is read.  Other files (pipes, FIFOs) have no length to check up
    front; _read_values rejects them as it reads."""
    st = os.fstat(fh.fileno())
    if not stat.S_ISREG(st.st_mode):
        return
    expected = fh.tell() + rest
    if st.st_size != expected:
        raise ValueError(f"{path}: expected {expected} bytes, "
                         f"got {st.st_size}")


def _write_values(fh, values: np.ndarray) -> None:
    # little-endian complex128 is the interleaved (re, im) f64 layout; an
    # array already in it (any Signal or field on a little-endian machine)
    # is written from its own memory, without a copy
    vals = np.ascontiguousarray(values, dtype="<c16")
    fh.write(memoryview(vals.reshape(-1).view(np.uint8)))


def _read_values(fh, path, count: int) -> np.ndarray:
    """The last count samples of the file, read straight into one writable
    complex array; a file that ends early or goes on after them is
    rejected."""
    vals = np.empty(count, dtype="<c16")
    buf = memoryview(vals.view(np.uint8))
    got = fh.readinto(buf)
    if got != len(buf):
        raise ValueError(f"{path}: file ended after {got} of {len(buf)} "
                         f"sample bytes")
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after {len(buf)} sample "
                         f"bytes")
    return vals.astype(complex, copy=False)


def write_signal(path, f: Signal) -> None:
    with create(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", SIGNAL_VERSION))
        fh.write(_pack_grid(f.grid))
        _write_values(fh, f.values)


def read_signal(path) -> Signal:
    with open(path, "rb") as fh:
        _read_start(fh, path, (SIGNAL_VERSION,), "signal")
        grid = _read_grid(fh, path)
        _check_length(path, fh, 16 * grid.size)
        vals = _read_values(fh, path, grid.size)
    return Signal(grid, vals.reshape(grid.counts))


def write_field(path, F: DstftField) -> None:
    head = (MAGIC + struct.pack("<I", FIELD_VERSION) + _pack_grid(F.y_grid)
            + _pack_grid(F.grid) + struct.pack("<II", F.frame.n, F.frame.k)
            + np.ascontiguousarray(F.frame.u, dtype="<f8").tobytes())
    with create(path) as fh:
        fh.write(head)
        _write_values(fh, F.values)


def read_field(path) -> DstftField:
    with open(path, "rb") as fh:
        version = _read_start(fh, path, (2, FIELD_VERSION), "field")
        y_grid = _read_grid(fh, path)
        grid = _read_grid(fh, path)
        if version == 2:        # the header holds the xi lattice
            grid = grid.dual()
        n, k = _read_header(fh, "<II", path)
        _check_length(path, fh, 8 * n * k + 16 * y_grid.size * grid.size)
        u = np.array(_read_header(fh, f"<{n * k}d", path)).reshape(k, n)
        vals = _read_values(fh, path, y_grid.size * grid.size)
    return DstftField(y_grid, grid, vals, build_frame(u))

