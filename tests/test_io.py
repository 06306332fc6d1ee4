import dataclasses
import os
import stat
import struct
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from dirstft import Grid, dstft_fast, gaussian_window
from dirstft.direction import build_frame
from dirstft.fixtures import random_bandlimited
from dirstft.sigio import read_field, read_signal, write_field, write_signal


@pytest.fixture
def signal():
    g = Grid.from_bounds([-4, -2], [4, 2], [16, 8])
    return random_bandlimited(g, 42, band=0.5)


def test_signal_binary_roundtrip(tmp_path, signal):
    p = tmp_path / "f.dstf"
    write_signal(p, signal)
    back = read_signal(p)
    assert back.grid == signal.grid
    assert np.array_equal(back.values, signal.values)


def test_field_binary_roundtrip(tmp_path, signal):
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    frame = build_frame([[0.6, 0.8]])
    F = dstft_fast(signal, win, frame)
    p = tmp_path / "F.dstf"
    write_field(p, F)
    back = read_field(p)
    assert back.y_grid == F.y_grid
    assert back.xi_grid == F.xi_grid
    assert np.allclose(back.frame.u, F.frame.u, atol=1e-15)
    assert np.array_equal(back.values, F.values)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "junk.dstf"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_signal(p)
    with pytest.raises(ValueError, match="magic"):
        read_field(p)


def test_version_mismatch_rejected(tmp_path, signal):
    p = tmp_path / "f.dstf"
    write_signal(p, signal)
    with pytest.raises(ValueError, match="version"):
        read_field(p)            # a v1 signal is not a field
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(signal, win, build_frame([[1.0, 0.0]]))
    q = tmp_path / "F.dstf"
    write_field(q, F)
    with pytest.raises(ValueError, match="version"):
        read_signal(q)


def test_binary_file_is_little_endian_layout(tmp_path, signal):
    p = tmp_path / "f.dstf"
    write_signal(p, signal)
    buf = p.read_bytes()
    assert buf[:4] == b"DSTF"
    assert int.from_bytes(buf[4:8], "little") == 1
    assert int.from_bytes(buf[8:12], "little") == 2      # dim
    expected = 12 + 2 * 24 + 16 * signal.grid.size
    assert len(buf) == expected


def _field_file(tmp_path, signal):
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    p = tmp_path / "F.dstf"
    write_field(p, dstft_fast(signal, win, build_frame([[1.0, 0.0]])))
    return p


def _signal_file(tmp_path, signal):
    p = tmp_path / "f.dstf"
    write_signal(p, signal)
    return p


@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_truncated_file_rejected(tmp_path, signal, make, read):
    p = make(tmp_path, signal)
    size = p.stat().st_size
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(ValueError,
                       match=f"expected {size} bytes, got {size - 16}"):
        read(p)


@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_trailing_bytes_rejected(tmp_path, signal, make, read):
    p = make(tmp_path, signal)
    size = p.stat().st_size
    p.write_bytes(p.read_bytes() + b"\x00" * 3)
    with pytest.raises(ValueError,
                       match=f"expected {size} bytes, got {size + 3}"):
        read(p)


@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_truncated_header_rejected(tmp_path, signal, make, read):
    p = make(tmp_path, signal)
    p.write_bytes(p.read_bytes()[:20])
    with pytest.raises(ValueError, match="truncated header"):
        read(p)


@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_read_samples_are_writable(tmp_path, signal, make, read):
    vals = read(make(tmp_path, signal)).values
    assert vals.flags.writeable and vals.flags.c_contiguous
    assert vals.dtype == np.complex128
    vals *= 2.0


@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_short_sample_read_rejected(tmp_path, signal, make, read, monkeypatch):
    # the file loses 16 bytes after its length was checked
    p = make(tmp_path, signal)
    p.write_bytes(p.read_bytes()[:-16])
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_mode=fstat(fd).st_mode, st_size=fstat(fd).st_size + 16))
    with pytest.raises(ValueError, match="file ended after"):
        read(p)


def _read_from_pipe(read, data):
    # the whole file fits in the pipe buffer, so no writer thread is needed
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("make, read", [(_signal_file, read_signal),
                                        (_field_file, read_field)])
def test_pipes_are_read_and_checked_as_they_are_read(tmp_path, signal, make,
                                                     read):
    # a pipe has no size to check up front: a whole file reads as from
    # disk, and a short or overlong one is caught while reading
    data = make(tmp_path, signal).read_bytes()
    assert len(data) < 65536
    back = _read_from_pipe(read, data)
    assert np.array_equal(back.values, read(make(tmp_path, signal)).values)
    got = 16 * back.values.size - 45
    with pytest.raises(ValueError, match=f"file ended after {got} of"):
        _read_from_pipe(read, data[:-45])
    with pytest.raises(ValueError, match="trailing bytes"):
        _read_from_pipe(read, data + b"\x00" * 3)
    with pytest.raises(ValueError, match="truncated header"):
        _read_from_pipe(read, data[:20])


def _grid_bytes(grid):
    return struct.pack("<I", grid.dim) + b"".join(
        struct.pack("<ddQ", o, s, n)
        for o, s, n in zip(grid.origin, grid.spacing, grid.counts))


def test_files_hold_the_documented_bytes(tmp_path, signal):
    # header fields packed one by one, then the samples as little-endian
    # complex128, byte for byte
    p = tmp_path / "f.dstf"
    write_signal(p, signal)
    assert p.read_bytes() == (b"DSTF" + struct.pack("<I", 1)
                              + _grid_bytes(signal.grid)
                              + signal.values.astype("<c16").tobytes())
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(signal, win, build_frame([[0.6, 0.8]]))
    q = tmp_path / "F.dstf"
    write_field(q, F)
    assert q.read_bytes() == (b"DSTF" + struct.pack("<I", 3)
                              + _grid_bytes(F.y_grid) + _grid_bytes(F.grid)
                              + struct.pack("<II", 2, 1)
                              + F.frame.u.astype("<f8").tobytes()
                              + F.values.astype("<c16").tobytes())


def test_version_2_field_reads_onto_the_zero_centered_signal_grid(tmp_path):
    # a version 2 file holds the xi lattice where version 3 holds the
    # signal grid; the lattice fixes that grid up to its origin, and the
    # reader takes the zero-centered one
    f = random_bandlimited(Grid.from_bounds([-3.7, -2.2], [4.3, 1.8], [16, 8]), 42)
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(f, win, build_frame([[0.6, 0.8]]))
    p = tmp_path / "F.dstf"
    p.write_bytes(b"DSTF" + struct.pack("<I", 2)
                  + _grid_bytes(F.y_grid) + _grid_bytes(F.xi_grid)
                  + struct.pack("<II", 2, 1) + F.frame.u.astype("<f8").tobytes()
                  + F.values.astype("<c16").tobytes())
    back = read_field(p)
    assert back.grid == Grid.from_bounds([-4, -2], [4, 2], [16, 8]) != F.grid
    assert back.xi_grid == F.xi_grid and back.y_grid == F.y_grid
    assert np.array_equal(back.frame.u, F.frame.u)
    assert np.array_equal(back.values, F.values)


def _field(signal):
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    return dstft_fast(signal, win, build_frame([[0.6, 0.8]]))


# (writer, what it writes made from the signal fixture)
WRITERS = {
    "signal": (write_signal, lambda s: s),
    "field": (write_field, _field),
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request, signal, tmp_path):
    """(write, old, new, fresh): a writer, two different things for it to
    write, and the bytes of new written to a path that did not exist."""
    write, make = WRITERS[request.param]
    old = make(signal)
    new = dataclasses.replace(old, values=old.values * (0.5 - 2j))
    fresh = tmp_path / "fresh"
    write(fresh, new)
    return write, old, new, fresh.read_bytes()


def test_rewrite_is_a_fresh_inode_with_the_bytes_of_a_fresh_write(tmp_path,
                                                                  writer):
    # a reader holding the old file keeps its bytes: the file was replaced,
    # not truncated and written over
    write, old, new, fresh = writer
    p = tmp_path / "out"
    write(p, old)
    before = p.read_bytes()
    with open(p, "rb") as held:
        write(p, new)
        assert held.read() == before
    assert p.read_bytes() == fresh


@pytest.mark.parametrize("mode", [0o600, 0o666], ids=["0600", "0666"])
def test_rewrite_keeps_the_permission_bits(tmp_path, writer, mode):
    # 0o666 is wider than the usual umask, which must not narrow it
    write, old, new, fresh = writer
    p = tmp_path / "out"
    write(p, old)
    os.chmod(p, mode)
    write(p, new)
    assert stat.S_IMODE(os.stat(p).st_mode) == mode
    assert p.read_bytes() == fresh


def test_symlinked_output_stays_a_link_to_the_new_bytes(tmp_path, writer):
    write, old, new, fresh = writer
    target, link = tmp_path / "target", tmp_path / "link"
    write(target, old)
    link.symlink_to(target)
    write(link, new)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


def test_hard_linked_output_is_written_in_place(tmp_path, writer):
    write, old, new, fresh = writer
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, old)
    os.link(a, b)
    write(a, new)
    assert os.stat(a).st_ino == os.stat(b).st_ino
    assert a.read_bytes() == b.read_bytes() == fresh


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_fifo_output_is_read_in_full_by_a_concurrent_reader(tmp_path, writer):
    write, old, new, fresh = writer
    p = tmp_path / "fifo"
    os.mkfifo(p)
    got = []

    def read():
        with open(p, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        write(p, new)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(p).st_mode)
    assert got == [fresh]
