import numpy as np
import pytest

from dirstft import Grid, dstft_fast, gaussian_window
from dirstft.direction import build_frame
from dirstft.fixtures import random_bandlimited
from dirstft.sigio import (read_field, read_signal, read_signal_csv,
                           write_field, write_magnitude_csv, write_signal,
                           write_signal_csv)


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


def test_signal_csv_roundtrip(tmp_path, signal):
    p = tmp_path / "f.csv"
    write_signal_csv(p, signal)
    back = read_signal_csv(p)
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
        read_field(p)            # a v1 signal is not a v2 field
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(signal, win, build_frame([[1.0, 0.0]]))
    q = tmp_path / "F.dstf"
    write_field(q, F)
    with pytest.raises(ValueError, match="version"):
        read_signal(q)


def test_csv_missing_header_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0,1.0,0.0\n")
    with pytest.raises(ValueError, match="metadata"):
        read_signal_csv(p)


def test_magnitude_csv_shape(tmp_path, signal):
    win = gaussian_window(Grid.from_bounds([-4], [4], [16]), 1.0)
    F = dstft_fast(signal, win, build_frame([[1.0, 0.0]]))
    p = tmp_path / "mag.csv"
    write_magnitude_csv(p, F, y_flat_index=3)
    rows = [r for r in p.read_text().splitlines() if r]
    mat = np.array([[float(x) for x in r.split(",")] for r in rows])
    assert mat.shape == (16, 8)
    assert np.allclose(mat, np.abs(F.slice_at(3)))


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
