"""Factored y~ streams run in per-CPU shards of their outer indices
(transform._in_shards): the shards' results match one shard's, the same
worker count repeats bit for bit, one-level streams stay one shard, a fault
inside a shard reaches the caller, and no thread outlives a call."""

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirstft import Grid, Signal, Window, build_frame, dso, dstft_fast, reconstruct
from dirstft import transform
from dirstft.cli import main
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian
from dirstft.grids import BLOCK_ELEMS, rel_l2_error
from dirstft.transform import default_y_grid
from dirstft.windows import (_axis_grid, _block_bounds, gaussian_window, tensor_window,
                             window_levels)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=25)
WORKERS = (1, 2, 3)


def force_workers(monkeypatch, n):
    monkeypatch.setattr(transform, "_cpu_count", lambda: n)


@st.composite
def factored_cases(draw):
    """(f, g, phi, frame, y_grid): a tensor window g on a frame that permutes
    k signal axes (k = n = 2, k = 2 in R^3 with a blind axis, or k = n = 3),
    a y~ grid on the signal lattice with a stride per axis, and phi either g,
    another factored window or the same values with no factors (one level,
    so reconstruct multiplies in the phase table of the mixed axes)."""
    k, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    top = 48 if n == 2 else 8
    counts = tuple(draw(st.integers(6, top)) for _ in range(n))
    grid = Grid(tuple(-0.25 * c for c in counts), (0.5,) * n, counts)
    perm = draw(st.permutations(range(k)))
    frame = build_frame(np.eye(n)[list(perm)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = Signal(grid, rng.normal(size=counts) + 1j * rng.normal(size=counts))

    def window():
        return tensor_window([gaussian_window(_axis_grid(grid, j), draw(st.floats(0.5, 2.0)))
                              for j in perm])

    g = window()
    phi = draw(st.sampled_from(["g", "factored", "unfactored"]))
    if phi == "g":
        phi = g
    else:
        phi = window() if phi == "factored" else Window(g.grid, window().values, g.kind)
    # from half the signal's extent below it, in strides of the lattice;
    # the innermost axis takes up to twice a block's rows, never a multiple
    # of them, so some blocks straddle outer indices
    base = default_y_grid(grid, frame)
    strides = [draw(st.integers(1, 3)) for _ in range(k)]
    per_block = BLOCK_ELEMS // grid.size
    y_counts = [draw(st.integers(2, 6 if k == 2 else 3)) for _ in range(k - 1)]
    y_counts.append(draw(st.integers(0, 1)) * per_block
                    + draw(st.integers(2, per_block - 1)))
    y_grid = Grid(tuple(o - (c // 2) * h for o, c, h in zip(base.origin, base.counts,
                                                             base.spacing)),
                  tuple(h * s for h, s in zip(base.spacing, strides)), tuple(y_counts))
    return f, g, phi, frame, y_grid


def outputs(f, g, phi, frame, y_grid):
    field = dstft_fast(f, g, frame, y_grid=y_grid)
    return (field.values, reconstruct(f, g, phi, frame, y_grid=y_grid).values,
            dso(field, phi, frame, f.grid).values)


@SETTINGS
@given(factored_cases())
def test_shards_match_one_worker_and_repeat(case):
    f, g, phi, frame, y_grid = case
    assert window_levels(g, f.grid, frame.u, y_grid).outer
    with pytest.MonkeyPatch.context() as mp:
        runs = {}
        for n in WORKERS:
            force_workers(mp, n)
            runs[n] = outputs(*case), outputs(*case)
    field1, *rest1 = runs[1][0]
    for n in WORKERS:
        first, again = runs[n]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert np.array_equal(first[0], field1)
        assert all(rel_l2_error(a, b) <= 1e-15 for a, b in zip(first[1:], rest1))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_shards_are_runs_of_whole_outer_indices(n):
    grid = Grid.from_bounds([-4, -4, -4], [4, 4, 4], [6, 5, 7])
    levels = window_levels(gaussian_window(grid, [1.0, 1.2, 1.5]), grid,
                           identity_frame(3, 3).u, grid)
    shards = levels.split(n)
    assert len(shards) == min(n, 30)
    assert [a for a, _, _ in shards[1:]] == [b for _, b, _ in shards[:-1]]
    assert shards[0][0] == 0 and shards[-1][1] == grid.size
    for a, b, part in shards:
        assert a % levels.inner == 0 and np.array_equal(part.rows, levels.rows[a:b])
        assert [(lo, hi) for lo, hi, _ in part.blocks] \
            == list(_block_bounds(b - a, grid.size))


def test_a_one_level_stream_is_one_inline_shard():
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    frame = build_frame([[1.0, 1.0]])
    levels = window_levels(gaussian_window(_axis_grid(grid, 0), 1.0), grid,
                           frame.u, default_y_grid(grid, frame))
    assert levels.outer == ()
    (a, b, part), = levels.split(4)
    assert (a, b) == (0, grid.counts[0]) and part is levels


def test_the_worker_count_is_the_cpus_this_process_may_use():
    assert transform._cpu_count() == len(os.sched_getaffinity(0))


def test_more_shards_than_cpus_under_a_short_switch_interval(monkeypatch):
    # each shard writes only its own field rows and accumulator; a lost or
    # crossed write would change the field or the reconstruction
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, 1.0, [0.5, -0.3], [0.25, 0.5])
    g = gaussian_window(grid, [1.0, 1.3])
    frame = identity_frame(2, 2)
    force_workers(monkeypatch, 1)
    want = dstft_fast(f, g, frame).values, reconstruct(f, g, g, frame).values
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = dstft_fast(f, g, frame).values, reconstruct(f, g, g, frame).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got[0], want[0])
    assert rel_l2_error(got[1], want[1]) <= 1e-15


class Fault:
    """numpy.fft.fftn that raises exc on its n-th call from a thread other
    than the main one, so inside a shard that runs on a worker thread, or
    from the main thread when on_main."""

    def __init__(self, fftn, exc, n, on_main=False):
        self.fftn, self.exc, self.n, self.on_main = fftn, exc, n, on_main
        self.calls, self.lock, self.fired = 0, threading.Lock(), False

    def __call__(self, *args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == self.on_main:
            with self.lock:
                self.calls += 1
                fire = self.calls == self.n
            if fire:
                self.fired = True
                raise self.exc("injected fault")
        return self.fftn(*args, **kwargs)


@pytest.mark.parametrize("on_main", [False, True])
@pytest.mark.parametrize("exc", [ValueError, MemoryError])
def test_a_fault_in_a_shard_reaches_the_caller(monkeypatch, exc, on_main):
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, 1.0)
    g = gaussian_window(grid, [1.0, 1.0])
    force_workers(monkeypatch, 2)
    before = threading.active_count()
    for call in (lambda: dstft_fast(f, g, identity_frame(2, 2)),
                 lambda: reconstruct(f, g, g, identity_frame(2, 2))):
        fault = Fault(np.fft.fftn, exc, 7, on_main)
        monkeypatch.setattr(np.fft, "fftn", fault)
        with pytest.raises(exc, match="injected fault"):
            call()
        monkeypatch.setattr(np.fft, "fftn", fault.fftn)
        assert fault.fired and threading.active_count() == before


@pytest.mark.parametrize("exc", [ValueError, MemoryError])
def test_roundtrip_exits_2_on_a_fault_in_a_shard(tmp_path, monkeypatch, capsys, exc):
    grid = {"bounds": [[-8, -8], [8, 8]], "counts": [32, 32]}
    gen = {"schema_version": 1, "kind": "gaussian", "grid": grid,
           "out": str(tmp_path / "f.dstf")}
    cfg = {"schema_version": 1, "signal": str(tmp_path / "f.dstf"),
           "window_g": {"kind": "gaussian", "sigma": [1.0, 1.0], "grid": grid},
           "frame": {"u": [[1.0, 0.0], [0.0, 1.0]]}}
    for name, c in (("gen", gen), ("roundtrip", cfg)):
        (tmp_path / f"{name}.json").write_text(json.dumps(c))
    assert main(["gen", "--config", str(tmp_path / "gen.json")]) == 0
    force_workers(monkeypatch, 2)
    fault = Fault(np.fft.fftn, exc, 7)
    monkeypatch.setattr(np.fft, "fftn", fault)
    before = threading.active_count()
    capsys.readouterr()
    assert main(["roundtrip", "--config", str(tmp_path / "roundtrip.json")]) == 2
    assert fault.fired and threading.active_count() == before
    assert capsys.readouterr().err.startswith("error:")


def test_no_thread_outlives_a_public_call(monkeypatch):
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, 1.0)
    g = gaussian_window(grid, [1.0, 1.0])
    frame = identity_frame(2, 2)
    force_workers(monkeypatch, 3)
    before = set(threading.enumerate())
    field = dstft_fast(f, g, frame)
    dso(field, g, frame, grid)
    reconstruct(f, g, g, frame)
    assert set(threading.enumerate()) == before

