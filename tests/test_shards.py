"""A factored y~ stream runs in per-CPU shards (transform._in_shards), runs
of its outer indices; a one-level stream has no outer index and runs as one
part, so its outputs and its memory are the same whatever the CPU count.
The shards' results match one shard's, the same worker count repeats bit
for bit, the caller's numpy error state reaches every shard, a fault inside
a shard reaches the caller, and no thread outlives a call.  The scan
streams in one pass on the calling thread, so it reports the same entries
whatever the worker count."""

import json
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirstft import (BallSpec, ConeSpec, Grid, Signal, Window, build_frame, dso,
                     dstft_fast, reconstruct, wavefront_scan)
from dirstft import transform
from dirstft.cli import main
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian
from dirstft.grids import BLOCK_ELEMS, rel_l2_error
from dirstft.synthesis import _frame_operator
from dirstft.transform import default_y_grid
from dirstft.wavefront import WindowClassWarning
from dirstft.windows import (_block_bounds, gaussian_window, gevrey_bump, pairing_check,
                             window_levels)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=25)
WORKERS = (1, 2, 3)


def force_workers(monkeypatch, n):
    monkeypatch.setattr(transform, "_cpu_count", lambda: n)


@st.composite
def factored_cases(draw):
    """(f, g, phi, frame, y_grid): a factored Gaussian g on a frame that permutes
    k signal axes (k = n = 2, k = 2 in R^3 with a blind axis, or k = n = 3),
    a y~ grid on the signal lattice with a stride per axis, and phi either g,
    another factored window or the same values with no factors (so that
    reconstruct streams both windows one level)."""
    k, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    top = 48 if n == 2 else 8
    counts = tuple(draw(st.integers(6, top)) for _ in range(n))
    grid = Grid(tuple(-0.25 * c for c in counts), (0.5,) * n, counts)
    perm = draw(st.permutations(range(k)))
    frame = build_frame(np.eye(n)[list(perm)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = Signal(grid, rng.normal(size=counts) + 1j * rng.normal(size=counts))

    def window():
        return gaussian_window(grid.take(perm), [draw(st.floats(0.5, 2.0)) for _ in perm])

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
    # reconstruct's stream before its division by M, and M, as the drawn y~
    # grids need not cover the window's reach
    field = dstft_fast(f, g, frame, y_grid=y_grid)
    return (field.values,
            *_frame_operator(f, g, phi, frame, y_grid, pairing_check(g, phi).value),
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


@st.composite
def one_level_cases(draw):
    """(f, g, phi, frame, y_grid, cones): a k = 1 frame in R^2 or R^3, a
    coordinate axis (the lattice gather) or a rotated direction (the
    trigonometric path), or a rotated k = 2 frame (the trigonometric path
    over two window mode axes), with a Gaussian or Gevrey-bump window and
    phi either g or the other kind of window; or a factored Gaussian g on a
    frame that permutes two signal axes with a one-level phi of other
    values.  The y~ grid takes a stride per axis and several blocks' rows."""
    n = draw(st.sampled_from([2, 3]))
    counts = tuple(2 * draw(st.integers(*((6, 16) if n == 2 else (4, 6))))
                   for _ in range(n))
    grid = Grid(tuple(-0.25 * c for c in counts), (0.5,) * n, counts)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = Signal(grid, rng.normal(size=counts) + 1j * rng.normal(size=counts))
    per_block = BLOCK_ELEMS // grid.size
    kind = draw(st.sampled_from(["coordinate", "rotated", "factored g", "rotated k = 2"]))
    if kind == "factored g":
        perm = draw(st.permutations(range(2)))
        frame = build_frame(np.eye(n)[list(perm)])
        g = gaussian_window(grid.take(perm), [draw(st.floats(0.5, 2.0)) for _ in perm])
        bump = gevrey_bump(g.grid, 0.2 * min(g.grid.counts), 2.0)
        phi = Window(g.grid, bump.values)
        y_counts = (draw(st.integers(2, 5)), draw(st.integers(2, per_block + 3)))
    else:
        k = 2 if kind == "rotated k = 2" else 1
        m = 2 * draw(st.integers(*((2, 5) if k == 2 else (4, 12))))
        wgrid = Grid((-0.25 * m,) * k, (0.5,) * k, (m,) * k)
        windows = [gaussian_window(wgrid, [draw(st.floats(0.5, 2.0)) for _ in range(k)]),
                   gevrey_bump(wgrid, 0.25 * m * draw(st.floats(0.4, 0.9)), 2.0)]
        g = windows.pop(draw(st.integers(0, 1)))
        phi = draw(st.sampled_from([g, windows[0]]))
        if kind == "coordinate":
            frame = build_frame(np.eye(n)[[draw(st.integers(0, n - 1))]])
        else:
            frame = build_frame(rng.normal(size=(k, n)))
        y_counts = ((draw(st.integers(2, 4)), draw(st.integers(2, per_block + 3))) if k == 2
                    else (draw(st.integers(2, 3 * per_block)),))
    base = default_y_grid(grid, frame)
    strides = [draw(st.integers(1, 3)) for _ in y_counts]
    y_grid = Grid(tuple(o - (c // 2) * h for o, c, h in zip(base.origin, base.counts,
                                                             base.spacing)),
                  tuple(h * s for h, s in zip(base.spacing, strides)), y_counts)
    r_min = 1.5 / (0.5 * min(counts))
    cones = [ConeSpec(tuple(c * e for e in np.eye(n)[j]), math.pi / 4, r_min)
             for j in range(n) for c in (1, -1)]
    return f, g, phi, frame, y_grid, cones


def scan(f, g, frame, y_grid, cones):
    """wavefront_scan with a cell over every y~ row, which straddles each
    shard cut, and cells of one row at the first, middle and last row."""
    Y = y_grid.points()
    reach = np.linalg.norm(Y - Y[0], axis=1).max() + 1
    cells = [BallSpec(tuple(Y[0]), reach)] + [
        BallSpec(tuple(Y[i]), 1e-9) for i in (0, len(Y) // 2, len(Y) - 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WindowClassWarning)
        return wavefront_scan(f, g, frame, 2.0, cells, cones, y_grid=y_grid)


@SETTINGS
@given(one_level_cases())
def test_one_level_shards_match_one_worker_and_repeat(case):
    # a one-level stream runs as one part on any worker count, so every
    # output has one worker's bytes
    f, g, phi, frame, y_grid, cones = case
    assert not window_levels(phi, f.grid, frame.u, y_grid).outer
    with pytest.MonkeyPatch.context() as mp:
        runs, reports = {}, {}
        for n in WORKERS:
            force_workers(mp, n)
            runs[n] = outputs(f, g, phi, frame, y_grid), outputs(f, g, phi, frame, y_grid)
            reports[n] = scan(f, g, frame, y_grid, cones)
    for n in WORKERS:
        for run in runs[n]:
            assert all(np.array_equal(a, b) for a, b in zip(run, runs[1][0]))
        assert reports[n] == reports[1]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_shards_are_runs_of_whole_outer_indices(monkeypatch, n):
    grid = Grid.from_bounds([-4, -4, -4], [4, 4, 4], [6, 5, 7])
    force_workers(monkeypatch, n)
    plan = transform._plan(grid, gaussian_window(grid, [1.0, 1.2, 1.5]),
                           identity_frame(3, 3).u, grid)
    levels = plan.levels
    cuts = [(a, b) for a, b, _ in plan.parts]
    assert len(cuts) == min(n, 30)
    assert [a for a, _ in cuts[1:]] == [b for _, b in cuts[:-1]]
    assert cuts[0][0] == 0 and cuts[-1][1] == grid.size
    for a, b, part in plan.parts:
        assert part.nt == grid.size         # whole blocks in each shard
        assert a % levels.inner == 0 and np.array_equal(part.rows, levels.rows[a:b])
        assert [(lo, hi) for lo, hi, _ in part.blocks] \
            == list(_block_bounds(b - a, grid.size))


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_a_one_level_plan_has_one_part_on_any_cpu_count(monkeypatch, n):
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    frame = build_frame([[1.0, 1.0]])
    # a y~ grid of several blocks' rows
    y_grid = Grid.from_bounds([-4], [4], [600])
    force_workers(monkeypatch, n)
    plan = transform._plan(grid, gaussian_window(grid.take([0]), 1.0), frame.u, y_grid)
    assert plan.levels.outer == ()
    ((a, b, part),) = plan.parts
    assert (a, b) == (0, y_grid.size) and np.array_equal(part.rows, plan.levels.rows)
    assert [(lo, hi) for lo, hi, _ in part.blocks] \
        == list(_block_bounds(y_grid.size, grid.size))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_a_one_level_off_lattice_transform_holds_one_bound_on_any_cpu_count(
        monkeypatch, n):
    # a bump off the lattice of a rotated k = n = 2 frame takes the
    # trigonometric window path, whose work buffers one part holds once
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(grid, 1.0)
    bump = gevrey_bump(Grid.from_bounds([-4, -4], [4, 4], [32, 32]), 1.5, 2.0)
    frame = build_frame([[0.6, 0.8], [-0.8, 0.6]])
    force_workers(monkeypatch, n)
    field = dstft_fast(f, bump, frame)      # fills the caches first
    assert not transform._plan(grid, bump, frame.u, field.y_grid).levels.outer
    bound = field.values.nbytes + f.values.nbytes + 8 * BLOCK_ELEMS * 16
    del field
    tracemalloc.start()
    try:
        dstft_fast(f, bump, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_one_level_outputs_are_byte_identical_on_any_cpu_count(monkeypatch):
    # the diag_files benchmark's inputs (u = (1, 1)/sqrt2, one-level), and
    # reconstruct of a factored g with a phi of no factors, a one-level pair
    grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    f = gaussian(grid, 1.0, [0.4, -0.7], [0.3, -0.5])
    win = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    frame = build_frame([[1.0, 1.0]])
    g = gaussian_window(grid, [1.0, 1.3])
    phi = Window(g.grid, gaussian_window(grid, [1.2, 0.9]).values)
    identity = identity_frame(2, 2)

    def calls():
        field = dstft_fast(f, win, frame)
        return (field.values, dso(field, win, frame, grid).values,
                reconstruct(f, g, phi, identity).values)

    runs = {}
    for n in (1, 2, 3, 8):
        force_workers(monkeypatch, n)
        runs[n] = calls()
    for n in (2, 3, 8):
        assert all(np.array_equal(a, b) for a, b in zip(runs[n], runs[1]))


def test_the_worker_count_is_the_cpus_this_process_may_use():
    assert transform._cpu_count() == len(os.sched_getaffinity(0))


def test_more_shards_than_cpus_under_a_short_switch_interval(monkeypatch):
    # each shard writes only its own field rows and accumulator; a lost or
    # crossed write would change the field or the reconstruction, and the
    # scan, in one pass on the calling thread, must report alike
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = gaussian(grid, 1.0, [0.5, -0.3], [0.25, 0.5])
    g = gaussian_window(grid, [1.0, 1.3])
    frame = identity_frame(2, 2)
    bump = gevrey_bump(Grid.from_bounds([-4], [4], [32]), 2.0, 2.0)
    e1 = build_frame([[1.0, 0.0]])
    cells = [BallSpec((0.0,), 8.0), BallSpec((2.0,), 1.0)]
    cones = [ConeSpec((1.0, 0.0), 0.5, 0.5), ConeSpec((0.0, 1.0), 0.5, 0.5)]

    def calls():
        return (dstft_fast(f, g, frame).values, reconstruct(f, g, g, frame).values,
                dstft_fast(f, bump, e1).values,
                wavefront_scan(f, bump, e1, 2.0, cells, cones))

    force_workers(monkeypatch, 1)
    want = calls()
    force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = calls()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert rel_l2_error(got[1], want[1]) <= 1e-15
    assert got[3] == want[3]


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



def test_the_callers_error_state_reaches_every_shard(monkeypatch):
    # a k=n=2 transform that overflows only at the outer indices of its
    # second shard, which runs on a worker thread
    grid = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = Signal(grid, np.where(grid.points()[:, 0] >= 5, 1e308, 0.0))
    g = gaussian_window(grid, [1.0, 1.0])
    frame = identity_frame(2, 2)
    force_workers(monkeypatch, 2)
    (_, cut, _), _ = transform._plan(grid, g, frame.u, grid).parts
    first = Grid(grid.origin, grid.spacing, (cut // grid.counts[1], grid.counts[1]))
    with np.errstate(over="raise"):
        dstft_fast(f, g, frame, y_grid=first)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError):
                dstft_fast(f, g, frame)
    assert caught == []


@pytest.mark.parametrize("call", ["dso", "wavefront_scan"])
def test_one_level_shards_memory_bounded(monkeypatch, call):
    # a one-level stream runs as one part, however many CPUs; the bound is
    # test_reconstruct_memory_bounded's
    grid = Grid.from_bounds([-8, -8], [8, 8], [64, 64])
    f = gaussian(grid, sigma=1.0)
    frame = build_frame([[1.0, 1.0]])
    win = gevrey_bump(Grid.from_bounds([-4], [4], [32]), 2.0, 2.0)
    field = dstft_fast(f, win, frame) if call == "dso" else None
    force_workers(monkeypatch, 2)
    cells = [BallSpec((y,), 0.5) for y in (-2.0, 0.0, 2.0)]
    bound = f.values.nbytes + 8 * BLOCK_ELEMS * 16
    tracemalloc.start()
    try:
        if call == "dso":
            dso(field, win, frame, grid)
        else:
            wavefront_scan(f, win, frame, 2.0, cells, [ConeSpec((1.0, 1.0), 0.5, 0.5)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
