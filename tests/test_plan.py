"""Every y~ stream builds one plan (transform._plan) before it allocates
anything, and then only executes it: the window levels, the half axis and
the shard parts are decided in the builder and nowhere else.  A y~ grid
of the wrong dimension is refused by name, and the CPU count falls back
to os.cpu_count where the platform reports no CPU affinity."""

import math
import os
import sys

import numpy as np
import pytest

from dirstft import (BallSpec, ConeSpec, DstftField, Grid, build_frame, dso,
                     dstft_direct, dstft_fast, reconstruct, wavefront_scan)
from dirstft import synthesis, transform, wavefront, windows
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, heaviside_sheet
from dirstft.windows import WindowLevels, gaussian_window, gevrey_bump

GRID = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
BUMP = gevrey_bump(Grid.from_bounds([-4], [4], [32]), 2.0, 2.0)
CELLS = [BallSpec((0.0,), 2.0), BallSpec((3.0,), 1.0)]
CONES = [ConeSpec((1.0, 0.0), 0.5, 0.5), ConeSpec((0.0, 1.0), 0.5, 0.5)]


def calls():
    """One call of each streaming entry point, by name: a factored k = n = 2
    stream, a real one-level stream on half its spectrum, a factored pair of
    windows in one shape, and the scan."""
    f = gaussian(GRID, 1.0, [0.5, -0.3], [0.25, 0.5])
    sheet = heaviside_sheet(GRID, (1.0, 0.0), 0.2)
    g = gaussian_window(GRID, [1.0, 1.3])
    phi = gaussian_window(GRID, [1.2, 0.9])
    frame, e1 = identity_frame(2, 2), build_frame([[1.0, 0.0]])
    field = dstft_fast(f, g, frame)
    return {
        "dstft_fast": lambda: dstft_fast(f, g, frame),
        "dstft_fast half": lambda: dstft_fast(sheet, BUMP, e1),
        "dso": lambda: dso(field, g, frame, GRID),
        "reconstruct": lambda: reconstruct(f, g, phi, frame),
        "wavefront_scan": lambda: wavefront_scan(sheet, BUMP, e1, 2.0, CELLS, CONES),
    }


@pytest.mark.parametrize("name", list(calls()))
def test_each_streaming_entry_point_builds_one_plan(monkeypatch, name):
    call = calls()[name]
    monkeypatch.setattr(transform, "_cpu_count", lambda: 2)
    built = []
    plan = transform._plan

    def counted(*args, **kwargs):
        built.append(plan(*args, **kwargs))
        return built[-1]

    for module in (transform, synthesis, wavefront):
        monkeypatch.setattr(module, "_plan", counted)
    call()
    assert len(built) == 1
    # a one-level stream, and the scan's, runs as one part
    assert len(built[0].parts) == (1 if name in ("dstft_fast half", "wavefront_scan")
                                   else 2)
    assert (built[0].half is not None) == (name in ("dstft_fast half", "wavefront_scan"))


def in_builder() -> bool:
    """Whether transform._plan is on the calling thread's stack."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is transform._plan.__code__:
            return True
        frame = frame.f_back
    return False


def builder_only(fn):
    """fn, raising when called with no plan builder on the stack."""
    def guarded(*args, **kwargs):
        if not in_builder():
            raise AssertionError(f"{fn.__name__} ran outside the plan builder")
        return fn(*args, **kwargs)

    return guarded


def test_no_decision_runs_outside_the_plan_builder(monkeypatch):
    # the window levels, the pair shape, the CPU count and the cuts are
    # decided in the builder; the execution, on the calling thread and on
    # the shards' threads, makes no decision.  Two CPUs, so that every
    # sharded stream runs on a worker thread too
    for module in (transform, windows):
        for name in ("_factored", "window_levels"):
            monkeypatch.setattr(module, name, builder_only(getattr(windows, name)))
    monkeypatch.setattr(WindowLevels, "split", builder_only(WindowLevels.split))
    monkeypatch.setattr(transform, "_cpu_count", builder_only(lambda: 2))
    for call in calls().values():
        call()
    levels = transform._plan(GRID, BUMP, [[1.0, 0.0]], GRID.take([0])).levels
    with pytest.raises(AssertionError, match="split ran outside the plan builder"):
        levels.split(0, 1)


def wrong_y_grid_calls():
    """Each entry point that takes a y~ grid, given one of 2 axes under a
    k = 1 frame."""
    grid = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    f = gaussian(grid, 1.0)
    g = gaussian_window(grid.take([0]), [1.0])
    frame = build_frame([[1.0, 1.0]])
    y_grid = Grid.from_bounds([-4, -4], [4, 4], [4, 4])
    field = DstftField(y_grid, grid, np.zeros(y_grid.counts + grid.counts), frame)
    bump = gevrey_bump(grid.take([0]), 2.0, 2.0)
    cone = [ConeSpec((1.0, 1.0), math.pi / 8, 1.0)]
    return {
        "dstft_fast": lambda: dstft_fast(f, g, frame, y_grid=y_grid),
        "dstft_direct": lambda: dstft_direct(f, g, frame, y_grid=y_grid),
        "dso": lambda: dso(field, g, frame, grid),
        "reconstruct": lambda: reconstruct(f, g, g, frame, y_grid=y_grid),
        "wavefront_scan": lambda: wavefront_scan(f, bump, frame, 2.0,
                                                 [BallSpec((0.0,), 1.0)], cone,
                                                 y_grid=y_grid),
    }


@pytest.mark.parametrize("name", list(wrong_y_grid_calls()))
def test_a_y_grid_of_the_wrong_dimension_is_refused_by_name(name):
    with pytest.raises(ValueError, match=r"^y_grid has 2 axes, but the frame has k = 1$"):
        wrong_y_grid_calls()[name]()


def test_the_cpu_count_falls_back_without_cpu_affinity(monkeypatch):
    # os.sched_getaffinity is Linux's; elsewhere every CPU of the machine
    f = gaussian(GRID, 1.0, [0.5, -0.3], [0.25, 0.5])
    g = gaussian_window(GRID, [1.0, 1.3])
    want = dstft_fast(f, g, identity_frame(2, 2)).values
    monkeypatch.delattr(os, "sched_getaffinity")
    assert transform._cpu_count() == (os.cpu_count() or 1)
    assert np.array_equal(dstft_fast(f, g, identity_frame(2, 2)).values, want)
