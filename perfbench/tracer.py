"""Span tracer for the per-layer run.

The tracer wraps public functions of the ``dirstft`` modules at every place
they are bound (the defining module and every module that imported the name),
so no file of the library changes.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples and are written out when the run
ends.  A layer's self time is its span's duration minus the time its child
spans cover.

A target that no longer exists (renamed or deleted by a refactor) is recorded
as absent; its metrics read 0 and the run continues.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import numpy as np

# Wrapped targets, as "<module>.<attribute path>" under the dirstft package.
TARGETS = (
    "cli.main",
    "windows.window_at",
    "grids.Grid.contains",
    "grids.Grid.lattice_index",
    "grids.dft",
    "grids.idft",
    "grids.evaluate_trig",
    "transform.dstft_fast",
    "transform.dstft_direct_at",
    "synthesis.dso",
    "synthesis.dso_direct",
    "direction.pullback",
    "wavefront.wavefront_scan",
    "wavefront.fit_spectrum_decay",
    "wavefront.ConeSpec.contains",
    "sigio.read_signal",
    "sigio.write_signal",
    "sigio.read_field",
    "sigio.write_field",
)

OP = "op"            # root span of one benchmark operation
_MISSING = object()


def _fft_flops(n: int) -> float:
    """Conventional operation count of a complex FFT of n points."""
    return 5.0 * n * np.log2(n) if n > 1 else 0.0


class Tracer:
    """Collects spans and counters while ``mode`` is "spans"; records the
    peak traced allocation of ``transform.dstft_fast`` while ``mode`` is
    "mem"; passes calls straight through while ``mode`` is "off"."""

    def __init__(self):
        self.mode = "off"
        self.names = [OP] + list(TARGETS)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.absent = []
        self.hook_errors = {}
        self.counters = {"fft_flop": 0.0, "fft_bytes": 0.0, "exp_evals": 0.0,
                         "sigio_bytes": 0.0, "field_bytes_max": 0.0}
        self.peak_alloc_bytes = []

    # -- wrapping ----------------------------------------------------------

    def install(self, package: str = "dirstft") -> None:
        """Replace every binding of each target inside the package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for target in TARGETS:
            modname, *path = target.split(".")
            owner = sys.modules.get(f"{package}.{modname}")
            obj = owner
            for attr in path:
                owner, obj = obj, getattr(obj, attr, _MISSING)
                if obj is _MISSING:
                    break
            if owner is None or obj is _MISSING or not callable(obj):
                self.absent.append(target)
                continue
            wrapped = self._wrap(target, obj)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        setattr(mod, key, wrapped)

    def _wrap(self, target: str, fn):
        idx = self._index[target]
        post = _POST_HOOKS.get(target)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        mem_probe = target == "transform.dstft_fast"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.mode != "spans":
                if tracer.mode == "mem" and mem_probe:
                    return tracer._mem_call(fn, args, kwargs)
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent, tracer.op_id)
            if post is not None:
                try:
                    post(tracer.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError):
                    # a refactor changed the signature or result type
                    tracer.hook_errors[target] = \
                        tracer.hook_errors.get(target, 0) + 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", target)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _mem_call(self, fn, args, kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        self.peak_alloc_bytes.append(tracemalloc.get_traced_memory()[1] - base)
        return result

    # -- operations --------------------------------------------------------

    def run_op(self, fn):
        """Run one operation under a root span; returns fn()'s result."""
        self.op_id += 1
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (0, t0, t1, -1, self.op_id)

    def mem_op(self, fn):
        """Run one operation with tracemalloc on and spans off."""
        self.mode = "mem"
        tracemalloc.start()
        try:
            return fn()
        finally:
            tracemalloc.stop()
            self.mode = "off"

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span (name index, self time, parent) arrays."""
        arr = np.asarray(self.spans, dtype=float)
        if arr.size == 0:
            arr = np.zeros((0, 5))
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, dur - child, parent

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics keyed "<module>.<function>.<stat>"."""
        name, self_s, parent = self.self_times()
        n = len(self.names)
        calls = np.bincount(name, minlength=n) / n_ops
        self_sum = np.bincount(name, weights=self_s, minlength=n) / n_ops
        i = self._index

        def calls_of(t):
            return float(calls[i[t]])

        def self_of(t):
            return float(self_sum[i[t]])

        # share of window_at calls that ran trigonometric interpolation
        wa, et = i["windows.window_at"], i["grids.evaluate_trig"]
        trig_parents = parent[(name == et) & (parent >= 0)]
        trig_parents = trig_parents[name[trig_parents] == wa]
        n_wa = int(np.count_nonzero(name == wa))
        trig_share = len(np.unique(trig_parents)) / n_wa if n_wa else 0.0

        c = self.counters
        peak = max(self.peak_alloc_bytes) if self.peak_alloc_bytes else 0
        out = {}
        for t in ("windows.window_at", "grids.Grid.contains",
                  "grids.Grid.lattice_index", "grids.dft", "grids.idft",
                  "grids.evaluate_trig", "direction.pullback",
                  "wavefront.fit_spectrum_decay", "wavefront.ConeSpec.contains"):
            out[f"{t}.calls"] = (calls_of(t), "calls/op")
            out[f"{t}.self_s"] = (self_of(t), "s/op")
        out["windows.window_at.trig_share"] = (trig_share, "fraction")
        out["grids.fft_gflop"] = (c["fft_flop"] / n_ops / 1e9, "GFLOP/op")
        out["grids.fft_mb_moved"] = (c["fft_bytes"] / n_ops / 1e6, "MB/op")
        out["grids.evaluate_trig.exp_evals"] = (c["exp_evals"] / n_ops, "count/op")
        for t in ("transform.dstft_fast", "transform.dstft_direct_at",
                  "synthesis.dso", "wavefront.wavefront_scan",
                  "sigio.read_signal", "sigio.write_signal",
                  "sigio.read_field", "sigio.write_field", "cli.main"):
            out[f"{t}.self_s"] = (self_of(t), "s/op")
        out["transform.field_mb"] = (c["field_bytes_max"] / 1e6, "MB")
        out["transform.dstft_fast.peak_alloc_mb"] = (peak / 1e6, "MB")
        out["synthesis.dso_direct.calls"] = (calls_of("synthesis.dso_direct"),
                                             "calls/op")
        out["sigio.mb"] = (c["sigio_bytes"] / n_ops / 1e6, "MB/op")
        out["trace.absent_targets"] = (float(len(self.absent)), "count")
        return out

    def write_spans(self, path) -> None:
        """Write names, absent targets and every span (name index, start,
        end, parent span index, op index) as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- counters recorded after a traced call returns ----------------------------

def _count_dft(c, args, kwargs, result):
    n = result.values.size
    c["fft_flop"] += _fft_flops(n)
    c["fft_bytes"] += 2 * 16 * n        # complex128 read once, written once


def _count_trig(c, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    c["exp_evals"] += float(len(result)) * f.grid.size


def _count_field(c, args, kwargs, result):
    c["field_bytes_max"] = max(c["field_bytes_max"], float(result.values.nbytes))


def _count_file(c, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    c["sigio_bytes"] += os.path.getsize(path)


_POST_HOOKS = {
    "grids.dft": _count_dft,
    "grids.idft": _count_dft,
    "grids.evaluate_trig": _count_trig,
    "transform.dstft_fast": _count_field,
    "sigio.read_signal": _count_file,
    "sigio.write_signal": _count_file,
    "sigio.read_field": _count_file,
    "sigio.write_field": _count_file,
}
