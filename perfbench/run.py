"""Benchmark of the dstft CLI and library, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process runs one workload: set-up (CLI import and ``dstft gen`` of the
fixtures), the oracle gate, then a closed loop with one client for
``--seconds``.  Every operation's output is checked.  The gate has already
run every code path once, so there is no separate warm-up operation; the
reported median is robust to a slow first operation.  Times are reported at
a reference machine speed (see REF_PROBE_S).

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced and half with the span tracer on (see tracer.py), then one
operation under tracemalloc, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the full
result (environment, parameters, timings, op_tail_s, checks), which is also
written to perfbench/out/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS/OpenMP thread, one client.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 7       # set-ups per run; setup_s is their median
GATE_TOL = 1e-10     # oracle gate: max relative error of the fast paths

# Run in a fresh interpreter: the import time of the CLI, then probe() there.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dirstft.cli; "
                "t = time.perf_counter() - t; from run import probe; "
                "print(t, probe())")

# Time of probe() on a quiet 2-core Intel Xeon VM at 2.0 GHz (Python 3.11,
# numpy 2.4.6).  Timings are reported at this reference speed: the wall time
# divided by the probe time measured around it, times REF_PROBE_S.  Other
# tenants of a shared machine slow the probe and the operation alike, so the
# scaled times vary far less from run to run than wall times do; the wall
# times are kept in the full result.
REF_PROBE_S = 0.045


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import dirstft from this checkout's src/ and nowhere else."""
    if not (SRC / "dirstft" / "__init__.py").is_file():
        fail(f"no dirstft package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dirstft
    if Path(dirstft.__file__).resolve().parent != SRC / "dirstft":
        fail(f"dirstft imported from {dirstft.__file__}, not {SRC}")


def environment(args, n_ops: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "repeat_count": n_ops, "clients": 1, "loop": "closed"}


def probe() -> float:
    """Wall time of a fixed reference job that uses no dirstft code, in the
    mix the operations run: FFT, elementwise numpy and interpreter work on
    small arrays, and point-set masks and rounding like a grid lookup."""
    a = np.exp(2j * np.pi * np.arange(4096) / 4096)
    pts = np.stack([a.real, a.imag], axis=-1) * 8.0
    lo, hi = np.full(2, -8.0), np.full(2, 8.0)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        acc += float(np.abs(np.fft.fft(a * 1.0001)).max())
        acc += float(np.exp(a).real.sum())
        for j in range(1000):
            acc += j
    for _ in range(150):
        inside = np.all((pts >= lo) & (pts < hi), axis=-1)
        frac = (pts - lo) / 0.25
        acc += float(np.all(np.abs(frac - np.rint(frac)) <= 1e-9)) + inside.sum()
    return time.perf_counter() - t0


def import_s() -> tuple:
    """(import time of dirstft.cli, probe time) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         check=True)
    t, p = res.stdout.split()
    return float(t), float(p)


def measure_setup(wl) -> dict:
    """Median import time plus median workload set-up, at reference speed.
    Each import is scaled by the probe of its own interpreter, the set-ups
    by the probes run between them."""
    probes = [probe()]
    imports, gens = [], []
    for _ in range(SETUP_REPS):
        imports.append(import_s())
        t0 = time.perf_counter()
        wl.setup()
        gens.append(time.perf_counter() - t0)
        probes.append(probe())
    gen = statistics.median(gens)
    raw = statistics.median(t for t, _ in imports) + gen
    scaled = (statistics.median(t * REF_PROBE_S / p for t, p in imports)
              + gen * REF_PROBE_S / statistics.median(probes))
    return {"setup_s": scaled, "setup_raw_s": raw, "import_s": imports,
            "gen_s": gens, "probe_s": probes}


class Loop:
    """Closed loop with one client: runs ops back to back, checks each output.

    A reference probe runs before the first op and after each op; an op's
    time at reference speed is its wall time scaled by REF_PROBE_S over the
    mean of the probes on either side of it.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.raw = []
        self.probes = [probe()]

    def one(self, run=None) -> float | None:
        """Run and check one op; its time at reference speed, or None when
        it failed."""
        run = run or (lambda fn: fn())
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(self.wl.op)
            dt = time.perf_counter() - t0
            ok, detail = self.wl.check(out)
        except Exception as exc:       # a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok, dt, detail = False, None, {"error": repr(exc)}
        self.probes.append(probe())
        if not ok:
            self.failed += 1
            self.checks.append(detail)
            return None
        if len(self.checks) < 3:
            self.checks.append(detail)
        self.raw.append(dt)
        return dt * 2 * REF_PROBE_S / (self.probes[-2] + self.probes[-1])

    def timed(self, seconds: float, run=None) -> list:
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            dt = self.one(run)
            if dt is not None:
                times.append(dt)
        return times


def tail(times: list) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    i = n - 11
    return {"value": sorted(times)[i], "percentile": round(100 * (i + 1) / n, 2),
            "samples": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup = measure_setup(wl)
        gate_err = workloads.oracle_gate(wl)
        if not gate_err <= GATE_TOL:
            fail(f"oracle gate: max rel err {gate_err:.3e} > {GATE_TOL:.0e}")
        loop = Loop(wl)
        tracer = Tracer()
        if args.trace:
            plain = loop.timed(args.seconds / 2)
            tracer.install()
            tracer.mode = "spans"
            traced = loop.timed(args.seconds / 2, tracer.run_op)
            tracer.mode = "off"
            loop.one(tracer.mem_op)
            times = plain
        else:
            times = loop.timed(args.seconds)
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not times or (args.trace and not traced):
        fail("no operation completed")
    p50 = statistics.median(times)
    metrics = {}
    if args.trace:
        t50 = statistics.median(traced)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_frac"] = (t50 / p50 - 1.0, "fraction")
        layers["trace.op_p50_s"] = (t50, "s")
        layers["oracle.max_rel_err"] = (gate_err, "fraction")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        tracer.write_spans(OUT / f"{tag}-spans.json")
    else:
        metrics = {
            "op_p50_s": {"value": p50, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }
    correct = loop.failed == 0
    detail = {
        "workload": args.workload, "params": wl.params, "ranges": wl.ranges,
        "environment": environment(args, len(times) + len(traced)),
        "setup": setup, "oracle_max_rel_err": gate_err,
        "ref_probe_s": REF_PROBE_S, "op_s": times, "traced_op_s": traced,
        "op_p50_s": p50, "op_tail_s": tail(times),
        "op_wall_s": loop.raw, "probe_s": loop.probes,
        "fail_frac": loop.failed / loop.attempted,
        "checks": loop.checks, "absent_targets": tracer.absent,
        "hook_errors": tracer.hook_errors, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
