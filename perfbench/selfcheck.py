"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [workload ...]

1. BENCHMARK.json is well formed and names exactly the workloads of
   workloads.py.
2. Every output check rejects each corrupted copy of a good output.
3. A short run of each workload prints, as its last line, exactly the
   end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) that
   BENCHMARK.json names, each with its unit and a finite value.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict, names: set) -> list:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)}")
    got = [w["name"] for w in spec["workloads"]]
    if set(got) != names or len(got) != len(names):
        errors.append(f"workloads {got} != {sorted(names)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload entry {w['name']}")
    seen = set()
    for group, keyset in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keyset:
                errors.append(f"{group} {m.get('name')}: keys {sorted(m)}")
            if not NAME.match(m["name"]) or m["name"] in seen:
                errors.append(f"{group} {m['name']}: bad or repeated name")
            seen.add(m["name"])
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                errors.append(f"{group} {m['name']}: unit or better")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        errors.append(f"bounds {bounds}")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        errors.append("setup_s must carry the largest bound")
    return errors


def check_corruptions(names) -> list:
    import workloads
    errors = []
    work = run.OUT / "selfcheck-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in names:
            wl = workloads.WORKLOADS[name](0, work)
            wl.setup()
            out = wl.op()
            ok, detail = wl.check(out)
            if not ok:
                errors.append(f"{name}: good output rejected: {detail}")
            for i, bad in enumerate(wl.corruptions(out)):
                try:
                    rejected = not wl.check(bad)[0]
                except (ValueError, KeyError, TypeError, IndexError):
                    rejected = True
                if not rejected:
                    errors.append(f"{name}: corruption {i} accepted")
            print(f"  {name}: {len(wl.corruptions(out))} corruptions checked",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def check_metrics(name: str, trace: int, wanted: dict) -> list:
    res = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                          "--workload", name, "--seed", "0", "--seconds", "1",
                          "--trace", str(trace)], cwd=run.ROOT,
                         capture_output=True, text=True, timeout=300)
    where = f"{name} --trace {trace}"
    if res.returncode != 0:
        return [f"{where}: exit {res.returncode}: {res.stderr[-500:]}"]
    last = json.loads(res.stdout.strip().splitlines()[-1])
    errors = []
    if set(last) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        errors.append(f"{where}: correct={last['correct']} "
                      f"failed={last['failed']}/{last['attempted']}")
    got = last["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for k, unit in wanted.items():
        m = got.get(k)
        if m is None:
            continue
        v = m.get("value")
        if m.get("unit") != unit or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            errors.append(f"{where}: {k} = {m}")
    return errors


def main(argv) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_package()
    import workloads
    names = argv or list(workloads.WORKLOADS)
    errors = check_spec(spec, set(workloads.WORKLOADS))
    print(f"spec: {len(errors)} error(s)", flush=True)
    errors += check_corruptions(names)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in names:
        for trace, wanted in ((0, e2e), (1, layers)):
            errs = check_metrics(name, trace, wanted)
            print(f"  {name} --trace {trace}: {len(errs)} error(s)", flush=True)
            errors += errs
    for e in errors:
        print("FAIL", e)
    print("selfcheck:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
