"""The four benchmark workloads.

Each workload draws its fixture parameters from the seed, writes its configs
and fixture files in setup (``dstft gen``), runs one operation per call of
``op`` and checks that operation's output in ``check`` against references the
benchmark computes itself.  ``gate_cases`` gives the workload's frame and
window at a size the oracle caps allow, for the oracle gate.

Operations call the package through module attributes (``cli.main``,
``transform.dstft_direct_at``, ...) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import struct
import warnings
from pathlib import Path

import numpy as np

from dirstft import (cli, direction, grids, sigio, synthesis, transform,
                     windows)
from dirstft.fixtures import gaussian, heaviside_sheet

REL_L2_TOL = 1e-3          # reconstruction tolerance (tier-1 criterion 2)
FRAME_CHANGE_TOL = 1e-4    # frame-change tolerance (tier-1 criterion 4)


def run_cli(argv) -> int:
    """dstft in-process; its stdout and stderr are kept off the benchmark's."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def read_signal_file(path) -> tuple:
    """Independent reader of the binary signal format: (counts, values)."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"DSTF":
        raise ValueError(f"{path}: bad magic")
    version, dim = struct.unpack_from("<II", buf, 4)
    if version != 1:
        raise ValueError(f"{path}: signal version {version}")
    off, counts = 12, []
    for _ in range(dim):
        counts.append(struct.unpack_from("<ddQ", buf, off)[2])
        off += 24
    inter = np.frombuffer(buf, dtype="<f8", offset=off)
    if inter.size != 2 * math.prod(counts):
        raise ValueError(f"{path}: {inter.size} doubles for counts {counts}")
    return tuple(counts), (inter[0::2] + 1j * inter[1::2]).reshape(counts)


def gaussian_ref(lo, hi, n, dim, center, modulation) -> np.ndarray:
    """exp(-pi |t - c|^2) exp(2 pi i t.xi0) on the box [lo, hi)^dim, n^dim."""
    ax = lo + (hi - lo) / n * np.arange(n)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
    ph = sum(m * x for m, x in zip(mesh, modulation))
    return np.exp(-np.pi * r2) * np.exp(2j * np.pi * ph)


def gaussian_pairing(lo, hi, n, dim) -> float:
    """(g, g) of the unit Gaussian window on [lo, hi)^dim with n^dim samples."""
    h = (hi - lo) / n
    ax = lo + h * np.arange(n)
    return float((h * np.sum(np.exp(-2 * np.pi * ax ** 2))) ** dim)


def max_rel_err(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def rel_l2(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _window_spec(sigma_dims: int, lo: float, hi: float, n: int) -> dict:
    return {"kind": "gaussian", "sigma": [1.0] * sigma_dims,
            "grid": {"bounds": [[lo] * sigma_dims, [hi] * sigma_dims],
                     "counts": [n] * sigma_dims}}


class Workload:
    name = ""
    # parameter ranges the seed draws from, as recorded in each result
    ranges: dict = {}

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dir = workdir
        self.params = self.draw()

    def draw(self) -> dict:
        """One 2-vector per range, uniform in it on both axes."""
        return {key: [round(self.rng.uniform(lo, hi), 6) for _ in range(2)]
                for key, (lo, hi) in self.ranges.items()}

    def setup(self) -> None:
        """Write configs and generate the fixture files (timed as set-up)."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple:
        """(ok, detail) for one operation's output."""
        raise NotImplementedError

    def corruptions(self, out) -> list:
        """Corrupted copies of a good output; check must reject each."""
        raise NotImplementedError

    def gate_cases(self) -> list:
        """[(signal, window, frame)] at an oracle-capped size."""
        raise NotImplementedError

    def _gen(self, kind: str, bounds, counts, params, out: Path) -> None:
        cfg = write_json(self.dir / f"gen_{out.stem}.json",
                         {"schema_version": 1, "kind": kind,
                          "grid": {"bounds": bounds, "counts": counts},
                          "params": params, "out": str(out)})
        rc = run_cli(["gen", "--config", cfg])
        if rc != 0:
            raise RuntimeError(f"dstft gen {kind} exited {rc}")


class Stft2dRoundtrip(Workload):
    name = "stft2d_roundtrip"
    ranges = {"center": (-1.0, 1.0), "modulation": (-1.0, 1.0)}

    def setup(self):
        self.signal = self.dir / "gauss64.dstf"
        self._gen("gaussian", [[-8, -8], [8, 8]], [64, 64],
                  {"sigma": 1.0, **self.params}, self.signal)
        self.report = self.dir / "roundtrip_report.json"
        self.config = write_json(self.dir / "roundtrip.json", {
            "schema_version": 1, "signal": str(self.signal),
            "window_g": _window_spec(2, -8.0, 8.0, 64),
            "frame": {"u": [[1.0, 0.0], [0.0, 1.0]]},
            "tolerance": REL_L2_TOL, "report": str(self.report)})
        self.pairing = gaussian_pairing(-8.0, 8.0, 64, 2)

    def op(self):
        self.report.unlink(missing_ok=True)
        rc = run_cli(["roundtrip", "--config", self.config])
        return rc, json.loads(self.report.read_text())

    def check(self, out):
        rc, rep = out
        rel = float(rep["rel_l2_error"])
        pair = complex(*rep["pairing_value"])
        pair_err = abs(pair - self.pairing) / self.pairing
        ok = (rc == 0 and math.isfinite(float(rep["max_abs_error"]))
              and 0.0 <= rel <= REL_L2_TOL and pair_err <= 1e-12)
        return ok, {"exit": rc, "rel_l2_error": rel, "pairing_err": pair_err}

    def corruptions(self, out):
        rc, rep = out
        return [(1, rep),
                (rc, {**rep, "rel_l2_error": 10 * REL_L2_TOL}),
                (rc, {**rep, "pairing_value": [2 * self.pairing, 0.0]}),
                (rc, {**rep, "max_abs_error": float("nan")})]

    def gate_cases(self):
        grid = grids.Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        f = gaussian(grid, 1.0, self.params["center"], self.params["modulation"])
        g = windows.gaussian_window(grid, [1.0, 1.0])
        return [(f, g, direction.identity_frame(2, 2))]


class DiagFiles(Workload):
    name = "diag_files"
    ranges = {"center": (-1.0, 1.0), "modulation": (-1.0, 1.0)}

    def setup(self):
        self.signal = self.dir / "gauss64.dstf"
        self._gen("gaussian", [[-8, -8], [8, 8]], [64, 64],
                  {"sigma": 1.0, **self.params}, self.signal)
        window = _window_spec(1, -8.0, 8.0, 64)
        self.field = self.dir / "diag.dstfield"
        self.recon = self.dir / "diag_recon.dstf"
        self.analyze = write_json(self.dir / "analyze.json", {
            "schema_version": 1, "signal": str(self.signal), "window": window,
            "frame": {"u": [[1.0, 1.0]]}, "out": str(self.field)})
        self.synthesize = write_json(self.dir / "synthesize.json", {
            "schema_version": 1, "field": str(self.field), "window": window,
            "out": str(self.recon)})
        self.pairing = gaussian_pairing(-8.0, 8.0, 64, 1)
        self.ref = gaussian_ref(-8.0, 8.0, 64, 2, self.params["center"],
                                self.params["modulation"])

    def op(self):
        self.recon.unlink(missing_ok=True)
        rc_a = run_cli(["analyze", "--config", self.analyze])
        rc_s = run_cli(["synthesize", "--config", self.synthesize])
        counts, vals = read_signal_file(self.recon)
        return rc_a, rc_s, counts, vals

    def check(self, out):
        rc_a, rc_s, counts, vals = out
        if counts != self.ref.shape:
            return False, {"exit": [rc_a, rc_s], "counts": list(counts)}
        err = rel_l2(vals / self.pairing, self.ref)
        ok = rc_a == 0 and rc_s == 0 and err <= REL_L2_TOL
        return ok, {"exit": [rc_a, rc_s], "rel_l2_error": err}

    def corruptions(self, out):
        rc_a, rc_s, counts, vals = out
        return [(2, rc_s, counts, vals), (rc_a, 1, counts, vals),
                (rc_a, rc_s, counts, vals * 1.01),
                (rc_a, rc_s, (32, 128), vals.reshape(32, 128))]

    def gate_cases(self):
        grid = grids.Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        f = gaussian(grid, 1.0, self.params["center"], self.params["modulation"])
        g = windows.gaussian_window(grids.Grid.from_bounds([-4], [4], [16]), [1.0])
        return [(f, g, direction.build_frame([[1.0, 1.0]]))]


# criterion-6 cells: radius 0.25 every 0.125 on [-3, -1] u {0} u [1, 3]
SHEET_CELLS = ([j * 0.125 for j in range(-24, -7)] + [0.0]
               + [j * 0.125 for j in range(8, 25)])
SHEET_CONES = 16


class SheetWavefront(Workload):
    name = "sheet_wavefront"
    # sheet offset in y~ lattice steps (1/16); the cells at +-1 stay clear of
    # the jump and the cell at 0 contains it
    ranges = {"offset_steps": (-3, 3)}

    def draw(self):
        lo, hi = self.ranges["offset_steps"]
        return {"c": self.rng.randint(lo, hi) / 16}

    def setup(self):
        self.signal = self.dir / "sheet128.dstf"
        self._gen("heaviside_sheet", [[-4, -4], [4, 4]], [128, 128],
                  {"u": [1.0, 0.0], "c": self.params["c"]}, self.signal)
        self.out_json = self.dir / "wf.json"
        self.out_csv = self.dir / "wf.csv"
        self.config = write_json(self.dir / "wavefront.json", {
            "schema_version": 1, "signal": str(self.signal),
            "window": {"kind": "gevrey_bump", "radius": 0.5, "alpha": 2.0,
                       "grid": {"bounds": [[-2], [2]], "counts": [64]}},
            "frame": {"u": [[1.0, 0.0]]}, "alpha": 2.0, "threshold_N": 1.7,
            "cones": {"count": SHEET_CONES, "r_min": 1.75},
            "cells": [{"center": [y], "radius": 0.25} for y in SHEET_CELLS],
            "out_json": str(self.out_json), "out_csv": str(self.out_csv)})

    def op(self):
        self.out_json.unlink(missing_ok=True)
        self.out_csv.unlink(missing_ok=True)
        rc = run_cli(["wavefront", "--config", self.config])
        rows = self.out_csv.read_text().splitlines()
        return rc, json.loads(self.out_json.read_text()), len(rows)

    def check(self, out):
        rc, rep, csv_rows = out
        entries = rep["entries"]
        singular = {(e["cell"]["center"][0],
                     tuple(round(x, 6) + 0.0 for x in e["cone"]["center"]))
                    for e in entries if not e["regular"]}
        want = {(0.0, (1.0, 0.0)), (0.0, (-1.0, 0.0))}
        n = len(SHEET_CELLS) * SHEET_CONES
        verdict = rep.get("comparison", {}).get("verdict")
        ok = (rc == 0 and verdict == "PASS" and singular == want
              and len(entries) == n and csv_rows == n + 1)
        return ok, {"exit": rc, "verdict": verdict, "entries": len(entries),
                    "singular": len(singular)}

    def corruptions(self, out):
        rc, rep, csv_rows = out
        flipped = json.loads(json.dumps(rep))
        flipped["entries"][0]["regular"] = not flipped["entries"][0]["regular"]
        failed = json.loads(json.dumps(rep))
        failed["comparison"]["verdict"] = "FAIL"
        short = {**rep, "entries": rep["entries"][:-1]}
        return [(1, rep, csv_rows), (rc, flipped, csv_rows),
                (rc, failed, csv_rows), (rc, short, csv_rows),
                (rc, rep, csv_rows - 1)]

    def gate_cases(self):
        grid = grids.Grid.from_bounds([-4, -4], [4, 4], [32, 32])
        f = heaviside_sheet(grid, (1.0, 0.0), self.params["c"])
        g = windows.gevrey_bump(grids.Grid.from_bounds([-2], [2], [16]), 0.5, 2.0)
        return [(f, g, direction.build_frame([[1.0, 0.0]]))]


class FrameChange(Workload):
    name = "frame_change"
    ranges = {"center": (-1.0, 1.0), "modulation": (-0.5, 0.5)}
    Y_PTS = np.array([[0.0], [0.5], [-1.0]])
    XI_PTS = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, -0.5], [-0.75, 1.5]])

    def setup(self):
        self.signal = self.dir / "gauss96.dstf"
        self._gen("gaussian", [[-8, -8], [8, 8]], [96, 96],
                  {"sigma": 1.0, **self.params}, self.signal)
        # frequencies follow the modulation so the compared values stay
        # well above rounding
        self.xi = self.XI_PTS + np.asarray(self.params["modulation"])

    def op(self):
        f = sigio.read_signal(self.signal)
        win = windows.gaussian_window(
            grids.Grid.from_bounds([-8], [8], [96]), [1.0])
        s = 1 / math.sqrt(2)
        frame = direction.build_frame([[s, s]])
        lhs = transform.dstft_direct_at(f, win, frame, self.Y_PTS, self.xi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", grids.CoverageWarning)
            h = direction.pullback(f, frame, f.grid)
        eta = direction.frequency_map(self.xi, frame)
        rhs = transform.dstft_direct_at(h, win, direction.identity_frame(2, 1),
                                        self.Y_PTS, eta)
        return lhs, rhs

    def check(self, out):
        lhs, rhs = out
        shape = (len(self.Y_PTS), len(self.XI_PTS))
        if lhs.shape != shape or rhs.shape != shape:
            return False, {"shape": [list(lhs.shape), list(rhs.shape)]}
        err = max_rel_err(lhs, rhs)
        ok = bool(np.all(np.isfinite(lhs))) and err <= FRAME_CHANGE_TOL
        return ok, {"rel_err": err}

    def corruptions(self, out):
        lhs, rhs = out
        bumped = rhs.copy()
        bumped[1, 1] += 1e-3 * np.max(np.abs(rhs))
        return [(lhs, bumped), (lhs[:, :2], rhs[:, :2]),
                (lhs * np.nan, rhs)]

    def gate_cases(self):
        grid = grids.Grid.from_bounds([-4, -4], [4, 4], [16, 16])
        f = gaussian(grid, 1.0, self.params["center"], self.params["modulation"])
        g = windows.gaussian_window(grids.Grid.from_bounds([-4], [4], [16]), [1.0])
        s = 1 / math.sqrt(2)
        return [(f, g, direction.build_frame([[s, s]]))]


WORKLOADS = {w.name: w for w in (Stft2dRoundtrip, DiagFiles, SheetWavefront,
                                 FrameChange)}


def oracle_gate(wl: Workload) -> float:
    """Max relative error of the fast paths (dstft_fast, dso, dft) against
    the oracles (dstft_direct, dso_direct, dft_oracle) on the workload's
    frame and window at an oracle-capped size."""
    worst = 0.0
    for f, g, frame in wl.gate_cases():
        fast = transform.dstft_fast(f, g, frame)
        worst = max(worst, max_rel_err(fast.values,
                                       transform.dstft_direct(f, g, frame).values))
        worst = max(worst, max_rel_err(
            synthesis.dso(fast, g, frame, f.grid).values,
            synthesis.dso_direct(fast, g, frame, f.grid).values))
        worst = max(worst, max_rel_err(grids.dft(f).values,
                                       grids.dft_oracle(f).values))
    return worst
