import builtins
import copy
import json
import math
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirstft import (BallSpec, Grid, dstft_fast, gaussian_window, gevrey_bump,
                     wavefront_scan)
from dirstft.cli import main
from dirstft.direction import build_frame, identity_frame
from dirstft.fixtures import gaussian
from dirstft.grids import BoundaryMassWarning, relative_error
from dirstft.sigio import read_field, read_signal
from dirstft.synthesis import ROUNDOFF_GAIN_MAX
from dirstft.wavefront import (N_HAT_SATURATED, RESIDUAL_CAP, ConeSpec,
                               DecayFit, ScanEntry, WavefrontReport,
                               WindowClassWarning, cone_dictionary_2d)

from dirstft import cli, grids, sigio, transform


def run(tmp_path, command, cfg, *extra):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), *extra])


def run_warned(tmp_path, command, cfg):
    """run, on a signal that does not decay to the box boundary (a sheet):
    the command warns that the implicit periodization may matter."""
    with pytest.warns(BoundaryMassWarning, match="boundary carries"):
        return run(tmp_path, command, cfg)


def gen_gaussian(tmp_path, name="f.dstf", counts=(64,), lo=(-8,), hi=(8,),
                 params=None):
    cfg = {
        "schema_version": 1,
        "kind": "gaussian",
        "grid": {"bounds": [list(lo), list(hi)], "counts": list(counts)},
        "params": params or {"sigma": 1.0},
        "out": str(tmp_path / name),
    }
    assert run(tmp_path, "gen", cfg) == 0
    return tmp_path / name


def test_gen_writes_signal_and_sidecar(tmp_path):
    out = gen_gaussian(tmp_path)
    f = read_signal(out)
    ref = gaussian(Grid.from_bounds([-8], [8], [64]), sigma=1.0)
    assert np.allclose(f.values, ref.values)
    meta = json.loads((tmp_path / "f.dstf.json").read_text())
    assert meta["kind"] == "gaussian"
    assert meta["boundary_mass_ok"] is True


def test_gen_sheet_sidecar_has_ground_truth(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "heaviside_sheet",
        "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [32, 32]},
        "params": {"u": [1.0, 0.0], "c": 0.0},
        "out": str(tmp_path / "sheet.dstf"),
    }
    assert run(tmp_path, "gen", cfg) == 0
    meta = json.loads((tmp_path / "sheet.dstf.json").read_text())
    assert "singular" in meta
    assert meta["singular"]["offset"] == 0.0


def test_analyze_matches_library(tmp_path):
    analyze_matches_library(tmp_path, [[1.0, 0.0]])


def test_analyze_frame_blind_to_the_leading_axis(tmp_path):
    # u = e_2: build_frame completes it with e_1, not the trailing axis
    analyze_matches_library(tmp_path, [[0.0, 1.0]])


def analyze_matches_library(tmp_path, u):
    sig = gen_gaussian(tmp_path, counts=(32, 32), lo=(-4, -4), hi=(4, 4))
    cfg = {
        "schema_version": 1,
        "signal": str(sig),
        "window": {"kind": "gaussian", "sigma": [1.0],
                   "grid": {"bounds": [[-4], [4]], "counts": [32]}},
        "frame": {"u": u},
        "out": str(tmp_path / "F.dstf"),
    }
    assert run(tmp_path, "analyze", cfg) == 0
    F = read_field(tmp_path / "F.dstf")
    f = read_signal(sig)
    win = gaussian_window(Grid.from_bounds([-4], [4], [32]), [1.0])
    ref = dstft_fast(f, win, build_frame(u))
    assert np.allclose(F.values, ref.values)
    assert np.array_equal(F.frame.B, build_frame(u).B)


def test_synthesize_default_out_grid(tmp_path):
    sig = gen_gaussian(tmp_path, counts=(64,))
    win_cfg = {"kind": "gaussian", "sigma": [1.0],
               "grid": {"bounds": [[-8], [8]], "counts": [64]}}
    assert run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig), "window": win_cfg,
        "frame": {"u": [[1.0]]}, "out": str(tmp_path / "F.dstf"),
    }) == 0
    assert run(tmp_path, "synthesize", {
        "schema_version": 1, "field": str(tmp_path / "F.dstf"),
        "window": win_cfg, "out": str(tmp_path / "rec.dstf"),
    }) == 0
    rec = read_signal(tmp_path / "rec.dstf")
    f = read_signal(sig)
    assert rec.grid == f.grid
    # unnormalized synthesis: rec = (g, g) f up to quadrature error
    scale = 2 ** -0.5
    err = np.linalg.norm(rec.values - scale * f.values)
    assert err / np.linalg.norm(scale * f.values) < 1e-3


def roundtrip_cfg(tmp_path, sig, tolerance=1e-3):
    return {
        "schema_version": 1,
        "signal": str(sig),
        "window_g": {"kind": "gaussian", "sigma": [1.0],
                     "grid": {"bounds": [[-8], [8]], "counts": [64]}},
        "frame": {"u": [[1.0]]},
        "tolerance": tolerance,
        "report": str(tmp_path / "report.json"),
    }


def test_roundtrip_passes_at_default_tolerance(tmp_path, capsys):
    sig = gen_gaussian(tmp_path)
    assert run(tmp_path, "roundtrip", roundtrip_cfg(tmp_path, sig)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rel_l2_error"] <= 1e-3
    assert set(report) == {"rel_l2_error", "max_abs_error", "pairing_value",
                           "y_stride", "y_rows", "min_multiplier",
                           "multiplier_cond", "timings"}
    # a unit Gaussian on steps of 0.25: at stride 7, 12 y~ rows (|g|^2 is
    # above eps of its peak within +-2.25, widened by a step), the gain
    # of the division, for this nonnegative pair cond(M) at half steps, is
    # 61, within ROUNDOFF_GAIN_MAX (268 at stride 8); M averages 1, so its
    # minimum is at least 1 / cond(M)
    assert report["y_stride"] == 7 and report["y_rows"] == 12
    assert 1 <= report["multiplier_cond"] <= ROUNDOFF_GAIN_MAX
    assert report["min_multiplier"] >= 1 / ROUNDOFF_GAIN_MAX


@pytest.mark.parametrize("u", [[1.0, 0.0], [1.0, 1.0], [0.6, 0.8]])
def test_roundtrip_of_a_signal_that_does_not_decay_is_exact(tmp_path, u):
    # a random band-limited 64^2 signal fills its box; the covering y~ grid
    # and the division by M recover it, on and off the window lattice
    assert run(tmp_path, "gen", {
        "schema_version": 1, "kind": "random_bandlimited",
        "grid": {"bounds": [[-8, -8], [8, 8]], "counts": [64, 64]},
        "params": {"seed": 1, "band": 0.5}, "out": str(tmp_path / "rb.dstf")}) == 0
    cfg = roundtrip_cfg(tmp_path, tmp_path / "rb.dstf", tolerance=1e-12)
    cfg["frame"] = {"u": [u]}
    assert run(tmp_path, "roundtrip", cfg) == 0
    assert json.loads((tmp_path / "report.json").read_text())["rel_l2_error"] <= 1e-12


def test_roundtrip_y_grid_that_misses_the_window_exits_2(tmp_path, capfd):
    # y~ over [-4, 4) leaves M = 0 near the edges of the box [-8, 8)
    sig = gen_gaussian(tmp_path)
    cfg = roundtrip_cfg(tmp_path, sig)
    cfg["y_grid"] = {"bounds": [[-4], [4]], "counts": [32]}
    capfd.readouterr()
    assert run(tmp_path, "roundtrip", cfg) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: y_grid ") and err.count("\n") == 1
    assert "of the signal samples" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["analyze", "roundtrip", "wavefront"])
def test_y_grid_of_the_wrong_dimension_exits_2_naming_it(tmp_path, capfd, command):
    # a k = 1 frame on a 2-d signal takes a 1-axis y_grid
    sig = gen_gaussian(tmp_path, counts=(32, 32), lo=(-4, -4), hi=(4, 4))
    win = {"kind": "gaussian", "sigma": [1.0],
           "grid": {"bounds": [[-4], [4]], "counts": [32]}}
    cfg = {"schema_version": 1, "signal": str(sig), "frame": {"u": [[1.0, 1.0]]},
           "y_grid": {"bounds": [[-4, -4], [4, 4]], "counts": [8, 8]}}
    if command == "analyze":
        cfg.update(window=win, out=str(tmp_path / "F.dstf"))
    elif command == "roundtrip":
        cfg.update(window_g=win)
    else:
        cfg.update(window=win, alpha=2.0, cones={"count": 8, "r_min": 0.5},
                   cells=[{"center": [0.0], "radius": 0.25}])
    capfd.readouterr()
    assert run(tmp_path, command, cfg) == 2
    captured = capfd.readouterr()
    assert captured.err == ("error: y_grid points must have 1 coordinates each, "
                            "one per frame direction (k = 1), got 2\n")
    assert captured.out == ""
    assert not (tmp_path / "F.dstf").exists()


def test_roundtrip_fails_at_zero_tolerance(tmp_path):
    sig = gen_gaussian(tmp_path)
    assert run(tmp_path, "roundtrip",
               roundtrip_cfg(tmp_path, sig, tolerance=0.0)) == 1


def test_roundtrip_inadmissible_pairing_rejected(tmp_path):
    sig = gen_gaussian(tmp_path)
    cfg = roundtrip_cfg(tmp_path, sig)
    # an odd custom window is orthogonal to the even Gaussian
    g = Grid.from_bounds([-8], [8], [64])
    t = g.axis(0)
    from dirstft.sigio import write_signal
    from dirstft.grids import Signal
    odd = Signal(g, (t * np.exp(-np.pi * t ** 2)).astype(complex))
    write_signal(tmp_path / "odd.dstf", odd)
    cfg["window_phi"] = {"kind": "custom", "path": str(tmp_path / "odd.dstf")}
    assert run(tmp_path, "roundtrip", cfg) == 2


def sheet_wavefront_cfg(tmp_path, threshold=1.0, u=(1.0, 0.0)):
    cfg = {
        "schema_version": 1,
        "kind": "delta_sheet",
        "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [32, 32]},
        "params": {"u": list(u), "c": 0.0},
        "out": str(tmp_path / "sheet.dstf"),
    }
    assert run(tmp_path, "gen", cfg) == 0
    return {
        "schema_version": 1,
        "signal": str(tmp_path / "sheet.dstf"),
        "window": {"kind": "gevrey_bump", "radius": 0.5, "alpha": 2.0,
                   "grid": {"bounds": [[-2], [2]], "counts": [32]}},
        "frame": {"u": [[1.0, 0.0]]},
        "alpha": 2.0,
        "threshold_N": threshold,
        "cones": {"count": 8, "r_min": 0.5},
        "cells": [{"center": [0.0], "radius": 0.25},
                  {"center": [2.0], "radius": 0.25}],
        "out_json": str(tmp_path / "wf.json"),
        "out_csv": str(tmp_path / "wf.csv"),
    }


def test_wavefront_verdict_pass(tmp_path, capsys):
    cfg = sheet_wavefront_cfg(tmp_path)
    assert run_warned(tmp_path, "wavefront", cfg) == 0
    out = json.loads((tmp_path / "wf.json").read_text())
    assert out["comparison"]["verdict"] == "PASS"
    sing = [e for e in out["entries"] if not e["regular"]]
    assert len(sing) == 2
    csv_lines = (tmp_path / "wf.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "cell_center,cone_center,N_hat,regular"
    assert len(csv_lines) == 1 + len(out["entries"])


def per_entry_verdict(report, truth, frame):
    """The ground-truth comparison computed entry by entry, with the
    specs looked up by value: the reference the command's verdict, which
    works from the cell and cone lists, must match."""
    tol = math.radians(cli.ANGULAR_TOL_DEG)
    u = np.asarray(truth["singular"]["u"], dtype=float)
    offset = float(truth["singular"]["offset"])
    a = np.linalg.lstsq(frame.u.T, u, rcond=None)[0]
    in_span = np.allclose(frame.u.T @ a, u, rtol=0.0, atol=1e-9)
    near_u = {c: math.acos(min(abs(np.asarray(c.center) @ u), 1.0)) <= tol
              for c in {e.cone for e in report.entries}}
    in_cell = {y: not in_span or (
        abs(a @ np.asarray(y.center) - offset) / np.linalg.norm(a) <= y.reach)
        for y in {e.y_cell for e in report.entries}}
    expected = {(e.y_cell.center, e.cone.center) for e in report.entries
                if near_u[e.cone] and in_cell[e.y_cell]}
    detected = {(e.y_cell.center, e.cone.center) for e in report.singular}
    return {"expected_singular": [[list(y), list(c)] for y, c in sorted(expected)],
            "detected_singular": [[list(y), list(c)] for y, c in sorted(detected)],
            "verdict": "PASS" if detected == expected else "FAIL"}


def per_entry_json(report, window, comparison=None):
    """wf.json as json.dumps of the whole report, every entry a dict."""
    out = {"threshold_N": report.threshold_N, "residual_cap": RESIDUAL_CAP,
           "window": window.meta,
           "entries": [{"cell": vars(e.y_cell), "cone": vars(e.cone),
                        "fit": vars(e.fit), "regular": e.regular}
                       for e in report.entries],
           "scan": {"rows_streamed": report.rows_streamed,
                    "rows_total": report.rows_total,
                    "noise_ref": list(report.noise_ref)}}
    if comparison is not None:
        out["comparison"] = comparison
    return json.dumps(out, sort_keys=True)


def per_entry_csv(report):
    """wf.csv with every entry's centers and N_hat formatted anew."""
    rows = ["cell_center,cone_center,N_hat,regular\n"]
    for e in report.entries:
        rows.append('"%s","%s",%r,%d\n' % (
            ";".join(repr(x) for x in e.y_cell.center),
            ";".join(repr(x) for x in e.cone.center),
            e.fit.N_hat, int(e.regular)))
    return "".join(rows)


def test_wavefront_report_files_match_per_entry_formatting(tmp_path, capsys):
    # repeated centers, and 0.0 next to -0.0, which compare and hash equal
    # but print differently: each written center must be its own entry's;
    # with the sidecar the comparison key sorts before "entries", without
    # it there is none.  The writers format each distinct fit once, so
    # fits that differ only in a zero's sign must stay apart
    for sidecar in (True, False):
        check_report_files(tmp_path / f"sidecar_{sidecar}", capsys, sidecar)
    check_writers_on_signed_zero_fits()


def check_report_files(tmp_path, capsys, sidecar):
    tmp_path.mkdir()
    cfg = sheet_wavefront_cfg(tmp_path)
    if not sidecar:
        os.remove(cfg["signal"] + ".json")
    cfg["cells"] = [{"center": [c], "radius": 0.25}
                    for c in (-0.0, 0.0, 2.0, -0.0, 2.0)]
    cfg["cones"] = [{"center": c, "half_angle": 0.4, "r_min": 0.5}
                    for c in ([1.0, -0.0], [1.0, 0.0], [-0.0, -1.0],
                              [1.0, -0.0], [-1.0, 0.0])]
    assert run_warned(tmp_path, "wavefront", cfg) == 0
    f = read_signal(cfg["signal"])
    g = cli._parse_window(cfg["window"])
    cones = cli._cone_list(cfg["cones"], f.grid.size)
    frame = build_frame([[1.0, 0.0]])
    report = wavefront_scan(f, g, frame, 2.0, cli._cell_list(cfg["cells"]),
                            cones, threshold_N=1.0)
    # the cone across the sheet normal decays below the floor in every
    # cell, so its entries share one saturated DecayFit
    shared = [e.fit for e in report.entries if e.cone.center == (-0.0, -1.0)]
    assert len({id(fit) for fit in shared}) == 1
    assert shared[0].N_hat == N_HAT_SATURATED
    rows = per_entry_csv(report)
    csv = (tmp_path / "wf.csv").read_text()
    assert csv == rows
    assert rows.splitlines()[1].startswith('"-0.0",')
    assert rows.splitlines()[1 + len(cones)].startswith('"0.0",')
    # cone centers are plain floats, so they print as numbers
    assert "np.float64" not in csv and ',"1.0;-0.0",' in csv
    comparison = None
    if sidecar:
        truth = json.loads((tmp_path / "sheet.dstf.json").read_text())
        comparison = per_entry_verdict(report, truth, frame)
        assert comparison["verdict"] == "PASS"
        assert "ground-truth verdict: PASS" in capsys.readouterr().out
    text = (tmp_path / "wf.json").read_text()
    assert text == per_entry_json(report, g, comparison)
    assert ("comparison" in json.loads(text)) == sidecar


def check_writers_on_signed_zero_fits():
    # fits equal by value print differently when a zero's sign differs, and
    # one fit object may serve several entries: the writers match the
    # per-entry formatting on both
    cells = [BallSpec((0.0,), 0.25), BallSpec((-0.0,), 0.25)]
    cones = [ConeSpec((1.0, -0.0), 0.4, 0.5), ConeSpec((1.0, 0.0), 0.4, 0.5)]
    fits = [DecayFit(N_HAT_SATURATED, 0.0, 0.0, 7, 2.0),
            DecayFit(-0.0, -0.0, 0.0, 7, 2.0), DecayFit(0.0, 0.0, 0.0, 7, 2.0)]
    entries = [ScanEntry(y, c, fit, fit is fits[0])
               for (y, c), fit in zip([(y, c) for y in cells for c in cones],
                                      [fits[0], fits[1], fits[2], fits[0]])]
    report = WavefrontReport(entries, 1.0, rows_streamed=3, rows_total=16,
                             noise_ref=(1.0, 2.0))
    window = gevrey_bump(Grid.from_bounds([-2], [2], [32]), 0.5, 2.0)
    frame = build_frame([[1.0, 0.0]])
    truth = {"singular": {"u": [1.0, 0.0], "offset": 0.0}}
    comparison = cli._verdict(report, cells, cones, truth, frame)
    assert comparison == per_entry_verdict(report, truth, frame)
    assert cli._report_csv(report, cells, cones) == per_entry_csv(report)
    for comp in (None, comparison):
        assert cli._report_json(report, cells, cones, window, comp) == \
            per_entry_json(report, window, comp)


def test_wavefront_reports_the_rows_it_streams(tmp_path, capsys):
    # k = n = 2 on a 64^2 delta sheet: the one cell, of radius 0.25 at the
    # origin, holds 25 of the 4096 y~ rows, and its noise floor is measured
    # against the peak of |F| over those rows
    cfg = {"schema_version": 1, "kind": "delta_sheet",
           "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [64, 64]},
           "params": {"u": [1.0, 0.0], "c": 0.0},
           "out": str(tmp_path / "sheet.dstf")}
    assert run(tmp_path, "gen", cfg) == 0
    window = {"kind": "gevrey_bump", "radius": 0.5, "alpha": 2.0,
              "grid": {"bounds": [[-2, -2], [2, 2]], "counts": [32, 32]}}
    wf = {"schema_version": 1, "signal": cfg["out"], "window": window,
          "frame": {"u": [[1.0, 0.0], [0.0, 1.0]]}, "alpha": 2.0,
          "cones": {"count": 8, "r_min": 0.5},
          "cells": [{"center": [0.0, 0.0], "radius": 0.25}],
          "out_json": str(tmp_path / "wf.json")}
    assert run_warned(tmp_path, "wavefront", wf) == 0
    assert "verdict: PASS" in capsys.readouterr().out
    # the cell's rows are the 5 x 5 y~ points around the origin, so a field
    # on that sub-grid holds them, without the 256 MiB of the full field
    cell_grid = Grid((-0.25, -0.25), (0.125, 0.125), (5, 5))
    F = dstft_fast(read_signal(cfg["out"]), gevrey_bump(
        Grid.from_bounds([-2, -2], [2, 2], [32, 32]), 0.5, 2.0), identity_frame(2, 2),
        y_grid=cell_grid)
    assert BallSpec((0.0, 0.0), 0.25).contains(cell_grid.points()).all()
    peak = float(np.abs(F.values).max())
    assert json.loads((tmp_path / "wf.json").read_text())["scan"] == {
        "rows_streamed": 25, "rows_total": 4096, "noise_ref": [peak]}


@pytest.mark.parametrize("key", ["cells", "cones"])
def test_wavefront_empty_cell_or_cone_list_exits_2(tmp_path, capsys, key):
    cfg = sheet_wavefront_cfg(tmp_path)
    cfg[key] = []
    capsys.readouterr()
    assert run(tmp_path, "wavefront", cfg) == 2
    captured = capsys.readouterr()
    assert f"{key[:-1]} list is empty" in captured.err
    assert "verdict" not in captured.out
    assert not (tmp_path / "wf.json").exists()


def test_wavefront_cone_list_matches_the_cone_dictionary(tmp_path):
    cfg = sheet_wavefront_cfg(tmp_path)
    assert run_warned(tmp_path, "wavefront", cfg) == 0
    want = json.loads((tmp_path / "wf.json").read_text())["entries"]
    cfg["cones"] = [{"center": list(c.center), "half_angle": c.half_angle,
                     "r_min": c.r_min}
                    for c in cone_dictionary_2d(8, r_min=0.5)]
    assert run_warned(tmp_path, "wavefront", cfg) == 0
    assert json.loads((tmp_path / "wf.json").read_text())["entries"] == want


def test_wavefront_cell_without_a_lattice_point_exits_2(tmp_path, capsys):
    cfg = sheet_wavefront_cfg(tmp_path)
    # the y~ lattice steps by 0.25, so no point lies within 0.01 of 0.1
    cfg["cells"] = [{"center": [0.0], "radius": 0.25},
                    {"center": [0.1], "radius": 0.01}]
    capsys.readouterr()
    assert run(tmp_path, "wavefront", cfg) == 2
    err = capsys.readouterr().err
    assert "no y~ lattice points inside cell" in err and "0.1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "wf.json").exists()


@pytest.mark.parametrize("key, spec", [
    ("cells", {"center": [0.0, 0.0], "radius": 0.25}),
    ("cones", {"center": [1.0, 0.0, 0.0], "half_angle": 0.3, "r_min": 0.5})])
def test_wavefront_cell_or_cone_of_the_wrong_dimension_exits_2(tmp_path, capsys, key, spec):
    # a k = 1 frame on a 2-d signal: cells have 1 coordinate, cones 2
    cfg = sheet_wavefront_cfg(tmp_path)
    cfg[key] = [spec]
    capsys.readouterr()
    assert run(tmp_path, "wavefront", cfg) == 2
    err = capsys.readouterr().err
    assert f"{key}[0] center {spec['center']}" in err
    assert "Traceback" not in err and "matmul" not in err
    assert not (tmp_path / "wf.json").exists()


@pytest.mark.parametrize("key, spec, message", [
    ("cones", [{"center": [0.0, 0.0], "half_angle": 0.3, "r_min": 0.5}],
     "cones[0]: cone center must be a nonzero direction"),
    ("cones", [{"center": [1.0, 0.0], "half_angle": 0.3, "r_min": math.inf}],
     "cones[0]: r_min must be positive and finite"),
    ("cones", {"count": 1}, "cones: need at least 2 cones"),
    ("cells", [{"center": [0.0], "radius": 0.25}, {"center": [2.0], "radius": math.nan}],
     "cells[1]: ball radius must be positive and finite"),
    ("cones", {"count": 2}, "cones: the default half angle pi/count needs count >= 3, "
                            "got count 2")])
def test_wavefront_bad_cone_or_cell_exits_2_naming_it(tmp_path, capsys, key, spec, message):
    cfg = sheet_wavefront_cfg(tmp_path)
    cfg[key] = spec
    capsys.readouterr()
    assert run(tmp_path, "wavefront", cfg) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("center, unit", [([1e308, 1e308], [1.0, 1.0]),
                                          ([1e-320, 0.0], [1.0, 0.0])])
def test_wavefront_cone_center_of_extreme_scale_is_its_direction(tmp_path, center, unit):
    cfg = sheet_wavefront_cfg(tmp_path)
    entries = []
    for c in (center, unit):
        cfg["cones"] = [{"center": c, "half_angle": 0.3, "r_min": 0.5}]
        assert run_warned(tmp_path, "wavefront", cfg) == 0
        entries.append(json.loads((tmp_path / "wf.json").read_text())["entries"])
    assert entries[0] == entries[1]


def test_wavefront_verdict_fail_on_wrong_truth(tmp_path):
    # tamper with the sidecar: claim the jump sits at offset 2 instead of 0
    cfg = sheet_wavefront_cfg(tmp_path)
    sidecar = tmp_path / "sheet.dstf.json"
    meta = json.loads(sidecar.read_text())
    meta["singular"]["offset"] = 2.0
    sidecar.write_text(json.dumps(meta))
    assert run_warned(tmp_path, "wavefront", cfg) == 1
    out = json.loads((tmp_path / "wf.json").read_text())
    assert out["comparison"]["verdict"] == "FAIL"


def test_unknown_config_key_rejected(tmp_path):
    sig = gen_gaussian(tmp_path)
    cfg = roundtrip_cfg(tmp_path, sig)
    cfg["tolerence"] = 1e-3          # typo must be caught, not ignored
    assert run(tmp_path, "roundtrip", cfg) == 2


def test_bad_schema_version_rejected(tmp_path):
    cfg = {"schema_version": 99, "kind": "gaussian",
           "grid": {"bounds": [[-8], [8]], "counts": [64]},
           "out": str(tmp_path / "x.dstf")}
    assert run(tmp_path, "gen", cfg) == 2


def test_missing_config_rejected(tmp_path):
    assert main(["gen"]) == 2
    assert main(["analyze", "--config", str(tmp_path / "absent.json")]) == 2


def test_selftest_pristine(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "FAIL" not in out
    assert sum(line.endswith(" PASS") for line in out.splitlines()) == 16


def test_selftest_detects_injected_scale_fault(monkeypatch, capsys):
    # scale every forward FFT by 1.001 and every inverse by 1/1.001, as a
    # mis-scaled dft/idft pair would
    fftn, ifftn = np.fft.fftn, np.fft.ifftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: fftn(*a, **k) * 1.001)
    monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: ifftn(*a, **k) / 1.001)
    code = main(["selftest"])
    assert code == 1
    out = capsys.readouterr().out
    parseval_line = [l for l in out.splitlines() if l.startswith("Parseval")][0]
    assert parseval_line.endswith("FAIL")


def test_selftest_oracle_cap_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "st.json"
    cfg.write_text(json.dumps({"schema_version": 1, "oracle_cap": 0}))
    assert main(["selftest", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown key(s) in selftest config: ['oracle_cap']\n"


def _analyze_64(tmp_path):
    sig = gen_gaussian(tmp_path, counts=(64, 64), lo=(-8, -8), hi=(8, 8))
    win_cfg = {"kind": "gaussian", "sigma": [1.0],
               "grid": {"bounds": [[-8], [8]], "counts": [64]}}
    assert run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig), "window": win_cfg,
        "frame": {"u": [[1.0, 0.0]]}, "out": str(tmp_path / "F.dstf"),
    }) == 0
    return sig, win_cfg


def test_synthesize_non_primal_grid_above_cap_exits_2(tmp_path, capsys):
    _, win_cfg = _analyze_64(tmp_path)
    code = run(tmp_path, "synthesize", {
        "schema_version": 1, "field": str(tmp_path / "F.dstf"),
        "window": win_cfg, "out": str(tmp_path / "rec.dstf"),
        "out_grid": {"bounds": [[-8, -8], [8, 8]], "counts": [32, 32]},
    })
    err = capsys.readouterr().err
    assert code == 2
    assert "primal grid" in err and "Traceback" not in err
    assert not (tmp_path / "rec.dstf").exists()


def _analyze_off_centre(tmp_path):
    """A 32^2 Gaussian (sigma 1.5) on [-7.9, 8.1)^2 analyzed with u = (1, 1)
    and a Gaussian window (sigma 1) on 32 points of [-8, 8): the signal,
    its window config and the field's path."""
    sig = gen_gaussian(tmp_path, counts=(32, 32), lo=(-7.9, -7.9), hi=(8.1, 8.1),
                       params={"sigma": 1.5})
    win_cfg = {"kind": "gaussian", "sigma": [1.0],
               "grid": {"bounds": [[-8], [8]], "counts": [32]}}
    assert run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig), "window": win_cfg,
        "frame": {"u": [[1.0, 1.0]]}, "out": str(tmp_path / "F.dstf"),
    }) == 0
    return read_signal(sig), win_cfg, tmp_path / "F.dstf"


def test_synthesize_defaults_to_the_signal_grid_of_the_field(tmp_path):
    # off-centre: the xi lattice alone would put the output on the
    # zero-centered grid, 0.165 rel L2 from (g, g) f
    f, win_cfg, field = _analyze_off_centre(tmp_path)
    assert run(tmp_path, "synthesize", {
        "schema_version": 1, "field": str(field), "window": win_cfg,
        "out": str(tmp_path / "rec.dstf")}) == 0
    rec = read_signal(tmp_path / "rec.dstf")
    assert rec.grid == f.grid and rec.grid.origin == (-7.9, -7.9)
    g = gaussian_window(Grid.from_bounds([-8], [8], [32]), [1.0])
    pairing = grids.inner_product(g.as_signal(), g.as_signal())
    assert grids.rel_l2_error(rec.values, pairing * f.values) <= 1e-4


def test_version_2_field_synthesizes_onto_the_zero_centered_grid(tmp_path):
    # a version 2 file holds the xi lattice in place of the signal grid and
    # synthesizes onto its zero-centered dual, as the same field in a
    # version 3 file does with that out_grid
    _, win_cfg, field = _analyze_off_centre(tmp_path)
    F = read_field(field)
    centred = F.xi_grid.dual()
    v3 = field.read_bytes()
    y = 8 + len(sigio._pack_grid(F.y_grid))     # where the grid header starts
    s = y + len(sigio._pack_grid(F.grid))
    v2 = tmp_path / "F2.dstf"
    v2.write_bytes(v3[:4] + struct.pack("<I", 2) + v3[8:y]
                   + sigio._pack_grid(F.xi_grid) + v3[s:])
    assert read_field(v2).grid == centred
    out_grid = {"origin": list(centred.origin), "spacing": list(centred.spacing),
                "counts": list(centred.counts)}
    for name, path, extra in (("rec2", v2, {}), ("rec3", field, {"out_grid": out_grid})):
        assert run(tmp_path, "synthesize", {
            "schema_version": 1, "field": str(path), "window": win_cfg,
            "out": str(tmp_path / f"{name}.dstf"), **extra}) == 0
    rec2 = (tmp_path / "rec2.dstf").read_bytes()
    assert rec2 == (tmp_path / "rec3.dstf").read_bytes()
    assert read_signal(tmp_path / "rec2.dstf").grid == centred


@pytest.mark.parametrize("cut", [16, -3])
def test_analyze_rejects_bad_signal_length(tmp_path, capsys, cut):
    sig, win_cfg = _analyze_64(tmp_path)
    buf = sig.read_bytes()
    sig.write_bytes(buf[:-cut] if cut > 0 else buf + b"\x00" * -cut)
    code = run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig), "window": win_cfg,
        "frame": {"u": [[1.0, 0.0]]}, "out": str(tmp_path / "G.dstf"),
    })
    err = capsys.readouterr().err
    assert code == 2
    assert f"expected {len(buf)} bytes, got {len(buf) - cut}" in err


def test_analyze_field_above_cap_exits_2(tmp_path, capsys, monkeypatch):
    sig = gen_gaussian(tmp_path)
    monkeypatch.setattr(transform, "FIELD_BYTES_CAP", 16 * 64 * 64 - 1)
    code = run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig),
        "window": roundtrip_cfg(tmp_path, sig)["window_g"],
        "frame": {"u": [[1.0]]}, "out": str(tmp_path / "F.dstf"),
    })
    err = capsys.readouterr().err
    assert code == 2
    assert f"takes {16 * 64 * 64} bytes" in err and "Traceback" not in err
    assert not (tmp_path / "F.dstf").exists()
    # roundtrip streams the same transform and stays under the cap
    assert run(tmp_path, "roundtrip", roundtrip_cfg(tmp_path, sig)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["timings"]) == {"reconstruct_s"}


@pytest.mark.parametrize("u_sheet, u_frame, cells, hit", [
    # k=n=2: the sheet t1=0 is the line y~1=0, which runs through (0, 1)
    ([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
     [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
    # k=1 across the sheet t2=0: every y~ slice crosses it
    ([0.0, 1.0], [[1.0, 0.0]], [[0.0], [2.0]], [[0.0], [2.0]]),
])
def test_wavefront_verdict_follows_the_frame(tmp_path, u_sheet, u_frame,
                                             cells, hit):
    cfg = sheet_wavefront_cfg(tmp_path, u=u_sheet)
    k = len(u_frame)
    cfg["frame"] = {"u": u_frame}
    cfg["window"]["grid"] = {"bounds": [[-2] * k, [2] * k], "counts": [32] * k}
    cfg["cells"] = [{"center": c, "radius": 0.25} for c in cells]
    assert run_warned(tmp_path, "wavefront", cfg) in (0, 1)
    expected = json.loads((tmp_path / "wf.json").read_text())[
        "comparison"]["expected_singular"]
    # each hit cell with the cones -u, then u, as plain JSON numbers
    assert [y for y, _ in expected] == [y for y in hit for _ in range(2)]
    assert np.allclose([c for _, c in expected],
                       [np.negative(u_sheet), u_sheet] * len(hit))


def test_oracle_commands_match_the_fast_ones(tmp_path, monkeypatch):
    calls = []

    def spy(name):
        oracle = getattr(cli, name)

        def call(*args, **kwargs):
            calls.append(name)
            return oracle(*args, **kwargs)
        return call

    for name in ("dstft_direct", "dso_direct"):
        monkeypatch.setattr(cli, name, spy(name))
    sig = gen_gaussian(tmp_path, counts=(16, 16), lo=(-4, -4), hi=(4, 4))
    win_cfg = {"kind": "gaussian", "sigma": [1.0],
               "grid": {"bounds": [[-4], [4]], "counts": [16]}}
    out = {}
    for flags in ((), ("--oracle",)):
        tag = "oracle" if flags else "fast"
        assert run(tmp_path, "analyze", {
            "schema_version": 1, "signal": str(sig), "window": win_cfg,
            "frame": {"u": [[1.0, 1.0]]}, "out": str(tmp_path / f"F_{tag}.dstf"),
        }, *flags) == 0
        # both syntheses read the fast field, so each command is compared
        # on its own
        assert run(tmp_path, "synthesize", {
            "schema_version": 1, "field": str(tmp_path / "F_fast.dstf"),
            "window": win_cfg, "out": str(tmp_path / f"rec_{tag}.dstf"),
        }, *flags) == 0
        out[tag] = (read_field(tmp_path / f"F_{tag}.dstf").values,
                    read_signal(tmp_path / f"rec_{tag}.dstf").values)
    assert calls == ["dstft_direct", "dso_direct"]
    for fast, oracle in zip(out["fast"], out["oracle"]):
        assert relative_error(oracle, fast) <= 1e-10


def test_strict_window_rejects_a_gaussian_wavefront_window(tmp_path):
    cfg = sheet_wavefront_cfg(tmp_path)
    cfg["window"] = {"kind": "gaussian", "sigma": [0.5],
                     "grid": {"bounds": [[-2], [2]], "counts": [32]}}
    with pytest.warns(WindowClassWarning, match="Gevrey bump"):
        assert run_warned(tmp_path, "wavefront", cfg) in (0, 1)


NAN = float("nan")
WIN16 = {"kind": "gaussian", "sigma": [1.0],
         "grid": {"bounds": [[-4], [4]], "counts": [16]}}


@pytest.mark.parametrize("command, edit, message", [
    ("analyze", {"window": []}, "window must be a JSON object, got list"),
    ("analyze", {"window": {**WIN16, "grid": None}},
     "grid must be a JSON object, got NoneType"),
    ("analyze", {"frame": None}, "frame must be a JSON object"),
    ("gen", {"params": []}, "gaussian params must be a JSON object"),
    ("analyze", {"window": {**WIN16, "grid": {"bounds": [[-4], [4]],
                                              "counts": [10 ** 12]}}},
     "out of memory"),
    ("analyze", {"y_grid": {"bounds": [[-4, -4], [4, 4]], "counts": [4, 4]}},
     "points must have 1 coordinates"),
    ("analyze", {"frame": {"u": [[NAN, 1.0]]}}, "direction row 0 is not finite"),
    ("analyze", {"y_grid": {"bounds": [[-4], [4]], "counts": [16.5]}},
     "grid counts must be integers, got 16.5"),
    ("gen", {"grid": {"bounds": [[-4, -4], [4, 4]], "counts": ["16", 16]}},
     "grid counts must be integers, got '16'"),
    ("gen", {"grid": {"bounds": [[-4, -4], [4, 4]], "counts": [0, 16]}},
     "grid counts must be at least 2"),
    ("analyze", {"y_grid": {"origin": [NAN], "spacing": [0.5],
                            "counts": [16]}}, "must be finite"),
    ("analyze", {"window": {"kind": "gaussian", "sigma": [1.0]}},
     "window is missing required key 'grid'"),
    ("analyze", {"window": {"sigma": [1.0], "grid": WIN16["grid"]}},
     "window is missing required key 'kind'"),
    ("analyze", {"window": {"kind": "gevrey_bump", "radius": 0.5,
                            "grid": WIN16["grid"]}},
     "window is missing required key 'alpha'"),
    ("analyze", {"window": {"kind": "custom"}},
     "window is missing required key 'path'"),
    ("analyze", {"frame": {}}, "frame is missing required key 'u'"),
    ("analyze", {"y_grid": {"bounds": [[-4], [4]]}},
     "grid is missing required key 'counts'"),
    ("analyze", {"y_grid": {"origin": [-4.0], "counts": [16]}},
     "grid is missing required key 'spacing'"),
    ("gen", {"kind": "delta_sheet", "params": {"c": 0.0}},
     "delta_sheet params is missing required key 'u'"),
    ("gen", {"kind": "random_bandlimited", "params": {"band": 0.5}},
     "random_bandlimited params is missing required key 'seed'"),
    ("gen", {"kind": "sum", "params": {"parts": [{"sigma": 1.0}]}},
     "sum parts[0] is missing required key 'kind'"),
])
def test_bad_config_exits_2_with_a_message(tmp_path, capsys, command, edit,
                                           message):
    sig = gen_gaussian(tmp_path, counts=(16, 16), lo=(-4, -4), hi=(4, 4))
    base = {
        "gen": {"schema_version": 1, "kind": "gaussian",
                "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
                "params": {"sigma": 1.0}, "out": str(tmp_path / "g.dstf")},
        "analyze": {"schema_version": 1, "signal": str(sig), "window": WIN16,
                    "frame": {"u": [[1.0, 1.0]]},
                    "out": str(tmp_path / "F.dstf")},
    }[command]
    capsys.readouterr()
    assert run(tmp_path, command, {**base, **edit}) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "F.dstf").exists()
    assert not (tmp_path / "g.dstf").exists()



@pytest.mark.parametrize("command, key", [
    ("analyze", "signal"), ("analyze", "window"), ("analyze", "out"),
    ("gen", "grid"), ("gen", "kind"), ("wavefront", "cells"),
    ("wavefront", "alpha"),
])
def test_missing_required_config_key_exits_2_naming_it(tmp_path, capsys,
                                                       command, key):
    sig = gen_gaussian(tmp_path, counts=(16, 16), lo=(-4, -4), hi=(4, 4))
    cfg = {
        "gen": {"schema_version": 1, "kind": "gaussian",
                "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
                "out": str(tmp_path / "g.dstf")},
        "analyze": {"schema_version": 1, "signal": str(sig), "window": WIN16,
                    "frame": {"u": [[1.0, 1.0]]},
                    "out": str(tmp_path / "F.dstf")},
        "wavefront": sheet_wavefront_cfg(tmp_path),
    }[command]
    del cfg[key]
    capsys.readouterr()
    assert run(tmp_path, command, cfg) == 2
    err = capsys.readouterr().err
    assert f"{command} config is missing required key '{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, edit, message", [
    ("wavefront", {"alpha": None}, "alpha must be a number, got null"),
    ("wavefront", {"cells": [5]}, "cells[0] must be a JSON object, got int: 5"),
    ("wavefront", {"cones": {"count": None}},
     "cones count must be an integer, got null"),
    ("gen", {"grid": {"origin": [0.0], "spacing": [0.5], "counts": 16}},
     "grid counts must be a JSON list, got 16"),
    ("wavefront", {"frame": {"u": {"a": 1}}},
     'frame u must be a number, got {"a": 1}'),
    ("wavefront", {"window": {"kind": "gaussian", "sigma": {"a": 1},
                              "grid": {"bounds": [[-2], [2]], "counts": [32]}}},
     'window sigma must be a number, got {"a": 1}'),
    ("wavefront", {"window": {"kind": "gaussian", "sigma": None,
                              "grid": {"bounds": [[-2], [2]], "counts": [32]}}},
     "window sigma must be a number, got null"),
    ("gen", {"grid": {"bounds": [{"a": 1}, [4]], "counts": [16]}},
     'grid bounds must be a number, got {"a": 1}'),
    ("gen", {"kind": "sum", "params": {"parts": 3}},
     "sum parts must be a JSON list, got 3"),
    ("gen", {"kind": "sum", "params": {"parts": [3]}},
     "sum parts[0] must be a JSON object, got int: 3"),
    ("gen", {"params": {"sigma": 1.0, "center": {"a": 1}}},
     'gaussian center must be a number, got {"a": 1}'),
    ("wavefront", {"signal": 3}, "signal must be a JSON string (a file path), got 3"),
    ("synthesize", {"field": 3}, "field must be a JSON string (a file path), got 3"),
    ("gen", {"out": 3}, "out must be a JSON string (a file path), got 3"),
    ("gen", {"sidecar": 4}, "sidecar must be a JSON string (a file path), got 4"),
    ("wavefront", {"window": {"kind": "custom", "path": 3}},
     "window path must be a JSON string (a file path), got 3"),
    ("roundtrip", {"report": 3}, "report must be a JSON string (a file path), got 3"),
    ("wavefront", {"out_json": 3}, "out_json must be a JSON string (a file path), got 3"),
    ("wavefront", {"out_csv": None},
     "out_csv must be a JSON string (a file path), got null"),
    ("gen", {"grid": {"bounds": [[-4], [[1, 2]]], "counts": [16]}},
     "grid bounds must be a number, got [1, 2]"),
    ("wavefront", {"frame": {"u": [[[1, 0]]]}}, "frame u must be a number, got [1, 0]"),
    ("roundtrip", {"window_g": {**WIN16, "sigma": [[[1.0]]]}},
     "window sigma must be a number, got [[1.0]]"),
    # NaN passes a `<=` guard: alpha reached np.polyfit, and LAPACK wrote
    # its DLASCL complaint to fd 2
    ("wavefront", {"alpha": NAN}, "alpha must exceed 1 and be finite, got nan"),
    ("wavefront", {"alpha": math.inf}, "alpha must exceed 1 and be finite, got inf"),
    ("wavefront", {"threshold_N": NAN}, "threshold_N must be a number, got NaN"),
    # residual_cap is a constant of the scan, not a config key
    ("wavefront", {"residual_cap": NAN},
     "unknown key(s) in wavefront config: ['residual_cap']"),
    ("roundtrip", {"tolerance": NAN}, "tolerance must be a number >= 0, got nan"),
    ("roundtrip", {"tolerance": -1e-3}, "tolerance must be a number >= 0, got -0.001"),
    ("wavefront", {"cones": {"count": math.inf}},
     "cones count must be an integer, got Infinity"),
    ("wavefront", {"cones": {"count": 1e308}}, "cones count must be at most 2048"),
    # an integer key takes an integral number only, by the grid counts' rule
    ("wavefront", {"cones": {"count": 8.9}}, "cones count must be an integer, got 8.9"),
    ("gen", {"kind": "random_bandlimited", "params": {"seed": 3.7}},
     "random_bandlimited seed must be an integer, got 3.7"),
    # a number key takes a JSON number only, not a string or a bool
    ("wavefront", {"alpha": "2.0"}, 'alpha must be a number, got "2.0"'),
    ("wavefront", {"window": {"kind": "gevrey_bump", "radius": "0.5", "alpha": 2.0,
                              "grid": {"bounds": [[-2], [2]], "counts": [32]}}},
     'window radius must be a number, got "0.5"'),
    ("wavefront", {"cones": {"count": 8, "r_min": "0.5"}},
     'cones r_min must be a number, got "0.5"'),
    ("wavefront", {"cones": {"count": True}}, "cones count must be an integer, got true"),
    ("gen", {"kind": "delta_sheet", "params": {"u": ["1", "0"]}},
     'delta_sheet u must be a number, got "1"'),
    ("wavefront", {"frame": {"u": ["1", "0"]}}, 'frame u must be a number, got "1"'),
    ("roundtrip", {"window_g": {**WIN16, "sigma": True}},
     "window sigma must be a number, got true"),
    # hi - lo of two finite bounds overflows
    ("gen", {"grid": {"bounds": [[-1e308], [1e308]], "counts": [16]}},
     "grid bounds must be finite and span a finite width"),
    # a config holds several grids; an error names the one at fault
    ("analyze", {"y_grid": {"origin": [-4], "spacing": [-0.5], "counts": [16]}},
     "error: y_grid spacing must be positive"),
    ("roundtrip", {"y_grid": {"origin": [-1e308], "spacing": [-1e308],
                              "counts": [16]}},
     "error: y_grid origin, spacing and extent must be finite"),
    ("wavefront", {"y_grid": {"origin": [-4], "spacing": [0.0], "counts": [16]}},
     "error: y_grid spacing must be positive"),
    ("analyze", {"window": {**WIN16, "grid": {"origin": [-4], "spacing": [-0.5],
                                              "counts": [16]}}},
     "error: window grid spacing must be positive"),
    ("wavefront", {"window": {"kind": "gevrey_bump", "radius": 0.5, "alpha": 2.0,
                              "grid": {"origin": [-2, 0], "spacing": [0.125],
                                       "counts": [32]}}},
     "error: window grid: origin, spacing and counts must share a positive length"),
    ("gen", {"grid": {"origin": [-4], "spacing": [-0.5], "counts": [16]}},
     "error: grid spacing must be positive"),
    # a finite grid whose coordinates overflow the fixture's arithmetic
    ("gen", {"grid": {"bounds": [[-4], [1.7e308]], "counts": [16]}},
     "error: grid coordinates reach 1.7e+308, whose square overflows"),
    ("gen", {"grid": {"origin": [-1e300], "spacing": [1e299], "counts": [16]}},
     "error: grid coordinates reach 1e+300, whose square overflows"),
    # a fixture param whose value takes the fixture out of floating-point
    # range on an ordinary grid
    ("gen", {"params": {"sigma": 1e-310}}, "error: gaussian sigma 1e-310 is out of"),
    ("gen", {"params": {"sigma": 1e-160}}, "error: gaussian sigma 1e-160 is out of"),
    ("gen", {"params": {"center": [1e308]}}, "error: gaussian center [1e+308] is out of"),
    ("gen", {"kind": "plane_wave", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"xi0": [1e308, 0]}},
     "error: plane_wave xi0 [1e+308, 0] is out of"),
    ("gen", {"kind": "heaviside_sheet", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"u": [1e308, 1e308]}},
     "error: heaviside_sheet u [1e+308, 1e+308] is out of"),
    ("gen", {"kind": "delta_sheet", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"u": [1e308, 1e308]}},
     "error: delta_sheet u [1e+308, 1e+308] is out of"),
    ("gen", {"kind": "delta_sheet", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"u": [1e-320, 0]}},
     "error: delta_sheet u [1e-320, 0] is out of"),
    # a zero normal is refused by both sheets, not blamed on its range
    ("gen", {"kind": "delta_sheet", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"u": [0, 0]}},
     "error: sheet normal must be nonzero"),
    ("gen", {"kind": "heaviside_sheet", "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [16, 16]},
             "params": {"u": [0, 0]}},
     "error: sheet normal must be nonzero"),
])
def test_wrong_type_config_value_exits_2_naming_the_key(tmp_path, capfd, command,
                                                        edit, message):
    # fd 2, not sys.stderr: LAPACK prints its argument errors there
    base = {
        "wavefront": sheet_wavefront_cfg(tmp_path),
        "gen": {"schema_version": 1, "kind": "gaussian",
                "grid": {"bounds": [[-4], [4]], "counts": [16]},
                "params": {"sigma": 1.0}, "out": str(tmp_path / "g.dstf")},
        "synthesize": {"schema_version": 1, "field": str(tmp_path / "F.dstf"),
                       "window": WIN16, "out": str(tmp_path / "rec.dstf")},
        "roundtrip": {"schema_version": 1, "signal": str(tmp_path / "sheet.dstf"),
                      "window_g": WIN16, "frame": {"u": [[1.0, 0.0]]},
                      "report": str(tmp_path / "rt.json")},
        "analyze": {"schema_version": 1, "signal": str(tmp_path / "sheet.dstf"),
                    "window": WIN16, "frame": {"u": [[1.0, 0.0]]},
                    "out": str(tmp_path / "F.dstf")},
    }[command]
    capfd.readouterr()
    assert run(tmp_path, command, {**base, **edit}) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "wf.json").exists()
    assert not (tmp_path / "g.dstf").exists()
    assert not (tmp_path / "F.dstf").exists()


def test_out_grid_error_names_the_key(tmp_path, capsys):
    sig = gen_gaussian(tmp_path, counts=(16, 16), lo=(-4, -4), hi=(4, 4))
    assert run(tmp_path, "analyze", {
        "schema_version": 1, "signal": str(sig), "window": WIN16,
        "frame": {"u": [[1.0, 1.0]]}, "out": str(tmp_path / "F.dstf")}) == 0
    capsys.readouterr()
    assert run(tmp_path, "synthesize", {
        "schema_version": 1, "field": str(tmp_path / "F.dstf"), "window": WIN16,
        "out_grid": {"origin": [-4, -4], "spacing": [0.5, -0.5], "counts": [16, 16]},
        "out": str(tmp_path / "rec.dstf")}) == 2
    err = capsys.readouterr().err
    assert err == "error: out_grid spacing must be positive\n"
    assert not (tmp_path / "rec.dstf").exists()


def test_config_path_as_a_descriptor_number_is_rejected_and_left_open(tmp_path,
                                                                      capsys):
    # an integer path would be taken by open() as a file descriptor, which
    # the CLI would read and then close
    sig = gen_gaussian(tmp_path, counts=(16, 16), lo=(-4, -4), hi=(4, 4))
    head = sig.read_bytes()[:64]
    r, w = os.pipe()
    try:
        os.write(w, head)
        os.close(w)         # a reader gets end of file, not a hang
        before = os.fstat(r)
        cfg = {"schema_version": 1, "signal": r, "window": WIN16,
               "frame": {"u": [[1.0, 1.0]]}, "out": str(tmp_path / "F.dstf")}
        capsys.readouterr()
        assert run(tmp_path, "analyze", cfg) == 2
        err = capsys.readouterr().err
        assert f"signal must be a JSON string (a file path), got {r}" in err
        after = os.fstat(r)     # still open, and not reused for another file
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
        assert os.read(r, 128) == head      # nothing was read
    finally:
        os.close(r)
    assert not (tmp_path / "F.dstf").exists()


def test_selftest_checks_reconstruct_against_the_multiplier(capsys):
    assert main(["selftest"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("reconstruct vs multiplier f·M (k=n=2 tensor window) ")]
    assert len(rows) == 1 and rows[0].endswith("PASS")


def _writing_commands(tmp_path):
    """(command, config) for every writing command, in an order that runs:
    gen, analyze, synthesize, roundtrip with a report and wavefront with
    both outputs."""
    win64 = {"kind": "gaussian", "sigma": [1.0],
             "grid": {"bounds": [[-8], [8]], "counts": [64]}}
    wavefront = sheet_wavefront_cfg(tmp_path)
    return [
        ("gen", {"schema_version": 1, "kind": "gaussian",
                 "grid": {"bounds": [[-8], [8]], "counts": [64]},
                 "params": {"sigma": 1.0}, "out": str(tmp_path / "f.dstf")}),
        ("gen", {"schema_version": 1, "kind": "delta_sheet",
                 "grid": {"bounds": [[-4, -4], [4, 4]], "counts": [32, 32]},
                 "params": {"u": [1.0, 0.0], "c": 0.0},
                 "out": wavefront["signal"]}),
        ("analyze", {"schema_version": 1, "signal": str(tmp_path / "f.dstf"),
                     "window": win64, "frame": {"u": [[1.0]]},
                     "out": str(tmp_path / "F.dstf")}),
        ("synthesize", {"schema_version": 1, "field": str(tmp_path / "F.dstf"),
                        "window": win64, "out": str(tmp_path / "rec.dstf")}),
        ("roundtrip", roundtrip_cfg(tmp_path, tmp_path / "f.dstf")),
        ("wavefront", wavefront),
    ]


def test_rerun_onto_the_same_outputs_replaces_them_unchanged(tmp_path,
                                                             monkeypatch):
    # the second pass may not truncate an existing output in place (a
    # truncation waits for the old file's write-back), and must write the
    # same bytes as the first
    configs = []
    for i, (command, cfg) in enumerate(_writing_commands(tmp_path)):
        path = tmp_path / f"{i}-{command}.json"
        path.write_text(json.dumps(cfg))
        configs.append([command, "--config", str(path)])
    outputs = ["f.dstf", "f.dstf.json", "sheet.dstf", "sheet.dstf.json",
               "F.dstf", "rec.dstf", "report.json", "wf.json", "wf.csv"]

    def snapshot():
        files = {name: (tmp_path / name).read_bytes() for name in outputs}
        report = json.loads(files.pop("report.json"))
        del report["timings"]
        return files, report

    # the sheet does not decay to its box boundary, so its wavefront run warns
    with pytest.warns(BoundaryMassWarning, match="boundary carries"):
        for argv in configs:
            assert main(argv) == 0, argv
    first = snapshot()
    real_open = builtins.open

    def no_truncation(file, mode="r", *args, **kwargs):
        if (mode in ("w", "wb") and isinstance(file, (str, os.PathLike))
                and os.path.isfile(file) and not os.path.islink(file)):
            raise AssertionError(f"{file} truncated in place")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_truncation)
    with pytest.warns(BoundaryMassWarning, match="boundary carries"):
        for argv in configs:
            assert main(argv) == 0, argv
    monkeypatch.undo()
    assert snapshot() == first


@pytest.mark.parametrize("step, key", [
    (0, "out"), (0, "sidecar"), (2, "out"), (3, "out"), (4, "report"),
    (5, "out_json"), (5, "out_csv"),
])
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, step, key):
    commands = _writing_commands(tmp_path)
    for command, cfg in commands[:step]:
        assert run(tmp_path, command, cfg) == 0
    command, cfg = commands[step]
    (tmp_path / "a_directory").mkdir()
    capsys.readouterr()
    # the wavefront scan of the sheet warns of its boundary mass before it
    # writes its reports
    bad = {**cfg, key: str(tmp_path / "a_directory")}
    assert (run_warned(tmp_path, command, bad) if command == "wavefront"
            else run(tmp_path, command, bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a_directory" in err
    assert "Traceback" not in err


def _fuzz_configs(tmp_path):
    """A valid config of every command, on grids of at most 32 points per
    axis; wavefront reads the sheet's ground truth, so it can exit 1."""
    wavefront = sheet_wavefront_cfg(tmp_path)
    sheet = wavefront["signal"]
    assert run(tmp_path, "analyze", {
        "schema_version": 1, "signal": sheet, "window": WIN16,
        "frame": {"u": [[1.0, 0.0]]}, "out": str(tmp_path / "F.dstf")}) == 0
    grid = {"bounds": [[-4, -4], [4, 4]], "counts": [32, 32]}
    return {
        "gen": {"schema_version": 1, "kind": "sum", "grid": {
                    "origin": [-4.0, -4.0], "spacing": [0.25, 0.25],
                    "counts": [32, 32]},
                "params": {"parts": [
                    {"kind": "gaussian", "sigma": 1.0, "center": [0.5, 0.0],
                     "modulation": [0.0, 1.0]},
                    {"kind": "heaviside_sheet", "u": [1, 1], "c": 0.5},
                    {"kind": "plane_wave", "xi0": [1.0, 0.5]},
                    {"kind": "random_bandlimited", "seed": 3, "band": 0.5}]},
                "out": str(tmp_path / "g.dstf"),
                "sidecar": str(tmp_path / "g.json")},
        "analyze": {"schema_version": 1, "signal": sheet, "window": WIN16,
                    "frame": {"u": [[1.0, 1.0]]},
                    "y_grid": {"bounds": [[-4], [4]], "counts": [16]},
                    "out": str(tmp_path / "F2.dstf")},
        "synthesize": {"schema_version": 1, "field": str(tmp_path / "F.dstf"),
                       "window": WIN16, "out_grid": grid,
                       "out": str(tmp_path / "rec.dstf")},
        "roundtrip": {"schema_version": 1, "signal": sheet, "window_g": WIN16,
                      "window_phi": {**WIN16, "sigma": 1.5},
                      "frame": {"u": [1.0, 0.0]}, "tolerance": 1e-3,
                      "report": str(tmp_path / "rt.json")},
        "wavefront": {**wavefront,
                      "cones": {"count": 8, "r_min": 0.5, "half_angle": 0.4},
                      "cells": [{"center": [0.0], "radius": 0.25}]},
        "wavefront (cone list)": {**wavefront, "cones": [
            {"center": [1, 0], "half_angle": 0.4, "r_min": 0.5},
            {"center": [0, 1], "half_angle": 0.4, "r_min": 0.5}]},
        "selftest": {"schema_version": 1},
    }


def _value_paths(value, path=()):
    """The path of every value below value: dict keys and list indices."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, v in items:
        yield path + (key,)
        yield from _value_paths(v, path + (key,))


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


# one value of each JSON type, and the extremes of a JSON number
OTHER_TYPES = (None, True, "x", 2, [], {})
EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308)


@st.composite
def _mutations(draw, commands):
    """(command, config): a valid config with one or two mutations at any
    depth, each of which replaces a value by one of another JSON type, the
    value one list level deeper, an extreme number or an empty container,
    or, in an object, drops the value's key or adds an unknown key."""
    name = draw(st.sampled_from(sorted(commands)))
    cfg = copy.deepcopy(commands[name])
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_value_paths(cfg))
        if not paths:       # every key was dropped
            break
        *parent, key = draw(st.sampled_from(paths))
        holder = cfg
        for k in parent:
            holder = holder[k]
        old = holder[key]
        edit = draw(st.sampled_from(
            ("replace", "drop", "add") if isinstance(holder, dict) else ("replace",)))
        if edit == "drop":
            del holder[key]
        elif edit == "add":
            holder["unknown"] = old
        else:
            holder[key] = draw(st.sampled_from(
                [v for v in OTHER_TYPES if _json_type(v) != _json_type(old)]
                + [[old], *EXTREMES, [], {}]))
    return name.split()[0], cfg


def test_mutated_configs_exit_0_1_or_2_with_one_error_line(tmp_path, capfd):
    # fd 2, not sys.stderr: LAPACK prints its argument errors there
    commands = _fuzz_configs(tmp_path)

    @settings(derandomize=True, deadline=None, database=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutations(commands))
    def check(case):
        command, cfg = case
        capfd.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            code = run(tmp_path, command, cfg)
        err = capfd.readouterr().err
        assert code in (0, 1, 2)
        # the one warning a run may give: a scan of the sheet, which does
        # not decay to its box boundary, warns of it whenever it completes
        assert {w.category for w in caught} <= {BoundaryMassWarning}
        if command == "wavefront" and code != 2:
            assert caught
        assert "Traceback" not in err and "DLASCL" not in err
        if code == 2:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        if code == 1:
            assert command in ("roundtrip", "wavefront")

    check()
