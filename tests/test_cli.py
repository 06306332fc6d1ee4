import json
import os

import numpy as np
import pytest

from dirstft import Grid, dstft_fast, gaussian_window
from dirstft.cli import main
from dirstft.direction import build_frame
from dirstft.fixtures import gaussian
from dirstft.grids import relative_error
from dirstft.sigio import read_field, read_signal
from dirstft.wavefront import WindowClassWarning

from dirstft import cli, transform


def run(tmp_path, command, cfg, *extra):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), *extra])


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
                           "timings"}


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
    assert run(tmp_path, "wavefront", cfg) == 0
    out = json.loads((tmp_path / "wf.json").read_text())
    assert out["comparison"]["verdict"] == "PASS"
    sing = [e for e in out["entries"] if not e["regular"]]
    assert len(sing) == 2
    csv_lines = (tmp_path / "wf.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "cell_center,cone_center,N_hat,regular"
    assert len(csv_lines) == 1 + len(out["entries"])


def test_wavefront_verdict_fail_on_wrong_truth(tmp_path):
    # tamper with the sidecar: claim the jump sits at offset 2 instead of 0
    cfg = sheet_wavefront_cfg(tmp_path)
    sidecar = tmp_path / "sheet.dstf.json"
    meta = json.loads(sidecar.read_text())
    meta["singular"]["offset"] = 2.0
    sidecar.write_text(json.dumps(meta))
    assert run(tmp_path, "wavefront", cfg) == 1
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


def test_selftest_oracle_cap_skips(tmp_path, capsys):
    cfg = tmp_path / "st.json"
    cfg.write_text(json.dumps({"schema_version": 1, "oracle_cap": 0}))
    with pytest.warns(UserWarning, match="skipped"):
        code = main(["selftest", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("SKIPPED") >= 2


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
    assert run(tmp_path, "wavefront", cfg) in (0, 1)
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


def test_strict_window_rejects_a_gaussian_wavefront_window(tmp_path, capsys):
    cfg = sheet_wavefront_cfg(tmp_path)
    cfg["window"] = {"kind": "gaussian", "sigma": [0.5],
                     "grid": {"bounds": [[-2], [2]], "counts": [32]}}
    assert run(tmp_path, "wavefront", cfg, "--strict-window") == 2
    err = capsys.readouterr().err
    assert "strict" in err and "Traceback" not in err
    with pytest.warns(WindowClassWarning, match="Gevrey bump"):
        assert run(tmp_path, "wavefront", cfg) in (0, 1)


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
])
def test_wrong_type_config_value_exits_2_naming_the_key(tmp_path, capsys, command,
                                                        edit, message):
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
    }[command]
    capsys.readouterr()
    assert run(tmp_path, command, {**base, **edit}) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "wf.json").exists()
    assert not (tmp_path / "g.dstf").exists()


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
