"""Command-line front end.

Commands: gen, analyze, synthesize, roundtrip, wavefront, selftest.  Every
command takes a JSON config (--config); unknown keys are rejected so typos in
tolerance names surface immediately instead of silently using defaults.

Exit codes: 0 success, 1 test/verdict failure, 2 input or config rejection.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings

import numpy as np

from . import fixtures, invariants, sigio
from .direction import DirectionFrame, build_frame, identity_frame
from .grids import Grid, Signal, check_boundary_mass
from .synthesis import dso, dso_direct, reconstruct
from .transform import dstft_direct, dstft_fast
from .wavefront import (BallSpec, ConeSpec, WavefrontReport, cone_dictionary_2d,
                        wavefront_scan)
from .windows import Window, gaussian_window, gevrey_bump, pairing_check

SCHEMA_VERSION = 1
ANGULAR_TOL_DEG = 15.0

# Config keys that name a file.  Each must be a JSON string: open() takes an
# integer as a file descriptor, which it would read or write and then close.
PATH_KEYS = ("signal", "field", "out", "sidecar", "report", "out_json",
             "out_csv")


class ConfigError(Exception):
    pass


def _object(cfg, where: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{type(cfg).__name__}: {json.dumps(cfg)}")
    return cfg


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    extra = set(_object(cfg, where)) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    for key in PATH_KEYS:
        if key in cfg:
            _path(cfg[key], key)
    return cfg


def _path(value, what: str) -> str:
    """value, or a ConfigError naming the config key unless it is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a JSON string (a file path), got "
                          f"{json.dumps(value)}")
    return value


def _number(value, what: str, cast=float):
    """cast(value), or a ConfigError naming the config key."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {json.dumps(value)}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {json.dumps(value)}")
    return value


def _numbers(value, what: str) -> list:
    return [_number(v, what) for v in _list(value, what)]


def _array(value, what: str):
    """A number, or a JSON list of them, nested to any depth, as floats."""
    if isinstance(value, list):
        return [_array(v, what) for v in value]
    return _number(value, what)


def _parse_grid(spec: dict) -> Grid:
    _check_keys(spec, {"origin", "spacing", "counts", "bounds"}, "grid")
    if "bounds" in spec:
        bounds = _array(_list(spec["bounds"], "grid bounds"), "grid bounds")
        if len(bounds) != 2:
            raise ConfigError(f"grid bounds must be [lo, hi], got "
                              f"{json.dumps(spec['bounds'])}")
        return Grid.from_bounds(*bounds, _list(spec["counts"], "grid counts"))
    return Grid(_numbers(spec["origin"], "grid origin"),
                _numbers(spec["spacing"], "grid spacing"),
                _list(spec["counts"], "grid counts"))


def _parse_window(spec: dict) -> Window:
    _check_keys(spec, {"kind", "grid", "sigma", "radius", "alpha", "path"},
                "window")
    kind = spec.get("kind")
    if kind == "custom":
        f = sigio.read_signal(_path(spec["path"], "window path"))
        return Window(f.grid, f.values)
    grid = _parse_grid(spec["grid"])
    if kind == "gaussian":
        return gaussian_window(grid, _array(spec["sigma"], "window sigma"))
    if kind == "gevrey_bump":
        return gevrey_bump(grid, _number(spec["radius"], "window radius"),
                           _number(spec["alpha"], "window alpha"))
    raise ConfigError(f"unknown window kind {kind!r}")


def _parse_frame(spec: dict):
    _check_keys(spec, {"u"}, "frame")
    return build_frame(_array(spec["u"], "frame u"))


def _build_fixture(kind: str, grid: Grid, params: dict) -> Signal:
    def arg(key, *default):
        """params[key] as numbers; an absent key takes the default, as does
        a null one where the default is null."""
        value = params.get(key, *default) if default else params[key]
        if default and value is default[0]:
            return value
        return _array(value, f"{kind} {key}")

    if kind == "gaussian":
        _check_keys(params, {"sigma", "center", "modulation"}, "gaussian params")
        return fixtures.gaussian(grid, arg("sigma", 1.0), arg("center", None),
                                 arg("modulation", None))
    if kind == "heaviside_sheet":
        _check_keys(params, {"u", "c"}, "heaviside_sheet params")
        return fixtures.heaviside_sheet(grid, arg("u"), arg("c", 0.0))
    if kind == "delta_sheet":
        _check_keys(params, {"u", "c"}, "delta_sheet params")
        return fixtures.delta_sheet(grid, arg("u"), arg("c", 0.0))
    if kind == "plane_wave":
        _check_keys(params, {"xi0"}, "plane_wave params")
        return fixtures.plane_wave(grid, arg("xi0"))
    if kind == "random_bandlimited":
        _check_keys(params, {"seed", "band"}, "random_bandlimited params")
        if "seed" not in params:
            raise ConfigError("random_bandlimited requires an explicit seed")
        return fixtures.random_bandlimited(
            grid, _number(params["seed"], "random_bandlimited seed", int),
            _number(params.get("band", 0.5), "random_bandlimited band"))
    if kind == "sum":
        _check_keys(params, {"parts"}, "sum params")
        parts = [_object(p, f"sum parts[{i}]")
                 for i, p in enumerate(_list(params["parts"], "sum parts"))]
        parts = [_build_fixture(p["kind"], grid,
                                {k: v for k, v in p.items() if k != "kind"})
                 for p in parts]
        return fixtures.signal_sum(parts)
    raise ConfigError(f"unknown fixture kind {kind!r}")


def cmd_gen(cfg: dict, args) -> int:
    _check_keys(cfg, {"schema_version", "kind", "grid", "params", "out",
                      "sidecar"}, "gen config")
    grid = _parse_grid(cfg["grid"])
    params = cfg.get("params", {})
    f = _build_fixture(cfg["kind"], grid, params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        frac = check_boundary_mass(f)
    sigio.write_signal(cfg["out"], f)
    meta = {"kind": cfg["kind"], "params": params,
            "boundary_mass_fraction": frac,
            "boundary_mass_ok": not caught}
    truth = fixtures.ground_truth(cfg["kind"], params)
    if truth is not None:
        meta.update(truth)
    sidecar = cfg.get("sidecar", cfg["out"] + ".json")
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return 0


def cmd_analyze(cfg: dict, args) -> int:
    _check_keys(cfg, {"schema_version", "signal", "window", "frame", "y_grid",
                      "out"}, "analyze config")
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window"])
    frame = _parse_frame(cfg["frame"])
    y_grid = _parse_grid(cfg["y_grid"]) if "y_grid" in cfg else None
    if args.oracle:
        F = dstft_direct(f, g, frame, y_grid=y_grid)
    else:
        F = dstft_fast(f, g, frame, y_grid=y_grid)
    sigio.write_field(cfg["out"], F)
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    _check_keys(cfg, {"schema_version", "field", "window", "out_grid", "out"},
                "synthesize config")
    F = sigio.read_field(cfg["field"])
    g = _parse_window(cfg["window"])
    if "out_grid" in cfg:
        out_grid = _parse_grid(cfg["out_grid"])
    else:
        out_grid = F.xi_grid.primal()
    if args.oracle:
        rec = dso_direct(F, g, F.frame, out_grid)
    else:
        rec = dso(F, g, F.frame, out_grid)
    sigio.write_signal(cfg["out"], rec)
    return 0


def cmd_roundtrip(cfg: dict, args) -> int:
    _check_keys(cfg, {"schema_version", "signal", "window_g", "window_phi",
                      "frame", "y_grid", "tolerance", "report"},
                "roundtrip config")
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window_g"])
    phi = _parse_window(cfg["window_phi"]) if "window_phi" in cfg else g
    frame = _parse_frame(cfg["frame"])
    y_grid = _parse_grid(cfg["y_grid"]) if "y_grid" in cfg else None
    tol = _number(cfg.get("tolerance", 1e-3), "tolerance")
    cert = pairing_check(g, phi)
    if not cert.admissible:
        print(f"inadmissible window pairing: value={cert.value}, "
              f"magnitude={cert.magnitude}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rec = reconstruct(f, g, phi, frame, y_grid=y_grid)
    t1 = time.perf_counter()
    norm = float(np.linalg.norm(f.values))
    err = rec.values - f.values
    abs_l2 = float(np.linalg.norm(err)) * math.sqrt(f.grid.cell_volume)
    if norm == 0:
        rel = abs_l2          # degenerate-norm rule: report the absolute error
    else:
        rel = float(np.linalg.norm(err)) / norm
    report = {
        "rel_l2_error": rel,
        "max_abs_error": float(np.max(np.abs(err))),
        "pairing_value": [cert.value.real, cert.value.imag],
        "timings": {"reconstruct_s": t1 - t0},
    }
    out = json.dumps(report, indent=1, sort_keys=True)
    if "report" in cfg:
        with open(cfg["report"], "w") as fh:
            fh.write(out + "\n")
    print(out)
    return 0 if rel <= tol else 1


def _cone_list(spec) -> list:
    if isinstance(spec, list):
        cones = []
        for i, c in enumerate(spec):
            where = f"cones[{i}]"
            _check_keys(c, {"center", "half_angle", "r_min"}, where)
            cones.append(ConeSpec(tuple(_numbers(c["center"], f"{where} center")),
                                  _number(c["half_angle"], f"{where} half_angle"),
                                  _number(c["r_min"], f"{where} r_min")))
        return cones
    _check_keys(spec, {"count", "r_min", "half_angle"}, "cones")
    half = spec.get("half_angle")
    return cone_dictionary_2d(
        _number(spec.get("count", 16), "cones count", int),
        r_min=_number(spec.get("r_min", 0.5), "cones r_min"),
        half_angle=None if half is None else _number(half, "cones half_angle"))


def _cell_list(spec) -> list:
    cells = []
    for i, c in enumerate(_list(spec, "cells")):
        where = f"cells[{i}]"
        _check_keys(c, {"center", "radius"}, where)
        cells.append(BallSpec(tuple(_numbers(c["center"], f"{where} center")),
                              _number(c["radius"], f"{where} radius")))
    return cells


def _report_json(report: WavefrontReport) -> dict:
    entries = []
    for e in report.entries:
        entries.append({
            "cell": {"center": list(e.y_cell.center), "radius": e.y_cell.radius},
            "cone": {"center": list(e.cone.center),
                     "half_angle": e.cone.half_angle, "r_min": e.cone.r_min},
            "fit": {"N_hat": e.fit.N_hat, "logC_hat": e.fit.logC_hat,
                    "residual": e.fit.residual, "n_points": e.fit.n_points,
                    "alpha": e.fit.alpha, "n_shells": e.fit.n_shells,
                    "slope_floor": e.fit.slope_floor},
            "regular": e.regular,
        })
    return {"threshold_N": report.threshold_N,
            "residual_cap": report.residual_cap,
            "window": report.window_meta, "entries": entries}


def _verdict(report: WavefrontReport, truth: dict, frame: DirectionFrame) -> dict:
    """Compare detected singular entries against the sidecar ground truth.

    A sheet {u . t = offset} with u = frame.u^T a lies at {a . y~ = offset}
    in y~, and a cell is hit when that hyperplane passes within the
    BallSpec.contains radius of its center.  A u outside the row span of
    frame.u leaves the sheet in every y~ slice, so every cell is hit.
    """
    tol = math.radians(ANGULAR_TOL_DEG)
    singular = truth.get("singular")
    expected = set()
    if singular is not None:
        u = np.asarray(singular["u"], dtype=float)
        offset = float(singular["offset"])
        a = np.linalg.lstsq(frame.u.T, u, rcond=None)[0]
        in_span = np.allclose(frame.u.T @ a, u, rtol=0.0, atol=1e-9)
        near_u = {c: math.acos(min(abs(np.asarray(c.center) @ u), 1.0)) <= tol
                  for c in {e.cone for e in report.entries}}
        in_cell = {y: not in_span or (
            abs(a @ np.asarray(y.center) - offset) / np.linalg.norm(a)
            <= y.radius * math.sqrt(len(y.center)) + 1e-12)
            for y in {e.y_cell for e in report.entries}}
        expected = {(e.y_cell.center, e.cone.center) for e in report.entries
                    if near_u[e.cone] and in_cell[e.y_cell]}
    detected = {(e.y_cell.center, e.cone.center) for e in report.singular}
    return {"expected_singular": [[list(y), list(c)] for y, c in sorted(expected)],
            "detected_singular": [[list(y), list(c)] for y, c in sorted(detected)],
            "verdict": "PASS" if detected == expected else "FAIL"}


def cmd_wavefront(cfg: dict, args) -> int:
    _check_keys(cfg, {"schema_version", "signal", "window", "frame", "alpha",
                      "threshold_N", "residual_cap", "cones", "cells",
                      "y_grid", "out_json", "out_csv"}, "wavefront config")
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window"])
    frame = _parse_frame(cfg["frame"])
    alpha = _number(cfg["alpha"], "alpha")
    cones = _cone_list(cfg["cones"])
    cells = _cell_list(cfg["cells"])
    y_grid = _parse_grid(cfg["y_grid"]) if "y_grid" in cfg else None
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        check_boundary_mass(f)
        report = wavefront_scan(
            f, g, frame, alpha, cells, cones,
            threshold_N=_number(cfg.get("threshold_N", 1.0), "threshold_N"),
            residual_cap=_number(cfg.get("residual_cap", 0.5), "residual_cap"),
            y_grid=y_grid, strict=args.strict_window)
    out = _report_json(report)
    truth = None
    sidecar = cfg["signal"] + ".json"
    try:
        with open(sidecar) as fh:
            truth = json.load(fh)
    except OSError:
        pass
    if truth is not None and "singular" in truth:
        out["comparison"] = _verdict(report, truth, frame)
    if "out_json" in cfg:
        with open(cfg["out_json"], "w") as fh:
            # one string from the C encoder: json.dump with indent runs
            # the pure-Python one, several times slower on a scan report
            fh.write(json.dumps(out, sort_keys=True))
    if "out_csv" in cfg:
        with open(cfg["out_csv"], "w") as fh:
            fh.write("cell_center,cone_center,N_hat,regular\n")
            for e in report.entries:
                fh.write('"%s","%s",%r,%d\n' % (
                    ";".join(repr(x) for x in e.y_cell.center),
                    ";".join(repr(x) for x in e.cone.center),
                    e.fit.N_hat, int(e.regular)))
    n_sing = len(report.singular)
    print(f"wavefront scan: {len(report.entries)} entries, {n_sing} singular")
    if "comparison" in out:
        print("ground-truth verdict:", out["comparison"]["verdict"])
        return 0 if out["comparison"]["verdict"] == "PASS" else 1
    return 0


def _selftest_cases(oracle_cap: int | None) -> list:
    """The small-fixture invariant suite: (name, error function, its
    arguments, tolerance, needs_oracle) rows over dirstft.invariants."""
    g16 = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    g32 = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    sheet_grid = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
    w16, w32 = Grid.from_bounds([-4], [4], [16]), Grid.from_bounds([-8], [8], [32])
    w4 = Grid.from_bounds([-4], [4], [32])
    f1 = fixtures.random_bandlimited(g32, 11, band=0.5)
    f2 = fixtures.random_bandlimited(g32, 12, band=0.5)
    g = gaussian_window(w32, [1.0])
    e1 = identity_frame(2, 1)

    def wavefront_mismatch():
        # a delta sheet has an exactly flat transform along its normal, so
        # the verdict does not depend on the scan's dynamic range
        rep = wavefront_scan(fixtures.delta_sheet(sheet_grid, (1, 0)),
                             gevrey_bump(w4, 0.5, 2.0), build_frame([[1.0, 0.0]]),
                             2.0, [BallSpec((0.0,), 0.25), BallSpec((2.0,), 0.25)],
                             cone_dictionary_2d(8, r_min=0.5), threshold_N=1.0)
        return len(invariants.singular_keys(rep)
                   ^ {(0.0, (1.0, 0.0)), (0.0, (-1.0, 0.0))})

    return [
        ("dft vs direct-sum oracle", invariants.dft_oracle_error,
         (f1, oracle_cap), 1e-10, True),
        ("dstft fast vs direct oracle", invariants.oracle_error,
         (fixtures.gaussian(g16), gaussian_window(w16, [1.0]), e1), 1e-10, True),
        ("dstft fast vs direct oracle (blind axis 0)", invariants.oracle_error,
         (fixtures.gaussian(g16), gaussian_window(w16, [1.0]),
          build_frame([[0.0, 1.0]])), 1e-10,
         True),
        ("Parseval (Plancherel) identity", invariants.parseval_error,
         (f1, f2), 1e-8, False),
        ("idft . dft roundtrip", invariants.dft_roundtrip_error, (f1,), 1e-10, False),
        # the window reaches past the signal box for y~ near the boundary,
        # so the y~ quadrature must cover the overlap
        ("orthogonality relation", invariants.orthogonality_error,
         (f1, f2, g, g, e1, Grid.from_bounds([-16], [16], [64])), 1e-5, False),
        ("synthesis adjoint relation", invariants.adjoint_error,
         (f1, f2, g, e1), 1e-8, False),
        # sigma=2 keeps the spectrum well inside the Nyquist box at this
        # resolution, so the trigonometric pullback stays accurate
        ("frame-change identity", invariants.frame_change_error,
         (fixtures.gaussian(g32, sigma=2.0), gaussian_window(w32, [2.0]),
          build_frame([[1.0, 1.0]]), [[0.0], [0.5]], [[0.5, 0.25], [0.0, 0.0]]),
         1e-4, False),
        ("reconstruction roundtrip", invariants.reconstruction_error,
         (fixtures.gaussian(g32), g, g, e1), 1e-3, False),
        ("window-change convolution", invariants.window_change_error,
         (fixtures.gaussian(w4), gaussian_window(w4, [1.0]),
          gaussian_window(w4, [1.5]), identity_frame(1, 1)), 1e-3, False),
        ("wavefront sheet fixture", wavefront_mismatch, (), 0, False),
    ]


def cmd_selftest(cfg: dict | None, args) -> int:
    oracle_cap = None
    if cfg is not None:
        _check_keys(cfg, {"schema_version", "oracle_cap"}, "selftest config")
        if "oracle_cap" in cfg:
            oracle_cap = _number(cfg["oracle_cap"], "oracle_cap", int)
    failed = skipped = 0
    print(f"{'case':<44} {'error':>9} {'tolerance':>9} status")
    for name, error, error_args, tol, needs_oracle in _selftest_cases(oracle_cap):
        if needs_oracle and oracle_cap is not None and oracle_cap <= 0:
            print(f"{name:<44} {'-':>9} {tol:9.0e} SKIPPED")
            skipped += 1
            continue
        try:
            err = float(error(*error_args))
        except Exception as exc:       # failures are reported, not thrown
            print(f"  [{name}] raised: {exc}", file=sys.stderr)
            err = math.nan
        ok = err <= tol
        failed += not ok
        print(f"{name:<44} {err:9.2e} {tol:9.0e} {'PASS' if ok else 'FAIL'}")
    if skipped:
        warnings.warn(f"{skipped} oracle-dependent case(s) skipped "
                      f"(oracle cap {oracle_cap})", stacklevel=2)
        print(f"warning: {skipped} case(s) SKIPPED", file=sys.stderr)
    print(f"selftest: {failed} failure(s), {skipped} skipped")
    return 1 if failed else 0


COMMANDS = {
    "gen": cmd_gen,
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "roundtrip": cmd_roundtrip,
    "wavefront": cmd_wavefront,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dstft")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--oracle", action="store_true",
                        help="use the direct-summation oracle paths")
    parser.add_argument("--strict-window", dest="strict_window",
                        action="store_true",
                        help="reject non-bump windows in wavefront scans")
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            cfg = _load_config(args.config) if args.config else None
        else:
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
