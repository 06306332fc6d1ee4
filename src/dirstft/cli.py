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
import numbers
import sys
import time
import warnings
from itertools import product

import numpy as np

from . import fixtures, invariants, sigio
from .direction import DirectionFrame, build_frame, identity_frame
from .grids import Grid, Signal, _integral, check_boundary_mass, rel_l2_error
from .synthesis import _reconstruct, dso, dso_direct
from .transform import dstft_direct, dstft_fast
from .wavefront import (RESIDUAL_CAP, BallSpec, ConeSpec, WavefrontReport,
                        cone_dictionary_2d, wavefront_scan)
from .windows import Window, gaussian_window, gevrey_bump, pairing_check

SCHEMA_VERSION = 1
ANGULAR_TOL_DEG = 15.0

# The keys each window kind requires besides "kind".
WINDOW_KEYS = {"custom": ("path",), "gaussian": ("grid", "sigma"),
               "gevrey_bump": ("grid", "radius", "alpha")}

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


def _check_keys(cfg: dict, where: str, required: tuple = (),
                optional: tuple = ()) -> None:
    """Reject a key that is neither required nor optional, then a missing
    required one."""
    extra = set(_object(cfg, where)) - set(required) - set(optional)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{where} is missing required key {key!r}")


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
    """cast(value), or a ConfigError naming the config key: value must be
    a JSON number (a numbers.Real, not a bool or a string), and for an
    integer key an integral one (grids._integral), not truncated."""
    try:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or cast is int and not _integral(value)):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {json.dumps(value)}") from None


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a JSON list, got {json.dumps(value)}")
    return value


def _numbers(value, what: str) -> list:
    return [_number(v, what) for v in _list(value, what)]


def _vector(value, what: str):
    """A number, or a flat JSON list of numbers, as floats."""
    return _numbers(value, what) if isinstance(value, list) else _number(value, what)


def _parse_grid(spec: dict, what: str) -> Grid:
    """The grid of the config key what ("grid", "y_grid", "out_grid" or
    "window grid"), which every error message names."""
    need = ("bounds",) if "bounds" in _object(spec, what) else ("origin", "spacing")
    _check_keys(spec, what, need + ("counts",), ("origin", "spacing", "bounds"))
    if "bounds" in spec:
        box = [_vector(b, f"{what} bounds")
               for b in _list(spec["bounds"], f"{what} bounds")]
        if len(box) != 2:
            raise ConfigError(f"{what} bounds must be [lo, hi], got "
                              f"{json.dumps(spec['bounds'])}")
        make = Grid.from_bounds
    else:
        box = (_numbers(spec["origin"], f"{what} origin"),
               _numbers(spec["spacing"], f"{what} spacing"))
        make = Grid
    counts = _list(spec["counts"], f"{what} counts")
    try:
        return make(*box, counts)
    except ValueError as exc:
        # Grid's own checks say "grid ..." whichever key the grid came from
        msg = str(exc)
        raise ConfigError(what + msg[4:] if msg.startswith("grid ")
                          else f"{what}: {msg}") from None


def _parse_window(spec: dict) -> Window:
    kind = _object(spec, "window").get("kind")
    need = WINDOW_KEYS.get(kind, ()) if isinstance(kind, str) else ()
    _check_keys(spec, "window", ("kind",) + need,
                ("grid", "sigma", "radius", "alpha", "path"))
    if kind == "custom":
        f = sigio.read_signal(_path(spec["path"], "window path"))
        return Window(f.grid, f.values)
    if kind == "gaussian":
        return gaussian_window(_parse_grid(spec["grid"], "window grid"),
                               _vector(spec["sigma"], "window sigma"))
    if kind == "gevrey_bump":
        return gevrey_bump(_parse_grid(spec["grid"], "window grid"),
                           _number(spec["radius"], "window radius"),
                           _number(spec["alpha"], "window alpha"))
    raise ConfigError(f"unknown window kind {kind!r}")


def _parse_frame(spec: dict):
    """The frame of u, one direction as a flat list or k of them as a list
    of flat lists."""
    _check_keys(spec, "frame", ("u",))
    u = spec["u"]
    if isinstance(u, list) and u and isinstance(u[0], list):
        return build_frame([_numbers(row, "frame u") for row in u])
    return build_frame(_vector(u, "frame u"))


def _y_grid(cfg: dict, frame) -> Grid | None:
    """The config's y_grid, None when it gives none; a y_grid needs one
    axis per frame direction."""
    if "y_grid" not in cfg:
        return None
    y_grid = _parse_grid(cfg["y_grid"], "y_grid")
    if y_grid.dim != frame.k:
        raise ConfigError(f"y_grid points must have {frame.k} coordinates each, "
                          f"one per frame direction (k = {frame.k}), got {y_grid.dim}")
    return y_grid


def _out_of_range(kind: str, grid: Grid, args: dict) -> str | None:
    """The first key of a fixture's args whose value takes the fixture's
    arithmetic over the grid's box out of floating-point range, by the
    scale that key sets: a gaussian's |t - center|^2, |(t - center) /
    sigma|^2 and 2 pi t . modulation, a plane wave's 2 pi t . xi0, a
    sheet's |u|^2, which must also be nonzero to normalize u.  None when
    no key does, or when the grid's own coordinates cannot be squared
    (cmd_gen names the grid).  A default value is never named: it leaves
    its scale that of the grid."""
    lo, hi = np.array(grid.origin), np.array(grid.upper)
    reach = np.maximum(abs(lo), abs(hi))
    with np.errstate(all="ignore"):
        if not np.isfinite(np.sum(reach * reach)):
            return None
        scales = {}
        if kind == "gaussian":
            center = np.zeros(grid.dim) if args["center"] is None else np.asarray(args["center"])
            dist = np.maximum(abs(lo - center), abs(hi - center))
            scales = {"center": [np.sum(dist * dist)],
                      "sigma": [np.sum((dist / np.asarray(args["sigma"])) ** 2)]}
        for key in ("modulation", "xi0"):
            if args.get(key) is not None:
                scales[key] = [2 * np.pi * np.sum(reach * abs(np.asarray(args[key])))]
        if "u" in args:
            square = np.sum(np.square(args["u"]))
            scales["u"] = [square, 1 / square]
    return next((key for key, v in scales.items() if not np.all(np.isfinite(v))), None)


def _fixture(kind: str, grid: Grid, params: dict, make, **args) -> Signal:
    """make(grid, **args), the fixture of kind with params' values args;
    a floating-point error that one key's value causes (_out_of_range) is
    a ConfigError naming the kind and that key."""
    try:
        return make(grid, **args)
    except FloatingPointError as exc:
        key = _out_of_range(kind, grid, args)
        if key is None:
            raise
        raise ConfigError(f"{kind} {key} {json.dumps(params[key])} is out of "
                          f"floating-point range on this grid: floating-point "
                          f"{exc}") from None


def _build_fixture(kind: str, grid: Grid, params: dict) -> Signal:
    def arg(key, *default):
        """params[key] as numbers; an absent key takes the default, as does
        a null one where the default is null."""
        value = params.get(key, *default) if default else params[key]
        if default and value is default[0]:
            return value
        return _vector(value, f"{kind} {key}")

    if kind == "gaussian":
        _check_keys(params, "gaussian params", (), ("sigma", "center", "modulation"))
        return _fixture(kind, grid, params, fixtures.gaussian, sigma=arg("sigma", 1.0),
                        center=arg("center", None), modulation=arg("modulation", None))
    if kind in ("heaviside_sheet", "delta_sheet"):
        _check_keys(params, f"{kind} params", ("u",), ("c",))
        return _fixture(kind, grid, params, getattr(fixtures, kind), u=arg("u"),
                        c=arg("c", 0.0))
    if kind == "plane_wave":
        _check_keys(params, "plane_wave params", ("xi0",))
        return _fixture(kind, grid, params, fixtures.plane_wave, xi0=arg("xi0"))
    if kind == "random_bandlimited":
        _check_keys(params, "random_bandlimited params", ("seed",), ("band",))
        return fixtures.random_bandlimited(
            grid, _number(params["seed"], "random_bandlimited seed", int),
            _number(params.get("band", 0.5), "random_bandlimited band"))
    if kind == "sum":
        _check_keys(params, "sum params", ("parts",))
        parts = _list(params["parts"], "sum parts")
        for i, p in enumerate(parts):
            where = f"sum parts[{i}]"
            # a part's other keys are its params, checked by its kind
            _check_keys(p, where, ("kind",), tuple(_object(p, where)))
        parts = [_build_fixture(p["kind"], grid,
                                {k: v for k, v in p.items() if k != "kind"})
                 for p in parts]
        return fixtures.signal_sum(parts)
    raise ConfigError(f"unknown fixture kind {kind!r}")


def cmd_gen(cfg: dict, args) -> int:
    _check_keys(cfg, "gen config", ("kind", "grid", "out"),
                ("schema_version", "params", "sidecar"))
    grid = _parse_grid(cfg["grid"], "grid")
    params = cfg.get("params", {})
    try:
        f = _build_fixture(cfg["kind"], grid, params)
    except FloatingPointError as exc:
        # the grid is at fault when its coordinates cannot even be squared
        reach = max(max(abs(lo), abs(hi)) for lo, hi in zip(grid.origin, grid.upper))
        if math.isfinite(reach * reach):
            raise
        raise ConfigError(f"grid coordinates reach {reach:.3g}, whose square "
                          f"overflows: floating-point {exc} evaluating the "
                          f"{cfg['kind']} fixture") from None
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
    with sigio.create(sidecar, "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return 0


def cmd_analyze(cfg: dict, args) -> int:
    _check_keys(cfg, "analyze config", ("signal", "window", "frame", "out"),
                ("schema_version", "y_grid"))
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window"])
    frame = _parse_frame(cfg["frame"])
    y_grid = _y_grid(cfg, frame)
    if args.oracle:
        F = dstft_direct(f, g, frame, y_grid=y_grid)
    else:
        F = dstft_fast(f, g, frame, y_grid=y_grid)
    sigio.write_field(cfg["out"], F)
    return 0


def cmd_synthesize(cfg: dict, args) -> int:
    _check_keys(cfg, "synthesize config", ("field", "window", "out"),
                ("schema_version", "out_grid"))
    F = sigio.read_field(cfg["field"])
    g = _parse_window(cfg["window"])
    out_grid = _parse_grid(cfg["out_grid"], "out_grid") if "out_grid" in cfg else F.grid
    if args.oracle:
        rec = dso_direct(F, g, F.frame, out_grid)
    else:
        rec = dso(F, g, F.frame, out_grid)
    sigio.write_signal(cfg["out"], rec)
    return 0


def cmd_roundtrip(cfg: dict, args) -> int:
    _check_keys(cfg, "roundtrip config", ("signal", "window_g", "frame"),
                ("schema_version", "window_phi", "y_grid", "tolerance", "report"))
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window_g"])
    phi = _parse_window(cfg["window_phi"]) if "window_phi" in cfg else g
    frame = _parse_frame(cfg["frame"])
    y_grid = _y_grid(cfg, frame)
    tol = _number(cfg.get("tolerance", 1e-3), "tolerance")
    if not tol >= 0:
        raise ConfigError(f"tolerance must be a number >= 0, got {tol}")
    t0 = time.perf_counter()
    rec, M, y_grid, stride = _reconstruct(f, g, phi, frame, y_grid=y_grid)
    t1 = time.perf_counter()
    rel = rel_l2_error(rec.values, f.values)
    pairing = pairing_check(g, phi).value
    M = np.abs(M)
    report = {
        "rel_l2_error": rel,
        "max_abs_error": float(np.max(np.abs(rec.values - f.values))),
        "pairing_value": [pairing.real, pairing.imag],
        # the multiplier reconstruct divided by, the stride of its default
        # y~ grid (null for a given y_grid) and the y~ rows it streamed
        "y_stride": stride,
        "y_rows": y_grid.size,
        "min_multiplier": float(M.min()),
        "multiplier_cond": float(M.max() / M.min()),
        "timings": {"reconstruct_s": t1 - t0},
    }
    out = json.dumps(report, indent=1, sort_keys=True)
    if "report" in cfg:
        with sigio.create(cfg["report"], "w") as fh:
            fh.write(out + "\n")
    print(out)
    return 0 if rel <= tol else 1


def _cone_list(spec, n_freqs: int) -> list:
    """The cone list, or a cone_dictionary_2d of at most 2 n_freqs cones: a
    cone's lattice points change only where one of its two edges crosses
    the direction of a lattice point, so beyond that count cones repeat."""
    if isinstance(spec, list):
        cones = []
        for i, c in enumerate(spec):
            where = f"cones[{i}]"
            _check_keys(c, where, ("center", "half_angle", "r_min"))
            cones.append(_spec(where, ConeSpec,
                               tuple(_numbers(c["center"], f"{where} center")),
                               _number(c["half_angle"], f"{where} half_angle"),
                               _number(c["r_min"], f"{where} r_min")))
        return cones
    _check_keys(spec, "cones", (), ("count", "r_min", "half_angle"))
    # an absent key, or a null half_angle, takes the library's default
    args = {k: _number(v, f"cones {k}", int if k == "count" else float)
            for k, v in spec.items() if not (k == "half_angle" and v is None)}
    if args.get("count", 0) > 2 * n_freqs:
        raise ConfigError(f"cones count must be at most {2 * n_freqs}, twice "
                          f"the frequency lattice size, got {spec['count']}")
    return _spec("cones", cone_dictionary_2d, **args)


def _cell_list(spec) -> list:
    cells = []
    for i, c in enumerate(_list(spec, "cells")):
        where = f"cells[{i}]"
        _check_keys(c, where, ("center", "radius"))
        cells.append(_spec(where, BallSpec,
                           tuple(_numbers(c["center"], f"{where} center")),
                           _number(c["radius"], f"{where} radius")))
    return cells


def _spec(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), cones or a cell, with a ValueError naming the
    config key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _by_identity(objs, fn) -> dict:
    """{id(obj): fn(obj)}, fn applied once per distinct object of objs:
    keyed by identity, not by value, since 0.0 and -0.0 compare and hash
    equal but print differently.  The objects must outlive the dict (a
    report holds its fits), so that no id is reused."""
    return {key: fn(obj) for key, obj in {id(obj): obj for obj in objs}.items()}


# The writers and the verdict below take a report's entries as the
# cell-major product of its cell and cone lists, as wavefront_scan makes
# them, and format each cell and cone by its position in its list and
# each distinct fit once.

def _report_json(report: WavefrontReport, cells: list, cones: list,
                 window: Window, comparison: dict | None = None) -> str:
    """The wf.json text: json.dumps(..., sort_keys=True) of the report's
    keys, each entry {"cell", "cone", "fit", "regular"} holding the
    dataclasses' fields, with the entry list spliced between the keys
    that sort before "entries" and those after it."""
    # one string from the C encoder: an indent would run the pure-Python
    # one; the report holds no cycle, so none is looked for
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    cell_text = [encode(vars(cell)) for cell in cells]
    cone_text = [encode(vars(cone)) for cone in cones]
    fit_text = _by_identity((e.fit for e in report.entries),
                            lambda fit: encode(vars(fit)))
    entries = ", ".join([
        '{"cell": %s, "cone": %s, "fit": %s, "regular": %s}'
        % (cell, cone, fit_text[id(e.fit)], ("false", "true")[e.regular])
        for (cell, cone), e in zip(product(cell_text, cone_text), report.entries)])
    keys = {"threshold_N": report.threshold_N, "residual_cap": RESIDUAL_CAP,
            "window": window.meta,
            "scan": {"rows_streamed": report.rows_streamed,
                     "rows_total": report.rows_total,
                     "noise_ref": list(report.noise_ref)}}
    if comparison is not None:
        keys["comparison"] = comparison
    before = encode({k: v for k, v in keys.items() if k < "entries"})[1:-1]
    after = encode({k: v for k, v in keys.items() if k > "entries"})[1:-1]
    return "{%s\"entries\": [%s], %s}" % (before + ", " if before else "",
                                          entries, after)


def _report_csv(report: WavefrontReport, cells: list, cones: list) -> str:
    """The scan's entries, cell-major, as CSV text."""
    def text(specs):
        return [";".join(map(repr, s.center)) for s in specs]

    n_hat = _by_identity((e.fit for e in report.entries),
                         lambda fit: repr(fit.N_hat))
    rows = ['"%s","%s",%s,%d\n' % (cell, cone, n_hat[id(e.fit)], e.regular)
            for (cell, cone), e in zip(product(text(cells), text(cones)),
                                       report.entries)]
    return "cell_center,cone_center,N_hat,regular\n" + "".join(rows)


def _verdict(report: WavefrontReport, cells: list, cones: list, truth: dict,
             frame: DirectionFrame) -> dict:
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
        norm_a = np.linalg.norm(a)
        hit = [y for y in cells if not in_span or (
            abs(a @ np.asarray(y.center) - offset) / norm_a <= y.reach)]
        near_u = [c for c in cones
                  if math.acos(min(abs(np.asarray(c.center) @ u), 1.0)) <= tol]
        expected = {(y.center, c.center) for y, c in product(hit, near_u)}
    detected = {(e.y_cell.center, e.cone.center) for e in report.singular}
    return {"expected_singular": [[list(y), list(c)] for y, c in sorted(expected)],
            "detected_singular": [[list(y), list(c)] for y, c in sorted(detected)],
            "verdict": "PASS" if detected == expected else "FAIL"}


def cmd_wavefront(cfg: dict, args) -> int:
    _check_keys(cfg, "wavefront config",
                ("signal", "window", "frame", "alpha", "cones", "cells"),
                ("schema_version", "threshold_N", "y_grid", "out_json",
                 "out_csv"))
    f = sigio.read_signal(cfg["signal"])
    g = _parse_window(cfg["window"])
    frame = _parse_frame(cfg["frame"])
    alpha = _number(cfg["alpha"], "alpha")
    cones = _cone_list(cfg["cones"], f.grid.size)
    cells = _cell_list(cfg["cells"])
    y_grid = _y_grid(cfg, frame)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        report = wavefront_scan(
            f, g, frame, alpha, cells, cones,
            y_grid=y_grid,
            # an absent key takes the library's default
            **{k: _number(cfg[k], k) for k in ("threshold_N",) if k in cfg})
        # after the scan, so a rejected config prints its error line only
        check_boundary_mass(f)
    truth = None
    sidecar = cfg["signal"] + ".json"
    try:
        with open(sidecar) as fh:
            truth = json.load(fh)
    except OSError:
        pass
    comparison = None
    if truth is not None and "singular" in truth:
        comparison = _verdict(report, cells, cones, truth, frame)
    if "out_json" in cfg:
        with sigio.create(cfg["out_json"], "w") as fh:
            fh.write(_report_json(report, cells, cones, g, comparison))
    if "out_csv" in cfg:
        with sigio.create(cfg["out_csv"], "w") as fh:
            fh.write(_report_csv(report, cells, cones))
    n_sing = len(report.singular)
    print(f"wavefront scan: {len(report.entries)} entries, {n_sing} singular")
    if comparison is not None:
        print("ground-truth verdict:", comparison["verdict"])
        return 0 if comparison["verdict"] == "PASS" else 1
    return 0


def _selftest_cases() -> list:
    """The small-fixture invariant suite: (name, error function, its
    arguments, tolerance) rows over dirstft.invariants."""
    g16 = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    g32 = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    sheet_grid = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
    w16, w32 = Grid.from_bounds([-4], [4], [16]), Grid.from_bounds([-8], [8], [32])
    w4 = Grid.from_bounds([-4], [4], [32])
    f1 = fixtures.random_bandlimited(g32, 11, band=0.5)
    f2 = fixtures.random_bandlimited(g32, 12, band=0.5)
    f16 = fixtures.gaussian(g16)
    t16 = gaussian_window(g16, [1.0, 1.0])
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

    sheet2 = fixtures.delta_sheet(sheet_grid, (1, 0))
    bump2 = gevrey_bump(Grid.from_bounds([-2, -2], [2, 2], [16, 16]), 0.5, 2.0)

    return [
        ("dft vs direct-sum oracle", invariants.dft_oracle_error, (f1,), 1e-10),
        ("dstft fast vs direct oracle", invariants.oracle_error,
         (f16, gaussian_window(w16, [1.0]), e1), 1e-10),
        ("dstft fast vs direct oracle (blind axis 0)", invariants.oracle_error,
         (f16, gaussian_window(w16, [1.0]), build_frame([[0.0, 1.0]])), 1e-10),
        # a tensor window on the identity frame: one transform level per axis
        ("dstft fast vs direct oracle (k=n=2 tensor window)", invariants.oracle_error,
         (f16, t16, identity_frame(2, 2)), 1e-10),
        ("Parseval (Plancherel) identity", invariants.parseval_error, (f1, f2), 1e-8),
        ("idft . dft roundtrip", invariants.dft_roundtrip_error, (f1,), 1e-10),
        # the window reaches past the signal box for y~ near the boundary,
        # so the y~ quadrature must cover the overlap
        ("orthogonality relation", invariants.orthogonality_error,
         (f1, f2, g, g, e1, Grid.from_bounds([-16], [16], [64])), 1e-5),
        # (DS_g f1, DS_phi f2) = (g, phi) (f1 M, f2) on any y~ grid, here
        # dstft_fast's default, which does not cover the window's reach
        ("orthogonality, multiplier form (u=(1,1)/sqrt2)",
         invariants.orthogonality_multiplier_error,
         (f1, f2, g, gaussian_window(w32, [1.5]), build_frame([[1.0, 1.0]])), 1e-12),
        ("synthesis adjoint relation", invariants.adjoint_error,
         (f1, f2, g, e1), 1e-8),
        # the off-lattice window values that dstft_fast and the oracle
        # dstft_direct_at both read, against the dense evaluate_trig
        ("window engine vs window_at (u=(1,1)/sqrt2)", invariants.window_engine_error,
         (gaussian_window(w16, [1.0]), g16, build_frame([[1.0, 1.0]])), 1e-12),
        # sigma=2 keeps the spectrum well inside the Nyquist box at this
        # resolution, so the trigonometric pullback stays accurate
        ("frame-change identity", invariants.frame_change_error,
         (fixtures.gaussian(g32, sigma=2.0), gaussian_window(w32, [2.0]),
          build_frame([[1.0, 1.0]]), [[0.0], [0.5]], [[0.5, 0.25], [0.0, 0.0]]),
         1e-4),
        # on the dual lattice DS*_phi DS_g is the pointwise multiplier
        # (g, phi) M, which reconstruct divides out
        ("reconstruct vs multiplier f·M (k=n=2 tensor window)",
         invariants.multiplier_error, (f16, t16, t16, identity_frame(2, 2)), 1e-12),
        ("reconstruction roundtrip", invariants.reconstruction_error,
         (fixtures.gaussian(g32), g, g, e1), 1e-3),
        ("window change DS_phi DS*_gamma F / (g, gamma)", invariants.window_change_error,
         (fixtures.gaussian(w4), gaussian_window(w4, [1.0]),
          gaussian_window(w4, [1.5]), identity_frame(1, 1)), 1e-12),
        ("wavefront sheet fixture", wavefront_mismatch, (), 0),
        # the scan streams only the rows inside its cells; every fit must
        # equal the per-entry oracle on the stored field
        ("wavefront scan vs decay_fit (k=n=2, one cell)",
         invariants.scan_oracle_error,
         (sheet2, bump2, identity_frame(2, 2), 2.0, [BallSpec((0.0, 0.0), 0.25)],
          cone_dictionary_2d(8, r_min=0.5)), 0),
    ]


def cmd_selftest(cfg: dict, args) -> int:
    _check_keys(cfg, "selftest config", (), ("schema_version",))
    failed = 0
    print(f"{'case':<52} {'error':>9} {'tolerance':>9} status")
    for name, error, error_args, tol in _selftest_cases():
        try:
            err = float(error(*error_args))
        except Exception as exc:       # failures are reported, not thrown
            print(f"  [{name}] raised: {exc}", file=sys.stderr)
            err = math.nan
        ok = err <= tol
        failed += not ok
        print(f"{name:<52} {err:9.2e} {tol:9.0e} {'PASS' if ok else 'FAIL'}")
    print(f"selftest: {failed} failure(s)")
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
    args = parser.parse_args(argv)
    try:
        if not args.config and args.command != "selftest":
            raise ConfigError(f"{args.command} requires --config")
        cfg = _load_config(args.config) if args.config else {}
        # an overflow or NaN from the inputs stops the command; it is not
        # carried on as a warning into an Inf or NaN result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: floating-point {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
