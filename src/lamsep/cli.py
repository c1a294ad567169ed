"""Config-driven command line front end.

``lamsep <command> --config file.json [--out DIR] [--alpha1 V ...]``

Configs are flat JSON objects; command-line flags override file values and
unknown keys are rejected.  Every run writes ``report.json`` (the envelope may
carry a wall-clock time and the seconds spent in each stage) and a
deterministic ``data.csv``.  ``report.json`` is strict JSON: a non-finite
number is written as ``null`` and its dotted path is listed under
``non_finite``.  Exit codes:
0 success, 1 error, 2 when the printed and independently derived material
derivative limits disagree beyond tolerance (the tracked erratum).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import NamedTuple

from . import _IMPORT_START, __version__
from .errors import DomainError, LamsepError, ParseError, ValidationError
from .field import LaminarParams, laminar_field, stationary_gradp_field, write_csv
from .fdops import StencilSpec, fd_advection
from .geometry import ArcBoundary, center_offset, to_cartesian

# 2: the envelope gained stage_s
SCHEMA_VERSION = 2
# OpenBLAS runs a matrix product of m*n*k <= 65536 * 4 multiply-adds on one
# thread (its GEMM threading cut-off).  The solver's theta transforms are
# (n_r x n_s) @ (n_s x n_s) products, so below this size the thread pool that
# OpenBLAS starts when numpy loads would never be used.
_ONE_BLAS_THREAD_MAX = 65536 * 4

_SHARED_KEYS = {"command", "alpha1", "alpha2", "nu", "delta", "phase", "center",
                "s_range", "out"}
_COMMAND_KEYS = {
    "verify-theorem1": {"r_grid", "use_tracing"},
    "verify-theorem2": {"r_grid"},
    "classify": {"field", "radii", "s", "s1", "C", "source", "growth", "step", "tol_par"},
    "trace": {"kind", "start_s", "start_r", "length", "step"},
    "zeta-check": {"pressure", "s", "r_list", "eps_over_r", "amp"},
    "simulate": {"sector_angle", "r_out", "n_s", "n_r", "dt", "t_end", "probes"},
    "sweep": {"delta_values", "alpha1_values", "alpha2_values", "nu_values"},
}
COMMANDS = tuple(_COMMAND_KEYS)


class RunConfig(NamedTuple):
    command: str
    params: LaminarParams
    arc: ArcBoundary
    options: dict
    out: Path
    parse_s: float  # the time parse_config took

    def resolved(self) -> dict:
        return {
            "command": self.command,
            "alpha1": self.params.alpha1,
            "alpha2": self.params.alpha2,
            "nu": self.params.nu,
            "delta": self.arc.delta,
            "phase": self.arc.phase,
            "center": list(self.arc.center),
            "s_range": list(self.arc.s_range),
            "out": str(self.out),
            **self.options,
        }


class RunReport(NamedTuple):
    command: str
    config: dict
    payload: dict
    wall_clock: float
    stage_s: dict
    version: str
    erratum_notes: dict
    exit_code: int

    def to_json(self) -> str:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "payload": self.payload,
            "erratum_notes": self.erratum_notes,
            "wall_clock_s": self.wall_clock,
            "stage_s": self.stage_s,
            "library_version": self.version,
        }
        non_finite: list[str] = []
        envelope = {key: _nulled(value, key, non_finite) for key, value in envelope.items()}
        envelope["non_finite"] = non_finite
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)


def _nulled(value, path: str, non_finite: list[str]):
    """``value`` with each non-finite float as None; their dotted paths go to ``non_finite``."""
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(path)
        return None
    if isinstance(value, dict):
        return {k: _nulled(v, f"{path}.{k}", non_finite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v, f"{path}.{i}", non_finite) for i, v in enumerate(value)]
    return value


def _number(key: str, value, kind=float):
    """``value`` as ``kind`` (float, or int for an integral value), else a ValidationError."""
    if isinstance(value, bool):  # JSON true/false are not numbers
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        out = kind(value)
        integral = kind is not int or float(value) == out
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{key} must be a number, got {value!r}") from exc
    if not integral:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return out


def _finite(key: str, value, kind=float):
    """``value`` as a finite ``kind`` (float or int), else a ValidationError."""
    out = _number(key, value, kind)
    if not math.isfinite(out):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return out


def _option(cfg: RunConfig, key: str, default, kind=float):
    """Command option ``key`` as a finite ``kind``; absent or null gives ``default``."""
    value = cfg.options.get(key)
    return default if value is None else _finite(key, value, kind)


def _option_list(cfg: RunConfig, key: str, default):
    """Command option ``key`` as a non-empty list of finite numbers; absent or null gives ``default``."""
    value = cfg.options.get(key)
    if value is None:
        return default
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{key} must be a non-empty list of numbers, got {value!r}")
    return [_finite(key, v) for v in value]


@contextmanager
def _invalid_input():
    """Report the library's argument checks (ValueError) as a ValidationError."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@contextmanager
def _float_range():
    """Report a closed form that leaves the float range at the given parameters (an
    overflow, or a division by a square or quotient that underflowed to zero) as a
    DomainError."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"a value leaves the float range at these parameters ({exc})") from exc


def _require_finite(values) -> None:
    """Refuse results that overflowed the float range: huge valid parameters can
    take a closed form or a traced length past it without raising."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError("a value leaves the float range at these parameters")


def _finite_pair(key: str, value) -> tuple[float, float]:
    """``value`` as two finite floats, else a ValidationError."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return _finite(key, value[0]), _finite(key, value[1])
    raise ValidationError(f"{key} must be two finite numbers, got {value!r}")


def parse_config(path=None, overrides: dict | None = None, command: str | None = None) -> RunConfig:
    """Merge a JSON config file with flag overrides into a validated RunConfig."""
    t0 = time.perf_counter()
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"config {path}: not UTF-8 text (byte {exc.start})") from exc
        if not isinstance(raw, dict):
            raise ParseError(f"config {path}: top level must be a JSON object")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    if command is not None:
        file_cmd = raw.get("command")
        if file_cmd is not None and file_cmd != command:
            raise ValidationError(f"config command {file_cmd!r} conflicts with {command!r}")
        raw["command"] = command

    cmd = raw.get("command")
    if cmd not in COMMANDS:
        raise ValidationError(f"command must be one of {COMMANDS}, got {cmd!r}")
    allowed = _SHARED_KEYS | _COMMAND_KEYS[cmd]
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ParseError(f"unknown config key(s) for {cmd}: {', '.join(unknown)}")

    problems = []
    numbers = {}
    # alpha1 = 2 keeps the defaults off the degenerate wall gradient alpha1/delta = alpha2
    for key, default in (("alpha1", 2.0), ("alpha2", 1.0), ("nu", 1.0), ("delta", 1.0),
                         ("phase", 0.0)):
        try:
            value = numbers[key] = _finite(key, raw.get(key, default))
        except ValidationError as exc:
            problems.append(str(exc))
            continue
        if key != "phase" and value <= 0:
            problems.append(f"{key} must be positive, got {value}")
    pairs = {}
    for key in ("center", "s_range"):
        try:
            if key in raw:
                pairs[key] = _finite_pair(key, raw[key])
        except ValidationError as exc:
            problems.append(str(exc))
    out = raw.get("out", "lamsep-out")
    if not isinstance(out, str) or not out:
        problems.append(f"out must be a non-empty path, got {out!r}")
    if cmd == "sweep":
        for key in _COMMAND_KEYS["sweep"]:
            if key in raw and not raw[key]:
                problems.append(f"sweep axis {key} must not be empty")
    if problems:
        raise ValidationError("; ".join(problems))

    try:
        arc = ArcBoundary(
            delta=numbers["delta"],
            phase=numbers["phase"],
            center=pairs.get("center", (0.0, 0.0)),
            s_range=pairs.get("s_range", (0.0, 0.5 * numbers["delta"])),
        )
    except ValueError as exc:  # a decreasing s_range
        raise ValidationError(str(exc)) from exc
    params = LaminarParams(alpha1=numbers["alpha1"], alpha2=numbers["alpha2"], nu=numbers["nu"])
    options = {k: raw[k] for k in raw if k in _COMMAND_KEYS[cmd]}
    return RunConfig(command=cmd, params=params, arc=arc, options=options, out=Path(out),
                     parse_s=time.perf_counter() - t0)


def _fd_variant_note(cfg: RunConfig) -> str:
    """Adjudicate the advection variant by finite differences, live."""
    from .field import advection

    arc, params = cfg.arc, cfg.params
    field = laminar_field(arc, params)
    r = 0.1 * min(params.bl, arc.delta)
    x = to_cartesian(arc, (0.0, r))
    spec = StencilSpec(h=1e-4 * arc.delta, order=4)
    rx, ry, dist = center_offset(arc.center, *x)
    adv_x, adv_y = fd_advection(field, x, spec)
    normal = (adv_x * rx + adv_y * ry) / dist
    best, best_err = "neither", math.inf
    for variant in ("paper", "corrected"):
        err = abs(normal - advection(params, arc.delta, r, variant))
        if err < best_err:
            best, best_err = variant, err
    return best


def _load(module: str):
    """The library module ``lamsep.<module>``, imported on first use.

    Each command loads only the modules it runs; the time an import takes goes
    to the import stage of the run that makes it.
    """
    global _late_import_s
    t0 = time.perf_counter()
    loaded = import_module(f".{module}", __package__)
    _late_import_s += time.perf_counter() - t0
    return loaded


def run(cfg: RunConfig) -> RunReport:
    """Dispatch a validated config, write report.json and data.csv, return the report."""
    t0 = time.perf_counter()
    late_before = _late_import_s
    cfg.out.mkdir(parents=True, exist_ok=True)
    handler = _HANDLERS[cfg.command]
    payload, rows, header, exit_code, notes = handler(cfg)
    t1 = time.perf_counter()
    write_csv(cfg.out / "data.csv", header, rows)
    late = _late_import_s - late_before
    report = RunReport(
        command=cfg.command,
        config=cfg.resolved(),
        payload=payload,
        wall_clock=t1 - t0,
        # report.json itself is written after the clocks stop
        stage_s={"import": _IMPORT_S + late, "parse": cfg.parse_s, "compute": t1 - t0 - late,
                 "write": time.perf_counter() - t1},
        version=__version__,
        erratum_notes=notes,
        exit_code=exit_code,
    )
    (cfg.out / "report.json").write_text(report.to_json())
    return report


def _cmd_theorem1(cfg: RunConfig):
    use_tracing = cfg.options.get("use_tracing")
    if use_tracing is not None and not isinstance(use_tracing, bool):
        raise ValidationError(f"use_tracing must be true or false, got {use_tracing!r}")
    r_grid = _option_list(cfg, "r_grid", None)
    theorems = _load("theorems")
    with _invalid_input(), _float_range():  # a trace config the parameters make invalid
        report = theorems.theorem1_verify(
            cfg.params, cfg.arc.delta, r_grid=r_grid, arc=cfg.arc if use_tracing else None)
    _require_finite([*report.lhs, *report.rhs, *report.mismatch,
                     *(v for check in report.geometric_crosscheck for v in check)])
    rows = list(zip(report.r_grid, report.lhs, report.rhs, report.mismatch))
    notes = {"pperp_variant_supported_by_fd": _fd_variant_note(cfg)}
    return report.to_dict(), rows, ["r", "lhs", "rhs", "mismatch"], 0, notes


def _cmd_theorem2(cfg: RunConfig):
    r_grid = _option_list(cfg, "r_grid", None)
    theorems = _load("theorems")
    with _invalid_input(), _float_range():  # too few or non-decreasing r values
        report = theorems.theorem2_limit(cfg.params, cfg.arc.delta, r_grid=r_grid)
    rows = list(zip(report.r_grid, report.ratio))
    agree = abs(report.paper_value - report.oracle_value) <= theorems.ADJUDICATION_RTOL * abs(
        report.oracle_value
    )
    notes = {
        "theorem2_limit_agrees_with": report.agrees_with,
        "paper_value": report.paper_value,
        "oracle_value": report.oracle_value,
        "pperp_variant_supported_by_fd": _fd_variant_note(cfg),
    }
    return report.to_dict(), rows, ["r", "ratio"], (0 if agree else 2), notes


def _classification_field(cfg: RunConfig):
    kind = cfg.options.get("field", "laminar")
    # every option is checked, also those the chosen field does not read
    source = cfg.options.get("source")
    if source is not None:
        source = _finite_pair("source", source)
    growth = _option(cfg, "growth", 1.0)
    if kind == "laminar":
        return laminar_field(cfg.arc, cfg.params)
    if kind == "fan":
        if source is None:
            source = to_cartesian(cfg.arc, (cfg.arc.s_range[0] - 2.0 * cfg.arc.delta, 0.0))
        return _load("tracing").fan_field(source)
    if kind == "weak":
        return _load("tracing").radial_growth_field(cfg.arc, growth)
    raise ValidationError(f"unknown classify field {kind!r}")


def _cmd_classify(cfg: RunConfig):
    arc, params = cfg.arc, cfg.params
    scale = min(params.bl, arc.delta)
    radii = _option_list(cfg, "radii", [0.2 * scale, 0.1 * scale, 0.05 * scale])
    s = _option(cfg, "s", arc.s_range[0] + 0.2 * (arc.s_range[1] - arc.s_range[0]))
    s1 = _option(cfg, "s1", arc.s_range[0] + 0.5 * (arc.s_range[1] - arc.s_range[0]))
    thresh = _option(cfg, "C", 1.2)
    tol_par = _option(cfg, "tol_par", 1e-4)
    field = _classification_field(cfg)
    tracing = _load("tracing")
    with _invalid_input():
        trace_cfg = tracing.default_trace_config(arc, params)
        trace_cfg = trace_cfg._replace(step=_option(cfg, "step", trace_cfg.step))
        result = tracing.classify_flow(field, arc, radii, s, s1, thresh, trace_cfg, tol_par=tol_par)
    payload = {"kind": result.kind, "C_threshold": result.C_threshold,
               "evidence": [{"r": r, "ratio": q} for r, q in result.evidence]}
    return payload, result.evidence, ["r", "L_over_r"], 0, {}


def _cmd_trace(cfg: RunConfig):
    arc, params = cfg.arc, cfg.params
    kind = cfg.options.get("kind", "streamline")
    start_r = _option(cfg, "start_r", 0.1 * arc.delta)
    if start_r < 0:
        raise ValidationError(f"start_r must be >= 0 (on or above the wall), got {start_r}")
    start = to_cartesian(arc, (_option(cfg, "start_s", 0.0), start_r))
    tracing = _load("tracing")
    with _invalid_input():
        trace_cfg = tracing.TraceConfig(
            step=_option(cfg, "step", 1e-3 * arc.delta),
            max_length=_option(cfg, "length", arc.delta),
            stagnation_tol=1e-10 * params.alpha1 * arc.delta,
        )
    if kind == "streamline":
        line = tracing.trace_streamline(laminar_field(arc, params), start, trace_cfg)
    elif kind in ("pressure", "level"):
        gradp = stationary_gradp_field(arc, params)
        direction = "along" if kind == "pressure" else "perpendicular"
        line = tracing.trace_pressure_line(gradp, start, trace_cfg, direction)
    else:
        raise ValidationError(f"unknown trace kind {kind!r}")
    _require_finite([line.length])
    payload = {"kind": kind, "points": len(line.points), "length": line.length}
    return payload, line.rows(), line.CSV_HEADER, 0, {}


def _cmd_zeta(cfg: RunConfig):
    arc, params = cfg.arc, cfg.params
    which = cfg.options.get("pressure", "angular")
    amp = _option(cfg, "amp", 0.2)
    tracing = _load("tracing")
    if which == "angular":
        p_field = tracing.angular_pressure(arc, params)
    elif which == "perturbed":
        p_field = tracing.perturbed_angular_pressure(arc, params, amp)
    else:
        raise ValidationError(f"unknown pressure field {which!r}")
    scale = min(params.bl, arc.delta)
    r_list = _option_list(cfg, "r_list", [0.08 * scale, 0.04 * scale, 0.02 * scale])
    s = _option(cfg, "s", arc.s_range[0] + 0.2 * (arc.s_range[1] - arc.s_range[0]))
    eps_over_r = _option(cfg, "eps_over_r", 2.0)
    with _invalid_input(), _float_range():
        report = tracing.zeta_check(p_field, arc, params, s, r_list, eps_over_r)
    rows = [
        (sm.r, sm.eps, sm.s_hat, sm.r_hat2, sm.traced_length, sm.lower_bound, sm.upper_bound)
        for sm in report.samples
    ]
    payload = {
        "fitted_c": report.fitted.c,
        "fitted_c1": report.fitted.c1,
        "fitted_c2": report.fitted.c2,
        "fitted_epsilon_hat": report.fitted.epsilon_hat,
        "bounds_hold": report.bounds_hold,
        "ratio_limit": report.ratio.value,
        "wall_gradient_rel_dev": report.wall_gradient_rel_dev,
    }
    header = ["r", "eps", "s_hat", "r_hat2", "zeta_length", "lower", "upper"]
    return payload, rows, header, 0, {}


def _cmd_simulate(cfg: RunConfig):
    n_s, n_r = _option(cfg, "n_s", 32, int), _option(cfg, "n_r", 32, int)
    if n_s * n_s * n_r <= _ONE_BLAS_THREAD_MAX and "numpy" not in sys.modules:
        # OpenBLAS reads this once, when numpy loads; a value already set is kept
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    nssim = _load("nssim")
    sim_cfg = nssim.SimConfig(
        arc=cfg.arc, params=cfg.params,
        sector_angle=_option(cfg, "sector_angle", 0.5),
        r_out=_option(cfg, "r_out", None),
        n_s=n_s,
        n_r=n_r,
        dt=_option(cfg, "dt", None),
        t_end=_option(cfg, "t_end", 0.02),
    )
    report = nssim.run_experiment(sim_cfg, _option_list(cfg, "probes", None))
    payload = {
        "probe_r": report.probe_r,
        "t0": [
            {"r": s.r, "u_t": s.u_t, "visc_t": s.visc_t, "gradp_t": s.gradp_t,
             "wall_anchor_gradp_t": s.wall_anchor_gradp_t, "ratio": s.ratio}
            for s in report.t0_samples
        ],
        "first_reversal": report.first_reversal,
        "dt": sim_cfg.effective_dt,
        "steps": sim_cfg.steps,
        "cfl": sim_cfg.cfl(),
        "dt_bound": sim_cfg.dt_bound,
    }
    nssim.dump_field_csv(report.final_state, sim_cfg, cfg.out / "field.csv")
    return payload, report.rows(), report.CSV_HEADER, 0, {}


def _cmd_sweep(cfg: RunConfig):
    deltas = _option_list(cfg, "delta_values", [cfg.arc.delta])
    if min(deltas) <= 0:
        raise ValidationError(f"delta_values must be positive, got {deltas}")
    alpha1s = _option_list(cfg, "alpha1_values", [cfg.params.alpha1])
    alpha2s = _option_list(cfg, "alpha2_values", [cfg.params.alpha2])
    nus = _option_list(cfg, "nu_values", [cfg.params.nu])
    theorems = _load("theorems")
    rows, levels_used = [], []
    for d in deltas:
        for a1 in alpha1s:
            for a2 in alpha2s:
                for nu in nus:
                    with _invalid_input():
                        params = LaminarParams(alpha1=a1, alpha2=a2, nu=nu)
                    with _float_range():
                        rep2 = theorems.theorem2_limit(params, d)
                        rep1 = theorems.theorem1_verify(params, d)
                    rows.append((d, a1, a2, nu, rep2.limit.value, rep2.oracle_value,
                                 rep2.paper_value, rep1.min_mismatch))
                    levels_used.append(rep2.limit.levels_used)
    header = ["delta", "alpha1", "alpha2", "nu", "limit", "oracle", "paper", "min_mismatch"]
    payload = {"rows": len(rows), "levels_used": levels_used}
    return payload, rows, header, 0, {}


_HANDLERS = {
    "verify-theorem1": _cmd_theorem1,
    "verify-theorem2": _cmd_theorem2,
    "classify": _cmd_classify,
    "trace": _cmd_trace,
    "zeta-check": _cmd_zeta,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lamsep", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=None)
    for key in ("alpha1", "alpha2", "nu", "delta"):
        parser.add_argument(f"--{key}", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in ("alpha1", "alpha2", "nu", "delta", "out")}
    try:
        cfg = parse_config(args.config, overrides, command=args.command)
        report = run(cfg)
    except (LamsepError, OSError) as exc:  # OSError: an unreadable config or unwritable --out
        print(f"lamsep: error: {exc}", file=sys.stderr)
        return 1
    print(f"lamsep {report.command}: wrote {cfg.out / 'report.json'} and {cfg.out / 'data.csv'}")
    if report.exit_code == 2:
        print("lamsep: printed and derived material-derivative limits disagree "
              "(tracked erratum); exit 2", file=sys.stderr)
    return report.exit_code


# seconds spent importing modules on first use (see _load), and the import of
# the package and of this module: the import stage of every report
_late_import_s = 0.0
_IMPORT_S = time.perf_counter() - _IMPORT_START

if __name__ == "__main__":
    sys.exit(main())
