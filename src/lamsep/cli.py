"""Config-driven command line front end.

``lamsep <command> --config file.json [--out DIR] [--alpha1 V ...]``

Configs are flat JSON objects and unknown keys are rejected; a flag overrides
its key in the file and is read as that string in the file would be.  Every
run writes ``report.json`` (the envelope may carry a wall-clock time and the
seconds spent in each stage) and a deterministic ``data.csv``.
``report.json`` is strict JSON: a non-finite number is written as ``null`` and
its dotted path is listed under ``non_finite``.  Exit codes: 0 success, 2 when
the printed and independently derived material derivative limits disagree
beyond tolerance (the tracked erratum), and 1 on any error, a malformed
command line included, with one ``lamsep: error:`` line (a refused run writes
nothing).  ``parse_config`` checks every key and ``--out`` before any work,
and ``run`` lets what the library refuses while computing propagate as raised:
``main`` is the one place where an exception becomes the ``lamsep: error:`` line.

A ``lamsep`` process (the console script, or ``python -m lamsep.cli``) runs
``entry``: it calls ``main``, then freezes the heap with ``gc.freeze()``, so
that the interpreter's exit runs no full collection over the objects the run
left.  Every file is closed and ``report.json`` written before ``main``
returns, so its ``stage_s`` never counted the exit.  ``main`` itself changes
no GC state: calling it in process leaves a heap that can be collected.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import _IMPORT_START, __version__, _load
from .errors import DomainError, LamsepError, ValidationError
from .field import (LaminarParams, advection, laminar_field, near_wall_scale,
                    stationary_gradp_field, write_csv)
from .geometry import ArcBoundary, center_offset, to_cartesian

# 2: the envelope gained stage_s
SCHEMA_VERSION = 2


def _finite(value, kind=float):
    """``value`` as a finite ``kind`` (float, or int for an integral value; an int stays exact)."""
    if isinstance(value, bool) or (  # JSON true/false are not numbers, nor "1_0" or " 2.5 "
            isinstance(value, str) and ("_" in value or value.strip() != value)):
        raise ValidationError(f"must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"must be a number, got {value!r}") from None
    except OverflowError:  # an int past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ValidationError(f"must be finite, got {value!r}")
    if kind is int and not out.is_integer():
        raise ValidationError(f"must be an integer, got {value!r}")
    return value if kind is int and isinstance(value, int) else kind(out)


def _integer(value) -> int:
    return _finite(value, int)


def _positive(value) -> float:
    out = _finite(value)
    if out <= 0:
        raise ValidationError(f"must be positive, got {out}")
    return out


def _height(value) -> float:
    out = _finite(value)
    if out < 0:
        raise ValidationError(f"must be >= 0 (on or above the wall), got {out}")
    return out


def _numbers(value, read=_finite) -> list:
    """``value`` as a non-empty list, each entry read by ``read``."""
    if not isinstance(value, list) or not value:
        raise ValidationError(f"must be a non-empty list of numbers, got {value!r}")
    return [read(v) for v in value]


def _positives(value) -> list[float]:
    return _numbers(value, _positive)


def _pair(value) -> tuple[float, float]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return _finite(value[0]), _finite(value[1])
    raise ValidationError(f"must be two finite numbers, got {value!r}")


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"must be true or false, got {value!r}")
    return value


def _one_of(*names):
    def read(value) -> str:
        if value not in names:
            raise ValidationError(f"must be one of {', '.join(names)}, got {value!r}")
        return value
    return read


def _path(value) -> Path:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"must be a non-empty path, got {value!r}")
    # the nearest ancestor that exists must be a writable directory
    ancestor = os.path.join(os.getcwd(), value)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK | os.X_OK)):
        raise ValidationError(f"must be a writable directory or a path under one, got {value!r}")
    return Path(value)


# Every config key and its reader: a reader checks one value and returns it
# converted, or raises ValidationError saying what the value must be.  The shared
# keys of every command; a null shared key is refused.
_SHARED = {"alpha1": _positive, "alpha2": _positive, "nu": _positive, "delta": _positive,
           "phase": _finite, "center": _pair, "s_range": _pair, "out": _path}
# alpha1 = 2 keeps the defaults off the degenerate wall gradient alpha1/delta = alpha2;
# s_range defaults to (0, delta/2)
_SHARED_DEFAULTS = {"alpha1": 2.0, "alpha2": 1.0, "nu": 1.0, "delta": 1.0, "phase": 0.0,
                    "center": (0.0, 0.0), "out": "lamsep-out"}
class RunConfig(NamedTuple):
    command: str
    params: LaminarParams
    arc: ArcBoundary
    options: dict
    out: Path
    parse_s: float  # the time parse_config took


class RunReport(NamedTuple):
    """A finished run; its fields but ``exit_code`` are the keys of ``report.json``."""
    command: str
    config: dict
    payload: dict
    wall_clock_s: float
    stage_s: dict
    library_version: str
    erratum_notes: dict
    exit_code: int

    def to_json(self) -> str:
        envelope = self._asdict()
        del envelope["exit_code"]
        non_finite: list[str] = []
        envelope = {key: _nulled(value, key, non_finite) for key, value in envelope.items()}
        envelope.update(schema_version=SCHEMA_VERSION, non_finite=non_finite)
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)


def _nulled(value, path: str, non_finite: list[str]):
    """``value`` as JSON data: a record (a NamedTuple) as an object of its fields,
    other tuples as lists, and each non-finite float as None, its dotted path
    appended to ``non_finite``."""
    if hasattr(value, "_asdict"):  # before the tuple branch, which would write an array
        value = value._asdict()
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(path)
        return None
    if isinstance(value, dict):
        return {k: _nulled(v, f"{path}.{k}", non_finite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulled(v, f"{path}.{i}", non_finite) for i, v in enumerate(value)]
    return value


def _require_finite(values) -> None:
    """Refuse results that overflowed the float range: huge valid parameters can
    take a closed form or a traced length past it without raising."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError("a value leaves the float range at these parameters")


def parse_config(path=None, overrides: dict | None = None, command: str | None = None) -> RunConfig:
    """Merge a JSON config file with flag overrides into a validated RunConfig."""
    t0 = time.perf_counter()
    raw: dict = {}
    if path == "":  # Path("") is the working directory
        raise ValidationError(f"config must be a non-empty path, got {path!r}")
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config {path}: not UTF-8 text (byte {exc.start})") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path}: top level must be a JSON object")
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
    own = _COMMANDS[cmd][1]
    readers = _SHARED | own
    unknown = sorted(set(raw) - set(readers) - {"command"})
    if unknown:
        raise ValidationError(f"unknown config key(s) for {cmd}: {', '.join(unknown)}")

    values, problems = {}, []
    for key, read in readers.items():
        value = raw.get(key, _SHARED_DEFAULTS.get(key))
        if value is None and (key not in raw or key not in _SHARED):
            continue  # no value given: the default applies
        try:
            values[key] = read(value)
        except ValueError as exc:
            problems.append(f"{key} {exc}")
    if problems:
        raise ValidationError("; ".join(problems))

    arc = ArcBoundary(delta=values["delta"], phase=values["phase"], center=values["center"],
                      s_range=values.get("s_range", (0.0, 0.5 * values["delta"])))
    params = LaminarParams(alpha1=values["alpha1"], alpha2=values["alpha2"], nu=values["nu"])
    options = {k: v for k, v in values.items() if k in own}
    return RunConfig(command=cmd, params=params, arc=arc, options=options, out=values["out"],
                     parse_s=time.perf_counter() - t0)


def fd_advection(field, x, spec):
    """``fdops.fd_advection``, with fdops loaded on first use (``simulate`` never
    needs it).  The theorem handlers call it by this module's name, so that a
    tracer can wrap it here, as ``perfbench/traced.py`` does."""
    return _load(".fdops").fd_advection(field, x, spec)


def _fd_variant_note(cfg: RunConfig) -> str:
    """Adjudicate the advection variant by finite differences, live."""
    fdops = _load(".fdops")
    arc, params = cfg.arc, cfg.params
    field = laminar_field(arc, params)
    r = 0.1 * near_wall_scale(params, arc.delta)
    x = to_cartesian(arc, (0.0, r))
    spec = fdops.StencilSpec(h=1e-4 * arc.delta, order=4)
    rx, ry, dist = center_offset(arc.center, *x)
    adv_x, adv_y = fd_advection(field, x, spec)
    normal = (adv_x * rx + adv_y * ry) / dist
    best, best_err = "neither", math.inf
    for variant in ("paper", "corrected"):
        err = abs(normal - advection(params, arc.delta, r, variant))
        if err < best_err:
            best, best_err = variant, err
    return best


def run(cfg: RunConfig) -> RunReport:
    """Dispatch a validated config, write its files and report.json, return the report.

    A handler returns ``(payload, files, exit_code, notes)``: ``files`` maps a
    file name to its writer, called here with the path after the compute clock.
    Every ``lamsep._load`` the handler makes counts in the import stage, not in compute.
    """
    t0 = time.perf_counter()
    late_before = sys.modules[__package__]._late_import_s
    handler = _COMMANDS[cfg.command][0]
    payload, files, exit_code, notes = handler(cfg)
    t1 = time.perf_counter()
    cfg.out.mkdir(parents=True, exist_ok=True)  # only for a run that succeeded
    for name, write in files.items():
        write(cfg.out / name)
    late = sys.modules[__package__]._late_import_s - late_before
    report = RunReport(
        command=cfg.command,
        config={"command": cfg.command, **cfg.params._asdict(), **cfg.arc._asdict(),
                "out": str(cfg.out), **cfg.options},
        payload=payload,
        wall_clock_s=t1 - t0,
        # report.json itself is written after the clocks stop
        stage_s={"import": _IMPORT_S + late, "parse": cfg.parse_s, "compute": t1 - t0 - late,
                 "write": time.perf_counter() - t1},
        library_version=__version__,
        erratum_notes=notes,
        exit_code=exit_code,
    )
    (cfg.out / "report.json").write_text(report.to_json())
    return report


def _data_csv(header, rows) -> dict:
    """A handler's files: ``data.csv``, the table ``rows`` under ``header``."""
    return {"data.csv": lambda path: write_csv(path, header, rows)}


def _cmd_theorem1(cfg: RunConfig):
    theorems = _load(".theorems")
    report = theorems.theorem1_verify(
        cfg.params, cfg.arc.delta, r_grid=cfg.options.get("r_grid"),
        arc=cfg.arc if cfg.options.get("use_tracing") else None)
    _require_finite([*report.lhs, *report.rhs, *report.mismatch,
                     *(v for check in report.geometric_crosscheck for v in check)])
    rows = list(zip(report.r_grid, report.lhs, report.rhs, report.mismatch))
    notes = {"pperp_variant_supported_by_fd": _fd_variant_note(cfg)}
    return report._asdict(), _data_csv(["r", "lhs", "rhs", "mismatch"], rows), 0, notes


def _cmd_theorem2(cfg: RunConfig):
    theorems = _load(".theorems")
    report = theorems.theorem2_limit(cfg.params, cfg.arc.delta, cfg.options.get("r_grid"))
    if report.agrees_with == "neither":  # a fit too coarse to adjudicate the erratum
        raise DomainError(f"r_grid {report.r_grid}: the extrapolated limit {report.limit.value:g} "
                          f"agrees with neither the derived {report.oracle_value:g} nor the "
                          f"printed {report.paper_value:g}")
    rows = list(zip(report.r_grid, report.ratio))
    payload = report._asdict()
    limit = payload.pop("limit")
    payload.update(limit_extrapolated=limit.value, limit_error_estimate=limit.error_estimate,
                   limit_observed_order=limit.observed_order,
                   limit_levels_used=limit.levels_used)
    agree = abs(report.paper_value - report.oracle_value) <= theorems.ADJUDICATION_RTOL * abs(
        report.oracle_value
    )
    notes = {
        "theorem2_limit_agrees_with": report.agrees_with,
        "paper_value": report.paper_value,
        "oracle_value": report.oracle_value,
        "pperp_variant_supported_by_fd": _fd_variant_note(cfg),
    }
    return payload, _data_csv(["r", "ratio"], rows), (0 if agree else 2), notes


def _classification_field(cfg: RunConfig):
    arc, kind = cfg.arc, cfg.options.get("field", "laminar")
    if kind == "fan":
        default = to_cartesian(arc, (arc.s_range[0] - 2.0 * arc.delta, 0.0))
        return _load(".tracing").fan_field(cfg.options.get("source", default))
    if kind == "weak":
        return _load(".tracing").radial_growth_field(arc, cfg.options.get("growth", arc.delta**-2))
    return laminar_field(arc, cfg.params)


def _cmd_classify(cfg: RunConfig):
    arc, params, opts = cfg.arc, cfg.params, cfg.options
    scale = near_wall_scale(params, arc.delta)
    radii = opts.get("radii", [0.2 * scale, 0.1 * scale, 0.05 * scale])
    s = opts.get("s", arc.s_range[0] + 0.2 * (arc.s_range[1] - arc.s_range[0]))
    s1 = opts.get("s1", arc.s_range[0] + 0.5 * (arc.s_range[1] - arc.s_range[0]))
    field = _classification_field(cfg)
    tracing = _load(".tracing")
    trace_cfg = tracing.default_trace_config(arc, params)
    try:
        trace_cfg = trace_cfg._replace(step=opts.get("step", trace_cfg.step))
    except ValidationError as exc:  # the trace length is not a key here: say where it comes from
        raise ValidationError(f"{exc} (10*delta)") from exc
    result = tracing.classify_flow(field, arc, radii, s, s1, opts.get("C", 1.2), trace_cfg,
                                   tol_par=opts.get("tol_par", 1e-4))
    _require_finite([q for _, q in result.evidence])
    payload = {"kind": result.kind, "C_threshold": result.C_threshold,
               "evidence": [{"r": r, "ratio": q} for r, q in result.evidence]}
    return payload, _data_csv(["r", "L_over_r"], result.evidence), 0, {}


def _cmd_trace(cfg: RunConfig):
    arc, params, opts = cfg.arc, cfg.params, cfg.options
    kind = opts.get("kind", "streamline")
    start = to_cartesian(arc, (opts.get("start_s", 0.0), opts.get("start_r", 0.1 * arc.delta)))
    tracing = _load(".tracing")
    trace_cfg = tracing.default_trace_config(arc, params)
    trace_cfg = trace_cfg._replace(step=opts.get("step", trace_cfg.step),
                                   max_length=opts.get("length", arc.delta))
    if kind == "streamline":
        line = tracing.trace_streamline(laminar_field(arc, params), start, trace_cfg)
    else:  # pressure or level
        gradp = stationary_gradp_field(arc, params)
        direction = "along" if kind == "pressure" else "perpendicular"
        line = tracing.trace_pressure_line(gradp, start, trace_cfg, direction)
    _require_finite([line.length])
    payload = {"kind": kind, "points": len(line.points), "length": line.length}
    return payload, _data_csv(line.CSV_HEADER, line.rows()), 0, {}


def _cmd_zeta(cfg: RunConfig):
    arc, params, opts = cfg.arc, cfg.params, cfg.options
    tracing = _load(".tracing")
    if opts.get("pressure") == "perturbed":
        p_field = tracing.perturbed_angular_pressure(arc, params, opts.get("amp", 0.2))
    else:
        p_field = tracing.angular_pressure(arc, params)
    scale = near_wall_scale(params, arc.delta)
    r_list = opts.get("r_list", [0.08 * scale, 0.04 * scale, 0.02 * scale])
    s = opts.get("s", arc.s_range[0] + 0.2 * (arc.s_range[1] - arc.s_range[0]))
    report = tracing.zeta_check(p_field, arc, params, s, r_list, opts.get("eps_over_r", 2.0))
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
    return payload, _data_csv(header, rows), 0, {}


def _cmd_simulate(cfg: RunConfig):
    nssim = _load(".nssim")
    sim_cfg = nssim.SimConfig(arc=cfg.arc, params=cfg.params,
                              **{k: v for k, v in cfg.options.items() if k != "probes"})
    report = nssim.run_experiment(sim_cfg, cfg.options.get("probes"))
    payload = {
        "probe_r": report.probe_r,
        "t0": report.t0_samples,
        "first_reversal": report.first_reversal,
        "dt": sim_cfg.effective_dt,
        "steps": sim_cfg.steps,
        "cfl": sim_cfg.cfl(),
        "dt_bound": sim_cfg.dt_bound,
    }
    files = _data_csv(report.CSV_HEADER, report.rows())
    files["field.csv"] = lambda path: nssim.dump_field_csv(report.final_state, sim_cfg, path)
    return payload, files, 0, {}


def _cmd_sweep(cfg: RunConfig):
    opts = cfg.options
    deltas = opts.get("delta_values", [cfg.arc.delta])
    alpha1s = opts.get("alpha1_values", [cfg.params.alpha1])
    alpha2s = opts.get("alpha2_values", [cfg.params.alpha2])
    nus = opts.get("nu_values", [cfg.params.nu])
    theorems = _load(".theorems")
    rows, levels_used = [], []
    for d in deltas:
        for a1 in alpha1s:
            for a2 in alpha2s:
                for nu in nus:
                    params = LaminarParams(alpha1=a1, alpha2=a2, nu=nu)
                    rep2 = theorems.theorem2_limit(params, d)
                    rep1 = theorems.theorem1_verify(params, d)
                    rows.append((d, a1, a2, nu, rep2.limit.value, rep2.oracle_value,
                                 rep2.paper_value, rep1.min_mismatch))
                    levels_used.append(rep2.limit.levels_used)
    header = ["delta", "alpha1", "alpha2", "nu", "limit", "oracle", "paper", "min_mismatch"]
    payload = {"rows": len(rows), "levels_used": levels_used}
    return payload, _data_csv(header, rows), 0, {}


# Each command's handler and options; an option that is absent or null takes
# its default, which the handler sets.
_COMMANDS = {
    "verify-theorem1": (_cmd_theorem1, {"r_grid": _numbers, "use_tracing": _flag}),
    "verify-theorem2": (_cmd_theorem2, {"r_grid": _numbers}),
    "classify": (_cmd_classify, {"field": _one_of("laminar", "fan", "weak"), "radii": _numbers,
                                 "s": _finite, "s1": _finite, "C": _finite, "source": _pair,
                                 "growth": _finite, "step": _positive, "tol_par": _finite}),
    "trace": (_cmd_trace, {"kind": _one_of("streamline", "pressure", "level"),
                           "start_s": _finite, "start_r": _height, "length": _positive,
                           "step": _positive}),
    "zeta-check": (_cmd_zeta, {"pressure": _one_of("angular", "perturbed"), "s": _finite,
                               "r_list": _positives, "eps_over_r": _positive, "amp": _finite}),
    "simulate": (_cmd_simulate, {"n_s": _integer, "n_r": _integer, "dt": _finite,
                                 "t_end": _finite, "probes": _numbers}),
    "sweep": (_cmd_sweep, {"delta_values": _positives, "alpha1_values": _positives,
                           "alpha2_values": _positives, "nu_values": _positives}),
}
COMMANDS = tuple(_COMMANDS)


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with a ValidationError, like any other invalid input."""

    def error(self, message):
        raise ValidationError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="lamsep", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    for key in ("config", "out", "alpha1", "alpha2", "nu", "delta"):
        parser.add_argument(f"--{key}")  # a string, read by the key's config reader
    try:
        overrides = vars(parser.parse_args(argv))
        path, command = overrides.pop("config"), overrides.pop("command")
        cfg = parse_config(path, overrides, command)
        report = run(cfg)
    except (LamsepError, ValueError, OSError) as exc:
        # a ValueError may come from numpy or the standard library, an OSError from an
        # unreadable config or an unwritable --out
        print(f"lamsep: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # OverflowError, ZeroDivisionError, FloatingPointError
        print(f"lamsep: error: a value leaves the float range at these parameters ({exc})",
              file=sys.stderr)
        return 1
    print(f"lamsep {report.command}: wrote {cfg.out / 'report.json'} and {cfg.out / 'data.csv'}")
    if report.exit_code == 2:
        print("lamsep: printed and derived material-derivative limits disagree "
              "(tracked erratum); exit 2", file=sys.stderr)
    return report.exit_code


def entry() -> None:
    """Run ``main`` on ``sys.argv`` and exit the process with its code.

    The heap is frozen first: the objects the run left (numpy's and lamsep's
    alike) move to the permanent generation, where the exit's collections do
    not traverse them.  Every file is closed by then, and a normal exit still
    flushes stdout and stderr and runs atexit handlers.  Only cyclic garbage
    still alive at exit goes unfinalized, and lamsep keeps no open file in a
    cycle.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


# the import of the package and of this module: with the seconds of every
# lamsep._load of a run, the import stage of its report
_IMPORT_S = time.perf_counter() - _IMPORT_START

if __name__ == "__main__":
    entry()
