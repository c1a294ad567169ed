"""Layer timings, output agreement and end-to-end benchmark pairs between two checkouts.

    python3 bench/layers.py --before OLD --after . --out BENCH_<topic>.json \
        [--pairs 10 --first-seed 1 --seconds 40 --workloads cli-analysis sim-default]

``--before`` and ``--after`` are repository roots (each with ``src/`` and
``perfbench/``).  Make the old one with ``git clone``, so that the file records
its commit: a root that is not the top of its own git work tree is recorded as
``null``.  To see what the method reads for unchanged code, compare a checkout
with itself:

    git clone -q . DIR
    python3 bench/layers.py --before DIR --after . --out self.json --pairs 0

Layers (north-star aim 1).  Every layer is timed the same way: after one
untimed call on each side, the sides alternate over ``ROUNDS`` rounds, the side
that goes first swapping each round.  Per layer the file gets each side's
quartiles in seconds, the median and quartiles of the ratios of the rounds run
back to back, and the rounds the change won.  The paired ratio cancels drift in
machine speed between rounds.  The ratio of the two medians does not, and it is
not reported: on identical code it read 0.73 to 1.16 in
``BENCH_layers_self.json``.  The quartiles of the paired ratios show how far
one layer strays on its own: a median outside them is a change, one inside is
not resolved.

In-process layers: both sides' ``src/lamsep`` are loaded into one fresh
interpreter under their own package names (``lamsep_before``,
``lamsep_after``), so that no process-level difference between two
interpreters enters a ratio.  A sample is the mean time per call of a batch,
or one call for a cold ``init_sim`` and a whole run.
- config parse (``cli.parse_config``), one laminar field evaluation and one
  RK4 ``_rk_step``, the Richardson fit of the default theorem-2 grid, the exact
  rational ``oracle_limit``, report and CSV writing, the theorem-1
  ``eta_ratio`` (the polyline crossing search) and the in-process ``cli.run``
  of each cli-analysis command of seed 1;
- at n = 32/64/128/256, on a config with t_end = ``SOLVER_T_END``: one
  projection pressure solve, a cold ``init_sim`` and one ``nssim.step``;
- at n = 32/128: whole ``run_experiment`` runs to t_end = ``RUN_T_END``, at
  the viscosities of ``RUN_NUS``: at nu = 1 diffusion across one wall-normal
  cell sets the step, at nu = 1e-3 advection does.  Each reports its step
  count and ``dt_bound`` per side, so that a change in the step count shows
  next to a change in the cost of a step.
A cold ``init_sim`` and a whole run start from a fresh config (``_replace()``),
with no grid built on either side, as in a ``lamsep simulate`` process.
That interpreter runs with ``OPENBLAS_NUM_THREADS=1``, so that both sides'
solver layers compare code on the same BLAS setting.

Process layers, in a fresh interpreter per call with ``PYTHONPATH`` set to the
side's ``src/``: the wall time of ``python -c "pass"`` (the interpreter alone),
``"import lamsep.cli"`` and ``"import lamsep.nssim"``, and of a whole
``python -m lamsep.cli simulate`` of one step at n = 32 and n = 128 and
``python -m lamsep.cli verify-theorem2`` on the default config (the analysis
path; it exits 2, the tracked erratum).  A whole process counts its exit too,
which no ``stage_s`` of a report does.  Neither
``OPENBLAS_NUM_THREADS`` nor ``OMP_NUM_THREADS`` is set there, so each side
chooses its BLAS thread count by its own rule.

Outputs: each side runs every invocation of seeds 1..N of each workload in
``OUTPUT_SEEDS`` once, in-process in one interpreter; per command the file gets
the exit codes that differ and, per CSV file name, how many of those files are
byte-identical, how many differ and, for each column, the largest
|before - after| over the column's largest |before| (over the largest |before|
of ``u_t`` and ``u_r`` together for those velocity columns); the pressure ``p``,
fixed up to a constant, also gets its largest shift less the mean shift under
``p_less_mean_shift``.  Per command it also counts the ``report.json`` files
that are identical (``report_identical``) and those that differ
(``report_differ``), compared as JSON without the timings ``stage_s`` and
``wall_clock_s`` and without ``config.out``, which names each side's own
directory; two runs that wrote no report count as identical.  For
``simulate``, whose series may change with the time step, it also counts the
reports whose ``payload.t0`` (the t = 0 budget, which no time step touches) is
identical.

Pairs: with ``--pairs N`` each workload runs ``perfbench/run.py --seconds S``
once per side on each of N seeds, the side that goes first alternating.  The
file gets each side's quartiles per end-to-end metric, the pairs the change
won, the parent's interquartile range, a verdict and the failures.  The
verdict applies the bound of the metric in ``BENCHMARK.json``: ``gain`` when
the change won at least 9 in 10 of at least ``GAIN_PAIRS`` pairs and its median
beats the parent's by more than the parent's interquartile range;
``unresolved`` when that range is wider than the bound times the parent's
median and not every change run beats every parent run; ``worse`` when the
change's median is worse than the parent's by more than the bound; else
``no_worse``.  With fewer than ``GAIN_PAIRS`` pairs the file says so.  The pairs run
first: run after minutes of layer and output load, they did not resolve a
60 ms ``setup_s`` change that the pairs alone won 10 of 10 times.  Keep this
out of the test suite: timings must not gate tests.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROUNDS = 20
TIMED_CALLS = 2000
SIM_SIZES = (32, 64, 128, 256)
SIM_PROCESS_SIZES = (32, 128)
RUN_SIZES = (32, 128)
SOLVER_T_END = 0.05  # sets the step of the single-step layers, on both sides
RUN_T_END = 0.01
GAIN_PAIRS = 10
RUN_NUS = {"radial_viscous": 1.0, "advective": 1e-3}  # the limit that sets the step at each nu
OUTPUT_SEEDS = {"cli-analysis": 120, "sim-default": 20}  # seeds 1..N compared per workload
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SIDES = ("before", "after")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _per_call(fn, calls: int):
    """A sampler: the mean time per call of ``calls`` back-to-back calls of ``fn``."""
    def sample() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls
    return sample


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _compare(samplers: dict) -> dict:
    """Call each side's sampler once untimed, then alternate the sides over ROUNDS
    rounds; each side's quartiles, the median and quartiles of the paired
    ratios and the rounds the change won."""
    for sample in samplers.values():
        sample()
    times = {side: [] for side in SIDES}
    for k in range(ROUNDS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            times[side].append(samplers[side]())
    entry = {side: _quartiles(times[side]) for side in SIDES}
    # round k of each side ran back to back, so their ratio cancels the drift in
    # machine speed between rounds
    ratios = [a / b for a, b in zip(times["after"], times["before"])]
    entry["paired_after_over_before"] = statistics.median(ratios)
    entry["paired_quartiles"] = _quartiles(ratios)
    entry["rounds_after_faster"] = sum(a < b for a, b in zip(times["after"], times["before"]))
    return entry


# ----------------------------------------------------------------------------
# in-process layers: both sides in one interpreter
# ----------------------------------------------------------------------------


def _load_side(name: str, root: Path):
    """Load ``root``'s ``src/lamsep`` as the package ``name``, with the modules the
    layers call, so that both sides run in one interpreter."""
    package_dir = root / "src" / "lamsep"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "fdops", "field", "geometry", "nssim", "theorems", "tracing"):
        importlib.import_module(f"{name}.{module}")
    return package


def _analysis_layers(lamsep, tmp: Path) -> dict:
    """One side's samplers of the analysis layers, writing under ``tmp``."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    cli, fdops, theorems, tracing = lamsep.cli, lamsep.fdops, lamsep.theorems, lamsep.tracing
    delta, params = 1.5, lamsep.field.LaminarParams(2.5, 1.0, 1.0)
    arc = lamsep.geometry.ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    cfg = tracing.default_trace_config(arc, params)
    scale = min(params.bl, delta)
    field = lamsep.field.laminar_field(arc, params)
    start = lamsep.geometry.to_cartesian(arc, (0.1 * delta, 0.1 * scale))
    point = (float(start[0]), float(start[1]))
    direction = tracing._unit_direction(field, cfg.stagnation_tol)
    grid = theorems.default_r_grid(params, delta)
    samples = [(r, theorems.theorem2_ratio(params, delta, r)) for r in grid]
    tmp.mkdir(parents=True)
    config = tmp / "config.json"
    config.write_text(json.dumps({"alpha1": 2.5, "alpha2": 1.0, "nu": 1.0, "delta": delta}))
    # the trace command's default streamline: 1000 steps of 1e-3 * delta
    line = tracing.trace_streamline(field, start, tracing.TraceConfig(
        step=1e-3 * delta, max_length=delta, stagnation_tol=cfg.stagnation_tol))
    rows = line.rows()
    report = cli.run(cli.parse_config(config, {"out": str(tmp / "t1")}, "verify-theorem1"))
    gradp = lamsep.field.stationary_gradp_field(arc, params)
    eps_list = [4e-3 * delta, 2e-3 * delta, 1e-3 * delta]
    s0, s1 = arc.s_range  # theorem 1's cross-check station, 0.3 of the way along

    out = {
        "cli.parse_config_s": _per_call(lambda: cli.parse_config(config, None, "trace"), 200),
        "field.eval_s": _per_call(lambda: field(point), TIMED_CALLS),
        "tracing.rk_step_s": _per_call(lambda: tracing._rk_step(direction, point, cfg.step),
                                       TIMED_CALLS // 4),
        "fdops.richardson_s": _per_call(lambda: fdops.richardson(samples[-4:], order=1),
                                        TIMED_CALLS // 4),
        "theorems.oracle_limit_s": _per_call(lambda: theorems.oracle_limit(params, delta), 50),
        "field.write_csv_s": _per_call(
            lambda: lamsep.field.write_csv(tmp / "trace.csv", line.CSV_HEADER, rows), 20),
        "cli.report_to_json_s": _per_call(report.to_json, 200),
        "tracing.eta_ratio_s": _per_call(
            lambda: tracing.eta_ratio(gradp, arc, s0 + 0.3 * (s1 - s0), grid[0], eps_list,
                                      cfg), 3),
    }
    for i, inv in enumerate(workloads.generate("cli-analysis", 1)):
        path = tmp / f"{i}.json"
        path.write_text(json.dumps(inv.config))
        run_cfg = cli.parse_config(path, {"out": str(tmp / f"o{i}")}, inv.command)
        out[f"cli.run.{inv.command}_s"] = _per_call(lambda run_cfg=run_cfg: cli.run(run_cfg), 3)
    return out


def _solver_layers(lamsep, n: int) -> tuple[dict, dict]:
    """One side's samplers of the n x n solver layers, and the step count and
    ``dt_bound`` of each whole run."""
    import numpy as np

    nssim, LaminarParams = lamsep.nssim, lamsep.field.LaminarParams
    arc = lamsep.geometry.ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    cfg = nssim.SimConfig(arc=arc, params=LaminarParams(2.0, 1.0, 1.0),
                          n_s=n, n_r=n, t_end=SOLVER_T_END)

    def cold_init() -> float:
        fresh = cfg._replace()  # a copy with nothing built
        t0 = time.perf_counter()
        nssim.init_sim(fresh)
        return time.perf_counter() - t0

    b = np.random.default_rng(n).standard_normal((n, n))
    b -= b.mean()
    state = nssim.step(nssim.init_sim(cfg), cfg)
    samplers = {
        f"nssim.pressure_solve_{n}_s": _per_call(lambda: nssim._solve_neumann(cfg, b), 20),
        f"nssim.init_sim_{n}_s": cold_init,
        f"nssim.step_{n}_s": _per_call(lambda: nssim.step(state, cfg), 3),
    }
    notes = {}
    if n in RUN_SIZES:
        for regime, nu in RUN_NUS.items():
            run_cfg = cfg._replace(params=LaminarParams(2.0, 1.0, nu), t_end=RUN_T_END)

            def run(run_cfg=run_cfg) -> float:
                fresh = run_cfg._replace()
                t0 = time.perf_counter()
                nssim.run_experiment(fresh)
                return time.perf_counter() - t0

            key = f"nssim.run_{n}_{regime}_s"
            samplers[key] = run
            notes[key] = {"steps": run_cfg.steps, "dt_bound": run_cfg.dt_bound}
    return samplers, notes


def _in_process_layers(before: str, after: str) -> dict:
    """Both sides' in-process layers, interleaved in this interpreter."""
    lamseps = {side: _load_side(f"lamsep_{side}", Path(root))
               for side, root in zip(SIDES, (before, after))}
    samplers = {side: {} for side in SIDES}
    notes = {side: {} for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for side, lamsep in lamseps.items():
            samplers[side].update(_analysis_layers(lamsep, Path(tmp) / side))
            for n in SIM_SIZES:
                side_samplers, side_notes = _solver_layers(lamsep, n)
                samplers[side].update(side_samplers)
                notes[side].update(side_notes)
        out = {}
        for name in samplers["after"]:
            out[name] = _compare({side: samplers[side][name] for side in SIDES})
            for side in SIDES:
                out[name][side].update(notes[side].get(name, {}))
    return out


def _run_outputs(workload: str, count: str, out_dir: str) -> list:
    """Run every invocation of seeds 1..count in-process, writing into
    out_dir/<seed>-<index>; [seed, index, command, exit code] of each."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from lamsep import cli

    runs = []
    for seed in range(1, int(count) + 1):
        for i, inv in enumerate(workloads.generate(workload, seed)):
            target = Path(out_dir) / f"{seed}-{i}"
            target.mkdir(parents=True)
            (target / "config.json").write_text(json.dumps(inv.config))
            argv = [inv.command, "--config", str(target / "config.json"), "--out", str(target)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is an outcome to compare, not a stop
                    code = type(exc).__name__
            runs.append([seed, i, inv.command, code])
    return runs


# ----------------------------------------------------------------------------
# the two-sided runner
# ----------------------------------------------------------------------------


def _env(root: Path, blas_threads: str | None = None) -> dict:
    """This environment with ``root``'s source on PYTHONPATH, OMP_NUM_THREADS unset
    and OPENBLAS_NUM_THREADS set to ``blas_threads``, or unset when that is None."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for var in BLAS_THREAD_VARS:
        env.pop(var, None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _child(root: Path, function: str, *args: str, blas_threads: str | None = None):
    """The JSON result of this script's ``function(*args)`` in a fresh interpreter
    with ``_env(root, blas_threads)``."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import layers; print(json.dumps(layers.{function}(*sys.argv[1:])))")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_env(root, blas_threads),
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _process_s(root: Path, *argv: str) -> float:
    """Wall time of a fresh ``python argv`` on ``root``'s source, which must exit 0,
    or 2 (the tracked erratum of the default ``verify-theorem2``)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=_env(root), stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 2):
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return elapsed


def _process_layers(sides: dict[str, Path], tmp: Path) -> dict:
    """The import and whole-process layers."""
    argvs = {f"import.{name}": ["-c", code] for name, code in (
        ("python_s", "pass"), ("lamsep_cli_s", "import lamsep.cli"),
        ("lamsep_nssim_s", "import lamsep.nssim"))}
    for n in SIM_PROCESS_SIZES:
        config = tmp / f"simulate-{n}.json"
        config.write_text(json.dumps({"n_s": n, "n_r": n, "t_end": 1e-9}))  # one step
        argvs[f"process.simulate_{n}_s"] = ["-m", "lamsep.cli", "simulate", "--config",
                                            str(config), "--out", str(tmp / f"simulate-{n}")]
    argvs["process.verify_theorem2_s"] = ["-m", "lamsep.cli", "verify-theorem2", "--out",
                                          str(tmp / "verify-theorem2")]
    return {name: _compare({side: lambda root=root, argv=argv: _process_s(root, *argv)
                            for side, root in sides.items()})
            for name, argv in argvs.items()}


def layers(sides: dict[str, Path]) -> dict:
    out = _child(sides["after"], "_in_process_layers", str(sides["before"]),
                 str(sides["after"]), blas_threads="1")
    with tempfile.TemporaryDirectory() as tmp:
        out.update(_process_layers(sides, Path(tmp)))
    return out


def _csv_cells(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


# velocity components, each scaled by the file's top speed: a component that is
# roundoff on both sides (``u_r`` of a theta-uniform run) would read O(1) on its own
_VELOCITY_COLUMNS = ("u_t", "u_r")
# a pressure is fixed up to a constant: under its key here its column also
# reports the largest |shift - mean shift|, which a change of constant leaves 0
_GAUGE_KEYS = {"p": "p_less_mean_shift"}


def _column_rel_diffs(a: list[list[str]], b: list[list[str]]) -> dict[str, float]:
    """Per column of two CSVs, ``a`` before and ``b`` after, each with its header
    row first: the largest |x - y| over the largest finite |x| of the column, or
    for a velocity column over the largest finite |x| of all the velocity
    columns.  Cells equal as text or as numbers (``0`` and ``-0``) differ by 0; a
    differing cell that is not a finite number gives inf in its column, and
    differing headers, row counts or row lengths give inf in every column.
    A pressure column ``p`` also gives, under ``_GAUGE_KEYS["p"]``, the largest
    |(y - x) - mean(y - x)| over the same scale."""
    if len(a) != len(b) or a[0] != b[0] or any(len(x) != len(y) for x, y in zip(a, b)):
        return dict.fromkeys(a[0] + b[0], math.inf)
    worst = [0.0] * len(a[0])
    scale = [0.0] * len(a[0])
    for row_a, row_b in zip(a[1:], b[1:]):
        for k, (x, y) in enumerate(zip(row_a, row_b)):
            x_num = _number(x)
            if x_num is not None and math.isfinite(x_num):
                scale[k] = max(scale[k], abs(x_num))
            if x == y:
                continue
            y_num = _number(y)
            if x_num is None or y_num is None:
                worst[k] = math.inf
            elif x_num != y_num:
                finite = math.isfinite(x_num) and math.isfinite(y_num)
                worst[k] = max(worst[k], abs(x_num - y_num) if finite else math.inf)
    speed = max((top for name, top in zip(a[0], scale) if name in _VELOCITY_COLUMNS),
                default=0.0)
    scale = [speed if name in _VELOCITY_COLUMNS else top for name, top in zip(a[0], scale)]
    out = {name: (diff / top if top else math.inf) if diff else 0.0
           for name, diff, top in zip(a[0], worst, scale)}
    for k, name in enumerate(a[0]):
        if name not in _GAUGE_KEYS:
            continue
        if not 0.0 < worst[k] < math.inf:  # identical, or a cell that is no finite number
            out[_GAUGE_KEYS[name]] = out[name]
            continue
        shifts = [0.0 if x[k] == y[k] else float(y[k]) - float(x[k]) for x, y in zip(a[1:], b[1:])]
        mean = math.fsum(shifts) / len(shifts)
        spread = max(abs(d - mean) for d in shifts)
        out[_GAUGE_KEYS[name]] = (spread / scale[k] if scale[k] else math.inf) if spread else 0.0
    return out


def _untimed_report(out_dir: Path) -> str | None:
    """The ``report.json`` in ``out_dir`` as canonical JSON text without its
    timings (``stage_s``, ``wall_clock_s``) and ``config.out``, which names each
    side's own directory; None when the run wrote no report."""
    path = out_dir / "report.json"
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    for key in ("stage_s", "wall_clock_s"):
        report.pop(key, None)
    report.get("config", {}).pop("out", None)
    return json.dumps(report, sort_keys=True)


def outputs(sides: dict[str, Path]) -> dict:
    result = {}
    for workload, count in OUTPUT_SEEDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            runs = {side: _child(root, "_run_outputs", workload, str(count),
                                 str(Path(tmp) / side))
                    for side, root in sides.items()}
            per_command: dict[str, dict] = {}
            for (seed, index, command, old_code), (_, _, _, code) in zip(runs["before"],
                                                                         runs["after"]):
                entry = per_command.setdefault(command, {
                    "invocations": 0, "exit_codes_differ": [], "csv": {}})
                entry["invocations"] += 1
                if old_code != code:
                    entry["exit_codes_differ"].append(f"seed {seed}: {index}-{command}")
                before_dir, after_dir = (Path(tmp) / side / f"{seed}-{index}" for side in sides)
                reports = [_untimed_report(d) for d in (before_dir, after_dir)]
                key = "report_identical" if reports[0] == reports[1] else "report_differ"
                entry[key] = entry.get(key, 0) + 1
                if command == "simulate":
                    t0 = [json.loads(report)["payload"].get("t0") if report else None
                          for report in reports]
                    same = t0[0] is not None and json.dumps(t0[0]) == json.dumps(t0[1])
                    key = "payload_t0_identical" if same else "payload_t0_differ"
                    entry[key] = entry.get(key, 0) + 1
                for path in sorted(after_dir.glob("*.csv")):
                    old = before_dir / path.name
                    if not old.exists():
                        continue
                    stats = entry["csv"].setdefault(path.name, {
                        "identical": 0, "differ": 0, "largest_rel_diff_by_column": {}})
                    if old.read_bytes() == path.read_bytes():
                        stats["identical"] += 1
                        continue
                    stats["differ"] += 1
                    by_column = stats["largest_rel_diff_by_column"]
                    for name, diff in _column_rel_diffs(_csv_cells(old), _csv_cells(path)).items():
                        by_column[name] = max(by_column.get(name, 0.0), diff)
        result[workload] = {"seeds": f"1-{count}", "commands": per_command}
    return result


def _bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    """The verdict on one end-to-end metric over paired runs; see the module docstring."""
    if better != "lower":  # negate, so that lower is better
        before, after = [-x for x in before], [-x for x in after]
    parent = _quartiles(before)
    spread = parent["q3"] - parent["q1"]
    scale = abs(parent["median"])
    gain = parent["median"] - statistics.median(after)
    wins = sum(a < b for a, b in zip(after, before))
    if len(before) >= GAIN_PAIRS and wins >= 0.9 * len(before) and gain > spread:
        return "gain"
    if spread > bound * scale and not max(after) < min(before):
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "no_worse"


def pairs(sides: dict[str, Path], workloads: list[str], seeds: list[int],
          seconds: float) -> dict:
    spec = json.loads((sides["after"] / "BENCHMARK.json").read_text())
    out = {}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for k, seed in enumerate(seeds):
            for side in (["before", "after"] if k % 2 == 0 else ["after", "before"]):
                runs[side].append(_bench_run(sides[side], workload, seed, seconds))
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = [r["metrics"][name]["value"] for r in runs["before"]]
            after = [r["metrics"][name]["value"] for r in runs["after"]]
            parent = _quartiles(before)
            metrics[name] = {
                "unit": runs["before"][0]["metrics"][name]["unit"],
                "parent": parent,
                "change": _quartiles(after),
                "change_over_parent": statistics.median(after) / parent["median"],
                "pairs_change_better": sum(a < b for a, b in zip(after, before)),
                "parent_iqr": parent["q3"] - parent["q1"],
                "verdict": _verdict(before, after, metric["bound"], metric["better"]),
                "parent_runs": before,
                "change_runs": after,
            }
        out[workload] = {
            "pairs": len(seeds),
            "metrics": metrics,
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
        }
        if len(seeds) < GAIN_PAIRS:
            out[workload]["note"] = (f"{len(seeds)} pairs, fewer than {GAIN_PAIRS}: "
                                     "no verdict can be a gain")
    return out


def _git_sha(root: Path) -> str | None:
    """``git describe --always --dirty`` of ``root``, or None unless ``root`` is the
    top of its own work tree (a ``git archive`` copy, or a plain directory inside
    another work tree, whose commit is not ``root``'s)."""
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    top = git("rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != root.resolve():
        return None
    return git("describe", "--always", "--dirty") or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", nargs="+", default=["cli-analysis", "sim-default"])
    args = parser.parse_args()

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    result = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy")},
        "git_sha": {side: _git_sha(root) for side, root in sides.items()},
        "method": {
            "layers": f"one untimed call per side, then {ROUNDS} rounds alternating the "
                      "sides; quartiles in seconds. In-process layers: both sides in one "
                      "interpreter with OPENBLAS_NUM_THREADS=1, the mean time per call of "
                      "a batch. import.* and process.*: the wall time of one fresh "
                      "interpreter per call, with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS "
                      "unset. A cold init_sim and a whole run start from a fresh config "
                      "with no grid built on either side",
            "outputs": "every invocation of the listed workload seeds, in-process, once per side",
            "pairs": f"perfbench/run.py --seconds {args.seconds} on seeds {seeds}, one run per "
                     "side and seed, the side that goes first alternating; verdicts by "
                     "the bounds of BENCHMARK.json",
        },
    }
    if seeds:  # first: see the module docstring
        result["end_to_end"] = pairs(sides, args.workloads, seeds, args.seconds)
    result["layers"] = layers(sides)
    result["outputs"] = outputs(sides)
    args.out.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
