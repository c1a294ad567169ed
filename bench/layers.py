"""Layer timings, output agreement and end-to-end benchmark pairs between two checkouts.

    python3 bench/layers.py --before OLD --after . --out BENCH_<topic>.json \
        [--pairs 10 --first-seed 1 --seconds 40 --workloads cli-analysis sim-default]
    OPENBLAS_NUM_THREADS=1 python3 bench/layers.py --gain-runs OLD .   # gain runs alone

``--before`` and ``--after`` are repository roots (each with ``src/`` and
``perfbench/``; make the old one with ``git clone`` or ``git archive``).  Every
measurement except the gain runs is made in fresh interpreters with
``PYTHONPATH`` set to the side's ``src/``, and the sides alternate so that drift
in machine speed hits both alike.

Layers (north-star aim 1), over ``REPEATS`` alternating rounds:
- package import: the wall time of a fresh ``python -c "import lamsep.cli"``
  and ``"import lamsep.nssim"`` (and ``"pass"``, the interpreter alone);
- a whole ``simulate`` process: the wall time of a fresh
  ``python -m lamsep.cli simulate`` of one step at n = 32 and n = 128;
- config parse (``cli.parse_config``), one laminar field evaluation and one
  RK4 ``_rk_step``, the Richardson fit of the default theorem-2 grid, the exact
  rational ``oracle_limit`` and report and CSV writing, as best per-call times;
- the in-process ``cli.run`` of each cli-analysis command of seed 1, and the
  theorem-1 ``eta_ratio``, where the polyline crossing search runs;
- at n = 32/64/128/256: one projection pressure solve, a cold ``init_sim`` and
  one ``nssim.step`` after a warm-up step, in an interpreter whose
  environment leaves ``OPENBLAS_NUM_THREADS`` unset (``nssim.*``, OpenBLAS's
  default thread count) and in one that sets it to 1
  (``nssim.*_one_blas_thread_s``);
- at n = 32/128: one whole ``run_experiment`` to t_end = ``RUN_T_END`` on the
  warm grid (``nssim.run_{n}_s``) and the steps it took (``nssim.run_{n}_steps``,
  from the default-thread interpreter), so that a change in the step count shows
  next to a change in the cost of a step;
- gain runs, at n = 32/64: whole ``run_experiment`` runs at the viscosity where
  leaving the wall-tangential diffusion limit ``0.25*(delta*dtheta)**2/nu`` out
  of the step cuts the explicit scheme's step count ``GAIN`` times (0.1:
  advection sets the step by far; 1.0 and 1.5 bracket the break-even of the
  implicit theta-lines, whose steps cost more but number ``GAIN`` times fewer;
  2.4 and 3.75: larger cuts), each ``GAIN_RUN_STEPS`` explicit steps long.  Both
  sides' ``src/lamsep`` are loaded into one interpreter under their own package
  names and their runs alternate, ``GAIN_RUNS`` each from a fresh config (its
  step count and theta-line factors inside the timed run, the mesh grid warm),
  with one BLAS thread as ``simulate`` takes at these sizes: timings taken in
  separate fresh interpreters differ by up to about 15 % for unchanged code.
  Per run: each side's median, quartiles and step count
  (``nssim.run_gain_{GAIN}_{n}``), the ratio of the medians, the median of the
  ratios of runs made back to back, and the runs the change won.

Outputs: each side runs every invocation of seeds 1..N of each workload in
``OUTPUT_SEEDS`` once, in-process in one interpreter; per command the file gets
the exit codes that differ, how many CSVs are byte-identical and the largest
relative difference of a CSV cell between the sides.  For ``simulate``, whose
series may change with the time step, it also counts the reports whose
``payload.t0`` (the t = 0 budget, which no time step touches) is identical.

Pairs: with ``--pairs N`` each workload runs ``perfbench/run.py --seconds S``
once per side on each of N seeds, the side that goes first alternating.  The
file gets each side's quartiles per end-to-end metric, the pairs the change
won, the parent's interquartile range and the failures.  Keep this out of the
test suite: timings must not gate tests.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

REPEATS = 5
IMPORTS_PER_ROUND = 3
TIMED_CALLS = 2000
SIM_SIZES = (32, 64, 128, 256)
SIM_PROCESS_SIZES = (32, 128)
RUN_SIZES = (32, 128)
RUN_T_END = 0.01
GAIN_RUN_SIZES = (32, 64)
GAINS = (0.1, 1.0, 1.5, 2.4, 3.75)
GAIN_RUN_STEPS = 60
GAIN_RUNS = 30
OUTPUT_SEEDS = {"cli-analysis": 120, "sim-default": 20}  # seeds 1..N compared per workload
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _best_of(fn, calls: int) -> float:
    """Smallest per-call time of ``calls`` calls, over three batches."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


# ----------------------------------------------------------------------------
# runs inside a side's interpreter
# ----------------------------------------------------------------------------


def _measure_analysis(tmp: Path) -> dict:
    """Per-call times of the analysis layers, in seconds."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from lamsep import cli, fdops, theorems, tracing
    from lamsep.field import LaminarParams, laminar_field, stationary_gradp_field, write_csv
    from lamsep.geometry import ArcBoundary, to_cartesian

    delta, params = 1.5, LaminarParams(2.5, 1.0, 1.0)
    arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    cfg = tracing.default_trace_config(arc, params)
    scale = min(params.bl, delta)
    field = laminar_field(arc, params)
    start = to_cartesian(arc, (0.1 * delta, 0.1 * scale))
    point = (float(start[0]), float(start[1]))
    direction = tracing._unit_direction(field, cfg.stagnation_tol)
    grid = theorems.default_r_grid(params, delta)
    samples = [(r, theorems.theorem2_ratio(params, delta, r)) for r in grid]
    config = tmp / "config.json"
    config.write_text(json.dumps({"alpha1": 2.5, "alpha2": 1.0, "nu": 1.0, "delta": delta}))
    # the trace command's default streamline: 1000 steps of 1e-3 * delta
    line = tracing.trace_streamline(field, start, tracing.TraceConfig(
        step=1e-3 * delta, max_length=delta, stagnation_tol=cfg.stagnation_tol))
    rows = line.rows()
    report = cli.run(cli.parse_config(config, {"out": str(tmp / "t1")}, "verify-theorem1"))

    out = {
        "cli.parse_config_s": _best_of(lambda: cli.parse_config(config, None, "trace"), 200),
        "field.eval_s": _best_of(lambda: field(point), TIMED_CALLS),
        "tracing.rk_step_s": _best_of(lambda: tracing._rk_step(direction, point, cfg.step),
                                      TIMED_CALLS // 4),
        "fdops.richardson_s": _best_of(lambda: fdops.richardson(samples[-4:], order=1),
                                       TIMED_CALLS // 4),
        "theorems.oracle_limit_s": _best_of(lambda: theorems.oracle_limit(params, delta), 50),
        "field.write_csv_s": _best_of(lambda: write_csv(tmp / "trace.csv", line.CSV_HEADER,
                                                        rows), 20),
        "cli.report_to_json_s": _best_of(report.to_json, 200),
    }
    gradp = stationary_gradp_field(arc, params)
    eps_list = [4e-3 * delta, 2e-3 * delta, 1e-3 * delta]
    out["tracing.eta_ratio_s"] = _best_of(
        lambda: tracing.eta_ratio(gradp, arc, 0.3 * sum(arc.s_range), grid[0], eps_list, cfg), 3)
    for i, inv in enumerate(workloads.generate("cli-analysis", 1)):
        path = tmp / f"{i}.json"
        path.write_text(json.dumps(inv.config))
        run_cfg = cli.parse_config(path, {"out": str(tmp / f"o{i}")}, inv.command)
        out[f"cli.run.{inv.command}_s"] = _best_of(lambda: cli.run(run_cfg), 3)
    return out


def _measure_solver() -> dict:
    """The solver layers at each grid size, in seconds."""
    import numpy as np

    from lamsep import nssim
    from lamsep.field import LaminarParams
    from lamsep.geometry import ArcBoundary

    out = {}
    arc = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    for n in SIM_SIZES:
        cfg = nssim.SimConfig(arc=arc, params=LaminarParams(2.5, 1.0, 1.0),
                              n_s=n, n_r=n, sector_angle=0.5)
        init_times = []
        for _ in range(3):
            nssim._mesh_grid.cache_clear()
            t0 = time.perf_counter()
            state = nssim.init_sim(cfg)
            init_times.append(time.perf_counter() - t0)
        b = np.random.default_rng(n).standard_normal((n, n))
        b -= b.mean()
        out[f"nssim.pressure_solve_{n}_s"] = _best_of(lambda: nssim._solve_neumann(cfg, b), 20)
        out[f"nssim.init_sim_{n}_s"] = statistics.median(init_times)
        state = nssim.step(state, cfg)  # warm-up
        out[f"nssim.step_{n}_s"] = _best_of(lambda: nssim.step(state, cfg), 3)
        if n in RUN_SIZES:
            run_cfg = cfg._replace(t_end=RUN_T_END)
            t0 = time.perf_counter()
            report = nssim.run_experiment(run_cfg)
            out[f"nssim.run_{n}_s"] = time.perf_counter() - t0
            out[f"nssim.run_{n}_steps"] = len(report.times) - 1
    return out


def _load_side(name: str, root: Path):
    """Load ``root``'s ``src/lamsep`` as the package ``name``, so that both sides
    run in one interpreter; its nssim, field and geometry modules."""
    package_dir = root / "src" / "lamsep"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{module}")
                 for module in ("nssim", "field", "geometry"))


def _gain_config(nssim, field, geometry, n: int, gain: float):
    """The n x n gain run at ``gain``: nu where the explicit wall-tangential limit
    0.25*h**2/nu is adv/gain (h the smallest cell, adv the advective limit),
    and t_end a quarter step short of GAIN_RUN_STEPS explicit steps, so that no
    rounding adds a step."""
    arc = geometry.ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    cfg = nssim.SimConfig(arc=arc, params=field.LaminarParams(2.5, 1.0, 1.0),
                          n_s=n, n_r=n, sector_angle=0.5)
    h = arc.delta * nssim._grid(cfg).dth
    adv = h / cfg.top_speed  # whatever nu
    return cfg._replace(params=field.LaminarParams(2.5, 1.0, gain * 0.25 * h * h / adv),
                        t_end=(GAIN_RUN_STEPS - 0.25) * 0.4 * adv / max(gain, 1.0))


def _measure_gain_runs(roots: dict[str, Path]) -> dict:
    """The gain runs of both sides, interleaved in this interpreter, in seconds."""
    mods = {side: _load_side(f"lamsep_{side}", root) for side, root in roots.items()}
    out = {}
    for n in GAIN_RUN_SIZES:
        for gain in GAINS:
            cfgs = {side: _gain_config(*m, n, gain) for side, m in mods.items()}
            times = {side: [] for side in mods}
            steps = {side: len(mods[side][0].run_experiment(cfg).times) - 1  # warm-up
                     for side, cfg in cfgs.items()}
            for k in range(GAIN_RUNS):
                for side in (list(mods) if k % 2 == 0 else list(mods)[::-1]):
                    cfg = cfgs[side]._replace()  # a fresh config: nothing cached on it
                    t0 = time.perf_counter()
                    mods[side][0].run_experiment(cfg)
                    times[side].append(time.perf_counter() - t0)
            entry = {side: {**_quartiles(times[side]), "steps": steps[side]} for side in mods}
            entry["after_over_before"] = entry["after"]["median"] / entry["before"]["median"]
            # run k of each side ran back to back, so their ratio cancels the
            # drift in machine speed between runs
            entry["paired_after_over_before"] = statistics.median(
                a / b for a, b in zip(times["after"], times["before"]))
            entry["runs_after_faster"] = sum(a < b for a, b in zip(times["after"],
                                                                  times["before"]))
            out[f"nssim.run_gain_{gain:g}_{n}"] = entry
    return out


def gain_runs(sides: dict[str, Path]) -> dict:
    """``_measure_gain_runs`` in a fresh interpreter with one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, __file__, "--gain-runs", str(sides["before"]), str(sides["after"])],
        env=_env(sides["after"], blas_threads="1"), check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _run_outputs(workload: str, seeds: list[int], out_dir: Path) -> list:
    """Run every invocation of the seeds in-process, writing into out_dir/<seed>-<index>;
    [seed, index, command, exit code] of each."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from lamsep import cli

    runs = []
    for seed in seeds:
        for i, inv in enumerate(workloads.generate(workload, seed)):
            target = out_dir / f"{seed}-{i}"
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
    """This environment with ``root``'s source on PYTHONPATH and OPENBLAS_NUM_THREADS
    set to ``blas_threads``, or unset when that is None."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def _side(root: Path, *args: str, blas_threads: str | None = None) -> str:
    """Run this script in a fresh interpreter on ``root``'s source; its last stdout line."""
    proc = subprocess.run([sys.executable, __file__, *args], env=_env(root, blas_threads),
                          check=True, capture_output=True, text=True)
    return proc.stdout.splitlines()[-1]


def _process_s(root: Path, *argv: str) -> float:
    """Wall time of a fresh ``python argv`` on ``root``'s source."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=_env(root), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _process_layers(root: Path, tmp: Path) -> dict:
    """The import and whole-``simulate`` process layers, medians of IMPORTS_PER_ROUND."""
    argvs = {f"import.{name}": ["-c", code] for name, code in (
        ("python_s", "pass"), ("lamsep_cli_s", "import lamsep.cli"),
        ("lamsep_nssim_s", "import lamsep.nssim"))}
    for n in SIM_PROCESS_SIZES:
        config = tmp / f"simulate-{n}.json"
        config.write_text(json.dumps({"n_s": n, "n_r": n, "t_end": 1e-9}))  # one step
        argvs[f"process.simulate_{n}_s"] = ["-m", "lamsep.cli", "simulate", "--config",
                                            str(config), "--out", str(tmp / f"simulate-{n}")]
    return {name: statistics.median(_process_s(root, *argv) for _ in range(IMPORTS_PER_ROUND))
            for name, argv in argvs.items()}


def layers(sides: dict[str, Path]) -> dict:
    samples = {side: [] for side in sides}
    for rnd in range(REPEATS):
        for side in (list(sides) if rnd % 2 == 0 else list(sides)[::-1]):
            root = sides[side]
            with tempfile.TemporaryDirectory() as tmp:
                row = json.loads(_side(root, "--measure", tmp))
                row.update(_process_layers(root, Path(tmp)))
            row.update(json.loads(_side(root, "--measure-solver")))
            one_thread = json.loads(_side(root, "--measure-solver", blas_threads="1"))
            row.update({key.removesuffix("_s") + "_one_blas_thread_s": value
                        for key, value in one_thread.items() if key.endswith("_s")})
            samples[side].append(row)
    medians = {side: {key: statistics.median(r[key] for r in runs) for key in runs[0]}
               for side, runs in samples.items()}
    return {
        "medians_s": medians,
        "after_over_before": {key: medians["after"][key] / medians["before"][key]
                              for key in medians["after"]},
    }


def _csv_cells(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _largest_rel_diff(a: list[list[str]], b: list[list[str]]) -> float:
    """Largest |x - y| / max(|x|, |y|) over the numeric cells of two CSVs of one shape."""
    if len(a) != len(b) or a[0] != b[0]:
        return float("inf")
    worst = 0.0
    for row_a, row_b in zip(a[1:], b[1:]):
        for x, y in zip(row_a, row_b):
            if x != y:
                x, y = float(x), float(y)
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def outputs(sides: dict[str, Path]) -> dict:
    result = {}
    for workload, count in OUTPUT_SEEDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            runs = {side: json.loads(_side(root, "--outputs", workload, str(count),
                                           str(Path(tmp) / side)))
                    for side, root in sides.items()}
            per_command: dict[str, dict] = {}
            for (seed, index, command, old_code), (_, _, _, code) in zip(runs["before"],
                                                                         runs["after"]):
                entry = per_command.setdefault(command, {
                    "invocations": 0, "exit_codes_differ": [], "csv_identical": 0,
                    "csv_differ": 0, "largest_rel_csv_diff": 0.0})
                entry["invocations"] += 1
                if old_code != code:
                    entry["exit_codes_differ"].append(f"seed {seed}: {index}-{command}")
                before_dir, after_dir = (Path(tmp) / side / f"{seed}-{index}" for side in sides)
                if command == "simulate":
                    t0 = [json.loads((d / "report.json").read_text())["payload"].get("t0")
                          if (d / "report.json").exists() else None
                          for d in (before_dir, after_dir)]
                    same = t0[0] is not None and json.dumps(t0[0]) == json.dumps(t0[1])
                    key = "payload_t0_identical" if same else "payload_t0_differ"
                    entry[key] = entry.get(key, 0) + 1
                for path in sorted(after_dir.glob("*.csv")):
                    old = before_dir / path.name
                    if not old.exists():
                        continue
                    if old.read_bytes() == path.read_bytes():
                        entry["csv_identical"] += 1
                    else:
                        entry["csv_differ"] += 1
                        entry["largest_rel_csv_diff"] = max(
                            entry["largest_rel_csv_diff"],
                            _largest_rel_diff(_csv_cells(old), _csv_cells(path)))
        result[workload] = {"seeds": f"1-{count}", "commands": per_command}
    return result


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


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
        for name in (m["name"] for m in spec["end_to_end"]):
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
    return out


def _git_sha(root: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path)
    parser.add_argument("--after", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pairs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", nargs="+", default=["cli-analysis", "sim-default"])
    parser.add_argument("--measure", metavar="TMP", help=argparse.SUPPRESS)
    parser.add_argument("--measure-solver", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--outputs", nargs=3, metavar=("WORKLOAD", "N", "DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--gain-runs", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="time only the gain runs of the two roots, in this interpreter")
    args = parser.parse_args()
    if args.gain_runs:
        before, after = (root.resolve() for root in args.gain_runs)
        print(json.dumps(_measure_gain_runs({"before": before, "after": after})))
        return
    if args.measure:
        print(json.dumps(_measure_analysis(Path(args.measure))))
        return
    if args.measure_solver:
        print(json.dumps(_measure_solver()))
        return
    if args.outputs:
        workload, count, out_dir = args.outputs
        print(json.dumps(_run_outputs(workload, list(range(1, int(count) + 1)), Path(out_dir))))
        return
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    result = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy")},
        "git_sha": {side: _git_sha(root) for side, root in sides.items()},
        "method": {
            "layers": f"{REPEATS} alternating rounds; medians over rounds of the best per-call "
                      f"time of three batches (imports and simulate processes: median of "
                      f"{IMPORTS_PER_ROUND} fresh interpreters per round, wall time of the "
                      "whole process); OPENBLAS_NUM_THREADS unset except in the "
                      "*_one_blas_thread_s solver layers, where it is 1",
            "gain_runs": f"both sides in one interpreter with one BLAS thread, {GAIN_RUNS} "
                         "alternating runs each from a fresh config after one warm-up run; "
                         "quartiles in seconds",
            "outputs": "every invocation of the listed workload seeds, in-process, once per side",
            "pairs": f"perfbench/run.py --seconds {args.seconds} on seeds {seeds}, one run per "
                     "side and seed, the side that goes first alternating",
        },
        "layers": layers(sides),
        "gain_runs": gain_runs(sides),
        "outputs": outputs(sides),
    }
    if seeds:
        result["end_to_end"] = pairs(sides, args.workloads, seeds, args.seconds)
    args.out.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
