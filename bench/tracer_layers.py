"""Layer timings of the tracer, and end-to-end benchmark pairs, between two checkouts.

    python3 bench/tracer_layers.py --before OLD --after . --out BENCH_<topic>.json \
        [--pairs 10 --first-seed 81 --workloads cli-analysis sim-default]

``--before`` and ``--after`` are repository roots (each with ``src/`` and
``perfbench/``; make the old one with ``git clone`` or ``git archive``).

Layers: each side runs in fresh interpreters with ``PYTHONPATH`` set to its
``src/``, and the sides alternate over ``REPEATS`` rounds so that drift in
machine speed hits both alike.  A round times one field evaluation and one
RK4 ``_rk_step`` of the laminar field, each made the way that side's tracer
makes it (a float pair where fields are in point form, a 2-vector before),
then ``trace_streamline`` (1000 steps), the theorem-1 ``eta_ratio``, the
classify ``poincare_L`` and the ``zeta_check`` of the angular pressure, all on
the CLI's default geometry.  Each layer's outputs are hashed, so the file
also shows whether the sides traced the same bits.

Pairs: with ``--pairs N`` each workload runs ``perfbench/run.py --seconds S``
once per side on each of N seeds, the side that goes first alternating.  The
file gets each side's quartiles per end-to-end metric, the pairs the change
won, the parent's interquartile range, the failures, and which invocations
wrote CSVs with the same SHA-256 on both sides.  Keep this out of the test suite: timings
must not gate tests.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
TIMED_CALLS = 2000


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _best_of(fn, calls: int) -> float:
    """Smallest per-call time of ``calls`` calls, over three batches."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _measure() -> dict:
    """Runs inside the side's interpreter: time each tracer layer once."""
    import numpy as np

    from lamsep import tracing
    from lamsep.field import LaminarParams, laminar_field, stationary_gradp_field
    from lamsep.geometry import ArcBoundary, to_cartesian

    delta, params = 1.5, LaminarParams(2.5, 1.0, 1.0)
    arc = ArcBoundary(delta, 0.0, (0.0, 0.0), (0.0, 0.5 * delta))
    cfg = tracing.default_trace_config(arc, params)
    scale = min(params.bl, delta)
    field = laminar_field(arc, params)
    start = to_cartesian(arc, (0.1 * delta, 0.1 * scale))

    # the argument the tracer hands a field: a float pair in point form
    pair = (float(start[0]), float(start[1]))
    point = pair if isinstance(field(pair), tuple) else np.array(pair)
    direction = tracing._unit_direction(field, cfg.stagnation_tol)
    # an older tracer's _rk_step also takes the RK order
    order = (4,) if "order" in inspect.signature(tracing._rk_step).parameters else ()
    out = {
        "field_eval_us": 1e6 * _best_of(lambda: field(point), TIMED_CALLS),
        "rk_step_us": 1e6 * _best_of(lambda: tracing._rk_step(direction, point, cfg.step, *order),
                                     TIMED_CALLS // 4),
    }
    digests = {}

    trace_cfg = tracing.TraceConfig(step=1e-3 * delta, max_length=delta,
                                    stagnation_tol=cfg.stagnation_tol)
    out["trace_streamline_s"], line = _timed(
        lambda: tracing.trace_streamline(field, start, trace_cfg))
    digests["trace_streamline"] = hashlib.sha256(line.points.tobytes()).hexdigest()[:16]

    gradp = stationary_gradp_field(arc, params)
    s_mid = 0.3 * (arc.s_range[0] + arc.s_range[1])
    eps_list = [4e-3 * delta, 2e-3 * delta, 1e-3 * delta]
    out["eta_ratio_s"], eta = _timed(
        lambda: tracing.eta_ratio(gradp, arc, s_mid, 0.1 * scale, eps_list, cfg))
    digests["eta_ratio"] = _digest((eta.value, eta.error_estimate))

    s0, s1 = arc.s_range[0] + 0.2 * (arc.s_range[1] - arc.s_range[0]), 0.5 * sum(arc.s_range)
    out["poincare_L_s"], height = _timed(
        lambda: tracing.poincare_L(field, arc, s0, s1, 0.1 * scale, cfg))
    digests["poincare_L"] = _digest(height)

    p_field = tracing.angular_pressure(arc, params)
    r_list = [0.08 * scale, 0.04 * scale, 0.02 * scale]
    out["zeta_check_s"], report = _timed(
        lambda: tracing.zeta_check(p_field, arc, params, s0, r_list, 2.0))
    digests["zeta_check"] = _digest([(sm.s_hat, sm.r_hat2, sm.traced_length)
                                     for sm in report.samples])
    out["digests"] = digests
    return out


def _run_side(src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def layers(sides: dict[str, Path]) -> dict:
    samples = {side: [] for side in sides}
    for rnd in range(REPEATS):
        order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
        for side in order:
            samples[side].append(_run_side(sides[side] / "src"))
    result = {}
    for side, runs in samples.items():
        keys = [k for k in runs[0] if k != "digests"]
        result[side] = {k: statistics.median(r[k] for r in runs) for k in keys}
    digests = {side: runs[0]["digests"] for side, runs in samples.items()}
    return {
        "medians": result,
        "after_over_before": {k: result["after"][k] / result["before"][k]
                              for k in result["after"]},
        "outputs_identical": {k: digests["before"][k] == digests["after"][k]
                              for k in digests["after"]},
    }


def _bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, check=True, capture_output=True, text=True)
    summary = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {**summary, "sha256": record["sha256"]}


def pairs(sides: dict[str, Path], workloads: list[str], seeds: list[int],
          seconds: float) -> dict:
    spec = json.loads((sides["after"] / "BENCHMARK.json").read_text())
    out = {}
    for workload in workloads:
        runs = {side: [] for side in sides}
        for k, seed in enumerate(seeds):
            order = ["before", "after"] if k % 2 == 0 else ["after", "before"]
            for side in order:
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
            "csv_sha256": _csv_agreement(seeds, runs["before"], runs["after"]),
        }
    return out


def _csv_agreement(seeds: list[int], before: list[dict], after: list[dict]) -> dict:
    """Sort each invocation of a run's first round by how its CSVs compare.

    An invocation that failed writes no CSV, so one that succeeds on one side
    only is listed apart from one whose CSVs differ.
    """
    out = {"identical": 0, "differ": [], "only_before": [], "only_after": []}
    for seed, old, new in zip(seeds, before, after):
        for key in new["sha256"]:
            a, b = old["sha256"].get(key), new["sha256"][key]
            if a and b:
                if a == b:
                    out["identical"] += 1
                else:
                    out["differ"].append(f"seed {seed}: {key}")
            elif a or b:
                out["only_before" if a else "only_after"].append(f"seed {seed}: {key}")
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
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(_measure()))
        return
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")
    import numpy as np

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    result = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "git_sha": {side: _git_sha(root) for side, root in sides.items()},
        "method": {
            "layers": f"{REPEATS} alternating rounds of fresh interpreters; medians over "
                      f"rounds; field_eval_us and rk_step_us are the best per-call time of "
                      f"three batches of {TIMED_CALLS} and {TIMED_CALLS // 4} calls",
            "pairs": f"perfbench/run.py --seconds {args.seconds} on seeds {seeds}, one run "
                     "per side and seed, the side that goes first alternating",
        },
        "layers": layers(sides),
    }
    if seeds:
        result["end_to_end"] = pairs(sides, args.workloads, seeds, args.seconds)
    args.out.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
