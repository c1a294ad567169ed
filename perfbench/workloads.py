"""Workload definitions and output checks of the lamsep benchmark.

A workload is a fixed list of ``lamsep`` CLI invocations (one *round*) whose
configs are drawn from a seed.  Every check recomputes its expected value from
the paper's closed forms or from the generated config; nothing expected is
read back from lamsep.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Parameter ranges of the analysis commands.  They deliberately include the
# regions where lamsep's extrapolations give up (NonMonotoneSequence in
# theorem2_limit and zeta_check, NoCrossing in classify): those invocations
# count as failed, they are not filtered out.
DELTA = (0.5, 4.0)
ALPHA1 = (1.0, 5.0)
ALPHA2 = (0.5, 2.0)
NU = (0.5, 2.0)
# sweep axis -> (range, number of values): 48 points
SWEEP_AXES = {"delta_values": (DELTA, 4), "alpha1_values": (ALPHA1, 3),
              "alpha2_values": (ALPHA2, 2), "nu_values": (NU, 2)}

# The simulate workloads fix the boundary-layer thickness bl = alpha1/alpha2:
# it sets the sector's radial extent (2 bl) and so the grid's aspect ratio,
# which sets the pressure-CG iteration count; with bl fixed a step costs the
# same for every seed.  The seed draws alpha1 and nu, and alpha2 = alpha1/bl.
# bl >= 1 also keeps the wall-tangential cell width the smallest up to
# delta = 4, so the explicit viscous limit on it sets lamsep's default time
# step, dt = 0.1 * (delta * 0.5 / n)**2 / nu.  A t_end in viscous time units,
# STEPS / (10 * (2n)**2) * delta**2 / nu, then gives exactly STEPS steps
# whatever the seed and delta.
SIM_ALPHA1 = (2.0, 5.0)
SIM_BL = 2.5
SIM_DEFAULT_DELTAS = (1.0, 2.0, 4.0)
SIM_DEFAULT_N = 32
SIM_DEFAULT_STEPS = 150
SIM_FINE_N = 128
SIM_FINE_STEPS = 10
SIM_FINE_PROCESSES = 2

THEOREM1_RTOL = 1e-12
THEOREM2_RTOL = 1e-4
TRACE_RADIUS_RTOL = 1e-9

# exit code of a successful invocation; verify-theorem2 exits 2 on the tracked
# printed-vs-derived erratum, which is its expected outcome
SUCCESS_EXIT = {"verify-theorem2": 2}


@dataclass(frozen=True)
class Invocation:
    command: str
    config: dict


def _params(rng: random.Random) -> dict:
    return {"alpha1": rng.uniform(*ALPHA1), "alpha2": rng.uniform(*ALPHA2),
            "nu": rng.uniform(*NU)}


def _sim_params(rng: random.Random) -> dict:
    alpha1 = rng.uniform(*SIM_ALPHA1)
    return {"alpha1": alpha1, "alpha2": alpha1 / SIM_BL, "nu": rng.uniform(*NU)}


def _viscous_t_end(n: int, steps: int, delta: float, nu: float) -> float:
    return steps / (10.0 * (2 * n) ** 2) * delta * delta / nu


def cli_analysis(rng: random.Random) -> list[Invocation]:
    def draw() -> dict:
        return {**_params(rng), "delta": rng.uniform(*DELTA)}

    sweep = {key: [rng.uniform(*span) for _ in range(count)]
             for key, (span, count) in SWEEP_AXES.items()}
    return [
        Invocation("verify-theorem1", {**draw(), "use_tracing": True}),
        Invocation("verify-theorem2", draw()),
        Invocation("classify", draw()),
        Invocation("trace", draw()),
        Invocation("zeta-check", draw()),
        Invocation("sweep", sweep),
    ]


def sim_default(rng: random.Random) -> list[Invocation]:
    params = _sim_params(rng)
    return [
        Invocation("simulate", {
            **params, "delta": delta, "n_s": SIM_DEFAULT_N, "n_r": SIM_DEFAULT_N,
            "t_end": _viscous_t_end(SIM_DEFAULT_N, SIM_DEFAULT_STEPS, delta, params["nu"]),
        })
        for delta in SIM_DEFAULT_DELTAS
    ]


def sim_fine(rng: random.Random) -> list[Invocation]:
    out = []
    for _ in range(SIM_FINE_PROCESSES):
        params = _sim_params(rng)
        out.append(Invocation("simulate", {
            **params, "delta": 1.0, "n_s": SIM_FINE_N, "n_r": SIM_FINE_N,
            "t_end": _viscous_t_end(SIM_FINE_N, SIM_FINE_STEPS, 1.0, params["nu"]),
        }))
    return out


WORKLOADS = {"cli-analysis": cli_analysis, "sim-default": sim_default, "sim-fine": sim_fine}

# Typical seconds of one untraced round on two cores.  A run makes a fixed
# number of rounds, seconds / ROUND_SECONDS rounded, so the invocations a run
# attempts (and those that fail) depend only on the workload, the seed and
# --seconds, never on how fast the machine happens to be.
ROUND_SECONDS = {"cli-analysis": 6.0, "sim-default": 6.5, "sim-fine": 8.0}


def rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of about ``seconds`` seconds; at least one."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int) -> list[Invocation]:
    """The workload's round of invocations; the same seed gives the same configs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ----------------------------------------------------------------------------
# expected values, from the paper's closed forms
# ----------------------------------------------------------------------------


def mismatch_formula(cfg: dict, r: float) -> float:
    """Theorem 1 margin M(r) = h/(d+r)**2 + 2*a2*r/(d+r)."""
    a1, a2, d = cfg["alpha1"], cfg["alpha2"], cfg["delta"]
    h = a1 * r - 0.5 * a2 * r * r
    return h / (d + r) ** 2 + 2.0 * a2 * r / (d + r)


def derived_limit(cfg: dict) -> float:
    """Theorem 2 near-wall limit -2*nu*a2/(d*a1) - nu/d**2 (factor 2 on the a2 term)."""
    a1, a2, nu, d = cfg["alpha1"], cfg["alpha2"], cfg["nu"], cfg["delta"]
    return -2.0 * nu * a2 / (d * a1) - nu / d**2


# ----------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ----------------------------------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _payload(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["payload"]


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_theorem1(cfg: dict, out: Path) -> list[str]:
    problems = []
    rows = _rows(out / "data.csv")
    worst = max(_rel_err(float(row["mismatch"]), mismatch_formula(cfg, float(row["r"])))
                for row in rows)
    if worst > THEOREM1_RTOL:
        problems.append(f"mismatch deviates from M(r) by {worst:.3e} relative")
    if not _payload(out)["min_mismatch"] > 0:
        problems.append("min_mismatch is not positive")
    return problems


def check_theorem2(cfg: dict, out: Path) -> list[str]:
    payload = _payload(out)
    problems = []
    if payload["agrees_with"] != "oracle":
        problems.append(f"agrees_with is {payload['agrees_with']!r}, not 'oracle'")
    err = _rel_err(payload["limit_extrapolated"], derived_limit(cfg))
    if err > THEOREM2_RTOL:
        problems.append(f"extrapolated limit deviates from the derived limit by {err:.3e} relative")
    return problems


def check_classify(cfg: dict, out: Path) -> list[str]:
    kind = _payload(out)["kind"]
    return [] if kind == "Parallel" else [f"kind is {kind!r}, not 'Parallel'"]


def check_trace(cfg: dict, out: Path) -> list[str]:
    radii = [math.hypot(float(row["x"]), float(row["y"])) for row in _rows(out / "data.csv")]
    drift = (max(radii) - min(radii)) / radii[0]
    if drift > TRACE_RADIUS_RTOL:
        return [f"streamline distance from the centre drifts by {drift:.3e} relative"]
    return []


def check_zeta(cfg: dict, out: Path) -> list[str]:
    return [] if _payload(out)["bounds_hold"] is True else ["zeta bounds do not hold"]


def check_sweep(cfg: dict, out: Path) -> list[str]:
    want = math.prod(len(cfg[key]) for key in SWEEP_AXES)
    got = len(_rows(out / "data.csv"))
    return [] if got == want else [f"sweep wrote {got} rows, expected {want}"]


def check_simulate(cfg: dict, out: Path) -> list[str]:
    problems = []
    ratios = [s["ratio"] for s in _payload(out)["t0"]]
    if not all(q < 0 for q in ratios):
        problems.append(f"t = 0 ratios not all negative: {ratios}")
    if not all(math.isfinite(float(row["u_t"])) for row in _rows(out / "data.csv")):
        problems.append("non-finite u_t in data.csv")
    with open(out / "field.csv") as fh:
        field_rows = sum(1 for _ in fh) - 1
    if field_rows != cfg["n_s"] * cfg["n_r"]:
        problems.append(f"field.csv has {field_rows} rows, expected {cfg['n_s'] * cfg['n_r']}")
    return problems


CHECKS = {
    "verify-theorem1": check_theorem1,
    "verify-theorem2": check_theorem2,
    "classify": check_classify,
    "trace": check_trace,
    "zeta-check": check_zeta,
    "sweep": check_sweep,
    "simulate": check_simulate,
}


def check_invocation(inv: Invocation, exit_code: int, out: Path) -> list[str]:
    want = SUCCESS_EXIT.get(inv.command, 0)
    if exit_code != want:
        return [f"exit code {exit_code}, expected {want}"]
    try:
        return CHECKS[inv.command](inv.config, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_round(invocations: list[Invocation], outs: list[Path]) -> list[str]:
    """Checks across the round: the near-wall t = 0 ratio of sim-default must get
    more negative as delta shrinks (the curvature monotonicity)."""
    sims = [(inv.config["delta"], out) for inv, out in zip(invocations, outs)
            if inv.command == "simulate"]
    if len({d for d, _ in sims}) < 2:
        return []
    try:
        nearest = sorted((d, _payload(out)["t0"][0]["ratio"]) for d, out in sims)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable simulate output: {type(exc).__name__}: {exc}"]
    if all(a[1] < b[1] for a, b in zip(nearest, nearest[1:])):
        return []
    return [f"near-wall t = 0 ratio is not more negative at smaller delta: {nearest}"]
