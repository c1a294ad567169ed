"""Smoke test of the benchmark itself, with short runs.

    python -m pytest perfbench/test_smoke.py -q      # from the repository root

It is not part of the Tier-1 suite (pytest's testpaths is ``tests``), and it
takes about half a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short(monkeypatch):
    """Shrink the runs: one set-up, one import-time probe, five steps per simulation."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_REPEATS", 1)
    monkeypatch.setattr(workloads, "SIM_DEFAULT_STEPS", 5)


def _bench(capsys, workload: str, trace: int) -> tuple[dict, str]:
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_metrics_emitted(short, capsys):
    result, out = _bench(capsys, "sim-default", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate: 0.0000 ratio (0 failed of 3)" in out
    assert "invocation_tail_s: p100.0 of 3 invocations" in out


def test_per_layer_metrics_emitted(short, capsys):
    sim, _ = _bench(capsys, "sim-default", 1)
    assert {k: v["unit"] for k, v in sim["metrics"].items()} == _names("per_layer")
    values = {k: v["value"] for k, v in sim["metrics"].items()}
    assert values["nssim.steps"] == 3 * 5
    for name in ("nssim.step_s", "nssim.init_sim_s", "nssim.dump_field_csv_s",
                 "import.lamsep_cli_s", "cli.bytes_written"):
        assert values[name] > 0, name
    assert values["tracing.trace_s"] == 0.0

    analysis, _ = _bench(capsys, "cli-analysis", 1)
    values = {k: v["value"] for k, v in analysis["metrics"].items()}
    for name in ("theorems.oracle_limit_s", "fdops.fd_advection_s", "tracing.trace_s",
                 "tracing.eta_ratio_s", "field.evals", "field.eval_us"):
        assert values[name] > 0, name
    assert values["nssim.steps"] == 0


def _lamsep(command: str, config: dict, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "lamsep.cli", command, "--config",
                           str(out / "config.json"), "--out", str(out)],
                          env=env, capture_output=True).returncode


PARAMS = {"alpha1": 2.3, "alpha2": 1.1, "nu": 0.8, "delta": 1.7}


def test_check_fails_on_wrong_expected_value(tmp_path, monkeypatch):
    inv = workloads.Invocation("verify-theorem2", PARAMS)
    code = _lamsep(inv.command, inv.config, tmp_path / "t2")
    assert workloads.check_invocation(inv, code, tmp_path / "t2") == []
    right = workloads.derived_limit
    monkeypatch.setattr(workloads, "derived_limit", lambda cfg: 1.001 * right(cfg))
    problems = workloads.check_invocation(inv, code, tmp_path / "t2")
    assert problems and "derived limit" in problems[0]

    inv = workloads.Invocation("verify-theorem1", PARAMS)
    code = _lamsep(inv.command, inv.config, tmp_path / "t1")
    assert workloads.check_invocation(inv, code, tmp_path / "t1") == []
    exact = workloads.mismatch_formula
    monkeypatch.setattr(workloads, "mismatch_formula", lambda cfg, r: exact(cfg, r) * (1 + 1e-9))
    problems = workloads.check_invocation(inv, code, tmp_path / "t1")
    assert problems and "M(r)" in problems[0]


def test_known_failure_counts_as_failed_not_incorrect(tmp_path):
    runner = run.Runner(ROOT, tmp_path, deadline=time.monotonic() + 120)
    sweep = workloads.Invocation("sweep", {"delta_values": [4.0], "alpha1_values": [3.0],
                                           "alpha2_values": [2.0], "nu_values": [1.0]})
    bench_run = run.Run(runner, [sweep])
    bench_run.round(traced=False)
    assert (bench_run.attempted, bench_run.failed, bench_run.incorrect) == (1, 1, [])


def test_refuses_without_lamsep_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli-analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_round_check_orders_curvature(tmp_path):
    def round_with(ratios):
        invs, outs = [], []
        for delta, ratio in zip((1.0, 2.0, 4.0), ratios):
            out = tmp_path / f"{ratios}-{delta}"
            out.mkdir()
            (out / "report.json").write_text(json.dumps({"payload": {"t0": [{"ratio": ratio}]}}))
            invs.append(workloads.Invocation("simulate", {"delta": delta}))
            outs.append(out)
        return workloads.check_round(invs, outs)

    assert round_with((-0.9, -0.5, -0.1)) == []
    assert round_with((-0.5, -0.9, -0.1))


def test_tail_percentile():
    assert run.tail([float(i) for i in range(24)]) == (13.0, 100.0 * 14 / 24, 10)
    assert run.tail([float(i) for i in range(12)]) == (11.0, 100.0, 0)


def test_round_count_depends_only_on_seconds():
    assert workloads.rounds("cli-analysis", SPEC["run_seconds"]) == 7
    assert workloads.rounds("sim-default", SPEC["run_seconds"]) == 6
    assert workloads.rounds("sim-default", 0) == 1
