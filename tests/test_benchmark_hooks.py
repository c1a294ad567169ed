"""The names the benchmark drivers in perfbench/ patch or call still exist.

The benchmark loads ``perfbench/traced.py`` and ``perfbench/setup_probe.py``
against the library; a renamed function there would only show when the
benchmark runs, so these tests load both scripts by path, and run
``traced.py`` as the benchmark does, in a new interpreter.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lamsep
from lamsep import nssim
from lamsep.field import LaminarParams
from lamsep.geometry import ArcBoundary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_is_callable():
    traced = _load("traced")
    assert traced.SPANNED
    for owner, attr, _ in traced.SPANNED:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_setup_probe_runs_simulate_set_up(tmp_path):
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps({"delta": 1.0, "n_s": 16, "n_r": 16, "t_end": 0.001}))
    assert _load("setup_probe").main(["simulate", str(config)]) == 0


def test_final_state_feeds_the_simulation_health_record():
    traced = _load("traced")
    arc = ArcBoundary(1.0, (0.0, 0.5))
    cfg = nssim.SimConfig(arc=arc, params=LaminarParams(2.0, 1.0, 1.0), n_s=16, n_r=16,
                          t_end=0.001)
    report = nssim.run_experiment(cfg)
    spans = [["0:0", "nssim.init_sim", 0.0, 0.5, None]]
    health = traced._simulation_health(
        nssim.init_sim, {"cfg": cfg, "final_state": report.final_state}, spans)
    assert health["init_cold_s"] == 0.5
    assert health["div_max"] == float(np.max(np.abs(
        nssim.divergence(cfg, report.final_state.us, report.final_state.ur))))
    assert health["div_max"] <= 1e-8
    assert health["noslip_residual"] <= 1e-12


def _run_traced(tmp_path, command: str, config: dict) -> dict:
    """Run ``perfbench/traced.py`` on one lamsep invocation in a new interpreter
    that imports this checkout's lamsep; the record it writes."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    spans = tmp_path / "spans.json"
    src = str(Path(lamsep.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced.py"), str(spans), "0:0",
                           command, "--config", str(path), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit_code"] == 0
    return record


def test_traced_counts_the_field_evaluations_of_a_tracing_run(tmp_path):
    record = _run_traced(tmp_path, "verify-theorem1", {"use_tracing": True})
    assert record["field_evals"] > 0 and record["field_eval_s"] > 0
    assert record["simulation"] is None
    names = {span[1] for span in record["spans"]}
    # the eta ratio marches its level curves in the wall chart, not through the
    # spanned trace_pressure_line, so this run has no tracing.trace span
    assert {"cli.parse_config", "cli.run", "theorems.theorem1_verify",
            "tracing.eta_ratio"} <= names


def test_traced_records_the_health_of_a_simulate_run(tmp_path):
    record = _run_traced(tmp_path, "simulate", {"n_s": 16, "n_r": 16, "t_end": 0.001})
    health = record["simulation"]
    assert health["init_cold_s"] > 0 and health["init_warm_s"] > 0
    assert health["div_max"] <= 1e-8 and health["noslip_residual"] <= 1e-12
    assert {"nssim.step", "nssim.dump_field_csv"} <= {span[1] for span in record["spans"]}
