"""The names the benchmark drivers in perfbench/ patch or call still exist.

The benchmark loads ``perfbench/traced.py`` and ``perfbench/setup_probe.py``
against the library; a renamed function there would only show when the
benchmark runs, so these tests load both scripts by path.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

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
    arc = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
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
