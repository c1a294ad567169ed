"""Run one ``lamsep`` CLI invocation with spans around lamsep's public functions.

    python perfbench/traced.py SPANS_JSON INVOCATION_ID <lamsep command> [args...]

Each name is patched where its caller looks it up (``cli`` binds
``parse_config``, ``run`` and ``fd_advection`` by name; the other modules call
through module attributes), so lamsep itself is unchanged.  A span is
``[invocation id, name, start, end, parent index]``; spans stay in memory and
are written to SPANS_JSON when the invocation ends.  Field evaluations are
counted and timed in total, not spanned.  After a ``simulate`` run the driver
also times a warm ``init_sim`` on the same config and measures the final
state's divergence and no-slip residual; that extra work is reported as
``post_s`` so the caller can leave it out of the traced wall time.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import lamsep.cli as cli
from lamsep import field, nssim, theorems, tracing

SPANNED = [
    (cli, "parse_config", "cli.parse_config"),
    (cli, "run", "cli.run"),
    (cli, "fd_advection", "fdops.fd_advection"),
    (theorems, "theorem1_verify", "theorems.theorem1_verify"),
    (theorems, "theorem2_limit", "theorems.theorem2_limit"),
    (theorems, "oracle_limit", "theorems.oracle_limit"),
    (theorems, "richardson", "fdops.richardson"),
    (tracing, "richardson", "fdops.richardson"),
    (tracing, "trace_streamline", "tracing.trace"),
    (tracing, "trace_pressure_line", "tracing.trace"),
    (tracing, "poincare_L", "tracing.poincare_L"),
    (tracing, "eta_ratio", "tracing.eta_ratio"),
    (tracing, "zeta_check", "tracing.zeta_check"),
    (nssim, "run_experiment", "nssim.run_experiment"),
    (nssim, "init_sim", "nssim.init_sim"),
    (nssim, "step", "nssim.step"),
    (nssim, "probe_diagnostics", "nssim.probe_diagnostics"),
    (nssim, "dump_field_csv", "nssim.dump_field_csv"),
]


class Tracer:
    def __init__(self, invocation_id: str):
        self.invocation_id = invocation_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.field_evals = 0
        self.field_eval_s = 0.0

    def span(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [self.invocation_id, name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record[3] = time.perf_counter()

        setattr(owner, attr, wrapper)

    def count_calls(self, cls) -> None:
        call = cls.__call__

        def counted(handle, x):
            t0 = time.perf_counter()
            try:
                return call(handle, x)
            finally:
                self.field_eval_s += time.perf_counter() - t0
                self.field_evals += 1

        cls.__call__ = counted


def _simulation_health(init_sim, run: dict, spans: list[list]) -> dict:
    """Warm init_sim on the run's config, and the final state's residuals."""
    cfg, state = run["cfg"], run["final_state"]
    t0 = time.perf_counter()
    init_sim(cfg)
    warm = time.perf_counter() - t0
    cold = next(s[3] - s[2] for s in spans if s[1] == "nssim.init_sim")
    return {
        "init_cold_s": cold,
        "init_warm_s": warm,
        "div_max": float(np.max(np.abs(nssim.divergence(cfg, state.us, state.ur)))),
        "noslip_residual": float(nssim.wall_noslip_residual(cfg, state)),
    }


def main(argv: list[str]) -> int:
    spans_path, invocation_id, lamsep_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(invocation_id)
    init_sim = nssim.init_sim
    run_experiment = nssim.run_experiment
    sim_run: dict = {}

    def capture_run(cfg, *args, **kwargs):
        report = run_experiment(cfg, *args, **kwargs)
        sim_run.update(cfg=cfg, final_state=report.final_state)
        return report

    nssim.run_experiment = capture_run
    for owner, attr, name in SPANNED:
        tracer.span(owner, attr, name)
    tracer.count_calls(field.FieldHandle)
    tracer.count_calls(field.ScalarFieldHandle)

    exit_code = 1
    try:
        exit_code = cli.main(lamsep_argv)
    finally:
        t0 = time.perf_counter()
        health = _simulation_health(init_sim, sim_run, tracer.spans) if sim_run else None
        record = {
            "spans": tracer.spans,
            "field_evals": tracer.field_evals,
            "field_eval_s": tracer.field_eval_s,
            "simulation": health,
            "exit_code": exit_code,
        }
        record["post_s"] = time.perf_counter() - t0
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
