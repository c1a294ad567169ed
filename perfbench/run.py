"""Benchmark of lamsep end to end, or per layer with tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; lamsep is imported from ``src/``.  The seed
generates the workload's configs (see ``workloads.py``), so lamsep only sees
generated inputs.  A closed loop with one client starts one ``lamsep`` process
at a time and waits for it; a *round* is the workload's fixed list of
invocations, and a run makes the fixed number of rounds that takes about S
seconds (``workloads.rounds``), so the same seed always attempts the same
invocations.  Every invocation's outputs are checked.

With ``--trace 0`` the run first times SETUP_REPEATS fresh set-ups and then
reports the end-to-end metrics.  With ``--trace 1`` every invocation runs
under ``traced.py`` and the run reports the per-layer metrics, the import
times from ``python -X importtime`` and the tracing overhead (traced minus
untraced round wall time); its rounds alternate, traced and untraced, and
together make about as many rounds as an untraced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment, the
per-invocation records and the SHA-256 of every CSV written go to
``.bench_out/<workload>-seed<N>-trace<T>.json``; a traced run also writes its
spans to ``.bench_out/<workload>-seed<N>-spans.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# every run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

IMPORTS = {
    "import.lamsep_cli_s": "lamsep.cli",
    "import.nssim_s": "lamsep.nssim",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_sparse_s": "scipy.sparse",
    "import.mpmath_s": "mpmath",
}
# metric -> span name (see traced.py) whose self time is summed per round
ROUND_SELF_TIMES = {
    "cli.parse_config_s": "cli.parse_config",
    "cli.run_self_s": "cli.run",
    "theorems.theorem1_verify_s": "theorems.theorem1_verify",
    "theorems.theorem2_limit_s": "theorems.theorem2_limit",
    "theorems.oracle_limit_s": "theorems.oracle_limit",
    "fdops.richardson_s": "fdops.richardson",
    "fdops.fd_advection_s": "fdops.fd_advection",
    "tracing.trace_s": "tracing.trace",
    "tracing.poincare_L_s": "tracing.poincare_L",
    "tracing.eta_ratio_s": "tracing.eta_ratio",
    "tracing.zeta_check_s": "tracing.zeta_check",
    "nssim.probe_diagnostics_s": "nssim.probe_diagnostics",
    "nssim.dump_field_csv_s": "nssim.dump_field_csv",
}


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    bytes_written: int = 0
    records: list = field(default_factory=list)
    traces: list = field(default_factory=list)


class Runner:
    """Starts one child interpreter at a time in the repository root and waits for it."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.logs = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str]) -> tuple[Proc, str]:
        """Run ``python argv`` to completion; return its measurements and stderr."""
        self.logs += 1
        log = self.work / f"stderr-{self.logs}.txt"
        with open(log, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(max(self.time_left(), 0.0), _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Proc(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0), log.read_text()


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: its rounds, failures and records."""

    def __init__(self, runner: Runner, invocations: list[workloads.Invocation]):
        self.runner = runner
        self.invocations = invocations
        self.configs = []
        for i, inv in enumerate(invocations):
            path = runner.work / f"config-{i}.json"
            path.write_text(json.dumps(inv.config, indent=1))
            self.configs.append(path)
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.digests: dict[str, dict] = {}
        self.digest_changes: list[str] = []
        self.rounds: list[Round] = []

    def round(self, traced: bool) -> Round:
        rnd = Round()
        index = len(self.rounds)
        outs = []
        round_ok = True
        for i, inv in enumerate(self.invocations):
            key = f"{i}-{inv.command}"
            out = self.runner.work / f"round-{index}" / key
            lamsep_args = [inv.command, "--config", str(self.configs[i]), "--out", str(out)]
            spans_path = self.runner.work / f"spans-{index}-{key}.json"
            if traced:
                argv = [str(BENCH_DIR / "traced.py"), str(spans_path), f"{index}:{key}",
                        *lamsep_args]
            else:
                argv = ["-m", "lamsep.cli", *lamsep_args]
            proc, stderr = self.runner.run(argv)
            self.attempted += 1
            problems = workloads.check_invocation(inv, proc.exit_code, out)
            record = {"invocation": key, "round": index, "exit_code": proc.exit_code,
                      "wall_s": proc.wall_s, "cpu_s": proc.cpu_s, "rss_mb": proc.rss_mb}
            if problems:
                self.failed += 1
                round_ok = False
                record["problems"] = problems
                last = stderr.strip().splitlines()[-1:] or [""]
                record["stderr_last_line"] = last[0]
                # exit 1 with the CLI's one-line error is lamsep refusing the
                # input, not a wrong output; a wrong result, a traceback or a
                # kill makes the run incorrect
                if not (proc.exit_code == 1 and last[0].startswith("lamsep: error:")):
                    self.incorrect.append(f"{key} (round {index}): {'; '.join(problems)}")
            self._record_outputs(key, out, record)
            rnd.bytes_written += record["bytes_written"]
            rnd.wall_s += proc.wall_s
            rnd.cpu_s += proc.cpu_s
            rnd.records.append(record)
            if traced and spans_path.exists():
                rnd.traces.append(json.loads(spans_path.read_text()))
            outs.append(out)
            if self.runner.time_left() <= 0:
                self.incorrect.append(f"run deadline of {RUN_DEADLINE_S} s reached")
                break
        else:
            # a failed check across the round fails all of its invocations
            problems = workloads.check_round(self.invocations, outs) if round_ok else []
            if problems:
                self.failed += len(rnd.records)
                self.incorrect += [f"round {index}: {problem}" for problem in problems]
        shutil.rmtree(self.runner.work / f"round-{index}", ignore_errors=True)
        self.rounds.append(rnd)
        return rnd

    def _record_outputs(self, key: str, out: Path, record: dict) -> None:
        files = sorted(out.iterdir()) if out.is_dir() else []
        record["bytes_written"] = sum(f.stat().st_size for f in files)
        digests = {f.name: _sha256(f) for f in files if f.suffix == ".csv"}
        record["sha256"] = digests
        first = self.digests.setdefault(key, digests)
        if digests and first and digests != first:
            self.digest_changes.append(f"{key} (round {record['round']})")


def run_rounds(run: Run, count: int, traced: bool) -> list[Round]:
    rounds = [run.round(traced)]
    while len(rounds) < count and run.runner.time_left() > 0:
        rounds.append(run.round(traced))
    return rounds


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  Below 21 samples that percentile
    would lie under the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n >= 21 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, list[str]]:
    walls = [r["wall_s"] for rnd in run.rounds for r in rnd.records]
    tail_s, pct, beyond = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r.wall_s for r in run.rounds), "s"),
        "invocation_p50_s": (statistics.median(walls), "s"),
        "invocation_tail_s": (tail_s, "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in run.rounds), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for rnd in run.rounds for r in rnd.records), "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} set-ups",
        f"wall_s, cpu_s: median over {len(run.rounds)} rounds of "
        f"{len(run.invocations)} invocations",
        f"invocation_tail_s: p{pct:.1f} of {len(walls)} invocations, {beyond} beyond it",
        f"error_rate: {run.failed / run.attempted:.4f} ratio "
        f"({run.failed} failed of {run.attempted})",
    ]
    return metrics, notes


def _self_times(spans: list[list]) -> dict[str, float]:
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (_, name, start, end, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of each module at its first ``-X importtime`` line."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out.setdefault(name.strip(), int(cumulative) * 1e-6)
    return out


def per_layer(traced_rounds: list[Round], untraced: list[Round],
              imports: list[dict[str, float]]) -> tuple[dict, list[str]]:
    metrics = {name: (statistics.median(t.get(module, 0.0) for t in imports), "s")
               for name, module in IMPORTS.items()}

    per_round = []
    for rnd in traced_rounds:
        selfs: dict[str, float] = defaultdict(float)
        for trace in rnd.traces:
            for name, value in _self_times(trace["spans"]).items():
                selfs[name] += value
        per_round.append(selfs)
    for metric, span in ROUND_SELF_TIMES.items():
        metrics[metric] = (statistics.median(s[span] for s in per_round), "s")
    metrics["cli.bytes_written"] = (statistics.median(r.bytes_written for r in traced_rounds),
                                    "count")

    traces = [t for rnd in traced_rounds for t in rnd.traces]
    evals = sum(t["field_evals"] for t in traces)
    eval_s = sum(t["field_eval_s"] for t in traces)
    metrics["field.evals"] = (evals / len(traced_rounds), "count")
    metrics["field.eval_us"] = (1e6 * eval_s / evals if evals else 0.0, "us")

    # a workload that never reaches nssim reports 0 for its metrics
    steps = [s[3] - s[2] for t in traces for s in t["spans"] if s[1] == "nssim.step"]
    health = [t["simulation"] for t in traces if t["simulation"]]
    cold = [h["init_cold_s"] for h in health]
    assembly = [h["init_cold_s"] - h["init_warm_s"] for h in health]
    metrics["nssim.init_sim_s"] = (statistics.median(cold) if cold else 0.0, "s")
    metrics["nssim.assembly_s"] = (statistics.median(assembly) if assembly else 0.0, "s")
    metrics["nssim.step_s"] = (statistics.median(steps) if steps else 0.0, "s")
    metrics["nssim.steps"] = (len(steps) / len(traced_rounds), "count")
    metrics["nssim.div_max"] = (max((h["div_max"] for h in health), default=0.0), "nondim")
    metrics["nssim.noslip_residual"] = (max((h["noslip_residual"] for h in health), default=0.0),
                                        "nondim")

    traced_wall = statistics.median(
        sum(r["wall_s"] for r in rnd.records) - sum(t["post_s"] for t in rnd.traces)
        for rnd in traced_rounds)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = [
        f"per-round layer times: median over {len(traced_rounds)} traced rounds",
        f"import times: median of {len(imports)} runs of python -X importtime",
        f"bench.trace_overhead_s: traced round wall {traced_wall:.4f} s "
        f"minus untraced {untraced_wall:.4f} s (medians over {len(untraced)} rounds each)",
    ]
    return metrics, notes


def _git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
    }


def measure(args, root: Path, work: Path) -> tuple[Run, dict, list[str]]:
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    run = Run(runner, workloads.generate(args.workload, args.seed))
    count = workloads.rounds(args.workload, args.seconds)
    if args.trace:
        imports = []
        for _ in range(IMPORTTIME_REPEATS):
            proc, stderr = runner.run(["-X", "importtime", "-c", "import lamsep.cli"])
            imports.append(parse_importtime(stderr) if proc.exit_code == 0 else {})
        # traced and untraced rounds alternate, so the overhead is not the
        # machine's speed drifting between two halves of the run
        traced, untraced = [], []
        for _ in range(max(1, count // 2)):
            traced.append(run.round(traced=True))
            untraced.append(run.round(traced=False))
            if runner.time_left() <= 0:
                break
        metrics, notes = per_layer(traced, untraced, imports)
    else:
        first = run.invocations[0].command
        setup = [runner.run([str(BENCH_DIR / "setup_probe.py"), first, str(run.configs[0])])[0]
                 for _ in range(SETUP_REPEATS)]
        for proc in setup:
            if proc.exit_code != 0:
                run.incorrect.append(f"set-up exited with {proc.exit_code}")
        run_rounds(run, count, traced=False)
        metrics, notes = end_to_end(run, [p.wall_s for p in setup])
    return run, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lamsep" / "cli.py").is_file():
        print(f"run.py: no lamsep sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_work"))
    try:
        run, metrics, notes = measure(args, root, work)
        spans = [s for rnd in run.rounds for t in rnd.traces for s in t["spans"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.incorrect
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result_path = out_dir / f"{stem}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "configs": [{"command": inv.command, "config": inv.config} for inv in run.invocations],
        "metrics": reported, "notes": notes, "correct": correct, "incorrect": run.incorrect,
        "attempted": run.attempted, "failed": run.failed,
        "sha256": run.digests, "digest_changes": run.digest_changes,
        "invocations": [r for rnd in run.rounds for r in rnd.records],
    }, indent=1))
    if spans:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"lamsep benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(run.rounds)} rounds, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for problem in run.incorrect:
        print(f"  INCORRECT {problem}")
    for rnd in run.rounds:
        for record in rnd.records:
            if "problems" in record:
                print(f"  failed {record['invocation']} (round {record['round']}): "
                      f"{'; '.join(record['problems'])} [{record['stderr_last_line']}]")
    if run.digest_changes:
        print(f"  CSV digests changed between rounds: {', '.join(run.digest_changes)}")
    print(f"  result set: {result_path.relative_to(root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
