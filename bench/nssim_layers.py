"""Layer timings of the sector solver, and output drift, between two source trees.

    python3 bench/nssim_layers.py --before OLD/src --after src --out BENCH_<topic>.json

``--before`` and ``--after`` are ``src/`` directories of two checkouts (make
the old one with ``git clone`` so its sha is known).  Each side runs in fresh interpreters with
``PYTHONPATH`` set to its tree; the sides alternate over ``REPEATS`` rounds
so that drift in machine speed hits both alike.  For n = 32/128/256 a round
times the build of each cached pressure operator (``_poisson_neumann`` and
``_poisson_dirichlet_theta``, bypassing their caches), a cold ``init_sim``
(every ``lru_cache`` in ``nssim`` cleared) and single ``step`` calls after a
warm-up step, measures each operator's relative residual on a random
right-hand side, and keeps the fields after ``STEPS[n]`` steps.  The output
holds the machine, both git shas, per-side medians over rounds, and the
largest differences of the final fields and of the default ``lamsep simulate``
CSVs between the sides.  Keep it out of the test suite: timings must not gate
tests.
"""

from __future__ import annotations

import argparse
import csv
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

import numpy as np

SIZES = (32, 128, 256)
REPEATS = 3
STEPS = {32: 20, 128: 8, 256: 4}
INIT_REPEATS = 3


def _apply_laplacian(g, x: np.ndarray, dirichlet_theta: bool) -> np.ndarray:
    """The flux-form (negative) Laplacian of ``nssim`` applied face by face."""
    c_r = g.rho_f[1:-1] * g.dth / g.drh
    c_th = g.drh / (g.rho_c * g.dth)
    out = np.zeros_like(x)
    flux = c_r * (x[:, 1:] - x[:, :-1])
    out[:, :-1] -= flux
    out[:, 1:] += flux
    flux = c_th * (x[1:] - x[:-1])
    out[:-1] -= flux
    out[1:] += flux
    if dirichlet_theta:
        out[[0, -1]] += 2.0 * c_th * x[[0, -1]]
    return out


def _residuals(nssim, cfg) -> dict:
    """Relative residuals of the projection and t = 0 pressure solves."""
    g = nssim._grid(cfg)
    rng = np.random.default_rng(cfg.n_s)
    b = rng.standard_normal((cfg.n_s, cfg.n_r))
    b -= b.mean()
    phi = nssim._solve_neumann(cfg, b)
    neumann = np.linalg.norm(_apply_laplacian(g, phi, False) + b) / np.linalg.norm(b)
    b = rng.standard_normal((cfg.n_s, cfg.n_r))
    solver = nssim._poisson_dirichlet_theta(nssim._mesh(cfg))
    # a SuperLU factor takes and returns flat vectors
    flat = hasattr(solver, "perm_c")
    x = np.reshape(solver.solve(b.ravel() if flat else b), b.shape)
    dirichlet = np.linalg.norm(_apply_laplacian(g, x, True) - b) / np.linalg.norm(b)
    return {"residual_neumann": float(neumann), "residual_dirichlet": float(dirichlet)}


def _measure(n: int, steps: int, fields_path: str) -> dict:
    """Runs inside the side's interpreter: time the layers at one grid size."""
    from lamsep import nssim
    from lamsep.field import LaminarParams
    from lamsep.geometry import ArcBoundary

    arc = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
    cfg = nssim.SimConfig(arc=arc, params=LaminarParams(2.5, 1.0, 1.0),
                          n_s=n, n_r=n, sector_angle=0.5)
    mesh = nssim._mesh(cfg)
    factor_s = {}
    for name in ("_poisson_neumann", "_poisson_dirichlet_theta"):
        t0 = time.perf_counter()
        getattr(nssim, name).__wrapped__(mesh)
        factor_s[f"factor{name.removeprefix('_poisson')}_s"] = time.perf_counter() - t0

    init_times = []
    for _ in range(INIT_REPEATS):
        for cached in vars(nssim).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        t0 = time.perf_counter()
        state = nssim.init_sim(cfg)
        init_times.append(time.perf_counter() - t0)
    p0 = state.p

    # the first step builds the projection operator, so it is timed apart
    t0 = time.perf_counter()
    state = nssim.step(state, cfg)
    first_step_s = time.perf_counter() - t0
    step_times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        state = nssim.step(state, cfg)
        step_times.append(time.perf_counter() - t0)
    np.savez(fields_path, us=state.us, ur=state.ur, p=state.p, p0=p0)
    return {**factor_s, "init_sim_s": statistics.median(init_times),
            "first_step_s": first_step_s, "step_s": statistics.median(step_times),
            **_residuals(nssim, cfg)}


def _run_side(src: str, n: int, steps: int, fields_path: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, __file__, "--measure", str(n), "--steps", str(steps),
         "--fields", fields_path],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _simulate_csvs(src: str, workdir: Path) -> dict:
    """Run the default ``lamsep simulate`` and read its two CSVs as float columns."""
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-m", "lamsep.cli", "simulate", "--out", str(workdir)],
                   env=env, check=True, capture_output=True)
    tables = {}
    for name in ("data.csv", "field.csv"):
        with open(workdir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        tables[name] = {col: np.array([float(r[k]) for r in rows[1:]])
                        for k, col in enumerate(rows[0])}
    return tables


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_sha(src: str) -> str | None:
    out = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def compare(before: str, after: str) -> dict:
    sides = {"before": before, "after": after}
    samples = {side: {n: [] for n in SIZES} for side in sides}
    drift = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(REPEATS):
            order = list(sides) if rnd % 2 == 0 else list(sides)[::-1]
            for n in SIZES:
                for side in order:
                    path = os.path.join(tmp, f"{side}{n}.npz")
                    samples[side][n].append(_run_side(sides[side], n, STEPS[n], path))
        for n in SIZES:
            old = np.load(os.path.join(tmp, f"before{n}.npz"))
            new = np.load(os.path.join(tmp, f"after{n}.npz"))
            drift[str(n)] = {f"max_abs_d{k}": _max_abs_diff(old[k], new[k])
                             for k in ("us", "ur", "p", "p0")}
        csvs = {side: _simulate_csvs(src, Path(tmp) / side) for side, src in sides.items()}
    simulate_drift = {
        name: {col: _max_abs_diff(csvs["before"][name][col], csvs["after"][name][col])
               for col in table}
        for name, table in csvs["after"].items()
    }

    layers = {}
    for side in sides:
        layers[side] = {
            str(n): {key: statistics.median(s[key] for s in samples[side][n])
                     for key in samples[side][n][0]}
            for n in SIZES
        }
    return {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": _version("scipy")},
        "git_sha": {side: _git_sha(src) for side, src in sides.items()},
        "method": {"repeats": REPEATS, "steps_timed": STEPS, "init_repeats": INIT_REPEATS,
                   "config": "delta 1, alpha1 2.5, alpha2 1, nu 1, sector 0.5, n_s = n_r = n, "
                             "default dt; medians over rounds of per-process medians"},
        "layers_s": layers,
        "field_drift_after_steps": drift,
        "simulate_default_csv_drift": simulate_drift,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before")
    parser.add_argument("--after")
    parser.add_argument("--out")
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--steps", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--fields", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:
        print(json.dumps(_measure(args.measure, args.steps, args.fields)))
        return
    if not (args.before and args.after and args.out):
        parser.error("--before, --after and --out are required")
    result = compare(args.before, args.after)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
