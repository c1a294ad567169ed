import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lamsep
from lamsep.cli import COMMANDS, main, parse_config
from lamsep.errors import ParseError, ValidationError

from conftest import load_strict_json


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_minimal_theorem2_fills_defaults(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha1": 1,
                                   "alpha2": 1, "nu": 1, "delta": 1})
    cfg = parse_config(path)
    assert cfg.command == "verify-theorem2"
    assert cfg.arc.phase == 0.0
    assert cfg.arc.s_range == (0.0, 0.5)
    assert cfg.params.nu == 1.0


def test_parse_rejects_negative_alpha2(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha2": -1})
    with pytest.raises(ValidationError):
        parse_config(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha3": 2.0})
    with pytest.raises(ParseError, match="alpha3"):
        parse_config(path)


@pytest.mark.parametrize("bad", [
    {"alpha1": "x"}, {"alpha1": float("nan")}, {"alpha2": float("inf")}, {"nu": [1.0]},
    {"delta": None}, {"alpha1": True}, {"phase": "x"}, {"phase": float("nan")}, {"s_range": [1]},
    {"s_range": [0.0, float("nan")]}, {"s_range": [0.5, 0.0]}, {"center": 3},
    {"center": ["a", 0.0]}, {"center": [0.0, 0.0, 0.0]},
])
def test_parse_rejects_malformed_numbers(tmp_path, capsys, bad):
    path = write_config(tmp_path, {"command": "verify-theorem2", **bad})
    with pytest.raises(ValidationError, match=next(iter(bad))):
        parse_config(path)
    assert main(["verify-theorem2", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")


def test_parse_rejects_non_finite_flag(capsys, tmp_path):
    assert main(["verify-theorem2", "--alpha1", "nan", "--out", str(tmp_path / "o")]) == 1
    assert "alpha1 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_parse_reports_all_violations(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem1", "alpha1": -1, "nu": -2})
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert "alpha1" in str(err.value) and "nu" in str(err.value)


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="line"):
        parse_config(str(path))


@pytest.mark.parametrize("bad", [5, None, ["a"], ""])
def test_config_out_must_be_a_non_empty_path(tmp_path, monkeypatch, capsys, bad):
    # no --out flag, so the file's value is the one in force
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"command": "verify-theorem2", "out": bad})
    assert main(["verify-theorem2", "--config", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: out must")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-a-file"])
def test_file_system_errors_end_in_one_line(tmp_path, capsys, case):
    config, out = tmp_path / "cfg.json", tmp_path / "o"
    if case == "directory":
        config.mkdir()
    elif case == "not-utf8":
        config.write_bytes(b'{"alpha1": "\xff"}')
    elif case == "out-is-a-file":
        config.write_text("{}")
        out.write_text("")
    assert main(["verify-theorem2", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")


@pytest.mark.parametrize("command, config", [
    ("verify-theorem1", {"delta": 1e-170}), ("verify-theorem2", {"delta": 1e-170}),
    ("zeta-check", {"delta": 1e-170}), ("sweep", {"delta_values": [1e-300]}),
])
def test_underflowing_delta_ends_in_one_line(tmp_path, capsys, command, config):
    # delta**2 underflows to 0, so a closed form divides by zero
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:"), err


def test_flags_override_file(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha1": 1.0})
    cfg = parse_config(path, {"alpha1": 3.0})
    assert cfg.params.alpha1 == 3.0


def test_command_conflict(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2"})
    with pytest.raises(ValidationError):
        parse_config(path, command="verify-theorem1")


def test_empty_sweep_axis_rejected(tmp_path):
    path = write_config(tmp_path, {"command": "sweep", "delta_values": []})
    with pytest.raises(ValidationError):
        parse_config(path)


def test_theorem1_run_exit0(tmp_path):
    rc = main(["verify-theorem1", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["payload"]["min_mismatch"] > 0
    assert report["erratum_notes"]["pperp_variant_supported_by_fd"] == "corrected"
    lines = (tmp_path / "o" / "data.csv").read_text().splitlines()
    assert lines[0] == "r,lhs,rhs,mismatch"


def test_theorem2_run_exit2_and_adjudication(tmp_path):
    # alpha1 = alpha2 = nu = delta = 1: paper -2, oracle -3
    rc = main(["verify-theorem2", "--alpha1", "1", "--out", str(tmp_path / "o")])
    assert rc == 2  # printed and derived limits disagree: tracked erratum
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["payload"]["agrees_with"] == "oracle"
    assert report["payload"]["paper_value"] == pytest.approx(-2.0)
    assert report["payload"]["oracle_value"] == pytest.approx(-3.0, rel=1e-6)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_on_an_empty_config(tmp_path, command):
    # the defaults keep off the degenerate wall gradient alpha1/delta = alpha2
    path = write_config(tmp_path, {})
    expected = 2 if command == "verify-theorem2" else 0  # the tracked erratum
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == expected


def test_report_writes_non_finite_values_as_null(tmp_path):
    # two r values leave no triplet to observe the order from
    path = write_config(tmp_path, {"r_grid": [0.01, 0.005]})
    assert main(["verify-theorem2", "--config", path, "--out", str(tmp_path / "o")]) == 2
    report = load_strict_json(tmp_path / "o" / "report.json")
    assert report["payload"]["limit_observed_order"] is None
    assert report["non_finite"] == ["payload.limit_observed_order"]


def test_classify_laminar_run(tmp_path):
    rc = main(["classify", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["payload"]["kind"] == "Parallel"


def test_trace_run(tmp_path):
    rc = main(["trace", "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "data.csv").read_text().splitlines()
    assert lines[0] == "index,x,y,cumlen"
    assert len(lines) > 100


def test_zeta_run(tmp_path):
    cfg = write_config(tmp_path, {"command": "zeta-check", "alpha1": 2.0})
    rc = main(["zeta-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["payload"]["bounds_hold"] is True
    assert report["payload"]["ratio_limit"] == pytest.approx(1.0, abs=1e-3)


def test_simulate_run(tmp_path):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "field.csv").exists()
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert all(entry["ratio"] < 0 for entry in report["payload"]["t0"])


@pytest.mark.parametrize("config, bound", [
    ({"t_end": 0.02}, "radial_viscous"),
    ({"t_end": 0.002, "dt": 3e-4}, "given"),
    ({"t_end": 0.2, "nu": 1e-3}, "advective"),
    ({"t_end": 1e-5}, "t_end"),
])
def test_simulate_reports_its_time_step(tmp_path, config, bound):
    cfg = write_config(tmp_path, {"n_s": 16, "n_r": 16, **config})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    payload = load_strict_json(tmp_path / "o" / "report.json")["payload"]
    assert payload["dt_bound"] == bound
    assert payload["dt"] * payload["steps"] == pytest.approx(config["t_end"], rel=1e-12)
    assert 0 < payload["cfl"] <= 0.5
    if "dt" in config:
        assert payload["steps"] == 7 and payload["dt"] <= config["dt"]
    times = {row.split(",")[0] for row in
             (tmp_path / "o" / "data.csv").read_text().splitlines()[1:]}
    assert len(times) == payload["steps"] + 1


def test_simulate_refuses_a_huge_grid_in_one_line(tmp_path, capsys):
    # the solver arrays of this grid would need about 1e6 GiB
    cfg = write_config(tmp_path, {"n_s": 8388608, "n_r": 16})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: grid 8388608x16 needs")


@pytest.mark.parametrize("config", [{"n_s": 16, "n_r": 16, "nu": 1e308}, {"nu": 1e300},
                                    {"dt": 1e-300}])
def test_simulate_refuses_a_run_of_too_many_steps_in_one_line(tmp_path, capsys, monkeypatch,
                                                              config):
    # t_end over the step limit is inf, about 1e301 and 2e298 steps: the run is
    # refused before its step count is taken or a step is made
    from lamsep import nssim

    def no_step(*args):
        raise AssertionError("a step was taken for a refused config")

    monkeypatch.setattr(nssim, "step", no_step)
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: t_end = 0.02 needs more than "
                                               "1000000 steps")


def test_sweep_monotone_and_nu_scaling(tmp_path):
    cfg = write_config(tmp_path, {"command": "sweep", "delta_values": [0.5, 1.0, 2.0],
                                  "nu_values": [1.0, 2.0]})
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    lines = (tmp_path / "o" / "data.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    # |limit| strictly decreasing in delta at fixed nu
    for nu in ("1", "2"):
        limits = [abs(float(r["limit"])) for r in rows if float(r["nu"]) == float(nu)]
        assert limits[0] > limits[1] > limits[2]
    # limit linear in nu at fixed delta
    by_delta = {}
    for r in rows:
        by_delta.setdefault(float(r["delta"]), []).append(float(r["limit"]))
    for d, vals in by_delta.items():
        assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-9)


def test_determinism_byte_identical(tmp_path):
    for name in ("a", "b"):
        rc = main(["verify-theorem2", "--out", str(tmp_path / name)])
        assert rc == 2
    assert (tmp_path / "a" / "data.csv").read_bytes() == (tmp_path / "b" / "data.csv").read_bytes()


def test_determinism_simulate(tmp_path):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002})
    for name in ("a", "b"):
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "a" / "data.csv").read_bytes() == (tmp_path / "b" / "data.csv").read_bytes()
    assert (tmp_path / "a" / "field.csv").read_bytes() == (tmp_path / "b" / "field.csv").read_bytes()


@pytest.mark.parametrize("bad", [
    {"dt": 0}, {"dt": -1e-4}, {"t_end": float("nan")}, {"n_s": "abc"}, {"n_r": 16.5},
    {"n_s": "16.5"}, {"sector_angle": float("nan")}, {"sector_angle": 1e300},
    {"probes": ["a"]}, {"probes": [0.1, None]}, {"probes": 0.1}, {"probes": []},
])
def test_simulate_rejects_invalid_numbers(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002, **bad})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")


@pytest.mark.parametrize("ok", [{"n_s": "16"}, {"n_r": 16.0}])
def test_simulate_accepts_integral_grid_sizes(tmp_path, ok):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002, **ok})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command, bad", [
    ("classify", {"s": "x"}), ("classify", {"C": float("inf")}), ("classify", {"step": -1.0}),
    ("classify", {"tol_par": -1.0}),
    ("classify", {"radii": [0.01, 0.02, 0.04]}), ("classify", {"radii": []}),
    ("classify", {"field": "fan", "source": [0.0, "a"]}),
    ("trace", {"step": "x"}), ("trace", {"length": float("nan")}), ("trace", {"start_r": -1.0}),
    ("zeta-check", {"amp": "x"}), ("zeta-check", {"r_list": [0.01, 0.02]}),
    ("sweep", {"alpha1_values": [-1]}), ("sweep", {"alpha1_values": ["x"]}),
    ("sweep", {"delta_values": [-1]}), ("sweep", {"nu_values": 2.0}),
    ("verify-theorem1", {"r_grid": "x"}), ("verify-theorem2", {"r_grid": [0.01, "a"]}),
    ("verify-theorem1", {"use_tracing": "x"}), ("classify", {"source": [0.0, "a"]}),
    ("classify", {"growth": "x"}),
])
def test_command_options_rejected_with_one_line(tmp_path, capsys, command, bad):
    cfg = write_config(tmp_path, {"command": command, "alpha1": 2.0, **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    assert list(bad)[-1].removesuffix("_values") in err[0]


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_reports_wall_clock_only_in_envelope(tmp_path):
    rc = main(["verify-theorem1", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "wall_clock_s" in report
    assert "schema_version" in report
    assert report["non_finite"] == []
    data = (tmp_path / "o" / "data.csv").read_text()
    assert "wall" not in data


def test_trace_pressure_and_level_kinds(tmp_path):
    for kind in ("pressure", "level"):
        cfg = write_config(tmp_path, {"command": "trace", "kind": kind,
                                      "alpha1": 2.0, "length": 0.05}, f"{kind}.json")
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / kind)])
        assert rc == 0


def test_zeta_perturbed_command(tmp_path):
    cfg = write_config(tmp_path, {"command": "zeta-check", "alpha1": 2.0,
                                  "pressure": "perturbed", "amp": 0.3})
    rc = main(["zeta-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["payload"]["fitted_c"] > 0


def _fresh_env(**env) -> dict:
    """This process's environment with this checkout's lamsep first on PYTHONPATH, and
    ``env`` applied on top: a None value removes the variable."""
    src = str(Path(lamsep.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    merged = {**os.environ, "PYTHONPATH": path, **env}
    return {key: value for key, value in merged.items() if value is not None}


def _fresh_python(code: str, **env) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's lamsep (see _fresh_env)."""
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**env),
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.strip()


def test_analysis_commands_import_no_solver_scipy_or_mpmath(tmp_path):
    # numpy is the solver's alone: no analysis command loads it, simulate does
    theorem1 = write_config(tmp_path, {"use_tracing": True}, "theorem1.json")
    simulate = write_config(tmp_path, {"n_s": 16, "n_r": 16, "t_end": 0.002}, "simulate.json")
    runs = [["verify-theorem1", "--config", theorem1]] + [
        [cmd] for cmd in ("verify-theorem2", "classify", "trace", "zeta-check", "sweep")]
    loaded = _fresh_python(
        "import sys\n"
        "heavy = lambda: sorted(m for m in sys.modules if m == 'lamsep.nssim'\n"
        "                       or m.split('.')[0] in ('numpy', 'scipy', 'mpmath'))\n"
        "import lamsep\n"
        "print(heavy())\n"
        "import lamsep.cli\n"
        "print(heavy())\n"
        + "".join(f"print(lamsep.cli.main({argv + ['--out', str(tmp_path / argv[0])]!r}), heavy())\n"
                  for argv in runs)
        + "print('SimConfig from', lamsep.SimConfig.__module__, 'numpy' in sys.modules)\n"
        + f"print(lamsep.cli.main(['simulate', '--config', {simulate!r}, "
          f"'--out', {str(tmp_path / 'simulate')!r}]))\n"
    )
    # drop the "lamsep <command>: wrote ..." lines of each run
    lines = [line for line in loaded.splitlines() if not line.startswith("lamsep")]
    # verify-theorem2 exits 2 on the tracked erratum
    assert lines == ["[]", "[]", "0 []", "2 []", "0 []", "0 []", "0 []", "0 []",
                     "SimConfig from lamsep.nssim True", "0"]


def test_lazy_solver_names_still_resolve():
    out = _fresh_python(
        "import lamsep\n"
        "print(lamsep.SimConfig.__module__)\n"
        "from lamsep import *\n"
        "print(SimConfig is lamsep.SimConfig, run_experiment is lamsep.nssim.run_experiment)\n"
        "print(all(hasattr(lamsep, name) for name in lamsep.__all__))\n"
    )
    assert out.splitlines() == ["lamsep.nssim", "True True", "True"]


def test_simulate_imports_no_scipy(tmp_path):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16, "t_end": 0.002})
    loaded = _fresh_python(
        "import sys\n"
        "import lamsep.cli\n"
        f"rc = lamsep.cli.main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert loaded.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("command, config", [
    ("trace", {"delta": 6.1e285}),  # the chord lengths overflow
    ("verify-theorem1", {"delta": 5.2e140, "alpha2": 8.8e200}),  # every lhs overflows
])
def test_results_beyond_the_float_range_end_in_one_line(tmp_path, capsys, command, config):
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["lamsep: error: a value leaves the float range at these parameters"]


# the modules lamsep.cli itself imports, and those each command adds
_CLI_MODULES = ["lamsep", "lamsep.cli", "lamsep.errors", "lamsep.fdops", "lamsep.field",
                "lamsep.geometry"]
_COMMAND_MODULES = {
    "verify-theorem1": "theorems", "verify-theorem2": "theorems", "sweep": "theorems",
    "classify": "tracing", "trace": "tracing", "zeta-check": "tracing", "simulate": "nssim",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    config = {"n_s": 16, "n_r": 16, "t_end": 0.002} if command == "simulate" else {}
    path, out = write_config(tmp_path, config), str(tmp_path / "o")
    loaded = json.loads(_fresh_python(
        "import json, sys\n"
        "import lamsep.cli\n"
        f"rc = lamsep.cli.main([{command!r}, '--config', {path!r}, '--out', {out!r}])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith('lamsep')),\n"
        "                  'dataclasses' in sys.modules]))\n"
    ).splitlines()[-1])
    rc, modules, dataclasses_loaded = loaded
    assert rc == (2 if command == "verify-theorem2" else 0)
    assert modules == sorted(_CLI_MODULES + [f"lamsep.{_COMMAND_MODULES[command]}"])
    if command != "simulate":  # numpy may load dataclasses itself
        assert not dataclasses_loaded


_SIMULATE_ONE_STEP = (
    "import os, sys\n"
    "import lamsep.cli\n"
    "rc = lamsep.cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "print(rc, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


@pytest.mark.parametrize("n, preset, expected", [
    (32, None, "1"),     # the theta transforms fall under OpenBLAS's threading cut-off
    (128, None, None),   # large grids keep their BLAS threads
    (32, "2", "2"),      # a value the user set is kept
])
def test_simulate_uses_one_blas_thread_for_small_grids(tmp_path, n, preset, expected):
    path = write_config(tmp_path, {"n_s": n, "n_r": n, "t_end": 1e-9})  # one step
    out = subprocess.run([sys.executable, "-c", _SIMULATE_ONE_STEP, path, str(tmp_path / "o")],
                         env=_fresh_env(OPENBLAS_NUM_THREADS=preset), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == f"0 {expected}"


def test_importing_the_solver_leaves_the_environment_alone():
    out = _fresh_python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import lamsep.nssim\n"
        "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)\n",
        OPENBLAS_NUM_THREADS=None)
    assert out == "True False"


@pytest.mark.parametrize("command, config", [
    ("verify-theorem1", {}), ("simulate", {"n_s": 16, "n_r": 16, "t_end": 0.002}),
])
def test_report_splits_the_process_time_by_stage(tmp_path, command, config):
    path, out = write_config(tmp_path, config), tmp_path / "o"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "lamsep.cli", command, "--config", path,
                    "--out", str(out)], env=_fresh_env(), capture_output=True, timeout=120,
                   check=True)
    wall = time.perf_counter() - t0
    report = load_strict_json(out / "report.json")
    assert report["schema_version"] == 2
    stages = report["stage_s"]
    assert sorted(stages) == ["compute", "import", "parse", "write"]
    assert all(value >= 0 for value in stages.values())
    assert sum(stages.values()) <= wall
