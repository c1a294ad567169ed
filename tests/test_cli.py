import ast
import csv
import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lamsep
from lamsep import cli
from lamsep.cli import COMMANDS, main, parse_config
from lamsep.errors import ValidationError

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
    assert cfg.arc.s_range == (0.0, 0.5)
    assert cfg.params.nu == 1.0


def test_parse_rejects_negative_alpha2(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha2": -1})
    with pytest.raises(ValidationError):
        parse_config(path)


def test_parse_rejects_an_unknown_command(tmp_path):
    with pytest.raises(ValidationError, match="command must be one of"):
        parse_config(write_config(tmp_path, {}), None, "bogus")


def test_parse_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, {"command": "verify-theorem2", "alpha3": 2.0})
    with pytest.raises(ValidationError, match="alpha3"):
        parse_config(path)


@pytest.mark.parametrize("bad", [
    {"alpha1": "x"}, {"alpha1": float("nan")}, {"alpha2": float("inf")}, {"nu": [1.0]},
    {"delta": None}, {"alpha1": True}, {"s_range": [1]}, {"s_range": [0.0, float("nan")]},
    {"s_range": [0.5, 0.0]},
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


def test_one_line_names_every_refused_key_and_no_out_directory_is_made(tmp_path, capsys):
    path = write_config(tmp_path, {"s": "x", "C": "y", "radii": []})
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: ")
    problems = err[0].removeprefix("lamsep: error: ").split("; ")
    assert sorted(problem.split(" must ")[0] for problem in problems) == ["C", "radii", "s"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config", [
    ("classify", {"s": "x"}),                               # an option
    ("simulate", {"n_r": 8}),                               # SimConfig's check
    # a valid config whose run leaves the float range (its dt used to be one)
    ("simulate", {"alpha1": 1e154, "alpha2": 1e153, "t_end": 1e-160}),
    # theorem 2's limit underflows to 0 (this sweep used to exit 0 with limit 0)
    ("sweep", {"alpha1": 1.8399755638364526, "alpha2": 1.643420123686913e200,
               "nu": 8.994958406858893e29}),
    ("verify-theorem2", [1, 2]),                            # the config's top level
])
def test_a_refused_run_makes_no_out_directory(tmp_path, capsys, command, config):
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["afile", "afile/o"])
def test_an_out_that_cannot_be_made_is_refused_before_any_handler_runs(
        tmp_path, capsys, monkeypatch, out):
    (tmp_path / "afile").write_text("")
    ran = []
    module, _, options = cli._COMMANDS["simulate"]
    monkeypatch.setitem(cli._COMMANDS, "simulate", (module, lambda *a: ran.append(a), options))
    path = write_config(tmp_path, {})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: out must be a writable directory")
    assert ran == []


def test_a_library_refusal_reaches_the_caller_of_run_as_raised(tmp_path):
    # classify_flow, not the config reader, refuses increasing radii: run passes its
    # error on, not a copy of it, and main alone turns it into the lamsep: error: line
    path = write_config(tmp_path, {"radii": [0.01, 0.02, 0.04]})
    with pytest.raises(ValidationError) as err:
        cli.run(parse_config(path, {"out": str(tmp_path / "o")}, command="classify"))
    assert err.value.__cause__ is None and err.value.__context__ is None
    assert Path(err.traceback[-1].path).name == "tracing.py"


def test_report_config_echoes_each_value_as_read(tmp_path):
    path = write_config(tmp_path, {"alpha1": "2.5", "r_grid": ["0.02", 0.01, "5e-3"],
                                   "use_tracing": None})
    assert main(["verify-theorem1", "--config", path, "--out", str(tmp_path / "o")]) == 0
    config = load_strict_json(tmp_path / "o" / "report.json")["config"]
    assert config["alpha1"] == 2.5 and config["r_grid"] == [0.02, 0.01, 0.005]
    assert "use_tracing" not in config  # null: the default applies


def test_readme_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | key | accepted values | default |")[1].split("\n\n")[0]
    listed = set()
    for row in table.splitlines()[2:]:
        commands, keys = row.split("|")[1:3]
        listed |= {(command.strip(), key) for command in commands.split(",")
                   for key in re.findall(r"`([^`]+)`", keys)}
    in_code = {("all", key) for key in cli._SHARED} | {
        (command, key) for command, (_, _, options) in cli._COMMANDS.items() for key in options}
    assert listed == in_code


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="line"):
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


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-a-file", "empty"])
def test_file_system_errors_end_in_one_line(tmp_path, capsys, case):
    config, out = tmp_path / "cfg.json", tmp_path / "o"
    if case == "empty":  # not Path(""), the working directory
        config = ""
    elif case == "directory":
        config.mkdir()
    elif case == "not-utf8":
        config.write_bytes(b'{"alpha1": "\xff"}')
    elif case == "out-is-a-file":
        config.write_text("{}")
        out.write_text("")
    assert main(["verify-theorem2", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    if case == "empty":
        assert err == ["lamsep: error: config must be a non-empty path, got ''"]
        assert not out.exists()


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


def _classify(tmp_path, config) -> dict:
    path, out = write_config(tmp_path, config), tmp_path / "o"
    assert main(["classify", "--config", path, "--out", str(out)]) == 0
    return load_strict_json(out / "report.json")["payload"]


@pytest.mark.parametrize("field, kind, option", [
    ("fan", "StrongDiverging", {"source": [-3.0, 0.0]}),
    ("weak", "WeakDiverging", {"growth": 3.0}),
])
def test_classify_fan_and_weak_fields(tmp_path, field, kind, option):
    default = _classify(tmp_path, {"field": field})
    given = _classify(tmp_path, {"field": field, **option})
    assert default["kind"] == given["kind"] == kind
    # the option is read: it moves every ratio
    assert all(a["ratio"] != b["ratio"] for a, b in zip(default["evidence"], given["evidence"]))


def test_classify_a_field_that_bends_toward_the_wall_is_unclassified(tmp_path):
    # growth < 0: every ratio is below 1, and none is within tol_par of it
    payload = _classify(tmp_path, {"field": "weak", "growth": -3})
    assert payload["kind"] == "Unclassified"
    assert [round(e["ratio"], 3) for e in payload["evidence"]] == [0.917, 0.957, 0.978]


def test_classify_a_streamline_that_dips_below_the_wall_left_the_chart(tmp_path, capsys):
    # a fan source just above the wall: the streamline from (s, r) heads into the wall
    # circle, which the tracer reports as leaving the chart, as it does one leaving sideways
    path = write_config(tmp_path, {"field": "fan", "source": [0, 1.3]})
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "lamsep: error: streamline left the chart before reaching s1=0.25"]
    assert not (tmp_path / "o").exists()


def test_classify_a_field_that_is_not_finite_is_one_line(tmp_path, capsys):
    # growth * r * r overflows: this ended in "cannot convert float NaN to
    # integer" from the chart of a NaN march point
    path = write_config(tmp_path, {"field": "weak", "growth": 1e308})
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: field is not finite at ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["s", "s1"])
def test_classify_names_a_station_off_the_wall_segment(tmp_path, capsys, key):
    # the launch station used to end in "streamline left the chart before reaching
    # s1=0.25", and the target station in a trace until the streamline left the chart
    path = write_config(tmp_path, {key: 5})
    assert main(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"lamsep: error: {key} = 5 leaves the padded wall segment [-0.05, 0.55]"]


def test_the_weak_field_default_scales_with_the_length_unit(tmp_path):
    # dr/ds = growth*r**2 makes growth a 1/length**2: its default 1/delta**2 gives the
    # same ratios when the length unit doubles or halves (delta, s_range, alpha2, nu to
    # 2*delta, 2*s_range, alpha2/2, 4*nu); the number 1 moved them by up to 0.105
    ratios = [[e["ratio"] for e in _classify(tmp_path, {"field": "weak", **twin})["evidence"]]
              for twin in ({}, {"delta": 2, "alpha2": 0.5, "nu": 4},
                           {"delta": 0.5, "alpha2": 2, "nu": 0.25})]
    assert ratios[0] == ratios[1] == ratios[2]


def test_zeta_fits_scale_with_the_length_unit(tmp_path):
    # c and c1 have the unit 1/length and every lower bound that of a length: the
    # length-doubled twin halves and doubles them exactly, floors included (the
    # number 1e-12 as their floor gave fitted_c 3.26e-12, then 2.13e-12); upper does not
    # scale exactly, since its factor 1/(1 - c*r**2) adds a length to 1
    for pressure in ("angular", "perturbed"):
        runs = []
        for twin in ({}, {"delta": 2, "alpha2": 0.5, "nu": 4, "s_range": [0, 1]}):
            out = tmp_path / f"{pressure}{len(runs)}"
            path = write_config(tmp_path, {"pressure": pressure, **twin})
            assert main(["zeta-check", "--config", path, "--out", str(out)]) == 0
            payload = load_strict_json(out / "report.json")["payload"]
            with open(out / "data.csv", newline="") as fh:
                lower = [float(row["lower"]) for row in csv.DictReader(fh)]
            runs.append((payload["fitted_c"], payload["fitted_c1"], lower))
        (c, c1, lower), (c_twin, c1_twin, lower_twin) = runs
        assert (c_twin, c1_twin) == (c / 2, c1 / 2)
        assert lower_twin == [2 * v for v in lower]


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


def test_one_or_two_theta_cells_write_the_wide_sector_data(tmp_path):
    # an unseeded run is theta-uniform, so with the step given (the default
    # step depends on n_s) its data.csv does not depend on n_s
    data = {}
    for n_s in (1, 2, 32):
        cfg = write_config(tmp_path, {"delta": 0.5, "n_s": n_s, "n_r": 32, "dt": 1e-3,
                                      "t_end": 0.5})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / str(n_s))]) == 0
        data[n_s] = (tmp_path / str(n_s) / "data.csv").read_bytes()
    assert data[1] == data[2] == data[32]


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


@pytest.mark.parametrize("config", [{"sector_angle": 1}, {"r_out": 5}])
def test_simulate_has_no_sector_angle_or_r_out_key(tmp_path, capsys, config):
    # the sector is the wall segment s_range and the layer 2*bl above it
    cfg = write_config(tmp_path, config)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"lamsep: error: unknown config key(s) for simulate: {next(iter(config))}"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("config", [{"center": [0, 0]}, {"phase": 0}], ids=["center", "phase"])
def test_the_wall_has_no_center_or_phase_key(tmp_path, capsys, command, config):
    # the wall is the circle of radius delta about the origin: both theorems are
    # stated in the wall's own coordinates, so a rigid motion of it changes nothing
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"lamsep: error: unknown config key(s) for {command}: {next(iter(config))}"]
    assert not (tmp_path / "o").exists()


def test_simulate_sector_spans_the_wall_segment(tmp_path):
    # at delta = 1 the 16 cell centres along s cover all of s_range = [0, 2], and
    # those along r the layer 0 < r < 2*bl = 4
    cfg = write_config(tmp_path, {"s_range": [0, 2], "n_s": 16, "n_r": 16, "t_end": 0.002})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "field.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    s = sorted({float(row["s"]) for row in rows})
    r = sorted({float(row["r"]) for row in rows})
    assert (len(s), s[0], s[-1]) == (16, 0.0625, 1.9375)
    assert (len(r), r[0], r[-1]) == (16, 0.125, 3.875)


@pytest.mark.parametrize("config, message", [
    # nu*dt/(rho*dtheta)**2 and the t = 0 viscous term overflow: this run used to
    # exit 0 with NaN in data.csv and field.csv, after numpy's warnings, and then
    # to end in the float-range line; its dt is refused before any step
    ({"nu": 1e308, "dt": 1e-3, "t_end": 3e-3},
     "lamsep: error: dt = 0.001 exceeds half the radial_viscous step limit 3.91e-311"),
    # a given step far over the radial-viscous limit: this run used to diverge at t = 0.004
    ({"nu": 50, "dt": 2e-3, "t_end": 0.02},
     "lamsep: error: dt = 0.002 exceeds half the radial_viscous step limit 7.81e-05"),
    # a valid config whose t = 0 speeds, up to 5e154, overflow when squared
    ({"alpha1": 1e154, "alpha2": 1e153, "t_end": 1e-160},
     "lamsep: error: a value leaves the float range at these parameters "
     "(overflow encountered in square)"),
], ids=["nu-1e308", "nu-50", "alpha1-1e154"])
def test_simulate_that_blows_up_ends_in_one_line(tmp_path, config, message):
    cfg = write_config(tmp_path, config)
    proc = subprocess.run([sys.executable, "-m", "lamsep.cli", "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o")],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0] == message, proc.stderr


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


def test_sweep_rows_follow_the_curvature_law(tmp_path, monkeypatch):
    # in units of nu/bl**2, with x = bl/delta, the derived limit is -(2x + x**2)
    # and the printed one -(x + x**2): a law of x alone, over the benchmark's
    # 48-row sweep of seed 1.  Measured: 2.2e-16, 4.4e-16 and 1.3e-8 (the fit)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    config, = [inv.config for inv in workloads.generate("cli-analysis", 1)
               if inv.command == "sweep"]
    assert main(["sweep", "--config", write_config(tmp_path, config),
                 "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "data.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48
    for row in rows:
        delta, alpha1, alpha2, nu = (float(row[key]) for key in ("delta", "alpha1", "alpha2", "nu"))
        bl = alpha1 / alpha2
        x, unit = bl / delta, bl**2 / nu
        assert -float(row["oracle"]) * unit == pytest.approx(2 * x + x * x, rel=1e-12)
        assert -float(row["paper"]) * unit == pytest.approx(x + x * x, rel=1e-12)
        assert -float(row["limit"]) * unit == pytest.approx(2 * x + x * x, rel=1e-4)


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
    {"n_s": "16.5"}, {"s_range": [0.0, 7.0]}, {"alpha1": 1e300},
    {"probes": ["a"]}, {"probes": [0.1, None]}, {"probes": 0.1}, {"probes": []},
])
def test_simulate_rejects_invalid_numbers(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002, **bad})
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")


@pytest.mark.parametrize("ok", [{"n_s": "16"}, {"n_r": 16.0}, {"n_s": "16.0"}, {"n_r": "1.6e1"}])
def test_simulate_accepts_integral_grid_sizes(tmp_path, ok):
    cfg = write_config(tmp_path, {"command": "simulate", "n_s": 16, "n_r": 16,
                                  "t_end": 0.002, **ok})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("text, flags, says", [
    ('{"n_s": "16.5"}', None, "n_s must be an integer, got '16.5'"),
    ('{"n_s": "1e400"}', None, "n_s must be finite, got '1e400'"),
    ('{"n_s": 1e400}', None, "n_s must be finite, got inf"),   # json reads 1e400 as inf
    ('{"n_r": 1%s}' % ("0" * 400), None, "n_r must be finite"),  # an int past the float range
    ('{"alpha1": 1%s}' % ("0" * 400), None, "alpha1 must be finite"),
    ('{"alpha1": "infinity"}', None, "alpha1 must be finite, got 'infinity'"),
    # Python's float reads these as 10 and 2.5; a config's number is not Python source
    ('{"n_s": "1_0"}', None, "n_s must be a number, got '1_0'"),
    ('{"alpha1": " 2.5 "}', None, "alpha1 must be a number, got ' 2.5 '"),
    ("{}", {"alpha1": "1_0"}, "alpha1 must be a number, got '1_0'"),  # --alpha1 1_0
], ids=["16.5", "1e400-string", "1e400", "10**400-int", "10**400-float", "infinity",
        "underscore", "whitespace", "underscore-flag"])
def test_a_number_is_refused_for_what_is_wrong_with_it(tmp_path, text, flags, says):
    # the first five used to read "must be a number"
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(says)):
        parse_config(path, flags, "simulate")


@pytest.mark.parametrize("text, value", [("16.0", 16.0), ("1.6e1", 16.0), (".5", 0.5),
                                         ("+1", 1.0)])
def test_a_numeric_string_is_read_as_its_number(tmp_path, text, value):
    assert parse_config(write_config(tmp_path, {"alpha1": text}), None,
                        "trace").params.alpha1 == value


def test_an_integer_option_keeps_an_int_exact(tmp_path):
    path = write_config(tmp_path, {"n_s": 2**60 + 1})  # not a float: 2**60 + 1 would round
    assert parse_config(path, None, "simulate").options["n_s"] == 2**60 + 1


# a step or trace length that is not positive, a step not below its trace length,
# or one that makes more than 10**6 steps of it: each line starts with the key
# (the second to fifth used to end in TraceConfig's "need step > 0 and
# max_length > step", which names no key, and the last two in its "max_length =
# ... needs more than 1000000 steps")
_STEP_OR_LENGTH = [
    ("classify", {"step": -1.0}), ("classify", {"step": 0}), ("classify", {"step": 20}),
    ("trace", {"length": 1e-5}), ("trace", {"step": 2}),
    # more than 10**6 tracer steps: each used to end in an OverflowError traceback
    ("trace", {"length": 1e30, "step": 1e-6}), ("classify", {"step": 1e-300}),
]


@pytest.mark.parametrize("command, bad", [
    ("classify", {"s": "x"}), ("classify", {"C": float("inf")}), _STEP_OR_LENGTH[0],
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
    *_STEP_OR_LENGTH[5:],
    # more than 2*pi of wall, and a profile speed across the layer 2*bl beyond the
    # float range: each message names the keys the user wrote
    ("simulate", {"s_range": [0.0, 1e300]}), ("simulate", {"alpha1": 1e300}),
    ("simulate", {"alpha2": 1e-308}),
    # a layer 2*bl = 2e-300 thin, whose step limit underflows to 0, and one whose
    # cell height is below the float spacing at delta, so that every cell centre
    # rounds onto the wall: they used to end in "steps of at most 0" and in
    # "divide by zero"
    ("simulate", {"alpha1": 1e-300}),
    ("simulate", {"alpha1": 9.7e-240, "alpha2": 1.9e-268, "delta": 2.0e233}),
    # a zeta step derived from these keys, and a theorem-2 grid that Richardson
    # cannot fit: each used to end in a message that named no key
    ("zeta-check", {"eps_over_r": 0}), ("zeta-check", {"r_list": [-0.01]}),
    ("verify-theorem2", {"r_grid": [0.1]}), ("verify-theorem2", {"r_grid": [0.01, 0.02]}),
    *_STEP_OR_LENGTH[1:5],
    # a grid that fits -1.946 against the derived -2 and the printed -1.5: it
    # exited 2 with the erratum line, as if it had adjudicated the erratum
    ("verify-theorem2", {"r_grid": [0.4, 0.2, 0.1]}),
])
def test_command_options_rejected_with_one_line(tmp_path, capsys, command, bad):
    cfg = write_config(tmp_path, {"command": command, "alpha1": 2.0, **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    assert list(bad)[-1].removesuffix("_values") in err[0]
    if (command, bad) in _STEP_OR_LENGTH:
        assert err[0].startswith(("lamsep: error: step", "lamsep: error: length"))
        if command == "classify" and bad["step"] > 0:  # its trace length is no key
            assert err[0].endswith("(10*delta)")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, bad, key", [
    ("zeta-check", {"s": 1e300}, "s"),
    ("zeta-check", {"eps_over_r": 1e-300}, "eps_over_r"),
    ("zeta-check", {"eps_over_r": 1e300}, "eps_over_r"),
    ("verify-theorem1", {"use_tracing": True, "s_range": [1e300, 2e300]}, "s_range"),
    ("verify-theorem1", {"use_tracing": True, "s_range": [0, 1e-3]}, "s_range"),
    ("zeta-check", {"eps_over_r": 1e-12}, "eps_over_r"),
])
def test_a_degenerate_offset_arc_is_named_by_its_key(tmp_path, capsys, command, bad, key):
    # s + eps rounds onto s, or leaves the padded wall segment: these used to end
    # in TraceConfig's keyless "need step > 0 and max_length > step", and the
    # offset past the float range in "cannot convert float NaN to integer"
    cfg = write_config(tmp_path, {"command": command, **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    assert re.search(rf"\b{key}\b", err[0]), err[0]
    assert not (tmp_path / "o").exists()


def test_an_offset_station_is_refused_as_any_station_is(tmp_path, capsys):
    # s = 0.1 is on the segment, s + eps = 0.1 + 2*0.5 is not: the message is
    # poincare_L's for its stations, under the key that set eps
    cfg = write_config(tmp_path, {"r_list": [0.5, 0.4]})
    assert main(["zeta-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "lamsep: error: eps_over_r = 2: s + eps = 1.1 leaves the padded wall segment "
        "[-0.05, 0.55]"]


@pytest.mark.parametrize("command, s_range", [
    ("zeta-check", [0, 12]), ("classify", [0, 6]),
    ("verify-theorem1", [0, 12]),
])
def test_a_segment_the_chart_would_wrap_is_refused(tmp_path, capsys, command, s_range):
    # widened by a tenth at each end, the segment is as long as the wall circle
    # 2*pi*delta or longer, so wall_station put a traced point on another turn:
    # zeta-check [0, 12] used to exit 0 with bounds_hold false and fitted_c 1.57e4
    cfg = write_config(tmp_path, {"s_range": s_range, "use_tracing": True}
                       if command == "verify-theorem1" else {"s_range": s_range})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:")
    assert len(re.findall(r"\bs_range\b", err[0])) == 1, err[0]
    assert "delta = 1" in err[0]
    assert not (tmp_path / "o").exists()


def test_simulate_takes_a_full_circle_sector(tmp_path):
    # the sector reads no chart: its whole wall circle is a valid segment
    cfg = write_config(tmp_path, {"s_range": [0, 2 * math.pi], "n_s": 8, "n_r": 16,
                                  "t_end": 0.002})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_a_station_past_the_float_range_is_named(tmp_path, capsys):
    # start_s/delta overflows to inf: this used to end in "math domain error"
    cfg = write_config(tmp_path, {"delta": 9.1e-31, "kind": "pressure", "start_s": 8.9e299})
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: wall station s = 8.9e+299")
    assert "float range" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, named", [
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["trace", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["trace", "--delta"], "argument --delta: expected one argument"),
    (["verify-theorem1", "--alpha1", "abc"], "alpha1 must be a number, got 'abc'"),
], ids=["unknown-command", "no-command", "unknown-flag", "flag-without-value", "flag-not-a-number"])
def test_a_malformed_command_line_is_refused_with_one_line(tmp_path, capsys, argv, named):
    # each used to print argparse's usage block and an error line, and exit 2
    assert main(["--out", str(tmp_path / "o"), *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"lamsep: error: {named}"), err
    assert not (tmp_path / "o").exists()


def test_a_flag_is_read_as_its_key_in_a_config_is(tmp_path):
    assert main(["trace", "--alpha1", "2.5", "--delta", "0.5", "--out", str(tmp_path / "f")]) == 0
    cfg = write_config(tmp_path, {"alpha1": "2.5", "delta": "0.5"})
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    reports = []
    for out in ("f", "c"):
        report = load_strict_json(tmp_path / out / "report.json")
        del report["stage_s"], report["wall_clock_s"], report["config"]["out"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert (tmp_path / "f" / "data.csv").read_bytes() == (tmp_path / "c" / "data.csv").read_bytes()


def test_help_lists_the_commands_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in COMMANDS)


def test_run_reports_wall_clock_only_in_envelope(tmp_path):
    rc = main(["verify-theorem1", "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "wall_clock_s" in report
    assert "schema_version" in report
    assert report["non_finite"] == []
    data = (tmp_path / "o" / "data.csv").read_text()
    assert "wall" not in data


_ENVELOPE_KEYS = {"schema_version", "command", "config", "payload", "erratum_notes",
                  "wall_clock_s", "stage_s", "library_version", "non_finite"}
_SHARED_CONFIG_KEYS = {"command", "alpha1", "alpha2", "nu", "delta", "s_range", "out"}
# each command on a small config: the options it sets, its payload keys, and the
# keys of each entry of its list-valued payload keys
_REPORT_KEYS = {
    "verify-theorem1": ({"use_tracing": True},
                        {"r_grid", "lhs", "rhs", "mismatch", "min_mismatch",
                         "geometric_crosscheck"},
                        {"geometric_crosscheck": {"r", "traced_gradp", "ansatz_gradp",
                                                  "discrepancy_factor"}}),
    "verify-theorem2": ({},
                        {"r_grid", "ratio", "limit_extrapolated", "limit_error_estimate",
                         "limit_observed_order", "limit_levels_used", "paper_value",
                         "oracle_value", "derived_value", "agrees_with"}, {}),
    "classify": ({}, {"kind", "C_threshold", "evidence"}, {"evidence": {"r", "ratio"}}),
    "trace": ({}, {"kind", "points", "length"}, {}),
    "zeta-check": ({}, {"fitted_c", "fitted_c1", "fitted_c2", "fitted_epsilon_hat",
                        "bounds_hold", "ratio_limit", "wall_gradient_rel_dev"}, {}),
    "simulate": ({"n_s": 16, "n_r": 16, "t_end": 0.002},
                 {"probe_r", "t0", "first_reversal", "dt", "steps", "cfl", "dt_bound"},
                 {"t0": {"r", "u_t", "visc_t", "gradp_t", "wall_anchor_gradp_t", "ratio"}}),
    "sweep": ({}, {"rows", "levels_used"}, {}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_json_keys_are_the_contract(tmp_path, command):
    options, payload_keys, entry_keys = _REPORT_KEYS[command]
    expected = 2 if command == "verify-theorem2" else 0  # the tracked erratum
    assert main([command, "--config", write_config(tmp_path, options),
                 "--out", str(tmp_path / "o")]) == expected
    report = load_strict_json(tmp_path / "o" / "report.json")
    assert set(report) == _ENVELOPE_KEYS
    assert set(report["config"]) == _SHARED_CONFIG_KEYS | set(options)
    assert set(report["payload"]) == payload_keys
    for key, keys in entry_keys.items():
        entries = report["payload"][key]
        assert entries and all(isinstance(entry, dict) and set(entry) == keys
                               for entry in entries)


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
    ("trace", {"delta": 6.1e285}),  # |x|**2 overflows at the start
    ("verify-theorem1", {"delta": 5.2e140, "alpha2": 8.8e200}),  # every lhs overflows
])
def test_results_beyond_the_float_range_end_in_one_line(tmp_path, capsys, command, config):
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    # the wall field refuses a point whose distance from the center overflows,
    # at its first evaluation, before a NaN trace could reach the length check
    expected = ("delta = 6.1e+285: the distance of (0, 6.71e+285) from the wall's center "
                "leaves the float range" if command == "trace"
                else "a value leaves the float range at these parameters")
    assert err == [f"lamsep: error: {expected}"]


@pytest.mark.parametrize("command, config", [
    ("classify", {}), ("trace", {}), ("zeta-check", {}), ("verify-theorem1", {"use_tracing": True}),
])
def test_a_wall_past_the_float_range_is_named_by_delta(tmp_path, capsys, command, config):
    # a wall point's distance from the center overflows: these ended in
    # "field is not finite at (...): (nan, nan)" or in a refusal of the offset eps;
    # verify-theorem1 also put "s_range [0.0, 5e+159]: " first, which the
    # segment does not cause
    path = write_config(tmp_path, {"delta": 1e160, **config})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "delta = 1e+160" in err[0] and "float range" in err[0], err
    assert "s_range" not in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config", [
    ("verify-theorem1", {"use_tracing": True}), ("trace", {"kind": "pressure"}),
])
def test_pressure_lines_trace_at_a_large_wall_radius(tmp_path, command, config):
    # the pressure-gradient traces stop below 1e-10 of nu*(alpha1/delta + alpha2),
    # a gradient; with the velocity tolerance 1e-10*alpha1*delta both runs refused
    # a gradient of size 1 at delta = 1e10 as vanishing
    path = write_config(tmp_path, {"delta": 1e10, **config})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    if command == "verify-theorem1":  # measured 0.99999999995 against 0.99999999996
        payload = load_strict_json(tmp_path / "o" / "report.json")["payload"]
        factor = payload["geometric_crosscheck"][0]["discrepancy_factor"]
        assert factor == pytest.approx(payload["lhs"][0] / payload["rhs"][0], abs=1e-6)


@pytest.mark.parametrize("command, config, names", [
    ("classify", {"field": "fan", "radii": [1.8250218295016003, 5e-324]}, "float range"),
    ("verify-theorem2", {"nu": 1e-318}, "float range"),  # subnormal ratios
    ("verify-theorem2", {"nu": 1e-320}, "float range"),
    ("sweep", {"nu_values": [1e-320]}, "float range"),
    ("zeta-check", {"nu": 1e-320}, "wall gradient"),  # k is subnormal
    ("verify-theorem1", {"use_tracing": True, "nu": 1e-12}, "nu"),  # the eta ratio is ~3*nu
    ("verify-theorem1", {"use_tracing": True, "nu": 1e-14}, "nu"),
    # the tracer's noise on the eta ratio grows as delta/r: an estimate 0.67 of the
    # ratio, and at 1e14 a fit that does not converge
    ("verify-theorem1", {"use_tracing": True, "delta": 1e13}, "delta"),
    ("verify-theorem1", {"use_tracing": True, "delta": 1e14}, "delta"),
])
def test_results_too_small_to_resolve_end_in_one_line(tmp_path, capsys, command, config, names):
    # these exited 0 with L/r = inf, exited 2 on a subnormal limit, named an
    # internal tolerance, or read a wrong discrepancy factor (nu = 1e-12)
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error:"), err
    assert re.search(rf"\b{names}\b", err[0]), err[0]
    if command == "verify-theorem1":  # nu sets the ratio and delta its noise: both are named
        assert re.search(r"\bnu = .*\bdelta = .*eta ratio .*not resolved", err[0]), err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", ["pressure", "level"])
def test_pressure_and_level_curves_trace_at_a_subnormal_nu(tmp_path, kind):
    # at nu = 1e-320 the ansatz gradient is its nu-free normal part h/(r + delta):
    # its pressure line is the radial ray from the start and its level curve the
    # circle through it.  The trace used to be refused, as 1e-10*nu*(alpha1/delta
    # + alpha2), its stop threshold then, underflowed to 0
    path = write_config(tmp_path, {"kind": kind, "nu": 1e-320})
    assert main(["trace", "--config", path, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "data.csv", newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 1001 and rows[0][1:3] == [0.0, 1.1]
    if kind == "pressure":  # measured 0.99999999999989
        assert all(abs(x) < 1e-300 for _, x, _, _ in rows)
        assert rows[-1][2] == pytest.approx(2.1, rel=1e-12)
        assert rows[-1][3] == pytest.approx(1.0, rel=1e-12)
    else:  # measured 0.99999996556: the chords of the circle
        assert max(abs(math.hypot(x, y) - 1.1) for _, x, y, _ in rows) <= 1e-12
        assert rows[-1][3] == pytest.approx(1.0, rel=1e-7)


# the modules lamsep.cli itself imports, and those each command adds
_CLI_MODULES = ["lamsep", "lamsep.cli", "lamsep.errors", "lamsep.field", "lamsep.geometry"]
# simulate compiles no fdops: only theorems and tracing use it
_COMMAND_MODULES = {
    "verify-theorem1": ["theorems", "fdops"], "verify-theorem2": ["theorems", "fdops"],
    "sweep": ["theorems", "fdops"], "classify": ["tracing", "fdops"],
    "trace": ["tracing", "fdops"], "zeta-check": ["tracing", "fdops"], "simulate": ["nssim"],
}


@pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2", "sweep", "classify",
                                     "zeta-check"])
def test_an_underflowing_near_wall_scale_is_refused_naming_its_keys(tmp_path, capsys, command):
    # bl = alpha1/alpha2 underflows to 0, so every default radius is 0: each line
    # used to blame a radius list the user never set, or read "bl = 0.0"
    path = write_config(tmp_path, {"alpha1": 1e-300, "alpha2": 1e300})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("lamsep: error: alpha1 = 1e-300, alpha2 = 1e+300")
    assert not re.search(r"\b(r_grid|radii|r_list)\b", err[0]), err[0]


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
    assert modules == sorted(_CLI_MODULES + [f"lamsep.{m}" for m in _COMMAND_MODULES[command]])
    if command != "simulate":  # numpy may load dataclasses itself
        assert not dataclasses_loaded


# the native threads of this process, OpenBLAS's pool among them
_THREADS = "int(re.search(r'Threads:\\s*(\\d+)', open('/proc/self/status').read())[1])"
_needs_proc_status = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                        reason="no /proc/self/status to count threads")
_SIMULATE_ONE_STEP = (
    "import re, sys\n"
    "import lamsep.cli\n"
    "rc = lamsep.cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    f"print(rc, {_THREADS})\n"
)
_NO_THREAD_CHOICE = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@_needs_proc_status
@pytest.mark.parametrize("n, preset, expected", [
    (32, None, 1),
    (128, None, 1),                       # one rule for every grid size
    (32, "OPENBLAS_NUM_THREADS", 2),      # a count the user chose is kept
    (32, "OMP_NUM_THREADS", 2),
])
def test_simulate_uses_one_blas_thread_unless_a_count_is_chosen(tmp_path, n, preset,
                                                                expected):
    if expected > len(os.sched_getaffinity(0)):  # OpenBLAS starts no more threads than CPUs
        pytest.skip(f"fewer than {expected} CPUs")
    path = write_config(tmp_path, {"n_s": n, "n_r": n, "t_end": 1e-9})  # one step
    chosen = dict(_NO_THREAD_CHOICE)
    if preset:
        chosen[preset] = str(expected)
    env = _fresh_env(**chosen)
    out = subprocess.run([sys.executable, "-c", _SIMULATE_ONE_STEP, path, str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == f"0 {expected}"


@_needs_proc_status
def test_importing_the_solver_uses_one_blas_thread():
    assert _fresh_python(f"import re\nimport lamsep.nssim\nprint({_THREADS})",
                         **_NO_THREAD_CHOICE) == "1"


@_needs_proc_status
def test_importing_the_solver_after_numpy_keeps_numpy_threads():
    out = _fresh_python(
        "import re\n"
        "import numpy\n"
        f"before = {_THREADS}\n"
        "import lamsep.nssim\n"
        f"print(before, {_THREADS})\n", **_NO_THREAD_CHOICE)
    before, after = out.split()
    if before == "1":
        pytest.skip("numpy's BLAS started no thread pool here")
    assert after == before


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
    assert report["schema_version"] == 3
    stages = report["stage_s"]
    assert sorted(stages) == ["compute", "import", "parse", "write"]
    assert all(value >= 0 for value in stages.values())
    assert sum(stages.values()) <= wall


@pytest.mark.parametrize("argv, code", [(["classify"], 0), (["no-such-command"], 1),
                                         (["verify-theorem2"], 2)])
def test_entry_exits_with_mains_code_after_freezing_once(tmp_path, monkeypatch, capsys, argv,
                                                        code):
    # gc.freeze is a stub here: this test must leave pytest's heap collectable
    events, real_main = [], cli.main

    def recorded_main():
        rc = real_main()
        events.append("main returned")
        return rc

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["lamsep", *argv, "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == code
    assert events == ["main returned", "freeze"]


def test_main_in_process_changes_no_gc_state(tmp_path, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["verify-theorem2", "--out", str(tmp_path / "o")]) == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_a_lamsep_process_writes_prints_and_exits_as_main_in_process(tmp_path, capsys):
    assert main(["verify-theorem2", "--out", str(tmp_path / "in")]) == 2
    in_process = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "lamsep.cli", "verify-theorem2", "--out",
                           str(tmp_path / "p")],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    written = [(tmp_path / out / "data.csv").read_bytes() for out in ("in", "p")]
    assert written[0] and written[0] == written[1]
    # the wrote line on stdout and the erratum line on stderr, flushed at exit
    assert proc.stdout.startswith("lamsep verify-theorem2: wrote ")
    assert proc.stdout == in_process.out.replace(str(tmp_path / "in"), str(tmp_path / "p"))
    assert "(tracked erratum); exit 2" in proc.stderr and proc.stderr == in_process.err


# a finder asked first for every import: it sleeps before the modules a command
# loads on first use are found, then leaves the finding to the next finder
_SLOW_FINDER = (
    "import json, sys, time\n"
    "asked = []\n"
    "class SlowFinder:\n"
    "    def find_spec(self, name, path, target=None):\n"
    "        if name in ('lamsep.tracing', 'fractions'):\n"
    "            asked.append(name)\n"
    "            time.sleep(0.3)\n"
    "sys.meta_path.insert(0, SlowFinder())\n"
)


def test_an_import_on_first_use_counts_in_the_import_stage(tmp_path):
    # the tracer that verify-theorem1 loads for use_tracing, and the oracle's fractions
    theorem1 = write_config(tmp_path, {"use_tracing": True}, "theorem1.json")
    runs = [("verify-theorem1", ["--config", theorem1]), ("verify-theorem2", [])]
    lines = _fresh_python(
        _SLOW_FINDER + "import lamsep.cli\n"
        + "".join(f"rc = lamsep.cli.main([{command!r}, *{args!r}, '--out', "
                  f"{str(tmp_path / command)!r}])\n"
                  f"stages = json.load(open({str(tmp_path / command / 'report.json')!r}))"
                  f"['stage_s']\n"
                  "print(json.dumps([rc, asked, stages]))\n"
                  for command, args in runs)
    ).splitlines()
    results = [json.loads(line) for line in lines if not line.startswith("lamsep")]
    assert len(results) == 2
    for (rc, asked, stages), expected_rc, expected_asked in zip(
            results, (0, 2), (["lamsep.tracing"], ["lamsep.tracing", "fractions"])):
        assert rc == expected_rc and asked == expected_asked
        assert stages["import"] >= 0.3 and stages["compute"] < 0.3, stages


def test_the_package_imports_inside_no_function():
    # every import after a module's own goes through lamsep._load, which times it
    # for the import stage of each report
    for path in sorted(Path(lamsep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                lines = [inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom))]
                assert not lines, f"{path.name} imports inside a function, at lines {lines}"


def test_simulate_writes_field_csv_in_the_write_stage(tmp_path, monkeypatch):
    from lamsep import nssim
    real_dump = nssim.dump_field_csv

    def slow_dump(*args):
        time.sleep(0.3)
        real_dump(*args)

    monkeypatch.setattr(nssim, "dump_field_csv", slow_dump)
    path, out = write_config(tmp_path, {"n_s": 16, "n_r": 16, "t_end": 0.002}), tmp_path / "o"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    stages = load_strict_json(out / "report.json")["stage_s"]
    assert stages["write"] >= 0.3 and stages["compute"] < 0.3
    assert (out / "field.csv").is_file()
