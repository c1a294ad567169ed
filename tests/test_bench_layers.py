"""The layer benchmark's CSV comparison and the premise of its timing method.

``bench/layers.py`` times both checkouts in one interpreter, each loaded under
its own package name; these tests load the script by path (as
``test_benchmark_hooks.py`` loads ``perfbench/``) and time nothing.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
HEADER = ["t", "u"]


@pytest.mark.parametrize("x, y", [("0", "-0"), ("0.5", "0.5"), ("nan", "nan"), ("inf", "inf"),
                                  ("1e-3", "0.001")])
def test_equal_cells_differ_by_zero(x, y):
    assert layers._column_rel_diffs([HEADER, ["1", x]], [HEADER, ["1", y]]) == {"t": 0.0,
                                                                                "u": 0.0}


def test_relative_difference_of_finite_cells():
    # each column's largest |before - after| over its largest |before|: 0.5 / 4
    diff = layers._column_rel_diffs([HEADER, ["1", "2"], ["2", "-4"]],
                                    [HEADER, ["1", "2.5"], ["2", "-4"]])
    assert diff == {"t": 0.0, "u": 0.125}


def test_velocity_columns_are_scaled_by_the_top_speed():
    # u_r is roundoff on both sides: against u_t = 1 it differs by 1e-19, not by 1
    header = ["u_t", "u_r"]
    diff = layers._column_rel_diffs([header, ["1", "1e-19"]], [header, ["1", "2e-19"]])
    assert diff["u_t"] == 0.0 and diff["u_r"] == pytest.approx(1e-19)


def test_a_pressure_shifted_by_a_constant_differs_by_zero_less_its_mean_shift():
    # p is fixed up to a constant: cell by cell it moves by 5 / 7, less the mean
    # shift by 0; shifts of 5 and 4 read 0.5 / 7 there
    header = ["s", "p"]
    before = [header, ["0", "2"], ["1", "-7"]]
    diff = layers._column_rel_diffs(before, [header, ["0", "7"], ["1", "-2"]])
    assert diff == {"s": 0.0, "p": pytest.approx(5 / 7), "p_less_mean_shift": 0.0}
    diff = layers._column_rel_diffs(before, [header, ["0", "7"], ["1", "-3"]])
    assert diff["p_less_mean_shift"] == pytest.approx(0.5 / 7)
    assert layers._column_rel_diffs(before, before)["p_less_mean_shift"] == 0.0


def test_a_difference_in_an_all_zero_column_is_infinite():
    diff = layers._column_rel_diffs([HEADER, ["1", "0"]], [HEADER, ["1", "1e-300"]])
    assert diff == {"t": 0.0, "u": math.inf}


@pytest.mark.parametrize("x, y", [("nan", "1"), ("1", "nan"), ("inf", "1"), ("-inf", "inf"),
                                  ("abc", "1")])
def test_a_non_finite_mismatch_is_infinite(x, y):
    diff = layers._column_rel_diffs([HEADER, ["1", x]], [HEADER, ["1", y]])
    assert diff == {"t": 0.0, "u": math.inf}


@pytest.mark.parametrize("row_a, row_b", [(["1", "2"], ["1"]), (["1"], ["1", "2"]),
                                          (["1", "2"], ["1", "2", "3"])])
def test_rows_of_unequal_length_differ_infinitely(row_a, row_b):
    diff = layers._column_rel_diffs([HEADER, row_a], [HEADER, row_b])
    assert diff == {"t": math.inf, "u": math.inf}


def test_unequal_headers_or_row_counts_differ_infinitely():
    diff = layers._column_rel_diffs([HEADER, ["1", "2"]], [["t", "v"], ["1", "2"]])
    assert diff == {"t": math.inf, "u": math.inf, "v": math.inf}
    diff = layers._column_rel_diffs([HEADER, ["1", "2"]], [HEADER])
    assert diff == {"t": math.inf, "u": math.inf}


def _report(payload, out, seconds):
    return json.dumps({"config": {"alpha1": 2.0, "out": out}, "payload": payload,
                       "stage_s": {"compute": seconds}, "wall_clock_s": seconds})


def test_outputs_report_each_csv_file_and_column(monkeypatch, tmp_path):
    # data.csv moves by 1e-6 in one column, field.csv is identical: the report
    # keeps the two files apart.  The first run's report.json differs only in its
    # timings and its out directory, the second's also in its payload
    files = {"before": {"data.csv": "t,u\n0,1\n1,2\n", "field.csv": "s,p\n0,5\n"},
             "after": {"data.csv": "t,u\n0,1\n1,2.000002\n", "field.csv": "s,p\n0,5\n"}}
    payloads = {"before": [{"L": 1.0}, {"L": 1.0}], "after": [{"L": 1.0}, {"L": 1.5}]}

    def child(root, function, workload, count, out_dir):
        side = Path(out_dir).name
        for index, payload in enumerate(payloads[side]):
            target = Path(out_dir) / f"1-{index}"
            target.mkdir(parents=True)
            for name, text in files[side].items():
                (target / name).write_text(text)
            (target / "report.json").write_text(_report(payload, str(target), 0.1 * len(side)))
        return [[1, 0, "classify", 0], [1, 1, "classify", 0]]

    monkeypatch.setattr(layers, "_child", child)
    monkeypatch.setattr(layers, "OUTPUT_SEEDS", {"cli-analysis": 1})
    out = layers.outputs({"before": tmp_path / "a", "after": tmp_path / "b"})
    entry = out["cli-analysis"]["commands"]["classify"]
    assert entry["invocations"] == 2 and entry["exit_codes_differ"] == []
    assert (entry["report_identical"], entry["report_differ"]) == (1, 1)
    assert entry["csv"]["field.csv"] == {"identical": 2, "differ": 0,
                                         "largest_rel_diff_by_column": {}}
    data = entry["csv"]["data.csv"]
    assert (data["identical"], data["differ"]) == (0, 2)
    assert data["largest_rel_diff_by_column"] == {"t": 0.0, "u": pytest.approx(1e-6)}


def test_main_runs_the_pairs_before_the_layers_and_outputs(monkeypatch, tmp_path):
    calls = []
    for phase in ("pairs", "layers", "outputs"):
        monkeypatch.setattr(layers, phase,
                            lambda *args, phase=phase: calls.append(phase) or {phase: True})
    monkeypatch.setattr(layers, "_git_sha", lambda root: None)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["layers.py", "--before", str(tmp_path), "--after",
                                      str(tmp_path), "--out", str(out), "--pairs", "2"])
    layers.main()
    assert calls == ["pairs", "layers", "outputs"]
    result = json.loads(out.read_text())
    assert result["end_to_end"] == {"pairs": True} and result["layers"] == {"layers": True}


def test_compare_reports_quartiles_the_paired_ratio_and_the_rounds_won(monkeypatch):
    calls = []

    def fake(side, seconds):
        def sample():
            calls.append(side)
            return seconds
        return sample

    entry = layers._compare({"before": fake("before", 2.0), "after": fake("after", 1.0)})
    assert set(entry) == {"before", "after", "paired_after_over_before", "paired_quartiles",
                          "rounds_after_faster"}
    assert entry["before"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert entry["after"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert entry["paired_after_over_before"] == 0.5
    assert entry["paired_quartiles"] == {"q1": 0.5, "median": 0.5, "q3": 0.5}
    assert entry["rounds_after_faster"] == layers.ROUNDS
    # one untimed call each, then the side that goes first swaps every round
    assert calls[:6] == ["before", "after", "before", "after", "after", "before"]
    assert len(calls) == 2 * (layers.ROUNDS + 1)

    # the change side takes 0.9, 1.0, 1.1 and 1.2 s in turn against a steady
    # 1 s: the paired ratios spread over [0.9, 1.2] about their median 1.05
    monkeypatch.setattr(layers, "ROUNDS", 4)
    after = iter([1.0, 0.9, 1.0, 1.1, 1.2])  # the first call is untimed
    entry = layers._compare({"before": lambda: 1.0, "after": lambda: next(after)})
    assert entry["paired_after_over_before"] == pytest.approx(1.05)
    assert entry["paired_quartiles"] == {"q1": pytest.approx(0.975),
                                         "median": pytest.approx(1.05),
                                         "q3": pytest.approx(1.125)}
    assert entry["rounds_after_faster"] == 1


def _canned_pairs(monkeypatch, tmp_path, parent, change, bound=0.25):
    """``pairs`` on one workload whose wall_s reads ``parent[k]`` and ``change[k]``
    on pair k, against a BENCHMARK.json with that one metric and ``bound``."""
    sides = {side: tmp_path / side for side in ("before", "after")}
    for root in sides.values():
        root.mkdir()
    (sides["after"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": bound}]}))
    values = {sides["before"]: parent, sides["after"]: change}

    def bench_run(root, workload, seed, seconds):
        return {"metrics": {"wall_s": {"value": values[root][seed - 1], "unit": "s"}},
                "attempted": 1, "failed": 0, "correct": True}

    monkeypatch.setattr(layers, "_bench_run", bench_run)
    seeds = list(range(1, len(parent) + 1))
    return layers.pairs(sides, ["sim-default"], seeds, 1.0)["sim-default"]


STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]


@pytest.mark.parametrize("parent, change, verdict", [
    # 10 of 10 pairs won, by more than the parent's interquartile range
    (STEADY, [0.8] * 10, "gain"),
    # 9 of 10 won is still a gain; 8 of 10 is not
    (STEADY, [0.8] * 9 + [1.1], "gain"),
    (STEADY, [0.8] * 8 + [1.1] * 2, "no_worse"),
    # every pair won, but by less than the parent's spread
    (STEADY, [x - 0.005 for x in STEADY], "no_worse"),
    # the parent spreads over half its median, wider than the bound
    ([0.5, 1.5] * 5, [1.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run: then no worse, but
    # not a gain while the medians differ by less than the parent's spread
    ([0.5, 1.5] * 5, [0.4] * 10, "no_worse"),
    ([0.5, 1.5] * 5, [0.45] * 9 + [0.6], "unresolved"),
    # the change's median 30 % over the parent's, more than the 0.25 bound
    (STEADY, [1.3] * 10, "worse"),
    (STEADY, [1.2] * 10, "no_worse"),
])
def test_pairs_give_each_end_to_end_metric_a_verdict(monkeypatch, tmp_path, parent, change,
                                                     verdict):
    out = _canned_pairs(monkeypatch, tmp_path, parent, change)
    assert out["metrics"]["wall_s"]["verdict"] == verdict
    assert out["pairs"] == 10 and "note" not in out


def test_fewer_than_ten_pairs_claim_no_gain_and_say_so(monkeypatch, tmp_path):
    out = _canned_pairs(monkeypatch, tmp_path, STEADY[:4], [0.8] * 4)
    assert out["metrics"]["wall_s"]["pairs_change_better"] == 4
    assert out["metrics"]["wall_s"]["verdict"] == "no_worse"
    assert "fewer than 10" in out["note"]


def test_in_process_layers_run_once_with_one_blas_thread(monkeypatch, tmp_path):
    children = []

    def child(root, function, *args, blas_threads=None):
        children.append((function, blas_threads))
        return {"in_process": {}}

    monkeypatch.setattr(layers, "_child", child)
    monkeypatch.setattr(layers, "_process_layers", lambda sides, tmp: {"process": {}})
    out = layers.layers({"before": tmp_path / "a", "after": tmp_path / "b"})
    assert children == [("_in_process_layers", "1")]
    assert set(out) == {"in_process", "process"}


def test_children_choose_their_own_blas_threads_unless_told(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert not set(layers.BLAS_THREAD_VARS) & layers._env(tmp_path).keys()
    env = layers._env(tmp_path, "1")
    assert env["OPENBLAS_NUM_THREADS"] == "1" and "OMP_NUM_THREADS" not in env
    assert env["PYTHONPATH"] == str(tmp_path / "src")


def test_a_process_layer_times_the_tracked_erratum_and_refuses_an_error(tmp_path):
    # process.verify_theorem2_s runs the default verify-theorem2, which exits 2
    out = str(tmp_path / "o")
    assert layers._process_s(ROOT, "-m", "lamsep.cli", "verify-theorem2", "--out", out) > 0
    with pytest.raises(subprocess.CalledProcessError):
        layers._process_s(ROOT, "-m", "lamsep.cli", "no-such-command", "--out", out)


def _git(*args, cwd):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
@pytest.mark.parametrize("case", ["plain", "nested", "clone"])
def test_git_sha_is_recorded_only_for_the_top_of_a_work_tree(tmp_path, case):
    if case == "plain":
        root, expected = tmp_path, None
    else:
        repo = tmp_path / "repo"
        (repo / "inner").mkdir(parents=True)
        _git("init", "-q", cwd=repo)
        (repo / "inner" / "f").write_text("x\n")
        _git("add", "-A", cwd=repo)
        _git("commit", "-q", "-m", "one", cwd=repo)
        if case == "nested":  # a copy unpacked inside another work tree
            root, expected = repo / "inner", None
        else:
            _git("clone", "-q", str(repo), str(tmp_path / "clone"), cwd=tmp_path)
            root = tmp_path / "clone"
            expected = _git("rev-parse", "HEAD", cwd=root)
    sha = layers._git_sha(root)
    if expected is None:
        assert sha is None
    else:
        assert sha and expected.startswith(sha)


@pytest.fixture(scope="module")
def sides():
    names = ("lamsep_side_a", "lamsep_side_b")
    loaded = tuple(layers._load_side(name, ROOT) for name in names)
    yield loaded
    for key in [k for k in sys.modules if k.split(".")[0] in names]:
        del sys.modules[key]


def test_sides_are_separate_packages_with_separate_grid_classes(sides):
    # the two sides share no solver state: a config of one side builds that
    # side's grid, and neither side keeps a grid cache of its own
    a, b = sides
    assert a.nssim is not b.nssim and a.cli is not b.cli
    assert a.nssim.__name__ == "lamsep_side_a.nssim"
    assert a.nssim._Grid is not b.nssim._Grid
    for side in sides:
        cfg = side.nssim.SimConfig(
            arc=side.geometry.ArcBoundary(1.0, (0.0, 0.5)),
            params=side.field.LaminarParams(2.0, 1.0, 1.0), n_s=16, n_r=16)
        side.nssim.init_sim(cfg)
        assert type(cfg.grid) is side.nssim._Grid
        assert not hasattr(side.nssim, "_mesh_grid")


@pytest.mark.parametrize("command, config", [("simulate", {"n_s": 16, "n_r": 16}),
                                             ("classify", {})])
def test_both_sides_write_the_same_data_csv(sides, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    written = []
    for side in sides:
        out = tmp_path / side.__name__
        side.cli.run(side.cli.parse_config(path, {"out": str(out)}, command))
        written.append((out / "data.csv").read_bytes())
    assert written[0] and written[0] == written[1]


def test_every_layer_sampler_runs_on_this_checkout(sides, tmp_path, monkeypatch):
    # the samplers call private hooks (tracing._unit_direction, tracing._rk_step,
    # nssim._solve_neumann) that no other test reaches through this script;
    # each sampler runs its function once here, and is timed by nothing
    per_call = layers._per_call
    monkeypatch.setattr(layers, "_per_call", lambda fn, calls: per_call(fn, 1))
    monkeypatch.setattr(sys, "path", list(sys.path))  # the layers put perfbench/ first
    side = sides[0]
    samplers = layers._analysis_layers(side, tmp_path / "analysis")
    solver, notes = layers._solver_layers(side, 32)
    assert {"tracing.rk_step_s", "tracing.eta_ratio_s", "cli.run.zeta-check_s"} <= set(samplers)
    assert "nssim.pressure_solve_32_s" in solver and set(notes) <= set(solver)
    for name, sample in {**samplers, **solver}.items():
        assert sample() >= 0.0, name
