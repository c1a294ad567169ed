"""Property tests: the paper's statements on random valid parameters, the
CLI's one-line refusal of random malformed configs, and its report or
one-line refusal at parameters of any magnitude.

Hypothesis runs derandomized, so the examples are the same on every run.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from lamsep.cli import main
from lamsep.field import LaminarParams, laminar_field
from lamsep.geometry import ArcBoundary
from lamsep.theorems import (
    default_r_grid,
    oracle_limit,
    theorem1_verify,
    theorem2_limit,
    theorem2_ratio,
)
from lamsep.tracing import default_trace_config, poincare_L

from conftest import load_strict_json

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)


def _between(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


# the parameter box the cli-analysis benchmark draws from, widened on every side
VALID = st.tuples(_between(0.5, 8.0), _between(0.25, 4.0), _between(0.25, 4.0),
                  _between(0.25, 8.0))


@PROPERTY_SETTINGS
@given(VALID)
def test_theorems_hold_for_valid_parameters(draw):
    alpha1, alpha2, nu, delta = draw
    params = LaminarParams(alpha1=alpha1, alpha2=alpha2, nu=nu)
    # theorem 1: the stationary balance fails by a positive margin
    assert theorem1_verify(params, delta).min_mismatch > 0
    # theorem 2: the material derivative points against the flow, and its limit
    # extrapolates to the exact rational oracle
    assert all(theorem2_ratio(params, delta, r) < 0 for r in default_r_grid(params, delta))
    oracle = oracle_limit(params, delta)
    assert abs(theorem2_limit(params, delta).limit.value - oracle) <= 1e-4 * abs(oracle)


@PROPERTY_SETTINGS
@given(VALID)
def test_laminar_return_map_is_the_identity(draw):
    alpha1, alpha2, nu, delta = draw
    params = LaminarParams(alpha1=alpha1, alpha2=alpha2, nu=nu)
    arc = ArcBoundary(delta=delta, s_range=(0.0, 0.5 * delta))
    r = 0.1 * min(params.bl, delta)
    height = poincare_L(laminar_field(arc, params), arc, 0.1 * delta, 0.25 * delta, r,
                        default_trace_config(arc))
    assert abs(height - r) <= 1e-6 * r


def _run_cli(tmp, command: str, config: dict) -> tuple[int, list[str]]:
    """Run ``lamsep command`` on ``config`` in-process; the exit code and the stderr lines."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(path), "--out", str(tmp / "o")])
    return code, err.getvalue().splitlines()


# malformed values by the kind of value a key takes
NOT_A_NUMBER = st.sampled_from(["x", math.nan, math.inf, -math.inf, True, [1.0], {}])
NOT_A_LIST = st.sampled_from(["x", 1.0, [], ["x"], [math.nan], [True], {}])
NOT_A_PAIR = st.sampled_from(["x", 3.0, [1.0], [0.0, "a"], [0.0, math.inf], [0.0, 1.0, 2.0]])
NOT_A_NAME = st.sampled_from(["nope", 5, []])
SCALARS = {
    "": ("alpha1", "alpha2", "nu", "delta"),
    "classify": ("s", "s1", "C", "growth", "step", "tol_par"),
    "trace": ("start_s", "start_r", "length", "step"),
    "zeta-check": ("s", "eps_over_r", "amp"),
    "simulate": ("n_s", "n_r", "dt", "t_end"),
}
LISTS = {
    "verify-theorem1": ("r_grid",), "verify-theorem2": ("r_grid",), "classify": ("radii",),
    "zeta-check": ("r_list",), "simulate": ("probes",),
    "sweep": ("delta_values", "alpha1_values", "alpha2_values", "nu_values"),
}
PAIRS = {"": ("s_range",), "classify": ("source",)}
NAMES = {"classify": ("field",), "trace": ("kind",), "zeta-check": ("pressure",)}
COMMANDS = ("verify-theorem1", "verify-theorem2", "classify", "trace", "zeta-check",
            "simulate", "sweep")


@st.composite
def malformed_configs(draw):
    command = draw(st.sampled_from(COMMANDS))
    choices = []
    for table, bad in ((SCALARS, NOT_A_NUMBER), (LISTS, NOT_A_LIST), (PAIRS, NOT_A_PAIR),
                       (NAMES, NOT_A_NAME)):
        choices += [(key, bad) for key in table.get("", ()) + table.get(command, ())]
    if command == "verify-theorem1":
        choices.append(("use_tracing", st.sampled_from(["x", 1, []])))
    key, bad = draw(st.sampled_from(choices))
    return command, {key: draw(bad)}


@PROPERTY_SETTINGS
@given(malformed_configs())
def test_malformed_config_is_one_line_error(tmp_path_factory, case):
    command, config = case
    code, lines = _run_cli(tmp_path_factory.mktemp("malformed"), command, config)
    assert code == 1, (command, config)
    assert len(lines) == 1 and lines[0].startswith("lamsep: error:"), lines


# log-uniform over nearly the whole float range: products and squares of these
# overflow, and their quotients underflow
MAGNITUDE = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


# the options each command reads beside the shared keys, drawn at any magnitude;
# a drawn None leaves the option out
STATIONS = st.tuples(st.sampled_from((1.0, -1.0)), MAGNITUDE).map(lambda t: t[0] * t[1])
HEIGHTS = st.lists(MAGNITUDE, min_size=1, max_size=3)
EXTREME_OPTIONS = {
    "verify-theorem1": {"r_grid": HEIGHTS, "use_tracing": st.booleans()},
    "verify-theorem2": {"r_grid": HEIGHTS},
    "classify": {"field": st.sampled_from(("laminar", "fan", "weak")), "s": STATIONS,
                 "radii": HEIGHTS},
    "trace": {"kind": st.sampled_from(("streamline", "pressure", "level")),
              "start_s": STATIONS, "start_r": MAGNITUDE},
    "zeta-check": {"s": STATIONS},
}


@st.composite
def extreme_configs(draw):
    command = draw(st.sampled_from(tuple(EXTREME_OPTIONS)))
    config = {key: draw(MAGNITUDE) for key in ("delta", "alpha1", "alpha2", "nu")}
    for key, values in EXTREME_OPTIONS[command].items():
        value = draw(st.none() | values)
        if value is not None:
            config[key] = value
    return command, config


@PROPERTY_SETTINGS
@example(("verify-theorem2", {"delta": 1e-170}))  # delta**2 underflows to 0
# the limit underflows to 0 (this run used to exit 2 with every ratio 0)
@example(("verify-theorem2", {"alpha1": 1.8399755638364526, "alpha2": 1.643420123686913e+200,
                              "nu": 8.994958406858893e+29}))
# the fd variant note divides by a quotient that underflowed (ZeroDivisionError)
@example(("verify-theorem1", {"alpha1": 0.9753736654563112, "delta": 1.831576422484547e-300,
                              "r_grid": [0.4825952921473091, 0.24129764607365456]}))
# start_s / delta overflows in the chart map (math domain error)
@example(("trace", {"delta": 9.103705350140571e-31, "kind": "pressure",
                    "start_s": 8.933948203276443e+299, "start_r": 1.7815983848928382e-08}))
# the ratios are subnormal, and their fit read a positive limit
@example(("verify-theorem2", {"nu": 1e-320}))
# the ratio L/r at a subnormal radius is inf
@example(("classify", {"field": "fan", "radii": [1.8250218295016003, 5e-324]}))
@given(extreme_configs())
def test_extreme_magnitudes_end_in_a_report_or_one_line_error(tmp_path_factory, case):
    command, config = case
    tmp = tmp_path_factory.mktemp("extreme")
    code, lines = _run_cli(tmp, command, config)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("lamsep: error:"), lines
        assert not (tmp / "o").exists()
        return
    # verify-theorem2 exits 2 on the tracked erratum
    assert code == 0 or (code == 2 and command == "verify-theorem2"), (command, config, code)
    report = load_strict_json(tmp / "o" / "report.json")
    assert report["command"] == command
    with open(tmp / "o" / "data.csv", newline="") as fh:
        cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
    assert all(math.isfinite(float(cell)) for cell in cells), (command, config)
    if code == 2:  # the erratum is a disagreement between negative limits
        limit = report["payload"]["limit_extrapolated"]
        assert limit is not None and math.isfinite(limit) and limit < 0.0, (config, limit)
