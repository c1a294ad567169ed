"""Units as a test oracle: every output scales exactly under a power-of-2 change of units.

The model has a length unit and a time unit.  Doubling the length unit maps
(delta, s_range, alpha2, nu) to (2*delta, 2*s_range, alpha2/2, 4*nu), and the
default s_range, (0, delta/2), follows delta; doubling the
time unit maps (alpha1, alpha2, nu, t_end) to (alpha1/2, alpha2/2, nu/2, 2*t_end).
A power of 2 scales a float exactly, so an output of dimension length**a * time**b
must scale by exactly 2**(a*L + b*T), bit for bit, where L and T count the
doublings.  A term with a missing delta, nu or alpha1 fails this whatever its
values are.  ``DIMENSIONS`` is the units documentation of every output.

Three outputs are left out, because they do not scale exactly yet:

- ``zeta-check``'s ``upper`` under a doubled length unit.  Its factor
  1/(1 - c*r**2), as the paper writes the bound, adds c*r**2, a length, to 1.
  Whether that is an erratum is still to decide.
- ``trace`` with ``kind`` ``pressure`` or ``level``, and
- ``verify-theorem1`` with ``use_tracing``: both trace the printed P_perp, which
  has the unit of a rate, not of an acceleration, so the traced curves change
  shape with the units.
"""

import csv
import json
import math

import pytest

from lamsep import cli

# The length and time exponents (a, b) of every CSV column and every report.json
# payload key; a key inside a list of records is named by its dotted path.
DIMENSIONS = {
    **dict.fromkeys((  # counts and pure numbers
        "index", "points", "rows", "steps", "levels_used", "limit_levels_used",
        "limit_observed_order", "L_over_r", "evidence.ratio", "C_threshold", "fitted_c2",
        "fitted_epsilon_hat", "ratio_limit", "wall_gradient_rel_dev", "cfl"), (0, 0)),
    **dict.fromkeys((  # lengths
        "r", "r_grid", "evidence.r", "t0.r", "probe_r", "delta", "s", "x", "y", "cumlen",
        "length", "eps", "s_hat", "r_hat2", "zeta_length", "lower", "upper"), (1, 0)),
    **dict.fromkeys(("fitted_c", "fitted_c1"), (-1, 0)),
    **dict.fromkeys(("t", "dt", "first_reversal"), (0, 1)),
    **dict.fromkeys((  # rates: alpha1, a material derivative over the speed, its limits
        "alpha1", "ratio", "t0.ratio", "limit", "oracle", "paper", "limit_extrapolated",
        "limit_error_estimate", "oracle_value", "paper_value", "derived_value"), (0, -1)),
    **dict.fromkeys(("alpha2", "lhs", "rhs", "mismatch", "min_mismatch"), (-1, -1)),
    "nu": (2, -1),
    **dict.fromkeys(("u_t", "u_r", "t0.u_t"), (1, -1)),
    **dict.fromkeys(("t0.gradp_t", "t0.visc_t", "t0.wall_anchor_gradp_t"), (1, -2)),
    "p": (2, -2),
}
# (doubled unit, key) pairs left out, as the module docstring says
UNDECIDED = {("length", "upper")}

# the parameters the two maps change, at the CLI's defaults
DEFAULTS = {key: cli._SHARED_DEFAULTS[key] for key in ("alpha1", "alpha2", "nu", "delta")}
CASES = [(command, {}) for command in cli.COMMANDS if command != "simulate"] + [
    ("classify", {"field": "fan"}),
    ("classify", {"field": "weak"}),
    ("zeta-check", {"pressure": "perturbed"}),
    ("simulate", {"n_s": 8, "n_r": 16, "t_end": 0.02}),
]


def _length_doubled(config: dict) -> dict:
    return {**config, "delta": 2 * config["delta"], "alpha2": config["alpha2"] / 2,
            "nu": 4 * config["nu"]}


def _time_doubled(config: dict) -> dict:
    out = {**config, "alpha1": config["alpha1"] / 2, "alpha2": config["alpha2"] / 2,
           "nu": config["nu"] / 2}
    if "t_end" in config:
        out["t_end"] = 2 * config["t_end"]
    return out


def _payload_numbers(value, key=""):
    """(dotted key, number) for every finite number in ``value``, list indices dropped."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _payload_numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for v in value:
            yield from _payload_numbers(v, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
        yield key, value


def _outputs(command: str, config: dict, out) -> list:
    """(file, key, number) for every CSV cell and finite payload number of one run."""
    cli.run(cli.parse_config(None, {**config, "out": str(out)}, command))
    cells = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            cells += [(path.name, k, float(v))
                      for row in csv.DictReader(fh) for k, v in row.items()]
    payload = json.loads((out / "report.json").read_text())["payload"]
    return cells + [("payload", k, v) for k, v in _payload_numbers(payload)]


@pytest.mark.parametrize("command, options", CASES,
                         ids=[f"{c}-{'-'.join(map(str, o.values())) or 'defaults'}"
                              for c, o in CASES])
def test_every_output_scales_exactly_with_the_units(tmp_path, command, options):
    config = {**DEFAULTS, **options}
    base = _outputs(command, config, tmp_path / "base")
    assert {key for _, key, _ in base} <= set(DIMENSIONS)
    for unit, twin, (n_length, n_time) in (("length", _length_doubled, (1, 0)),
                                           ("time", _time_doubled, (0, 1))):
        scaled = _outputs(command, twin(config), tmp_path / unit)
        assert [(f, k) for f, k, _ in scaled] == [(f, k) for f, k, _ in base]
        wrong = []
        for (where, key, value), (_, _, twin_value) in zip(base, scaled):
            a, b = DIMENSIONS[key]
            expected = value * 2.0 ** (a * n_length + b * n_time)
            if twin_value != expected and (unit, key) not in UNDECIDED:
                wrong.append(f"{where} {key}: {twin_value!r} != {expected!r}")
        assert wrong == [], f"{unit} unit doubled"
