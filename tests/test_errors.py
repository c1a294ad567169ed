import ast
import json
from pathlib import Path

import pytest

import lamsep
from lamsep import cli, errors, nssim
from lamsep.errors import LamsepError, ValidationError
from lamsep.fdops import StencilSpec, richardson
from lamsep.field import LaminarParams, laminar_field
from lamsep.geometry import ArcBoundary
from lamsep.theorems import theorem1_verify
from lamsep.tracing import (TraceConfig, angular_pressure, classify_flow,
                            default_trace_config, zeta_check)

ARC = ArcBoundary(1.0, (0.0, 0.5))
PARAMS = LaminarParams(2.0, 1.0, 1.0)


def _config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return cli.parse_config(path, None, "verify-theorem2")


def _probe_outside_the_grid(_):
    cfg = nssim.SimConfig(arc=ARC, params=PARAMS, n_s=16, n_r=16, t_end=0.01)
    nssim.probe_diagnostics(nssim.init_sim(cfg), cfg, [5.0])


# an empty radius list, by the name of the argument that the refusal names
EMPTY_RADII = {
    "r_grid": lambda: theorem1_verify(PARAMS, 1.0, []),
    "r_list": lambda: zeta_check(angular_pressure(ARC, PARAMS), ARC, PARAMS, 0.1, [], 2.0),
    "radii": lambda: classify_flow(laminar_field(ARC, PARAMS), ARC, [], 0.1, 0.25, 2.0,
                                   default_trace_config(ARC)),
}


@pytest.mark.parametrize("refuse", [
    lambda tmp_path: _config(tmp_path, "{not json"),
    lambda tmp_path: _config(tmp_path, json.dumps({"alpha3": 2.0})),
    lambda _: cli._Parser(prog="lamsep").error("unrecognized arguments: --alpha3"),
    lambda tmp_path: _config(tmp_path, json.dumps({"alpha2": -1})),
    lambda _: nssim.SimConfig(arc=ARC, params=PARAMS, n_s=16, n_r=8, t_end=0.01),
    _probe_outside_the_grid,
    lambda _: LaminarParams(-1, 1, 1),
    lambda _: TraceConfig(step=0, max_length=1),
    lambda _: richardson([(0.1, 1.0), (0.2, 2.0)], order=1),
    lambda _: classify_flow(laminar_field(ARC, PARAMS), ARC, [0.1, 0.05], 0.1, 0.25, 1.0,
                            TraceConfig(step=0.01, max_length=1.0)),
    *[lambda _, refuse=refuse: refuse() for refuse in EMPTY_RADII.values()],
], ids=["malformed-json", "unknown-key", "command-line", "bad-value", "sim-config", "probe",
        "laminar-params", "trace-config", "richardson", "classify-threshold",
        *(f"empty-{name}" for name in EMPTY_RADII)])
def test_every_refused_input_is_one_class_caught_as_either_base(tmp_path, refuse):
    with pytest.raises(ValidationError) as err:
        refuse(tmp_path)
    assert isinstance(err.value, LamsepError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("name", EMPTY_RADII)
def test_an_empty_radius_list_is_refused_by_name(name):
    with pytest.raises(ValidationError, match=f"^{name} must "):
        EMPTY_RADII[name]()


# 8 x 32 at delta = 1 and bl = 2: the cell height is 1/8, so dt = 1/64 is nu*dt/drho**2 = 1
SIM = nssim.SimConfig(arc=ARC, params=PARAMS, n_s=8, n_r=32, t_end=0.0625)


@pytest.mark.parametrize("record, bad, message", [
    (ARC, {"delta": 0.0}, "delta must be positive"),
    (PARAMS, {"nu": -1.0}, "nu must be positive"),
    (StencilSpec(0.1), {"order": 3}, "order must be 2 or 4"),
    (TraceConfig(step=0.01, max_length=1.0), {"step": 0.0}, "step 0 must be positive"),
    (SIM, {"t_end": -1.0}, "t_end must be finite and positive"),
    (SIM, {"dt": 1.0, "t_end": 1.0}, "dt = 1 exceeds half the radial_viscous step limit"),
    (SIM, {"dt": 0.015625}, "dt = 0.015625 exceeds half the radial_viscous step limit"),
], ids=["arc", "params", "stencil", "trace", "sim-t_end", "sim-dt-cfl", "sim-dt-viscous"])
def test_every_input_record_refuses_a_bad_field_when_made_and_in_replace(record, bad, message):
    with pytest.raises(ValidationError, match=message):
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValidationError, match=message):
        record._replace(**bad)


def test_every_raise_in_the_package_names_a_class_of_lamsep_errors():
    # the one exception: __getattr__'s AttributeError, which PEP 562 requires
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, LamsepError)}
    assert len(classes) == 8
    stray = []
    for path in sorted(Path(lamsep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
            if name not in classes and not (path.name == "__init__.py"
                                            and name == "AttributeError"):
                stray.append(f"{path.name}:{node.lineno} raises {name}")
    assert stray == []
