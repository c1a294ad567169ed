import ast
import json
from pathlib import Path

import pytest

import lamsep
from lamsep import cli, errors, nssim
from lamsep.errors import LamsepError, ValidationError
from lamsep.fdops import richardson
from lamsep.field import LaminarParams, laminar_field
from lamsep.geometry import ArcBoundary
from lamsep.tracing import TraceConfig, classify_flow

ARC = ArcBoundary(1.0, 0.0, (0.0, 0.0), (0.0, 0.5))
PARAMS = LaminarParams(2.0, 1.0, 1.0)


def _config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return cli.parse_config(path, None, "verify-theorem2")


def _probe_outside_the_grid(_):
    cfg = nssim.SimConfig(arc=ARC, params=PARAMS, n_s=16, n_r=16, t_end=0.01)
    nssim.probe_diagnostics(nssim.init_sim(cfg), cfg, [5.0])


@pytest.mark.parametrize("refuse", [
    lambda tmp_path: _config(tmp_path, "{not json"),
    lambda tmp_path: _config(tmp_path, json.dumps({"alpha3": 2.0})),
    lambda _: cli._Parser(prog="lamsep").error("unrecognized arguments: --alpha3"),
    lambda tmp_path: _config(tmp_path, json.dumps({"alpha2": -1})),
    lambda _: nssim.SimConfig(arc=ARC, params=PARAMS, n_s=16, n_r=8, t_end=0.01).validate(),
    _probe_outside_the_grid,
    lambda _: LaminarParams(-1, 1, 1),
    lambda _: TraceConfig(step=0, max_length=1),
    lambda _: richardson([(0.1, 1.0), (0.2, 2.0)], order=1),
    lambda _: classify_flow(laminar_field(ARC, PARAMS), ARC, [0.1, 0.05], 0.1, 0.25, 1.0,
                            TraceConfig(step=0.01, max_length=1.0)),
], ids=["malformed-json", "unknown-key", "command-line", "bad-value", "sim-config", "probe",
        "laminar-params", "trace-config", "richardson", "classify-threshold"])
def test_every_refused_input_is_one_class_caught_as_either_base(tmp_path, refuse):
    with pytest.raises(ValidationError) as err:
        refuse(tmp_path)
    assert isinstance(err.value, LamsepError) and isinstance(err.value, ValueError)


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
