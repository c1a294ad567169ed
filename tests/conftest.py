import json

import pytest


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def load_strict_json(path):
    """Parse ``path`` as strict JSON: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture(autouse=True)
def reports_are_strict_json(tmp_path):
    """Every report.json a test writes under its tmp_path parses as strict JSON."""
    yield
    for path in tmp_path.rglob("report.json"):
        load_strict_json(path)
