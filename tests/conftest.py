import json

import pytest

# (alpha1, alpha2, nu, delta) of the checks that theorem 1's gap M(r) is theorem
# 2's numerator (test_theorems) and the solver's first step (test_nssim)
GAP_CONFIGS = [(2.0, 1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 0.5), (5.0, 2.0, 0.3, 2.0),
               (1.0, 0.4, 0.05, 4.0)]


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
