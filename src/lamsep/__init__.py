"""lamsep: laminar flow next to a curved wall, verified numerically.

A library (plus the ``lamsep`` CLI) that builds the parallel shear flow
around a constant-curvature no-slip wall, checks every closed form against
finite-difference oracles, quantifies why no such flow can be stationary,
extrapolates the negative near-wall material-derivative limit, and runs a
desk-scale unsteady Navier-Stokes experiment on an annular sector.  What that
experiment reproduces is the sign of the t = 0 tangential momentum budget: the
material derivative opposes the flow near the wall, more strongly at smaller
delta.  The sector is periodic along the wall, so its first step follows that
budget, and where alpha1/delta > alpha2 the near-wall flow reverses, sooner at
smaller delta.  The analysis is pure Python; only the sector solver
(:mod:`lamsep.nssim`) needs numpy.

``import lamsep`` loads nothing else: each public name below resolves on first
use (PEP 562), so a program, and each ``lamsep`` command, loads only the
modules it runs.  Every module the package imports after its own import goes
through ``_load``, which times it.  The records (``ArcBoundary``,
``LaminarParams``, ``SimConfig``, the reports, ...) are ``typing.NamedTuple``s:
immutable, compared by value, and copied with changes by
``record._replace(field=value)``; an input record checks its invariants, in
``_replace`` too, and an output record (``NormalPoint``, ``BoundTolerances``,
...) carries what was computed.
"""

import time as _time
from importlib import import_module as _import_module

_IMPORT_START = _time.perf_counter()  # the import stage of each report.json starts here
_late_import_s = 0.0  # the seconds of every _load so far

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CriticalPoint", "Diverged", "DomainError", "LamsepError", "NoCrossing",
        "NonMonotoneSequence", "OutOfChart", "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "ArcBoundary", "LocalFrame", "NormalPoint", "arc_point", "arc_segment_length",
        "arc_tangent", "arc_normal", "from_cartesian", "local_center_distance", "local_frame",
        "to_cartesian",
    ), "geometry"),
    **dict.fromkeys((
        "FieldHandle", "LaminarParams", "ScalarFieldHandle", "advection", "analytic_laplacian",
        "laminar_field", "profile_h", "profile_h_prime", "stationary_gradp_ansatz",
        "stationary_gradp_field",
    ), "field"),
    **dict.fromkeys((
        "ExtrapolationResult", "StencilSpec", "fd_advection", "fd_divergence", "fd_gradient",
        "fd_laplacian", "richardson",
    ), "fdops"),
    **dict.fromkeys((
        "BoundTolerances", "FlowClass", "Polyline", "TraceConfig", "ZetaReport", "classify_flow",
        "default_trace_config", "eta_ratio", "poincare_L", "trace_pressure_line",
        "trace_streamline", "zeta_check",
    ), "tracing"),
    **dict.fromkeys((
        "Theorem1Report", "Theorem2Report", "theorem1_mismatch", "theorem1_verify",
        "theorem2_limit", "theorem2_ratio",
    ), "theorems"),
    **dict.fromkeys((
        "ExperimentReport", "SimConfig", "SimState", "init_sim", "probe_diagnostics",
        "run_experiment", "step",
    ), "nssim"),
}

__all__ = list(_EXPORTS)


def _load(name: str):
    """The module ``name``, imported on first use: ``".tracing"`` is a submodule,
    ``"fractions"`` a standard-library module.  Its seconds add to
    ``_late_import_s``, which the CLI counts in the import stage of each report.
    """
    global _late_import_s
    t0 = _time.perf_counter()
    module = _import_module(name, __name__)
    _late_import_s += _time.perf_counter() - t0
    return module


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(f".{module}"), name)
    return value
