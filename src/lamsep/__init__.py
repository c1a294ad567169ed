"""lamsep: laminar flow next to a curved wall, verified numerically.

A library (plus the ``lamsep`` CLI) that builds the parallel shear flow
around a constant-curvature no-slip wall, checks every closed form against
finite-difference oracles, quantifies why no such flow can be stationary,
extrapolates the negative near-wall material-derivative limit, and runs a
desk-scale unsteady Navier-Stokes experiment on an annular sector exhibiting
the predicted near-wall deceleration.  The analysis is pure Python; only the
sector solver (:mod:`lamsep.nssim`) needs numpy.

``import lamsep`` loads nothing else: each public name below resolves on first
use (PEP 562), so a program, and each ``lamsep`` command, loads only the
modules it runs.  The records (``ArcBoundary``, ``LaminarParams``,
``SimConfig``, the reports, ...) are ``typing.NamedTuple``s: immutable,
compared by value, and copied with changes by ``record._replace(field=value)``;
the ones with invariants check them on construction and in ``_replace``.
"""

import time as _time

_IMPORT_START = _time.perf_counter()  # the import stage of each report.json starts here

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ConfigError", "CriticalPoint", "Diverged", "DomainError", "LamsepError", "NoCrossing",
        "NoIntersection", "NonMonotoneSequence", "OutOfChart", "ParseError", "PointBelowWall",
        "ProbeOutsideGrid", "StagnationEncountered", "ValidationError", "WallGradientMismatch",
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


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
