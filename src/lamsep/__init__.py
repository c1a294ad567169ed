"""lamsep: laminar flow next to a curved wall, verified numerically.

A library (plus the ``lamsep`` CLI) that builds the parallel shear flow
around a constant-curvature no-slip wall, checks every closed form against
finite-difference oracles, quantifies why no such flow can be stationary,
extrapolates the negative near-wall material-derivative limit, and runs a
desk-scale unsteady Navier-Stokes experiment on an annular sector exhibiting
the predicted near-wall deceleration.  The analysis is pure Python; only the
sector solver (:mod:`lamsep.nssim`, loaded on first use) needs numpy.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CriticalPoint,
    Diverged,
    DomainError,
    LamsepError,
    NoCrossing,
    NoIntersection,
    NonMonotoneSequence,
    OutOfChart,
    ParseError,
    PointBelowWall,
    ProbeOutsideGrid,
    StagnationEncountered,
    ValidationError,
    WallGradientMismatch,
)
from .geometry import (
    ArcBoundary,
    LocalFrame,
    NormalPoint,
    arc_point,
    arc_segment_length,
    arc_tangent,
    arc_normal,
    from_cartesian,
    local_center_distance,
    local_frame,
    to_cartesian,
)
from .field import (
    FieldHandle,
    LaminarParams,
    ScalarFieldHandle,
    advection,
    analytic_laplacian,
    laminar_field,
    profile_h,
    profile_h_prime,
    stationary_gradp_ansatz,
    stationary_gradp_field,
)
from .fdops import (
    ExtrapolationResult,
    StencilSpec,
    fd_advection,
    fd_divergence,
    fd_gradient,
    fd_laplacian,
    richardson,
)
from .tracing import (
    BoundTolerances,
    FlowClass,
    Polyline,
    TraceConfig,
    ZetaReport,
    classify_flow,
    default_trace_config,
    eta_ratio,
    poincare_L,
    trace_pressure_line,
    trace_streamline,
    zeta_check,
)
from .theorems import (
    Theorem1Report,
    Theorem2Report,
    theorem1_mismatch,
    theorem1_verify,
    theorem2_limit,
    theorem2_ratio,
)

# Only ``simulate`` needs the sector solver, so its names resolve on first use
# (PEP 562) instead of at ``import lamsep``.
_NSSIM_EXPORTS = (
    "ExperimentReport",
    "SimConfig",
    "SimState",
    "init_sim",
    "measure_ratio",
    "probe_diagnostics",
    "run_experiment",
    "step",
)


def __getattr__(name):
    if name in _NSSIM_EXPORTS:
        from . import nssim

        return getattr(nssim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + list(_NSSIM_EXPORTS)
