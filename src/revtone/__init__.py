"""Numerics for the geodesic and spectral structure of convex surfaces
of revolution: action variables, separated eigenproblems, equator
measures, and their explicit weak-* limits.
"""
from .config import RunConfig, load_config, parse_config
from .expr import parse_expr
from .actions import (
    ActionEvaluator,
    SymbolFn,
    action_I2,
    angular_symbol,
    dI2_dE,
    di2_drho_fd,
    energy_K,
    frequencies,
    limit_density_unnorm,
    liouville_state,
    normalization_M,
    radial_symbol,
    torus_average,
    turning_points,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateMeasureError,
    DegenerateTorusError,
    ExprError,
    InvalidParameterError,
    LabelingError,
    OutsideMomentImageError,
    OutsideOpenIntervalError,
    PlateauWarning,
    RejectedProfileError,
    ResolutionError,
    RevtoneError,
    SignedMeasureError,
)
from .measures import (
    ConvergenceReport,
    EmpiricalMeasure,
    LimitMeasure,
    convergence_sweep,
    empirical_mu,
    empirical_nu,
    ks_distance,
    limit_measure_mu,
    limit_measure_nu,
    wasserstein1,
)
from .spectral import (
    JointSlice,
    RadialMode,
    ebk_residual,
    joint_slice,
    radial_modes,
    restricted_norm,
)
from .surface import (
    SurfaceProfile,
    ValidationReport,
    load_profile_table,
    make_custom,
    make_ellipsoid,
    make_round_sphere,
    validate_profile,
)

__version__ = "0.1.0"
