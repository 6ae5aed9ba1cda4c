"""Discrete Riesz energies, dimension estimation, and distance-set reports."""

from .cloud import PointCloud, read_csv, write_csv
from .energy import (
    EnergyProfile,
    discrete_energy,
    discrete_energy_multi,
    energy_profile,
    profile_from_family,
    riesz_potential_discrete,
    truncated_energy,
)
from .errors import (
    DimensionMismatch,
    DuplicatePoints,
    HypothesisViolated,
    NonFiniteResult,
    NoTransition,
    OracleUnavailable,
    RieszdimError,
    SizeCapExceeded,
    TargetUnreachable,
    TooFewPoints,
    UnsupportedDimension,
    UnsupportedVariant,
    WindowTooSmall,
)
from .estimator import (
    DimensionEstimate,
    adaptability_slopes,
    default_window,
    dimension_estimate,
    variance_blowup_scan,
)
from .generators import (
    CantorFactor,
    CantorSpec,
    EnergyTargetSpec,
    cantor_dimension,
    cantor_points,
    cantor_prefix_sizes,
    energy_sequence_points,
    grid_1d,
    lattice,
    semicircle_phase_points,
)
from .measures import (
    BallEnergyResult,
    BallMeasureParams,
    BallPrediction,
    CantorProduct,
    Empirical,
    RotatingSemicircle,
    UniformCircle,
    UniformCube,
    ball_energy_numeric,
    ball_energy_predicted,
    ball_self_energy_exact,
    measure_from_json,
    measure_to_json,
    reference_energy,
    reference_energy_method,
    sample,
)
from .sets import ValueSet, distance_set, dot_product_set, erdos_report
from .stats import (
    ExperimentReport,
    expectation_experiment,
    replicate_energies,
    slln_path,
    wlln_exceedance,
)

__version__ = "0.1.0"
