"""Discrete Riesz energies, dimension estimation, and distance-set reports.

The public names live in the submodules listed in ``_EXPORTS``. A name is
served from its submodule on first use (PEP 562), so ``import rieszdim``
loads no submodule and ``rieszdim.distance_set`` loads only ``sets`` and
what it imports (``cloud``, ``errors``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "balls": (
        "BallEnergyResult",
        "BallMeasureParams",
        "BallPrediction",
        "ball_energy_numeric",
        "ball_energy_predicted",
        "ball_self_energy_exact",
    ),
    "cantor": ("CantorFactor", "CantorSpec", "cantor_profile"),
    "cloud": ("PointCloud", "read_csv", "write_csv"),
    "energy": (
        "discrete_energy",
        "discrete_energy_multi",
        "energy_profile",
        "profile_from_family",
        "riesz_potential_discrete",
        "truncated_energy",
    ),
    "errors": (
        "DimensionMismatch",
        "DuplicatePoints",
        "HypothesisViolated",
        "NonFiniteResult",
        "NoTransition",
        "OracleUnavailable",
        "RieszdimError",
        "SizeCapExceeded",
        "TargetUnreachable",
        "TooFewPoints",
        "UnsupportedDimension",
        "UnsupportedVariant",
        "WindowTooSmall",
    ),
    "estimator": (
        "DimensionEstimate",
        "adaptability_slopes",
        "default_window",
        "dimension_estimate",
        "variance_blowup_scan",
    ),
    "families": ("EnergyProfile", "grid_1d_profile", "lattice_profile"),
    "generators": (
        "EnergyTargetSpec",
        "cantor_dimension",
        "cantor_points",
        "cantor_prefix_sizes",
        "energy_sequence_points",
        "grid_1d",
        "lattice",
        "semicircle_phase_points",
    ),
    "measures": (
        "CantorProduct",
        "Empirical",
        "RotatingSemicircle",
        "UniformCircle",
        "UniformCube",
        "measure_from_json",
        "measure_to_json",
        "reference_energy",
        "reference_energy_method",
        "sample",
    ),
    "sets": ("ValueSet", "distance_set", "dot_product_set", "erdos_report"),
    "stats": (
        "ExperimentReport",
        "expectation_experiment",
        "replicate_energies",
        "slln_path",
        "wlln_exceedance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
