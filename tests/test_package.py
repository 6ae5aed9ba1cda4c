import importlib
import subprocess
import sys

import pytest

import rieszdim as rd

# The public names of the package, by the submodule that defines them.
PUBLIC = {
    "balls": "BallEnergyResult BallMeasureParams BallPrediction ball_energy_numeric "
    "ball_energy_predicted ball_self_energy_exact",
    "cloud": "PointCloud read_csv write_csv",
    "energy": "EnergyProfile discrete_energy discrete_energy_multi energy_profile "
    "grid_1d_profile profile_from_family riesz_potential_discrete truncated_energy",
    "errors": "DimensionMismatch DuplicatePoints HypothesisViolated NonFiniteResult "
    "NoTransition OracleUnavailable RieszdimError SizeCapExceeded TargetUnreachable "
    "TooFewPoints UnsupportedDimension UnsupportedVariant WindowTooSmall",
    "estimator": "DimensionEstimate adaptability_slopes default_window dimension_estimate "
    "variance_blowup_scan",
    "generators": "CantorFactor CantorSpec EnergyTargetSpec cantor_dimension cantor_points "
    "cantor_prefix_sizes energy_sequence_points grid_1d lattice semicircle_phase_points",
    "measures": "CantorProduct Empirical RotatingSemicircle UniformCircle UniformCube "
    "measure_from_json measure_to_json reference_energy reference_energy_method sample",
    "sets": "ValueSet distance_set dot_product_set erdos_report",
    "stats": "ExperimentReport expectation_experiment replicate_energies slln_path "
    "wlln_exceedance",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


@pytest.mark.parametrize("module, name", NAMES)
def test_public_name_is_the_submodule_object(module, name):
    home = importlib.import_module("rieszdim." + module)
    assert getattr(rd, name) is getattr(home, name)


@pytest.mark.parametrize("name", PUBLIC["balls"].split() + ["unit_ball_surface", "unit_ball_volume"])
def test_ball_name_has_one_home(name):
    # ``balls`` defines the ball-measure names; ``measures`` serves none of them
    assert hasattr(importlib.import_module("rieszdim.balls"), name)
    with pytest.raises(AttributeError):
        getattr(importlib.import_module("rieszdim.measures"), name)


def test_dir_and_star_import_list_every_public_name():
    names = {name for _, name in NAMES}
    assert names <= set(dir(rd))
    star = {}
    exec("from rieszdim import *", star)
    assert names <= set(star)
    assert rd.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rd.no_such_name
    assert not hasattr(rd, "no_such_name")


def test_import_loads_no_submodule():
    code = "import sys, rieszdim; print(sorted(m for m in sys.modules if m.startswith('rieszdim')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['rieszdim']"
