"""The package's public names, pinned: a removal or a new re-export changes
this list on purpose, never as a side effect."""

import pkgutil

import msense

# No submodule is listed: importing one is not exporting it.
PUBLIC = [
    "Decomposition", "DivergenceError", "ExperimentConfig", "GroundTruth", "InitReport",
    "InitSpec", "InputError", "IterateMetrics", "NumericError", "PhaseReport", "SensingSet",
    "SweepResult", "Trajectory", "as_symmetric", "check_initialization", "decompose",
    "detect_phases", "eps_stat", "generate_ground_truth", "generate_sensing",
    "loss_value", "op_MU", "op_MV", "orthonormalize", "planted_init", "population_gradient",
    "random_init", "region_sample", "run_experiment", "sample_contraction", "spectral_init",
    "spectral_norm", "sweep", "theory_step_size", "verify_population_contraction",
]


def test_public_names_are_pinned():
    assert sorted(msense.__all__) == PUBLIC



# A module appears or goes on purpose, never as a side effect.
MODULES = ["cli", "concentration", "csvio", "errors", "figures", "harness", "linalg",
           "problem", "rng", "subspace", "svgplot"]


def test_module_list_is_pinned():
    assert sorted(m.name for m in pkgutil.iter_modules(msense.__path__)) == MODULES
