"""The package's public names, pinned: a removal or a new re-export changes
this list on purpose, never as a side effect."""

import msense

PUBLIC = [
    "Decomposition", "DerivedScales", "DivergenceError", "ExperimentConfig", "GroundTruth",
    "InitReport", "InitSpec", "InputError", "IterateMetrics", "NumericError", "PhaseReport",
    "SensingSet", "SweepResult", "Trajectory", "as_symmetric", "check_initialization", "csvio",
    "decompose", "derived_scales", "detect_phases", "errors", "generate_ground_truth",
    "generate_sensing", "gradient", "harness", "linalg", "loss_value", "op_MU", "op_MV",
    "orthonormalize", "planted_init", "population_gradient", "problem", "random_init",
    "region_sample", "rng", "run_experiment", "spectral_init", "spectral_norm", "subspace",
    "sweep", "theory_step_size", "verify_population_contraction", "verify_sample_contraction",
]


def test_public_names_are_pinned():
    assert sorted(msense.__all__) == PUBLIC

