"""The package's public names, pinned: a removal or a new re-export changes
this list on purpose, never as a side effect."""

import msense

# No submodule is listed: importing one is not exporting it.
PUBLIC = [
    "Decomposition", "DerivedScales", "DivergenceError", "ExperimentConfig", "GroundTruth",
    "InitReport", "InitSpec", "InputError", "IterateMetrics", "NumericError", "PhaseReport",
    "SensingSet", "SweepResult", "Trajectory", "as_symmetric", "check_initialization",
    "decompose", "derived_scales", "detect_phases", "generate_ground_truth", "generate_sensing",
    "loss_value", "op_MU", "op_MV", "orthonormalize", "planted_init", "population_gradient",
    "random_init", "region_sample", "run_experiment", "spectral_init", "spectral_norm", "sweep",
    "theory_step_size", "verify_population_contraction", "verify_sample_contraction",
]


def test_public_names_are_pinned():
    assert sorted(msense.__all__) == PUBLIC

