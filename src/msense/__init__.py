"""Factorized gradient descent laboratory for noisy low-rank matrix sensing
with over-specified rank."""

from .errors import DivergenceError, InputError, NumericError
from .gradient import (
    deviation_matrix,
    loss_value,
    op_MU,
    op_MV,
    population_gradient,
    sample_gradient,
    theory_step_size,
)
from .harness import (
    ExperimentConfig,
    InitSpec,
    PhaseReport,
    SweepResult,
    Trajectory,
    detect_phases,
    run_experiment,
    sweep,
)
from .linalg import (
    as_symmetric,
    frobenius_norm,
    orthonormalize,
    spectral_norm,
)
from .problem import (
    GroundTruth,
    SensingSet,
    generate_ground_truth,
    generate_sensing,
    inner_product,
)
from .subspace import (
    Decomposition,
    DerivedScales,
    InitReport,
    IterateMetrics,
    check_initialization,
    decompose,
    derived_scales,
    planted_init,
    random_init,
    region_sample,
    spectral_init,
    verify_population_contraction,
    verify_sample_contraction,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
