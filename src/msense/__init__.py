"""Factorized gradient descent laboratory for noisy low-rank matrix sensing
with over-specified rank."""

from types import ModuleType as _ModuleType

from .errors import DivergenceError, InputError, NumericError
from .harness import (
    ExperimentConfig,
    InitSpec,
    PhaseReport,
    SweepResult,
    Trajectory,
    detect_phases,
    run_experiment,
    sample_contraction,
    sweep,
)
from .linalg import as_symmetric, orthonormalize, spectral_norm
from .problem import (
    GroundTruth,
    SensingSet,
    generate_ground_truth,
    generate_sensing,
)
from .subspace import (Decomposition, InitReport, IterateMetrics, check_initialization, decompose,
                       eps_stat, loss_value, op_MU, op_MV, planted_init, population_gradient,
                       random_init, region_sample, spectral_init, theory_step_size,
                       verify_population_contraction)

__version__ = "0.1.0"

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
