"""Continuous-time Kalman-Bucy filtering laboratory.

Numerical evidence for filter stability with noise-free dynamics: Riccati
stability against its exact solution, almost-sure convergence of mismatched
filter means, asymptotic proximity of the optimal filter under Gaussian-mixture
initial conditions, and the small system-noise limit.
"""

__version__ = "0.1.0"

from .model import (
    ConfigError,
    ExperimentConfig,
    LtvModel,
    ModelValidationError,
    constant_model,
    parse_config,
    periodic_model,
    rotation_damped_model,
    serialize_config,
    validate_config,
)
from .propagate import (
    MatrixPath,
    UcoEstimate,
    accumulated_information,
    closed_loop_propagator,
    fundamental_matrix,
    make_grid,
    psi_decay_integral,
    uco_gramian,
)
from .riccati import (
    RiccatiSolution,
    closed_form_dre,
    covariance_gap,
    error_factorization_check,
    integrate_dre,
)
from .simulate import (
    ObservationPath,
    RngStream,
    draw_initial_state,
    generate_observation_path,
)
from .kalman import (
    FilterRun,
    mean_decomposition_diagnostics,
    mismatched_pair,
    run_filter,
)
from .nongaussian import (
    MergingReport,
    MixturePosterior,
    bank_oracle,
    integrate_extended_system,
    merging_report,
    mixture_filter,
)
from .smallnoise import (
    EpsilonSweep,
    epsilon_sweep,
    exponential_stability_estimate,
    fit_scaling,
)
