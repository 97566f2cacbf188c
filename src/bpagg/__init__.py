"""Moments and aggregation limits of subcritical branching processes with immigration.

The package computes exact stationary moments (orders one to three), the
innovation noise matrix, autocovariances and the covariance of space-time
aggregation limits for multitype Galton-Watson processes with immigration,
and verifies the limit theorems by reproducible Monte Carlo.
"""

from .kronalg import (
    commutation_matrix,
    spectral_radius,
    mode_product,
    tensor_fixed_point,
    lyapunov_solve,
    NotSubcriticalError,
)
from .model import (
    Poisson,
    Bernoulli,
    Binomial,
    Geometric,
    Point,
    FiniteSupport,
    IndependentMarginals,
    BranchingModel,
    Classification,
    mean_matrix,
    validate,
    model_from_json,
    model_to_json,
    load_model,
    model_digest,
)
from .moments import (
    TransferMatrices,
    MomentReport,
    build_transfer,
    stationary_moments,
    noise_matrix,
    stationary_variance,
    autocovariance,
    limit_covariance,
    moment_report,
)
from .simulate import (
    PathEnsemble,
    AggregateSeries,
    SimulationOverflowError,
    step,
    simulate_path,
    simulate_ensemble,
    aggregate,
    extract_innovations,
    burnin_auto,
    stream_rng,
    derived_seed,
)
from .verify import (
    VerificationReport,
    ergodic_check,
    clt_covariance_experiment,
    iterated_experiment,
    autocovariance_check,
    innovation_diagnostics,
    bands_overlap,
)
from .ginar import (
    GinarSpec,
    embed,
    characteristic_polynomial,
    ginar_classify,
    v_ginar,
    scalar_limit_std,
    ginar_from_json,
    ginar_to_json,
    load_ginar,
    ginar_from_means,
)

__version__ = "0.1.0"
