"""Moments and aggregation limits of subcritical branching processes with immigration.

The package computes exact stationary moments (orders one to three), the
innovation noise matrix, autocovariances and the covariance of space-time
aggregation limits for multitype Galton-Watson processes with immigration,
and verifies the limit theorems by reproducible Monte Carlo.

Every public name below is importable from the package itself, and its
submodule is imported on first use of the name (PEP 562): ``import bpagg``
loads no submodule, and ``bpagg.load_model`` followed by ``bpagg.validate``
loads only ``bpagg.model`` and ``bpagg.kronalg``. A submodule is also
reachable as an attribute, ``bpagg.simulate`` for example.
"""

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "kronalg": (
        "spectral_radius",
        "mode_product",
        "tensor_fixed_point",
        "lyapunov_solve",
        "NotSubcriticalError",
    ),
    "model": (
        "Poisson",
        "Bernoulli",
        "Binomial",
        "Geometric",
        "Point",
        "FiniteSupport",
        "IndependentMarginals",
        "BranchingModel",
        "Classification",
        "SimulationOverflowError",
        "mean_matrix",
        "validate",
        "model_from_json",
        "model_to_json",
        "load_model",
        "model_digest",
    ),
    "moments": (
        "TransferMatrices",
        "MomentReport",
        "build_transfer",
        "stationary_moments",
        "noise_matrix",
        "stationary_variance",
        "autocovariance",
        "limit_covariance",
        "moment_report",
    ),
    "simulate": (
        "PathEnsemble",
        "simulate_path",
        "simulate_ensemble",
        "aggregate",
        "extract_innovations",
        "burnin_auto",
        "stream_rng",
        "derived_seed",
    ),
    "verify": (
        "VerificationReport",
        "ergodic_check",
        "clt_covariance_experiment",
        "iterated_experiment",
        "autocovariance_check",
        "innovation_diagnostics",
        "bands_overlap",
    ),
    "ginar": (
        "GinarSpec",
        "embed",
        "characteristic_polynomial",
        "ginar_classify",
        "v_ginar",
        "scalar_limit_std",
        "ginar_from_json",
        "ginar_to_json",
        "load_ginar",
        "ginar_from_means",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name from its submodule, kept here once imported, or a
    submodule by its name."""
    if name not in _EXPORTS and name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # as `from . import module` imports it, which -X importtime reports and
    # importlib.import_module does not
    module = __import__(_HOME.get(name, name), globals(), fromlist=["*"], level=1)
    if name in _EXPORTS:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
