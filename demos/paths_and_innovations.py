"""
Simulated paths and innovation diagnostics
==========================================

Paths are exact draws from the chain: every individual's brood is sampled,
so no approximation enters. The innovations U_k = X_k - M X_{k-1} - m_eps
are one-step prediction errors; their second moments are checked against
the exact noise matrix V, globally and conditionally on the previous state.
"""

import numpy as np

from bpagg import (
    Bernoulli,
    BranchingModel,
    IndependentMarginals,
    Poisson,
    innovation_diagnostics,
    simulate_path,
    stream_rng,
)

np.set_printoptions(precision=4, suppress=True)

model = BranchingModel(
    1,
    (IndependentMarginals([Bernoulli(0.5)]),),
    IndependentMarginals([Poisson(1.0)]),
)

# burn-in 'auto' runs the fewest discarded steps that put the whole path
# within total variation 1e-6 of a stationary one
path = simulate_path(model, 50_000, stream_rng(7, 0), burnin="auto")
print("simulated", path.shape[0] - 1, "steps; first ten states:", path[1:11, 0])
print("time-average mean %.4f (exact 2.0)" % path[1:, 0].mean())
print()

# the diagnostics compare E(U U^T) to V with batch-mean standard errors and
# bucket the conditional second moment by the previous state, where the
# exact target is affine: x * var(offspring) + var(immigration)
report = innovation_diagnostics(model, path)
row = report.rows[0]
print("global second moment %.4f vs V = %.2f (z = %.2f)"
      % (row["empirical"], row["target"], row["z"]))
print()
print("conditional second moment by previous state (x * 0.25 + 1):")
print("  state  count  empirical  target     z")
for bucket in report.extra["buckets"][:8]:
    entry = bucket["entries"][0]
    print("  %5d  %5d  %9.4f  %6.4f  %+.2f"
          % (bucket["state"][0], bucket["count"],
             entry["empirical"], entry["target"], entry["z"]))
print()
print("all bands pass:", report.passed)
