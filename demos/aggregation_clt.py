"""
Space-time aggregation and its Gaussian limit
=============================================

Summing N independent copies of the chain over the first nt steps and
scaling by (nN)^(-1/2) gives, as both N and n grow, a Brownian motion with
covariance t * sigma, sigma = (I-M)^-1 V (I-M^T)^-1. This demo estimates
the aggregate covariance from replicated ensembles and compares it to the
exact limit, then shows that the two iterated limits (N first or n first)
settle on the same value.
"""

from bpagg import (
    Bernoulli,
    BranchingModel,
    IndependentMarginals,
    Poisson,
    bands_overlap,
    clt_covariance_experiment,
    iterated_experiment,
    limit_covariance,
)

model = BranchingModel(
    1,
    (IndependentMarginals([Bernoulli(0.5)]),),
    IndependentMarginals([Poisson(1.0)]),
)
print("exact limit covariance sigma =", limit_covariance(model)[0, 0])
print()

# simultaneous limit: 400 replications of an ensemble with N = 20 copies of
# n = 150 steps, compared at grid times 0.5 and 1.0
report = clt_covariance_experiment(model, n=150, N=20, reps=400, grid=(0.5, 1.0), seed=1)
print("aggregate covariance across 400 replications:")
for row in report.rows:
    print("  t = %.1f: empirical %.3f  target %.3f  z = %+.2f"
          % (row["t"], row["empirical"], row["target"], row["z"]))
for entry in report.extra["ks"]:
    print("  KS normality at t = %.1f: %.4f (threshold %.4f)"
          % (entry["t"], entry["stat"], entry["threshold"]))
inc = report.extra["increments"][0]
print("  increment cross-covariance (0, .5] vs (.5, 1]: %+.4f (z = %+.2f)"
      % (inc["empirical"], inc["z"]))
print("  all bands pass:", report.passed)
print()

# iterated limits: hold the inner size fixed and sweep the outer one; the
# covariance trajectory should settle at t * sigma either way round
by_N = iterated_experiment(model, n=120, N=800, order="N_first", sweep=[30, 60, 120], seed=2)
by_n = iterated_experiment(model, n=120, N=800, order="n_first", sweep=[200, 400, 800], seed=2)
print("N-first trajectory (N = 800 copies, horizon sweeps up):")
for point in by_N.extra["sweep"]:
    row = point["rows"][0]
    print("  n = %4d: %.3f" % (point["n"], row["empirical"]))
print("n-first trajectory (n = 120 steps, copy count sweeps up):")
for point in by_n.extra["sweep"]:
    row = point["rows"][0]
    print("  N = %4d: %.3f" % (point["N"], row["empirical"]))
print("final bands overlap:", bands_overlap(by_N, by_n))
