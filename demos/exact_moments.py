"""
Exact stationary moments of a branching process with immigration
================================================================

A subcritical chain X_k = sum of broods of X_{k-1} plus immigration has a
unique stationary law. Its Kronecker moments up to order three solve small
linear systems; no simulation is involved anywhere in this script.
"""

import numpy as np

from bpagg import (
    Bernoulli,
    BranchingModel,
    IndependentMarginals,
    Poisson,
    moment_report,
)

np.set_printoptions(precision=6, suppress=True)

# the classic scalar example: each individual survives with probability 1/2
# (bernoulli thinning) and a poisson(1) number of immigrants arrives per step
scalar = BranchingModel(
    1,
    (IndependentMarginals([Bernoulli(0.5)]),),
    IndependentMarginals([Poisson(1.0)]),
)
report = moment_report(scalar)
print("scalar model: bernoulli(0.5) offspring, poisson(1) immigration")
print("  rho        ", report.rho)
print("  mean       ", report.mean)              # 2 = 1 / (1 - 0.5)
print("  E X^2      ", report.kron2)             # 6
print("  E X^3      ", report.kron3)             # 22
print("  V          ", report.v.ravel())         # 1.5
print("  var(X_0)   ", report.var0.ravel())      # 2
print("  sigma      ", report.sigma.ravel())     # 6 = V / (1 - rho)^3 here
print()

# a two-type model; offspring means form the matrix [[0.3, 0.2], [0.1, 0.4]]
two_type = BranchingModel(
    2,
    (
        IndependentMarginals([Bernoulli(0.3), Bernoulli(0.1)]),
        IndependentMarginals([Bernoulli(0.2), Bernoulli(0.4)]),
    ),
    IndependentMarginals([Poisson(1.0), Poisson(2.0)]),
)
report = moment_report(two_type)
print("two-type model")
print("  rho        ", report.rho)
print("  mean       ", report.mean)
print("  var(X_0)\n", report.var0)
print("  sigma\n", report.sigma)

# every report carries self-check residuals: the Lyapunov defect of var(X_0),
# the gap between the two independent variance routes (second Kronecker
# moment vs noise accumulation), the defect of the decomposition
# M (I-M)^-1 var + var + var (I-M^T)^-1 M^T = sigma, the relative
# fixed-point defect of the third Kronecker moment, and the condition
# number of I - M that every solve through (I - M)^-1 inherits
print("  residuals  ", report.residuals)
