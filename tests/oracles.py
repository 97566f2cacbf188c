"""Exact laws that tests compare simulation against, computed from the
probability generating functions of the laws alone, or for a Poisson law
in closed form, never from bpagg; and the KS distance of draws to them.

A scalar branching process with offspring pgf f and immigration pgf g,
started at zero, is the sum of independent Galton-Watson cohorts, one born
from each step's immigrants (Heathcote 1965). At step n the cohort born at
step n - k is k generations on, and k generations of one individual's tree
have pgf f^(k), the k-fold composition of f; so X_n has pgf
prod_(k=0..n-1) g(f^(k)(z)). The cohort born at step t counts its
generations 0 .. m - t in S_m = X_1 + ... + X_m, and the total of
generations 0 .. k - 1 of a tree started by one individual has pgf phi_k,
with phi_0 = 1 and phi_k(z) = z f(phi_(k-1)(z)): the individual counts one,
and each child adds the first k - 1 generations of its own tree. So S_m has
pgf prod_(k=1..m) g(phi_k(z)).
"""

import math

import numpy as np

# radii r > 1 at which a Chernoff bound on a tail is tried, 1 + 1e-4 to 11
_RADII = 1.0 + np.logspace(-4, 1, 41)


def running_sum_pgf(f, g, m, z):
    """E z^(S_m) at the points z (a numpy array) for offspring pgf f and
    immigration pgf g, both numpy functions of an array."""
    phi = np.ones_like(z)
    total = np.ones_like(z)
    for _ in range(m):
        phi = z * f(phi)
        total = total * g(phi)
    return total


def state_pgf(f, g, n, z):
    """E z^(X_n) at the points z for X_0 = 0, with f and g as in
    running_sum_pgf."""
    fk = z  # f^(k)(z)
    total = np.ones_like(z)
    for _ in range(n):
        total = total * g(fk)
        fk = f(fk)
    return total


def _law(pgf, K):
    """(pmf, tail): the law on 0 .. K - 1 of the count whose pgf is pgf, and
    a bound on its mass at K and beyond.

    The pgf is evaluated at the K-th roots of unity and inverted by one FFT,
    which folds the mass at k + K, k + 2K, ... onto k; so every entry of
    pmf, and every value of its distribution function, is off by at most
    the mass beyond K. That mass is bounded by Chernoff, P(X >= K) <=
    E r^X / r^K for every r > 1, the least over _RADII. The pgf must be
    the law's at every real r, as the entire pgfs of Bernoulli and Poisson
    laws and their compositions are; a radius at which a value overflows
    bounds nothing.
    """
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    pmf = np.fft.fft(pgf(roots)).real / K
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = pgf(_RADII) / _RADII ** K
    return pmf, float(np.min(bounds[np.isfinite(bounds)], initial=np.inf))


def running_sum_law(f, g, m, K):
    """(pmf, tail): the law of S_m on 0 .. K - 1 and a bound on P(S_m >= K),
    as _law gives them."""
    return _law(lambda z: running_sum_pgf(f, g, m, z), K)


def state_law(f, g, n, K):
    """(pmf, tail): the law of X_n from zero on 0 .. K - 1 and a bound on
    P(X_n >= K), as _law gives them."""
    return _law(lambda z: state_pgf(f, g, n, z), K)


def poisson_pmf(mean, K):
    """The Poisson(mean) pmf on 0 .. K - 1, exp(k log mean - mean - log k!)."""
    k = np.arange(K)
    return np.exp(k * math.log(mean) - mean - np.array([math.lgamma(i + 1) for i in k]))


def ks_distance(sample, pmf):
    """Kolmogorov-Smirnov distance of integer draws to the law pmf on 0 ..
    len(pmf) - 1: both distribution functions step at the integers, so the
    largest gap is at one of them. A draw past the support is refused."""
    sample = np.asarray(sample)
    if sample.min() < 0 or sample.max() >= len(pmf):
        raise ValueError("draws outside 0 .. %d" % (len(pmf) - 1))
    emp = np.cumsum(np.bincount(sample, minlength=len(pmf))) / len(sample)
    return float(np.max(np.abs(emp - np.cumsum(pmf))))
