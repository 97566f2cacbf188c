"""Exact stationary moments of subcritical branching with immigration.

For X_k = sum_i sum_{l <= X_{k-1,i}} xi^(i)_l + eps_k with offspring mean
matrix M (column i is the mean brood of type i) and immigration mean m_eps,
conditional Kronecker moments satisfy a linear recursion

    E[(X_k; X_k^(x)2; X_k^(x)3) | X_{k-1}]
        = A (X_{k-1}; X_{k-1}^(x)2; X_{k-1}^(x)3) + b,

where A is block lower triangular with diagonal blocks M, M^(x)2, M^(x)3.
Stationary moments follow block by block:

    mean  = (I - M)^-1 m_eps
    kron2 = b2 + M^(x)2 kron2,   b2 = A21 mean + E eps^(x)2
    kron3 = b3 + M^(x)3 kron3,   b3 = A31 mean + A32 kron2 + E eps^(x)3

The production path keeps kron2 and kron3 as p x p and p x p x p tensors:
M^(x)k acts as M along every axis, and kronalg.tensor_fixed_point solves
each fixed point by Smith doubling. The right-hand sides come from the
conditional moments of one generation. Given X_{k-1} = Y, the offspring sum
Z has mean M Y, covariance sum_i Y_i Cov(xi^(i)) and third cumulant
sum_i Y_i K3(xi^(i)), and immigration is independent of Z, so

    b2 = sum_i mean_i Cov(xi^(i)) + mu m_eps^T + m_eps mu^T + E eps^(x)2
    b3 = sum_i mean_i K3(xi^(i)) + sym(sum_i Cov(xi^(i)) (x) (M kron2)[:, i])
         + sym(E[Z Z^T] (x) m_eps) + sym(E eps^(x)2 (x) mu) + E eps^(x)3

with mu = M mean, E[Z Z^T] = sum_i mean_i Cov(xi^(i)) + M kron2 M^T and
sym(T) = T[a,b,c] + T[a,c,b] + T[b,c,a] summing the three slots of the
single factor. These are tensordot contractions at O(p^4) on arrays of at
most p^3 entries. Each law's table of each order comes from one call of its
kron_moment per report. The order-2 tables are stacked into one p x p x p
array, and the covariances are that stack minus the outer products of the
columns of M. The order-3 tables are contracted with the mean one law at a
time through K3 = E x^(x)3 - sym(E x x^T (x) m) + 2 m^(x)3, so no law's
third central moment is built.

build_transfer assembles the dense blocks A21, A31, A32 and the full a2/a3
matrices. Nothing on the production path calls it; it is kept as an
independent oracle for the tests.

The innovation noise matrix V, the stationary variance, lagged
autocovariances and the covariance of the aggregation limit all derive from
these moments. moment_report is the single route to all of them: it alone
validates the model, its mean is _stationary_mean's, at which
simulate.aggregate centers too, and stationary_moments, noise_matrix,
stationary_variance, autocovariance and limit_covariance are views on its
report. Its residuals show how well each route solved, next to cond(I - M),
the conditioning every solve through (I - M)^-1 inherits.
"""

from dataclasses import dataclass

import numpy as np

from .kronalg import (
    NotSubcriticalError,
    commutation_matrix,
    lyapunov_solve,
    mode_product,
    tensor_fixed_point,
)
from .model import _count, _regime, json_text, mean_matrix, validate

__all__ = [
    "TransferMatrices",
    "MomentReport",
    "build_transfer",
    "stationary_moments",
    "noise_matrix",
    "stationary_variance",
    "autocovariance",
    "limit_covariance",
    "moment_report",
]


@dataclass(frozen=True)
class TransferMatrices:
    """One-step moment transfer blocks.

    a2 maps (Y; Y^(x)2) and a3 maps (Y; Y^(x)2; Y^(x)3); both share the
    spectral radius of M because their diagonal blocks are Kronecker powers
    of M. a31, a32, a3 are None when built with max_order < 3.
    """

    a21: np.ndarray
    a2: np.ndarray
    a31: np.ndarray
    a32: np.ndarray
    a3: np.ndarray


def _law_tables(model, max_order):
    means = [law.mean() for law in model.offspring]
    seconds = [law.kron_moment(2) for law in model.offspring]
    thirds = None
    if max_order >= 3:
        thirds = [law.kron_moment(3) for law in model.offspring]
    return means, seconds, thirds


def build_transfer(model, max_order=3):
    """Assemble the transfer blocks from exact law moments.

    a21 column i is E[(xi^(i))^(x)2] - (E xi^(i))^(x)2 plus the cross terms
    of the brood with immigration in both slot orders. The order-3 blocks
    follow the same pattern over slot arrangements of two broods, a brood
    pair of the same type, and immigration.
    """
    if max_order not in (2, 3):
        raise ValueError("transfer order must be 2 or 3, got %r" % (max_order,))
    p = model.p
    M = mean_matrix(model)
    m_eps = model.immigration.mean()
    eps2 = model.immigration.kron_moment(2)
    means, seconds, thirds = _law_tables(model, max_order)

    a21 = np.zeros((p * p, p))
    for i in range(p):
        mi, si = means[i], seconds[i]
        a21[:, i] = si - np.kron(mi, mi) + np.kron(mi, m_eps) + np.kron(m_eps, mi)
    M2 = np.kron(M, M)
    a2 = np.block([[M, np.zeros((p, p * p))], [a21, M2]])

    if max_order < 3:
        return TransferMatrices(a21, a2, None, None, None)

    eps3 = model.immigration.kron_moment(3)
    PI = np.kron(commutation_matrix(p), np.eye(p))
    a31 = np.zeros((p ** 3, p))
    a32 = np.zeros((p ** 3, p * p))
    for i in range(p):
        mi, si, ti = means[i], seconds[i], thirds[i]
        mimi = np.kron(mi, mi)
        # two individuals of type i: slots (1,3) from one brood, slot 2 from the other
        mix_ii = PI @ np.kron(mi, si)
        # brood in slots (1,3), immigration in slot 2, and the reverse nesting
        mix_ie = PI @ np.kron(m_eps, si)
        mix_ei = PI @ np.kron(mi, eps2)
        a31[:, i] = (
            ti - np.kron(si, mi) - mix_ii - np.kron(mi, si) + 2.0 * np.kron(mimi, mi)
            + np.kron(si, m_eps) + mix_ie + np.kron(m_eps, si)
            - np.kron(mimi, m_eps) - np.kron(np.kron(mi, m_eps), mi) - np.kron(m_eps, mimi)
            + np.kron(mi, eps2) + mix_ei + np.kron(eps2, mi)
        )
        for j in range(p):
            mj = means[j]
            # independent broods of types i (slots 1,3) and j (slot 2)
            mix_ij = PI @ np.kron(mj, si)
            a32[:, i * p + j] = (
                np.kron(si, mj) + mix_ij + np.kron(mj, si)
                - np.kron(mimi, mj) - np.kron(np.kron(mi, mj), mi) - np.kron(mj, mimi)
                + np.kron(np.kron(mi, mj), m_eps) + np.kron(np.kron(mi, m_eps), mj)
                + np.kron(m_eps, np.kron(mi, mj))
            )
    M3 = np.kron(M2, M)
    a3 = np.block(
        [
            [M, np.zeros((p, p * p)), np.zeros((p, p ** 3))],
            [a21, M2, np.zeros((p * p, p ** 3))],
            [a31, a32, M3],
        ]
    )
    return TransferMatrices(a21, a2, a31, a32, a3)


def _sym3(t):
    """Sum of t over the three slots of its single factor; t[a, b, c] must be
    symmetric in (a, b), and the result is symmetric in all three axes."""
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


@dataclass
class MomentReport:
    """Bundle of exact stationary quantities plus self-check residuals.

    residuals carries 'lyapunov' (fixed-point defect of var0), 'route_gap'
    (normalized gap between var0 and the second-moment route
    reshape(kron2) - mean mean^T), 'limit_identity' (defect of the
    decomposition M (I-M)^-1 var0 + var0 + var0 (I-M^T)^-1 M^T = sigma) and
    'kron3' (fixed-point defect of kron3 = b3 + M^(x)3 kron3, relative to the
    largest entry of kron3), then 'cond', the 1-norm condition number
    |I - M|_1 |(I - M)^-1|_1 that every solve through (I - M)^-1 inherits.
    route_gap is None below order 2 and kron3 is None below order 3.

    offspring_cov stacks the offspring covariances Cov(xi^(i)) as a p x p x p
    array and immigration_cov is Cov(eps); the innovation checks read them,
    and neither is serialized.
    """

    mean: np.ndarray
    kron2: np.ndarray
    kron3: np.ndarray
    v: np.ndarray
    var0: np.ndarray
    sigma: np.ndarray
    rho: float
    residuals: dict
    offspring_cov: np.ndarray
    immigration_cov: np.ndarray

    def to_json_dict(self):
        return {
            "mean": self.mean.tolist(),
            "kron2": None if self.kron2 is None else self.kron2.tolist(),
            "kron3": None if self.kron3 is None else self.kron3.tolist(),
            "V": self.v.tolist(),
            "varX0": self.var0.tolist(),
            "sigma": self.sigma.tolist(),
            "rho": self.rho,
            "residuals": dict(self.residuals),
        }

    def to_json(self):
        return json_text(self.to_json_dict())


def _stationary_mean(model, M, rho):
    """The stationary mean (I - M)^-1 m_eps of a model whose mean matrix M has
    spectral radius rho; a model that is not subcritical or has zero
    immigration mean is refused first, with moment_report's messages."""
    if _regime(rho) != "subcritical":
        raise NotSubcriticalError(
            "stationary moments need a subcritical model, got rho = %.6g" % rho
        )
    m_eps = model.immigration.mean()
    if not np.any(m_eps > 0):
        raise ValueError("zero immigration mean, stationary law is degenerate at 0")
    return np.linalg.solve(np.eye(model.p) - M, m_eps)


def moment_report(model, max_order=3):
    """Compute every stationary quantity and its dual-route residuals.

    This is the only route to the stationary quantities: it validates the
    model, solves the mean (I - M) mean = m_eps once, and builds V, var0,
    sigma and the Kronecker moments from that mean. Requires a subcritical
    model with nontrivial immigration and max_order in {1, 2, 3}.
    """
    if max_order not in (1, 2, 3):
        raise ValueError("moment order must be 1, 2 or 3, got %r" % (max_order,))
    cls = validate(model)
    p = model.p
    M = mean_matrix(model)
    mean = _stationary_mean(model, M, cls.rho)
    A = np.eye(p) - M
    imm = model.immigration
    m_eps = imm.mean()
    eps2 = imm.kron_moment(2).reshape(p, p)
    imm_cov = eps2 - np.outer(m_eps, m_eps)
    # raw2[i] = E xi^(i) xi^(i)T, column i of M its mean
    raw2 = np.stack([law.kron_moment(2).reshape(p, p) for law in model.offspring])
    covs = raw2 - np.einsum("ai,bi->iab", M, M)
    brood_cov = np.tensordot(mean, covs, 1)
    V = imm_cov + brood_cov
    var0 = lyapunov_solve(M, V)
    sigma = np.linalg.solve(A, np.linalg.solve(A, V).T).T

    lyap = float(np.max(np.abs(var0 - V - M @ var0 @ M.T)))
    lhs = M @ np.linalg.solve(A, var0) + var0 + (M @ np.linalg.solve(A, var0.T)).T
    limit_identity = float(np.max(np.abs(lhs - sigma)))
    kron2 = kron3 = route_gap = kron3_defect = None
    if max_order >= 2:
        mu = M @ mean
        b2 = brood_cov + np.outer(mu, m_eps) + np.outer(m_eps, mu) + eps2
        k2 = tensor_fixed_point(M, b2)
        scale = max(float(np.max(np.abs(var0))), 1e-30)
        route_gap = float(np.max(np.abs(k2 - np.outer(mean, mean) - var0)) / scale)
        kron2 = k2.reshape(-1)
    if max_order == 3:
        # sum_i mean_i K3(xi^(i)) with K3 = raw3 - sym(raw2 (x) m) + 2 m^(x)3:
        # the raw tables are contracted with the mean one law at a time, and
        # the sym term joins pair[a, b, c], the factor in slots (a, b) and
        # the single factor in c
        pair = np.tensordot(covs, M @ k2.T, axes=([0], [1]))
        pair += np.multiply.outer(brood_cov + mode_product(M, k2), m_eps)
        pair += np.multiply.outer(eps2, mu)
        pair -= np.tensordot(mean[:, None, None] * raw2, M, axes=([0], [1]))
        b3 = 2.0 * np.tensordot((M * mean)[:, None, :] * M, M, axes=([2], [1]))
        for i, law in enumerate(model.offspring):
            b3 += mean[i] * law.kron_moment(3).reshape(p, p, p)
        b3 += _sym3(pair) + imm.kron_moment(3).reshape(p, p, p)
        k3 = tensor_fixed_point(M, b3)
        defect = np.max(np.abs(k3 - b3 - mode_product(M, k3)))
        kron3_defect = float(defect / max(float(np.max(np.abs(k3))), 1e-30))
        kron3 = k3.reshape(-1)

    return MomentReport(
        mean=mean,
        kron2=kron2,
        kron3=kron3,
        v=V,
        var0=var0,
        sigma=sigma,
        rho=cls.rho,
        residuals={
            "lyapunov": lyap,
            "route_gap": route_gap,
            "limit_identity": limit_identity,
            "kron3": kron3_defect,
            "cond": float(np.linalg.cond(A, 1)),
        },
        offspring_cov=covs,
        immigration_cov=imm_cov,
    )


def stationary_moments(model, max_order=3):
    """Stationary Kronecker moments (mean, kron2, kron3) up to max_order.

    kron2 and kron3 are flat vectors of length p**2 and p**3; entries beyond
    max_order are None.
    """
    r = moment_report(model, max_order)
    return r.mean, r.kron2, r.kron3


def noise_matrix(model):
    """Innovation noise matrix V.

    With U_k = X_k - M X_{k-1} - m_eps, conditional innovation covariances
    are affine in the previous state, and in the stationary regime

        V = E(U_k U_k^T) = sum_i mean_i Cov(xi^(i)) + Cov(eps),

    where mean is the stationary mean. V is symmetric positive semidefinite.
    """
    return moment_report(model, 1).v


def stationary_variance(model):
    """var(X_0) under stationarity, the Lyapunov fixed point S = V + M S M^T."""
    return moment_report(model, 1).var0


def autocovariance(model, lag):
    """cov(X_0, X_lag) = var(X_0) (M^T)^lag for lag >= 0."""
    lag = _count("lag", lag)
    M = mean_matrix(model)
    return moment_report(model, 1).var0 @ np.linalg.matrix_power(M.T, lag)


def limit_covariance(model):
    """Covariance (I - M)^-1 V (I - M^T)^-1 of the aggregation limit at t = 1."""
    return moment_report(model, 1).sigma
