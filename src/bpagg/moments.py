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
single factor. These are einsum/tensordot contractions of the law moment
tensors at O(p^4).

build_transfer assembles the dense blocks A21, A31, A32 and the full a2/a3
matrices. Nothing on the production path calls it; it is kept as an
independent oracle for the tests.

The innovation noise matrix V, the stationary variance, lagged
autocovariances and the covariance of the aggregation limit all derive from
these moments.
"""

import json
from dataclasses import dataclass

import numpy as np

from .kronalg import (
    NotSubcriticalError,
    commutation_matrix,
    kron,
    lyapunov_solve,
    mode_product,
    tensor_fixed_point,
)
from .model import law_kron_moments, law_mean, mean_matrix, validate

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
    means = [law_mean(law) for law in model.offspring]
    seconds = [law_kron_moments(law, 2) for law in model.offspring]
    thirds = None
    if max_order >= 3:
        thirds = [law_kron_moments(law, 3) for law in model.offspring]
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
    m_eps = law_mean(model.immigration)
    eps2 = law_kron_moments(model.immigration, 2)
    means, seconds, thirds = _law_tables(model, max_order)

    a21 = np.zeros((p * p, p))
    for i in range(p):
        mi, si = means[i], seconds[i]
        a21[:, i] = si - kron(mi, mi) + kron(mi, m_eps) + kron(m_eps, mi)
    M2 = kron(M, M)
    a2 = np.block([[M, np.zeros((p, p * p))], [a21, M2]])

    if max_order < 3:
        return TransferMatrices(a21, a2, None, None, None)

    eps3 = law_kron_moments(model.immigration, 3)
    PI = kron(commutation_matrix(p), np.eye(p))
    a31 = np.zeros((p ** 3, p))
    a32 = np.zeros((p ** 3, p * p))
    for i in range(p):
        mi, si, ti = means[i], seconds[i], thirds[i]
        mimi = kron(mi, mi)
        # two individuals of type i: slots (1,3) from one brood, slot 2 from the other
        mix_ii = PI @ kron(mi, si)
        # brood in slots (1,3), immigration in slot 2, and the reverse nesting
        mix_ie = PI @ kron(m_eps, si)
        mix_ei = PI @ kron(mi, eps2)
        a31[:, i] = (
            ti - kron(si, mi) - mix_ii - kron(mi, si) + 2.0 * kron(mimi, mi)
            + kron(si, m_eps) + mix_ie + kron(m_eps, si)
            - kron(mimi, m_eps) - kron(kron(mi, m_eps), mi) - kron(m_eps, mimi)
            + kron(mi, eps2) + mix_ei + kron(eps2, mi)
        )
        for j in range(p):
            mj = means[j]
            # independent broods of types i (slots 1,3) and j (slot 2)
            mix_ij = PI @ kron(mj, si)
            a32[:, i * p + j] = (
                kron(si, mj) + mix_ij + kron(mj, si)
                - kron(mimi, mj) - kron(kron(mi, mj), mi) - kron(mj, mimi)
                + kron(kron(mi, mj), m_eps) + kron(kron(mi, m_eps), mj)
                + kron(m_eps, kron(mi, mj))
            )
    M3 = kron(M2, M)
    a3 = np.block(
        [
            [M, np.zeros((p, p * p)), np.zeros((p, p ** 3))],
            [a21, M2, np.zeros((p * p, p ** 3))],
            [a31, a32, M3],
        ]
    )
    return TransferMatrices(a21, a2, a31, a32, a3)


def _require_stationary(model):
    cls = validate(model)
    if cls.regime != "subcritical":
        raise NotSubcriticalError(
            "stationary moments need a subcritical model, got rho = %.6g" % cls.rho
        )
    if not cls.immigration_nontrivial:
        raise ValueError("zero immigration mean, stationary law is degenerate at 0")
    return cls


def _check_order(max_order):
    if max_order not in (1, 2, 3):
        raise ValueError("moment order must be 1, 2 or 3, got %r" % (max_order,))


def _law_cov(law):
    """Covariance matrix of a law."""
    m = law_mean(law)
    return law_kron_moments(law, 2).reshape(law.dim, law.dim) - np.outer(m, m)


def _sym3(t):
    """Sum of t over the three slots of its single factor; t[a, b, c] must be
    symmetric in (a, b), and the result is symmetric in all three axes."""
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


def _law_third_central(law):
    """Third central moment E (x - m)^(x)3 of a law as a p x p x p tensor."""
    p = law.dim
    m = law_mean(law)
    raw2 = law_kron_moments(law, 2).reshape(p, p)
    raw3 = law_kron_moments(law, 3).reshape(p, p, p)
    cube = np.multiply.outer(np.outer(m, m), m)
    return raw3 - _sym3(np.multiply.outer(raw2, m)) + 2.0 * cube


def _stationary_mean(model, M):
    return np.linalg.solve(np.eye(model.p) - M, law_mean(model.immigration))


def _noise(model, mean):
    """V = Cov(eps) + sum_i mean_i Cov(xi^(i)) at the stationary mean."""
    covs = np.stack([_law_cov(law) for law in model.offspring])
    return _law_cov(model.immigration) + np.tensordot(mean, covs, 1)


def _limit_cov(M, V):
    A = np.eye(M.shape[0]) - M
    return np.linalg.solve(A, np.linalg.solve(A, V).T).T


def _moment_tensors(model, M, mean, max_order):
    """kron2 as a p x p tensor and, for max_order 3, kron3 as a p x p x p
    tensor together with its right-hand side b3 (None otherwise)."""
    p = model.p
    eps = model.immigration
    m_eps = law_mean(eps)
    eps2 = law_kron_moments(eps, 2).reshape(p, p)
    mu = M @ mean
    covs = np.stack([_law_cov(law) for law in model.offspring])
    brood_cov = np.tensordot(mean, covs, 1)
    b2 = brood_cov + np.outer(mu, m_eps) + np.outer(m_eps, mu) + eps2
    kron2 = tensor_fixed_point(M, b2)
    if max_order < 3:
        return kron2, None, None
    thirds = np.stack([_law_third_central(law) for law in model.offspring])
    # pair[a, b, c]: the factor in slots (a, b) and the single factor in c
    pair = np.tensordot(covs, M @ kron2.T, axes=([0], [1]))
    pair += np.multiply.outer(brood_cov + mode_product(M, kron2), m_eps)
    pair += np.multiply.outer(eps2, mu)
    b3 = (
        np.tensordot(mean, thirds, 1) + _sym3(pair)
        + law_kron_moments(eps, 3).reshape(p, p, p)
    )
    return kron2, tensor_fixed_point(M, b3), b3


def stationary_moments(model, max_order=3):
    """Stationary Kronecker moments (mean, kron2, kron3) up to max_order.

    kron2 and kron3 are flat vectors of length p**2 and p**3. Entries beyond
    max_order are None. Requires a subcritical model with nontrivial
    immigration.
    """
    _check_order(max_order)
    _require_stationary(model)
    M = mean_matrix(model)
    mean = _stationary_mean(model, M)
    if max_order == 1:
        return mean, None, None
    kron2, kron3, _ = _moment_tensors(model, M, mean, max_order)
    return mean, kron2.reshape(-1), None if kron3 is None else kron3.reshape(-1)


def noise_matrix(model):
    """Innovation noise matrix V.

    With U_k = X_k - M X_{k-1} - m_eps, conditional innovation covariances
    are affine in the previous state, and in the stationary regime

        V = E(U_k U_k^T) = sum_i mean_i Cov(xi^(i)) + Cov(eps),

    where mean is the stationary mean. V is symmetric positive semidefinite.
    """
    _require_stationary(model)
    return _noise(model, _stationary_mean(model, mean_matrix(model)))


def stationary_variance(model):
    """var(X_0) under stationarity, the Lyapunov fixed point S = V + M S M^T."""
    M = mean_matrix(model)
    return lyapunov_solve(M, noise_matrix(model))


def autocovariance(model, lag):
    """cov(X_0, X_lag) = var(X_0) (M^T)^lag for lag >= 0."""
    if int(lag) != lag or lag < 0:
        raise ValueError("need integer lag >= 0, got %r" % (lag,))
    M = mean_matrix(model)
    return stationary_variance(model) @ np.linalg.matrix_power(M.T, int(lag))


def limit_covariance(model):
    """Covariance (I - M)^-1 V (I - M^T)^-1 of the aggregation limit at t = 1."""
    return _limit_cov(mean_matrix(model), noise_matrix(model))


@dataclass
class MomentReport:
    """Bundle of exact stationary quantities plus self-check residuals.

    residuals carries 'lyapunov' (fixed-point defect of var0), 'route_gap'
    (normalized gap between var0 and the second-moment route
    reshape(kron2) - mean mean^T), 'limit_identity' (defect of the
    decomposition M (I-M)^-1 var0 + var0 + var0 (I-M^T)^-1 M^T = sigma) and
    'kron3' (fixed-point defect of kron3 = b3 + M^(x)3 kron3, relative to the
    largest entry of kron3). route_gap is None below order 2 and kron3 is
    None below order 3.
    """

    mean: np.ndarray
    kron2: np.ndarray
    kron3: np.ndarray
    v: np.ndarray
    var0: np.ndarray
    sigma: np.ndarray
    rho: float
    residuals: dict

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
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def moment_report(model, max_order=3):
    """Compute every stationary quantity and its dual-route residuals.

    The model is validated once and the mean is solved once; V, var0, sigma
    and the Kronecker moments all start from that mean.
    """
    _check_order(max_order)
    cls = _require_stationary(model)
    p = model.p
    M = mean_matrix(model)
    mean = _stationary_mean(model, M)
    V = _noise(model, mean)
    var0 = lyapunov_solve(M, V)
    sigma = _limit_cov(M, V)

    lyap = float(np.max(np.abs(var0 - V - M @ var0 @ M.T)))
    A = np.eye(p) - M
    lhs = M @ np.linalg.solve(A, var0) + var0 + (M @ np.linalg.solve(A, var0.T)).T
    limit_identity = float(np.max(np.abs(lhs - sigma)))
    kron2 = kron3 = route_gap = kron3_defect = None
    if max_order >= 2:
        k2, k3, b3 = _moment_tensors(model, M, mean, max_order)
        scale = max(float(np.max(np.abs(var0))), 1e-30)
        route_gap = float(np.max(np.abs(k2 - np.outer(mean, mean) - var0)) / scale)
        kron2 = k2.reshape(-1)
        if k3 is not None:
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
        },
    )
