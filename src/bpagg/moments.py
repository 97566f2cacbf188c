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

    b2 = V + mu m_eps^T + m_eps mu^T + m_eps m_eps^T,
    V  = sum_i mean_i Cov(xi^(i)) + Cov(eps),

with mu = M mean. The laws are read only through their cumulant tensors
(model._cumulant_sum): one pass stacks the p offspring covariances and
Cov(eps) into one (p + 1) x p x p array, which V, b2, the order-3 term
below and the innovation checks read. V is written exactly symmetric.

Order 3 is solved in cumulant form. By the law of total cumulance
(Brillinger 1969, Ann. Inst. Statist. Math. 21) the stationary third
cumulant C3 solves the same kind of fixed point,

    C3 = R + M^(x)3 C3,
    R  = sum_i mean_i K3(xi^(i)) + K3(eps) + sym(sum_i Cov(xi^(i)) (x) (M var0)[:, i]),

because the conditional third cumulant of X_k is affine in X_{k-1} and its
conditional mean M X_{k-1} + m_eps has covariance M var0 with X_{k-1}.
Here sym(T) = T[a,b,c] + T[a,c,b] + T[b,c,a] sums the three slots of the
single factor of a T symmetric in (a, b). Then

    kron3 = C3 + sym(var0 (x) mean) + mean^(x)3.

The law cumulants are closed forms on the diagonal for product laws and
products over the stacked centered atoms of every table, p atoms at a time
(model._cumulant_sum), so no law builds its p^3 table of raw third
moments. Every array has at most (p + 1) p^2 entries, the size of the
covariance stack, and every contraction costs O(p^4). V, kron2, kron3,
var0 and sigma are written exactly symmetric: each entry is read from its
canonical index (i <= j, i <= j <= k).

build_transfer assembles the dense blocks A21, A31, A32 and the full a2/a3
matrices from the laws' raw moments (kron_moment). Nothing on the
production path calls either; they are kept as an independent oracle for
the tests.

The innovation noise matrix V, the stationary variance, lagged
autocovariances and the covariance of the aggregation limit all derive from
these moments. moment_report is the single route to all of them: it alone
validates the model, and stationary_moments, noise_matrix,
stationary_variance, autocovariance and limit_covariance are views on its
report. M, rho and the mean are the model's own, derived once per model.
A report's residuals show how well each route solved, next to cond(I - M),
the conditioning every solve through (I - M)^-1 inherits.
"""

from dataclasses import dataclass

import numpy as np

from .kronalg import lyapunov_solve, mode_product, tensor_fixed_point
from .model import _count, _cumulant_sum, _stationary_mean, json_text, mean_matrix, validate

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
    means = M.T  # row i is the mean brood of type i
    seconds = [law.kron_moment(2) for law in model.offspring]

    a21 = np.zeros((p * p, p))
    for i in range(p):
        mi, si = means[i], seconds[i]
        a21[:, i] = si - np.kron(mi, mi) + np.kron(mi, m_eps) + np.kron(m_eps, mi)
    M2 = np.kron(M, M)
    a2 = np.block([[M, np.zeros((p, p * p))], [a21, M2]])

    if max_order < 3:
        return TransferMatrices(a21, a2, None, None, None)

    eps3 = model.immigration.kron_moment(3)
    thirds = [law.kron_moment(3) for law in model.offspring]
    a31 = np.zeros((p ** 3, p))
    a32 = np.zeros((p ** 3, p * p))
    for i in range(p):
        mi, si, ti = means[i], seconds[i], thirds[i]
        mimi = np.kron(mi, mi)
        # two individuals of type i: slots (1,3) from one brood, slot 2 from the other
        mix_ii = np.kron(si.reshape(p, p), mi[:, None]).ravel()
        # brood in slots (1,3), immigration in slot 2, and the reverse nesting
        mix_ie = np.kron(si.reshape(p, p), m_eps[:, None]).ravel()
        mix_ei = np.kron(eps2.reshape(p, p), mi[:, None]).ravel()
        a31[:, i] = (
            ti - np.kron(si, mi) - mix_ii - np.kron(mi, si) + 2.0 * np.kron(mimi, mi)
            + np.kron(si, m_eps) + mix_ie + np.kron(m_eps, si)
            - np.kron(mimi, m_eps) - np.kron(np.kron(mi, m_eps), mi) - np.kron(m_eps, mimi)
            + np.kron(mi, eps2) + mix_ei + np.kron(eps2, mi)
        )
        for j in range(p):
            mj = means[j]
            # independent broods of types i (slots 1,3) and j (slot 2)
            mix_ij = np.kron(si.reshape(p, p), mj[:, None]).ravel()
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


def _canonical(t):
    """t flat, with every entry read from its canonical index (i <= j, or
    i <= j <= k, of a p x p or p x p x p array): exactly symmetric under
    every axis permutation, and the canonical entries keep their bytes."""
    p = len(t)
    if t.ndim == 2:
        return np.where(np.tri(p, k=-1, dtype=bool), t.T, t).reshape(-1)
    a, b, c = np.ix_(*[np.arange(p)] * 3)
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c
    mid -= lo
    mid -= hi
    return t[lo, mid, hi].reshape(-1)


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
    'kron3' (fixed-point defect of the third cumulant, C3 = R + M^(x)3 C3,
    relative to the largest entry of C3), then 'cond', the 1-norm condition number
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


def moment_report(model, max_order=3):
    """Compute every stationary quantity and its dual-route residuals.

    This is the only route to the stationary quantities: it validates the
    model, reads the stationary mean the model solved, and builds V, var0,
    sigma and the Kronecker moments from that mean. Requires a subcritical
    model with nontrivial immigration and max_order in {1, 2, 3}.
    """
    if max_order not in (1, 2, 3):
        raise ValueError("moment order must be 1, 2 or 3, got %r" % (max_order,))
    cls = validate(model)
    p = model.p
    M = mean_matrix(model)
    mean = _stationary_mean(model)
    A = np.eye(p) - M
    m_eps = model.immigration.mean()
    laws, means = model.offspring + (model.immigration,), np.column_stack((M, m_eps))
    # covs[i] = Cov(xi^(i)) for i < p and covs[p] = Cov(eps), in one pass
    covs = _cumulant_sum(laws, np.eye(p + 1), means, 2)
    V = _canonical(covs[p] + np.tensordot(mean, covs[:p], 1)).reshape(p, p)
    var0 = lyapunov_solve(M, V)
    sigma = np.linalg.solve(A, np.linalg.solve(A, V).T).T

    lyap = float(np.max(np.abs(var0 - V - M @ var0 @ M.T)))
    lhs = M @ np.linalg.solve(A, var0) + var0 + (M @ np.linalg.solve(A, var0.T)).T
    limit_identity = float(np.max(np.abs(lhs - sigma)))
    kron2 = kron3 = route_gap = kron3_defect = None
    if max_order >= 2:
        mu = M @ mean
        b2 = V + np.outer(mu, m_eps) + np.outer(m_eps, mu) + np.outer(m_eps, m_eps)
        k2 = tensor_fixed_point(M, b2)
        scale = max(float(np.max(np.abs(var0))), 1e-30)
        route_gap = float(np.max(np.abs(k2 - np.outer(mean, mean) - var0)) / scale)
        kron2 = _canonical(k2)
    if max_order == 3:
        with np.errstate(over="ignore", invalid="ignore"):
            # the sym term's [a, b, c] is sum_i Cov(xi^(i))[a, b] (M var0)[c, i]
            r = _cumulant_sum(laws, np.append(mean, 1.0), means, 3)
            r += _sym3(np.tensordot(covs[:p], M @ var0, axes=([0], [1])))
            c3 = tensor_fixed_point(M, r)
            defect = np.max(np.abs(c3 - r - mode_product(M, c3)))
            k3 = c3 + _sym3(np.multiply.outer(var0, mean))
            k3 += np.multiply.outer(np.outer(mean, mean), mean)
        if not np.all(np.isfinite(k3)):
            raise ValueError(
                "third moments overflow float64: the stationary E X^(x)3 is not finite"
            )
        kron3_defect = float(defect / max(float(np.max(np.abs(c3))), 1e-30))
        kron3 = _canonical(k3)

    return MomentReport(
        mean=mean,
        kron2=kron2,
        kron3=kron3,
        v=V,
        var0=_canonical(var0).reshape(p, p),
        sigma=_canonical(sigma).reshape(p, p),
        rho=cls.rho,
        residuals={
            "lyapunov": lyap,
            "route_gap": route_gap,
            "limit_identity": limit_identity,
            "kron3": kron3_defect,
            "cond": float(np.linalg.cond(A, 1)),
        },
        offspring_cov=covs[:p],
        immigration_cov=covs[p],
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
