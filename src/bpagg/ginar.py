"""GINAR(p) integer-valued autoregression as a branching embedding.

A GINAR(p) recursion
    Z_k = xi_k(Z_{k-1}; 1) + ... + xi_k(Z_{k-p}; p) + eps_k
with i.i.d. counting sequences xi^(i,1) becomes a p-type branching process
with immigration for the stacked state X_k = (Z_k, ..., Z_{k-p+1}): the
brood of a type-i individual is its scalar offspring count in coordinate
one plus a deterministic bookkeeping unit in coordinate i+1 (absent for
i = p), and immigration acts on coordinate one only. The offspring mean
matrix is then the companion matrix of the autoregression.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Classification,
    FiniteSupport,
    IndependentMarginals,
    Point,
    BranchingModel,
    validate,
    _REGIME_TOL,
    _cumulant_sum,
    _law_from_json,
    _regime,
)

__all__ = [
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
]


@dataclass(frozen=True)
class GinarSpec:
    """Order p, one scalar offspring law per lag, one scalar immigration law."""

    p: int
    offspring: tuple
    immigration: object

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("need order p >= 1")
        if len(self.offspring) != self.p:
            raise ValueError(
                "need %d scalar offspring laws, got %d" % (self.p, len(self.offspring))
            )
        object.__setattr__(self, "offspring", tuple(self.offspring))
        for law in self.offspring:
            if law.dim != 1:
                raise ValueError("offspring laws must be scalar (dim 1)")
        if self.immigration.dim != 1:
            raise ValueError("immigration law must be scalar (dim 1)")

    @cached_property
    def _model(self):
        p = self.p
        offspring = tuple(
            _lift(law, p, i + 1 if i + 1 < p else None) for i, law in enumerate(self.offspring)
        )
        return BranchingModel(p, offspring, _lift(self.immigration, p, None))


def _lift(law, p, unit_coord):
    """Extend a scalar law to Z_+^p: coordinate 0 carries the law, coordinate
    unit_coord (if any) a deterministic 1, all others a deterministic 0."""
    if p == 1:
        return law
    if isinstance(law, IndependentMarginals):
        coords = [law.marginals[0]]
        for j in range(1, p):
            coords.append(Point(1 if j == unit_coord else 0))
        return IndependentMarginals(coords)
    support = np.zeros((law.support.shape[0], p), dtype=np.int64)
    support[:, 0] = law.support[:, 0]
    if unit_coord is not None:
        support[:, unit_coord] = 1
    # the masses as given, which the lifted law normalizes once
    return FiniteSupport(support, law._given)


def embed(spec):
    """The p-type model whose first coordinate is the GINAR chain, one per spec."""
    return spec._model


def _means(spec):
    """(E xi^(i,1) for each lag i, E eps), read from the embedded model: the
    first row of its mean matrix and its immigration mean, the values its
    rho and stationary mean are computed from."""
    model = embed(spec)
    return model._M[0], float(model.immigration.mean()[0])


def _scalar_var(law, mean):
    """var of a scalar law whose mean is mean."""
    return float(_cumulant_sum([law], [1.0], [[mean]], 2)[0, 0])


def characteristic_polynomial(spec):
    """Coefficients of lambda^p - m_1 lambda^(p-1) - ... - m_p with
    m_i = E xi^(i,1), highest degree first."""
    return np.concatenate([[1.0], -_means(spec)[0]])


def ginar_classify(spec):
    """Classification of the embedded model, whose rho is the largest root
    modulus of the characteristic polynomial, with the regime from the
    criticality criterion sum_i E xi^(i,1) versus 1."""
    emb = validate(embed(spec))
    return Classification(emb.rho, _ginar_regime(spec), emb.primitive, emb.immigration_nontrivial)


def _ginar_regime(spec):
    """The regime by the criticality criterion sum_i E xi^(i,1) versus 1."""
    return _regime(float(_means(spec)[0].sum()))


def v_ginar(spec):
    """Noise matrix of the embedded chain, built from scalar variances.

    Only the (0, 0) entry is nonzero because every bookkeeping coordinate is
    deterministic:
        V[0,0] = sum_i var(xi^(i,1)) mean_i + var(eps),
    with mean the stationary mean of the embedded model, whose mean matrix
    is the companion matrix; a spec within 1e-9 of critical by rho is refused.
    """
    p = spec.p
    mean = embed(spec)._mean if _ginar_regime(spec) == "subcritical" else None
    if mean is None:
        raise ValueError("v_ginar needs a subcritical specification")
    m_xi, m_eps = _means(spec)
    V = np.zeros((p, p))
    V[0, 0] = sum(
        _scalar_var(law, float(m_xi[i])) * mean[i] for i, law in enumerate(spec.offspring)
    ) + _scalar_var(spec.immigration, m_eps)
    return V


def scalar_limit_std(spec):
    """Aggregation limit standard deviation for order 1:

        (1 - E xi)^-1 sqrt((E eps var(xi) + (1 - E xi) var(eps)) / (1 - E xi)).

    Its square equals the limit covariance of the embedded model.
    """
    if spec.p != 1:
        raise ValueError("closed form is for order 1, got p = %d" % spec.p)
    m, m_eps = _means(spec)
    m_xi = float(m[0])
    if m_xi >= 1.0 - _REGIME_TOL:
        raise ValueError("closed form needs E xi < 1, got %r" % m_xi)
    v_xi = _scalar_var(spec.offspring[0], m_xi)
    v_eps = _scalar_var(spec.immigration, m_eps)
    inner = (m_eps * v_xi + (1.0 - m_xi) * v_eps) / (1.0 - m_xi)
    return float(np.sqrt(inner)) / (1.0 - m_xi)


def ginar_from_json(obj):
    """Build a specification from {order, offspring: [scalar laws], immigration}."""
    if not isinstance(obj, dict):
        raise ValueError("ginar JSON must be an object")
    for key in ("order", "offspring", "immigration"):
        if key not in obj:
            raise ValueError("ginar JSON missing %r" % key)
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError("ginar JSON \"order\" must be an integer, got %r" % (order,))
    if not isinstance(obj["offspring"], list):
        raise ValueError("ginar JSON \"offspring\" must be a list of scalar laws")
    offspring = tuple(_law_from_json(o) for o in obj["offspring"])
    immigration = _law_from_json(obj["immigration"])
    return GinarSpec(order, offspring, immigration)


def ginar_to_json(spec):
    return {
        "order": spec.p,
        "offspring": [law.to_json() for law in spec.offspring],
        "immigration": spec.immigration.to_json(),
    }


def load_ginar(path):
    with open(path) as fh:
        return ginar_from_json(json.load(fh))


def ginar_from_means(means, immigration_lam=1.0):
    """Bernoulli-offspring specification from autoregression means.

    Valid only when every mean is in [0, 1]; immigration is poisson.
    """
    from .model import Bernoulli, Poisson

    laws = []
    for m in means:
        if not 0.0 <= float(m) <= 1.0:
            raise ValueError(
                "bernoulli offspring need means in [0, 1], got %r; "
                "write a full spec file for larger means" % (m,)
            )
        laws.append(IndependentMarginals([Bernoulli(float(m))]))
    immigration = IndependentMarginals([Poisson(float(immigration_lam))])
    return GinarSpec(len(laws), tuple(laws), immigration)
