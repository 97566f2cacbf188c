import numpy as np
import pytest
from hypothesis import strategies as st

from bpagg.model import (
    Bernoulli,
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
)


def build_scalar_inar():
    """Bernoulli(0.5) offspring with poisson(1) immigration: mean 2, V 1.5,
    var 2, limit covariance 6."""
    return BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(0.5)]),),
        IndependentMarginals([Poisson(1.0)]),
    )


def build_two_type():
    """Mean matrix [[0.3, 0.2], [0.1, 0.4]], immigration means (1, 2)."""
    return BranchingModel(
        2,
        (
            IndependentMarginals([Bernoulli(0.3), Bernoulli(0.1)]),
            IndependentMarginals([Bernoulli(0.2), Bernoulli(0.4)]),
        ),
        IndependentMarginals([Poisson(1.0), Poisson(2.0)]),
    )


def build_deterministic():
    """Point-mass laws only: nilpotent mean matrix, V = 0, constant paths."""
    return BranchingModel(
        2,
        (
            IndependentMarginals([Point(0), Point(1)]),
            IndependentMarginals([Point(0), Point(0)]),
        ),
        IndependentMarginals([Point(2), Point(3)]),
    )


def build_deterministic_scalar():
    return BranchingModel(
        1, (IndependentMarginals([Point(0)]),), IndependentMarginals([Point(1)])
    )


def _random_marginal(rng, target_mean):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Bernoulli(target_mean)
    if kind == 1:
        return Binomial(2, target_mean / 2.0)
    if kind == 2:
        return Geometric(1.0 / (1.0 + target_mean))
    return Bernoulli(target_mean)


def _random_offspring(rng, p, cap):
    # every mean entry stays below cap so row sums keep rho under control
    means = rng.uniform(0.0, cap, size=p)
    if rng.random() < 0.5:
        return IndependentMarginals([_random_marginal(rng, m) for m in means])
    # table on {0, e_1, 2 e_1, ...} with exact per-coordinate means
    atoms = [np.zeros(p, dtype=np.int64)]
    probs = []
    for j in range(p):
        v = np.zeros(p, dtype=np.int64)
        if rng.random() < 0.3:
            v[j] = 2
            probs.append(means[j] / 2.0)
        else:
            v[j] = 1
            probs.append(means[j])
        atoms.append(v)
    probs = [1.0 - sum(probs)] + probs
    return FiniteSupport(np.stack(atoms), probs)


def _random_immigration(rng, p):
    if rng.random() < 0.5:
        return IndependentMarginals([Poisson(lam) for lam in rng.uniform(0.3, 2.0, p)])
    atoms = [np.zeros(p, dtype=np.int64)]
    probs = [0.4]
    for j in range(p):
        v = np.zeros(p, dtype=np.int64)
        v[j] = int(rng.integers(1, 4))
        atoms.append(v)
    rest = rng.uniform(0.1, 1.0, p)
    rest = 0.6 * rest / rest.sum()
    probs.extend(rest.tolist())
    return FiniteSupport(np.stack(atoms), probs)


def build_random_subcritical(rng, p, rho_cap=0.8):
    """Random mixed-representation model with spectral radius <= rho_cap."""
    cap = rho_cap / p
    offspring = tuple(_random_offspring(rng, p, cap) for _ in range(p))
    return BranchingModel(p, offspring, _random_immigration(rng, p))


@st.composite
def dense_tables(draw, p=None):
    """Hypothesis strategy for a dense FiniteSupport table on Z_+^p (p drawn
    from 1..5 when not given): up to 40 distinct atoms with entries up to
    50, integer weights 1..1000."""
    if p is None:
        p = draw(st.integers(1, 5))
    atom = st.tuples(*[st.integers(0, 50)] * p)
    atoms = draw(st.lists(atom, min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(atoms), max_size=len(atoms)))
    return FiniteSupport(atoms, np.array(weights, dtype=float) / sum(weights))


_UNIT = st.floats(0.0, 1.0)

# the JSON form of a marginal of each of the five kinds, keys in the order
# params() writes them
_MARGINAL_JSON = st.one_of(
    st.builds(lambda lam: {"dist": "poisson", "lambda": lam}, st.floats(0.0, 50.0)),
    st.builds(lambda q: {"dist": "bernoulli", "q": q}, _UNIT),
    st.builds(lambda n, q: {"dist": "binomial", "n": n, "q": q}, st.integers(0, 100), _UNIT),
    # below q of about 3e-103 the third raw moment passes float64, and the law
    # is refused
    st.builds(lambda q: {"dist": "geometric", "q": q}, st.floats(1e-100, 1.0)),
    st.builds(lambda c: {"dist": "point", "c": c}, st.integers(0, 100)),
)


@st.composite
def law_json(draw, p):
    """Hypothesis strategy for the JSON form of a law on Z_+^p: independent
    marginals of any of the five kinds, or a finite table of up to 10
    distinct atoms whose masses are integer weights over their total."""
    if draw(st.booleans()):
        marginals = draw(st.lists(_MARGINAL_JSON, min_size=p, max_size=p))
        return {"kind": "independent", "marginals": marginals}
    atom = st.lists(st.integers(0, 50), min_size=p, max_size=p)
    atoms = draw(st.lists(atom, min_size=1, max_size=10, unique_by=tuple))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(atoms), max_size=len(atoms)))
    total = sum(weights)
    return {
        "kind": "finite",
        "support": [{"v": v, "p": w / total} for v, w in zip(atoms, weights)],
    }


@st.composite
def model_json(draw):
    """Hypothesis strategy for the JSON form of a model with p in 1..4."""
    p = draw(st.integers(1, 4))
    offspring = [draw(law_json(p)) for _ in range(p)]
    return {"p": p, "offspring": offspring, "immigration": draw(law_json(p))}


@st.composite
def ginar_json(draw):
    """Hypothesis strategy for the JSON form of a GINAR spec of order 1..4."""
    order = draw(st.integers(1, 4))
    offspring = [draw(law_json(1)) for _ in range(order)]
    return {"order": order, "offspring": offspring, "immigration": draw(law_json(1))}


@pytest.fixture
def scalar_inar():
    return build_scalar_inar()


@pytest.fixture
def two_type():
    return build_two_type()


@pytest.fixture
def deterministic_model():
    return build_deterministic()
