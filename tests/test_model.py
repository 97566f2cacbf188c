import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from bpagg.model import (
    _SMALL,
    _SPARSE,
    _WIDE,
    Bernoulli,
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
    _cumulant_sum,
    _raw_moments,
    mean_matrix,
    model_digest,
    model_from_json,
    json_text,
    model_to_json,
    validate,
)
from bpagg.simulate import stream_rng
from conftest import build_scalar_inar, build_two_type, dense_tables, model_json


def _pmf_table(marginal, tail=1e-13):
    """Truncated pmf of a scalar marginal, computed from first principles."""
    if isinstance(marginal, Poisson):
        lam = marginal.lam
        out, k, term = [], 0, math.exp(-lam)
        total = 0.0
        while total < 1.0 - tail:
            out.append(term)
            total += term
            k += 1
            term = term * lam / k
            if k > 500:
                break
        return np.array(out)
    if isinstance(marginal, Bernoulli):
        return np.array([1.0 - marginal.q, marginal.q])
    if isinstance(marginal, Binomial):
        n, q = marginal.n, marginal.q
        return np.array(
            [math.comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n + 1)]
        )
    if isinstance(marginal, Geometric):
        q = marginal.q
        if q == 1.0:
            return np.array([1.0])
        # third moments weight the tail by k^3, so truncate far beyond the
        # point where the raw mass is negligible
        kmax = 3 * (int(math.log(tail) / math.log(1 - q)) + 2)
        return np.array([q * (1 - q) ** k for k in range(kmax)])
    if isinstance(marginal, Point):
        return np.array([0.0] * marginal.c + [1.0])
    raise AssertionError("unknown marginal")


def _raw_moment_oracle(marginal, order):
    pmf = _pmf_table(marginal)
    ks = np.arange(len(pmf), dtype=float)
    return float(np.sum(pmf * ks ** order))


@pytest.mark.parametrize(
    "marginal",
    [
        Poisson(1.0),
        Poisson(0.3),
        Poisson(2.5),
        Bernoulli(0.5),
        Bernoulli(1.0),
        Binomial(3, 0.2),
        Binomial(5, 0.65),
        Geometric(0.7),
        Geometric(0.25),
        Geometric(1.0),
        Point(0),
        Point(3),
    ],
)
def test_marginal_raw_moments_match_pmf_summation(marginal):
    # raw moments derived from the cumulants against pmf summation, the
    # independent oracle of the closed forms
    for order, raw in zip((1, 2, 3), _raw_moments(marginal)):
        assert raw == pytest.approx(
            _raw_moment_oracle(marginal, order), rel=1e-10, abs=1e-10
        )


def test_poisson_one_third_moment_is_five():
    assert _raw_moments(Poisson(1.0))[2] == pytest.approx(5.0, abs=1e-12)


def test_kron_moment_order_one_equals_mean():
    laws = [
        IndependentMarginals([Poisson(1.3), Geometric(0.4)]),
        FiniteSupport([[0, 0], [2, 1], [1, 3]], [0.5, 0.25, 0.25]),
    ]
    for law in laws:
        assert_allclose(law.kron_moment(1), law.mean(), atol=0)


def test_independent_marginals_second_moment_table():
    law = IndependentMarginals([Poisson(1.0), Bernoulli(0.5)])
    second = law.kron_moment(2).reshape(2, 2)
    assert_allclose(second, [[2.0, 0.5], [0.5, 0.5]], atol=1e-14)


def test_independent_marginals_vs_joint_enumeration():
    law = IndependentMarginals([Poisson(0.7), Geometric(0.6), Bernoulli(0.3)])
    tables = [_pmf_table(m) for m in law.marginals]
    for alpha in (1, 2, 3):
        oracle = np.zeros(3 ** alpha)
        for idx in itertools.product(*[range(len(t)) for t in tables]):
            w = tables[0][idx[0]] * tables[1][idx[1]] * tables[2][idx[2]]
            oracle += w * functools.reduce(np.kron, [np.array(idx, dtype=float)] * alpha)
        assert_allclose(law.kron_moment(alpha), oracle, rtol=1e-9, atol=1e-9)


def test_finite_support_moments_from_table():
    law = FiniteSupport(
        [[0, 0], [1, 0], [1, 1], [0, 2]], [0.5, 0.2, 0.2, 0.1]
    )
    assert_allclose(law.mean(), [0.4, 0.4], atol=1e-15)
    second = law.kron_moment(2).reshape(2, 2)
    # E x1 x2 only from atom (1,1)
    assert second[0, 1] == pytest.approx(0.2, abs=1e-15)
    assert second[0, 0] == pytest.approx(0.4, abs=1e-15)
    assert second[1, 1] == pytest.approx(0.2 + 0.4, abs=1e-15)


def test_representation_equivalence_product_bernoulli():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = rng.uniform(0, 1, 2)
        table = FiniteSupport(
            [[0, 0], [0, 1], [1, 0], [1, 1]],
            [(1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b],
        )
        product = IndependentMarginals([Bernoulli(a), Bernoulli(b)])
        for alpha in (1, 2, 3):
            assert_allclose(
                table.kron_moment(alpha),
                product.kron_moment(alpha),
                atol=1e-12,
            )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(law=dense_tables())
def test_finite_support_moments_match_per_atom_sum(law):
    # every entry is a sum of nonnegative terms, so the contraction and the
    # per-atom loop agree to a few ulps whatever order they sum in
    for alpha in (1, 2, 3):
        want = np.zeros(law.dim ** alpha)
        for w, x in zip(law.probs, law.support.astype(float)):
            term = np.ones(1)
            for _ in range(alpha):
                term = np.outer(term, x).reshape(-1)
            want += w * term
        assert_allclose(law.kron_moment(alpha), want, rtol=1e-12, atol=0)


def test_finite_support_validation():
    with pytest.raises(ValueError):
        FiniteSupport([[0], [1]], [0.6, 0.6])
    with pytest.raises(ValueError):
        FiniteSupport([[0], [1]], [1.2, -0.2])
    with pytest.raises(ValueError):
        FiniteSupport([[0], [0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteSupport([[-1], [0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteSupport([[0], [1]], [0.5])


def test_finite_support_mass_renormalized():
    eps = 4e-10
    law = FiniteSupport([[0], [1]], [0.5, 0.5 + eps])
    assert law.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_marginal_parameter_validation():
    with pytest.raises(ValueError):
        Poisson(-0.1)
    with pytest.raises(ValueError):
        Bernoulli(1.5)
    with pytest.raises(ValueError):
        Binomial(-1, 0.5)
    with pytest.raises(ValueError):
        Binomial(2, -0.2)
    with pytest.raises(ValueError):
        Geometric(0.0)
    with pytest.raises(ValueError):
        Point(-2)
    with pytest.raises(ValueError):
        Point(1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_marginals_reject_non_finite_parameters(bad):
    for build in (
        lambda: Poisson(bad),
        lambda: Bernoulli(bad),
        lambda: Binomial(bad, 0.5),
        lambda: Binomial(2, bad),
        lambda: Geometric(bad),
        lambda: Point(bad),
    ):
        with pytest.raises(ValueError):
            build()


def test_law_constants_must_fit_int64():
    # counts are multiplied by c and n in int64
    assert Point(2 ** 63 - 1).c == 2 ** 63 - 1
    assert Binomial(2 ** 63 - 1, 0.5).n == 2 ** 63 - 1
    for build in (lambda v: Point(v), lambda v: Binomial(v, 0.5)):
        for v in (2 ** 63, 2 ** 64, 10 ** 30):
            with pytest.raises(ValueError, match="2\\^63"):
                build(v)


def test_finite_support_rejects_non_finite_or_fractional_values():
    with pytest.raises(ValueError, match="finite"):
        FiniteSupport([[0], [1]], [math.nan, 0.5])
    with pytest.raises(ValueError, match="finite"):
        FiniteSupport([[0], [1]], [math.inf, 0.5])
    with pytest.raises(ValueError):
        FiniteSupport([[0], [math.inf]], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteSupport([[0], [math.nan]], [0.5, 0.5])
    with pytest.raises(ValueError, match="integer"):
        FiniteSupport([[0], [1.5]], [0.5, 0.5])


def test_independent_marginals_tables_match_loop_reference():
    # entry (i, j, ...) of E x^(x)alpha multiplies E x_c^r over the distinct
    # coordinates c in order of first appearance, r being how often c
    # repeats; the broadcast tables do the same products, so bits agree
    law = IndependentMarginals(
        [Poisson(0.7), Geometric(0.3), Binomial(3, 0.2), Bernoulli(0.35), Point(2)]
    )
    raws = [_raw_moments(m) for m in law.marginals]
    for alpha in (2, 3):
        table = law.kron_moment(alpha).reshape((5,) * alpha)
        for idx in itertools.product(range(5), repeat=alpha):
            want = 1.0
            for c in dict.fromkeys(idx):
                want *= raws[c][idx.count(c) - 1]
            assert table[idx] == want


def _scipy_pmf(marginal):
    """(support, pmf) of a marginal from scipy.stats, each pmf the exp of its
    logpmf: binom.pmf overflows at q near the smallest normal float, and the
    log forms hold at every parameter of the strategies below. The Poisson
    support is cut at lam + 30 sqrt(lam) + 60 and the geometric one at
    60 / q, where the mass beyond is below e^-60, far below the cumulant
    tolerance even when weighted by k^3. A cut by mass, as _pmf_table makes,
    would drop the whole third cumulant of a Poisson law of tiny lam."""
    if isinstance(marginal, Poisson):
        ks = np.arange(int(marginal.lam + 30.0 * math.sqrt(marginal.lam)) + 60)
        return ks, np.exp(stats.poisson.logpmf(ks, marginal.lam))
    if isinstance(marginal, Bernoulli):
        ks = np.arange(2)
        return ks, np.exp(stats.bernoulli.logpmf(ks, marginal.q))
    if isinstance(marginal, Binomial):
        ks = np.arange(marginal.n + 1)
        return ks, np.exp(stats.binom.logpmf(ks, marginal.n, marginal.q))
    if isinstance(marginal, Geometric):
        # scipy's geom counts trials, the law counts failures
        ks = np.arange(int(60.0 / marginal.q) + 1)
        return ks, np.exp(stats.geom.logpmf(ks + 1, marginal.q))
    return np.array([marginal.c]), np.ones(1)


def _central_moments(marginal):
    """((E X, E (X - E X)^2, E (X - E X)^3), (E X, E (X - E X)^2,
    E |X - E X|^3)) summed over the scipy pmf: the first three cumulants
    and the scale of each."""
    ks, pmf = _scipy_pmf(marginal)
    mean = float(pmf @ ks)
    centered = ks - mean
    second = float(pmf @ centered ** 2)
    return (mean, second, float(pmf @ centered ** 3)), (
        mean, second, float(pmf @ np.abs(centered) ** 3)
    )


# scipy's binomial pmf overflows at a subnormal q
_Q = st.floats(0.0, 1.0, allow_subnormal=False)
_MARGINALS = st.one_of(
    st.floats(0.0, 30.0).map(Poisson),
    _Q.map(Bernoulli),
    st.builds(Binomial, st.integers(0, 60), _Q),
    st.floats(0.02, 1.0).map(Geometric),
    st.integers(0, 1000).map(Point),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_MARGINALS)
def test_marginal_cumulants_match_scipy_pmf(marginal):
    want, scale = _central_moments(marginal)
    for got, w, s in zip(marginal.cumulants(), want, scale):
        assert got == pytest.approx(w, rel=1e-9, abs=1e-9 * s)


def _einsum_cumulant(table, order):
    """K of a table: sum_n w_n c_n^(x)order over its centered atoms c_n."""
    atoms = table.support.astype(float)
    centered = atoms - table.probs @ atoms
    if order == 2:
        return np.einsum("n,na,nb->ab", table.probs, centered, centered)
    return np.einsum("n,na,nb,nc->abc", table.probs, centered, centered, centered)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dense_tables())
def test_table_cumulants_match_einsum_on_atoms(table):
    for order in (2, 3):
        want = _einsum_cumulant(table, order)
        scale = max(float(np.max(np.abs(want))), 1.0)
        got = _cumulant_sum([table], [1.0], table.mean()[:, None], order)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _three_laws():
    # seven table atoms at p = 3 are contracted three at a time at order 3,
    # next to a product law, whose cumulant is the diagonal of its marginals'
    first = FiniteSupport([[0, 0, 0], [2, 0, 1], [0, 1, 0], [1, 1, 4]], [0.7, 0.1, 0.1, 0.1])
    second = FiniteSupport([[0, 0, 0], [3, 1, 0], [0, 2, 5]], [0.4, 0.3, 0.3])
    product = IndependentMarginals([Bernoulli(0.1), Geometric(0.4), Binomial(3, 0.7)])
    return [first, product, second]


def _cumulant_oracle(law, order):
    if isinstance(law, FiniteSupport):
        return _einsum_cumulant(law, order)
    out = np.zeros((law.dim,) * order)
    out[np.diag_indices(law.dim, order)] = [
        _central_moments(m)[0][order - 1] for m in law.marginals
    ]
    return out


@pytest.mark.parametrize("order", [2, 3])
def test_cumulant_sum_weights_tables_and_marginals(order):
    laws = _three_laws()
    want = sum(w * _cumulant_oracle(law, order) for w, law in zip([0.7, 2.5, 1.5], laws))
    got = _cumulant_sum(laws, [0.7, 2.5, 1.5], np.column_stack([x.mean() for x in laws]), order)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_order_two_rows_of_weights_give_one_sum_per_column():
    # row l of the weights weighs law l in each of the k sums; the identity
    # gives each law's covariance on its own
    laws = _three_laws()
    means = np.column_stack([x.mean() for x in laws])
    weights = np.array([[1.0, 0.0, 0.3, 0.0], [0.0, 1.0, 2.0, 0.0], [0.0, 0.5, 1.0, 0.0]])
    got = _cumulant_sum(laws, weights, means, 2)
    assert got.shape == (4, 3, 3)
    for k in range(4):
        want = sum(w * _cumulant_oracle(law, 2) for w, law in zip(weights[:, k], laws))
        assert_allclose(got[k], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_order_two_layer_matches_kron_moment_route(data):
    # the cumulant route against the raw one, E x x^T - m m^T, for weighted
    # sums of tables and product laws of every marginal kind
    p = data.draw(st.integers(1, 4))
    law = dense_tables(p) | st.lists(_MARGINALS, min_size=p, max_size=p).map(
        IndependentMarginals
    )
    laws = data.draw(st.lists(law, min_size=1, max_size=4))
    weights = data.draw(st.lists(st.floats(0.0, 10.0), min_size=len(laws), max_size=len(laws)))
    means = np.column_stack([x.mean() for x in laws])
    raws = [x.kron_moment(2).reshape(p, p) for x in laws]
    want = sum(w * (r - np.outer(m, m)) for w, r, m in zip(weights, raws, means.T))
    scale = max(max(w * float(np.max(r)) for w, r in zip(weights, raws)), 1.0)
    got = _cumulant_sum(laws, weights, means, 2)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_mean_matrix_columns_are_offspring_means():
    model = build_two_type()
    assert_allclose(mean_matrix(model), [[0.3, 0.2], [0.1, 0.4]], atol=0)


def test_derived_arrays_are_shared_and_read_only():
    # M and the stationary mean are derived once per model and every reader
    # shares them, so a write into either raises
    from bpagg.moments import moment_report

    model = build_two_type()
    M = mean_matrix(model)
    report = moment_report(model, 1)
    assert mean_matrix(model) is M and moment_report(model, 2).mean is report.mean
    for array in (M, report.mean):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert_allclose(M, [[0.3, 0.2], [0.1, 0.4]], atol=0)
    assert_allclose(report.mean, np.linalg.solve(np.eye(2) - M, [1.0, 2.0]), rtol=1e-15)


def test_validate_two_type():
    cls = validate(build_two_type())
    assert cls.regime == "subcritical"
    assert cls.rho == pytest.approx(0.5, abs=1e-12)
    assert cls.primitive
    assert cls.immigration_nontrivial


def test_validate_critical_and_supercritical():
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    assert validate(crit).regime == "critical"
    sup = BranchingModel(
        1, (IndependentMarginals([Point(2)]),), IndependentMarginals([Poisson(1.0)])
    )
    assert validate(sup).regime == "supercritical"


def test_validate_depends_only_on_mean_matrix():
    a = build_scalar_inar()
    b = BranchingModel(
        1,
        (FiniteSupport([[0], [1]], [0.5, 0.5]),),
        IndependentMarginals([Geometric(0.5)]),
    )
    ca, cb = validate(a), validate(b)
    assert (ca.rho, ca.regime, ca.primitive) == (cb.rho, cb.regime, cb.primitive)


def test_primitivity_patterns():
    companion = BranchingModel(
        2,
        (
            IndependentMarginals([Bernoulli(0.5), Point(1)]),
            IndependentMarginals([Bernoulli(0.3), Point(0)]),
        ),
        IndependentMarginals([Poisson(1.0), Point(0)]),
    )
    assert validate(companion).primitive
    nilpotent = BranchingModel(
        2,
        (
            IndependentMarginals([Point(0), Point(1)]),
            IndependentMarginals([Point(0), Point(0)]),
        ),
        IndependentMarginals([Poisson(1.0), Point(0)]),
    )
    assert not validate(nilpotent).primitive
    dead = BranchingModel(
        1, (IndependentMarginals([Point(0)]),), IndependentMarginals([Poisson(1.0)])
    )
    assert not validate(dead).primitive


def _pattern_model(pattern):
    """Model whose mean matrix has the given boolean sparsity pattern."""
    p = len(pattern)
    offspring = tuple(
        IndependentMarginals(
            [Bernoulli(0.5) if pattern[j][i] else Point(0) for j in range(p)]
        )
        for i in range(p)
    )
    return BranchingModel(p, offspring, IndependentMarginals([Poisson(1.0)] * p))


def _cycle(p):
    """Pattern of the cyclic permutation 0 -> 1 -> ... -> p-1 -> 0."""
    return np.roll(np.eye(p, dtype=bool), 1, axis=1)


def _primitive_by_loop(pattern):
    """The (p-1)^2-step product loop that decides B^((p-1)^2 + 1) > 0."""
    B = np.asarray(pattern, dtype=np.int64)
    C = B.copy()
    for _ in range((len(B) - 1) ** 2):
        C = np.minimum(C @ B, 1)
    return bool(C.all())


@pytest.mark.parametrize("p", range(2, 11))
def test_primitivity_wielandt_exponent(p):
    # the cycle plus the chord p-1 -> 1 is primitive with exponent exactly
    # (p-1)^2 + 1: its (p-1)^2-th power still has a zero entry
    wielandt = _cycle(p)
    wielandt[p - 1, 1] = True
    assert validate(_pattern_model(wielandt)).primitive
    power = np.linalg.matrix_power(wielandt.astype(np.int64), (p - 1) ** 2)
    assert not power.all()
    # without the chord the cycle is irreducible with period p
    assert not validate(_pattern_model(_cycle(p))).primitive


def test_primitivity_matches_loop_on_random_patterns():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(200):
        p = int(rng.integers(1, 9))
        pattern = rng.random((p, p)) < rng.uniform(0.05, 0.6)
        want = _primitive_by_loop(pattern)
        assert validate(_pattern_model(pattern)).primitive == want
        verdicts.append(want)
    # both verdicts occur often enough to exercise the squaring
    assert 30 <= sum(verdicts) <= 170


def test_trivial_immigration_flag():
    model = BranchingModel(
        1, (IndependentMarginals([Bernoulli(0.5)]),), IndependentMarginals([Point(0)])
    )
    assert not validate(model).immigration_nontrivial


def test_sample_sum_empirical_mean_poisson():
    # CLT band: sd of the mean of 1e6 poisson(2) draws is ~0.0014
    rng = np.random.default_rng(123)
    law = Poisson(2.0)
    total = law.sample_sum(1_000_000, rng)
    assert total / 1e6 == pytest.approx(2.0, abs=0.005)


# brood counts for the convolution oracles, and draws per count
_COUNTS = np.array([0, 1, 7, 200], dtype=np.int64)
_DRAWS = 4000
# Kolmogorov-Smirnov bound fixed before sampling: the asymptotic 0.1% point
# 1.95 / sqrt(draws); discrete laws only make the statistic smaller
_KS_BOUND = 1.95 / math.sqrt(_DRAWS)


def _ks_against_pmf(draws, pmf):
    """sup |F_empirical - F| over integers, F the cdf of a pmf on 0, 1, ..."""
    top = int(draws.max()) + 1
    cdf = np.cumsum(np.pad(pmf, (0, max(0, top - len(pmf))))[:top])
    emp = np.cumsum(np.bincount(draws, minlength=top)) / len(draws)
    return float(np.max(np.abs(emp - cdf)))


def _convolution_power(pmf, c, top):
    """pmf of the sum of c independent draws, truncated to 0..top-1; entries
    below top are exact since every term is nonnegative."""
    out = np.array([1.0])
    for _ in range(c):
        out = np.convolve(out, pmf)[:top]
    return out


def _check_sums_against_oracle(draws, pmf, label, counts=_COUNTS):
    draws = draws.reshape(-1, len(counts))
    assert np.all(draws[:, counts == 0] == 0), label
    for k, c in enumerate(counts):
        if c == 0:
            continue
        col = draws[:, k]
        oracle = _convolution_power(pmf, int(c), int(col.max()) + 1)
        stat = _ks_against_pmf(col, oracle)
        assert stat <= _KS_BOUND, "%s c = %d: KS %.4f > %.4f" % (label, c, stat, _KS_BOUND)


def test_marginal_sample_sum_matches_convolution_oracle():
    # the sum of c broods is one convolution variate; its law must be the
    # c-fold convolution of the single-brood pmf built from the parameters
    counts = np.tile(_COUNTS, _DRAWS)
    for seed, law in enumerate(
        (Poisson(1.3), Bernoulli(0.35), Binomial(3, 0.3), Geometric(0.4), Point(2))
    ):
        draws = law.sample_sum(counts, stream_rng(100 + seed))
        assert draws.shape == counts.shape and draws.dtype == np.int64
        _check_sums_against_oracle(draws, _pmf_table(law), law.dist)
        # an int count still gives one scalar variate
        assert np.ndim(law.sample_sum(7, stream_rng(seed))) == 0
        assert law.sample_sum(0, stream_rng(seed)) == 0


# brood counts of mean 1: a tile of them under Bernoulli or Binomial(3, q)
# is a wide call of at most _SMALL trials per count on average
_FEW = np.array([0, 1, 3, 0], dtype=np.int64)


def _same_stream_after(rng, reference):
    """Whether rng and reference give the same next variate."""
    return rng.integers(0, 1 << 62) == reference.integers(0, 1 << 62)


@pytest.mark.parametrize("law", [Bernoulli(0.35), Binomial(3, 0.3)], ids=lambda law: law.dist)
def test_thinned_sums_match_convolution_oracle(law):
    # _DRAWS tiles of _FEW are a call of at least _WIDE counts of at most
    # _SMALL trials each on average, so it draws one uniform per trial
    counts = np.tile(_FEW, _DRAWS)
    n = getattr(law, "n", 1)
    assert len(counts) >= _WIDE and counts.sum() * n <= _SMALL * len(counts)
    rng = stream_rng(300)
    draws = law.sample_sum(counts, rng)
    assert draws.shape == counts.shape and draws.dtype == np.int64
    after = stream_rng(300)
    after.random(int(counts.sum()) * n)
    assert _same_stream_after(rng, after)
    _check_sums_against_oracle(draws, _pmf_table(law), law.dist, counts=_FEW)


# brood counts that mix 0, 1 and several units, mean 11/8: a tile of them
# under each of _SPARSE_LAWS is a wide call that expects at most _SPARSE
# nonzero draws (or Poisson points) per entry
_MIXED = np.array([0, 1, 3, 0, 0, 6, 1, 0], dtype=np.int64)
_SPARSE_LAWS = (
    Geometric(0.8),
    Poisson(0.3),
    FiniteSupport([[0, 0], [0, 1], [2, 0], [1, 1]], [0.7, 0.1, 0.15, 0.05]),
)


def _gap_rows(units, r, rng):
    """The rows of the successes among units[i] broods of row i, each a
    success (a nonzero brood) with probability r, walked one geometric gap
    at a time in _successes' batches: the mean number of successes left,
    plus three standard deviations and eight."""
    owner = np.repeat(np.arange(len(units)), units)  # owner[t - 1]: the row of trial t
    total, t, rows = len(owner), 0, []
    while r > 0 and t < total:
        mean = r * (total - t)
        for gap in rng.geometric(r, int(mean + 3.0 * math.sqrt(mean)) + 8):
            t += min(int(gap), total + 1)
            if t > total:
                return rows
            rows.append(owner[t - 1])
    return rows


def _sparse_oracle(law, counts, rng):
    """law.sample_sum(counts, rng) on a sparse route, drawn by hand from the
    same stream: a geometric law adds numpy's geometric(q) trials for each
    gap success among the draws at rate 1 - q, a table draws each gap
    success's atom among its nonzero atoms at their total mass, and a
    Poisson law drops poisson(lam units) points on uniform units."""
    out = np.zeros((len(counts), getattr(law, "dim", 1)), dtype=np.int64)
    if isinstance(law, Poisson):
        owner = np.repeat(np.arange(len(counts)), counts)
        for point in rng.integers(0, len(owner), rng.poisson(law.lam * len(owner))):
            out[owner[point], 0] += 1
    elif isinstance(law, Geometric):
        rows = _gap_rows(counts, 1.0 - law.q, rng)
        for row, trials in zip(rows, rng.geometric(law.q, len(rows))):
            out[row, 0] += trials
    else:
        nonzero = law.support.any(axis=1)
        cum = np.cumsum(law.probs[nonzero]) / law.probs[nonzero].sum()
        cum[-1] = 1.0
        rows = _gap_rows(counts, law.probs[nonzero].sum(), rng)
        for row, u in zip(rows, rng.random(len(rows))):
            k = 0
            while cum[k] <= u:
                k += 1
            out[row] += law.support[nonzero][k]
    return out if isinstance(law, FiniteSupport) else out[:, 0]


@pytest.mark.parametrize("law", _SPARSE_LAWS, ids=lambda law: type(law).__name__)
def test_sparse_sums_match_convolution_oracle(law):
    counts = np.tile(_MIXED, _DRAWS)
    draws = law.sample_sum(counts, stream_rng(310))
    assert draws.dtype == np.int64 and draws.shape[0] == len(counts)
    if not isinstance(law, FiniteSupport):
        _check_sums_against_oracle(draws, _pmf_table(law), law.dist, counts=_MIXED)
        return
    # every linear projection of a table's sums has the convolution of the
    # projected table as law, as in the multinomial route's oracle test
    for w in ([1, 0], [0, 1], [1, 1]):
        pmf = np.bincount(law.support @ w, weights=law.probs)
        _check_sums_against_oracle(draws @ w, pmf, "finite w = %s" % (w,), counts=_MIXED)


@pytest.mark.parametrize("law", _SPARSE_LAWS, ids=lambda law: type(law).__name__)
def test_sparse_routes_follow_gap_and_splitting_oracles(law):
    counts = np.tile(_MIXED, _WIDE // 4)
    rng = stream_rng(311)
    draws = law.sample_sum(counts, rng)
    reference = stream_rng(311)
    assert np.array_equal(draws, _sparse_oracle(law, counts, reference))
    assert _same_stream_after(rng, reference)


@pytest.mark.parametrize("lam", [0.3, float(_SMALL)])
def test_scattered_poisson_sample_matches_pmf(lam):
    # _DRAWS >= _WIDE draws of lam <= _SMALL scatter one poisson total
    law = Poisson(lam)
    draws = law.sample(stream_rng(301), _DRAWS)
    assert draws.shape == (_DRAWS,) and draws.dtype == np.int64
    assert not np.array_equal(draws, stream_rng(301).poisson(lam, _DRAWS))
    stat = _ks_against_pmf(draws, _pmf_table(law))
    assert stat <= _KS_BOUND, "poisson(%g): KS %.4f > %.4f" % (lam, stat, _KS_BOUND)


def test_bernoulli_sample_matches_pmf():
    law = Bernoulli(0.35)
    rng = stream_rng(302)
    draws = law.sample(rng, _DRAWS)
    assert draws.shape == (_DRAWS,) and draws.dtype == np.int64
    assert _ks_against_pmf(draws, _pmf_table(law)) <= _KS_BOUND
    # one uniform per draw
    after = stream_rng(302)
    after.random(_DRAWS)
    assert _same_stream_after(rng, after)
    assert law.sample(stream_rng(302)) in (0, 1)


def test_calls_outside_the_uniform_routes_draw_numpy_variates():
    # one entry short of _WIDE, or a mean just past _SMALL, is numpy's
    # binomial or poisson variate on the same stream
    narrow = np.tile(_FEW, _WIDE)[: _WIDE - 1]
    heavy = np.full(_WIDE, 2, dtype=np.int64)  # 4 trials each under Binomial(2, q)
    heavy[0] += 1
    for law, counts in (
        (Bernoulli(0.35), narrow),
        (Binomial(3, 0.3), narrow),
        (Bernoulli(0.35), heavy * 2),
        (Binomial(2, 0.3), heavy),
    ):
        n = getattr(law, "n", 1)
        want = stream_rng(303).binomial(counts * n, law.q)
        assert np.array_equal(law.sample_sum(counts, stream_rng(303)), want)
    for lam, size in ((1.0, _WIDE - 1), (np.nextafter(_SMALL, 5.0), _WIDE)):
        want = stream_rng(304).poisson(lam, size)
        assert np.array_equal(Poisson(lam).sample(stream_rng(304), size), want)
    # a mean of exactly _SMALL trials is inside the route: 4 _WIDE uniforms
    rng = stream_rng(305)
    Binomial(2, 0.3).sample_sum(np.full(_WIDE, 2, dtype=np.int64), rng)
    after = stream_rng(305)
    after.random(_SMALL * _WIDE)
    assert _same_stream_after(rng, after)
    # the sparse routes start at _SPARSE expected nonzero draws per entry,
    # on at least _WIDE entries: one unit per entry at rate _SPARSE is on the
    # route, one more unit, or one entry fewer, is numpy's variate
    ones = np.ones(_WIDE, dtype=np.int64)
    past = ones.copy()
    past[0] = 2
    table = FiniteSupport([[0, 0], [1, 2]], [1.0 - _SPARSE, _SPARSE])
    for law, numpy_draw in (
        (Poisson(_SPARSE), lambda c, rng: rng.poisson(c * _SPARSE)),
        (Geometric(1.0 - _SPARSE), lambda c, rng: rng.poisson(rng.standard_gamma(c) * 1.0)),
        (table, lambda c, rng: rng.multinomial(c, table.probs) @ table.support),
    ):
        want = _sparse_oracle(law, ones, stream_rng(306))
        assert np.array_equal(law.sample_sum(ones, stream_rng(306)), want)
        for counts in (past, ones[1:]):
            want = numpy_draw(counts, stream_rng(306))
            assert np.array_equal(law.sample_sum(counts, stream_rng(306)), want)
    # Bernoulli and binomial sums have no sparse route: at a per-trial q that
    # expects well under _SPARSE successes per entry, few trials still thin
    # one uniform per trial and more are numpy's binomial
    counts = np.tile(_FEW, _WIDE)
    for q in (0.01, 0.5):
        rng = stream_rng(309)
        Bernoulli(q).sample_sum(counts, rng)
        after = stream_rng(309)
        after.random(int(counts.sum()))
        assert _same_stream_after(rng, after)
    want = stream_rng(308).binomial(8 * ones, 0.01)
    assert np.array_equal(Binomial(2, 0.01).sample_sum(4 * ones, stream_rng(308)), want)


def test_wide_zero_calls_draw_nothing():
    # every law kind, on every route a wide call can take: a scalar law
    # gives one entry per count, a vector law one row of dim entries
    zeros = np.zeros(_WIDE, dtype=np.int64)
    calls = [
        (lambda rng: Binomial(0, 0.3).sample_sum(zeros + 3, rng), (_WIDE,)),
        (lambda rng: Poisson(0.0).sample(rng, _WIDE), (_WIDE,)),
    ]
    for law in _ALL_LAWS + _SPARSE_LAWS:
        shape = (_WIDE,) if getattr(law, "dim", None) is None else (_WIDE, law.dim)
        calls.append((lambda rng, law=law: law.sample_sum(zeros, rng), shape))
    for draw, shape in calls:
        rng = stream_rng(306)
        out = draw(rng)
        assert out.shape == shape and out.dtype == np.int64 and not out.any()
        assert _same_stream_after(rng, stream_rng(306))


class _NoGaps:
    """A generator that refuses nonempty geometric draws, which every batch of
    _successes' gap loop makes."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def geometric(self, p, size):
        assert size == 0, "entered the gap loop at rate %r" % (p,)
        return self.rng.geometric(p, size)


def test_rates_zero_and_one_never_enter_the_gap_loop():
    counts = np.tile(_FEW, _WIDE)
    # rate 0: a wide call is all zeros; a sparse route draws nothing, and
    # Bernoulli and binomial sums, which have none, thin one uniform per trial
    nothing = FiniteSupport([[0, 0], [1, 1]], [1.0, 0.0])
    for law, trials in (
        (Bernoulli(0.0), 1),
        (Binomial(3, 0.0), 3),
        (Geometric(1.0), 0),
        (nothing, 0),
    ):
        rng = stream_rng(312)
        out = law.sample_sum(counts, _NoGaps(rng))
        assert out.shape[0] == len(counts) and not out.any()
        after = stream_rng(312)
        after.random(trials * int(counts.sum()))
        assert _same_stream_after(rng, after)
    # rate 1, on counts of mean 1/4: Bernoulli(1) thins one uniform per
    # trial, and every trial succeeds
    counts = np.tile([0, 1, 0, 0], _WIDE)
    rng = stream_rng(313)
    assert np.array_equal(Bernoulli(1.0).sample_sum(counts, _NoGaps(rng)), counts)
    after = stream_rng(313)
    after.random(int(counts.sum()))
    assert _same_stream_after(rng, after)
    # a table without a zero atom is nonzero at rate 1, so these counts, which
    # take a sparse route at any lower rate, draw numpy's multinomial
    table = _ALL_LAWS[5]
    assert table.support.any(axis=1).all()
    rng, after = stream_rng(314), stream_rng(314)
    want = after.multinomial(counts, table.probs) @ table.support
    assert np.array_equal(table.sample_sum(counts, _NoGaps(rng)), want)
    assert _same_stream_after(rng, after)


def test_huge_binomial_trial_sum_takes_numpy_route():
    # _WIDE counts of 2^31 at n = 2^31 are about 2^71 trials, which wrap
    # int64 to 0; the route test must see a large float and keep numpy's
    # variate, binomial(2^62, 1/2) per entry
    counts = np.full(_WIDE, 2 ** 31, dtype=np.int64)
    out = Binomial(2 ** 31, 0.5).sample_sum(counts, stream_rng(307))
    want = stream_rng(307).binomial(np.full(_WIDE, 2 ** 62), 0.5)
    assert np.array_equal(out, want)
    assert out.min() > 2 ** 61 - 2 ** 40


def test_huge_unit_totals_take_numpy_route():
    # at a tiny rate a wide call expects few successes, but from _UNITS = 2^62
    # units on (and past 2^63, where the int64 total wraps) a running unit
    # count could wrap: numpy's variate, not a sparse route
    table = FiniteSupport([[0], [1]], [1.0, 1e-30])
    for each in (2 ** 53, 2 ** 55):
        counts = np.full(_WIDE, each, dtype=np.int64)
        for law, numpy_draw in (
            (Poisson(1e-30), lambda rng: rng.poisson(counts * 1e-30)),
            (table, lambda rng: rng.multinomial(counts, table.probs) @ table.support),
        ):
            rng, after = stream_rng(307), stream_rng(307)
            assert np.array_equal(law.sample_sum(counts, rng), numpy_draw(after))
            assert _same_stream_after(rng, after)


def test_gaps_near_int64_do_not_wrap():
    # 2^60 broods of a table that is nonzero at rate 1e-19 take the gaps,
    # which are near 2^63 and would wrap a running sum past a first success;
    # the successes are binomial(2^60, 1e-19), about poisson(0.115), so 6 or
    # more in any of 200 calls has probability below 1e-6
    counts = np.full(_WIDE, 2 ** 51, dtype=np.int64)
    law = FiniteSupport([[0], [1]], [1.0, 1e-19])
    totals = [int(law.sample_sum(counts, stream_rng(400, s)).sum()) for s in range(200)]
    assert max(totals) < 6


_ALL_LAWS = (
    Poisson(1.3),
    Bernoulli(0.35),
    Binomial(3, 0.3),
    Geometric(0.4),
    Point(2),
    FiniteSupport([[0, 1], [2, 0], [1, 1]], [0.3, 0.3, 0.4]),
    IndependentMarginals([Geometric(0.5), Poisson(0.7)]),
)


@pytest.mark.parametrize(
    "law",
    _ALL_LAWS + _SPARSE_LAWS,
    ids=[type(law).__name__ for law in _ALL_LAWS]
    + ["sparse_" + type(law).__name__ for law in _SPARSE_LAWS],
)
def test_sample_sum_int_and_array_counts_consume_stream_alike(law):
    # an int count and a one-entry count array draw the same variate from the
    # same stream position, and a zero count draws nothing
    counts = [0, 3, 0, 5, 1, 0]
    rng = stream_rng(9)
    arr = [law.sample_sum(np.array([c], dtype=np.int64), rng) for c in counts]
    after_arr = rng.integers(0, 1 << 62)
    rng = stream_rng(9)
    one = [law.sample_sum(c, rng) for c in counts]
    after_one = rng.integers(0, 1 << 62)
    for a, b in zip(arr, one):
        assert np.array_equal(np.ravel(a), np.ravel(b))
    assert after_arr == after_one
    rng = stream_rng(9)
    law.sample_sum(0, rng)
    law.sample_sum(np.zeros(4, dtype=np.int64), rng)
    assert rng.integers(0, 1 << 62) == stream_rng(9).integers(0, 1 << 62)


@pytest.mark.parametrize("law", _ALL_LAWS[-2:], ids=lambda law: type(law).__name__)
def test_sample_sum_int_count_equals_one_entry_array(law):
    # an int count draws one (dim,) int64 vector, the row a one-entry count
    # array draws from the same stream
    for c in (0, 1, 4, 1000):
        a = law.sample_sum(c, np.random.default_rng(c))
        b = law.sample_sum(np.array([c], dtype=np.int64), np.random.default_rng(c))
        assert a.shape == (law.dim,) and a.dtype == np.int64
        assert b.shape == (1, law.dim)
        assert np.array_equal(a, b[0])
        if c == 0:
            assert not a.any()


def test_bernoulli_sum_uses_binomial_count():
    rng = np.random.default_rng(2)
    law = Bernoulli(1.0)
    assert law.sample_sum(7, rng) == 7
    assert Bernoulli(0.0).sample_sum(1000, rng) == 0


def test_point_and_degenerate_samples():
    rng = np.random.default_rng(0)
    assert Point(3).sample(rng) == 3
    assert Point(2).sample_sum(10, rng) == 20
    assert Geometric(1.0).sample_sum(1000, rng) == 0


def test_finite_support_sampler_frequencies():
    rng = np.random.default_rng(31)
    law = FiniteSupport([[0, 0], [1, 0], [1, 1], [0, 2]], [0.5, 0.2, 0.2, 0.1])
    draws = np.stack([law.sample(rng) for _ in range(20000)])
    freq_11 = np.mean((draws[:, 0] == 1) & (draws[:, 1] == 1))
    se = math.sqrt(0.2 * 0.8 / 20000)
    assert abs(freq_11 - 0.2) <= 4 * se
    assert_allclose(draws.mean(axis=0), [0.4, 0.4], atol=0.02)


def test_finite_support_sample_sum_matches_convolution_oracle():
    # w . (sum of c draws) is the sum of c draws of w . v, so every linear
    # projection has the c-fold convolution of the projected table as law;
    # the coordinate sum checks the joint law, not just the marginals
    support = np.array([[0, 1], [2, 0], [1, 1]])
    probs = np.array([0.3, 0.3, 0.4])
    law = FiniteSupport(support, probs)
    counts = np.tile(_COUNTS, _DRAWS)
    draws = law.sample_sum(counts, np.random.default_rng(77))
    assert draws.shape == (len(counts), 2) and draws.dtype == np.int64
    for w in ([1, 0], [0, 1], [1, 1]):
        values = support @ w
        pmf = np.bincount(values, weights=probs)
        _check_sums_against_oracle(draws @ w, pmf, "finite w = %s" % (w,))
    assert law.sample_sum(7, np.random.default_rng(1)).shape == (2,)
    assert_allclose(law.sample_sum(0, np.random.default_rng(1)), [0, 0], atol=0)


def test_model_json_roundtrip():
    model = build_two_type()
    text = json.dumps(model_to_json(model))
    back = model_from_json(json.loads(text))
    assert model_digest(back) == model_digest(model)
    for alpha in (1, 2, 3):
        for a, b in zip(model.offspring, back.offspring):
            assert_allclose(a.kron_moment(alpha), b.kron_moment(alpha))


def test_finite_support_json_round_trip_is_identity():
    # 0.7 + 0.2 + 0.1 is not exactly 1, so the stored masses are not the
    # given ones; a round trip must still rebuild the same law
    model = BranchingModel(
        1,
        (FiniteSupport([[0], [1], [2]], [0.7, 0.2, 0.1]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    first = model
    for _ in range(2):
        model = model_from_json(json.loads(json.dumps(model_to_json(model))))
        assert model.offspring[0].probs.tolist() == first.offspring[0].probs.tolist()
        assert model_digest(model) == model_digest(first)
        assert validate(model).rho == validate(first).rho


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=model_json())
def test_model_json_round_trip_is_identity(obj):
    # every marginal kind and finite tables, to the same object and the same text
    back = model_to_json(model_from_json(obj))
    assert back == obj
    assert json.dumps(back) == json.dumps(obj)


def test_model_json_rejects_bad_input():
    with pytest.raises(ValueError):
        model_from_json({"p": 1, "offspring": []})
    with pytest.raises(ValueError):
        model_from_json(
            {
                "p": 1,
                "offspring": [{"kind": "mystery"}],
                "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]},
            }
        )
    with pytest.raises(ValueError):
        model_from_json(
            {
                "p": 1,
                "offspring": [
                    {"kind": "independent", "marginals": [{"dist": "zeta", "s": 2}]}
                ],
                "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]},
            }
        )


_POISSON_1 = {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]}


@pytest.mark.parametrize(
    "offspring",
    [
        [{"kind": "independent", "marginals": [{"dist": "poisson", "mu": 0.5}]}],
        [{"kind": "independent", "marginals": [{"dist": "binomial", "n": 2}]}],
        [{"kind": "independent", "marginals": [{"dist": "point", "c": None}]}],
        [{"kind": "independent", "marginals": [["poisson", 0.5]]}],
        [{"kind": "independent", "marginals": [{"dist": ["poisson"], "lambda": 0.5}]}],
        [{"kind": "independent"}],
        [{"kind": "finite", "support": [{"p": 1.0}]}],
        [{"kind": "finite", "support": [{"v": [0]}]}],
        [{"kind": "finite", "support": {"v": [0], "p": 1.0}}],
        [3],
        3,
    ],
)
def test_model_json_malformed_is_value_error(offspring):
    with pytest.raises(ValueError):
        model_from_json({"p": 1, "offspring": offspring, "immigration": _POISSON_1})


def test_model_json_rejects_non_integer_p():
    law = {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}
    for p in ("1", 1.0, True):
        with pytest.raises(ValueError):
            model_from_json({"p": p, "offspring": [law], "immigration": _POISSON_1})


def test_model_dimension_checks():
    with pytest.raises(ValueError):
        BranchingModel(
            2,
            (IndependentMarginals([Bernoulli(0.5)]),),
            IndependentMarginals([Poisson(1.0), Poisson(1.0)]),
        )
    with pytest.raises(ValueError):
        BranchingModel(
            1,
            (IndependentMarginals([Bernoulli(0.5)]),),
            IndependentMarginals([Poisson(1.0), Poisson(1.0)]),
        )


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, "", ", ", "\n", "a, b\n  c", ",\n  "])
)
_ROW_SEPARATORS = st.sampled_from(["},\n  {", "},\n    {", "}, {", "\n"])
# tables of flat rows, as reports hold them: empty rows, bools, and strings
# that hold a row boundary or a newline, as keys and as values
_ROW_TABLES = st.lists(
    st.dictionaries(
        st.text(max_size=3) | _ROW_SEPARATORS, _JSON_SCALARS | _ROW_SEPARATORS, max_size=4
    ),
    min_size=1,
    max_size=5,
)
# lists of floats from a small pool, as moment tensors hold them: repeats,
# 0.0 next to -0.0, one NaN object repeated, NaN objects made apart, +-inf;
# and lists of such rows, which share values across rows
_FLOAT_POOL = st.sampled_from([0.0, -0.0, 1.5, -2.25, 0.1, 1e-05, 1e300, math.nan, math.inf,
                               -math.inf]) | st.builds(float, st.just("nan"))
_FLOAT_LISTS = st.lists(_FLOAT_POOL, min_size=1, max_size=8)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _ROW_TABLES | _FLOAT_LISTS | st.lists(_FLOAT_LISTS, min_size=1, max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from([", ", "\n"]), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps_indent_two(obj):
    # nested values, empty containers, tables of flat rows, NaN, +-inf, -0.0,
    # lists of floats that repeat values within and across lists, and strings
    # holding a separator or a newline are written as json.dumps writes them
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
