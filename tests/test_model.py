import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bpagg.model import (
    _SMALL,
    _WIDE,
    Bernoulli,
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
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
    for order in (1, 2, 3):
        assert marginal.raw_moment(order) == pytest.approx(
            _raw_moment_oracle(marginal, order), rel=1e-10, abs=1e-10
        )


def test_poisson_one_third_moment_is_five():
    assert Poisson(1.0).raw_moment(3) == pytest.approx(5.0, abs=1e-12)


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
    raws = [[m.raw_moment(r) for r in (1, 2, 3)] for m in law.marginals]
    for alpha in (2, 3):
        table = law.kron_moment(alpha).reshape((5,) * alpha)
        for idx in itertools.product(range(5), repeat=alpha):
            want = 1.0
            for c in dict.fromkeys(idx):
                want *= raws[c][idx.count(c) - 1]
            assert table[idx] == want


def test_mean_matrix_columns_are_offspring_means():
    model = build_two_type()
    assert_allclose(mean_matrix(model), [[0.3, 0.2], [0.1, 0.4]], atol=0)


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


def test_wide_zero_calls_draw_nothing():
    zeros = np.zeros(_WIDE, dtype=np.int64)
    for draw in (
        lambda rng: Bernoulli(0.35).sample_sum(zeros, rng),
        lambda rng: Binomial(3, 0.3).sample_sum(zeros, rng),
        lambda rng: Binomial(0, 0.3).sample_sum(zeros + 3, rng),
        lambda rng: Poisson(0.0).sample(rng, _WIDE),
    ):
        rng = stream_rng(306)
        out = draw(rng)
        assert out.shape == (_WIDE,) and out.dtype == np.int64 and not out.any()
        assert _same_stream_after(rng, stream_rng(306))


def test_huge_binomial_trial_sum_takes_numpy_route():
    # _WIDE counts of 2^31 at n = 2^31 are about 2^71 trials, which wrap
    # int64 to 0; the route test must see a large float and keep numpy's
    # variate, binomial(2^62, 1/2) per entry
    counts = np.full(_WIDE, 2 ** 31, dtype=np.int64)
    out = Binomial(2 ** 31, 0.5).sample_sum(counts, stream_rng(307))
    want = stream_rng(307).binomial(np.full(_WIDE, 2 ** 62), 0.5)
    assert np.array_equal(out, want)
    assert out.min() > 2 ** 61 - 2 ** 40


_ALL_LAWS = (
    Poisson(1.3),
    Bernoulli(0.35),
    Binomial(3, 0.3),
    Geometric(0.4),
    Point(2),
    FiniteSupport([[0, 1], [2, 0], [1, 1]], [0.3, 0.3, 0.4]),
    IndependentMarginals([Geometric(0.5), Poisson(0.7)]),
)


@pytest.mark.parametrize("law", _ALL_LAWS, ids=lambda law: type(law).__name__)
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
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from([", ", "\n"]), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps_indent_two(obj):
    # nested values, empty containers, NaN, +-inf, -0.0 and strings holding
    # the separator or a newline are written as json.dumps writes them
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"
