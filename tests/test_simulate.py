import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bpagg.moments
from bpagg import simulate
from bpagg.kronalg import NotSubcriticalError
from bpagg.model import (
    BranchingModel,
    mean_matrix,
    IndependentMarginals,
    Point,
    Poisson,
    model_digest,
)
from bpagg.simulate import (
    PathEnsemble,
    SimulationOverflowError,
    aggregate,
    aggregates_to_csv,
    _run_block,
    _simulate_block,
    block_copies,
    burnin_auto,
    derived_seed,
    ensemble_metadata,
    extract_innovations,
    paths_to_csv,
    simulate_ensemble,
    simulate_path,
    step,
    stream_rng,
    write_metadata,
)
from bpagg.simulate import _grid_indices
from bpagg.moments import moment_report, stationary_moments
from bpagg.model import Bernoulli, Binomial, FiniteSupport, Geometric
from conftest import (
    build_deterministic,
    build_deterministic_scalar,
    build_scalar_inar,
    build_two_type,
)


def test_step_deterministic_fixed_point():
    model = build_deterministic()
    rng = np.random.default_rng(0)
    assert_allclose(step(model, [0, 0], rng), [2, 3])
    assert_allclose(step(model, [2, 3], rng), [2, 5])
    assert_allclose(step(model, [2, 5], rng), [2, 5])


def test_step_empty_population_draws_only_immigration():
    model = build_deterministic_scalar()
    rng = np.random.default_rng(0)
    assert step(model, [0], rng)[0] == 1


def test_step_state_validation():
    model = build_scalar_inar()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step(model, [1, 2], rng)
    with pytest.raises(ValueError):
        step(model, [-1], rng)


def test_step_refuses_fractional_states():
    # a state of 1.5 is refused, not stepped from 1
    model = build_two_type()
    rng = np.random.default_rng(0)
    for state in ([1.5, 0], [0, 2.0000001], [np.nan, 0], [np.inf, 0]):
        with pytest.raises(ValueError, match="integer state"):
            step(model, state, rng)
    # integer-valued entries of any dtype are states
    assert step(model, np.array([1.0, 2.0]), stream_rng(2)).tolist() == step(
        model, [1, 2], stream_rng(2)
    ).tolist()


def test_path_shape_and_zero_start():
    model = build_two_type()
    path = simulate_path(model, 10, np.random.default_rng(1))
    assert path.shape == (11, 2)
    assert path.dtype == np.int64
    assert_allclose(path[0], [0, 0])
    assert simulate_path(model, 0, np.random.default_rng(1)).shape == (1, 2)
    with pytest.raises(ValueError):
        simulate_path(model, -1, np.random.default_rng(1))


def test_deterministic_path_hits_fixed_point():
    model = build_deterministic()
    path = simulate_path(model, 4, np.random.default_rng(0))
    assert_allclose(path, [[0, 0], [2, 3], [2, 5], [2, 5], [2, 5]])
    warm = simulate_path(model, 3, np.random.default_rng(0), burnin=5)
    assert_allclose(warm, [[2, 5]] * 4)
    assert_allclose(extract_innovations(model, warm), 0.0)


def test_burnin_values():
    # the certified K is the smallest with copies * mean * a^K <= 1e-6 on a
    # one-type model (see test_burnin_matches_scalar_closed_form): INAR has
    # a = 1/2 and mean 2, so 2^-K <= 5e-7 at K = 21 and 1500 copies need 32;
    # Bernoulli(0.96) offspring of Poisson(1) immigrants have mean 25 and
    # need K >= log(2.5e7) / log(1 / 0.96) = 417.3
    assert burnin_auto(build_scalar_inar()) == 21
    assert burnin_auto(build_scalar_inar(), 1500) == 32
    # M^2 = 0: no individual lives two generations
    assert burnin_auto(build_deterministic()) == 2
    slow = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(0.96)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    assert burnin_auto(slow) == 418
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    with pytest.raises(NotSubcriticalError):
        burnin_auto(crit)


def test_burnin_of_zero_immigration_is_zero():
    # the stationary law is the point mass at zero, where every path starts
    model = BranchingModel(
        1, (IndependentMarginals([Bernoulli(0.5)]),), IndependentMarginals([Point(0)])
    )
    assert burnin_auto(model) == 0
    assert burnin_auto(model, 10 ** 6) == 0


def _one_way_model():
    """Type 0 begets type 1 but not the reverse, and only type 1 immigrates:
    1^T M^K mean decays like 0.1^K, 1^T (M^T)^K mean like 0.5^K."""
    return BranchingModel(
        2,
        (
            IndependentMarginals([Bernoulli(0.5), Bernoulli(0.4)]),
            IndependentMarginals([Point(0), Bernoulli(0.1)]),
        ),
        IndependentMarginals([Point(0), Poisson(1.0)]),
    )


def _exact_deficits(model, top):
    """1^T (mean - m_K) for K = 0..top, where m_0 = 0 and m_(k+1) = M m_k +
    m_eps is the mean of a path started at zero, in rational arithmetic from
    the float entries of M and m_eps (a two-type model)."""
    from fractions import Fraction

    M = [[Fraction(float(v)) for v in row] for row in mean_matrix(model)]
    e = [Fraction(float(v)) for v in model.immigration.mean()]
    a, b, c, d = 1 - M[0][0], -M[0][1], -M[1][0], 1 - M[1][1]
    det = a * d - b * c
    mean = [(d * e[0] - b * e[1]) / det, (a * e[1] - c * e[0]) / det]
    m, out = [Fraction(0), Fraction(0)], []
    for _ in range(top + 1):
        out.append(mean[0] + mean[1] - m[0] - m[1])
        m = [M[0][0] * m[0] + M[0][1] * m[1] + e[0], M[1][0] * m[0] + M[1][1] * m[1] + e[1]]
    return out


@pytest.mark.parametrize("build", [build_two_type, _one_way_model])
def test_burnin_bound_is_the_zero_start_mean_deficit(build):
    model = build()
    M = mean_matrix(model)
    mean = stationary_moments(model, 1)[0]
    deficits = _exact_deficits(model, 60)
    for k in (0, 1, 2, 7, 23, 40):
        assert simulate._burnin_bound(M, mean, k) == pytest.approx(float(deficits[k]), rel=1e-12)
    # the transposed power reads another bound, so the orientation is pinned
    assert simulate._burnin_bound(M.T, mean, 7) != pytest.approx(float(deficits[7]), rel=1e-3)
    # K is the smallest count whose deficit over every copy is within 1e-6
    for copies in (1, 3, 1500, 10 ** 6):
        k = burnin_auto(model, copies)
        assert copies * deficits[k] <= 1e-6 < copies * deficits[k - 1]
    if build is _one_way_model:
        # mean = (0, 1 / 0.9): 1^T M^K mean = 0.1^K / 0.9 is within 1e-6 at
        # K = 7, the transposed 0.5^K / 0.9 only at K = 21
        assert burnin_auto(model) == 7
        assert simulate._certified_burnin(M.T, mean, 1) == 21


@pytest.mark.parametrize("a, lam", [(0.5, 1.0), (0.96, 1.0), (0.5, 1000.0), (0.9, 3.0)])
@pytest.mark.parametrize("copies", [1, 7, 1500, 10 ** 5])
def test_burnin_matches_scalar_closed_form(a, lam, copies):
    # one type: 1^T M^K mean = a^K lam / (1 - a)
    model = BranchingModel(
        1, (IndependentMarginals([Bernoulli(a)]),), IndependentMarginals([Poisson(lam)])
    )
    mean = lam / (1.0 - a)
    k = math.ceil(math.log(copies * mean / 1e-6) / math.log(1.0 / a))
    assert burnin_auto(model, copies) == k
    M, m = mean_matrix(model), np.array([mean])
    assert copies * simulate._burnin_bound(M, m, k) <= 1e-6
    assert copies * simulate._burnin_bound(M, m, k - 1) > 1e-6


def _poisson_pmf(mu, top):
    return np.array([math.exp(k * math.log(mu) - mu - math.lgamma(k + 1)) for k in range(top)])


def test_burnin_bound_covers_exact_inar_total_variation():
    # from zero, X_K of INAR(a) with Poisson(lam) immigration is
    # Poisson(lam (1 - a^K) / (1 - a)), and its stationary law Poisson(lam / (1 - a))
    a, lam = 0.5, 1.0
    model = build_scalar_inar()
    M, mean = mean_matrix(model), np.array([lam / (1.0 - a)])
    for k in range(1, 33):
        zero_start = _poisson_pmf(lam * (1.0 - a ** k) / (1.0 - a), 80)
        tv = 0.5 * np.abs(zero_start - _poisson_pmf(lam / (1.0 - a), 80)).sum()
        assert 0.0 < tv <= simulate._burnin_bound(M, mean, k)
    assert simulate._burnin_bound(M, mean, burnin_auto(model)) <= 1e-6


class _CountedMatrix(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __matmul__(self, other):
        _CountedMatrix.products += 1
        return (np.asarray(self) @ np.asarray(other)).view(_CountedMatrix)


@pytest.mark.parametrize("a", [0.5, 1.0 - 1e-4, 1.0 - 1e-8])
def test_burnin_takes_logarithmically_many_products(a):
    # K near 2.3e5 steps at a = 1 - 1e-4; a = 1 - 1e-8 passes the ceiling
    M = np.array([[a]]).view(_CountedMatrix)
    mean = np.array([1.0 / (1.0 - a)])
    _CountedMatrix.products = 0
    try:
        k = simulate._certified_burnin(M, mean, 1)
    except ValueError as exc:
        assert "rho = 0.99999999" in str(exc) and "--burnin K" in str(exc)
        k = 10 ** 6
    else:
        assert k == math.ceil(math.log(mean[0] / 1e-6) / -math.log1p(a - 1.0))
    # the doubling takes one power and one check per bit of K, the descent
    # one product per bit
    assert _CountedMatrix.products <= 3 * (k.bit_length() + 2)


def test_library_auto_burnin_covers_every_copy(monkeypatch):
    model = build_scalar_inar()
    seen = []
    real = simulate._simulate_block

    def record(model, copies, n, rng, burnin, *args):
        seen.append(burnin)
        return real(model, copies, n, rng, burnin, *args)

    monkeypatch.setattr(simulate, "_simulate_block", record)
    assert simulate_ensemble(model, 300, 5, 1).burnin == burnin_auto(model, 300) == 30
    assert seen == [30]
    del seen[:]
    aggregate(model, 300, 5, 1, (1.0,))
    assert seen == [30]
    del seen[:]
    simulate_path(model, 5, stream_rng(1), burnin="auto")
    assert seen == [21]


@pytest.mark.parametrize("c", [1, 2])
def test_auto_burnin_with_a_passed_mean_refuses_a_model_that_is_not_subcritical(c):
    # the model is classified before any step
    model = BranchingModel(
        1, (IndependentMarginals([Point(c)]),), IndependentMarginals([Poisson(1.0)])
    )
    with pytest.raises(NotSubcriticalError, match="subcritical"):
        aggregate(model, 2, 5, 0, (1.0,))


@pytest.mark.parametrize(
    "offspring, immigration",
    [(Point(1), Poisson(1.0)), (Point(2), Poisson(1.0)), (Bernoulli(0.5), Point(0))],
    ids=["critical", "supercritical", "zero-immigration"],
)
def test_aggregate_refuses_as_moment_report_before_any_block(monkeypatch, offspring,
                                                               immigration):
    model = _scalar(offspring, immigration)
    with pytest.raises(ValueError) as want:
        moment_report(model, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("validated or simulated")

    # the route solves its mean without validate, so a verb still validates once
    for mod in (simulate, bpagg.moments):
        monkeypatch.setattr(mod, "validate", refuse)
    monkeypatch.setattr(simulate, "_run_blocks", refuse)
    with pytest.raises(ValueError) as got:
        aggregate(model, 2, 5, 0, (1.0,))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("build", [build_two_type, _one_way_model])
def test_explicit_burnin_warns_exactly_when_the_exact_deficit_passes_1e_2(build):
    model = build()
    deficits = _exact_deficits(model, 23)
    mean = stationary_moments(model, 1)[0]
    # on build_two_type, 15 steps warn for 100 copies but not for one
    for k in (0, 1, 7, 15, 23):
        for copies in (1, 100, 10 ** 4):
            k_out, notes = simulate._resolve_burnin(model, k, copies)
            assert k_out == k
            # a passed stationary mean reads the same certificate
            assert simulate._resolve_burnin(model, k, copies, mean) == (k, notes)
            bound = copies * float(deficits[k])
            if bound > 1e-2:
                [note] = notes
                assert "burn-in of %d steps" % k in note and "%.3g" % bound in note
            else:
                assert notes == []


def test_resolver_on_a_critical_model():
    # rho = 1: no stationary law, so an explicit burn-in runs unwarned and
    # an automatic one is refused
    model = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    for k in (0, 3, 7):
        assert simulate._resolve_burnin(model, k, 100) == (k, [])
    with pytest.raises(NotSubcriticalError, match="subcritical"):
        simulate._resolve_burnin(model, "auto", 100)


def test_burnin_auto_ceiling_raises_before_running():
    # rho = 1 - 1e-8 would need about 1.38e9 burn-in steps
    near = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(1.0 - 1e-8)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    with pytest.raises(ValueError, match="rho") as exc:
        burnin_auto(near)
    assert "--burnin K" in str(exc.value)
    with pytest.raises(ValueError, match="--burnin K"):
        simulate_path(near, 5, stream_rng(0), burnin="auto")
    # an explicit burn-in still runs
    assert simulate_path(near, 5, stream_rng(0), burnin=3).shape == (6, 1)


def test_burnin_argument_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        simulate_path(model, 5, np.random.default_rng(0), burnin=-1)
    with pytest.raises(ValueError):
        simulate_path(model, 5, np.random.default_rng(0), burnin=2.5)


def _table_model():
    """Two types with a finite-table offspring law and table immigration."""
    return BranchingModel(
        2,
        (
            FiniteSupport([[0, 0], [1, 0], [0, 2]], [0.5, 0.3, 0.2]),
            IndependentMarginals([Poisson(0.2), Bernoulli(0.3)]),
        ),
        FiniteSupport([[0, 0], [2, 1], [1, 3]], [0.4, 0.3, 0.3]),
    )


def _array_block_path(model, n, rng, burnin):
    """One copy stepped by the lockstep array stepper on a (1, p) block."""
    path = np.zeros((n + 1, model.p), dtype=np.int64)
    for a, states in _run_block(model, n, rng, burnin, np.zeros((1, model.p), dtype=np.int64)):
        path[a : a + len(states)] = states[:, 0]
    return path


def _cohort_oracle(model, n, rng, burnin, cells):
    """The documented cohort order, written out with the laws' own draws.

    Birth steps 1..burnin+n go in chunks of k = cells // p: one immigration
    call per chunk, then one generation per round, each type's offspring
    sums over the living cohorts in birth order; a cohort is dropped once it
    is extinct or has reached the last step, and a chunk runs to the end
    before the next one starts.
    """
    p, total = model.p, burnin + n
    k = max(1, cells // p)
    states = np.zeros((total + 1, p), dtype=np.int64)
    for s in range(1, total + 1, k):
        m = min(k, total + 1 - s)
        eps = model.immigration.sample(rng, m)
        cohorts = [(s + c, eps[c]) for c in range(m)]  # (step, counts)
        while cohorts:
            for t, z in cohorts:
                states[t] += z
            cohorts = [(t, z) for t, z in cohorts if z.any() and t < total]
            if cohorts:
                counts = np.array([z for _, z in cohorts])
                born = sum(law.sample_sum(counts[:, i], rng) for i, law in enumerate(model.offspring))
                cohorts = [(t + 1, z) for (t, _), z in zip(cohorts, born)]
    return states[burnin:]


def _lockstep_oracle(model, copies, n, rng, burnin, cells):
    """The documented lockstep order, written out with the laws' own draws.

    Chunks of k = cells // (copies p) steps: the chunk's immigration for
    every step and copy in one call, then offspring step by step, each
    type's sums over all copies as one count array.
    """
    k = max(1, cells // (copies * model.p))
    x = np.zeros((copies, model.p), dtype=np.int64)
    states = [x]
    for done in range(0, burnin + n, k):
        m = min(k, burnin + n - done)
        eps = model.immigration.sample(rng, m * copies).reshape(m, copies, model.p)
        for t in range(m):
            draws = [law.sample_sum(x[:, i], rng) for i, law in enumerate(model.offspring)]
            x = eps[t] + sum(draws)
            states.append(x)
    return np.stack(states[burnin:], axis=1)


@pytest.mark.parametrize(
    "build", [build_scalar_inar, build_two_type, _table_model], ids=["scalar", "two", "table"]
)
def test_path_follows_cohort_order(build, monkeypatch):
    # a subcritical path is drawn as immigrant cohorts, in chunks of
    # 6 // p birth steps, so cohorts outlive their chunk and the burn-in
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 6)
    model = build()
    path = simulate_path(model, 200, stream_rng(7), burnin=15)
    assert path.dtype == np.int64
    assert np.array_equal(path, _cohort_oracle(model, 200, stream_rng(7), 15, 6))
    assert path[1:].sum() > 0
    # the same numbers through a one-copy ensemble block on its stream
    one = simulate_ensemble(model, 1, 200, master_seed=7, burnin=15).paths[0]
    assert np.array_equal(one, _cohort_oracle(model, 200, stream_rng(7, 0), 15, 6))


@pytest.mark.parametrize("copies", [1, 3])
def test_block_follows_documented_stream_order(copies, monkeypatch):
    # one copy of a short-lived subcritical model: immigrant cohorts; several
    # copies: lockstep chunks of _CHUNK_CELLS // (copies p) steps
    cells = 12
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", cells)
    model, n, burnin = _table_model(), 9, 4
    assert simulate._cohort_route(model)
    paths = _simulate_block(model, copies, n, stream_rng(3), burnin, cohorts=True)
    if copies == 1:
        expected = _cohort_oracle(model, n, stream_rng(3), burnin, cells)[None]
    else:
        expected = _lockstep_oracle(model, copies, n, stream_rng(3), burnin, cells)
    assert np.array_equal(paths, expected)


def test_path_holds_one_chunk_of_rows(monkeypatch):
    # a path keeps Python rows for one chunk only (1024 steps here); keeping
    # all 40000 rows as lists would take several megabytes
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 1024)
    model, n = build_scalar_inar(), 40000
    simulate_path(model, 10, stream_rng(1))
    tracemalloc.start()
    try:
        path = simulate_path(model, n, stream_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - path.nbytes < 1_000_000


_MARGINAL_KINDS = (
    lambda u: Poisson(0.6 * u),
    lambda u: Bernoulli(0.6 * u),
    lambda u: Binomial(2, 0.3 * u),
    lambda u: Geometric(1.0 / (1.0 + 0.6 * u)),
    lambda u: Point(int(u < 0.1)),
)


@st.composite
def _small_models(draw, subcritical=True):
    """Random models with p <= 3 mixing the five marginal kinds and tables.

    Offspring means stay below 0.9 / p per entry except for point masses at
    1; immigration means are at least 0.3 per coordinate. A subcritical
    model has its point masses at 0, so its spectral radius is at most 0.9;
    otherwise type 0 also has one child of type 0 for sure, so the spectral
    radius is at least one.
    """
    p = draw(st.integers(1, 3))

    def law(lo, scale, atom_scale):
        unit = st.floats(lo, 1.0)
        if draw(st.booleans()):
            atoms = [[0] * p] + [[2 * int(j == i) for j in range(p)] for i in range(p)]
            w = [draw(unit) * atom_scale for _ in range(p)]
            return FiniteSupport(atoms, [1.0 - sum(w)] + w)
        kinds = [draw(st.integers(0, 4)) for _ in range(p)]
        return IndependentMarginals([_MARGINAL_KINDS[k](draw(unit) * scale) for k in kinds])

    offspring = [law(0.0, 0.9 / p, 0.45 / p) for _ in range(p)]
    if subcritical:
        offspring = [
            IndependentMarginals([Point(0) if type(m) is Point else m for m in law.marginals])
            if isinstance(law, IndependentMarginals) else law
            for law in offspring
        ]
    else:
        rest = [Poisson(draw(st.floats(0.0, 1.0)) / p) for _ in range(p - 1)]
        offspring[0] = IndependentMarginals([Point(1)] + rest)
    return BranchingModel(p, tuple(offspring), law(0.5, 1.0, 0.5 / p))


def _path_or_overflow(run):
    try:
        return run()
    except SimulationOverflowError:
        return "overflow"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=_small_models(subcritical=False),
    n=st.integers(0, 30),
    burnin=st.integers(0, 12),
    cells=st.integers(1, 24),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_path_matches_array_block_property(model, n, burnin, cells, seed):
    # a critical or supercritical path is the lockstep (1, p) block, which
    # draws with int counts what the documented order draws with one-entry
    # arrays: equal paths, or an overflow on both routes
    assert not simulate._cohort_route(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_CELLS", cells)
        path = _path_or_overflow(
            lambda: simulate_path(model, n, stream_rng(seed), burnin=burnin)
        )
    # the oracle keeps the burn-in states, which the overflow ceiling covers
    states = _lockstep_oracle(model, 1, burnin + n, stream_rng(seed), 0, cells)[0]
    if states.max() > 2 ** 31:
        assert isinstance(path, str)
    else:
        assert np.array_equal(path, states[burnin:])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=_small_models(),
    n=st.integers(0, 30),
    burnin=st.integers(0, 12),
    cells=st.integers(1, 24),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_path_follows_cohort_order_property(model, n, burnin, cells, seed):
    assert simulate._cohort_route(model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_CELLS", cells)
        path = simulate_path(model, n, stream_rng(seed), burnin=burnin)
    assert np.array_equal(path, _cohort_oracle(model, n, stream_rng(seed), burnin, cells))


def _ks_two_sample(a, b):
    """Largest gap between the empirical CDFs of samples a and b."""
    grid = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_cohort_and_array_routes_agree_in_law():
    # X_n of the two-type model from zero by both routes, one path per seed;
    # the two-sample KS bound 1.95 sqrt(2 / reps) (level 0.001 each) is
    # fixed before sampling, and the routes share no seed
    model, n, reps = build_two_type(), 12, 1000
    cohort = np.array([simulate_path(model, n, stream_rng(1, r))[n] for r in range(reps)])
    array = np.array([_array_block_path(model, n, stream_rng(2, r), 0)[n] for r in range(reps)])
    bound = 1.95 * math.sqrt(2.0 / reps)
    for stat in (lambda x: x[:, 0], lambda x: x[:, 1], lambda x: x.sum(axis=1)):
        assert _ks_two_sample(stat(cohort), stat(array)) < bound
    # and the cohort route reaches the exact mean of X_n, sum_{j < n} M^j m_eps
    M = simulate.mean_matrix(model)
    target = sum(np.linalg.matrix_power(M, j) for j in range(n)) @ model.immigration.mean()
    se = cohort.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(cohort.mean(axis=0) - target) < 4 * se)


def test_inar_ensemble_states_follow_stationary_poisson():
    # Bernoulli(1/2) thinning with Poisson(1) immigration is stationary at
    # Poisson(2); X_n of every copy after auto burn-in, over two blocks, must
    # sit within the pre-registered KS band 1.36 / sqrt(N) of its CDF
    model, N, n = build_scalar_inar(), 6000, 10
    states = simulate_ensemble(model, N, n, master_seed=2026).paths[:, n, 0]
    support = np.arange(states.max() + 1)
    pmf = np.exp(support * math.log(2.0) - 2.0 - np.array([math.lgamma(k + 1) for k in support]))
    emp = np.cumsum(np.bincount(states, minlength=len(support))) / N
    assert np.max(np.abs(emp - np.cumsum(pmf))) <= 1.36 / math.sqrt(N)


def _refuse_cohorts(monkeypatch):
    def refuse(*args):
        raise AssertionError("routed to cohorts")

    monkeypatch.setattr(simulate, "_cohort_chunks", refuse)


def test_critical_path_uses_array_stepper(monkeypatch):
    # cohorts of a critical model need not die out, so its paths are stepped
    crit = _scalar(Point(1), Poisson(1.0))
    assert not simulate._cohort_route(crit)
    # rare immigrants would keep the lifetime bound small, but never die
    assert not simulate._cohort_route(_scalar(Point(1), Bernoulli(0.001)))
    _refuse_cohorts(monkeypatch)
    path = simulate_path(crit, 50, stream_rng(5), burnin=3)
    assert np.array_equal(path, _lockstep_oracle(crit, 1, 50, stream_rng(5), 3, 1 << 16)[0])
    one = simulate_ensemble(crit, 1, 50, master_seed=5, burnin=3).paths[0]
    assert np.array_equal(one, _lockstep_oracle(crit, 1, 50, stream_rng(5, 0), 3, 1 << 16)[0])


def test_cohort_route_bounds_mean_lifetime(monkeypatch):
    # the bound sum_g min(1, 1^T M^g m_eps) is 1 / (1 - q) generations for
    # bernoulli(q) offspring of one immigrant a step in mean, and about
    # log2(lam) + 2 for poisson(1/2) offspring of poisson(lam) immigrants
    bern = lambda q: _scalar(Bernoulli(q), Poisson(1.0))  # noqa: E731
    assert simulate._cohort_route(bern(0.5))
    assert simulate._cohort_route(bern(0.99))  # 100 generations
    assert not simulate._cohort_route(bern(0.995))  # 200
    assert simulate._cohort_route(_scalar(Poisson(0.5), Poisson(1000.0)))
    assert not simulate._cohort_route(_scalar(Poisson(0.97), Poisson(1000.0)))
    assert simulate._cohort_route(_scalar(Bernoulli(0.5), Point(0)))
    for build in (build_scalar_inar, build_two_type, build_deterministic, _table_model):
        assert simulate._cohort_route(build())
    # a subcritical model whose cohorts live long is stepped, burn-in and all
    slow = bern(0.999)
    _refuse_cohorts(monkeypatch)
    path = simulate_path(slow, 40, stream_rng(6), burnin=5)
    assert np.array_equal(path, _lockstep_oracle(slow, 1, 40, stream_rng(6), 5, 1 << 16)[0])


def test_regime_decided_once_per_call(monkeypatch):
    calls = []
    real = simulate._cohort_route

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(simulate, "_cohort_route", counting)
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 2)
    model = build_two_type()
    # one copy of 2 types fills a block of width 2: three one-copy blocks
    assert block_copies(2) == 1
    simulate_ensemble(model, 3, 19, master_seed=1, burnin=2)
    assert len(calls) == 1
    aggregate(model, 3, 19, 1, (1.0,), burnin=2)
    assert len(calls) == 2
    simulate_path(model, 19, stream_rng(1), burnin=2)
    assert len(calls) == 3
    # no block of one copy: no regime decided
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    simulate_ensemble(model, 4, 9, master_seed=1, burnin=2)
    assert len(calls) == 3


def test_step_is_a_one_step_chunk():
    # step draws one immigration vector, then each type's offspring sums
    model = _table_model()
    state = np.array([3, 4], dtype=np.int64)
    out = step(model, state, stream_rng(2))
    assert out.dtype == np.int64 and out.shape == (2,)
    rng = stream_rng(2)
    total = np.asarray(model.immigration.sample(rng, 1)[0], dtype=np.int64)
    for i, law in enumerate(model.offspring):
        total = total + law.sample_sum(int(state[i]), rng)
    assert np.array_equal(out, total)


def test_stream_addressing_is_stable():
    assert derived_seed(42, 0, 3) == derived_seed(42, 0, 3)
    assert derived_seed(42, 0, 3) != derived_seed(42, 0, 4)
    assert derived_seed(42, 0, 3) != derived_seed(43, 0, 3)
    a = stream_rng(42, 5).integers(0, 1 << 30, 4)
    b = stream_rng(42, 5).integers(0, 1 << 30, 4)
    c = stream_rng(42, 6).integers(0, 1 << 30, 4)
    assert_allclose(a, b)
    assert not np.array_equal(a, c)


def test_ensemble_reproducible_and_thread_invariant():
    model = build_two_type()
    base = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3)
    again = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3)
    threaded = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3, threads=3)
    assert_allclose(base.paths, again.paths)
    assert_allclose(base.paths, threaded.paths)
    assert base.N == 6 and base.n == 40 and base.p == 2 and base.burnin == 3


# two full blocks of the p = 1 model and a third of one copy
_BLOCKED = {"N": 2 * simulate._BLOCK_WIDTH + 1, "n": 12}


def test_ensemble_block_matches_block_run_alone():
    model = build_scalar_inar()
    N, n = _BLOCKED["N"], _BLOCKED["n"]
    size = block_copies(model.p)
    ens = simulate_ensemble(model, N, n, master_seed=5, burnin=10)
    starts = list(range(0, N, size))
    assert len(starts) == 3 and N - starts[-1] == 1
    for b, a in enumerate(starts):
        copies = min(size, N - a)
        alone = _simulate_block(model, copies, n, stream_rng(5, b), 10, cohorts=True)
        assert_allclose(ens.paths[a : a + copies], alone, atol=0)
    # a block of one copy is a path on the block's stream
    one = simulate_ensemble(model, 1, n, master_seed=5, burnin=10)
    assert_allclose(one.paths[0], simulate_path(model, n, stream_rng(5, 0), 10), atol=0)


def test_ensemble_blocks_thread_invariant():
    model = build_scalar_inar()
    N, n = _BLOCKED["N"], _BLOCKED["n"]
    base = simulate_ensemble(model, N, n, master_seed=8, burnin=0)
    for threads in (2, 3):
        other = simulate_ensemble(model, N, n, master_seed=8, burnin=0, threads=threads)
        assert np.array_equal(base.paths, other.paths)
    # blocks are not copies of one another
    size = block_copies(1)
    assert not np.array_equal(base.paths[:size], base.paths[size : 2 * size])


def test_block_size_from_cell_budget():
    # copies x types per block is fixed, whatever the path length
    assert block_copies(1) == 4096
    assert block_copies(3) == 1365
    assert block_copies(4096) == 1
    assert block_copies(10 ** 6) == 1


def test_ensemble_argument_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        simulate_ensemble(model, 0, 10, master_seed=1)


def test_overflow_guard():
    doubling = BranchingModel(
        1, (IndependentMarginals([Point(2)]),), IndependentMarginals([Point(1)])
    )
    with pytest.raises(SimulationOverflowError):
        simulate_path(doubling, 40, np.random.default_rng(0))
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(doubling, 3, 40, master_seed=0, burnin=0)
    doubling2 = BranchingModel(
        2,
        (
            IndependentMarginals([Point(2), Point(0)]),
            IndependentMarginals([Point(0), Point(2)]),
        ),
        IndependentMarginals([Point(1), Point(1)]),
    )
    with pytest.raises(SimulationOverflowError):
        simulate_path(doubling2, 40, np.random.default_rng(0))
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(doubling2, 2, 40, master_seed=0, burnin=0)


@pytest.mark.parametrize("copies", [1, 3])
def test_overflow_guard_boundary(copies):
    # the ceiling is 2^31 inclusive, on the one-copy and the array route
    def flat(c):
        return BranchingModel(
            2,
            (IndependentMarginals([Point(0), Point(0)]),) * 2,
            IndependentMarginals([Point(5), Point(c)]),
        )

    ens = simulate_ensemble(flat(2 ** 31), copies, 4, master_seed=0, burnin=2)
    assert np.all(ens.paths[:, :, 1] == 2 ** 31)
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(flat(2 ** 31 + 1), copies, 4, master_seed=0, burnin=0)


@pytest.mark.parametrize("copies", [1, 3])
def test_overflow_guard_sums_cohorts(copies):
    # every immigrant cohort stays below 2^31, but from the second step on
    # the state 2^31 - 8 + binomial(2^31 - 8, 1/2) passes it, in the burn-in
    # as well; at a rate of 2^-32 the state stays within the ceiling
    def model(q):
        return _scalar(Bernoulli(q), Point(2 ** 31 - 8))

    for n, burnin in ((4, 0), (0, 3)):
        with pytest.raises(SimulationOverflowError):
            simulate_ensemble(model(0.5), copies, n, master_seed=0, burnin=burnin)
    ens = simulate_ensemble(model(2.0 ** -32), copies, 4, master_seed=0, burnin=3)
    assert np.all(ens.paths >= 2 ** 31 - 8) and np.all(ens.paths <= 2 ** 31)


@pytest.mark.parametrize("copies", [1, 3])
def test_immigration_past_the_ceiling_raises_before_drawing(copies):
    # 3 * 2^62 brood trials would wrap int64 (numpy then refuses a negative
    # binomial n), so the immigrants are checked before their offspring
    model = _scalar(Binomial(3, 0.1), Point(2 ** 62))
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(model, copies, 5, master_seed=0, burnin=0)


def _scalar(offspring, immigration):
    return BranchingModel(
        1, (IndependentMarginals([offspring]),), IndependentMarginals([immigration])
    )


def _wide_row_model():
    # every constant is below 2^32, but three types feed coordinate 0: from
    # the state (2^31, 2^31, 2^31) the row sum 2^31 + 2^31 (2 (2^32 - 1) + 2)
    # is 2^64 + 2^31, which wraps back to 2^31
    c = 2 ** 32 - 1
    return BranchingModel(
        3,
        tuple(IndependentMarginals([Point(v), Point(0), Point(0)]) for v in (c, c, 2)),
        IndependentMarginals([Point(2 ** 31)] * 3),
    )


_WRAPPING = {
    # 2^31 * 2^40 wraps to 0, so the array route returned constant 2^31 paths
    "point": lambda: _scalar(Point(2 ** 40), Point(2 ** 31)),
    # binomial(2^30 * 2^40, q) cannot be drawn in int64; the true mean is 2^28
    "binomial": lambda: _scalar(Binomial(2 ** 40, 2.0 ** -42), Point(2 ** 30)),
    "table": lambda: BranchingModel(
        1, (FiniteSupport([[0], [2 ** 40]], [0.5, 0.5]),), IndependentMarginals([Point(2 ** 31)])
    ),
    "rows": _wide_row_model,
}


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("name", sorted(_WRAPPING))
def test_int64_products_raise_instead_of_wrapping(name, copies):
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(_WRAPPING[name](), copies, 5, master_seed=0, burnin=0)


def test_product_guard_only_for_large_constants():
    for model in (build_scalar_inar(), build_two_type(), build_deterministic(), _table_model()):
        assert simulate._offspring(model) is model.offspring
    edge = _scalar(Point(2 ** 32 - 1), Point(1))
    assert simulate._offspring(edge) is edge.offspring
    for name in _WRAPPING:
        model = _WRAPPING[name]()
        assert simulate._offspring(model) is not model.offspring, name


@pytest.mark.parametrize("copies", [1, 3])
def test_product_guard_draws_the_same_numbers(copies, monkeypatch):
    # binomial(2^40, 2^-42) offspring with one immigrant a step stays small,
    # so the guarded laws must return the unguarded draws
    model = _scalar(Binomial(2 ** 40, 2.0 ** -42), Point(1))
    guarded = simulate_ensemble(model, copies, 300, master_seed=3, burnin=0).paths
    monkeypatch.setattr(simulate, "_INT64_WRAP", 1 << 200)
    assert simulate._offspring(model) is model.offspring
    plain = simulate_ensemble(model, copies, 300, master_seed=3, burnin=0).paths
    assert np.array_equal(guarded, plain)


def test_innovation_reconstruction_and_example():
    model = build_scalar_inar()
    path = simulate_path(model, 300, stream_rng(3), burnin="auto")
    u = extract_innovations(model, path)
    x = path.astype(float)
    assert_allclose(x[1:], x[:-1] * 0.5 + 1.0 + u, atol=1e-12)
    assert extract_innovations(model, [[2], [3]])[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        extract_innovations(model, [[2]])
    with pytest.raises(ValueError):
        extract_innovations(model, [[2, 3], [1, 1]])


def _manual_ensemble(model, paths, seed=0, burnin=0):
    return PathEnsemble(model, seed, burnin, np.asarray(paths, dtype=np.int64))


def test_aggregate_arithmetic_single_copy():
    # from zero X_1 = (2, 3), then X_2 = (2, 5), the stationary mean: the
    # centered sums of the first m steps are 0, (0, -2) and (0, -2), scaled
    # by (n N)^(-1/2)
    model = build_deterministic()
    series = aggregate(model, 1, 2, 0, (0.0, 0.5, 1.0), burnin=0)
    want = [[0.0, 0.0], [0.0, -2.0], [0.0, -2.0]]
    assert_allclose(series.values * math.sqrt(2 * 1), want, rtol=1e-15)
    assert series.grid == (0.0, 0.5, 1.0)
    assert series.n == 2 and series.N == 1


def test_aggregate_sums_over_copies(monkeypatch):
    # from zero X_1 = (2, 3), then X_k = (2, 5), the stationary mean: each
    # copy's centered sum is (0, -2) from the first step on; blocks of 2, 2
    # and 1 copies, the last one drawn as cohorts
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    model, N, n, grid = build_deterministic(), 5, 4, (0.0, 0.25, 1.0)
    per = aggregate(model, N, n, 0, grid, burnin=0).per_copy
    want = np.array([[0.0, 0.0], [0.0, -2.0], [0.0, -2.0]]) / 2.0
    assert np.array_equal(per, np.broadcast_to(want, (N, 3, 2)))
    series = aggregate(model, N, n, 0, grid, burnin=0)
    assert_allclose(series.values, want * math.sqrt(N), rtol=1e-15)
    assert series.n == n and series.N == N
    # after a burn-in every step sits at the mean
    assert np.array_equal(aggregate(model, N, n, 0, grid, burnin=3).per_copy, np.zeros_like(per))


def test_aggregate_grid_validation(monkeypatch):
    # nonempty, finite, nonnegative, strictly increasing, within n = 2 steps;
    # 1e308 * n overflows to inf and is refused like any point past n; all
    # before anything is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(simulate, "_run_blocks", refuse)
    model = build_scalar_inar()
    bad = [(-0.1,), (1.6,), (), (math.inf,), (math.nan,), (1.0, 0.5), (0.5, 0.5), (1e308,)]
    for grid in bad:
        with pytest.raises(ValueError, match="grid"):
            aggregate(model, 1, 2, 0, grid)


def test_aggregate_argument_validation():
    model = build_scalar_inar()
    for N in (0, 2.5):
        with pytest.raises(ValueError, match="copies"):
            aggregate(model, N, 5, 0, (1.0,))
    with pytest.raises(ValueError, match="n >= 1"):
        aggregate(model, 2, 0, 0, (0.0,))
    with pytest.raises(ValueError, match="burnin"):
        aggregate(model, 2, 5, 0, (1.0,), burnin=-1)


@pytest.mark.parametrize("burnin", [0, 7])
def test_streamed_aggregates_match_path_oracle(burnin, monkeypatch):
    # blocks of 2, 2 and 1 copies, the last drawn as cohorts, and chunks of
    # 3 lockstep steps or 6 cohort birth steps, so grid points and the
    # burn-in fall inside and across chunks
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 12)
    cohort_blocks = []
    real = simulate._cohort_chunks

    def counting(*args):
        cohort_blocks.append(args)
        return real(*args)

    monkeypatch.setattr(simulate, "_cohort_chunks", counting)
    model, N, n, grid = build_two_type(), 5, 37, (0.0, 0.3, 0.5, 0.99, 1.0)
    got = aggregate(model, N, n, 9, grid, burnin=burnin).per_copy
    assert len(cohort_blocks) == 1
    paths = simulate_ensemble(model, N, n, 9, burnin=burnin).paths
    assert len(cohort_blocks) == 2
    # the centered cumulative sum of the stored paths, S_0 = 0
    mean = stationary_moments(model, 1)[0]
    csum = np.zeros((N, n + 1, 2))
    csum[:, 1:] = np.cumsum(paths[:, 1:] - mean, axis=1)
    want = csum[:, [0, 11, 18, 36, 37]] / math.sqrt(n)
    assert got.shape == (N, len(grid), 2)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.abs(want).max() > 1


def _grid3():
    """Three types mixing independent marginals with one finite table."""
    return BranchingModel(
        3,
        (
            IndependentMarginals([Bernoulli(0.1), Poisson(0.05), Geometric(0.95)]),
            IndependentMarginals([Poisson(0.05), Bernoulli(0.1), Bernoulli(0.05)]),
            FiniteSupport([[0, 0, 0], [1, 0, 0], [0, 1, 1], [0, 0, 2]],
                          [0.85, 0.05, 0.05, 0.05]),
        ),
        IndependentMarginals([Poisson(1.0), Poisson(0.5), Geometric(0.5)]),
    )


def test_aggregates_hold_no_paths():
    # 200 copies of 2000 steps would take 9.2 MiB as int64 paths; streamed
    # sums hold one chunk of a block and the (N, G, p) result
    model, N, n = _grid3(), 200, 2000
    aggregate(model, 2, 10, 1, (1.0,))
    tracemalloc.start()
    try:
        per = aggregate(model, N, n, 1, (0.5, 1.0)).per_copy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert per.shape == (N, 2, 3)
    assert peak < N * (n + 1) * model.p * 8 / 4


def test_grid_indices_reach_exactly_n():
    assert _grid_indices((0.0, 0.5, 1.0), 2) == [0, 1, 2]
    # floor(1.4 * 2) = 2 is still within the path, floor(1.5 * 2) = 3 is not
    assert _grid_indices((1.4,), 2) == [2]
    with pytest.raises(ValueError, match="grid"):
        _grid_indices((1.5,), 2)
    assert _grid_indices([0.25, 1], 0) == [0, 0]
    # inf * 0 is nan, so only the finiteness rule refuses inf on empty paths
    with pytest.raises(ValueError, match="finite"):
        _grid_indices((math.inf,), 0)


def test_percopy_matches_pooled_aggregate():
    model = build_two_type()
    grid = (0.25, 0.5, 1.0)
    per = aggregate(model, 5, 60, 21, grid).per_copy
    pooled = aggregate(model, 5, 60, 21, grid)
    assert per.shape == (5, 3, 2)
    # the ensemble aggregate is the per-copy route itself, not an approximation
    assert np.array_equal(pooled.values, per.sum(axis=0) / math.sqrt(5))


def test_ensemble_empirical_mean_near_stationary():
    model = build_scalar_inar()
    ens = simulate_ensemble(model, 200, 200, master_seed=99)
    grand = ens.paths[:, 1:, 0].mean()
    # time-average variance is sigma / n per copy, about 6/200, then / 200
    assert grand == pytest.approx(2.0, abs=0.1)


def test_csv_and_metadata_round_trip(tmp_path):
    model = build_two_type()
    ens = simulate_ensemble(model, 2, 3, master_seed=4, burnin=0)
    pcsv = tmp_path / "paths.csv"
    paths_to_csv(ens, pcsv)
    lines = pcsv.read_text().strip().split("\n")
    assert lines[0] == "copy,k,x_1,x_2"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert [int(v) for v in first[2:]] == list(ens.paths[0, 0])

    series = aggregate(model, 2, 3, 4, (0.5, 1.0), burnin=0)
    acsv = tmp_path / "agg.csv"
    aggregates_to_csv(series, acsv)
    alines = acsv.read_text().strip().split("\n")
    assert alines[0] == "t,s_1,s_2"
    cells = alines[1].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[1]) == pytest.approx(series.values[0, 0], abs=0)

    meta = tmp_path / "meta.json"
    write_metadata(ens, meta)
    payload = json.loads(meta.read_text())
    assert payload == ensemble_metadata(ens)
    assert payload["model"] == model_digest(model)
    assert payload["copies"] == 2 and payload["steps"] == 3 and payload["burnin"] == 0


def test_paths_to_csv_matches_per_row_format(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    paths = rng.integers(0, 5000, size=(3, 11, 3)).astype(np.int64)
    paths[1, 4, 2] = 2 ** 31
    ens = _manual_ensemble(None, paths)  # paths_to_csv reads only the paths
    expected = "copy,k,x_1,x_2,x_3\n" + "".join(
        "%d,%d,%s\n" % (j, k, ",".join(str(int(v)) for v in paths[j, k]))
        for j in range(3)
        for k in range(11)
    )
    out = tmp_path / "paths.csv"
    paths_to_csv(ens, out)
    assert out.read_bytes() == expected.encode()
    # rows split over several writes per copy, with a ragged last one
    monkeypatch.setattr(simulate, "_CSV_ROWS", 4)
    paths_to_csv(ens, out)
    assert out.read_bytes() == expected.encode()
