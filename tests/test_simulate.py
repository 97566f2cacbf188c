import importlib.util
import json
import math
import pathlib
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
    model_from_json,
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
    stream_rng,
    write_metadata,
)
from bpagg.simulate import _grid_indices, _superposed
from bpagg.verify import _batch_se, clt_covariance_experiment, iterated_experiment
from bpagg.moments import moment_report, stationary_moments
from bpagg.model import Bernoulli, Binomial, FiniteSupport, Geometric
from oracles import ks_distance, running_sum_law, state_law
from conftest import (
    build_deterministic,
    build_random_subcritical,
    build_scalar_inar,
    build_two_type,
)


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
    # on build_two_type, 15 steps warn for 100 copies but not for one
    for k in (0, 1, 7, 15, 23):
        for copies in (1, 100, 10 ** 4):
            k_out, notes = simulate._resolve_burnin(model, k, copies)
            assert k_out == k
            bound = copies * float(deficits[k])
            if bound > 1e-2:
                [note] = notes
                assert "burn-in of %d steps" % k in note and "%.3g" % bound in note
            else:
                assert notes == []


def test_every_entry_point_reads_burnin_by_one_contract():
    # None, 0, 7 and 'auto' are accepted everywhere, None draws exactly what
    # 0 draws, and a burn-in that is not 'auto', None or an integer >= 0 is
    # refused with one message whichever entry point reads it
    model = build_scalar_inar()
    calls = {
        "simulate_path": lambda b: simulate_path(model, 6, stream_rng(1), burnin=b),
        "simulate_ensemble": lambda b: simulate_ensemble(model, 3, 6, 1, burnin=b).paths,
        "aggregate": lambda b: aggregate(model, 3, 6, 1, (0.5, 1.0), burnin=b, reps=2),
        "clt_covariance_experiment": lambda b: clt_covariance_experiment(
            model, 6, 2, reps=3, grid=(0.5, 1.0), seed=1, burnin=b).to_json(),
        "iterated_experiment": lambda b: iterated_experiment(
            model, 6, 2, "N_first", sweep=[3, 6], seed=1, burnin=b).to_json(),
    }
    for name, call in calls.items():
        drawn = {b: call(b) for b in (None, 0, 7, "auto")}
        assert np.array_equal(drawn[None], drawn[0]), name
        for bad in (-1, 1.5, "x"):
            with pytest.raises(ValueError) as exc:
                call(bad)
            assert str(exc.value) == "need integer burnin >= 0, got %r" % (bad,), name


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
    for a, states in _run_block(model, 1, n, rng, burnin):
        path[a : a + len(states)] = states[:, 0]
    return path


def _cohort_oracle(model, n, rng, burnin, cells, copies=1, W=1):
    """The documented cohort order, written out with the laws' own draws.

    Birth steps 1..burnin+n go in chunks of k = cells // p births for one
    copy and cells // (3 copies p) for more, rounded down to whole windows
    of W births (at least one): one immigration call per chunk for every
    step and copy, in step order and copy order within a step. A column
    is a window of one copy, in window order and copy order within a
    window, and each round draws one generation, each type's offspring sums
    over the living columns in that order, then adds to each column its
    copy's immigration of the next step of its window while that step is in
    the chunk. A column is dropped once it has reached the last step, or is
    extinct with no immigration left to add, and a chunk runs to the end
    before the next one starts. At W = 1 a column is one cohort. Returns
    (copies, n+1, p) paths.
    """
    p, total = model.p, burnin + n
    k = max(1, cells // (p if copies == 1 else 3 * copies * p))
    k = max(W, k - k % W)
    states = np.zeros((total + 1, copies, p), dtype=np.int64)
    for s in range(1, total + 1, k):
        m = min(k, total + 1 - s)
        eps = model.immigration.sample(rng, m * copies)
        # (step, copy, counts, immigration still to add), step-major like the
        # immigration draw
        cohorts = [
            (s + r, c, eps[r * copies + c],
             [eps[q * copies + c] for q in range(r + 1, min(r + W, m))])
            for r in range(0, m, W) for c in range(copies)
        ]
        while cohorts:
            for t, c, z, _ in cohorts:
                states[t, c] += z
            cohorts = [(t, c, z, rest) for t, c, z, rest in cohorts
                       if (z.any() or rest) and t < total]
            if cohorts:
                counts = np.array([z for _, _, z, _ in cohorts])
                born = sum(law.sample_sum(counts[:, i], rng) for i, law in enumerate(model.offspring))
                cohorts = [(t + 1, c, z + rest[0] if rest else z, rest[1:])
                           for (t, c, _, rest), z in zip(cohorts, born)]
    return states[burnin:].swapaxes(0, 1)


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
    assert np.array_equal(path, _cohort_oracle(model, 200, stream_rng(7), 15, 6)[0])
    assert path[1:].sum() > 0
    # the same numbers through a one-copy ensemble block on its stream
    one = simulate_ensemble(model, 1, 200, master_seed=7, burnin=15).paths[0]
    assert np.array_equal(one, _cohort_oracle(model, 200, stream_rng(7, 0), 15, 6)[0])


@pytest.mark.parametrize("copies", [1, 3])
def test_block_follows_documented_stream_order(copies, monkeypatch):
    # a short-lived subcritical model as immigrant cohorts, in chunks of
    # 12 // p births for one copy and 12 // (3 copies p) for several; the
    # same block stepped in lockstep takes chunks of 12 // (copies p) steps
    model, n, burnin = _table_model(), 9, 4
    assert simulate._cohort_route(model, copies, simulate._cohort_lifetime(model), 100)
    cells = 12
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", cells)
    paths = _simulate_block(model, copies, n, stream_rng(3), burnin, window=1)
    assert np.array_equal(paths, _cohort_oracle(model, n, stream_rng(3), burnin, cells, copies))
    paths = _simulate_block(model, copies, n, stream_rng(3), burnin, window=0)
    assert np.array_equal(paths, _lockstep_oracle(model, copies, n, stream_rng(3), burnin, cells))


@pytest.mark.parametrize("copies", [1, 3])
def test_block_follows_documented_window_order(copies, monkeypatch):
    # windows of 3 births in chunks of 16 // p = 8 births rounded down to 6
    # for one copy, and of 16 // (3 copies p) rounded up to one window for
    # three, so the path of 24 births runs several chunks
    model, n, burnin, window, cells = _table_model(), 20, 4, 3, 16
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", cells)
    assert simulate._cohort_births(model.p, copies, window) == (6 if copies == 1 else 3)
    paths = _simulate_block(model, copies, n, stream_rng(3), burnin, window)
    want = _cohort_oracle(model, n, stream_rng(3), burnin, cells, copies, window)
    assert np.array_equal(paths, want)


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
    assert simulate._cohort_lifetime(model) == math.inf
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
    assert simulate._cohort_route(model, 1, simulate._cohort_lifetime(model), burnin + n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_CELLS", cells)
        path = simulate_path(model, n, stream_rng(seed), burnin=burnin)
    assert np.array_equal(path, _cohort_oracle(model, n, stream_rng(seed), burnin, cells)[0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=_small_models(),
    copies=st.integers(1, 5),
    n=st.integers(0, 30),
    burnin=st.integers(0, 12),
    cells=st.integers(1, 24),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_follows_cohort_order_property(model, copies, n, burnin, cells, seed):
    # a block of 1-5 copies drawn as cohorts, whether or not the rule sends
    # it there, in chunks of 1-12 births
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_CELLS", cells)
        paths = _simulate_block(model, copies, n, stream_rng(seed), burnin, window=1)
    want = _cohort_oracle(model, n, stream_rng(seed), burnin, cells, copies)
    assert np.array_equal(paths, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model=_small_models(),
    copies=st.integers(1, 5),
    window=st.integers(1, 7),
    n=st.integers(0, 30),
    burnin=st.integers(0, 12),
    cells=st.integers(1, 24),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_follows_window_order_property(model, copies, window, n, burnin, cells, seed):
    # blocks of 1-5 copies in windows of 1-7 births and chunks of 1-24 cells
    # rounded to whole windows, so columns outlive their chunk and windows
    # straddle the burn-in
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK_CELLS", cells)
        paths = _simulate_block(model, copies, n, stream_rng(seed), burnin, window)
    want = _cohort_oracle(model, n, stream_rng(seed), burnin, cells, copies, window)
    assert np.array_equal(paths, want)


def test_long_path_follows_window_order():
    # a BIGPOP-like path of 2000 steps after its burn-in of 31 takes the
    # rule's windows of 7 births, in one chunk
    model = _scalar(Poisson(0.5), Poisson(1000.0))
    assert burnin_auto(model) == 31
    assert _route(model, 1, 2031) == 7
    path = simulate_path(model, 2000, stream_rng(12), burnin="auto")
    assert np.array_equal(path, _cohort_oracle(model, 2000, stream_rng(12), 31, 1 << 16, 1, 7)[0])


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


def test_cohort_and_lockstep_blocks_agree_in_law():
    # X_n of every copy of blocks of 20 copies of the two-type model from
    # zero, each block drawn by both routes (the rule would step blocks this
    # short in lockstep); the two-sample KS bound 1.95 sqrt(2 / reps) (level
    # 0.001 each) is fixed before sampling, and the routes share no seed
    model, n, copies, blocks = build_two_type(), 12, 20, 50
    reps = copies * blocks

    def states(seed, window):
        return np.concatenate([
            _simulate_block(model, copies, n, stream_rng(seed, b), 0, window)[:, n]
            for b in range(blocks)
        ])

    cohort, lockstep = states(1, 1), states(2, 0)
    bound = 1.95 * math.sqrt(2.0 / reps)
    for i in range(model.p):
        assert _ks_two_sample(cohort[:, i], lockstep[:, i]) < bound


def test_window_and_lockstep_routes_agree_in_law():
    # X_n of the two-type model from zero in windows of 5 births, so that
    # X_n sums three windows, and in lockstep, one path per seed; the
    # two-sample KS bound 1.95 sqrt(2 / reps) (level 0.001 each) is fixed
    # before sampling, and the routes share no seed
    model, n, reps, window = build_two_type(), 12, 1000, 5
    windowed = np.array([
        _simulate_block(model, 1, n, stream_rng(3, r), 0, window)[0, n] for r in range(reps)
    ])
    lockstep = np.array([_array_block_path(model, n, stream_rng(4, r), 0)[n] for r in range(reps)])
    bound = 1.95 * math.sqrt(2.0 / reps)
    for stat in (lambda x: x[:, 0], lambda x: x[:, 1], lambda x: x.sum(axis=1)):
        assert _ks_two_sample(stat(windowed), stat(lockstep)) < bound
    # and windows reach the exact mean of X_n, sum_{j < n} M^j m_eps
    M = simulate.mean_matrix(model)
    target = sum(np.linalg.matrix_power(M, j) for j in range(n)) @ model.immigration.mean()
    se = windowed.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(windowed.mean(axis=0) - target) < 4 * se)


def test_windowed_long_path_autocovariances():
    # a BIGPOP-like path of 2 10^4 steps in the rule's windows of 23 births:
    # its lag 0-5 autocovariances sit within 4 batch-means SE of the exact
    # var0 (M^T)^lag; bound and seed fixed before sampling
    model, n = _scalar(Poisson(0.5), Poisson(1000.0)), 20000
    assert _route(model, 1, burnin_auto(model) + n) == 23
    x = simulate_path(model, n, stream_rng(11), burnin="auto")[1:, 0].astype(float)
    c = x - x.mean()
    exact = moment_report(model, 1)
    for lag in range(6):
        prods = c[: n - lag] * c[lag:]
        target = exact.var0[0, 0] * 0.5 ** lag
        assert abs(prods.mean() - target) < 4 * _batch_se(prods), lag


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


def test_one_copy_lockstep_path_follows_exact_poisson_law():
    # binomial thinning keeps Poisson laws, so from zero X_n of Bernoulli(q)
    # offspring with Poisson(lam) immigrants is exactly Poisson(lam (1 -
    # q^n) / (1 - q)); its cohorts outlive the lifetime bound, so every path
    # is the lockstep (1, 1) block. Bound 1.36 / sqrt(N) and seeds are fixed
    q, lam, n, N = 0.995, 3.0, 20, 1000
    model = _scalar(Bernoulli(q), Poisson(lam))
    assert simulate._cohort_lifetime(model) == math.inf
    assert simulate._cohort_route(model, 1, simulate._cohort_lifetime(model), n) == 0
    states = np.array([simulate_path(model, n, stream_rng(2027, i))[n, 0] for i in range(N)])
    mean = lam * (1.0 - q ** n) / (1.0 - q)
    support = np.arange(states.max() + 1)
    logf = np.array([math.lgamma(k + 1) for k in support])
    pmf = np.exp(support * math.log(mean) - mean - logf)
    emp = np.cumsum(np.bincount(states, minlength=len(support))) / N
    assert np.max(np.abs(emp - np.cumsum(pmf))) <= 1.36 / math.sqrt(N)


def _poisson_ks(states, mean):
    """Kolmogorov-Smirnov distance of integer states to Poisson(mean): both
    distribution functions step at the integers, so the largest gap is at
    one of them."""
    support = np.arange(states.max() + 1)
    logf = np.array([math.lgamma(k + 1) for k in support])
    pmf = np.exp(support * math.log(mean) - mean - logf)
    emp = np.cumsum(np.bincount(states, minlength=len(support))) / len(states)
    return np.max(np.abs(emp - np.cumsum(pmf)))


@pytest.mark.parametrize("window", [0, 1])
def test_superposed_inar_follows_exact_poisson_law(window):
    # N copies of Bernoulli(q) offspring with Poisson(lam) immigrants sum to
    # one chain whose immigrants are Poisson(N lam), so from zero X_n is
    # exactly Poisson(N lam (1 - q^n) / (1 - q)). Chains in lockstep (window
    # 0) and as cohorts (1); bound 1.36 / sqrt(R) and seeds fixed before
    # sampling
    q, lam, N, n, R = 0.5, 1.0, 50, 20, 4000
    model = _superposed(build_scalar_inar(), N)
    states = _simulate_block(model, R, n, stream_rng(2028, window), 0, window)[:, n, 0]
    assert _poisson_ks(states, N * lam * (1.0 - q ** n) / (1.0 - q)) <= 1.36 / math.sqrt(R)


@pytest.mark.parametrize("window", [0, 1])
def test_superposed_two_type_mean_is_the_n_fold_immigration_sum(window):
    # from zero E X_n = sum_(j < n) M^j (N m_eps) for N-fold immigration;
    # 4 standard errors, seeds fixed before sampling
    model, N, n, R = build_two_type(), 7, 12, 4000
    M, m_eps = mean_matrix(model), model.immigration.mean()
    target = sum(np.linalg.matrix_power(M, j) @ (N * m_eps) for j in range(n))
    x = _simulate_block(_superposed(model, N), R, n, stream_rng(2029, window), 0, window)
    x = x[:, n].astype(float)
    se = x.std(axis=0, ddof=1) / math.sqrt(R)
    assert np.all(np.abs(x.mean(axis=0) - target) <= 4.0 * se)


def test_running_sums_of_the_n_fold_inar_follow_the_exact_law():
    # S_n of R chains of the 50-fold INAR from zero, four ways: in lockstep,
    # as cohorts and in windows of 8 cohorts (_simulate_block), and
    # aggregate's chains undone to counts, against the exact law of S_n from
    # the pgfs of the laws with immigration pgf g^N (tests/oracles.py),
    # aliasing below 1e-30; bound 1.36 / sqrt(R), R and seeds fixed before
    # sampling
    q, lam, N, n, R = 0.5, 1.0, 50, 20, 4000
    model = _superposed(build_scalar_inar(), N)
    sums = [_simulate_block(model, R, n, stream_rng(2031, w), 0, w, [n])[:, 0, 0]
            for w in (0, 1, 8)]
    values = aggregate(build_scalar_inar(), N, n, 2031, (1.0,), burnin=0, reps=R)[:, 0, 0]
    counts = values * math.sqrt(n) * math.sqrt(N) + n * N * lam / (1.0 - q)
    sums.append(np.rint(counts).astype(np.int64))
    pmf, tail = running_sum_law(lambda s: 1.0 - q + q * s,
                                lambda s: np.exp(N * lam * (s - 1.0)), n, 4096)
    assert tail < 1e-30
    for got in sums:
        assert ks_distance(got, pmf) <= 1.36 / math.sqrt(R)


def test_windowed_one_copy_states_follow_the_exact_law():
    # X_m from zero of R independent one-copy blocks of the INAR, each on its
    # own stream, drawn in windows of W immigrant cohorts, at the last W
    # steps m of n: windows start at steps 1, W + 1, ..., so these end one
    # full window and hold the partial last one. Each against the exact law
    # of X_m from the pgfs of the laws (tests/oracles.py), aliasing below
    # 1e-30, which is Poisson(lam (1 - q^m) / (1 - q)); bound 1.36 /
    # sqrt(R), R, W and seeds fixed before sampling
    q, lam, n, W, R = 0.5, 1.0, 30, 8, 2000
    model = build_scalar_inar()
    paths = np.array([_simulate_block(model, 1, n, stream_rng(2032, r), 0, W)[0, :, 0]
                      for r in range(R)])
    k = np.arange(64)
    for m in range(n - W + 1, n + 1):
        pmf, tail = state_law(lambda s: 1.0 - q + q * s, lambda s: np.exp(lam * (s - 1.0)),
                              m, 64)
        assert tail < 1e-30
        mu = lam * (1.0 - q ** m) / (1.0 - q)
        poisson = np.exp(k * math.log(mu) - mu - np.array([math.lgamma(i + 1) for i in k]))
        assert_allclose(pmf, poisson, rtol=0, atol=1e-14)
        assert ks_distance(paths[:, m], pmf) <= 1.36 / math.sqrt(R), m


@pytest.mark.parametrize("window", [0, 1, 8], ids=["lockstep", "cohorts", "windows"])
def test_block_of_many_copies_states_follow_the_exact_law(window):
    # X_m from zero of R = 50 blocks x 40 copies of the INAR, block b on
    # the stream (3032, b), stepped in lockstep or drawn as windows of W = 1
    # or 8 immigrant cohorts, at steps 1, 2, 15 and 30 of 30: in windows of 8
    # these end the first step of a window, its second, its seventh and the
    # sixth of the last, partial one. Each against the exact law of X_m
    # from the pgfs of the laws (tests/oracles.py), aliasing below 1e-30;
    # bound 1.36 / sqrt(R), R, steps and seeds fixed before sampling
    q, lam, n, B, blocks = 0.5, 1.0, 30, 40, 50
    model = build_scalar_inar()
    paths = np.concatenate([_simulate_block(model, B, n, stream_rng(3032, b), 0, window)[:, :, 0]
                            for b in range(blocks)])
    R = len(paths)
    for m in (1, 2, 15, 30):
        pmf, tail = state_law(lambda s: 1.0 - q + q * s, lambda s: np.exp(lam * (s - 1.0)),
                              m, 64)
        assert tail < 1e-30
        assert ks_distance(paths[:, m], pmf) <= 1.36 / math.sqrt(R), m


def test_running_sum_oracle_matches_closed_forms():
    # S_1 = X_1 is the immigration, Poisson(50); E S_n = sum_t 50 (1 - q^t)
    # / (1 - q) for Bernoulli(q) offspring
    q, n = 0.5, 20
    f, g = (lambda s: 1.0 - q + q * s), (lambda s: np.exp(50.0 * (s - 1.0)))
    k = np.arange(512)
    pmf, tail = running_sum_law(f, g, 1, 512)
    logf = np.array([math.lgamma(i + 1) for i in k])
    assert tail < 1e-30
    assert_allclose(pmf, np.exp(k * math.log(50.0) - 50.0 - logf), rtol=0, atol=1e-14)
    pmf, tail = running_sum_law(f, g, n, 4096)
    want = sum(50.0 * (1.0 - q ** t) / (1.0 - q) for t in range(1, n + 1))
    assert (np.arange(4096) * pmf).sum() == pytest.approx(want, rel=1e-12)


def _bench_models():
    """GRID3, BIGPOP and random_model(8, 0) of the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [model_from_json(m) for m in
            (workloads.GRID3, workloads.BIGPOP, workloads.random_model(8, 0))]


def _lifetime_by_generation(model):
    """_cohort_lifetime's bound, one generation at a time: the first g with
    1^T M^g m_eps below one, within 128, plus 1^T M^g mean."""
    M, v, mean = mean_matrix(model), model.immigration.mean(), model._mean
    g = 0
    while v.sum() >= 1.0:
        g += 1
        if g > 128:
            return math.inf
        v, mean = M @ v, M @ mean
    life = g + float(mean.sum())
    return life if life <= 128 else math.inf


def _route_by_generation(model, copies, life, steps):
    """_cohort_route's lockstep gate for B >= 2 copies, 1 for cohorts and 0
    for lockstep, its rounds counted one generation at a time up to the
    budget."""
    births = min(simulate._cohort_births(model.p, copies), steps)
    work = copies * life * max(life, 1.0 / (1.0 - model._rho)) / simulate._COHORT_WORK
    budget = (1.0 - work) * births / simulate._COHORT_ROUND
    M, v = mean_matrix(model), births * copies * model.immigration.mean()
    rounds = 0
    while v.sum() >= 1.0 and rounds <= budget:
        rounds += 1
        v = M @ v
    return int(rounds <= budget)


def _burnin_by_step(model, copies):
    M, v, k = mean_matrix(model), model._mean, 0
    while v.sum() > 1e-6 / copies:
        k, v = k + 1, M @ v
    return k


def test_power_search_matches_generation_loops():
    # lifetimes, routes (lockstep or cohorts, whatever the window) and
    # burn-ins found by doubling (_first_power) are the ones a loop over
    # generations finds. In the last model type 0 begets 1.8 of type 1 and
    # type 1 0.3 of type 0, so the sums 1^T M^g m_eps of its type-1
    # immigrants fall and rise with g: 5, 1.5, 2.7, 0.81, 1.46, ...
    # Its search steps one power at a time; doubling from g = 0 would skip
    # the first sum below one, at g = 3, and stop at g = 5
    cycle = BranchingModel(
        2,
        (IndependentMarginals([Point(0), Poisson(1.8)]),
         IndependentMarginals([Bernoulli(0.3), Point(0)])),
        IndependentMarginals([Point(0), Poisson(5.0)]),
    )
    models = [build_scalar_inar(), build_two_type(), *_bench_models(),
              _scalar(Bernoulli(0.995), Poisson(3.0)), _superposed(build_scalar_inar(), 50),
              cycle]
    for model in models:
        want = _lifetime_by_generation(model)
        life = simulate._cohort_lifetime(model)
        assert life == pytest.approx(want, rel=1e-12, abs=0)
        for copies in (2, 20, 100, 400, 465, 700, 1500):
            for steps in (30, 100, 1000, 20000):
                want_route = 0 if life == math.inf else _route_by_generation(
                    model, copies, want, steps)
                assert bool(simulate._cohort_route(model, copies, life, steps)) == want_route
        for copies in (1, 100, 10 ** 4):
            assert burnin_auto(model, copies) == _burnin_by_step(model, copies)


def _refuse_cohorts(monkeypatch):
    def refuse(*args):
        raise AssertionError("routed to cohorts")

    monkeypatch.setattr(simulate, "_cohort_chunks", refuse)


def _route(model, copies=1, steps=100):
    return simulate._cohort_route(model, copies, simulate._cohort_lifetime(model), steps)


def test_critical_path_uses_array_stepper(monkeypatch):
    # cohorts of a critical model need not die out, so its paths are stepped
    crit = _scalar(Point(1), Poisson(1.0))
    assert not _route(crit) and not _route(crit, 2)
    # rare immigrants would keep the lifetime bound small, but never die
    assert not _route(_scalar(Point(1), Bernoulli(0.001)))
    _refuse_cohorts(monkeypatch)
    path = simulate_path(crit, 50, stream_rng(5), burnin=3)
    assert np.array_equal(path, _lockstep_oracle(crit, 1, 50, stream_rng(5), 3, 1 << 16)[0])
    one = simulate_ensemble(crit, 1, 50, master_seed=5, burnin=3).paths[0]
    assert np.array_equal(one, _lockstep_oracle(crit, 1, 50, stream_rng(5, 0), 3, 1 << 16)[0])
    two = simulate_ensemble(crit, 2, 50, master_seed=5, burnin=3).paths
    assert np.array_equal(two, _lockstep_oracle(crit, 2, 50, stream_rng(5, 0), 3, 1 << 16))


def test_cohort_route_bounds_mean_lifetime(monkeypatch):
    # the bound sum_g min(1, 1^T M^g m_eps) is 1 / (1 - q) generations for
    # bernoulli(q) offspring of one immigrant a step in mean, and about
    # log2(lam) + 2 for poisson(1/2) offspring of poisson(lam) immigrants
    bern = lambda q: _scalar(Bernoulli(q), Poisson(1.0))  # noqa: E731
    life = simulate._cohort_lifetime
    assert life(bern(0.5)) == pytest.approx(2.0)
    assert life(bern(0.99)) == pytest.approx(100.0)
    assert life(bern(0.995)) == math.inf  # 200 generations
    assert life(_scalar(Poisson(0.5), Poisson(1000.0))) == pytest.approx(11.953125)
    assert life(_scalar(Poisson(0.97), Poisson(1000.0))) == math.inf
    assert life(_scalar(Bernoulli(0.5), Point(0))) == 0.0
    for build in (build_scalar_inar, build_two_type, build_deterministic, _table_model):
        assert _route(build())
    # one copy: within 128 generations. B >= 2 copies of 100 steps: while
    # 1.5 rounds per birth plus B L g / 3584 stay within one, g the larger
    # of the bound and 1 / (1 - rho)
    assert _route(bern(0.99)) and not _route(bern(0.99), 2)
    assert _route(bern(0.9), 4) and not _route(bern(0.9), 5)
    assert _route(build_scalar_inar(), 464) and not _route(build_scalar_inar(), 465)
    # rare immigrants of long-lived cohorts: a bound of 0.5, but one
    # individual lives 1 / (1 - 0.9) = 10 generations in mean
    rare = _scalar(Bernoulli(0.9), Bernoulli(0.05))
    assert life(rare) == pytest.approx(0.5)
    assert _route(rare, 90) and not _route(rare, 91)
    # longer paths give a chunk more births to pay for its rounds, shorter
    # ones fewer; blocks stay monotone in their width
    assert _route(bern(0.9), 29, 1000) and not _route(bern(0.9), 30, 1000)
    assert not _route(bern(0.9), 2, 30)
    assert _route(build_scalar_inar(), 273, 30) and not _route(build_scalar_inar(), 274, 30)
    # full blocks, of 4096 INAR copies or 256 of a 16-type model (L = 2.24)
    assert not _route(build_scalar_inar(), block_copies(1))
    p16 = build_random_subcritical(np.random.default_rng(0), 16, 0.2)
    assert _route(p16, 136) and not _route(p16, 137)
    assert not _route(p16, block_copies(16))
    # one copy: windows of round(sqrt(k (L - 1) / (430 p^2))) births, k the
    # chunk's births (at most the path's), and 1 below 6
    bigpop = _scalar(Poisson(0.5), Poisson(1000.0))
    assert _route(bigpop, 1, 10031) == 16 and _route(bigpop, 1, 2031) == 7
    assert _route(bigpop, 1, 10 ** 6) == round(math.sqrt(65536 * 10.953125 / 430)) == 41
    assert _route(build_scalar_inar(), 1, 10 ** 4) == 1
    assert _route(build_scalar_inar(), 1, 4 * 10 ** 4) == 10
    assert _route(build_two_type(), 1, 10 ** 4) == 1
    assert _route(build_two_type(), 1, 4 * 10 ** 4) == 7
    assert _route(rare) == 1 and _route(p16, 1, 10 ** 6) == 1
    # B >= 2 copies that pass the gate: windows of round(sqrt(B k (L - 1) /
    # (430 p^2))) births, k the births of a chunk of B copies (at most the
    # path's), so one copy's rule is B = 1's. Two BIGPOP copies, and the
    # clt-inar benchmark's block of 30 chains of the 50-fold INAR (L 7.5625)
    # over 32 + 200 steps, whose shorter paths get W = 1 and then lockstep
    assert _route(bigpop, 2, 10031) == round(math.sqrt(2 * 10031 * 10.953125 / 430)) == 23
    inar50 = _superposed(build_scalar_inar(), 50)
    assert life(inar50) == pytest.approx(7.5625)
    assert _route(inar50, 30, 232) == 10 and _route(inar50, 30, 70) == 6
    assert _route(inar50, 30, 65) == 1 and _route(inar50, 30, 40) == 0
    # a subcritical model whose cohorts live long is stepped, burn-in and all
    slow = bern(0.999)
    _refuse_cohorts(monkeypatch)
    path = simulate_path(slow, 40, stream_rng(6), burnin=5)
    assert np.array_equal(path, _lockstep_oracle(slow, 1, 40, stream_rng(6), 5, 1 << 16)[0])


def test_regime_decided_once_per_call(monkeypatch):
    calls = []
    real = simulate._cohort_lifetime

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(simulate, "_cohort_lifetime", counting)
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
    # blocks of 2 and 1 copies: still one lifetime per call
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    simulate_ensemble(model, 3, 9, master_seed=1, burnin=2)
    assert len(calls) == 4


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
    life = simulate._cohort_lifetime(model)
    for b, a in enumerate(starts):
        copies = min(size, N - a)
        window = simulate._cohort_route(model, copies, life, 10 + n)
        assert window == int(copies == 1)
        alone = _simulate_block(model, copies, n, stream_rng(5, b), 10, window)
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


@pytest.mark.parametrize("build", [build_scalar_inar, _grid3], ids=["inar", "grid3"])
def test_ensemble_on_both_routes_thread_invariant(build):
    # a full block, stepped in lockstep, then a narrow one drawn as cohorts
    model = build()
    size = block_copies(model.p)
    N, n = size + 20, 40
    life = simulate._cohort_lifetime(model)
    assert not simulate._cohort_route(model, size, life, n)
    assert simulate._cohort_route(model, 20, life, n)
    base = simulate_ensemble(model, N, n, master_seed=4, burnin=0)
    for b, copies in enumerate((size, 20)):
        alone = _simulate_block(model, copies, n, stream_rng(4, b), 0, window=int(b == 1))
        assert np.array_equal(base.paths[b * size : b * size + copies], alone)
    threaded = simulate_ensemble(model, N, n, master_seed=4, burnin=0, threads=2)
    assert np.array_equal(base.paths, threaded.paths)
    sums = [aggregate(model, 1, n, 4, (0.5, 1.0), burnin=0, threads=t, reps=N) for t in (1, 2)]
    assert np.array_equal(sums[0], sums[1])


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


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_seed_refused_by_name_before_any_block(seed, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ran a block or solved the model before the seed was checked")

    monkeypatch.setattr(simulate, "_run_blocks", refuse)
    monkeypatch.setattr(simulate, "_stationary_mean", refuse)
    model = build_scalar_inar()
    with pytest.raises(ValueError, match="master_seed"):
        simulate_ensemble(model, 2, 10, master_seed=seed, burnin=3)
    with pytest.raises(ValueError, match="master_seed"):
        aggregate(model, 2, 10, seed, (1.0,), burnin=3)


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


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("copies", [1, 3])
def test_overflow_guard_checks_every_column(copies, window):
    # 2^31 immigrants a step with about one child each: states pass the
    # ceiling from the second step on, and in windows so does a column from
    # its second round. Unchecked, a column of 2^32 would wrap the int64
    # product 2^32 (2^32 - 1) of its next binomial draw
    model = _scalar(Binomial(2 ** 32 - 1, 2.0 ** -32), Point(2 ** 31))
    assert simulate._offspring(model) is model.offspring
    with pytest.raises(SimulationOverflowError):
        _simulate_block(model, copies, 4, stream_rng(0), 0, window)


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
    values = aggregate(model, 1, 2, 0, (0.0, 0.5, 1.0), burnin=0)
    want = [[0.0, 0.0], [0.0, -2.0], [0.0, -2.0]]
    assert values.shape == (1, 3, 2)
    assert_allclose(values[0] * math.sqrt(2 * 1), want, rtol=1e-15)


def test_aggregate_sums_over_copies(monkeypatch):
    # from zero X_1 = (2, 3), then X_k = (2, 5), the stationary mean: each
    # copy's centered sum is (0, -2) from the first step on, and the sum of
    # N copies N (0, -2); reps chains in blocks of 2, 2 and 1, the last one
    # drawn as cohorts
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    model, n, grid = build_deterministic(), 4, (0.0, 0.25, 1.0)
    want = np.array([[0.0, 0.0], [0.0, -2.0], [0.0, -2.0]]) / 2.0
    for N, reps in ((1, 5), (5, 1), (5, 5)):
        values = aggregate(model, N, n, 0, grid, burnin=0, reps=reps)
        assert values.shape == (reps, 3, 2)
        assert_allclose(values, np.broadcast_to(want * math.sqrt(N), values.shape), rtol=1e-15)
        # after a burn-in every step sits at the mean
        still = aggregate(model, N, n, 0, grid, burnin=3, reps=reps)
        assert np.array_equal(still, np.zeros_like(values))


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
        with pytest.raises(ValueError, match="need reps >= 1"):
            aggregate(model, 2, 5, 0, (1.0,), reps=N)
    with pytest.raises(ValueError, match="n >= 1"):
        aggregate(model, 2, 0, 0, (0.0,))
    with pytest.raises(ValueError, match="burnin"):
        aggregate(model, 2, 5, 0, (1.0,), burnin=-1)


def _streamed_aggregates_match_path_oracle(burnin, cohort_calls):
    # blocks of 2, 2 and 1 copies of the two-type model, in chunks of 3
    # lockstep steps, 1 cohort birth for two copies or 6 for one, so grid
    # points and the burn-in fall inside and across chunks
    cohort_blocks = []
    real = simulate._cohort_chunks

    def counting(*args):
        cohort_blocks.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_cohort_chunks", counting)
        model, N, n, grid = build_two_type(), 5, 37, (0.0, 0.3, 0.5, 0.99, 1.0)
        got = aggregate(model, 1, n, 9, grid, burnin=burnin, reps=N)
        assert len(cohort_blocks) == cohort_calls
        paths = simulate_ensemble(model, N, n, 9, burnin=burnin).paths
        assert len(cohort_blocks) == 2 * cohort_calls
    # the centered cumulative sum of the stored paths, S_0 = 0
    mean = stationary_moments(model, 1)[0]
    csum = np.zeros((N, n + 1, 2))
    csum[:, 1:] = np.cumsum(paths[:, 1:] - mean, axis=1)
    want = csum[:, [0, 11, 18, 36, 37]] / math.sqrt(n)
    assert got.shape == (N, len(grid), 2)
    assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.abs(want).max() > 1


@pytest.mark.parametrize("burnin", [0, 7])
def test_streamed_aggregates_match_path_oracle(burnin, monkeypatch):
    # every block, of 2 or 1 copies, routed to cohorts
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 12)
    monkeypatch.setattr(simulate, "_cohort_route", lambda *args: 1)
    _streamed_aggregates_match_path_oracle(burnin, 3)


@pytest.mark.parametrize("burnin", [0, 7])
def test_streamed_lockstep_aggregates_match_path_oracle(burnin, monkeypatch):
    # the rule's own routes: a chunk of one birth cannot pay for the rounds
    # of its cohorts, so the blocks of 2 are stepped in lockstep and only
    # the block of 1 is drawn as cohorts
    monkeypatch.setattr(simulate, "_BLOCK_WIDTH", 4)
    monkeypatch.setattr(simulate, "_CHUNK_CELLS", 12)
    _streamed_aggregates_match_path_oracle(burnin, 1)


def test_aggregates_hold_no_paths():
    # 200 copies of 2000 steps would take 9.2 MiB as int64 paths; streamed
    # sums hold one chunk of a block and the (N, G, p) result
    model, N, n = _grid3(), 200, 2000
    aggregate(model, 2, 10, 1, (1.0,))
    tracemalloc.start()
    try:
        per = aggregate(model, 1, n, 1, (0.5, 1.0), reps=N)
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


def test_aggregate_is_a_chain_of_the_n_fold_model():
    # aggregate r of reps is chain r of an ensemble of reps chains of the
    # N-fold model on the keyed streams, centered at N times the mean, then
    # scaled by 1 / sqrt(n) and 1 / sqrt(N), in that order
    model, n, grid, idx = build_two_type(), 60, (0.25, 0.5, 1.0), [15, 30, 60]
    mean = stationary_moments(model, 1)[0]
    # the N-fold model: the model at N = 1, else its offspring laws and
    # immigration drawn as the sum of N draws
    assert _superposed(model, 1) is model
    superposed = _superposed(model, 5)
    assert superposed.offspring == model.offspring
    assert_allclose(superposed.immigration.mean(), 5 * model.immigration.mean())
    sums = model.immigration.sample_sum(np.full(50, 5), stream_rng(5))
    assert np.array_equal(superposed.immigration.sample(stream_rng(5), 50), sums)
    for N, reps in ((1, 3), (5, 1), (5, 3)):
        got = aggregate(model, N, n, 21, grid, reps=reps)
        burn = burnin_auto(model, reps * N)
        chains = simulate_ensemble(_superposed(model, N), reps, n, 21, burnin=burn).paths
        sums = np.cumsum(chains[:, 1:], axis=1)[:, [m - 1 for m in idx]]
        want = (sums - np.outer(idx, N * mean)) / math.sqrt(n) / math.sqrt(N)
        assert got.shape == (reps, 3, 2)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)


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

    values = aggregate(model, 2, 3, 4, (0.5, 1.0), burnin=0)[0]
    acsv = tmp_path / "agg.csv"
    aggregates_to_csv((0.5, 1.0), values, acsv)
    alines = acsv.read_text().strip().split("\n")
    assert alines[0] == "t,s_1,s_2"
    cells = alines[1].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[1]) == pytest.approx(values[0, 0], abs=0)

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
