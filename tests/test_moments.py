import collections
import functools
import importlib.util
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import signal, stats

import bpagg.model
import bpagg.moments
from bpagg.kronalg import NotSubcriticalError, spectral_radius
from bpagg.model import (
    Bernoulli,
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
    mean_matrix,
    model_from_json,
    validate,
)
from bpagg.moments import (
    autocovariance,
    build_transfer,
    limit_covariance,
    moment_report,
    noise_matrix,
    stationary_moments,
    stationary_variance,
)
from conftest import (
    build_random_subcritical,
    build_scalar_inar,
    build_two_type,
    dense_tables,
)


def _iterate_moments(model, steps=400):
    """Push the one-step moment recursion forward from zero.

    Converges geometrically at rate rho(M), so 400 steps swamp any model with
    rho <= 0.9. Exercises the fixed point without the linear solves.
    """
    p = model.p
    tm = build_transfer(model, 3)
    b = np.concatenate(
        [
            model.immigration.mean(),
            model.immigration.kron_moment(2),
            model.immigration.kron_moment(3),
        ]
    )
    y = np.zeros(p + p * p + p ** 3)
    for _ in range(steps):
        y = tm.a3 @ y + b
    return y[:p], y[p : p + p * p], y[p + p * p :]


def _dense_moments(model):
    """Stationary moments by dense forward block substitution through
    (I - a3) y = (m_eps; E eps^(x)2; E eps^(x)3).

    One solve of the whole system would measure its error against the
    largest block (kron3), which swamps the mean near criticality; each
    diagonal block is solved on its own instead.
    """
    a3 = build_transfer(model, 3).a3
    cuts = np.cumsum([0] + [model.p ** k for k in (1, 2, 3)])
    y = []
    for k in range(3):
        rows = slice(cuts[k], cuts[k + 1])
        rhs = model.immigration.kron_moment(k + 1)
        for j in range(k):
            rhs = rhs + a3[rows, cuts[j] : cuts[j + 1]] @ y[j]
        diag = a3[rows, rows]
        y.append(np.linalg.solve(np.eye(len(diag)) - diag, rhs))
    return y


def _any_marginal(rng, mean):
    """One of the five marginal kinds with the given mean (Point rounds it,
    Bernoulli caps it at one)."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return Poisson(mean)
    if kind == 1:
        return Bernoulli(min(mean, 1.0))
    if kind == 2:
        return Binomial(3, mean / 3.0)
    if kind == 3:
        return Geometric(1.0 / (1.0 + mean))
    return Point(int(rng.random() < mean))


def _mixed_model(rng, M, imm_means):
    """Model with offspring mean matrix close to M: each type is either a
    product of random marginals or a table on {0, e_j, 2 e_j}."""
    p = M.shape[0]
    offspring = []
    for i in range(p):
        col = M[:, i]
        if rng.random() < 0.5:
            offspring.append(IndependentMarginals([_any_marginal(rng, c) for c in col]))
            continue
        steps = 1 + (rng.random(p) < 0.3)
        atoms = [np.zeros(p, dtype=np.int64)]
        probs = [1.0 - float(np.sum(col / steps))]
        for j in range(p):
            v = np.zeros(p, dtype=np.int64)
            v[j] = steps[j]
            atoms.append(v)
            probs.append(col[j] / steps[j])
        offspring.append(FiniteSupport(np.stack(atoms), probs))
    if rng.random() < 0.5:
        immigration = IndependentMarginals([_any_marginal(rng, c) for c in imm_means])
        if not np.any(immigration.mean() > 0):
            immigration = IndependentMarginals([Poisson(c) for c in imm_means])
    else:
        atoms = [np.zeros(p, dtype=np.int64)] + [
            np.eye(p, dtype=np.int64)[j] * int(rng.integers(1, 4)) for j in range(p)
        ]
        rest = rng.uniform(0.1, 1.0, p)
        probs = [0.4] + (0.6 * rest / rest.sum()).tolist()
        immigration = FiniteSupport(np.stack(atoms), probs)
    return BranchingModel(p, tuple(offspring), immigration)


def _assert_close_to_dense(model):
    structured = stationary_moments(model, 3)
    for got, want in zip(structured, _dense_moments(model)):
        scale = np.max(np.abs(want))
        assert_allclose(got, want, rtol=1e-10, atol=1e-10 * scale)


def test_structured_moments_match_dense_block_solve():
    rng = np.random.default_rng(606)
    for p in range(1, 7):
        done = 0
        while done < 3:
            M = rng.uniform(0.0, 0.9 / p, size=(p, p))
            model = _mixed_model(rng, M, rng.uniform(0.3, 2.0, p))
            # a Point(1) marginal can push rho to one or beyond; draw again
            if validate(model).rho < 0.95:
                _assert_close_to_dense(model)
                done += 1
    # p = 4 tables with atoms on several coordinates at once, next to product
    # laws, under table immigration
    offspring = (
        IndependentMarginals([Bernoulli(0.1), Poisson(0.05), Geometric(0.95), Binomial(2, 0.05)]),
        FiniteSupport([[0, 0, 0, 0], [2, 0, 1, 0], [0, 1, 0, 3], [1, 1, 1, 1]],
                      [0.8, 0.1, 0.05, 0.05]),
        IndependentMarginals([Poisson(0.1), Point(0), Bernoulli(0.2), Poisson(0.05)]),
        FiniteSupport([[0, 0, 0, 0], [1, 0, 0, 2], [0, 3, 1, 0]], [0.85, 0.1, 0.05]),
    )
    immigration = FiniteSupport(
        [[0, 0, 0, 0], [3, 1, 0, 2], [0, 2, 5, 1], [1, 0, 0, 0]], [0.4, 0.3, 0.2, 0.1]
    )
    _assert_close_to_dense(BranchingModel(4, offspring, immigration))


def test_structured_moments_match_dense_near_critical():
    # every column of M sums to 0.9995, so rho = 0.9995
    rng = np.random.default_rng(4242)
    for p in (1, 2, 3, 4):
        M = rng.uniform(0.1, 1.0, size=(p, p))
        M *= 0.9995 / M.sum(axis=0)
        offspring = tuple(
            IndependentMarginals([Poisson(c) for c in M[:, i]]) if i % 2 == 0
            else FiniteSupport(
                np.vstack([np.zeros(p, dtype=np.int64), np.eye(p, dtype=np.int64)]),
                [1.0 - float(M[:, i].sum())] + M[:, i].tolist(),
            )
            for i in range(p)
        )
        imm = IndependentMarginals([Geometric(0.6)] + [Binomial(2, 0.3)] * (p - 1))
        model = BranchingModel(p, offspring, imm)
        assert 0.999 <= validate(model).rho < 1.0
        _assert_close_to_dense(model)


def _thinned(table, total=0.5):
    """The table's nonzero atoms, renormalized and then scaled so the mean
    brood has total size `total`, plus the zero atom holding the rest."""
    nonzero = table.support.sum(axis=1) > 0
    atoms = table.support[nonzero]
    zero = np.zeros((1, table.dim), dtype=np.int64)
    if len(atoms) == 0:
        return FiniteSupport(zero, [1.0])
    probs = table.probs[nonzero] / table.probs[nonzero].sum()
    scale = total / float(probs @ atoms.sum(axis=1))
    return FiniteSupport(np.vstack([zero, atoms]), np.append(1.0 - scale, scale * probs))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_dense_table_moments_match_dense_oracle(data):
    # dense tables for immigration and the broods; each brood is thinned to
    # mean total 0.5, so every column of M sums to 0.5 and rho <= 0.5
    eps = data.draw(dense_tables())
    assume(np.any(eps.mean() > 0))
    p = eps.dim
    offspring = tuple(_thinned(data.draw(dense_tables(p))) for _ in range(p))
    _assert_close_to_dense(BranchingModel(p, offspring, eps))


def test_moment_report_builds_each_law_moment_once(monkeypatch):
    # one report reads every law's moment table of each order once
    calls = collections.Counter()
    for cls in (FiniteSupport, IndependentMarginals):

        def counting(self, alpha, real=cls.kron_moment):
            calls[id(self), alpha] += 1
            return real(self, alpha)

        monkeypatch.setattr(cls, "kron_moment", counting)
    model = BranchingModel(
        3,
        (
            IndependentMarginals([Bernoulli(0.1), Poisson(0.05), Geometric(0.95)]),
            FiniteSupport([[0, 0, 0], [2, 0, 1], [0, 1, 0]], [0.8, 0.1, 0.1]),
            FiniteSupport([[0, 0, 0], [1, 0, 0], [0, 3, 1]], [0.85, 0.1, 0.05]),
        ),
        FiniteSupport([[0, 0, 0], [3, 1, 0], [0, 2, 5]], [0.4, 0.3, 0.3]),
    )
    moment_report(model, 3)
    laws = model.offspring + (model.immigration,)
    assert set(calls) == {(id(law), k) for law in laws for k in (2, 3)}
    assert max(calls.values()) == 1


def test_order_three_report_builds_no_p4_array():
    # the order-3 tables are contracted with the mean one law at a time, so
    # a report at p = 24 peaks below one array of p^4 floats (2.53 MiB)
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    p = 24
    model = model_from_json(workloads.random_model(p, 0))
    moment_report(model, 3)
    tracemalloc.start()
    try:
        moment_report(model, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p ** 4 * 8


def test_moment_report_cond_closed_form():
    # I - M = [[a, -b, 0], [0, d, 0], [0, 0, f]] has the inverse
    # [[1/a, b/(a d), 0], [0, 1/d, 0], [0, 0, 1/f]]; the 1-norm is the
    # largest absolute column sum
    a, b, d, f = 0.5, 0.3, 0.6, 0.9
    model = BranchingModel(
        3,
        (
            IndependentMarginals([Bernoulli(1 - a), Point(0), Point(0)]),
            IndependentMarginals([Bernoulli(b), Bernoulli(1 - d), Point(0)]),
            IndependentMarginals([Point(0), Point(0), Bernoulli(1 - f)]),
        ),
        IndependentMarginals([Poisson(1.0), Poisson(2.0), Poisson(0.5)]),
    )
    want = max(a, b + d, f) * max(1 / a, b / (a * d) + 1 / d, 1 / f)
    for order in (1, 2, 3):
        assert moment_report(model, order).residuals["cond"] == pytest.approx(want, rel=1e-12)
    # a scalar I - M has condition number one
    assert moment_report(build_scalar_inar(), 1).residuals["cond"] == pytest.approx(1.0, rel=1e-15)


def test_production_path_never_builds_transfer_blocks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_transfer called")

    monkeypatch.setattr(bpagg.moments, "build_transfer", refuse)
    model = build_random_subcritical(np.random.default_rng(9), 3)
    stationary_moments(model, 3)
    moment_report(model, 3)


def test_moment_report_validates_once(monkeypatch):
    calls = []

    def counting(model):
        calls.append(model)
        return validate(model)

    monkeypatch.setattr(bpagg.moments, "validate", counting)
    moment_report(build_two_type(), 3)
    assert len(calls) == 1


def test_public_views_validate_once_through_moment_report(monkeypatch):
    calls = []
    real_report = bpagg.moments.moment_report

    def counting(model):
        calls.append(model)
        return validate(model)

    def report(model, max_order=3):
        calls.append("report")
        return real_report(model, max_order)

    monkeypatch.setattr(bpagg.moments, "validate", counting)
    monkeypatch.setattr(bpagg.moments, "moment_report", report)
    model = build_two_type()
    views = [
        lambda: stationary_moments(model, 3),
        lambda: stationary_moments(model, 1),
        lambda: noise_matrix(model),
        lambda: stationary_variance(model),
        lambda: autocovariance(model, 2),
        lambda: limit_covariance(model),
    ]
    for view in views:
        del calls[:]
        view()
        assert calls == ["report", model]


def test_moment_report_matches_public_functions():
    model = build_random_subcritical(np.random.default_rng(77), 3)
    report = moment_report(model, 3)
    mean, kron2, kron3 = stationary_moments(model, 3)
    assert_allclose(report.mean, mean, rtol=1e-14)
    assert_allclose(report.kron2, kron2, rtol=1e-14)
    assert_allclose(report.kron3, kron3, rtol=1e-14)
    assert_allclose(report.v, noise_matrix(model), rtol=1e-14)
    assert_allclose(report.var0, stationary_variance(model), rtol=1e-14)
    assert_allclose(report.sigma, limit_covariance(model), rtol=1e-14)


def test_moment_report_order_validation():
    with pytest.raises(ValueError):
        moment_report(build_scalar_inar(), 4)


def _chain_stationary(transition):
    """Stationary row vector of a truncated transition matrix."""
    n = transition.shape[0]
    a = transition.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def test_scalar_closed_forms():
    # bernoulli(1/2) thinning with poisson(1) immigration works out by hand:
    # mean 2, E X^2 = 6, E X^3 = 22, V = 3/2, var 2, sigma = 6
    model = build_scalar_inar()
    mean, kron2, kron3 = stationary_moments(model)
    assert mean[0] == pytest.approx(2.0, abs=1e-12)
    assert kron2[0] == pytest.approx(6.0, abs=1e-12)
    assert kron3[0] == pytest.approx(22.0, abs=1e-11)
    assert noise_matrix(model)[0, 0] == pytest.approx(1.5, abs=1e-12)
    assert stationary_variance(model)[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert limit_covariance(model)[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_scalar_transfer_blocks():
    tm = build_transfer(build_scalar_inar())
    assert tm.a21[0, 0] == pytest.approx(1.25, abs=1e-14)
    assert tm.a31[0, 0] == pytest.approx(3.75, abs=1e-14)
    assert tm.a32[0, 0] == pytest.approx(1.125, abs=1e-14)


def test_two_type_mean_and_noise():
    model = build_two_type()
    mean, _, _ = stationary_moments(model, max_order=1)
    assert_allclose(mean, [2.5, 3.75], atol=1e-12)
    assert_allclose(
        noise_matrix(model), [[2.125, 0.0], [0.0, 3.125]], atol=1e-12
    )


def test_scalar_chain_enumeration_oracle():
    # independent route: enumerate the truncated transition kernel of
    # X_k = binomial(X_{k-1}, 0.4) + poisson(0.8) on {0..60}, solve for the
    # stationary law and sum raw moments directly
    q, lam, kmax = 0.4, 0.8, 60
    states = np.arange(kmax + 1)
    pois = stats.poisson.pmf(np.arange(kmax + 1), lam)
    transition = np.zeros((kmax + 1, kmax + 1))
    for x in states:
        binom = stats.binom.pmf(np.arange(x + 1), x, q)
        row = np.convolve(binom, pois)[: kmax + 1]
        transition[x] = row / row.sum()
    pi = _chain_stationary(transition)

    model = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(q)]),),
        IndependentMarginals([Poisson(lam)]),
    )
    mean, kron2, kron3 = stationary_moments(model)
    xs = states.astype(float)
    assert mean[0] == pytest.approx(float(pi @ xs), abs=1e-9)
    assert kron2[0] == pytest.approx(float(pi @ xs ** 2), abs=1e-9)
    assert kron3[0] == pytest.approx(float(pi @ xs ** 3), abs=1e-9)


def test_two_type_chain_enumeration_oracle():
    # full bivariate analogue: broods of type i have pmfs on {0,1}^2, so the
    # kernel from (x1, x2) is the x1-fold and x2-fold convolutions of the
    # brood pmfs convolved with the immigration pmf, truncated to a grid that
    # the stationary law leaves with negligible mass
    model = build_two_type()
    kmax = 36
    n = kmax + 1

    def bern2(a, b):
        return np.outer([1 - a, a], [1 - b, b])

    broods = [bern2(0.3, 0.1), bern2(0.2, 0.4)]
    imm = np.outer(
        stats.poisson.pmf(np.arange(n), 1.0), stats.poisson.pmf(np.arange(n), 2.0)
    )

    def convolution_powers(base):
        powers = [np.ones((1, 1))]
        for _ in range(kmax):
            powers.append(signal.fftconvolve(powers[-1], base))
        return powers

    pow1 = convolution_powers(broods[0])
    pow2 = convolution_powers(broods[1])
    transition = np.zeros((n * n, n * n))
    for x1 in range(n):
        for x2 in range(n):
            step = signal.fftconvolve(signal.fftconvolve(pow1[x1], pow2[x2]), imm)
            step = np.clip(step[:n, :n], 0.0, None)
            transition[x1 * n + x2] = (step / step.sum()).ravel()
    pi = _chain_stationary(transition).reshape(n, n)

    grid = np.arange(n, dtype=float)
    states = np.stack(
        [np.repeat(grid, n), np.tile(grid, n)], axis=1
    )
    weights = pi.ravel()
    mean, kron2, kron3 = stationary_moments(model)
    for alpha, exact in ((1, mean), (2, kron2), (3, kron3)):
        oracle = np.zeros(2 ** alpha)
        for w, s in zip(weights, states):
            oracle += w * functools.reduce(np.kron, [s] * alpha)
        assert_allclose(exact, oracle, rtol=1e-8, atol=1e-8)


def test_iteration_oracle_random_models():
    rng = np.random.default_rng(404)
    for p in (1, 2, 2, 3):
        model = build_random_subcritical(rng, p)
        mean, kron2, kron3 = stationary_moments(model)
        it1, it2, it3 = _iterate_moments(model)
        assert_allclose(mean, it1, rtol=1e-10, atol=1e-12)
        assert_allclose(kron2, it2, rtol=1e-10, atol=1e-12)
        assert_allclose(kron3, it3, rtol=1e-9, atol=1e-12)


def test_mean_is_fixed_point():
    for model in (build_scalar_inar(), build_two_type()):
        mean, _, _ = stationary_moments(model, max_order=1)
        M = mean_matrix(model)
        assert_allclose(mean, M @ mean + model.immigration.mean(), atol=1e-12)


def test_transfer_spectral_radius_matches_mean_matrix():
    for model in (build_scalar_inar(), build_two_type()):
        tm = build_transfer(model)
        rho = spectral_radius(mean_matrix(model))
        assert spectral_radius(tm.a2) == pytest.approx(rho, abs=1e-9)
        assert spectral_radius(tm.a3) == pytest.approx(rho, abs=1e-9)


def test_variance_routes_agree():
    rng = np.random.default_rng(2024)
    for p in (1, 2, 3):
        model = build_random_subcritical(rng, p)
        mean, kron2, _ = stationary_moments(model, max_order=2)
        second_route = kron2.reshape(p, p) - np.outer(mean, mean)
        assert_allclose(stationary_variance(model), second_route, rtol=1e-8, atol=1e-10)


def test_variance_symmetric_psd():
    rng = np.random.default_rng(5)
    for p in (1, 2, 3):
        var0 = stationary_variance(build_random_subcritical(rng, p))
        assert_allclose(var0, var0.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(var0)) >= -1e-10


def test_limit_covariance_series_oracle():
    # sigma = (sum_k M^k) V (sum_l M^T^l); the truncated double series is an
    # independent route to the same matrix
    model = build_two_type()
    M = mean_matrix(model)
    V = noise_matrix(model)
    acc = np.zeros((2, 2))
    term = np.eye(2)
    for _ in range(200):
        acc += term
        term = term @ M
    assert_allclose(limit_covariance(model), acc @ V @ acc.T, rtol=1e-12)


def test_limit_identity_decomposition():
    rng = np.random.default_rng(88)
    for p in (1, 2, 3):
        model = build_random_subcritical(rng, p)
        M = mean_matrix(model)
        var0 = stationary_variance(model)
        A = np.eye(p) - M
        lhs = M @ np.linalg.solve(A, var0) + var0 + (M @ np.linalg.solve(A, var0.T)).T
        assert_allclose(lhs, limit_covariance(model), rtol=1e-10, atol=1e-12)


def test_autocovariance_scalar_decay():
    model = build_scalar_inar()
    for lag in range(6):
        assert autocovariance(model, lag)[0, 0] == pytest.approx(
            2.0 * 0.5 ** lag, abs=1e-12
        )


def test_autocovariance_lag_zero_is_variance():
    model = build_two_type()
    assert_allclose(autocovariance(model, 0), stationary_variance(model), atol=0)
    g1 = autocovariance(model, 1)
    assert_allclose(g1, stationary_variance(model) @ mean_matrix(model).T, atol=1e-14)


def test_autocovariance_bad_lag():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        autocovariance(model, -1)
    with pytest.raises(ValueError):
        autocovariance(model, 1.5)


def test_build_transfer_order_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        build_transfer(model, 1)
    with pytest.raises(ValueError):
        build_transfer(model, 4)
    tm = build_transfer(model, 2)
    assert tm.a31 is None and tm.a32 is None and tm.a3 is None


def test_stationary_moments_partial_orders():
    model = build_scalar_inar()
    mean, kron2, kron3 = stationary_moments(model, max_order=1)
    assert kron2 is None and kron3 is None
    mean, kron2, kron3 = stationary_moments(model, max_order=2)
    assert kron2 is not None and kron3 is None
    with pytest.raises(ValueError):
        stationary_moments(model, max_order=0)
    with pytest.raises(ValueError):
        stationary_moments(model, max_order=4)


def test_rejects_critical_model():
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    with pytest.raises(NotSubcriticalError):
        stationary_moments(crit)
    with pytest.raises(NotSubcriticalError):
        noise_matrix(crit)


def test_rejects_zero_immigration():
    model = BranchingModel(
        1, (IndependentMarginals([Bernoulli(0.5)]),), IndependentMarginals([Point(0)])
    )
    with pytest.raises(ValueError, match="immigration"):
        stationary_moments(model)


def test_moment_report_residuals_and_schema():
    report = moment_report(build_two_type())
    assert report.residuals["lyapunov"] <= 1e-10
    assert report.residuals["route_gap"] <= 1e-10
    assert report.residuals["limit_identity"] <= 1e-10
    payload = report.to_json_dict()
    assert set(payload) == {
        "mean",
        "kron2",
        "kron3",
        "V",
        "varX0",
        "sigma",
        "rho",
        "residuals",
    }
    assert set(payload["residuals"]) == {
        "lyapunov", "route_gap", "limit_identity", "kron3", "cond"
    }
    assert report.residuals["kron3"] <= 1e-12
    assert payload["rho"] == pytest.approx(0.5, abs=1e-12)


def test_moment_report_lower_orders():
    report = moment_report(build_scalar_inar(), max_order=1)
    assert report.kron2 is None and report.kron3 is None
    assert report.residuals["route_gap"] is None
    assert report.residuals["kron3"] is None
    payload = report.to_json_dict()
    assert payload["kron2"] is None and payload["kron3"] is None
    report2 = moment_report(build_scalar_inar(), max_order=2)
    assert report2.kron3 is None and report2.residuals["route_gap"] <= 1e-12
    assert report2.residuals["kron3"] is None
