import inspect
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bpagg.model import (
    Bernoulli,
    BranchingModel,
    IndependentMarginals,
    Poisson,
)
import bpagg.simulate
import bpagg.verify as verify
from bpagg.moments import limit_covariance, noise_matrix, stationary_variance
from bpagg.simulate import (
    aggregate,
    block_copies,
    derived_seed,
    simulate_path,
    stream_rng,
)
from bpagg.verify import (
    VerificationReport,
    autocovariance_check,
    bands_overlap,
    clt_covariance_experiment,
    ergodic_check,
    innovation_diagnostics,
    iterated_experiment,
)
from bpagg.verify import _cov_se, _ks_normal, _normal_cdf
from conftest import (
    build_deterministic,
    build_scalar_inar,
    build_two_type,
    count_classifications,
)


def test_ergodic_check_scalar():
    model = build_scalar_inar()
    report = ergodic_check(model, 20000, seed=0)
    assert report.kind == "ergodic"
    assert report.passed
    assert len(report.rows) == 2
    first, second = report.rows
    assert (first["t"], first["i"], first["j"]) == (1.0, 0, 0)
    assert first["target"] == pytest.approx(2.0)
    assert abs(first["empirical"] - 2.0) <= 4 * first["se"]
    assert second["t"] == 2.0
    assert second["target"] == pytest.approx(6.0)
    assert report.warnings == []
    assert report.runtime > 0


def test_ergodic_check_two_type_row_layout():
    report = ergodic_check(build_two_type(), 5000, seed=1)
    keys = [(r["t"], r["i"], r["j"]) for r in report.rows]
    assert keys == [
        (1.0, 0, 0),
        (1.0, 1, 1),
        (2.0, 0, 0),
        (2.0, 0, 1),
        (2.0, 1, 1),
    ]


def test_ergodic_warns_on_short_path_near_criticality():
    slow = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(0.9)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    report = ergodic_check(slow, 500, seed=0)
    assert len(report.warnings) == 1
    assert "insufficient n" in report.warnings[0]


def test_clt_experiment_scalar():
    model = build_scalar_inar()
    report = clt_covariance_experiment(model, 100, 10, reps=100, grid=(0.5, 1.0), seed=7)
    assert report.kind == "clt"
    assert report.passed
    keys = [(r["t"], r["i"], r["j"]) for r in report.rows]
    assert keys == [(0.5, 0, 0), (1.0, 0, 0)]
    assert report.rows[1]["target"] == pytest.approx(6.0)
    assert report.rows[0]["target"] == pytest.approx(3.0)
    assert len(report.extra["ks"]) == 2
    for entry in report.extra["ks"]:
        assert entry["threshold"] == pytest.approx(0.136)
        assert entry["passed"]
    assert len(report.extra["increments"]) == 1
    inc = report.extra["increments"][0]
    assert (inc["t_a"], inc["t_b"]) == (0.5, 1.0)
    assert abs(inc["z"]) <= 4
    assert_allclose(report.extra["sigma"], [[6.0]])


def _burnin_notes(report):
    return [w for w in report.warnings if w.startswith("burn-in")]


def test_explicit_short_burnin_warns_in_the_report():
    # 100 copies of INAR after 3 steps: 100 * 2 * 2^-3 = 25, above 1e-2
    model = build_scalar_inar()
    clt = clt_covariance_experiment(model, 10, 10, reps=10, seed=1, burnin=3)
    [note] = _burnin_notes(clt)
    assert "burn-in of 3 steps" in note and "copies = 100" in note and "25" in note
    it = iterated_experiment(model, 10, 50, "N_first", sweep=[5, 10], seed=1, burnin=3)
    assert "copies = 100" in _burnin_notes(it)[0]
    # 100 * 2 * 2^-14 = 0.0122 still warns, 2^-15 gives 0.0061 and does not
    assert _burnin_notes(clt_covariance_experiment(model, 10, 10, reps=10, seed=1, burnin=14))
    for burnin in (15, "auto"):
        report = clt_covariance_experiment(model, 10, 10, reps=10, seed=1, burnin=burnin)
        assert _burnin_notes(report) == []


def test_clt_rerun_and_threads_byte_identical():
    model = build_scalar_inar()

    def run(threads):
        return clt_covariance_experiment(
            model, 50, 5, reps=40, grid=(1.0,), seed=3, threads=threads
        ).to_json()

    text = run(1)
    assert run(1) == text
    assert run(2) == text


def test_clt_increments_rerun_and_threads_byte_identical():
    # a two-type model on three grid points fills the increment table; 2100
    # replications of 60 copies are 2100 chains of the 60-fold model, two
    # blocks of the p = 2 model
    model = build_two_type()
    assert 2100 > block_copies(2)

    def run(threads):
        return clt_covariance_experiment(
            model, 12, 60, reps=2100, grid=(0.25, 0.5, 1.0), seed=3, threads=threads
        ).to_json()

    text = run(1)
    assert len(json.loads(text)["extra"]["increments"]) == 3 * 4
    assert run(1) == text
    assert run(2) == text


def test_clt_blocks_thread_invariant():
    # 8193 replications of 3 copies are 8193 chains of the 3-fold model: two
    # full blocks of the p = 1 model and a third block of one chain, drawn as
    # cohorts
    model = build_scalar_inar()
    N, reps = 3, 8193
    assert reps == 2 * block_copies(1) + 1

    def run(threads):
        return clt_covariance_experiment(
            model, 12, N, reps=reps, grid=(0.5, 1.0), seed=13, burnin=4, threads=threads
        ).to_json()

    text = run(1)
    assert run(2) == text
    assert run(3) == text


def _refuse_to_simulate(*args, **kwargs):
    raise AssertionError("simulated before the input was checked")


def _recorded_aggregates(monkeypatch):
    """Record the arguments and the aggregates of every aggregate call of
    verify."""
    calls = []

    def recording(*args):
        values = aggregate(*args)
        calls.append((args, values))
        return values

    monkeypatch.setattr(verify, "aggregate", recording)
    return calls


def test_clt_is_one_ensemble_of_reps_chains_of_the_n_fold_model(monkeypatch):
    # replication r is aggregate r of reps aggregates of N copies on the
    # seed derived from (seed, 0), each a chain of the N-fold model (see
    # test_simulate's test_aggregate_is_a_chain_of_the_n_fold_model)
    model = build_two_type()
    n, reps, burn, grid = 30, 6, 5, (0.5, 1.0)
    calls = _recorded_aggregates(monkeypatch)
    for N in (4, 1):
        del calls[:]
        report = clt_covariance_experiment(model, n, N, reps=reps, grid=grid, seed=17,
                                           burnin=burn)
        [(args, vals)] = calls
        assert args == (model, N, n, derived_seed(17, 0), grid, burn, 1, reps)
        assert vals.shape == (reps, 2, 2)
        at_one = np.cov(vals[:, 1, :], rowvar=False)
        rows = {(r["t"], r["i"], r["j"]): r["empirical"] for r in report.rows}
        for i, j in ((0, 0), (0, 1), (1, 1)):
            assert rows[(1.0, i, j)] == pytest.approx(at_one[i, j], rel=1e-12)


def _plugin_se(sample):
    """np.std (ddof 1) of the centered products of every pair of columns of
    sample (reps, d) over sqrt(reps), entry by entry: the plug-in standard
    errors of the sample covariance by definition."""
    reps, d = sample.shape
    c = sample - sample.mean(axis=0)
    se = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            se[i, j] = np.std(c[:, i] * c[:, j], ddof=1) / math.sqrt(reps)
    return se


def _assert_row_se(rows, vals, grid):
    """The rows of a two-type report on vals (reps, G, 2) carry, per grid
    point, the plug-in standard errors of that grid point alone."""
    keys = [(t, i, j) for t in grid for i, j in ((0, 0), (0, 1), (1, 1))]
    assert [(r["t"], r["i"], r["j"]) for r in rows] == keys
    for g in range(len(grid)):
        se = _plugin_se(vals[:, g, :])
        for r in rows[3 * g : 3 * g + 3]:
            assert_allclose(r["se"], se[r["i"], r["j"]], rtol=1e-10, atol=0)


def test_clt_standard_errors_are_the_plugin_product_spread(monkeypatch):
    # every row's se is the spread of the centered products of its grid
    # point over sqrt(reps), every increment's that of the products of the
    # stacked increments
    model = build_two_type()
    n, N, reps, seed, grid = 24, 3, 50, 21, (0.25, 0.5, 1.0)
    calls = _recorded_aggregates(monkeypatch)
    report = clt_covariance_experiment(model, n, N, reps=reps, grid=grid, seed=seed)
    [(_, vals)] = calls
    _assert_row_se(report.rows, vals, grid)
    se = _plugin_se(np.diff(vals, axis=1, prepend=0.0).reshape(reps, -1))
    entries = report.extra["increments"]
    assert len(entries) == 3 * 4
    for e in entries:
        a, b = grid.index(e["t_a"]), grid.index(e["t_b"])
        assert a < b
        assert_allclose(e["se"], se[2 * a + e["i"], 2 * b + e["j"]], rtol=1e-10, atol=0)


def test_iterated_standard_errors_are_the_plugin_product_spread(monkeypatch):
    model = build_two_type()
    grid = (0.5, 1.0)
    calls = _recorded_aggregates(monkeypatch)
    report = iterated_experiment(model, 20, 30, "n_first", sweep=[10, 30], grid=grid, seed=8)
    assert report.extra["sweep"][1]["rows"] == report.rows
    for (args, per_copy), point in zip(calls, report.extra["sweep"]):
        # the copies of a sweep point are its chains of the model itself
        assert args[1] == 1 and args[-1] == point["N"] == len(per_copy)
        _assert_row_se(point["rows"], per_copy, grid)


def test_cov_se_matches_the_wishart_variance_of_a_sample_covariance():
    # for i.i.d. Gaussian rows the sample covariance of R rows has
    # Var(s_ij) = (sigma_ij^2 + sigma_ii sigma_jj) / (R - 1) (Anderson, An
    # Introduction to Multivariate Statistical Analysis); the mean plug-in
    # SE^2 over 3000 datasets of R = 200 rows with a nonzero mean is within
    # 5% of it (it reads about 2% low: the plug-in is biased by O(1 / R))
    rng = np.random.default_rng(1982)
    L = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [-0.5, 0.3, 1.2]])
    sigma = L @ L.T
    R, datasets = 200, 3000
    mean_se2 = np.zeros((3, 3))
    for _ in range(datasets):
        x = rng.standard_normal((R, 3)) @ L.T + np.array([5.0, -2.0, 1.0])
        mean_se2 += _cov_se(x)[1] ** 2 / datasets
    want = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / (R - 1)
    assert np.all(np.abs(mean_se2 / want - 1.0) < 0.05)


def _refusing_stream_rng(*args):
    raise AssertionError("drew from a stream after the ensemble")


def test_aggregate_experiments_draw_nothing_after_their_ensembles(monkeypatch):
    # the ensembles run on simulate's own streams; once they are in, clt and
    # iterated compute their reports without a further draw
    model = build_two_type()

    def reports():
        return (
            clt_covariance_experiment(model, 24, 3, reps=30, grid=(0.5, 1.0), seed=4).to_json(),
            iterated_experiment(model, 20, 8, "N_first", sweep=[10, 20], grid=(0.5, 1.0),
                                seed=4).to_json(),
            iterated_experiment(model, 20, 8, "n_first", sweep=[4, 8], seed=4).to_json(),
        )

    want = reports()
    monkeypatch.setattr(verify, "stream_rng", _refusing_stream_rng)
    assert reports() == want


def test_clt_refuses_fractional_counts(monkeypatch):
    # 2.5 replications are refused by name, before anything is simulated
    monkeypatch.setattr(bpagg.simulate, "_run_blocks", _refuse_to_simulate)
    model = build_scalar_inar()
    with pytest.raises(ValueError, match="integer reps"):
        clt_covariance_experiment(model, 50, 3, reps=2.5, grid=(1.0,))
    with pytest.raises(ValueError, match="integer N"):
        clt_covariance_experiment(model, 50, 2.5, reps=10, grid=(1.0,))


def test_iterated_keeps_only_the_grid_point_blocks():
    # a sweep point reads only the p x p covariance of each grid point and
    # builds nothing over the joint grid vector: with G = 40 and p = 2 its
    # peak stays under 3 MB
    model, G = build_two_type(), 40
    grid = tuple((k + 1) / G for k in range(G))
    iterated_experiment(model, 40, 20, "N_first", sweep=[40], grid=(1.0,), seed=1)
    tracemalloc.start()
    try:
        report = iterated_experiment(model, 40, 20, "N_first", sweep=[40], grid=grid, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 3 * G
    assert peak < 3_000_000


def test_iterated_refuses_fractional_sweep(monkeypatch):
    # a sweep point of 2.7 copies is refused, not run as 2
    monkeypatch.setattr(bpagg.simulate, "_run_blocks", _refuse_to_simulate)
    model = build_scalar_inar()
    with pytest.raises(ValueError, match="integer sweep"):
        iterated_experiment(model, 40, 8, "n_first", sweep=[2.7, 4], grid=(1.0,), seed=2)
    with pytest.raises(ValueError, match="integer N"):
        iterated_experiment(model, 40, 8.5, "N_first", sweep=[20, 40], grid=(1.0,), seed=2)


def _bernoulli_model(q):
    return BranchingModel(
        1, (IndependentMarginals([Bernoulli(q)]),), IndependentMarginals([Poisson(1.0)])
    )


@pytest.mark.parametrize("q, warned", [(0.9, True), (0.1, False)])
def test_mixing_warning_in_every_experiment_kind(q, warned):
    # n = 200 is short for rho = 0.9 (needs 100 / 0.1^2 = 10000) and long
    # enough for rho = 0.1 (needs 124)
    model = _bernoulli_model(q)
    path = simulate_path(model, 200, stream_rng(1, 0), burnin="auto")
    reports = [
        ergodic_check(model, 200, seed=1),
        autocovariance_check(model, 200, lags=(0, 1), seed=1),
        clt_covariance_experiment(model, 200, 4, reps=10, grid=(1.0,), seed=1),
        iterated_experiment(model, 200, 4, "N_first", sweep=[100, 200], grid=(1.0,), seed=1),
        innovation_diagnostics(model, path),
    ]
    for report in reports:
        hits = [w for w in report.warnings if "insufficient n" in w]
        assert len(hits) == (1 if warned else 0), report.kind


def test_clt_degenerate_model_exact_zero():
    report = clt_covariance_experiment(
        build_deterministic(), 40, 3, reps=20, grid=(1.0,), seed=0
    )
    assert report.passed
    for r in report.rows:
        assert r["empirical"] == 0.0
        assert r["target"] == 0.0
        assert r["z"] == 0.0
    for entry in report.extra["ks"]:
        assert entry["stat"] == 0.0


def test_clt_config_validation(monkeypatch):
    monkeypatch.setattr(bpagg.simulate, "_run_blocks", _refuse_to_simulate)
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        clt_covariance_experiment(model, 50, 1, reps=1, grid=(1.0,))
    with pytest.raises(ValueError):
        clt_covariance_experiment(model, 50, 1, reps=10, grid=())
    with pytest.raises(ValueError):
        clt_covariance_experiment(model, 50, 1, reps=10, grid=(1.0, 0.5))
    with pytest.raises(ValueError):
        clt_covariance_experiment(model, 50, 1, reps=10, grid=(-0.5, 1.0))
    # a burn-in must be 'auto' or an integer >= 0; 2.5 is not run as 2
    for burnin in (2.5, -1, "soon"):
        with pytest.raises(ValueError, match="burnin"):
            clt_covariance_experiment(model, 50, 2, reps=10, grid=(1.0,), burnin=burnin)
        with pytest.raises(ValueError, match="burnin"):
            iterated_experiment(
                model, 50, 2, "N_first", sweep=[20, 50], grid=(1.0,), burnin=burnin
            )


def test_every_experiment_validates_once(monkeypatch):
    path = simulate_path(build_two_type(), 300, stream_rng(2, 0), burnin=50)
    runs = {
        "ergodic": lambda model: ergodic_check(model, 300, seed=1),
        "autocov": lambda model: autocovariance_check(model, 300, lags=(0, 1), seed=1),
        "clt": lambda model: clt_covariance_experiment(
            model, 30, 3, reps=8, grid=(0.5, 1.0), seed=4
        ),
        "clt-burnin": lambda model: clt_covariance_experiment(model, 30, 3, reps=8, burnin=5),
        "iterated": lambda model: iterated_experiment(
            model, 30, 3, "n_first", sweep=[2, 4], grid=(0.5, 1.0), seed=4
        ),
        "innovations": lambda model: innovation_diagnostics(model, path),
    }
    # a fresh model per experiment is classified once, however often the
    # moment report and the burn-in ask validate for it
    classified = count_classifications(monkeypatch)
    for name, run in runs.items():
        del classified[:]
        run(build_two_type())
        assert len(classified) == 1, name


def test_report_params_keep_their_key_order():
    # serialized reports list params in this order: the model digest first,
    # the band multiplier last
    model = build_scalar_inar()
    path = simulate_path(model, 300, stream_rng(2, 0), burnin=50)
    reports = {
        "ergodic": ergodic_check(model, 300, seed=1),
        "clt": clt_covariance_experiment(model, 30, 3, reps=4, grid=(1.0,), seed=1),
        "iterated": iterated_experiment(
            model, 30, 3, "n_first", sweep=[2, 4], grid=(1.0,), seed=1
        ),
        "autocov": autocovariance_check(model, 300, lags=(0, 1), seed=1),
        "innovations": innovation_diagnostics(model, path),
    }
    expected = {
        "ergodic": ["n", "seed", "burnin"],
        "clt": ["n", "N", "reps", "grid", "master_seed", "burnin"],
        "iterated": ["order", "n", "N", "sweep", "grid", "master_seed", "burnin"],
        "autocov": ["n", "lags", "seed", "burnin"],
        "innovations": ["n"],
    }
    for kind, report in reports.items():
        assert report.kind == kind
        assert list(report.params) == ["model"] + expected[kind] + ["se_multiplier"], kind
        assert list(report.to_json_dict()["params"]) == list(report.params)


def test_report_passes_only_when_rows_and_other_checks_pass():
    # one two-sided band rule judges the rows' z-scores and the extra checks'
    model = build_scalar_inar()
    good = [{"t": 1.0, "i": 0, "j": 0, "empirical": 2.0, "target": 2.0, "se": 0.1, "z": 0.0}]
    t0 = time.perf_counter()

    def passed(rows, checks=()):
        return verify._report("ergodic", model, {}, rows, 0.5, 10 ** 6, t0, checks=checks).passed

    assert passed(good)
    assert passed(good, [4.0, -4.0, 0.0])
    for z in (4.5, -4.5, math.inf, math.nan):
        assert not passed(good, [0.0, z]), z
        assert not passed([dict(good[0], z=z)]), z


def test_clt_fails_on_normality_alone(monkeypatch):
    # every covariance row in its band, every KS distance past its threshold
    model = build_scalar_inar()
    assert clt_covariance_experiment(model, 40, 4, reps=30, grid=(1.0,), seed=9).passed
    monkeypatch.setattr(verify, "_ks_normal", lambda values: 1.0)
    report = clt_covariance_experiment(model, 40, 4, reps=30, grid=(1.0,), seed=9)
    assert all(abs(r["z"]) <= 4.0 for r in report.rows)
    assert not report.passed


def test_band_multiplier_is_a_constant():
    for fn in (
        ergodic_check,
        autocovariance_check,
        innovation_diagnostics,
        clt_covariance_experiment,
        iterated_experiment,
    ):
        assert "se_multiplier" not in inspect.signature(fn).parameters
    report = ergodic_check(build_scalar_inar(), 300, seed=0)
    assert report.params["se_multiplier"] == 4.0
    assert '"se_multiplier": 4.0' in report.to_json()


def test_iterated_experiment_orders_and_overlap():
    model = build_scalar_inar()
    rep_n = iterated_experiment(model, 60, 40, "N_first", sweep=[15, 30, 60], grid=(1.0,), seed=5)
    rep_c = iterated_experiment(model, 60, 40, "n_first", sweep=[10, 20, 40], grid=(1.0,), seed=5)
    assert rep_n.kind == "iterated" and rep_c.kind == "iterated"
    assert rep_n.params["order"] == "N_first"
    assert rep_n.params["sweep"] == [15, 30, 60]
    assert len(rep_n.extra["sweep"]) == 3
    # sweep entries record the geometry they ran at
    assert [e["n"] for e in rep_n.extra["sweep"]] == [15, 30, 60]
    assert all(e["N"] == 40 for e in rep_n.extra["sweep"])
    assert [e["N"] for e in rep_c.extra["sweep"]] == [10, 20, 40]
    # top-level rows are the last sweep point
    assert rep_n.rows == rep_n.extra["sweep"][-1]["rows"]
    assert rep_n.rows[0]["target"] == pytest.approx(6.0)
    assert bands_overlap(rep_n, rep_c)


def test_iterated_params_name_the_sizes_the_last_point_ran():
    # the swept size in params is the sweep's last point, not the argument,
    # which no point ran at
    model = build_scalar_inar()
    report = iterated_experiment(model, 30, 1, "n_first", sweep=[2, 5], seed=1)
    assert (report.params["n"], report.params["N"]) == (30, 5)
    report = iterated_experiment(model, 7, 4, "N_first", sweep=[5, 10], seed=1)
    assert (report.params["n"], report.params["N"]) == (10, 4)


def test_iterated_default_sweep_and_validation():
    model = build_scalar_inar()
    report = iterated_experiment(model, 40, 8, "N_first", grid=(1.0,), seed=2)
    assert report.params["sweep"] == [10, 20, 40]
    with pytest.raises(ValueError):
        iterated_experiment(model, 40, 8, "sideways", grid=(1.0,), seed=2)
    with pytest.raises(ValueError):
        iterated_experiment(model, 40, 1, "N_first", sweep=[1], grid=(1.0,), seed=2)
    # a horizon below one step is refused before the first sweep point runs
    for sweep in ([0, 40], [40, -5]):
        with pytest.raises(ValueError, match="1 step"):
            iterated_experiment(model, 40, 8, "N_first", sweep=sweep, grid=(1.0,), seed=2)


def test_autocovariance_check_scalar():
    model = build_scalar_inar()
    report = autocovariance_check(model, 30000, lags=range(4), seed=0)
    assert report.kind == "autocov"
    assert report.passed
    assert [r["t"] for r in report.rows] == [0.0, 1.0, 2.0, 3.0]
    for lag, row in enumerate(report.rows):
        assert row["target"] == pytest.approx(2.0 * 0.5 ** lag)
        assert abs(row["z"]) <= 4


def test_autocovariance_check_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        autocovariance_check(model, 100, lags=[-1], seed=0)
    with pytest.raises(ValueError):
        autocovariance_check(model, 100, lags=[100], seed=0)


def test_autocovariance_check_refuses_fractional_and_negative_lags(monkeypatch):
    # each bad lag is refused by name before anything is simulated; a lag of
    # 1.5 is not run as lag 1
    monkeypatch.setattr(verify, "simulate_path", _refuse_to_simulate)
    model = build_scalar_inar()
    for lags in ([0, 1.5], [2.9], [-1, 0]):
        with pytest.raises(ValueError, match="integer lags"):
            autocovariance_check(model, 100, lags=lags, seed=0)


def test_innovation_diagnostics_scalar():
    model = build_scalar_inar()
    path = simulate_path(model, 20000, stream_rng(11, 0), burnin="auto")
    report = innovation_diagnostics(model, path)
    assert report.kind == "innovations"
    assert report.passed
    assert report.rows[0]["target"] == pytest.approx(1.5)
    assert abs(report.rows[0]["z"]) <= 4
    assert len(report.extra["abs_moment"]) == 1
    entry = report.extra["abs_moment"][0]
    assert entry["bound"] == pytest.approx(np.sqrt(1.5))
    assert entry["empirical"] <= entry["bound"] + 4 * entry["se"]
    buckets = report.extra["buckets"]
    assert 0 < len(buckets) <= 20
    for b in buckets:
        assert b["count"] >= 100
        # conditional second moment is affine in the previous state:
        # x var(offspring) + var(immigration)
        expected = b["state"][0] * 0.25 + 1.0
        assert b["entries"][0]["target"] == pytest.approx(expected)
    counts = [b["count"] for b in buckets]
    assert counts == sorted(counts, reverse=True)


def test_innovation_diagnostics_needs_two_innovations():
    # one innovation has an infinite batch-means SE and would pass any band
    model = build_scalar_inar()
    path = np.array([[2], [3], [1]])
    with pytest.raises(ValueError, match="at least 3 rows"):
        innovation_diagnostics(model, path[:2])
    report = innovation_diagnostics(model, path)
    assert all(math.isfinite(r["se"]) for r in report.rows)
    assert all(math.isfinite(e["se"]) for e in report.extra["abs_moment"])


def test_innovation_diagnostics_refuses_a_path_that_is_not_counts(monkeypatch):
    model = build_scalar_inar()
    path = simulate_path(model, 400, stream_rng(3, 0), burnin=30)
    want = innovation_diagnostics(model, path)
    # integral floats are counts, and give the same report
    got = innovation_diagnostics(model, path.astype(float))
    assert (got.rows, got.extra) == (want.rows, want.extra)

    def refuse(*args):
        raise AssertionError("checked")

    # a fractional state is refused, not truncated into a bucket, and so is
    # a negative one, before any check
    monkeypatch.setattr(verify, "moment_report", refuse)
    negative = path.copy()
    negative[5, 0] = -3
    for bad in (path + 0.4, negative):
        with pytest.raises(ValueError, match="nonnegative integer counts"):
            innovation_diagnostics(model, bad)


def test_innovation_diagnostics_two_type_bucket_targets():
    model = build_two_type()
    path = simulate_path(model, 12000, stream_rng(4, 0), burnin="auto")
    report = innovation_diagnostics(model, path)
    assert report.passed
    cov_eps = np.diag([1.0, 2.0])
    cov_off = [np.diag([0.21, 0.09]), np.diag([0.16, 0.24])]
    for b in report.extra["buckets"]:
        x = b["state"]
        target = cov_eps + x[0] * cov_off[0] + x[1] * cov_off[1]
        got = {(e["i"], e["j"]): e["target"] for e in b["entries"]}
        assert got[(0, 0)] == pytest.approx(target[0, 0])
        assert got[(0, 1)] == pytest.approx(target[0, 1])
        assert got[(1, 1)] == pytest.approx(target[1, 1])


def test_report_serialization_shape():
    model = build_scalar_inar()
    report = ergodic_check(model, 2000, seed=9)
    payload = json.loads(report.to_json())
    assert set(payload) == {"kind", "params", "passed", "warnings", "rows", "extra"}
    assert "runtime" not in payload
    assert "threads" not in payload["params"]
    again = ergodic_check(model, 2000, seed=9)
    assert again.to_json() == report.to_json()
    assert again.runtime != report.runtime or True  # wall clock may differ freely

    csv = report.to_csv().strip().split("\n")
    assert csv[0] == "t,i,j,empirical,target,z"
    cells = csv[1].split(",")
    assert len(cells) == 6
    assert float(cells[0]) == 1.0
    assert int(cells[1]) == 0 and int(cells[2]) == 0
    assert float(cells[3]) == report.rows[0]["empirical"]


def _band_report(rows, mult=1.0):
    return VerificationReport(kind="x", params={"se_multiplier": mult}, rows=rows)


def test_bands_overlap_logic():
    a = _band_report([{"t": 1.0, "i": 0, "j": 0, "empirical": 0.0, "se": 1.0}])
    b = _band_report([{"t": 1.0, "i": 0, "j": 0, "empirical": 1.5, "se": 1.0}])
    assert bands_overlap(a, b)
    far = _band_report([{"t": 1.0, "i": 0, "j": 0, "empirical": 5.0, "se": 1.0}])
    assert not bands_overlap(a, far)
    other = _band_report([{"t": 2.0, "i": 0, "j": 0, "empirical": 0.0, "se": 1.0}])
    with pytest.raises(ValueError):
        bands_overlap(a, other)


def test_ks_distance_discriminates():
    rng = np.random.default_rng(0)
    gauss = rng.standard_normal(2000)
    gauss = (gauss - gauss.mean()) / gauss.std(ddof=1)
    assert _ks_normal(gauss) <= 1.36 / np.sqrt(2000)
    flat = rng.uniform(-1, 1, 2000)
    flat = (flat - flat.mean()) / flat.std(ddof=1)
    assert _ks_normal(flat) > 1.36 / np.sqrt(2000)


def test_normal_cdf_matches_scipy_ndtr():
    from scipy.special import ndtr

    x = np.random.default_rng(5).standard_normal(100000) * 3.0
    x = np.concatenate([x, [0.0, -0.0, 0.7071, -0.7072, 8.5, -8.5, 38.0, -38.0, 40.0]])
    assert_allclose(_normal_cdf(x), ndtr(x), rtol=0, atol=1e-15)



def test_normal_cdf_bytes_match_the_scalar_formula():
    # one erfc per entry on (-x) * sqrt(0.5), then halved: the same IEEE
    # operations as a Python loop over the entries, so the same bits
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate([
        [np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-310, 2.2e-308, 1e-300],
        np.random.default_rng(6).standard_normal(200) * 4.0,
    ])
    r = math.sqrt(0.5)
    scalar = np.array([0.5 * math.erfc(-v * r) for v in x.tolist()])
    assert _normal_cdf(x).tobytes() == scalar.tobytes()
    assert _normal_cdf(x[:0]).shape == (0,)

def _modules_after_import():
    """Names in sys.modules after a fresh `import bpagg`."""
    code = "import sys, bpagg; print('\\n'.join(sys.modules))"
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_import_does_not_load_process_pools():
    # ProcessPoolExecutor is imported only when a run uses several workers
    assert "concurrent.futures.process" not in _modules_after_import()


def test_import_does_not_load_hashlib():
    # only model_digest hashes, and it imports hashlib when called
    assert "_hashlib" not in _modules_after_import()


def test_import_does_not_load_scipy():
    assert not [k for k in _modules_after_import() if "scipy" in k]


@pytest.mark.parametrize("seed", [-1, 2.5])
def test_seed_refused_by_name_before_any_moment_report(seed, monkeypatch):
    # numpy's SeedSequence would refuse -1 unnamed, after the report
    def refuse(*args, **kwargs):
        raise AssertionError("built a moment report before the seed was checked")

    monkeypatch.setattr(verify, "moment_report", refuse)
    model = build_scalar_inar()
    runs = [
        lambda: ergodic_check(model, 20, seed),
        lambda: autocovariance_check(model, 20, (0, 1), seed),
        lambda: verify._innovation_check(model, 20, seed),
        lambda: clt_covariance_experiment(model, 10, 2, reps=3, seed=seed),
        lambda: iterated_experiment(model, 10, 4, "N_first", seed=seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="seed"):
            run()
