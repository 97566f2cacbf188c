import inspect
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bpagg.model import (
    Bernoulli,
    BranchingModel,
    IndependentMarginals,
    Poisson,
)
import bpagg.model
import bpagg.moments
import bpagg.simulate
import bpagg.verify as verify
from bpagg.moments import limit_covariance, noise_matrix, stationary_variance
from bpagg.simulate import (
    PathEnsemble,
    aggregate,
    block_copies,
    derived_seed,
    simulate_ensemble,
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
from bpagg.verify import _boot_cov, _clt_group_worker, _ks_normal, _normal_cdf
from conftest import build_deterministic, build_scalar_inar, build_two_type


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


def test_clt_rerun_and_threads_byte_identical():
    model = build_scalar_inar()

    def run(threads):
        return clt_covariance_experiment(
            model, 50, 5, reps=40, grid=(1.0,), seed=3, threads=threads
        ).to_json()

    text = run(1)
    assert run(1) == text
    assert run(2) == text


def test_clt_groups_thread_invariant():
    # 6 replications of 50 copies fill one block, so 14 make 3 groups
    model = build_scalar_inar()
    assert block_copies(200, 1) // 50 == 6

    def run(threads):
        return clt_covariance_experiment(
            model, 200, 50, reps=14, grid=(0.5, 1.0), seed=13, threads=threads
        ).to_json()

    text = run(1)
    assert run(2) == text
    assert run(3) == text


def test_clt_group_replications_are_ensemble_slices():
    # replication r of a group is the scaled aggregate of copies
    # r N .. (r + 1) N - 1 of the group's ensemble
    model = build_two_type()
    n, N, reps, burn, grid = 30, 4, 3, 5, (0.5, 1.0)
    seed = derived_seed(17, 0, 1)
    got = _clt_group_worker((model, n, N, reps, burn, grid, None, seed))
    ens = simulate_ensemble(model, reps * N, n, seed, burnin=burn)
    assert got.shape == (reps, len(grid), 2)
    for r in range(reps):
        part = PathEnsemble(model, seed, burn, ens.paths[r * N : (r + 1) * N])
        assert_allclose(got[r], aggregate(part, grid).values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cells", [None, 1000])
def test_boot_cov_matches_per_resample_np_cov(monkeypatch, cells):
    # one gather and one batched matmul per chunk of resamples; the reference
    # is the per-resample np.cov loop it replaced (cells 1000 forces ragged
    # chunks)
    if cells is not None:
        monkeypatch.setattr(verify, "_BOOT_CELLS", cells)
    rng = np.random.default_rng(2024)
    x = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 6)) + 3.0
    boot_idx = rng.integers(0, 50, size=(200, 50))
    want = np.stack([np.cov(x[idx], rowvar=False, ddof=1) for idx in boot_idx])
    assert_allclose(_boot_cov(x, boot_idx), want, rtol=1e-12, atol=0)


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
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_ensemble called")

    monkeypatch.setattr(verify, "simulate_ensemble", refuse)
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
    model = build_two_type()
    path = simulate_path(model, 300, stream_rng(2, 0), burnin=50)
    runs = {
        "ergodic": lambda: ergodic_check(model, 300, seed=1),
        "autocov": lambda: autocovariance_check(model, 300, lags=(0, 1), seed=1),
        "clt": lambda: clt_covariance_experiment(
            model, 30, 3, reps=8, grid=(0.5, 1.0), seed=4
        ),
        "clt-burnin": lambda: clt_covariance_experiment(model, 30, 3, reps=8, burnin=5),
        "iterated": lambda: iterated_experiment(
            model, 30, 3, "n_first", sweep=[2, 4], grid=(0.5, 1.0), seed=4
        ),
        "innovations": lambda: innovation_diagnostics(model, path),
    }
    # count validate calls through every module binding of it
    calls = []
    real = bpagg.model.validate

    def counting(model):
        calls.append(model)
        return real(model)

    for mod in (bpagg.model, bpagg.moments, bpagg.simulate, verify):
        if hasattr(mod, "validate"):
            monkeypatch.setattr(mod, "validate", counting)
    for name, run in runs.items():
        del calls[:]
        run()
        assert len(calls) == 1, name


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
