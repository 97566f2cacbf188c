"""Acceptance battery: one test and one printed PASS/FAIL line per criterion.

Budgets and tolerances are pinned; bands are pre-registered at 4 standard
errors and never widened. Run with -s to see the summary lines on success.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from bpagg.cli import main
from bpagg.ginar import GinarSpec, scalar_limit_std
from bpagg.model import mean_matrix
from bpagg.moments import (
    build_transfer,
    limit_covariance,
    noise_matrix,
    stationary_moments,
    stationary_variance,
)
from bpagg.simulate import aggregate
from bpagg.verify import (
    autocovariance_check,
    bands_overlap,
    clt_covariance_experiment,
    ergodic_check,
    iterated_experiment,
)
from conftest import (
    build_deterministic,
    build_deterministic_scalar,
    build_random_subcritical,
    build_scalar_inar,
    build_two_type,
    scalar_inar,  # noqa: F401  (fixture reuse keeps conftest authoritative)
)


def _outcome(label, ok, detail):
    line = "%s  %s  (%s)" % ("PASS" if ok else "FAIL", label, detail)
    print(line)
    assert ok, line


def _random_models(count=20, dims=(1, 2, 3)):
    rng = np.random.default_rng(20240615)
    return [build_random_subcritical(rng, dims[k % len(dims)]) for k in range(count)]


_MODELS = _random_models()


def test_criterion_01_dual_route_variance():
    t0 = time.perf_counter()
    worst = 0.0
    for model in _MODELS:
        mean, kron2, _ = stationary_moments(model, 2)
        p = model.p
        via_moments = kron2.reshape(p, p) - np.outer(mean, mean)
        via_lyapunov = stationary_variance(model)
        gap = np.max(np.abs(via_moments - via_lyapunov))
        worst = max(worst, gap / max(np.max(np.abs(via_lyapunov)), 1e-30))
    elapsed = time.perf_counter() - t0
    _outcome(
        "criterion 1: dual-route variance on 20 random models",
        worst <= 1e-8 and elapsed < 1.0,
        "worst relative gap %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_02_limit_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for model in _MODELS:
        p = model.p
        M = mean_matrix(model)
        var0 = stationary_variance(model)
        A = np.eye(p) - M
        lhs = M @ np.linalg.solve(A, var0) + var0 + (M @ np.linalg.solve(A, var0.T)).T
        worst = max(worst, float(np.max(np.abs(lhs - limit_covariance(model)))))
    elapsed = time.perf_counter() - t0
    _outcome(
        "criterion 2: limit covariance decomposition identity",
        worst <= 1e-10 and elapsed < 1.0,
        "worst absolute gap %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_03_third_moment_iteration_oracle():
    t0 = time.perf_counter()
    models = [m for m in _MODELS if m.p <= 2] + [build_scalar_inar(), build_two_type()]
    worst = 0.0
    for model in models:
        p = model.p
        _, _, kron3 = stationary_moments(model, 3)
        tm = build_transfer(model, 3)
        b = np.concatenate(
            [
                model.immigration.mean(),
                model.immigration.kron_moment(2),
                model.immigration.kron_moment(3),
            ]
        )
        y = np.zeros(p + p * p + p ** 3)
        for _ in range(400):
            y = tm.a3 @ y + b
        iterated = y[p + p * p :]
        worst = max(
            worst,
            float(np.max(np.abs(iterated - kron3)) / max(np.max(np.abs(kron3)), 1e-30)),
        )
    elapsed = time.perf_counter() - t0
    _outcome(
        "criterion 3: third moments vs 400-step recursion",
        worst <= 1e-8 and elapsed < 5.0,
        "%d models, worst relative gap %.2e, %.2fs" % (len(models), worst, elapsed),
    )


def test_criterion_04_scalar_closed_forms():
    model = build_scalar_inar()
    mean, _, _ = stationary_moments(model, 1)
    V = noise_matrix(model)[0, 0]
    var0 = stationary_variance(model)[0, 0]
    sigma = limit_covariance(model)[0, 0]
    spec = GinarSpec(1, (model.offspring[0],), model.immigration)
    closed = scalar_limit_std(spec) ** 2
    ok = (
        abs(mean[0] - 2.0) <= 1e-12
        and abs(V - 1.5) <= 1e-12
        and abs(var0 - 2.0) <= 1e-12
        and abs(sigma - 6.0) <= 1e-12
        and abs(closed - sigma) <= 1e-12
    )
    _outcome(
        "criterion 4: scalar closed forms and limit std cross-check",
        ok,
        "mean %.12f V %.12f var %.12f sigma %.12f closed %.12f"
        % (mean[0], V, var0, sigma, closed),
    )


def test_criterion_05_ergodic_long_path():
    t0 = time.perf_counter()
    report = ergodic_check(build_scalar_inar(), 1_000_000, seed=20240605)
    elapsed = time.perf_counter() - t0
    first = next(r for r in report.rows if r["t"] == 1.0)
    second = next(r for r in report.rows if r["t"] == 2.0)
    rel1 = abs(first["empirical"] - 2.0) / 2.0
    rel2 = abs(second["empirical"] - 6.0) / 6.0
    _outcome(
        "criterion 5: ergodic averages on one path of n = 1e6",
        rel1 <= 0.02 and rel2 <= 0.05 and elapsed < 30.0,
        "mean off by %.3f%%, second moment off by %.3f%%, %.1fs"
        % (100 * rel1, 100 * rel2, elapsed),
    )


def test_criterion_06_autocovariance_bands():
    t0 = time.perf_counter()
    report = autocovariance_check(
        build_scalar_inar(), 1_000_000, lags=range(6), seed=20240606
    )
    elapsed = time.perf_counter() - t0
    zmax = max(abs(r["z"]) for r in report.rows)
    _outcome(
        "criterion 6: lag 0..5 autocovariances within 4 SE at n = 1e6",
        report.passed and elapsed < 60.0,
        "max |z| %.2f, %.1fs" % (zmax, elapsed),
    )


def test_criterion_07_simultaneous_clt():
    t0 = time.perf_counter()
    report = clt_covariance_experiment(
        build_scalar_inar(),
        n=200,
        N=50,
        reps=2000,
        grid=(0.5, 1.0),
        seed=20240607,
    )
    elapsed = time.perf_counter() - t0
    at_one = next(r for r in report.rows if r["t"] == 1.0)
    ks_stats = [e["stat"] for e in report.extra["ks"]]
    ks_ok = all(e["passed"] for e in report.extra["ks"])
    ok = (
        abs(at_one["z"]) <= 4
        and abs(at_one["target"] - 6.0) <= 1e-12
        and ks_ok
        and report.passed
        and elapsed < 300.0
    )
    _outcome(
        "criterion 7: aggregate variance and normality, 2000 replications",
        ok,
        "var %.3f vs 6.0 (z = %.2f), max KS %.4f vs %.4f, %.1fs"
        % (
            at_one["empirical"],
            at_one["z"],
            max(ks_stats),
            1.36 / math.sqrt(2000),
            elapsed,
        ),
    )


def test_criterion_08_iterated_limits_coincide():
    t0 = time.perf_counter()
    results = []
    scalar = dict(model=build_scalar_inar(), n=200, N=3000, grid=(0.5, 1.0), seed=20240608)
    rep_N = iterated_experiment(order="N_first", sweep=[50, 100, 200], **scalar)
    rep_n = iterated_experiment(order="n_first", sweep=[750, 1500, 3000], **scalar)
    results.append(("scalar", rep_N, rep_n))
    two = dict(model=build_two_type(), n=160, N=1500, grid=(0.5, 1.0), seed=20240609)
    rep2_N = iterated_experiment(order="N_first", sweep=[40, 80, 160], **two)
    rep2_n = iterated_experiment(order="n_first", sweep=[375, 750, 1500], **two)
    results.append(("two-type", rep2_N, rep2_n))
    elapsed = time.perf_counter() - t0

    ok = elapsed < 600.0
    details = []
    for name, ra, rb in results:
        contain = ra.passed and rb.passed
        overlap = bands_overlap(ra, rb)
        ok = ok and contain and overlap
        zmax = max(abs(r["z"]) for r in ra.rows + rb.rows)
        details.append("%s max |z| %.2f overlap %s" % (name, zmax, overlap))
    _outcome(
        "criterion 8: iterated limit orders give matching bands",
        ok,
        "; ".join(details) + ", %.1fs" % elapsed,
    )


def test_criterion_09_degenerate_exactness():
    ok = True
    details = []
    for model in (build_deterministic(), build_deterministic_scalar()):
        V = noise_matrix(model)
        values = aggregate(model, 3, 50, 0, (0.25, 0.5, 1.0), burnin=10)
        exact_v = bool(np.all(V == 0.0))
        exact_s = bool(np.all(values == 0.0))
        ok = ok and exact_v and exact_s
        details.append("p=%d V==0 %s aggregates==0 %s" % (model.p, exact_v, exact_s))
    _outcome("criterion 9: deterministic laws give exact zeros", ok, "; ".join(details))


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    import json

    from bpagg.model import model_to_json

    model_file.write_text(json.dumps(model_to_json(build_scalar_inar())))
    outs = [tmp_path / name for name in ("t1.json", "t8.json", "rerun.json")]
    base = [
        "verify", "clt", "--model", str(model_file), "--n", "60", "--copies", "6",
        "--reps", "40", "--seed", "20240610", "--grid", "0.5,1.0",
    ]
    assert main(base + ["--threads", "1", "--out", str(outs[0])]) == 0
    assert main(base + ["--threads", "8", "--out", str(outs[1])]) == 0
    assert main(base + ["--threads", "1", "--out", str(outs[2])]) == 0

    it = [
        "verify", "iterated", "--model", str(model_file), "--limit-order", "n",
        "--n", "50", "--copies", "40", "--sweep", "10,20,40",
        "--seed", "20240611",
    ]
    ia, ib = tmp_path / "i1.json", tmp_path / "i8.json"
    assert main(it + ["--threads", "1", "--out", str(ia)]) == 0
    assert main(it + ["--threads", "8", "--out", str(ib)]) == 0

    same_clt = outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    same_it = ia.read_bytes() == ib.read_bytes()
    _outcome(
        "criterion 10: byte-identical reports across reruns and thread counts",
        same_clt and same_it,
        "clt identical %s, iterated identical %s" % (same_clt, same_it),
    )
