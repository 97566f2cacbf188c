"""Output checks that do not use the code under test.

Exact targets come from closed forms (clt-inar, longpath-bigpop) or are
re-derived here from the model JSON with plain numpy and
scipy.linalg.solve_discrete_lyapunov (clt-grid, moments-p16). Each check
returns a list of error strings; an empty list means the output is correct.
Band outcomes of the Monte Carlo experiments are counted, never treated as
errors: a correct build fails a 4-SE band by chance now and then.
"""

import csv
import itertools
import json
import math

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

import workloads

TOL = 1e-8
# bpagg.verify documents 200 bootstrap resamples per resampled statistic.
BOOTSTRAP_RESAMPLES = 200


def _marginal_stats(spec):
    d = spec["dist"]
    if d == "bernoulli":
        q = spec["q"]
        return q, q * (1.0 - q)
    if d == "poisson":
        lam = spec["lambda"]
        return lam, lam
    if d == "binomial":
        n, q = spec["n"], spec["q"]
        return n * q, n * q * (1.0 - q)
    if d == "geometric":
        q = spec["q"]
        return (1.0 - q) / q, (1.0 - q) / (q * q)
    if d == "point":
        return spec["c"], 0.0
    raise ValueError("unknown marginal %r" % (d,))


def law_stats(law):
    """Mean vector and covariance matrix of a law given as model JSON."""
    if law["kind"] == "finite":
        v = np.array([a["v"] for a in law["support"]], dtype=float)
        w = np.array([a["p"] for a in law["support"]], dtype=float)
        w = w / w.sum()
        m = w @ v
        return m, (v * w[:, None]).T @ v - np.outer(m, m)
    stats = [_marginal_stats(s) for s in law["marginals"]]
    return np.array([s[0] for s in stats]), np.diag([s[1] for s in stats])


def numpy_reference(model):
    """mean, V, var0 and sigma of a model JSON by direct linear algebra."""
    p = model["p"]
    laws = [law_stats(law) for law in model["offspring"]]
    M = np.column_stack([m for m, _ in laws])
    m_eps, cov_eps = law_stats(model["immigration"])
    A = np.eye(p) - M
    mean = np.linalg.solve(A, m_eps)
    V = cov_eps + sum(mean[i] * laws[i][1] for i in range(p))
    Ainv = np.linalg.inv(A)
    return {
        "M": M,
        "mean": mean,
        "V": V,
        "var0": solve_discrete_lyapunov(M, V),
        "sigma": Ainv @ V @ Ainv.T,
    }


def reference(workload, model):
    """Exact targets for a workload: closed forms where the paper gives them."""
    if workload == "clt-inar":
        # Bernoulli(1/2) offspring, Poisson(1) immigration.
        return {
            "M": np.array([[0.5]]),
            "mean": np.array([2.0]),
            "V": np.array([[1.5]]),
            "var0": np.array([[2.0]]),
            "sigma": np.array([[6.0]]),
        }
    if workload == "longpath-bigpop":
        a, lam = workloads.BIGPOP_A, workloads.BIGPOP_LAM
        mean = lam / (1.0 - a)
        V = a * mean + lam
        return {
            "M": np.array([[a]]),
            "mean": np.array([mean]),
            "V": np.array([[V]]),
            "var0": np.array([[V / (1.0 - a * a)]]),
            "sigma": np.array([[V / (1.0 - a) ** 2]]),
        }
    return numpy_reference(model)


def _close(name, got, want, errors):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append("%s has shape %s, expected %s" % (name, got.shape, want.shape))
        return
    if not np.all(np.isfinite(got)):
        errors.append("%s is not finite" % name)
        return
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-12)
    gap = float(np.max(np.abs(got - want), initial=0.0)) / scale
    if gap > TOL:
        errors.append("%s off by %.3g relative to the reference" % (name, gap))


def _band_counts(rows, ks, increments, mult):
    failures = sum(abs(r["z"]) > mult for r in rows)
    failures += sum(not e["passed"] for e in ks)
    failures += sum(abs(e["z"]) > mult for e in increments)
    return len(rows) + len(ks) + len(increments), failures


def check_clt(report, rc, ref, cfg):
    """verify clt report: targets t * sigma, sizes, KS threshold, exit code."""
    errors = []
    grid = [float(t) for t in cfg["grid"]]
    p = ref["sigma"].shape[0]
    rows = report["rows"]
    ks = report["extra"]["ks"]
    inc = report["extra"]["increments"]
    G = len(grid)
    if report["kind"] != "clt" or report["params"]["grid"] != grid:
        errors.append("clt report has the wrong kind or grid")
    if len(rows) != G * p * (p + 1) // 2 or len(ks) != G * p or len(inc) != G * (G - 1) // 2 * p * p:
        errors.append("clt report has %d rows, %d KS, %d increments" % (len(rows), len(ks), len(inc)))
        return errors, None
    _close("sigma", report["extra"]["sigma"], ref["sigma"], errors)
    _close(
        "band targets",
        [r["target"] for r in rows],
        [r["t"] * ref["sigma"][r["i"], r["j"]] for r in rows],
        errors,
    )
    if {r["t"] for r in rows} != set(grid):
        errors.append("clt rows do not cover the grid")
    threshold = 1.36 / math.sqrt(cfg["reps"])
    if any(abs(e["threshold"] - threshold) > 1e-12 for e in ks):
        errors.append("KS threshold is not 1.36/sqrt(reps)")
    values = [r["empirical"] for r in rows] + [e["stat"] for e in ks] + [e["empirical"] for e in inc]
    if not all(math.isfinite(v) for v in values):
        errors.append("clt report has non-finite values")
    checks, failures = _band_counts(rows, ks, inc, report["params"]["se_multiplier"])
    errors.extend(_outcome_errors(report, rc, failures))
    bands = {
        "band_checks": checks,
        "band_failures": failures,
        "bootstrap_resamples": BOOTSTRAP_RESAMPLES * (G + len(inc)),
    }
    return errors, bands


def check_autocov(report, rc, ref, lags):
    """verify autocov report: targets var0 (M^T)^lag from the closed form."""
    errors = []
    rows = report["rows"]
    p = ref["var0"].shape[0]
    if report["kind"] != "autocov" or len(rows) != len(lags) * p * p:
        errors.append("autocov report has the wrong kind or %d rows" % len(rows))
        return errors, None
    want = []
    for r in rows:
        target = ref["var0"] @ np.linalg.matrix_power(ref["M"].T, int(r["t"]))
        want.append(target[r["i"], r["j"]])
    _close("autocov targets", [r["target"] for r in rows], want, errors)
    if sorted({int(r["t"]) for r in rows}) != sorted(lags):
        errors.append("autocov rows do not cover the lags")
    if not all(math.isfinite(r["empirical"]) for r in rows):
        errors.append("autocov report has non-finite values")
    checks, failures = _band_counts(rows, [], [], report["params"]["se_multiplier"])
    errors.extend(_outcome_errors(report, rc, failures))
    return errors, {"band_checks": checks, "band_failures": failures, "bootstrap_resamples": 0}


def _outcome_errors(report, rc, failures):
    if report["passed"] != (failures == 0):
        return ["report passed=%r disagrees with %d failed bands" % (report["passed"], failures)]
    if rc != (0 if report["passed"] else 3):
        return ["exit code %r disagrees with passed=%r" % (rc, report["passed"])]
    return []


def check_paths_csv(path, n, mean):
    """simulate CSV: header, one row per step, counts near the stationary mean.

    The path mean of n steps of a stationary path sits within a few
    standard errors of the exact mean; 5% is tens of standard errors for
    the sizes used here, so a miss means the paths are wrong.
    """
    errors = []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["copy", "k", "x_1"]:
        errors.append("paths CSV header is %r" % (rows[0],))
    body = rows[1:]
    if len(body) != n + 1:
        errors.append("paths CSV has %d rows, expected %d" % (len(body), n + 1))
        return errors
    values = np.array([[int(x) for x in r] for r in body])
    if np.any(values[:, 0] != 0) or np.any(values[:, 1] != np.arange(n + 1)):
        errors.append("paths CSV copy or step columns are wrong")
    if np.any(values[:, 2] < 0):
        errors.append("paths CSV has negative counts")
    if abs(values[1:, 2].mean() - mean) > 0.05 * mean:
        errors.append("paths CSV mean %.1f is far from %.1f" % (values[1:, 2].mean(), mean))
    return errors


def check_op(workload, kind, out, rc, ref):
    """Errors and band counts (or None) for one operation's output file."""
    if rc not in (0, 3) or (kind in ("csv", "moments") and rc != 0):
        return ["exit code %r" % (rc,)], None
    if kind == "csv":
        return check_paths_csv(out, workloads.LONGPATH["n"], ref["mean"][0]), None
    with open(out) as fh:
        report = json.load(fh)
    if kind == "moments":
        return check_moments(report, ref), None
    if kind == "clt":
        return check_clt(report, rc, ref, workloads.CLT[workload])
    return check_autocov(report, rc, ref, list(workloads.LONGPATH["lags"]))


def check_moment_values(report, ref):
    """mean, V, varX0 and sigma of a moment report against the reference."""
    errors = []
    p = len(ref["mean"])
    _close("mean", report["mean"], ref["mean"], errors)
    _close("V", report["V"], ref["V"], errors)
    _close("varX0", report["varX0"], ref["var0"], errors)
    _close("sigma", report["sigma"], ref["sigma"], errors)
    if report["kron2"] is not None:
        second = np.asarray(report["kron2"], dtype=float).reshape(p, p)
        _close("kron2", second, ref["var0"] + np.outer(ref["mean"], ref["mean"]), errors)
    return errors


def check_moments(report, ref):
    """Full order-3 report: values, kron3 symmetry and residual sizes."""
    errors = check_moment_values(report, ref)
    p = len(ref["mean"])
    if report["kron3"] is None or len(report["kron3"]) != p ** 3:
        return errors + ["order-3 report has no kron3 of length p^3"]
    k3 = np.asarray(report["kron3"], dtype=float).reshape(p, p, p)
    for perm in itertools.permutations(range(3)):
        _close("kron3 under axes %s" % (perm,), np.transpose(k3, perm), k3, errors)
    res = report["residuals"]
    scale = max(float(np.max(np.abs(ref["var0"]))), float(np.max(np.abs(ref["sigma"]))), 1.0)
    if not (res["lyapunov"] <= TOL * scale and res["limit_identity"] <= TOL * scale
            and res["route_gap"] <= TOL):
        errors.append("residuals too large: %r" % (res,))
    return errors
