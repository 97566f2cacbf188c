"""Monte Carlo verification of stationary moments and aggregation limits.

Every experiment takes its exact targets, the stationary mean behind its
certified automatic burn-in (see simulate.burnin_auto; the certificate
covers every copy the experiment simulates) and the rho behind its mixing
warning from one moment_report of its model, and compares simulation
against them with pre-registered bands: 4 standard errors (_SE_MULT, a
constant, not a parameter), fixed before sampling and never widened
afterwards. The single-path experiments draw their path
after that report (_stationary_path), the aggregate experiments check
their grid before they simulate, and every report is assembled by
_report. _report alone decides whether a report passed, by one two-sided
band rule (_in_band) on the z-score of every row and every extra check.
A KS distance enters as a z-score in units of threshold / _SE_MULT, and
the one-sided absolute-moment bound through its excess alone. Reports
carry the empirical value, the exact target, the standard error and the
z-score for every checked entry, and serialize deterministically: a rerun
with the same master seed produces identical bytes for any worker count,
so wall clock time is kept out of the serialized form.

Both aggregate experiments are made of one point (_point): reps
aggregates of N copies at horizon n from one simulate.aggregate call,
which draws an aggregate of N copies as one chain of the N-fold model and
refuses, naming N, one too large to simulate. The point returns the
covariance rows of every grid point and, unless its tests are turned off,
the KS entries, the increments and their z-scores. clt is one point at
(n, N, reps), so its replications cost the same at any N; a sweep point
of iterated is the clt point (n_s, 1, N_s) without KS or increments, its
copies aggregates of one copy each, because its rows are covariances
across copies. A point checks its grid before any draw (_point_grid),
and iterated checks every sweep horizon before its first point.

Standard errors come from batch means on single long paths and from plug-in
estimates on replicated aggregates: an entry of a sample covariance of
i.i.d. replications (or copies) is the mean of the centered products
(x_i - mean_i)(x_j - mean_j), so its standard error is their sample
standard deviation over sqrt(reps) (_cov_se), the same i.i.d. standard
error the innovation buckets use. A bootstrap would only approximate this
delta-method variance with resampling noise (Efron 1982), so none is run
and an aggregate experiment draws no random number after its ensemble.
Every experiment warns when its path length is short for the model's
mixing time, and clt and iterated when an explicit burn-in leaves their
copies more than 1e-2 in total variation from a stationary start.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import _count, json_text, mean_matrix, model_digest
from .moments import moment_report
from .simulate import (
    _grid_indices,
    _resolve_burnin,
    aggregate,
    derived_seed,
    extract_innovations,
    simulate_path,
    stream_rng,
)

__all__ = [
    "VerificationReport",
    "ergodic_check",
    "clt_covariance_experiment",
    "iterated_experiment",
    "autocovariance_check",
    "innovation_diagnostics",
    "bands_overlap",
]

# pre-registered band half-width in standard errors; reports record it as
# params["se_multiplier"]
_SE_MULT = 4.0
_MIN_BUCKET = 100
_MAX_BUCKETS = 20


@dataclass
class VerificationReport:
    """Band-by-band comparison of simulation against exact targets.

    rows hold dicts with keys t, i, j, empirical, target, se, z; the meaning
    of t depends on kind (grid time for aggregate experiments, lag for
    autocovariances, moment order for the ergodic check, 0 for innovation
    totals). runtime is wall clock and intentionally left out of the
    serialized report so reruns are byte-identical.
    """

    kind: str
    params: dict
    rows: list
    extra: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    passed: bool = True
    runtime: float = 0.0

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "params": self.params,
            "passed": bool(self.passed),
            "warnings": list(self.warnings),
            "rows": self.rows,
            "extra": self.extra,
        }

    def to_json(self):
        return json_text(self.to_json_dict())

    def to_csv(self):
        lines = ["t,i,j,empirical,target,z"]
        for r in self.rows:
            lines.append(
                "%s,%d,%d,%s,%s,%s"
                % (
                    repr(float(r["t"])),
                    r["i"],
                    r["j"],
                    repr(float(r["empirical"])),
                    repr(float(r["target"])),
                    repr(float(r["z"])),
                )
            )
        return "\n".join(lines) + "\n"


def _zval(diff, se):
    if se > 0:
        return diff / se
    return 0.0 if diff == 0 else math.inf


def _in_band(z):
    """The pre-registered two-sided band: |z| within _SE_MULT."""
    return abs(z) <= _SE_MULT


def _band(empirical, target, se):
    """Band record of one checked entry: empirical, target, se and z."""
    empirical, target, se = float(empirical), float(target), float(se)
    return {
        "empirical": empirical,
        "target": target,
        "se": se,
        "z": float(_zval(empirical - target, se)),
    }


def _row(t, i, j, empirical, target, se):
    return {"t": float(t), "i": int(i), "j": int(j), **_band(empirical, target, se)}


def _batch_se(series):
    """Standard error of the mean of a dependent series via batch means."""
    m = len(series)
    nb = 100 if m >= 200 else max(2, m // 10)
    width = m // nb
    if width < 1:
        return math.inf
    trimmed = np.asarray(series[: nb * width], dtype=float).reshape(nb, width)
    means = trimmed.mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


def _cov_se(x):
    """(cov, se) of a sample x (reps, d) of i.i.d. rows: the sample covariance
    and the plug-in standard error of each entry, the standard deviation
    (ddof 1) of the centered products (x_i - mean_i)(x_j - mean_j) over
    sqrt(reps). The products' second moments come from one matmul of the
    squared centered sample, so no (reps, d, d) array is built; a variance
    that rounding leaves slightly negative reads 0."""
    reps = x.shape[0]
    xc = x - x.mean(axis=0)
    S = xc.T @ xc
    sq = xc * xc
    var = (sq.T @ sq - S * S / reps) / (reps - 1)
    return S / (reps - 1), np.sqrt(np.maximum(var, 0.0) / reps)


def _increment_table(vals, grid):
    """Cross covariances of the increments of vals (reps, G, p) over disjoint
    grid intervals, each against 0: one _cov_se of the stacked increments."""
    reps, G, p = vals.shape
    emp, se = _cov_se(np.diff(vals, axis=1, prepend=0.0).reshape(reps, -1))
    increments = []
    for a in range(G):
        for b in range(a + 1, G):
            for i in range(p):
                for j in range(p):
                    k, m = a * p + i, b * p + j
                    e, s = float(emp[k, m]), float(se[k, m])
                    increments.append(
                        {
                            "t_a": float(grid[a]),
                            "t_b": float(grid[b]),
                            "i": int(i),
                            "j": int(j),
                            "empirical": e,
                            "se": s,
                            "z": float(_zval(e, s)),
                        }
                    )
    return increments


def _normal_cdf(x):
    """Standard normal CDF 0.5 erfc(-x / sqrt(2)) of each entry of a 1-D array."""
    r = math.sqrt(0.5)
    return 0.5 * np.fromiter(map(math.erfc, (-x * r).tolist()), float, len(x))


def _ks_normal(values):
    """Exact Kolmogorov-Smirnov distance of standardized values to N(0,1)."""
    x = np.sort(np.asarray(values, dtype=float))
    m = len(x)
    c = _normal_cdf(x)
    hi = np.arange(1, m + 1) / m - c
    lo = c - np.arange(0, m) / m
    return float(max(hi.max(), lo.max()))


def _report(kind, model, params, rows, rho, n, t0, extra=None, checks=(), warnings=()):
    """A report of kind: params behind the model digest and ahead of the band
    multiplier, passed when the z-score of every row and every z-score in
    checks is in the band, the given warnings and one more when n is short
    for the mixing time at rho, and the runtime since t0."""
    warnings = list(warnings)
    if rho > 0 and n < 100.0 / (1.0 - rho) ** 2:
        warnings.append(
            "insufficient n for reliable bands: n = %d but rho = %.3f suggests"
            " n >= %d" % (n, rho, int(100.0 / (1.0 - rho) ** 2))
        )
    return VerificationReport(
        kind=kind,
        params={"model": model_digest(model), **params, "se_multiplier": _SE_MULT},
        rows=rows,
        extra={} if extra is None else extra,
        warnings=warnings,
        passed=all(_in_band(z) for z in [r["z"] for r in rows] + list(checks)),
        runtime=time.perf_counter() - t0,
    )


def _stationary_path(model, n, seed, order):
    """(exact, burn, path): the moment report of the given order, the
    automatic burn-in of one copy from its mean, and a path of n steps
    after that burn-in on the stream (seed, 0). Below two steps a
    batch-means standard error is infinite and every band passes, so such
    an n is refused; so is a seed that is not an integer >= 0, before the
    report is built."""
    if n < 2:
        raise ValueError("need n >= 2 for a batch-means standard error, got %r" % (n,))
    seed = _count("seed", seed)
    exact = moment_report(model, order)
    burn, _ = _resolve_burnin(model, "auto", 1)
    return exact, burn, simulate_path(model, n, stream_rng(seed, 0), burnin=burn)


def ergodic_check(model, n, seed):
    """Time averages of X and X (x) X on one long path vs exact moments.

    Rows use t = 1 for first moments (i = j = coordinate) and t = 2 for
    second Kronecker moments (upper triangle). Bands are 4 batch-mean
    standard errors; too small an n for the model's mixing time
    is reported as a warning, not a wider band.
    """
    t0 = time.perf_counter()
    exact, burn, path = _stationary_path(model, n, seed, 2)
    x = path[1:].astype(float)
    p = model.p
    rows = []
    for i in range(p):
        rows.append(_row(1.0, i, i, x[:, i].mean(), exact.mean[i], _batch_se(x[:, i])))
    second = exact.kron2.reshape(p, p)
    for i in range(p):
        for j in range(i, p):
            prods = x[:, i] * x[:, j]
            rows.append(_row(2.0, i, j, prods.mean(), second[i, j], _batch_se(prods)))
    params = {"n": int(n), "seed": int(seed), "burnin": int(burn)}
    return _report("ergodic", model, params, rows, exact.rho, n, t0)


def _point_grid(grid, n):
    """The precondition of a point at horizon n on grid, checked before any
    draw: _grid_indices's grid check, and no grid point t > 0 below one
    step, since floor(t n) = 0 makes its aggregate identically 0 and its
    rows read z = inf whatever is drawn. t = 0 stays valid."""
    for t, m in zip(grid, _grid_indices(grid, n)):
        if t > 0 and m == 0:
            raise ValueError("grid point %r is below one of the n = %d steps, so its"
                             " aggregate is identically 0" % (t, n))


def _point(model, sigma, n, N, reps, grid, seed, burn, threads, tests=True):
    """(rows, extra, checks) of one point: reps aggregates of N copies at
    horizon n, drawn by one simulate.aggregate call with the derived master
    seed seed after burn steps, on a float grid that passed _point_grid at n.

    rows compare, per grid point t, the covariance of the scaled aggregate
    across the reps with t * sigma, upper triangle, with the plug-in
    standard errors of _cov_se. With tests, extra holds the KS entries of
    each standardized marginal (distance against the 1.36 / sqrt(reps)
    threshold) and the cross covariances of the increments over disjoint
    grid intervals, and checks their z-scores; without, both are empty.
    """
    vals = aggregate(model, N, n, seed, grid, burn, threads, reps)
    p = model.p
    rows, ks_entries, checks = [], [], []
    ks_threshold = 1.36 / math.sqrt(reps)
    for g, t in enumerate(grid):
        sample = vals[:, g, :]
        emp, se = _cov_se(sample)
        rows.extend(_row(t, i, j, emp[i, j], t * sigma[i, j], se[i, j])
                    for i in range(p) for j in range(i, p))
        for i in range(p if tests else 0):
            sd = sample[:, i].std(ddof=1)
            if sd == 0:
                stat = 0.0 if t * sigma[i, i] == 0 else 1.0
            else:
                stat = _ks_normal((sample[:, i] - sample[:, i].mean()) / sd)
            # in units of threshold / _SE_MULT, the distance is in band
            # exactly when it is at most the threshold
            z = _zval(stat, ks_threshold / _SE_MULT)
            checks.append(z)
            ks_entries.append({"t": float(t), "coord": int(i), "stat": float(stat),
                               "threshold": float(ks_threshold), "passed": _in_band(z)})
    if not tests:
        return rows, {}, []
    increments = _increment_table(vals, grid) if len(grid) > 1 else []
    checks.extend(e["z"] for e in increments)
    return rows, {"ks": ks_entries, "increments": increments}, checks


def clt_covariance_experiment(model, n, N, reps=200, grid=(1.0,), seed=0, burnin="auto",
                              threads=1):
    """Distribution of the scaled aggregate against the Gaussian limit.

    Runs reps independent aggregates of N copies over n steps after burnin
    steps ('auto' or an integer), on threads worker processes. grid must be
    nonempty, finite, nonnegative, strictly increasing, and reach no
    further than n steps, and a grid point t > 0 must reach at least one
    step. The run is one point (_point): the replications are
    simulate.aggregate's reps aggregates of N copies on the seed derived
    from (seed, 0), each one chain of the N-fold model, scaled by 1 /
    sqrt(n N); the burn-in certifies all reps * N copies. A replication
    costs the same at any N, but its counts are the aggregate's: past the
    count ceiling of 2^31 per type, or when N immigration draws cannot be
    drawn, the run raises SimulationOverflowError, naming N and the reason
    when N >= 2. Per grid point t the empirical covariance of the scaled
    aggregate across replications is compared entrywise to t * sigma, each
    standardized marginal is tested for normality (KS distance against the
    1.36 / sqrt(reps) threshold), and increments over disjoint grid
    intervals are checked for vanishing cross covariance. The standard
    errors of both tables are the plug-in standard errors of _cov_se over
    the replications, one call per grid point and one for the stacked
    increments.
    """
    t0 = time.perf_counter()
    n, N, reps = _count("n", n), _count("N", N), _count("reps", reps)
    seed = _count("seed", seed)
    if reps < 2:
        raise ValueError("need reps >= 2, got %r" % (reps,))
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1, got %r and %r" % (n, N))
    grid = tuple(float(t) for t in grid)
    exact = moment_report(model, 1)
    burn, notes = _resolve_burnin(model, burnin, reps * N)
    _point_grid(grid, n)
    rows, extra, checks = _point(model, exact.sigma, n, N, reps, grid, derived_seed(seed, 0),
                                 burn, threads)
    params = {
        "n": n,
        "N": N,
        "reps": int(reps),
        "grid": list(grid),
        "master_seed": int(seed),
        "burnin": int(burn),
    }
    extra = {"sigma": exact.sigma.tolist(), **extra}
    return _report("clt", model, params, rows, exact.rho, n, t0, extra, checks, notes)


def _default_sweep(top):
    vals = sorted({max(2, top // 4), max(2, top // 2), int(top)})
    return [int(v) for v in vals]


def iterated_experiment(model, n, N, order, sweep=None, grid=(1.0,), seed=0,
                        burnin="auto", threads=1):
    """Iterated-limit covariance trajectories, one limit order at a time.

    order 'N_first' holds the copy count at N (the inner limit) and sweeps
    the horizon upward through sweep; 'n_first' holds the horizon at n and
    sweeps the copy count; the default sweep is a quarter, a half and all
    of the held-out size. seed, burnin, grid and threads are as in
    clt_covariance_experiment, and grid must fit every sweep horizon,
    which is checked for all of them before the first draw. Sweep point s
    of N_s copies at horizon n_s is the clt point (n_s, 1, N_s) without KS
    or increments, on the seed derived from (seed, 0, order, s): N_s
    aggregates of one copy each, so the empirical covariance across copies
    estimates the aggregate covariance of the scaled ensemble aggregate, a
    normalized sum of i.i.d. per-copy aggregates. The trajectory should
    settle at t * sigma whichever limit is taken first.
    Top-level rows are the final sweep point, and params' n and N are the
    sizes it ran at; full trajectories sit in extra['sweep'].
    """
    t0 = time.perf_counter()
    orders = {"N_first": 0, "n_first": 1}
    if order not in orders:
        raise ValueError("order must be 'N_first' or 'n_first', got %r" % (order,))
    oid = orders[order]
    n, N, seed = _count("n", n), _count("N", N), _count("seed", seed)
    exact = moment_report(model, 1)
    if sweep is None:
        sweep = _default_sweep(n if order == "N_first" else N)
    sweep = list(sweep)
    points = [(N, v) if order == "N_first" else (v, n) for v in sweep]
    if not points or min(N_s for N_s, _ in points) < 2 or min(n_s for _, n_s in points) < 1:
        raise ValueError(
            "need a nonempty sweep with at least 2 copies and 1 step per sweep point"
        )
    # the range check comes first, so a negative size gets its message; a
    # fractional size is refused here, not truncated
    sweep = [_count("sweep", v) for v in sweep]
    points = [(int(N_s), int(n_s)) for N_s, n_s in points]
    grid = tuple(float(t) for t in grid)
    for _, n_s in points:
        _point_grid(grid, n_s)
    copies = sum(N_s for N_s, _ in points)
    burn, notes = _resolve_burnin(model, burnin, copies)

    trajectory = []
    for s, (val, (N_s, n_s)) in enumerate(zip(sweep, points)):
        rows, _, _ = _point(model, exact.sigma, n_s, 1, N_s, grid,
                            derived_seed(seed, 0, oid, s), burn, threads, tests=False)
        trajectory.append({"sweep": val, "N": N_s, "n": n_s, "rows": rows})

    params = {
        "order": order,
        "n": points[-1][1],
        "N": points[-1][0],
        "sweep": sweep,
        "grid": list(grid),
        "master_seed": int(seed),
        "burnin": int(burn),
    }
    extra = {"sigma": exact.sigma.tolist(), "sweep": trajectory}
    return _report("iterated", model, params, rows, exact.rho, points[-1][1], t0, extra,
                   warnings=notes)


def autocovariance_check(model, n, lags, seed):
    """Empirical lagged autocovariances on one long path vs var0 (M^T)^lag.

    Rows use t = lag and cover all (i, j) since lagged autocovariance is
    not symmetric.
    """
    t0 = time.perf_counter()
    # a fractional or negative lag is refused by name, not truncated
    lags = [_count("lags", k) for k in lags]
    if not lags:
        raise ValueError("need at least one lag")
    # a lag of at most n - 2 leaves two products for its batch-means SE
    if max(lags) > n - 2:
        raise ValueError("largest lag must be at most n - 2, got %d for n = %r"
                         % (max(lags), n))
    exact, burn, path = _stationary_path(model, n, seed, 1)
    M = mean_matrix(model)
    x = path[1:].astype(float)
    c = x - x.mean(axis=0)
    p = model.p
    rows = []
    for lag in lags:
        target = exact.var0 @ np.linalg.matrix_power(M.T, lag)
        a = c[: len(c) - lag] if lag else c
        b = c[lag:]
        for i in range(p):
            for j in range(p):
                prods = a[:, i] * b[:, j]
                rows.append(_row(float(lag), i, j, prods.mean(), target[i, j], _batch_se(prods)))
    params = {"n": int(n), "lags": lags, "seed": int(seed), "burnin": int(burn)}
    return _report("autocov", model, params, rows, exact.rho, n, t0)


def innovation_diagnostics(model, path):
    """Innovation moment checks on a supplied (approximately stationary) path.

    Checks E(U U^T) against V globally (rows, t = 0), the absolute-moment
    bound E|U_j| <= sqrt(V_jj), and, bucketed by previous state for states
    seen at least 100 times, the conditional second moment against its
    affine form sum_q x_q Cov(xi^(q)) + Cov(eps). Bucket samples are i.i.d.
    so plain standard errors apply there. A negative or fractional entry of
    the path is refused, not truncated.
    """
    t0 = time.perf_counter()
    if len(path) < 3:
        raise ValueError("need a path of at least 3 rows (2 innovations), got %d"
                         % len(path))
    x = np.asarray(path)
    if not np.all(np.isfinite(x) & (x >= 0) & (x == np.round(x))):
        raise ValueError("need a path of nonnegative integer counts")
    return _innovation_report(model, path, moment_report(model, 1), t0)


def _innovation_check(model, n, seed):
    """innovation_diagnostics of a path of n steps after the automatic
    burn-in on the stream (seed, 0); path and checks share one report."""
    t0 = time.perf_counter()
    exact, _, path = _stationary_path(model, n, seed, 1)
    return _innovation_report(model, path, exact, t0)


def _innovation_report(model, path, exact, t0):
    """innovation_diagnostics against the order-1 moment report exact, whose
    law covariances give the bucket targets; the runtime counts from t0."""
    U = extract_innovations(model, path)
    V = exact.v
    p = model.p
    rows = []
    for i in range(p):
        for j in range(i, p):
            prods = U[:, i] * U[:, j]
            rows.append(_row(0.0, i, j, prods.mean(), V[i, j], _batch_se(prods)))

    abs_entries, checks = [], []
    for j in range(p):
        a = np.abs(U[:, j])
        bound = math.sqrt(max(V[j, j], 0.0))
        se = _batch_se(a)
        # the bound is one-sided: only an excess over it can leave the band
        z = _zval(max(float(a.mean() - bound), 0.0), se)
        checks.append(z)
        abs_entries.append(
            {
                "coord": int(j),
                "empirical": float(a.mean()),
                "bound": float(bound),
                "se": float(se),
                "passed": _in_band(z),
            }
        )

    states = path[:-1]
    keys, inverse, counts = np.unique(
        states, axis=0, return_inverse=True, return_counts=True
    )
    eligible = [k for k in range(len(keys)) if counts[k] >= _MIN_BUCKET]
    eligible.sort(key=lambda k: (-int(counts[k]), tuple(int(v) for v in keys[k])))
    eligible = eligible[:_MAX_BUCKETS]
    buckets = []
    for k in eligible:
        mask = inverse == k
        x = keys[k]
        target = exact.immigration_cov + sum(
            int(x[q]) * exact.offspring_cov[q] for q in range(p)
        )
        entries = []
        for i in range(p):
            for j in range(i, p):
                prods = U[mask, i] * U[mask, j]
                se = prods.std(ddof=1) / math.sqrt(len(prods))
                entries.append({"i": i, "j": j, **_band(prods.mean(), target[i, j], se)})
        checks.extend(e["z"] for e in entries)
        buckets.append(
            {
                "state": [int(v) for v in x],
                "count": int(counts[k]),
                "entries": entries,
            }
        )

    extra = {"abs_moment": abs_entries, "buckets": buckets}
    n = U.shape[0]
    return _report("innovations", model, {"n": int(n)}, rows, exact.rho, n, t0, extra,
                   checks)


def bands_overlap(report_a, report_b):
    """Whether every shared (t, i, j) band of two reports intersects.

    Bands are empirical +- multiplier * se with each report's own
    multiplier.
    """
    mult_a = float(report_a.params.get("se_multiplier", _SE_MULT))
    mult_b = float(report_b.params.get("se_multiplier", _SE_MULT))
    index_b = {(r["t"], r["i"], r["j"]): r for r in report_b.rows}
    shared = 0
    for ra in report_a.rows:
        rb = index_b.get((ra["t"], ra["i"], ra["j"]))
        if rb is None:
            continue
        shared += 1
        lo_a, hi_a = ra["empirical"] - mult_a * ra["se"], ra["empirical"] + mult_a * ra["se"]
        lo_b, hi_b = rb["empirical"] - mult_b * rb["se"], rb["empirical"] + mult_b * rb["se"]
        if hi_a < lo_b or hi_b < lo_a:
            return False
    if shared == 0:
        raise ValueError("reports share no bands to compare")
    return True
