"""Layer microbenchmarks run inside the traced run, after its passes.

- law draws: ``sample_sum`` per law kind at brood counts 10, 1e3 and 1e5
  (Bernoulli, already one binomial variate, is the control at 1e3);
- the exact engine: ``moment_report(order 3)`` over a sweep of p;
- CSV export: ``paths_to_csv`` rows per second.

Each timing is the median over repeated blocks, so one stall on a shared
machine moves it little.
"""

import os
import statistics
import time

import numpy as np

import workloads

COUNTS = {"c10": 10, "c1e3": 1000, "c1e5": 100000}
BLOCK_S = 0.02
BLOCKS = 5


def _per_call_s(fn):
    """Median seconds per call over BLOCKS blocks of at least BLOCK_S each."""
    fn()
    results = []
    for _ in range(BLOCKS):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            dt = time.perf_counter() - t0
            if dt >= BLOCK_S:
                break
        results.append(dt / calls)
    return statistics.median(results)


def sample_sum_us(seed):
    """Microseconds per sample_sum call by law kind and brood count."""
    from bpagg import model as m

    laws = {
        "poisson": m.Poisson(0.5),
        "binomial": m.Binomial(2, 0.25),
        "geometric": m.Geometric(2.0 / 3.0),
        "finite": m.FiniteSupport([[0], [1], [2]], [0.6, 0.3, 0.1]),
    }
    rng = np.random.Generator(np.random.Philox(seed))
    out = {}
    for kind, law in laws.items():
        for label, count in COUNTS.items():
            out["model.sample_sum_us.%s.%s" % (kind, label)] = 1e6 * _per_call_s(
                lambda: law.sample_sum(count, rng)
            )
    bern = m.Bernoulli(0.5)
    out["model.sample_sum_us.bernoulli.c1e3"] = 1e6 * _per_call_s(
        lambda: bern.sample_sum(1000, rng)
    )
    return out


def moment_report_sweep(seed):
    """Seconds per moment_report(order 3) on random models of each p."""
    from bpagg.model import model_from_json
    from bpagg.moments import moment_report

    out = {}
    for p in workloads.SWEEP_P:
        model = model_from_json(workloads.random_model(p, seed))
        # a single call at the largest sizes, where one takes seconds
        reps = 3 if p <= 8 else 1
        out["moments.moment_report_s.p%d" % p] = statistics.median(
            _timed_once(lambda: moment_report(model, 3)) for _ in range(reps)
        )
    return out


def _timed_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def csv_rows_per_s(seed, workdir, copies=10, steps=5000):
    """Rows per second written by paths_to_csv for a (copies, steps+1, 1) ensemble."""
    from bpagg.model import model_from_json
    from bpagg.simulate import PathEnsemble, paths_to_csv

    rng = np.random.default_rng(seed)
    paths = rng.poisson(2000.0, size=(copies, steps + 1, 1)).astype(np.int64)
    ens = PathEnsemble(model_from_json(workloads.BIGPOP), seed, 0, paths)
    target = os.path.join(workdir, "micro.csv")
    rows = copies * (steps + 1)
    times = [_timed_once(lambda: paths_to_csv(ens, target)) for _ in range(3)]
    os.remove(target)
    return {"simulate.csv_rows_per_s": rows / statistics.median(times)}
