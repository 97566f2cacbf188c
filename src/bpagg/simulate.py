"""Exact path simulation, ensembles and centered space-time aggregates.

States are int64 counts. One step draws, for each type i in index order, the
exact sum of c_i independent brood vectors as one convolution variate (see
bpagg.model), then one immigration draw. A single stepper advances a whole
(B, p) block of copies in lockstep: each of these draws is one generator call
over all B copies, so a block is a pure function of its generator stream,
and a path is the block B = 1.

Ensembles split their N copies, in order, into blocks of at most
_BLOCK_CELLS counts (copies x (n+1) x p) and run block b on the
counter-based stream (master_seed, b). An ensemble therefore depends on
(master_seed, N, n, p) and never on scheduling or worker count, and any
block can be rerun alone on its stream.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kronalg import NotSubcriticalError
from .model import law_mean, mean_matrix, model_digest, validate
from .moments import stationary_moments

__all__ = [
    "PathEnsemble",
    "AggregateSeries",
    "SimulationOverflowError",
    "step",
    "simulate_path",
    "simulate_ensemble",
    "block_copies",
    "aggregate",
    "extract_innovations",
    "burnin_auto",
    "paths_to_csv",
    "aggregates_to_csv",
    "ensemble_metadata",
]

# per-component count ceiling; beyond this a step raises instead of risking
# int64 wraparound or unbounded draw sizes (supercritical runaway)
_STATE_LIMIT = 1 << 31

# int64 counts in one ensemble block, copies x (n+1) x p: large enough that
# numpy's per-call cost is shared by hundreds of short copies, small enough
# that a block's paths stay around half a megabyte
_BLOCK_CELLS = 1 << 16

_BURNIN_FLOOR = 100
_BURNIN_DECAY = 1e-6
# automatic burn-in beyond this many steps is refused, not run
_BURNIN_CEILING = 10 ** 6


class SimulationOverflowError(RuntimeError):
    """Raised when a component count exceeds the 2^31 simulation ceiling."""


def stream_rng(master_seed, *key):
    """Counter-based generator on the stream addressed by (master_seed, key)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derived_seed(master_seed, *key):
    """Stable 64-bit child seed for a namespaced purpose under master_seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def burnin_auto(model):
    """Burn-in length max(100, ceil(log(1e-6) / log(rho))).

    Initialization bias decays like rho^k, so this many steps shrink it by
    a factor 1e-6 (with a floor for very small rho). Subcritical only; a
    length above 10^6 steps raises ValueError instead of running.
    """
    cls = validate(model)
    if cls.regime != "subcritical":
        raise NotSubcriticalError(
            "burn-in initialization needs a subcritical model, got rho = %.6g" % cls.rho
        )
    if cls.rho <= 0.0:
        return _BURNIN_FLOOR
    k = max(_BURNIN_FLOOR, int(math.ceil(math.log(_BURNIN_DECAY) / math.log(cls.rho))))
    if k > _BURNIN_CEILING:
        raise ValueError(
            "automatic burn-in needs %d steps at rho = %.12g, above the ceiling of"
            " %d; choose a burn-in length with --burnin K (burnin=K)"
            % (k, cls.rho, _BURNIN_CEILING)
        )
    return k


def _check_state(total):
    # a count wrapped below zero reads as a huge unsigned value
    if total.view(np.uint64).max() > _STATE_LIMIT:
        raise SimulationOverflowError(
            "component count exceeded 2^31, supercritical runaway?"
        )
    return total


def _block_stepper(model):
    """step_fn(x, rng) advancing a (B, p) int64 block of copies one generation.

    A (p,) state is the block of one copy; its counts reach the laws as
    scalars, which numpy draws without the fixed cost of its array path.
    """
    offspring = model.offspring
    imm = model.immigration
    p = model.p

    def step_fn(x, rng):
        counts = x.T  # counts[i]: the type-i count of every copy
        total = offspring[0].sample_sum(counts[0], rng)
        for i in range(1, p):
            total += offspring[i].sample_sum(counts[i], rng)
        total += imm.sample(rng, None if x.ndim == 1 else len(x))
        return _check_state(total)

    return step_fn


def step(model, state, rng):
    """One exact transition from state, consuming rng in a fixed order."""
    state = np.asarray(state, dtype=np.int64)
    if state.shape != (model.p,) or int(state.min()) < 0:
        raise ValueError("state must be a nonnegative int vector of length p")
    return _block_stepper(model)(state, rng)


def _resolve_burnin(model, burnin):
    if burnin is None:
        return 0
    if burnin == "auto":
        return burnin_auto(model)
    if int(burnin) != burnin or burnin < 0:
        raise ValueError("burnin must be 'auto' or an integer >= 0, got %r" % (burnin,))
    return int(burnin)


def _simulate_block(model, copies, n, rng, burnin):
    """(copies, n+1, p) paths of one lockstep block; burnin is a step count.

    A block of one copy is stepped on a (p,) state.
    """
    step_fn = _block_stepper(model)
    x = np.zeros(model.p if copies == 1 else (copies, model.p), dtype=np.int64)
    for _ in range(burnin):
        x = step_fn(x, rng)
    paths = np.empty((copies, n + 1, model.p), dtype=np.int64)
    paths[:, 0] = x
    for t in range(1, n + 1):
        x = step_fn(x, rng)
        paths[:, t] = x
    return paths


def _check_steps(n):
    if int(n) != n or n < 0:
        raise ValueError("need n >= 0, got %r" % (n,))
    return int(n)


def simulate_path(model, n, rng, burnin=None):
    """Path of n steps as an (n+1, p) int64 array, path[0] the initial state.

    burnin None starts from zero; an integer k (or 'auto') first runs k
    discarded steps from zero so path[0] is approximately stationary. The
    path is the block of one copy, so it equals repeated step calls on rng.
    """
    n = _check_steps(n)
    return _simulate_block(model, 1, n, rng, _resolve_burnin(model, burnin))[0]


@dataclass
class PathEnsemble:
    """N independent copies of one model, stepped in blocks on derived streams."""

    model: object
    master_seed: int
    burnin: int
    paths: np.ndarray  # (N, n+1, p) int64

    @property
    def N(self):
        return self.paths.shape[0]

    @property
    def n(self):
        return self.paths.shape[1] - 1

    @property
    def p(self):
        return self.paths.shape[2]


def block_copies(n, p):
    """Copies per ensemble block for paths of n steps of p types."""
    return max(1, _BLOCK_CELLS // ((n + 1) * p))


def _map_tasks(fn, tasks, threads):
    """[fn(t) for t in tasks], over a pool of up to threads processes."""
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _block_worker(args):
    model, copies, n, master_seed, b, burnin = args
    return _simulate_block(model, copies, n, stream_rng(master_seed, b), burnin)


def simulate_ensemble(model, N, n, master_seed, burnin="auto", threads=1):
    """Ensemble of N copies, n steps each. Results do not depend on threads.

    Copies are stepped in blocks of block_copies(n, p); block b runs on the
    stream (master_seed, b), and threads only spreads blocks over processes.
    """
    if int(N) != N or N < 1:
        raise ValueError("need N >= 1 copies, got %r" % (N,))
    N, n = int(N), _check_steps(n)
    k = _resolve_burnin(model, burnin)
    size = block_copies(n, model.p)
    tasks = [
        (model, min(size, N - a), n, int(master_seed), b, k)
        for b, a in enumerate(range(0, N, size))
    ]
    parts = _map_tasks(_block_worker, tasks, threads)
    paths = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
    return PathEnsemble(model, int(master_seed), k, paths)


@dataclass
class AggregateSeries:
    """Centered space-time sums S_t over a grid, optionally (nN)^(-1/2) scaled."""

    grid: tuple
    values: np.ndarray  # (len(grid), p)
    scaled: bool
    n: int
    N: int


def _grid_indices(grid, n):
    idx = []
    for t in grid:
        t = float(t)
        if t < 0:
            raise ValueError("grid points must be >= 0, got %r" % t)
        m = math.floor(t * n)
        if m > n:
            raise ValueError("grid point %r needs %d steps but paths have %d" % (t, m, n))
        idx.append(m)
    return idx


def aggregate(ensemble, grid, scaled=True):
    """Aggregate S_t = sum_copies sum_{k <= floor(n t)} (X_k - mean).

    Centering uses the exact stationary mean, so the series has exact zero
    expectation under stationary initialization. With scaled=True values
    carry the CLT normalization (n N)^(-1/2).
    """
    mean = stationary_moments(ensemble.model, 1)[0]
    n, N = ensemble.n, ensemble.N
    idx = _grid_indices(grid, n)
    totals = ensemble.paths[:, 1:, :].sum(axis=0) - N * mean  # (n, p) float
    csum = np.vstack([np.zeros(ensemble.p), np.cumsum(totals, axis=0)])
    values = csum[idx]
    if scaled:
        values = values / math.sqrt(n * N)
    return AggregateSeries(tuple(float(t) for t in grid), values, bool(scaled), n, N)


def percopy_aggregates(ensemble, grid, mean=None):
    """Per-copy scaled aggregates n^(-1/2) sum_{k <= floor(n t)} (X_k - mean).

    Copies are independent and identically distributed, so their empirical
    covariance estimates the covariance of the ensemble aggregate: summing
    over N copies and dividing by sqrt(N) changes no second moment.
    mean is the exact stationary mean, solved here unless passed in.
    Returns an (N, len(grid), p) array.
    """
    if mean is None:
        mean = stationary_moments(ensemble.model, 1)[0]
    n = ensemble.n
    idx = _grid_indices(grid, n)
    csum = np.zeros(ensemble.paths.shape)  # csum[:, k]: sum of the first k steps
    np.subtract(ensemble.paths[:, 1:, :], mean, out=csum[:, 1:, :])
    np.cumsum(csum, axis=1, out=csum)
    return csum[:, idx, :] / math.sqrt(n)


def extract_innovations(model, path):
    """Innovations U_k = X_k - M X_{k-1} - m_eps for k = 1..n as (n, p) floats.

    These are the one-step prediction errors; conditionally on the past they
    are centered with covariance affine in the previous state.
    """
    path = np.asarray(path)
    if path.ndim != 2 or path.shape[1] != model.p or path.shape[0] < 2:
        raise ValueError("need a path of shape (n+1, p) with n >= 1")
    M = mean_matrix(model)
    m_eps = law_mean(model.immigration)
    x = path.astype(float)
    return x[1:] - x[:-1] @ M.T - m_eps


def paths_to_csv(ensemble, path):
    """Write paths as rows copy,k,x_1..x_p (k = 0 is the initial state)."""
    p = ensemble.p
    with open(path, "w", newline="") as fh:
        fh.write("copy,k," + ",".join("x_%d" % (i + 1) for i in range(p)) + "\n")
        for j in range(ensemble.N):
            for k in range(ensemble.n + 1):
                fh.write(
                    "%d,%d,%s\n"
                    % (j, k, ",".join(str(int(v)) for v in ensemble.paths[j, k]))
                )


def aggregates_to_csv(series, path):
    """Write aggregate rows t,s_1..s_p."""
    p = series.values.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join("s_%d" % (i + 1) for i in range(p)) + "\n")
        for t, row in zip(series.grid, series.values):
            fh.write("%s,%s\n" % (repr(float(t)), ",".join(repr(float(v)) for v in row)))


def ensemble_metadata(ensemble):
    """Reproducibility metadata: model digest, seed, sizes, burn-in."""
    return {
        "model": model_digest(ensemble.model),
        "master_seed": ensemble.master_seed,
        "copies": ensemble.N,
        "steps": ensemble.n,
        "burnin": ensemble.burnin,
    }


def default_threads():
    """Thread count from BPAGG_THREADS, defaulting to 1."""
    raw = os.environ.get("BPAGG_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def write_metadata(ensemble, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(ensemble_metadata(ensemble), indent=2) + "\n")
