"""Exact path simulation, ensembles and centered space-time aggregates.

States are int64 counts, and a block of copies is a pure function of its
generator stream. A block of B copies is stepped in lockstep, in chunks of
k = _CHUNK_CELLS // (B p) steps (at least one): a chunk first draws the
immigration of all its steps and copies in one call, then, step by step,
each type's offspring in index order, the exact sum of c_i independent
brood vectors as one convolution variate (see bpagg.model) over all B
copies; step is such a chunk of one step.

A block of one copy of a subcritical model is drawn as immigrant cohorts
(see _cohort_chunks): from zero, the path is the sum of the independent
Galton-Watson processes started by each step's immigration, stepped one
generation at a time over all living cohorts of a chunk of birth steps.
Cohorts of a critical or supercritical model need not die out, and
long-lived ones cost more than steps, so such one-copy blocks are stepped
in lockstep like the others (see _cohort_route); simulate_path and every
ensemble decide the route once per call. A path is not repeated step
calls. Either route hands out its states a chunk at a time, and a block
keeps either its paths or only its running sums S_m = X_1 + ... + X_m at
the grid indices m = floor(t n) (see _simulate_block).

Ensembles split their N copies, in order, into blocks of block_copies(p)
copies and run block b on the keyed stream (master_seed, b). An
ensemble therefore depends on (master_seed, N, n, p) and never on
scheduling or worker count, and any block can be rerun alone on its stream.

An automatic burn-in is certified (see burnin_auto): it is the smallest K
whose coupling bound puts every copy a call simulates, together, within
total variation 1e-6 of a stationary start.

Aggregates store no path: aggregate centers the running sums of each copy
at the exact stationary mean, and the ensemble aggregate is the sum of its
N independent per-copy aggregates over sqrt(N). _grid_indices is the one
check of a time grid, and callers run it before they simulate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kronalg import NotSubcriticalError, spectral_radius
from .model import (
    Binomial,
    FiniteSupport,
    Point,
    _count,
    _regime,
    json_text,
    mean_matrix,
    model_digest,
    validate,
)
from .moments import _stationary_mean

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
# counts times law constants must stay below this to fit int64
_INT64_WRAP = 1 << 63

# copies x types of one ensemble block, stepped in lockstep: wide enough that
# numpy's per-call cost is shared by thousands of copies at any path length
_BLOCK_WIDTH = 4096

# int64 counts in one chunk of a block, steps x copies x p: a chunk's
# immigration is one draw, and its states stay around half a megabyte
_CHUNK_CELLS = 1 << 16

# one-copy blocks are drawn as immigrant cohorts only while a cohort lives
# at most this many generations in mean (see _cohort_route): each living
# cohort costs an array entry per generation, and on one-type Poisson and
# Bernoulli models a lockstep step of the (1, p) block got cheaper from
# about 150 generations on (2-core x86_64 host)
_COHORT_GENERATIONS = 128

# rows of one copy formatted per write by paths_to_csv
_CSV_ROWS = 1 << 14

# an automatic burn-in puts a whole run within this total variation of a
# stationary start (see burnin_auto)
_BURNIN_TOL = 1e-6
# an explicit burn-in whose bound passes this is warned about
_BURNIN_WARN = 1e-2
# automatic burn-in beyond this many steps is refused, not run
_BURNIN_CEILING = 10 ** 6


class SimulationOverflowError(RuntimeError):
    """Raised when a component count exceeds the 2^31 simulation ceiling."""


def stream_rng(master_seed, *key):
    """SFC64 generator on the stream addressed by (master_seed, key).

    Streams are independent because SeedSequence keys them by spawn_key;
    no stream is advanced or jumped, so no counter-based generator is needed.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


def derived_seed(master_seed, *key):
    """Stable 64-bit child seed for a namespaced purpose under master_seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _certified_burnin(M, mean, copies):
    """The smallest K with copies * 1^T M^K mean <= _BURNIN_TOL.

    The bound never increases in K, so K is found by doubling on the powers
    M^(2^j) and then descending through them, one matrix-vector product per
    bit: O(log K) matrix products and no loop over steps. M must be
    subcritical. A K above _BURNIN_CEILING raises ValueError naming rho.
    """
    copies = max(1, int(copies))
    tol = _BURNIN_TOL / copies
    if mean.sum() <= tol:
        return 0
    powers = [M]  # powers[j] = M^(2^j)
    while (powers[-1] @ mean).sum() > tol and 1 << (len(powers) - 1) <= _BURNIN_CEILING:
        powers.append(powers[-1] @ powers[-1])
    # k is the largest count found so far whose bound is above tol
    k, v = 0, mean
    for j in range(len(powers) - 1, -1, -1):
        w = powers[j] @ v
        if w.sum() > tol:
            k, v = k + (1 << j), w
    k += 1
    if k > _BURNIN_CEILING:
        raise ValueError(
            "automatic burn-in needs more than %d steps at rho = %.12g to put a run"
            " of copies = %d within %g of a stationary start; choose a burn-in"
            " length with --burnin K (burnin=K)"
            % (_BURNIN_CEILING, spectral_radius(M), copies, _BURNIN_TOL)
        )
    return k


def burnin_auto(model, copies=1):
    """The certified burn-in: the smallest K with copies * 1^T M^K mean <= 1e-6.

    A copy started at zero K steps before time 0 and the stationary chain
    can be coupled so that they differ only by the progeny of the immigrant
    cohorts older than K; a stationary state is the sum over all earlier
    cohorts (Heathcote 1965), and the older ones leave 1^T M^K mean
    individuals at time 0 in mean. So the law of the copy's whole path
    after the burn-in is within total variation 1^T M^K mean of the
    stationary path's (the coupling inequality; Lindvall, Lectures on the
    Coupling Method). Copies are independent and their bounds add, so a run
    of copies copies is within 1e-6 of a stationary-start run. A nilpotent
    M certifies at its index and zero immigration at 0. Subcritical only; a
    length above 10^6 steps raises ValueError instead of running.
    """
    return _resolve_burnin(model, "auto", copies)[0]


def _resolve_burnin(model, burnin, copies=1, mean=None):
    """(k, warnings), the one decision of a run's burn-in over copies copies.

    None is (0, []), 'auto' the certified length (see burnin_auto), and an
    integer k >= 0 is k, warned about when its certificate
    copies * 1^T M^k mean is above _BURNIN_WARN. A passed mean has been
    solved by moments._stationary_mean, which classified the model. Without
    it 'auto' classifies the model and refuses one that is not subcritical,
    while an integer reads only the spectral radius, and on such a model,
    which has no stationary law to compare with, gets no warning.
    """
    if burnin is None:
        return 0, []
    auto = burnin == "auto"
    k = None if auto else _count("burnin", burnin)
    M = mean_matrix(model)
    if mean is None:
        if auto:
            cls = validate(model)
            if cls.regime != "subcritical":
                raise NotSubcriticalError(
                    "burn-in initialization needs a subcritical model, got rho = %.6g"
                    % cls.rho
                )
        elif _regime(spectral_radius(M)) != "subcritical":
            return k, []
        mean = np.linalg.solve(np.eye(model.p) - M, model.immigration.mean())
    if auto:
        return _certified_burnin(M, mean, copies), []
    bound = copies * _burnin_bound(M, mean, k)
    if bound <= _BURNIN_WARN:
        return k, []
    return k, [
        "burn-in of %d steps leaves a run of copies = %d up to %.3g in total"
        " variation from a stationary start; --burnin auto certifies %g"
        % (k, copies, bound, _BURNIN_TOL)
    ]


def _burnin_bound(M, mean, k):
    """1^T M^k mean, the coupling bound of a burn-in of k steps for one copy
    (see burnin_auto); M^k takes O(log k) products."""
    return float((np.linalg.matrix_power(M, k) @ mean).sum())


def _check_state(total):
    # a count wrapped below zero reads as a huge unsigned value
    if total.view(np.uint64).max() > _STATE_LIMIT:
        raise SimulationOverflowError("component count exceeded 2^31, supercritical runaway?")
    return total


class _Guarded:
    """An offspring law whose count products may pass int64 (see _offspring).

    A draw raises SimulationOverflowError when count * c would reach 2^63, or
    when its own sum already passes the count ceiling.
    """

    def __init__(self, law, c):
        self.law, self.c = law, c

    def _check(self, count):
        if count * self.c >= _INT64_WRAP:
            raise SimulationOverflowError(
                "count %d times law constant %d passes the int64 range" % (count, self.c)
            )

    def sample_sum(self, count, rng):
        self._check(int(np.max(count)))
        return _check_state(self.law.sample_sum(count, rng))


def _offspring(model):
    """The offspring laws a stepper draws from.

    sample_sum multiplies counts, at most _STATE_LIMIT, by a law constant: a
    point mass c, a binomial n or a table's largest entry. When these sum
    below 2^32 no product or row sum of a step can wrap int64, and the laws
    are used as they are; otherwise every law is _Guarded.
    """
    cs = [
        int(law.support.max()) if isinstance(law, FiniteSupport) else max(
            m.c if isinstance(m, Point) else m.n if isinstance(m, Binomial) else 0
            for m in law.marginals
        )
        for law in model.offspring
    ]
    if _STATE_LIMIT * sum(cs) < _INT64_WRAP:
        return model.offspring
    return tuple(_Guarded(law, c) for law, c in zip(model.offspring, cs))


def _run_block(model, n, rng, burnin, x):
    """Chunks (a, states) of a block stepped in lockstep from the (B, p)
    state x, burnin steps first: states (m, B, p) are the states at path
    indices a .. a + m - 1, in order, for every index drawn after x.

    Steps go in chunks of k = _CHUNK_CELLS // (B p) (at least 1): a chunk
    draws the immigration of its k steps for every copy in one law.sample
    call, then, step by step, adds every type's offspring sums, in type
    order, to its row of immigration. Only one chunk of states is held.
    """
    copies, p = x.shape
    offspring = _offspring(model)
    k = max(1, _CHUNK_CELLS // (copies * p))
    done, total = 0, burnin + n
    while done < total:
        m = min(k, total - done)
        eps = model.immigration.sample(rng, m * copies).reshape(m, copies, p)
        for row in eps:
            # counts[i]: the type-i count of every copy; one copy's counts go
            # as ints, which draw alike but skip numpy's array checks
            counts = x.T if copies > 1 else x[0].tolist()
            for i, law in enumerate(offspring):
                row += law.sample_sum(counts[i], rng)
            x = _check_state(row)
        # eps[r] is the state after step done + r + 1, path index a + r
        a = done + 1 - burnin
        r0 = max(0, -a)
        if r0 < m:
            yield a + r0, eps[r0:]
        done += m


def _cohort_chunks(model, n, rng, burnin):
    """Chunks (a, states) of one copy from zero, drawn as immigrant cohorts,
    with states (m, 1, p) and a as in _run_block.

    The state after step t is the sum, over the steps j <= t, of the
    cohort born from step j's immigration, t - j generations on; cohorts
    are independent Galton-Watson processes. Birth steps go in chunks of
    k = _CHUNK_CELLS // p (at least 1): a chunk draws its k immigration
    vectors in one law.sample call, then steps all its living cohorts in
    lockstep, one generation per round, each type's offspring sums in type
    order over the cohorts in birth order, and adds each generation into
    the states it reaches. A cohort is dropped once it is extinct or has
    reached the path's last step, and a chunk runs until none is left.
    Cohorts of a subcritical model die out, so every chunk ends. A chunk's
    states are a view that the next chunk overwrites.
    """
    p = model.p
    offspring = _offspring(model)
    k = max(1, _CHUNK_CELLS // p)
    total = burnin + n
    # acc[:, r] sums the state after step s + r; columns past the chunk carry
    # the progeny of its cohorts into the steps of later chunks
    acc = np.zeros((p, min(2 * k, total + 1)), dtype=np.int64)
    for s in range(1, total + 1, k):
        m = min(k, total + 1 - s)
        # z[i, c]: the type-i count of cohort c, whose step is s + r[c]
        z = np.ascontiguousarray(_check_state(model.immigration.sample(rng, m)).T)
        r = np.arange(m)  # unique and increasing
        last = total - s
        while True:
            lo, hi = r[0], r[-1] + 1
            if hi > acc.shape[1]:
                acc = np.concatenate((acc, np.zeros_like(acc)), axis=1)
            if hi - lo == len(r):
                acc[:, lo:hi] += z
            else:
                for i in range(p):
                    acc[i, r] += z[i]
            if hi - 1 == last:
                z, r = z[:, :-1], r[:-1]
            live = z.any(axis=0)
            if not live.all():
                z, r = z.compress(live, axis=1), r.compress(live)
            if len(r) == 0:
                break
            r = r + 1
            z = sum(law.sample_sum(z[i], rng) for i, law in enumerate(offspring))
            z = np.ascontiguousarray(_check_state(z).T)
        # acc[:, j] is the state after step s + j, path index a + j
        rows = _check_state(acc[:, :m]).T
        a = s - burnin
        j0 = max(0, -a)
        if j0 < m:
            yield a + j0, rows[j0:, None]
        acc[:, :-m] = acc[:, m:]
        acc[:, -m:] = 0


def _cohort_route(model):
    """Whether one-copy blocks of the model are drawn as immigrant cohorts.

    Only the cohorts of a subcritical model (spectral radius below one, as
    validate splits it) die out, and only short-lived ones are cheaper than
    lockstep steps. A cohort is alive g generations on with probability at
    most min(1, 1^T M^g m_eps), so the sum of these bounds its mean
    lifetime, which must stay within _COHORT_GENERATIONS. Past the first
    term below one the sum is bounded by 1^T (I - M)^-1 M^g m_eps.
    """
    M = mean_matrix(model)
    if _regime(spectral_radius(M)) != "subcritical":
        return False
    life, v = 0, model.immigration.mean()
    while v.sum() >= 1.0:
        life += 1
        if life > _COHORT_GENERATIONS:
            return False
        v = M @ v
    tail = np.linalg.solve(np.eye(model.p) - M, v).sum()
    return life + tail <= _COHORT_GENERATIONS


def _simulate_block(model, copies, n, rng, burnin, cohorts=False, idx=None):
    """(copies, n+1, p) paths of one block from zero, or, given path indices
    idx, only its running sums S_m = X_1 + ... + X_m at each m of idx, as
    (copies, len(idx), p); burnin is a step count.

    A block of one copy is drawn as immigrant cohorts when cohorts is set
    (by the caller, once per call, from _cohort_route); every other block is
    stepped in lockstep. Sums hold (copies, p) counts per grid point besides
    one chunk, and are exact int64 below 2^32 steps of at most 2^31 each.
    """
    p = model.p
    if copies == 1 and cohorts:
        chunks = _cohort_chunks(model, n, rng, burnin)
    else:
        chunks = _run_block(model, n, rng, burnin, np.zeros((copies, p), dtype=np.int64))
    if idx is None:
        paths = np.zeros((copies, n + 1, p), dtype=np.int64)
        for a, states in chunks:
            paths[:, a : a + len(states)] = states.swapaxes(0, 1)
        return paths
    sums = np.zeros((copies, len(idx), p), dtype=np.int64)
    total = np.zeros((copies, p), dtype=np.int64)  # S_(a-1)
    for a, states in chunks:
        if a == 0:  # X_0 is in no sum
            a, states = 1, states[1:]
        for g, m in enumerate(idx):
            if a <= m < a + len(states):
                sums[:, g] = total + states[: m - a + 1].sum(axis=0)
        total += states.sum(axis=0)
    return sums


def step(model, state, rng):
    """One exact transition from state: one immigration draw, then the
    offspring sums of each type in index order. A state that is not a vector
    of p nonnegative integers is refused; a fractional entry is not
    truncated."""
    state = np.asarray(state)
    if state.shape != (model.p,):
        raise ValueError("state must be a nonnegative int vector of length p")
    state = np.array([_count("state", v) for v in state.tolist()], dtype=np.int64)
    return next(_run_block(model, 1, rng, 0, state[None]))[1][0, 0]


def simulate_path(model, n, rng, burnin=None):
    """Path of n steps as an (n+1, p) int64 array, path[0] the initial state.

    burnin None starts from zero; an integer k (or 'auto') first runs k
    discarded steps from zero so path[0] is approximately stationary. The
    path is the block of one copy (see the module docstring for the order
    in which it consumes rng).
    """
    n = _count("n", n)
    k, _ = _resolve_burnin(model, burnin)
    return _simulate_block(model, 1, n, rng, k, _cohort_route(model))[0]


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


def block_copies(p):
    """Copies per ensemble block for models of p types."""
    return max(1, _BLOCK_WIDTH // p)


def _block_worker(args):
    model, copies, n, master_seed, b, burnin, cohorts, idx = args
    return _simulate_block(model, copies, n, stream_rng(master_seed, b), burnin, cohorts, idx)


def _run_blocks(model, N, n, master_seed, burnin, threads, idx=None):
    """_simulate_block's paths or sums of N copies, block by block in copy
    order: block b runs on the stream (master_seed, b), and threads only
    spreads blocks over processes."""
    if int(N) != N or N < 1:
        raise ValueError("need N >= 1 copies, got %r" % (N,))
    size = block_copies(model.p)
    sizes = [min(size, int(N) - a) for a in range(0, int(N), size)]
    cohorts = 1 in sizes and _cohort_route(model)
    tasks = [
        (model, copies, n, master_seed, b, burnin, cohorts, idx)
        for b, copies in enumerate(sizes)
    ]
    if min(threads, len(tasks)) <= 1:
        parts = [_block_worker(t) for t in tasks]
    else:
        # loaded only here: the module costs a tenth of import bpagg
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            parts = list(pool.map(_block_worker, tasks))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def simulate_ensemble(model, N, n, master_seed, burnin="auto", threads=1):
    """Ensemble of N copies, n steps each, with their paths. Results do not
    depend on threads (see the module docstring)."""
    n = _count("n", n)
    k, _ = _resolve_burnin(model, burnin, N)
    paths = _run_blocks(model, N, n, int(master_seed), k, threads)
    return PathEnsemble(model, int(master_seed), k, paths)


@dataclass
class AggregateSeries:
    """Centered sums over a grid: per_copy (N, len(grid), p) holds each copy's,
    scaled by n^(-1/2), and values (len(grid), p) the ensemble's, over sqrt(N)."""

    grid: tuple
    per_copy: np.ndarray
    n: int

    def __post_init__(self):
        self.N = len(self.per_copy)
        self.values = self.per_copy.sum(axis=0) / math.sqrt(self.N)


def _grid_indices(grid, n):
    """Path indices floor(t n) of the grid points t.

    The one grid check: a grid must be nonempty, finite, nonnegative and
    strictly increasing, and floor(t n) must not pass the n steps of a path.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("need a nonempty grid")
    if not all(0.0 <= t < math.inf for t in grid):
        raise ValueError("grid points must be finite and >= 0, got %r" % (grid,))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing, got %r" % (grid,))
    # floor(t n) <= n exactly when t n < n + 1; comparing before the floor
    # also refuses a product that overflows to inf
    if grid[-1] * n >= n + 1:
        raise ValueError("grid point %r needs more than the %d steps of the paths"
                         % (grid[-1], n))
    return [math.floor(t * n) for t in grid]


def aggregate(model, N, n, master_seed, grid, burnin="auto", threads=1):
    """Aggregates n^(-1/2) (S_m - m mean) of N copies at m = floor(n t), where
    mean is the exact stationary mean (moments._stationary_mean refuses a model
    without one before any block runs). The copies are simulate_ensemble's with
    the same arguments, kept only as their running sums S_m; they are i.i.d.,
    so the covariance of per_copy estimates that of the ensemble's values."""
    n = _count("n", n)
    if n < 1:
        raise ValueError("need n >= 1 steps to scale an aggregate, got 0")
    idx = _grid_indices(grid, n)
    M = mean_matrix(model)
    mean = _stationary_mean(model, M, spectral_radius(M))
    k, _ = _resolve_burnin(model, burnin, N, mean)
    sums = _run_blocks(model, N, n, int(master_seed), k, threads, idx)
    per_copy = (sums - np.outer(idx, mean)) / math.sqrt(n)
    return AggregateSeries(tuple(float(t) for t in grid), per_copy, n)


def extract_innovations(model, path):
    """Innovations U_k = X_k - M X_{k-1} - m_eps for k = 1..n as (n, p) floats.

    These are the one-step prediction errors; conditionally on the past they
    are centered with covariance affine in the previous state.
    """
    path = np.asarray(path)
    if path.ndim != 2 or path.shape[1] != model.p or path.shape[0] < 2:
        raise ValueError("need a path of shape (n+1, p) with n >= 1")
    M = mean_matrix(model)
    m_eps = model.immigration.mean()
    x = path.astype(float)
    return x[1:] - x[:-1] @ M.T - m_eps


def paths_to_csv(ensemble, path):
    """Write paths as rows copy,k,x_1..x_p (k = 0 is the initial state).

    Each copy is formatted in slices of at most _CSV_ROWS rows, each with one
    % operation on a repeated row template and one write.
    """
    N, rows, p = ensemble.paths.shape
    ks = np.arange(rows)
    with open(path, "w", newline="") as fh:
        fh.write("copy,k," + ",".join("x_%d" % (i + 1) for i in range(p)) + "\n")
        for j in range(N):
            row = "%d," % j + ",".join(["%d"] * (p + 1)) + "\n"
            for a in range(0, rows, _CSV_ROWS):
                b = min(rows, a + _CSV_ROWS)
                cells = np.column_stack((ks[a:b], ensemble.paths[j, a:b]))
                fh.write((row * (b - a)) % tuple(cells.ravel().tolist()))


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


def write_metadata(ensemble, path):
    with open(path, "w") as fh:
        fh.write(json_text(ensemble_metadata(ensemble)))
