"""Exact path simulation, ensembles and centered space-time aggregates.

States are int64 counts, and a block of copies is a pure function of its
generator stream. A block of B copies takes one of two routes, decided once
per call and block size (see _cohort_route); either hands out its states a
chunk at a time, and a block keeps either its paths or only its running
sums S_m = X_1 + ... + X_m at the grid indices m = floor(t n) (see
_simulate_block).

In lockstep, steps go in chunks of k = _CHUNK_CELLS // (B p) (at least
one): a chunk first draws the immigration of all its steps and copies in
one call, then, step by step, each type's offspring in index order, the
exact sum of c_i independent brood vectors as one convolution variate (see
bpagg.model) over all B copies.

As immigrant cohorts (see _cohort_chunks), the path of a copy from zero is
the sum of the independent Galton-Watson processes started by each step's
immigration. A column sums the cohorts of a window of W consecutive birth
steps of one copy: it adds the copy's immigration for W rounds and then
steps on as a Galton-Watson process, and all living columns of every copy
of a chunk of birth steps are stepped one generation at a time. Cohorts of
a critical or supercritical model need not die out, and long-lived ones
cost more than steps, so a block takes cohorts only when L, a bound on a
cohort's mean lifetime in generations (see _cohort_lifetime), is small for
its size: L <= 128 for one copy, while a block of B >= 2 copies weighs the
rounds of a chunk, about the lifetime of its longest-lived cohort, against
the steps it replaces, so wide blocks, long-lived models and short paths
stay in lockstep. A block of any size that takes cohorts draws windows that
grow like sqrt(B T L) on T births of each of its B copies, as rounds (about
W plus the tail) and array entries (about columns times rounds) tie (see
_cohort_route). The constants are measured cost ties.

Ensembles split their N copies, in order, into blocks of block_copies(p)
copies and run block b on the keyed stream (master_seed, b). An
ensemble therefore depends on (master_seed, N, n, p) and never on
scheduling or worker count, and any block can be rerun alone on its stream.

A burn-in argument is read in one place (_burnin_steps): 'auto' is
certified (see burnin_auto), the smallest K whose coupling bound puts every
copy a call simulates, together, within total variation 1e-6 of a
stationary start; None is 0, and an integer is used as given. Burn-in
states are dropped in one place too (_simulate_block). M, rho and the
stationary mean are the model's, derived once. The burn-in, the lifetime
bound and a chunk's rounds are each the first power g with 1^T M^g v below
a bound, found by one doubling search over the powers M^(2^j)
(_first_power).

Aggregates store no path, and there is one route to them: the sum of N
independent copies is one chain of the N-fold model (_superposed), whose
immigration is the sum of N draws, so aggregate draws reps aggregates of
N copies as an ensemble of reps chains of it and centers each chain's
running sums at its exact stationary mean. verify clt takes its
replications, verify iterated its copies (N = 1) and the aggregate verb
its one chain from that call. _grid_indices is the one check of a time
grid, and callers run it before they simulate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kronalg import spectral_radius
from .model import (
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
    SimulationOverflowError,
    _count,
    _stationary_mean,
    json_text,
    mean_matrix,
    model_digest,
    validate,
)

__all__ = [
    "PathEnsemble",
    "SimulationOverflowError",
    "simulate_path",
    "simulate_ensemble",
    "block_copies",
    "aggregate",
    "extract_innovations",
    "burnin_auto",
    "stream_rng",
    "derived_seed",
    "paths_to_csv",
    "aggregates_to_csv",
    "ensemble_metadata",
]

# per-component count ceiling; beyond this a step raises instead of risking
# int64 wraparound or unbounded draw sizes (supercritical runaway)
_STATE_LIMIT = 1 << 31
_CEILING = "component count exceeded 2^31"
_RUNAWAY = _CEILING + ", supercritical runaway?"
# counts times law constants must stay below this to fit int64
_INT64_WRAP = 1 << 63

# copies x types of one ensemble block, stepped in lockstep: wide enough that
# numpy's per-call cost is shared by thousands of copies at any path length
_BLOCK_WIDTH = 4096

# int64 counts in one chunk of a block, steps x copies x p: a chunk's
# immigration is one draw, and its states stay around half a megabyte
_CHUNK_CELLS = 1 << 16

# which blocks are drawn as immigrant cohorts, and in windows of how many
# births (see _cohort_route), from cost ties measured on a 2-core x86_64
# host. One copy: while a cohort lives at most _COHORT_GENERATIONS
# generations in mean; each living cohort costs an array entry per
# generation, and on one-type Poisson and Bernoulli models a lockstep step
# of the (1, p) block got cheaper from about 150 generations on (windows
# beat lockstep at L = 200-260 on 2 10^4 steps but not on 2000).
# B >= 2 copies: while _COHORT_ROUND rounds per birth of a chunk, plus
# B L g / _COHORT_WORK, stay within one (see _cohort_route); fitted to 879
# block timings of 17 models with p = 1-16, 2-1500 copies and 30-1000 steps.
# Either block's window ties a round with _WINDOW_ROUND p^2 array entries,
# the least-cost window of one-copy paths of 10 models with p = 1-8, L =
# 1.7-76 and 2000-40000 steps, and windows below _WINDOW_MIN births did not
# win on L = 2 models. On 32 blocks of 2-200 copies of 1-50-fold models
# where it picked W >= 6, the tie's window took 0.29-1.03 of the time at
# W = 1. The timing tables are in CHANGES.md
_COHORT_GENERATIONS = 128
_WINDOW_ROUND = 430
_WINDOW_MIN = 6
_COHORT_ROUND = 1.5
_COHORT_WORK = 3584
# a cohort chunk of B >= 2 copies has _CHUNK_CELLS // (_COHORT_SPLIT B p)
# births: a generation round holds its cohorts, their next generation and
# the law draws at once, so a third of a lockstep chunk's cells keeps the
# peak memory of a cohort block below a lockstep block's (1.09 against
# 1.43 MB on 400 GRID3 copies; half a chunk took 1.50 MB)
_COHORT_SPLIT = 3

# rows of one copy formatted per write by paths_to_csv
_CSV_ROWS = 1 << 14

# an automatic burn-in puts a whole run within this total variation of a
# stationary start (see burnin_auto)
_BURNIN_TOL = 1e-6
# an explicit burn-in whose bound passes this is warned about
_BURNIN_WARN = 1e-2
# automatic burn-in beyond this many steps is refused, not run
_BURNIN_CEILING = 10 ** 6


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


def _first_power(M, v, bound, cap, monotone=False):
    """(k, M^k v) for the smallest k <= cap with 1^T M^k v[:, 0] <= bound,
    or (inf, None) when there is none; v is (p, c), and its other columns
    are carried along.

    Powers go one at a time until M^(k+1) v[:, 0] <= M^k v[:, 0] entrywise,
    which a caller whose sums never increase states by monotone. From there
    on, M being nonnegative, the sums never increase, so k is found by
    doubling on the powers M^(2^j) and then descending through them, one
    product per bit: O(log k) matrix products and no loop over steps.
    """
    k = 0
    while not monotone and v[:, 0].sum() > bound:
        if k + 1 > cap:
            return math.inf, None
        w = M @ v
        monotone = bool((w[:, 0] <= v[:, 0]).all())
        if not monotone:
            k, v = k + 1, w
    if v[:, 0].sum() <= bound:
        return (k, v) if k <= cap else (math.inf, None)
    powers = [M]  # powers[j] = M^(2^j)
    while (powers[-1] @ v)[:, 0].sum() > bound and k + (1 << (len(powers) - 1)) <= cap:
        powers.append(powers[-1] @ powers[-1])
    # k is the largest power found so far whose sum is above bound
    for j in range(len(powers) - 1, -1, -1):
        w = powers[j] @ v
        if w[:, 0].sum() > bound:
            k, v = k + (1 << j), w
    return (k + 1, M @ v) if k + 1 <= cap else (math.inf, None)


# the largest float below one: a sum is at most this exactly when it is
# below one
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _certified_burnin(M, mean, copies):
    """The smallest K with copies * 1^T M^K mean <= _BURNIN_TOL.

    The bound never increases in K (mean - M mean is the immigration mean),
    so K takes O(log K) matrix products (see _first_power). M must be
    subcritical. A K above _BURNIN_CEILING raises ValueError naming rho.
    """
    copies = max(1, int(copies))
    k, _ = _first_power(M, mean[:, None], _BURNIN_TOL / copies, _BURNIN_CEILING, True)
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
    M certifies at its index and zero immigration at 0. The model is
    classified (validate) and must be subcritical: one that is not is
    refused with moment_report's message (see _stationary_mean). A length
    above 10^6 steps raises ValueError instead of running.
    """
    if validate(model).regime != "subcritical":
        _stationary_mean(model)  # raises
    return _certified_burnin(mean_matrix(model), model._mean, copies)


def _burnin_steps(model, burnin, copies):
    """The burn-in of a simulation call: None is 0, 'auto' burnin_auto's and
    an integer k >= 0 is k as given, whose warning is the verb's."""
    if burnin == "auto":
        return burnin_auto(model, copies)
    return 0 if burnin is None else _count("burnin", burnin)


def _resolve_burnin(model, burnin, copies=1):
    """(k, warnings), the one decision of a verb's burn-in over copies copies.

    k is _burnin_steps's: 'auto' is burnin_auto's certified length, and
    None or an integer k >= 0 is 0 or k. An integer is warned about when
    its certificate copies * 1^T M^k mean is above _BURNIN_WARN; a model
    that is not subcritical has no stationary law to compare with and gets
    no warning. The simulation uses k as given: the certificate is computed
    once.
    """
    k = _burnin_steps(model, burnin, copies)
    if burnin == "auto" or model._mean is None:
        return k, []
    bound = copies * _burnin_bound(mean_matrix(model), model._mean, k)
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
        raise SimulationOverflowError(_RUNAWAY)
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


def _law_constant(law):
    """The constant by which sample_sum multiplies counts in int64: a point
    mass c, a binomial n or a table's largest entry (0 when there is none)."""
    if isinstance(law, FiniteSupport):
        return int(law.support.max())
    return max(m.c if isinstance(m, Point) else m.n if isinstance(m, Binomial) else 0
               for m in law.marginals)


def _offspring(model):
    """The offspring laws a stepper draws from.

    sample_sum multiplies counts, at most _STATE_LIMIT, by a law constant
    (_law_constant). When these sum below 2^32 no product or row sum of a
    step can wrap int64, and the laws are used as they are; otherwise every
    law is _Guarded.
    """
    cs = [_law_constant(law) for law in model.offspring]
    if _STATE_LIMIT * sum(cs) < _INT64_WRAP:
        return model.offspring
    return tuple(_Guarded(law, c) for law, c in zip(model.offspring, cs))


class _SumOfCopies:
    """The immigration law of N superposed copies: a draw is the sum of N
    independent draws of law, one convolution variate (law.sample_sum)."""

    def __init__(self, law, N):
        self.law, self.N, self.dim = law, N, law.dim

    def mean(self):
        return self.N * self.law.mean()

    def sample(self, rng, size):
        return self.law.sample_sum(np.full(size, self.N), rng)


def _superposed(model, N):
    """The model of the sum of N independent copies of model, which is the
    model itself at N = 1.

    Offspring act on each individual alone, so the sum of N independent
    copies from zero is one branching process with the same offspring laws
    whose immigration is the sum of the copies' immigration (the cohort
    decomposition of Heathcote 1965). It shares the model's M and rho, and
    its stationary mean is N times the model's, so nothing is solved again;
    the model must have one. Its classification is not copied, so building
    it classifies nothing. A sum of N immigration draws that numpy cannot
    draw raises SimulationOverflowError before any draw, naming the check
    that fired: N times the law's constant (at least 1) could wrap int64,
    or numpy refuses its Poisson rate (above about 9.2e18), N lambda for a
    Poisson marginal or N b for a geometric one, the mean of the
    gamma-mixed rate with which its sum is drawn.
    """
    if N == 1:
        return model
    law = model.immigration
    c = max(_law_constant(law), 1)
    if N * c >= _INT64_WRAP:
        raise SimulationOverflowError("N times law constant %d passes the int64 range" % c)
    rate = max([N * m.cumulants()[0] for m in getattr(law, "marginals", ())
                if isinstance(m, (Poisson, Geometric))], default=0.0)
    try:
        np.random.default_rng(0).poisson(rate, 0)  # numpy's rate check; draws nothing
    except ValueError:
        raise SimulationOverflowError(
            "Poisson rate %.6g of N immigration draws passes numpy's largest" % rate) from None
    superposed = BranchingModel(model.p, model.offspring, _SumOfCopies(law, N))
    mean = N * model._mean
    mean.flags.writeable = False
    # what the cached properties would derive again
    superposed.__dict__.update(_M=model._M, _rho=model._rho, _mean=mean)
    return superposed


def _run_block(model, copies, n, rng, burnin):
    """Chunks (a, states) of a block of copies stepped in lockstep from
    zero at path index -burnin: states (m, copies, p) are the states at
    path indices a .. a + m - 1, in order, burn-in included, for every
    index after the start.

    Steps go in chunks of k = _CHUNK_CELLS // (B p) (at least 1): a chunk
    draws the immigration of its k steps for every copy in one law.sample
    call, then, step by step, adds every type's offspring sums, in type
    order, to its row of immigration. Only one chunk of states is held. One
    copy is stepped on ints (see _step_copy).
    """
    p = model.p
    x = np.zeros((copies, p), dtype=np.int64)
    offspring = _offspring(model)
    if copies == 1:
        x = x[0].tolist()
        # a product law's marginals, drawn in order as its sample_sum draws them
        offspring = [
            law.marginals if isinstance(law, IndependentMarginals) else law
            for law in offspring
        ]
    k = max(1, _CHUNK_CELLS // (copies * p))
    done, total = 0, burnin + n
    while done < total:
        m = min(k, total - done)
        eps = model.immigration.sample(rng, m * copies).reshape(m, copies, p)
        if copies == 1:
            x = _step_copy(offspring, x, eps, rng)
        else:
            for row in eps:
                counts = x.T  # counts[i]: the type-i count of every copy
                for i, law in enumerate(offspring):
                    row += law.sample_sum(counts[i], rng)
                x = _check_state(row)
        # eps[r] is the state after step done + r + 1
        yield done + 1 - burnin, eps
        done += m


def _step_copy(offspring, x, eps, rng):
    """Steps one copy from its counts x, p ints, through the immigration rows
    eps (m, 1, p), which it overwrites with the states; returns the last.

    Each entry of offspring is a product law's list of marginals, each of
    whose sums is an int, or a law whose sums are a vector. Counts and sums
    stay ints, which draw alike but skip numpy's array checks, so a step
    makes no array, and its overflow check is a max over p ints: sums of
    ints do not wrap, so a count past 2^31 is all there is to catch.
    """
    rows = eps[:, 0].tolist()
    for row in rows:
        for c, law in zip(x, offspring):
            if isinstance(law, list):
                for j, marginal in enumerate(law):
                    row[j] += marginal.sample_sum(c, rng)
            else:
                for j, v in enumerate(law.sample_sum(c, rng).tolist()):
                    row[j] += v
        if max(row) > _STATE_LIMIT:
            raise SimulationOverflowError(_RUNAWAY)
        x = row
    eps[:, 0] = rows
    return x


def _cohort_births(p, copies, window=1):
    """Birth steps per chunk of a cohort block (see _cohort_chunks): whole
    windows, at least one."""
    k = _CHUNK_CELLS // (p if copies == 1 else _COHORT_SPLIT * copies * p)
    return max(window, k - k % window)


def _cohort_chunks(model, copies, n, rng, burnin, window):
    """Chunks (a, states) of a block of copies copies from zero, drawn as
    windows of immigrant cohorts, with states (m, copies, p) and a as in
    _run_block.

    The state of a copy after step t is the sum, over the steps j <= t, of
    the cohort born from that copy's immigration at step j, t - j
    generations on; cohorts are independent Galton-Watson processes, and so
    are the sums of the cohorts of W = window consecutive birth steps, whose
    offspring sums add over disjoint sets of individuals. Birth steps go in
    chunks of k = _CHUNK_CELLS // p for one copy and _CHUNK_CELLS //
    (_COHORT_SPLIT copies p) for more, rounded down to whole windows (at
    least one): a chunk draws the immigration of its k steps for every copy
    in one law.sample call, as a lockstep chunk does, and the window of copy
    c that starts at the chunk's step r (a multiple of W) is column r copies
    + c. Then it steps all its living columns in lockstep, one generation per
    round, each type's offspring sums in type order over the columns in
    column order, and adds each generation into the states it reaches: a
    generation on is copies columns on. In its first W - 1 rounds a column
    also adds its copy's immigration of the step it reaches, while that step
    is in the chunk. A column is dropped once it has reached the path's last
    step, or is extinct with no immigration left to add, and a chunk runs
    until none is left. Cohorts of a subcritical model die out, so every
    chunk ends. At W = 1 a column is one cohort. A chunk's states are a view
    that the next chunk overwrites.
    """
    p = model.p
    offspring = _offspring(model)
    k = _cohort_births(p, copies, window)
    total = burnin + n
    # acc[:, r copies + c] sums the state of copy c after step s + r; columns
    # past the chunk carry the progeny of its cohorts into later chunks
    acc = np.zeros((p, min(k + 1, total + 1) * copies), dtype=np.int64)
    for s in range(1, total + 1, k):
        m = min(k, total + 1 - s)
        width = m * copies
        # eps[r copies + c]: copy c's immigration at the chunk's step r;
        # col[j]: where column j adds its state, unique and increasing;
        # z[i, j]: the type-i count of column j
        eps = _check_state(model.immigration.sample(rng, width))
        col = (np.arange(0, width, window * copies)[:, None] + np.arange(copies)).ravel()
        # at W = 1 col is every column, and gathering eps[col] would cost a copy
        z = np.ascontiguousarray((eps if window == 1 else eps[col]).T)
        last = (total - s) * copies  # the first column of the path's last step
        fed = window - 1  # rounds left that add immigration
        # only those rounds read eps: at W = 1 it is freed before the rounds,
        # whose peak it would otherwise raise by its size
        eps = eps if fed else None
        while True:
            lo, hi = col[0], col[-1] + 1
            if hi > acc.shape[1]:
                grow = max(hi - acc.shape[1], acc.shape[1] // 4)
                acc = np.concatenate((acc, np.zeros((p, grow), dtype=np.int64)), axis=1)
            if hi - lo == len(col):
                acc[:, lo:hi] += z
            else:
                for i in range(p):
                    acc[i, col] += z[i]
            if hi > last:
                j = np.searchsorted(col, last)
                z, col = z[:, :j], col[:j]
            live = z.any(axis=0)
            if fed:  # an extinct column lives on while it has immigration to add
                live |= col < width - copies
            if not live.all():
                z, col = z.compress(live, axis=1), col.compress(live)
            if len(col) == 0:
                break
            col = col + copies
            born = offspring[0].sample_sum(z[0], rng)
            for i in range(1, p):
                born += offspring[i].sample_sum(z[i], rng)
            if fed:
                j = np.searchsorted(col, width)
                born[:j] += eps[col[:j]]
                fed -= 1
            z = np.ascontiguousarray(_check_state(born).T)
        # acc[:, r copies + c] is copy c's state after step s + r
        yield s - burnin, _check_state(acc[:, :width]).T.reshape(m, copies, p)
        acc[:, :-width] = acc[:, width:]
        acc[:, -width:] = 0


def _cohort_lifetime(model):
    """L, a bound on the mean lifetime in generations of one immigrant
    cohort, or inf when cohorts need not die out or L passes
    _COHORT_GENERATIONS.

    Only the cohorts of a subcritical model (spectral radius below one, as
    validate splits it) die out. A cohort is alive g generations on with
    probability at most min(1, 1^T M^g m_eps), so the sum of these bounds
    its mean lifetime. Past the first term below one the sum is bounded by
    1^T (I - M)^-1 M^g m_eps, which is 1^T M^g mean at the model's
    stationary mean; _first_power finds that term.
    """
    mean = model._mean
    if mean is None:
        return math.inf
    g, v = _first_power(mean_matrix(model), np.column_stack((model.immigration.mean(), mean)),
                        _BELOW_ONE, _COHORT_GENERATIONS)
    if v is None:
        return math.inf
    life = g + float(v[:, 1].sum())
    return life if life <= _COHORT_GENERATIONS else math.inf


def _cohort_route(model, copies, life, steps):
    """The window W of a block of copies copies and steps steps (burn-in
    included), given the model's lifetime bound life (see _cohort_lifetime):
    0 steps the block in lockstep, and W >= 1 draws it as windows of W
    immigrant cohorts (see _cohort_chunks).

    One copy takes cohorts whenever life is finite, that is within
    _COHORT_GENERATIONS. More copies take them while _COHORT_ROUND rounds /
    births + copies life g / _COHORT_WORK is at most one, where births is a
    cohort chunk's birth steps (at most steps), rounds the generations until
    the expected number of the chunk's living cohorts, at most births copies
    1^T M^t m_eps, falls below one, and g is life or, if larger, 1 / (1 -
    rho). A chunk runs a round per generation of its longest-lived cohort,
    each about _COHORT_ROUND lockstep steps, where lockstep runs a step per
    birth; and its cohorts cost more per entry the longer they live, where a
    cohort of one individual lives about 1 / (1 - rho) generations however
    rare immigrants are.

    A block that takes cohorts, of any size, takes one window rule. A chunk
    of births birth steps runs about W rounds plus the tail of its last
    columns, and holds about copies births (W - 1 + life) / W array entries;
    a round costs about as much as _WINDOW_ROUND p^2 entries, so the total
    is least at W = sqrt(copies births (life - 1) / (_WINDOW_ROUND p^2)).
    Rounded, a W below _WINDOW_MIN is 1.
    """
    if life == math.inf:
        return 0
    births = min(_cohort_births(model.p, copies), steps)
    if copies > 1:
        work = copies * life * max(life, 1.0 / (1.0 - model._rho)) / _COHORT_WORK
        budget = (1.0 - work) * births / _COHORT_ROUND
        v = births * copies * model.immigration.mean()
        rounds, _ = _first_power(mean_matrix(model), v[:, None], _BELOW_ONE, budget)
        if rounds > budget:
            return 0
    window = round(math.sqrt(copies * births * max(life - 1.0, 0.0)
                             / (_WINDOW_ROUND * model.p ** 2)))
    return window if window >= _WINDOW_MIN else 1


def _simulate_block(model, copies, n, rng, burnin, window=0, idx=None):
    """(copies, n+1, p) paths of one block from zero, or, given path indices
    idx, only its running sums S_m = X_1 + ... + X_m at each m of idx, as
    (copies, len(idx), p); burnin is a step count, whose states the
    steppers hand out and this function alone drops.

    The block is stepped in lockstep at window 0 and drawn in windows of
    window immigrant cohorts otherwise; the caller sets it once per block
    size and call, from _cohort_route. Sums hold (copies, p) counts per
    grid point besides one chunk, and are exact int64 below 2^32 steps of
    at most 2^31 each.
    """
    p = model.p
    if window:
        chunks = _cohort_chunks(model, copies, n, rng, burnin, window)
    else:
        chunks = _run_block(model, copies, n, rng, burnin)
    # the one trim of burn-in states, and of X_0 from sums, which start at X_1
    first = 0 if idx is None else 1
    chunks = ((max(a, first), states[max(0, first - a):]) for a, states in chunks)
    if idx is None:
        paths = np.zeros((copies, n + 1, p), dtype=np.int64)
        for a, states in chunks:
            paths[:, a : a + len(states)] = states.swapaxes(0, 1)
        return paths
    sums = np.zeros((copies, len(idx), p), dtype=np.int64)
    total = np.zeros((copies, p), dtype=np.int64)  # S_(a-1)
    for a, states in chunks:
        for g, m in enumerate(idx):
            if a <= m < a + len(states):
                sums[:, g] = total + states[: m - a + 1].sum(axis=0)
        total += states.sum(axis=0)
    return sums


def simulate_path(model, n, rng, burnin=None):
    """Path of n steps as an (n+1, p) int64 array, path[0] the initial state.

    burnin None starts from zero; an integer k (or 'auto') first runs k
    discarded steps from zero so path[0] is approximately stationary. The
    path is the block of one copy (see the module docstring for the order
    in which it consumes rng).
    """
    n = _count("n", n)
    k = _burnin_steps(model, burnin, 1)
    window = _cohort_route(model, 1, _cohort_lifetime(model), k + n)
    return _simulate_block(model, 1, n, rng, k, window)[0]


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
    model, copies, n, master_seed, b, burnin, window, idx = args
    return _simulate_block(model, copies, n, stream_rng(master_seed, b), burnin, window, idx)


def _copies(value, name="N"):
    """value as an int, a count of copies that must be at least one."""
    if int(value) != value or value < 1:
        raise ValueError("need %s >= 1 copies, got %r" % (name, value))
    return int(value)


def _run_blocks(model, N, n, master_seed, burnin, threads, idx=None):
    """_simulate_block's paths or sums of N copies, block by block in copy
    order: block b runs on the stream (master_seed, b), and threads only
    spreads blocks over processes."""
    N = _copies(N)
    size = block_copies(model.p)
    sizes = [min(size, N - a) for a in range(0, N, size)]
    life = _cohort_lifetime(model)
    route = {copies: _cohort_route(model, copies, life, burnin + n) for copies in set(sizes)}
    tasks = [
        (model, copies, n, master_seed, b, burnin, route[copies], idx)
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
    n, master_seed = _count("n", n), _count("master_seed", master_seed)
    k = _burnin_steps(model, burnin, N)
    paths = _run_blocks(model, N, n, master_seed, k, threads)
    return PathEnsemble(model, master_seed, k, paths)


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


def aggregate(model, N, n, master_seed, grid, burnin="auto", threads=1, reps=1):
    """(reps, len(grid), p) floats: reps independent aggregates of N copies,
    (S_m - m N mean) / sqrt(n) / sqrt(N) at m = floor(n t), in that order.

    mean is the model's exact stationary mean; _stationary_mean refuses a
    model without one, as moment_report does, before any block runs. The
    sum of N copies is one chain of the N-fold model (_superposed), and
    aggregate r is chain r of simulate_ensemble's ensemble of reps chains
    of it, kept only as its running sums S_m; an 'auto' burn-in certifies
    all reps N copies. A chain's counts are the aggregate's, so past the
    count ceiling of 2^31 per type, or when its immigration cannot be
    drawn, the call raises SimulationOverflowError, naming N and the check
    that fired when N >= 2.
    """
    n, master_seed = _count("n", n), _count("master_seed", master_seed)
    N, reps = _copies(N), _copies(reps, "reps")
    if n < 1:
        raise ValueError("need n >= 1 steps to scale an aggregate, got 0")
    idx = _grid_indices(grid, n)
    _stationary_mean(model)  # refuses a model without a mean before _superposed reads it
    k = _burnin_steps(model, burnin, reps * N)
    try:
        chain = _superposed(model, N)
        sums = _run_blocks(chain, reps, n, master_seed, k, threads, idx)
    except SimulationOverflowError as exc:
        if N == 1:
            raise
        reason = _CEILING if str(exc) == _RUNAWAY else str(exc)
        raise SimulationOverflowError(
            "the aggregate of N = %d copies is too large to simulate: %s; choose a smaller N"
            % (N, reason)) from None
    return (sums - np.outer(idx, chain._mean)) / math.sqrt(n) / math.sqrt(N)


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


def aggregates_to_csv(grid, values, path):
    """Write the rows t,s_1..s_p of an aggregate's values (len(grid), p)."""
    p = values.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join("s_%d" % (i + 1) for i in range(p)) + "\n")
        for t, row in zip(grid, values):
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
