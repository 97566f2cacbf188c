"""Offspring and immigration laws on Z_+^p and the branching model container.

A model is p offspring laws (one per type) plus one immigration law, all
p-dimensional. Two law representations are supported: an explicit finite
probability table, and a product of independent scalar marginals. Each
marginal kind states its first three cumulants once, in closed form
(cumulants), and raw moments are derived from them where a reader needs
them (_raw_moments). The moment report reads a law only through its
cumulant tensors of order 2 and 3, and a weighted sum of those over many
laws is one route (_cumulant_sum): a product law puts its marginals'
cumulants on the diagonal, and a table contracts its centered atoms. Both
representations keep kron_moment, their exact mixed raw moments up to
third order through Kronecker powers, as the reference that the dense
transfer oracle and the tests read; no production path calls it. Both have
exact samplers on a caller-supplied generator.

A law draws the sum of c independent broods as one variate of its c-fold
convolution: poisson(c lam), binomial(c n, q), negative binomial(c, q) for
the geometric law, c v for a point mass and multinomial(c, probs) @ support
for a table. On an array of at least _WIDE = 512 counts, exact routes
replace the numpy variate, one per entry, where it costs more than the draws
it makes.

Sparse routes draw only what is nonzero, when a call expects at most
_SPARSE = 1/2 nonzero draws (or Poisson points) per entry. The counts are
read as broods laid end to end. _successes draws the broods that are
nonzero, each independently at a rate r < 1, as i.i.d. geometric(r) gaps
between them, and maps each to its row by searchsorted on the running brood
count (Devroye 1986). A geometric(q) brood is nonzero at rate 1 - q, and a
nonzero one is numpy's geometric(q), the trials to a first success, by
memorylessness. A table brood is nonzero at the total mass of its nonzero
atoms, and a nonzero one is an atom drawn among those as sample draws it. A
Poisson sum is the row counts of poisson(lam units) points dropped on
uniform units (Poisson splitting). A rate of 0 draws nothing, and a rate of
1 (a table without a zero atom) never takes a sparse route.

Uniform routes replace the numpy variate where many small draws make one
uniform per unit cheaper. A wide Bernoulli or binomial sum of at most
_SMALL = 4 trials per count on average draws one uniform per trial, and
each entry is a difference of one running count of successes. A Poisson
sample of at least _WIDE draws with lam at most _SMALL is the cell counts of
poisson(size lam) points dropped uniformly into size cells. A Bernoulli
sample of any size is rng.random(size) < q: one uniform per draw, like
numpy's binomial(1, q), but 1.5-5 times faster from 512 draws on, and the
same bytes when q > 1/2.

The constants are cost ties against numpy, measured on a 2-core x86_64 host
with SFC64. Thinning overtook numpy between 256 and 512 counts of mean 2,
and scattering between 300 and 600 draws of lam <= 4. _SMALL is the tie on
512-4096 counts all equal to 4, numpy's best case because it reuses its
binomial set-up across equal entries: thinning took 0.89-1.15 of numpy's
time there. On counts spread as poisson(4) it took 0.5-0.8, and its tie lay
between means 6 and 10. Scattering at lam 8 tied on 512 draws and won on
more, so one _SMALL for both is conservative for the scatter. On 2048-8192
counts spread as poisson(m), m from 1/2 to 8, the sparse routes at 1/2
nonzero draws per entry took 0.55-0.85 of numpy's time for tables and
geometric laws and 0.7-1.0 for Poisson sums; at one per entry, Poisson sums
took 1.0-1.4. On 512 counts they took 0.55-1.1 up to 1/2 per entry.
Bernoulli and binomial sums keep thinning or numpy's variate: gaps between
successes took 0.6-1.1 of thinning's time at q <= 1/10 and more above, a
saving too small to resolve end to end.

The count c may be an int or an int64 array of counts, one per copy or per
immigrant cohort, so one generator call covers a whole block of copies or a
whole generation of cohorts. Int counts and one-entry arrays always take the
convolution variate, so they consume a generator alike, and a zero count
draws nothing. Routes are decided on a float unit total, and a call whose
units reach _UNITS = 2^62 keeps the convolution variate, so no running unit
count wraps int64. Counts are multiplied by law constants in int64, so a
point mass or binomial n of 2^63 or more is refused when the law is built.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kronalg import NotSubcriticalError, spectral_radius

__all__ = [
    "Poisson",
    "Bernoulli",
    "Binomial",
    "Geometric",
    "Point",
    "FiniteSupport",
    "IndependentMarginals",
    "BranchingModel",
    "Classification",
    "mean_matrix",
    "validate",
    "model_from_json",
    "model_to_json",
    "load_model",
    "model_digest",
    "SimulationOverflowError",
]

# spectral radius (or GINAR mean total) within this of one counts as critical
_REGIME_TOL = 1e-9
_MASS_TOL = 1e-9

# where the routes of the module docstring start: entries per call for all,
# and mean trials per count (or lam) at most for the uniform routes
_WIDE = 512
_SMALL = 4
# the sparse routes: at most _SPARSE nonzero draws (or Poisson points)
# expected per entry
_SPARSE = 0.5
# unit totals from here on keep numpy's variate, so a running unit count of
# the sparse routes stays clear of 2^63
_UNITS = 2.0 ** 62


class SimulationOverflowError(RuntimeError):
    """Raised when a component count exceeds the 2^31 simulation ceiling.

    The steppers of bpagg.simulate raise it, and that module re-exports it;
    it is defined here so that catching it imports no simulator."""


def _real(name, value):
    """value as a float; anything that is not a finite number is a ValueError."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError("need a finite number for %s, got %r" % (name, value))
    return x


def _count(name, value):
    """value as an int; anything but a nonnegative integer is a ValueError."""
    try:
        ok = int(value) == value and value >= 0
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError("need integer %s >= 0, got %r" % (name, value))
    return int(value)


def _raw_moments(marginal):
    """(E X, E X^2, E X^3) of a scalar marginal from its cumulants (k1, k2, k3):
    E X^2 = k2 + k1^2 and E X^3 = k3 + 3 k1 k2 + k1^3."""
    k1, k2, k3 = marginal.cumulants()
    return k1, k2 + k1 * k1, k3 + 3.0 * k1 * k2 + k1 ** 3


def _finite_moments(law, name, value):
    """Refuse a law of counts, by parameter name at value, when its raw moments up
    to order 3 (every moment report reads them) pass float64; the third is largest."""
    try:
        if math.isfinite(_raw_moments(law)[2]):
            return
    except OverflowError:
        pass
    raise ValueError("need %s whose raw moments up to order 3 fit float64, got %r" % (name, value))


def _int64_count(name, value):
    """_count for a law constant, which sample_sum multiplies by int64 counts:
    anything at or above 2^63 is a ValueError too."""
    value = _count(name, value)
    if value >= 1 << 63:
        raise ValueError("need %s below 2^63 to fit int64, got %d" % (name, value))
    return value


class Poisson:
    """poisson(lam) on {0,1,...}: every cumulant is lam."""

    dist = "poisson"
    json_params = ("lambda",)

    def __init__(self, lam):
        lam = _real("lambda", lam)
        if lam < 0:
            raise ValueError("need lambda >= 0, got %r" % lam)
        self.lam = lam
        _finite_moments(self, "lambda", lam)

    def cumulants(self):
        lam = self.lam
        return lam, lam, lam

    def sample(self, rng, size=None):
        if size is None or size < _WIDE or self.lam > _SMALL:
            return rng.poisson(self.lam, size)
        # size i.i.d. poisson(lam) are the cell counts of poisson(size lam)
        # points dropped uniformly into size cells
        cells = rng.integers(0, size, rng.poisson(size * self.lam))
        return np.bincount(cells, minlength=size)

    def sample_sum(self, count, rng):
        if not _sparse(count, self.lam):
            return rng.poisson(count * self.lam)
        # a row's sum of poisson(lam) per unit is its share of poisson(lam
        # units) points dropped uniformly on all units (Poisson splitting);
        # sorted, the points find their rows about three times faster
        ends = np.cumsum(count)
        points = np.sort(rng.integers(0, ends[-1], rng.poisson(self.lam * ends[-1])))
        return np.bincount(np.searchsorted(ends, points, side="right"), minlength=len(count))

    def params(self):
        return {"dist": "poisson", "lambda": self.lam}


def _successes(units, r, rng):
    """The row of each success, in increasing order, when row i holds units[i]
    independent trials that each succeed with probability r < 1.

    The trials are laid end to end, so trial t (from 1) is in the first row
    whose running unit count reaches t, and the gaps between successive
    successes are i.i.d. geometric(r) on {1, 2, ...}. They are drawn in
    batches of the mean number of successes left plus three standard
    deviations and eight, until a success lands past the last trial. A rate
    of 0 or no trials draws nothing. A gap is capped at the unit total plus
    one, so below _UNITS no running sum up to the first success past the end
    wraps int64.
    """
    ends = np.cumsum(units)
    total = int(ends[-1])
    found, last = [np.zeros(0, dtype=np.int64)], 0
    while r > 0.0 and last < total:
        mean = r * (total - last)
        gaps = rng.geometric(r, int(mean + 3.0 * math.sqrt(mean)) + 8)
        np.minimum(gaps, total + 1, out=gaps)
        at = np.cumsum(gaps)
        at += last
        past = at > total
        end = int(past.argmax())
        if past[end]:
            found.append(at[:end])
            break
        found.append(at)
        last = int(at[-1])
    return np.searchsorted(ends, np.concatenate(found))


def _sparse(count, r):
    """Whether a call on count takes a sparse route at rate r per unit: count
    is an array of at least _WIDE entries whose float unit total is below
    _UNITS and expects at most _SPARSE successes per entry."""
    if np.ndim(count) == 0 or len(count) < _WIDE:
        return False
    units = count.sum(dtype=float)
    return units < _UNITS and r * units <= _SPARSE * len(count)


def _binomial_sum(count, n, q, rng):
    """binomial(count n, q), for an int count or per entry of a count array.

    Wide arrays of few trials thin one uniform per trial. The route is
    decided on a float sum: on a guarded law count n may pass int64.
    """
    if (
        np.ndim(count) == 0
        or len(count) < _WIDE
        or count.sum(dtype=float) * n > _SMALL * len(count)
    ):
        return rng.binomial(count * n, q)
    trials = count * n
    ends = np.cumsum(trials)
    run = np.zeros(ends[-1] + 1, dtype=np.int64)  # run[t]: successes before trial t
    np.cumsum(rng.random(ends[-1]) < q, out=run[1:])
    return run[ends] - run[ends - trials]


class Bernoulli:
    """bernoulli(q) on {0,1}: cumulants q, q (1-q) and q (1-q) (1-2q), and a
    sum of c copies is binomial(c, q)."""

    dist = "bernoulli"
    json_params = ("q",)

    def __init__(self, q):
        q = _real("q", q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("need q in [0, 1], got %r" % q)
        self.q = q

    def cumulants(self):
        q = self.q
        var = q * (1.0 - q)
        return q, var, var * (1.0 - 2.0 * q)

    def sample(self, rng, size=None):
        hit = rng.random(size) < self.q
        return int(hit) if size is None else hit.astype(np.int64)

    def sample_sum(self, count, rng):
        return _binomial_sum(count, 1, self.q, rng)

    def params(self):
        return {"dist": "bernoulli", "q": self.q}


class Binomial:
    """binomial(n, q): n times the Bernoulli cumulants. A sum of c copies is
    binomial(c n, q)."""

    dist = "binomial"
    json_params = ("n", "q")

    def __init__(self, n, q):
        self.n = _int64_count("n", n)
        q = _real("q", q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("need q in [0, 1], got %r" % q)
        self.q = q

    def cumulants(self):
        q = self.q
        var = self.n * q * (1.0 - q)
        return self.n * q, var, var * (1.0 - 2.0 * q)

    def sample(self, rng, size=None):
        return rng.binomial(self.n, self.q, size)

    def sample_sum(self, count, rng):
        return _binomial_sum(count, self.n, self.q, rng)

    def params(self):
        return {"dist": "binomial", "n": self.n, "q": self.q}


class Geometric:
    """geometric(q) counting failures, P(X = k) = q (1-q)^k on {0,1,...}.

    With b = (1-q)/q the cumulants are b, b (1+b) and b (1+b) (1+2b).
    q = 1 is the point mass at zero. A sum of c copies is negative
    binomial(c, q).
    """

    dist = "geometric"
    json_params = ("q",)

    def __init__(self, q):
        q = _real("q", q)
        if not 0.0 < q <= 1.0:
            raise ValueError("need q in (0, 1], got %r" % q)
        self.q = q
        _finite_moments(self, "q", q)

    def cumulants(self):
        b = (1.0 - self.q) / self.q
        var = b * (1.0 + b)
        return b, var, var * (1.0 + 2.0 * b)

    def sample(self, rng, size=None):
        return rng.geometric(self.q, size) - 1

    def sample_sum(self, count, rng):
        if _sparse(count, 1.0 - self.q):
            # a draw is nonzero with probability 1 - q, and then, by
            # memorylessness, 1 + geometric(q): numpy's geometric(q) trials
            rows = _successes(count, 1.0 - self.q, rng)
            sizes = rng.geometric(self.q, len(rows))
            return np.bincount(rows, sizes, minlength=len(count)).astype(np.int64)
        # negative binomial(c, q) as numpy draws it, a Poisson mixed over a
        # gamma(c) rate scaled by b; a zero count draws nothing and gives 0
        return rng.poisson(rng.standard_gamma(count) * ((1.0 - self.q) / self.q))

    def params(self):
        return {"dist": "geometric", "q": self.q}


class Point:
    """Point mass at a nonnegative integer c: cumulants c, 0 and 0; a sum of
    k copies is k c. Consumes no randomness."""

    dist = "point"
    json_params = ("c",)

    def __init__(self, c):
        self.c = _int64_count("c", c)

    def cumulants(self):
        return float(self.c), 0.0, 0.0

    def sample(self, rng, size=None):
        return self.c if size is None else np.full(size, self.c, dtype=np.int64)

    def sample_sum(self, count, rng):
        return count * self.c

    def params(self):
        return {"dist": "point", "c": self.c}


_MARGINALS = {m.dist: m for m in (Poisson, Bernoulli, Binomial, Geometric, Point)}


class FiniteSupport:
    """Law given by an explicit table of support vectors and probabilities.

    Support vectors are distinct points of Z_+^p. Probabilities must be
    nonnegative and sum to one within 1e-9; the stored masses are
    renormalized to exact unit total. to_json writes the probabilities as
    given, so a JSON round trip rebuilds the same law bit for bit.
    """

    kind = "finite"

    def __init__(self, support, probs):
        try:
            raw = np.asarray(support, dtype=float)
            probs = np.array(probs, dtype=float)  # a copy, which to_json writes back
        except (TypeError, ValueError):
            raise ValueError("support vectors and probabilities must be numbers") from None
        # float64 holds every integer below 2^53 exactly
        if not np.all((raw == np.round(raw)) & (np.abs(raw) < 2.0 ** 53)):
            raise ValueError(
                "support vectors must be integer points below 2^53, got %r"
                % (raw.tolist(),)
            )
        support = raw.astype(np.int64)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2 or probs.ndim != 1 or support.shape[0] != probs.shape[0]:
            raise ValueError("need one probability per support vector")
        if support.shape[0] == 0:
            raise ValueError("need at least one support vector")
        if np.any(support < 0):
            raise ValueError("support vectors must be nonnegative integers")
        if len({tuple(v) for v in support.tolist()}) != support.shape[0]:
            raise ValueError("support vectors must be distinct")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite, got %r" % (probs.tolist(),))
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError("probabilities sum to %r, not 1" % total)
        self.support = support
        self._given = probs
        self.probs = probs / total
        self._cum = np.cumsum(self.probs)
        self._cum[-1] = 1.0

    @property
    def dim(self):
        return self.support.shape[1]

    @cached_property
    def _nonzero(self):
        """(rate, atoms, cum): a draw is nonzero with probability rate (1
        without a zero atom), and then one of the nonzero atoms, whose masses
        given a nonzero draw accumulate to cum. Derived on a first sum, so a
        law that only reports moments never pays for it."""
        nonzero = self.support.any(axis=1)
        rate = 1.0 if nonzero.all() else float(self.probs[nonzero].sum())
        cum = np.cumsum(self.probs[nonzero])
        if rate > 0.0:
            cum /= rate
            cum[-1] = 1.0
        return rate, self.support[nonzero], cum

    def mean(self):
        return self.probs @ self.support.astype(float)

    def kron_moment(self, alpha):
        """E x^(x)alpha, flat of length dim**alpha: the atoms X (one per row)
        weighted by the probabilities w and contracted in one product,
        sum_n w_n x_n^(x)alpha. The raw-moment reference of the tests and
        the dense transfer oracle; the moment report reads _cumulant_sum."""
        if alpha not in (1, 2, 3):
            raise ValueError("moment order must be 1, 2 or 3, got %r" % (alpha,))
        if alpha == 1:
            return self.mean()
        pts = self.support.astype(float)
        weighted = self.probs[:, None] * pts
        if alpha == 3:
            # row n holds x_n^(x)2, so the product's row i*p + j, column k is
            # sum_n w_n x_ni x_nj x_nk
            pts = (pts[:, :, None] * pts[:, None, :]).reshape(len(pts), -1)
        return (pts.T @ weighted).reshape(-1)

    def sample(self, rng, size=None):
        """One support vector, or a (size, dim) array of independent ones."""
        idx = np.searchsorted(self._cum, rng.random(size), side="right")
        return np.take(self.support, np.minimum(idx, len(self.probs) - 1), axis=0)

    def sample_sum(self, count, rng):
        """Sum of count draws, shape (dim,), or (len(count), dim) for an array."""
        rate, atoms, cum = self._nonzero
        if rate < 1.0 and _sparse(count, rate):
            # the nonzero draws, then each one's atom: a uniform below the
            # last cumulative mass, 1, is below some entry
            rows = _successes(count, rate, rng)
            drawn = atoms[np.searchsorted(cum, rng.random(len(rows)), side="right")]
            out = np.empty((len(count), self.dim), dtype=np.int64)
            for j in range(self.dim):
                out[:, j] = np.bincount(rows, drawn[:, j], minlength=len(count))
            return out
        return rng.multinomial(count, self.probs) @ self.support

    def to_json(self):
        return {
            "kind": "finite",
            "support": [
                {"v": [int(c) for c in v], "p": float(w)}
                for v, w in zip(self.support, self._given)
            ],
        }


class IndependentMarginals:
    """Product law with independent scalar marginals, one per coordinate.

    Its cumulant tensors are diagonal, with the marginals' closed-form
    cumulants on the diagonal (_cumulant_sum). Mixed raw moments factor
    across coordinates, so kron_moment, the raw-moment reference of the
    tests and the dense transfer oracle, is an outer product of the means
    with the entries that repeat a coordinate set to the raw second or third
    moment of that coordinate, derived from its cumulants.
    """

    kind = "independent"

    def __init__(self, marginals):
        if len(marginals) == 0:
            raise ValueError("need at least one marginal")
        self.marginals = list(marginals)

    @property
    def dim(self):
        return len(self.marginals)

    def mean(self):
        return np.array([m.cumulants()[0] for m in self.marginals])

    def kron_moment(self, alpha):
        if alpha not in (1, 2, 3):
            raise ValueError("moment order must be 1, 2 or 3, got %r" % (alpha,))
        raws = np.array([_raw_moments(m)[:alpha] for m in self.marginals])
        if alpha == 1:
            return raws[:, 0]
        m1, m2 = raws[:, 0], raws[:, 1]
        diag = np.arange(self.dim)
        if alpha == 2:
            out = np.outer(m1, m1)
            out[diag, diag] = m2
            return out.reshape(-1)
        out = np.multiply.outer(np.outer(m1, m1), m1)
        pair = np.outer(m2, m1)  # pair[a, c] = E x_a^2 E x_c
        out[diag, diag, :] = pair
        out[diag, :, diag] = pair
        out[:, diag, diag] = pair.T
        out[diag, diag, diag] = raws[:, 2]
        return out.reshape(-1)

    def sample(self, rng, size=None):
        """One draw, shape (dim,), or a (size, dim) array of independent ones."""
        return np.array([m.sample(rng, size) for m in self.marginals], dtype=np.int64).T

    def sample_sum(self, count, rng):
        """Sum of count draws, shape (dim,), or (len(count), dim) for an array;
        coordinates are drawn in order."""
        return np.array(
            [m.sample_sum(count, rng) for m in self.marginals], dtype=np.int64
        ).T

    def to_json(self):
        return {"kind": "independent", "marginals": [m.params() for m in self.marginals]}


def _cumulant_sum(laws, weights, means, order):
    """sum_l weights[l] K(laws[l]), where K = E (x - E x)^(x)order is a law's
    cumulant tensor of order 2 or 3 and means[:, l] the mean E x of laws[l].
    At order 2 a weight may be a row of k weights, for k sums at once as a
    (k, p, p) array.

    A product law's K is the diagonal of its marginals' closed-form
    cumulants. A table contracts its centered atoms c_n, weighted by their
    probabilities w_n: c^T (w c) at order 2. At order 3 the centered atoms
    of every table, each weighted by its probability times weights[l], are
    stacked and contracted p atoms per product, so no table's tensor of
    order 3 is built on its own and the row-wise products c_a c_b of a
    product hold at most p^3 entries.
    """
    p = laws[0].dim
    weights = np.asarray(weights, dtype=float)
    diag = np.zeros(weights.shape[1:] + (p,))
    tables = []
    for law, w, center in zip(laws, weights, np.transpose(means)):
        if isinstance(law, IndependentMarginals):
            diag += np.multiply.outer(w, [m.cumulants()[order - 1] for m in law.marginals])
        else:
            tables.append((w, law.probs, law.support - center))
    if order == 2:
        # one product of the tables' weights with their stacked c^T (w c)
        table_weights = np.reshape([w for w, _, _ in tables], (-1,) + weights.shape[1:])
        covs = np.reshape([c.T @ (probs[:, None] * c) for _, probs, c in tables], (-1, p * p))
        out = (table_weights.T @ covs).reshape(diag.shape + (p,))
    else:
        x = np.concatenate([np.zeros((0, p))] + [c for _, _, c in tables])
        wx = np.concatenate([np.zeros(0)] + [w * probs for w, probs, _ in tables])[:, None] * x
        out = np.zeros((p * p, p))
        for lo in range(0, len(x), p):
            rows = x[lo : lo + p]
            out += (rows[:, :, None] * rows[:, None, :]).reshape(len(rows), p * p).T @ wx[lo : lo + p]
        out = out.reshape(p, p, p)
    out[(Ellipsis,) + np.diag_indices(p, order)] += diag
    return out


@dataclass(frozen=True)
class BranchingModel:
    """p offspring laws (column i is the brood of one type-i individual)
    plus one p-dimensional immigration law. Its mean matrix _M, spectral
    radius _rho, stationary mean _mean ((I - M)^-1 m_eps, None unless
    subcritical) and classification (see validate) are derived once, on
    first use; every route reads them, so the arrays are read-only."""

    p: int
    offspring: tuple
    immigration: object

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("need p >= 1")
        if len(self.offspring) != self.p:
            raise ValueError(
                "need %d offspring laws, got %d" % (self.p, len(self.offspring))
            )
        object.__setattr__(self, "offspring", tuple(self.offspring))
        for law in self.offspring:
            if law.dim != self.p:
                raise ValueError("offspring law dimension %d != p = %d" % (law.dim, self.p))
        if self.immigration.dim != self.p:
            raise ValueError(
                "immigration dimension %d != p = %d" % (self.immigration.dim, self.p)
            )

    @cached_property
    def _M(self):
        M = np.column_stack([law.mean() for law in self.offspring])
        M.flags.writeable = False
        return M

    @cached_property
    def _rho(self):
        return spectral_radius(self._M)

    @cached_property
    def _mean(self):
        if _regime(self._rho) != "subcritical":
            return None
        mean = np.linalg.solve(np.eye(self.p) - self._M, self.immigration.mean())
        mean.flags.writeable = False
        return mean

    @cached_property
    def _classification(self):
        rho = self._rho
        positive = np.linalg.matrix_power(self._M > 0, (self.p - 1) ** 2 + 1).all()
        nontrivial = bool(np.any(self.immigration.mean() > 0))
        return Classification(rho, _regime(rho), bool(positive), nontrivial)


@dataclass(frozen=True)
class Classification:
    rho: float
    regime: str
    primitive: bool
    immigration_nontrivial: bool


def mean_matrix(model):
    """Offspring mean matrix M with column i the mean brood of type i (the
    model's own read-only array)."""
    return model._M


def _stationary_mean(model):
    """The model's stationary mean, as moment_report and aggregate read it: a
    model that is not subcritical or has zero immigration mean is refused."""
    if model._mean is None:
        raise NotSubcriticalError(
            "stationary moments need a subcritical model, got rho = %.6g" % model._rho
        )
    if not np.any(model.immigration.mean() > 0):
        raise ValueError("zero immigration mean, stationary law is degenerate at 0")
    return model._mean


def _regime(rho):
    """The regime at spectral radius rho, split at one with tolerance 1e-9."""
    if rho < 1.0 - _REGIME_TOL:
        return "subcritical"
    if rho <= 1.0 + _REGIME_TOL:
        return "critical"
    return "supercritical"


def validate(model):
    """Classify a model: spectral radius, regime, primitivity, immigration.

    The regime splits at spectral radius one with tolerance 1e-9.
    Primitivity is decided exactly on the sparsity pattern B of M: M is
    primitive iff the boolean power B^((p-1)^2 + 1) is everywhere positive
    (Wielandt's bound, attained by the cycle with one chord), and that power
    takes O(log p) boolean products by repeated squaring (a bool matmul is
    the or of ands). The model classifies itself once, on the first call,
    and every later call returns that classification.
    """
    return model._classification


def _json_numbers(name, values):
    """Refuse a bool or a str among values, the JSON numbers of field name:
    float() and numpy would read either as a number."""
    for t in set(map(type, values)):
        if issubclass(t, (bool, str)):
            raise ValueError('law field "%s" needs JSON numbers, got a %s' % (name, t.__name__))


def _law_from_json(obj):
    """Build a law from its JSON form; a malformed form is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a law must be a JSON object, got %r" % (obj,))
    kind = obj.get("kind")
    if kind == "finite":
        atoms = obj.get("support")
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and isinstance(a.get("v"), list) and "p" in a for a in atoms
        ):
            raise ValueError(
                'a finite law needs "support": a list of {"v": [...], "p": ...} atoms'
            )
        support, probs = [a["v"] for a in atoms], [a["p"] for a in atoms]
        _json_numbers("v", itertools.chain.from_iterable(support))
        _json_numbers("p", probs)
        return FiniteSupport(support, probs)
    if kind == "independent":
        specs = obj.get("marginals")
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ValueError('an independent law needs "marginals": a list of objects')
        marginals = []
        for spec in specs:
            dist = spec.get("dist")
            cls = _MARGINALS.get(dist) if isinstance(dist, str) else None
            if cls is None:
                raise ValueError("unknown marginal dist %r" % (dist,))
            keys = set(spec) - {"dist"}
            if keys != set(cls.json_params):
                raise ValueError(
                    "%s marginal takes parameters %s, got %s"
                    % (dist, sorted(cls.json_params), sorted(keys))
                )
            for k in cls.json_params:
                _json_numbers(k, (spec[k],))
            marginals.append(cls(*(spec[k] for k in cls.json_params)))
        return IndependentMarginals(marginals)
    raise ValueError("unknown law kind %r" % (kind,))


def model_from_json(obj):
    """Build a model from its JSON dictionary form."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    for key in ("p", "offspring", "immigration"):
        if key not in obj:
            raise ValueError("model JSON missing %r" % key)
    p = obj["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError("model JSON \"p\" must be an integer, got %r" % (p,))
    if not isinstance(obj["offspring"], list):
        raise ValueError("model JSON \"offspring\" must be a list of laws")
    offspring = tuple(_law_from_json(o) for o in obj["offspring"])
    immigration = _law_from_json(obj["immigration"])
    return BranchingModel(p, offspring, immigration)


def model_to_json(model):
    """JSON dictionary form of a model."""
    return {
        "p": model.p,
        "offspring": [law.to_json() for law in model.offspring],
        "immigration": model.immigration.to_json(),
    }


def load_model(path):
    """Read a model from a JSON file."""
    with open(path) as fh:
        return model_from_json(json.load(fh))


def model_digest(model):
    """Short stable hash of the model, for run metadata."""
    import hashlib  # loading _hashlib is a cost only this function pays

    text = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_CONTAINERS = (dict, list, tuple)


def _flat(types):
    """Whether none of the item types is a container."""
    return not any(issubclass(t, _CONTAINERS) for t in types)


def _floats(items, memo):
    """The JSON encodings of items, a list of floats. memo maps each float
    met so far to its encoding, so every distinct value is encoded once per
    memo, and the values new to it in one encoder call. 0.0 and -0.0 are
    one key of a dict, so the zeros of a list are encoded by their sign."""
    distinct = set(items)
    fresh = list(distinct.difference(memo))
    if fresh:
        memo.update(zip(fresh, json.dumps(fresh)[1:-1].split(", ")))
    if 0.0 not in distinct:
        return map(memo.__getitem__, items)
    return [memo[x] if x else "-0.0" if math.copysign(1.0, x) < 0 else "0.0" for x in items]


def _indented(obj, depth, memo):
    """json.dumps(obj, indent=2) for a value nested depth levels deep; memo
    is _floats' memo for every flat list of floats in the value."""
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return brackets
    pad = "  " * (depth + 1)
    types = set(map(type, items))
    if types == {float} and brackets == "[]":
        inner = (",\n" + pad).join(_floats(items, memo))
    elif _flat(types):
        # a container of scalars is one C encoder call: its item separator
        # carries the newline and indent, which no encoded scalar contains
        inner = json.dumps(obj, separators=(",\n" + pad, ": "))[1:-1]
    elif isinstance(obj, dict):
        inner = (",\n" + pad).join(
            json.dumps(k) + ": " + _indented(v, depth + 1, memo) for k, v in obj.items()
        )
    elif types == {dict} and all(obj) and _flat(
        set(map(type, itertools.chain.from_iterable(map(dict.values, obj))))
    ):
        # a list of non-empty flat dicts (a table of rows) is one C encoder
        # call at the rows' indent; "}" + separator + "{" occurs only between
        # rows, since no encoded scalar holds a raw newline, and becomes the
        # row boundary at the list's indent
        deep = pad + "  "
        rows = json.dumps(obj, separators=(",\n" + deep, ": "))[2:-2]
        rows = rows.replace("},\n%s{" % deep, "\n%s},\n%s{\n%s" % (pad, pad, deep))
        inner = "{\n%s%s\n%s}" % (deep, rows, pad)
    else:
        inner = (",\n" + pad).join(_indented(v, depth + 1, memo) for v in obj)
    return "%s\n%s%s\n%s%s" % (brackets[0], pad, inner, "  " * depth, brackets[1])


def json_text(obj):
    """json.dumps(obj, indent=2) + "\\n", byte for byte, for JSON values whose
    objects have string keys; every report and metadata file is written so.
    Each distinct float of the flat lists is encoded once per call."""
    return _indented(obj, 0, {}) + "\n"
