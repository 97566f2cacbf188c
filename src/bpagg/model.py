"""Offspring and immigration laws on Z_+^p and the branching model container.

A model is p offspring laws (one per type) plus one immigration law, all
p-dimensional. Two law representations are supported: an explicit finite
probability table, and a product of independent scalar marginals with
closed-form moments. Both expose exact mixed moments up to third order
through Kronecker powers, and exact samplers on a caller-supplied generator.
A table's Kronecker moment of order k is one weighted contraction of its
atoms, whatever their number: X^T (w X) at order 2, and the row-wise
products X_i X_j contracted with w X at order 3.

A law draws the sum of c independent broods as one variate of its c-fold
convolution: poisson(c lam), binomial(c n, q), negative binomial(c, q) for
the geometric law, c v for a point mass and multinomial(c, probs) @ support
for a table. Two exact routes replace the numpy variate where many small
draws make one uniform per unit cheaper. A Bernoulli or binomial sum over
an array of at least _WIDE = 512 counts of at most _SMALL = 4 trials each
on average draws one uniform per trial, and each entry is a difference of
one running count of successes. A Poisson sample of at least _WIDE draws
with lam at most _SMALL is the cell counts of poisson(size lam) points
dropped uniformly into size cells (Poisson splitting; Devroye 1986). A
Bernoulli sample of any size is rng.random(size) < q: one uniform per draw,
like numpy's binomial(1, q), but 1.5-5 times faster from 512 draws on, and
the same bytes when q > 1/2.

The constants are cost ties against numpy, measured on a 2-core x86_64 host
with SFC64. Thinning overtook numpy between 256 and 512 counts of mean 2,
and scattering between 300 and 600 draws of lam <= 4. _SMALL is the tie on
512-4096 counts all equal to 4, numpy's best case because it reuses its
binomial set-up across equal entries: thinning took 0.89-1.15 of numpy's
time there. On counts spread as poisson(4) it took 0.5-0.8, and its tie lay
between means 6 and 10. Scattering at lam 8 tied on 512 draws and won on
more, so one _SMALL for both is conservative for the scatter.

The count c may be an int or an int64 array of counts, one per copy or per
immigrant cohort, so one generator call covers a whole block of copies or a
whole generation of cohorts. Int counts and one-entry arrays always take the
convolution variate, so they consume a generator alike, and a zero count
draws nothing. Counts are multiplied by law constants in int64, so a point
mass or binomial n of 2^63 or more is refused when the law is built.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .kronalg import spectral_radius

__all__ = [
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
]

# spectral radius (or GINAR mean total) within this of one counts as critical
_REGIME_TOL = 1e-9
_MASS_TOL = 1e-9

# where the uniform routes of the module docstring start: entries per call,
# and mean trials per count (or lam) at most
_WIDE = 512
_SMALL = 4


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


def _finite_moments(law, name, value):
    """Refuse a law of counts, by parameter name at value, when its raw moments up
    to order 3 (every moment report reads them) pass float64; the third is largest."""
    try:
        if math.isfinite(law.raw_moment(3)):
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
    """poisson(lam) on {0,1,...}: E X = lam, E X^2 = lam + lam^2,
    E X^3 = lam + 3 lam^2 + lam^3."""

    dist = "poisson"
    json_params = ("lambda",)

    def __init__(self, lam):
        lam = _real("lambda", lam)
        if lam < 0:
            raise ValueError("need lambda >= 0, got %r" % lam)
        self.lam = lam
        _finite_moments(self, "lambda", lam)

    def raw_moment(self, k):
        lam = self.lam
        if k == 1:
            return lam
        if k == 2:
            return lam + lam * lam
        return lam + 3.0 * lam * lam + lam ** 3

    def sample(self, rng, size=None):
        if size is None or size < _WIDE or self.lam > _SMALL:
            return rng.poisson(self.lam, size)
        # size i.i.d. poisson(lam) are the cell counts of poisson(size lam)
        # points dropped uniformly into size cells
        cells = rng.integers(0, size, rng.poisson(size * self.lam))
        return np.bincount(cells, minlength=size)

    def sample_sum(self, count, rng):
        return rng.poisson(count * self.lam)

    def params(self):
        return {"dist": "poisson", "lambda": self.lam}


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
    """bernoulli(q) on {0,1}: all raw moments equal q; a sum of c copies is
    binomial(c, q)."""

    dist = "bernoulli"
    json_params = ("q",)

    def __init__(self, q):
        q = _real("q", q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("need q in [0, 1], got %r" % q)
        self.q = q

    def raw_moment(self, k):
        return self.q

    def sample(self, rng, size=None):
        hit = rng.random(size) < self.q
        return int(hit) if size is None else hit.astype(np.int64)

    def sample_sum(self, count, rng):
        return _binomial_sum(count, 1, self.q, rng)

    def params(self):
        return {"dist": "bernoulli", "q": self.q}


class Binomial:
    """binomial(n, q): raw moments from factorial moments
    E X(X-1) = n(n-1)q^2 and E X(X-1)(X-2) = n(n-1)(n-2)q^3. A sum of c
    copies is binomial(c n, q)."""

    dist = "binomial"
    json_params = ("n", "q")

    def __init__(self, n, q):
        self.n = _int64_count("n", n)
        q = _real("q", q)
        if not 0.0 <= q <= 1.0:
            raise ValueError("need q in [0, 1], got %r" % q)
        self.q = q

    def raw_moment(self, k):
        n, q = self.n, self.q
        m1 = n * q
        if k == 1:
            return m1
        f2 = n * (n - 1) * q * q
        if k == 2:
            return f2 + m1
        f3 = n * (n - 1) * (n - 2) * q ** 3
        return f3 + 3.0 * f2 + m1

    def sample(self, rng, size=None):
        return rng.binomial(self.n, self.q, size)

    def sample_sum(self, count, rng):
        return _binomial_sum(count, self.n, self.q, rng)

    def params(self):
        return {"dist": "binomial", "n": self.n, "q": self.q}


class Geometric:
    """geometric(q) counting failures, P(X = k) = q (1-q)^k on {0,1,...}.

    With b = (1-q)/q the factorial moments are b, 2 b^2, 6 b^3, so
    E X = b, E X^2 = 2 b^2 + b, E X^3 = 6 b^3 + 6 b^2 + b. q = 1 is the
    point mass at zero. A sum of c copies is negative binomial(c, q).
    """

    dist = "geometric"
    json_params = ("q",)

    def __init__(self, q):
        q = _real("q", q)
        if not 0.0 < q <= 1.0:
            raise ValueError("need q in (0, 1], got %r" % q)
        self.q = q
        _finite_moments(self, "q", q)

    def raw_moment(self, k):
        b = (1.0 - self.q) / self.q
        if k == 1:
            return b
        if k == 2:
            return 2.0 * b * b + b
        return 6.0 * b ** 3 + 6.0 * b * b + b

    def sample(self, rng, size=None):
        return rng.geometric(self.q, size) - 1

    def sample_sum(self, count, rng):
        # negative binomial(c, q) as numpy draws it, a Poisson mixed over a
        # gamma(c) rate scaled by b; a zero count draws nothing and gives 0
        return rng.poisson(rng.standard_gamma(count) * ((1.0 - self.q) / self.q))

    def params(self):
        return {"dist": "geometric", "q": self.q}


class Point:
    """Point mass at a nonnegative integer c; a sum of k copies is k c.
    Consumes no randomness."""

    dist = "point"
    json_params = ("c",)

    def __init__(self, c):
        self.c = _int64_count("c", c)

    def raw_moment(self, k):
        return float(self.c) ** k

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

    def mean(self):
        return self.probs @ self.support.astype(float)

    def kron_moment(self, alpha):
        """E x^(x)alpha, flat of length dim**alpha: the atoms X (one per row)
        weighted by the probabilities w and contracted in one product,
        sum_n w_n x_n^(x)alpha."""
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

    Mixed moments factor across coordinates, so any Kronecker moment up to
    order three is a product of closed-form scalar raw moments: an outer
    product of the means, with the entries that repeat a coordinate set to
    the raw second or third moment of that coordinate.
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
        return np.array([m.raw_moment(1) for m in self.marginals])

    def kron_moment(self, alpha):
        if alpha not in (1, 2, 3):
            raise ValueError("moment order must be 1, 2 or 3, got %r" % (alpha,))
        raws = np.array([[m.raw_moment(k) for k in (1, 2, 3)] for m in self.marginals])
        m1, m2 = raws[:, 0], raws[:, 1]
        if alpha == 1:
            return m1
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


@dataclass(frozen=True)
class BranchingModel:
    """p offspring laws (column i is the brood of one type-i individual)
    plus one p-dimensional immigration law."""

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


@dataclass(frozen=True)
class Classification:
    rho: float
    regime: str
    primitive: bool
    immigration_nontrivial: bool


def mean_matrix(model):
    """Offspring mean matrix M with column i the mean brood of type i."""
    return np.column_stack([law.mean() for law in model.offspring])


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
    takes O(log p) boolean products by repeated squaring.
    """
    M = mean_matrix(model)
    rho = spectral_radius(M)
    positive = _boolean_power(M > 0, (model.p - 1) ** 2 + 1).all()
    nontrivial = bool(np.any(model.immigration.mean() > 0))
    return Classification(rho, _regime(rho), bool(positive), nontrivial)


def _boolean_power(b, e):
    """The boolean matrix power b^e of a square bool array, e >= 1, by
    repeated squaring; a bool matmul is the or of ands."""
    out = None
    while True:
        if e & 1:
            out = b if out is None else out @ b
        e >>= 1
        if not e:
            return out
        b = b @ b


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


def _indented(obj, depth):
    """json.dumps(obj, indent=2) for a value nested depth levels deep."""
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
    if not any(isinstance(v, (dict, list, tuple)) for v in items):
        # a container of scalars is one C encoder call: its item separator
        # carries the newline and indent, which no encoded scalar contains
        inner = json.dumps(obj, separators=(",\n" + pad, ": "))[1:-1]
    elif isinstance(obj, dict):
        inner = (",\n" + pad).join(
            json.dumps(k) + ": " + _indented(v, depth + 1) for k, v in obj.items()
        )
    else:
        inner = (",\n" + pad).join(_indented(v, depth + 1) for v in obj)
    return "%s\n%s%s\n%s%s" % (brackets[0], pad, inner, "  " * depth, brackets[1])


def json_text(obj):
    """json.dumps(obj, indent=2) + "\\n", byte for byte, for JSON values whose
    objects have string keys; every report and metadata file is written so."""
    return _indented(obj, 0) + "\n"
