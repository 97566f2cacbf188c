"""Offspring and immigration laws on Z_+^p and the branching model container.

A model is p offspring laws (one per type) plus one immigration law, all
p-dimensional. Two law representations are supported: an explicit finite
probability table, and a product of independent scalar marginals with
closed-form moments. Both expose exact mixed moments up to third order
through Kronecker powers, and exact samplers on a caller-supplied generator.
A table's Kronecker moment of order k is one weighted contraction of its
atoms, whatever their number: X^T (w X) at order 2, and the row-wise
products X_i X_j contracted with w X at order 3.

Every law draws the sum of c independent broods as one variate of its c-fold
convolution: poisson(c lam), binomial(c n, q), negative binomial(c, q) for
the geometric law, c v for a point mass and multinomial(c, probs) @ support
for a table. The count c may be an int or an int64 array of counts, one per
copy or per immigrant cohort, so one generator call covers a whole block of
copies or a whole generation of cohorts; an int count and a one-entry array
consume a generator alike, and a zero count draws nothing. Counts are
multiplied by law constants in int64, so a point mass or binomial n of 2^63
or more is refused when the law is built.
"""

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

    def raw_moment(self, k):
        lam = self.lam
        if k == 1:
            return lam
        if k == 2:
            return lam + lam * lam
        return lam + 3.0 * lam * lam + lam ** 3

    def sample(self, rng, size=None):
        return rng.poisson(self.lam, size)

    def sample_sum(self, count, rng):
        return rng.poisson(count * self.lam)

    def params(self):
        return {"dist": "poisson", "lambda": self.lam}


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
        return rng.binomial(1, self.q, size)

    def sample_sum(self, count, rng):
        return rng.binomial(count, self.q)

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
        return rng.binomial(count * self.n, self.q)

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
        # numpy needs n >= 1, so only positive counts draw; a sum of no broods is 0
        if not isinstance(count, np.ndarray):
            return rng.negative_binomial(count, self.q) if count > 0 else 0
        out = np.zeros(count.shape, dtype=np.int64)
        nz = count > 0
        out[nz] = rng.negative_binomial(count[nz], self.q)
        return out

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


def _law_from_json(obj):
    """Build a law from its JSON form; a malformed form is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a law must be a JSON object, got %r" % (obj,))
    kind = obj.get("kind")
    if kind == "finite":
        atoms = obj.get("support")
        if not isinstance(atoms, list) or not all(
            isinstance(a, dict) and "v" in a and "p" in a for a in atoms
        ):
            raise ValueError(
                'a finite law needs "support": a list of {"v": [...], "p": ...} atoms'
            )
        return FiniteSupport([a["v"] for a in atoms], [a["p"] for a in atoms])
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
