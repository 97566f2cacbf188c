"""Workload definitions: model files written from the workload seed, and the
CLI operations one pass of each workload runs.

Each workload is the only one on which its layer does most of the work:

- clt-inar: per-copy stepping in ``simulate`` (many short copies, p = 1).
- clt-grid: the ``verify`` statistics layer (bootstrap, KS, increment
  covariances) and the general multitype stepper.
- longpath-bigpop: law draws on a large population (``Poisson.sample_sum``)
  on the single-path route, plus the only CSV export.
- moments-p16: the exact engine (``moments`` and ``kronalg``) alone.

Folding any two would lose a mechanism/bypass pair, for example lockstep
ensembles gain on clt-inar and are bypassed on longpath-bigpop.
"""

import json
import os

import numpy as np

WORKLOADS = ("clt-inar", "clt-grid", "longpath-bigpop", "moments-p16")

# The scalar INAR(1) model of acceptance criterion 7: mean 2, V 1.5,
# var 2, limit covariance 6.
INAR = {
    "p": 1,
    "offspring": [{"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}],
    "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]},
}

# Fixed 3-type model mixing independent marginals with one finite table.
GRID3 = {
    "p": 3,
    "offspring": [
        {
            "kind": "independent",
            "marginals": [
                {"dist": "bernoulli", "q": 0.1},
                {"dist": "poisson", "lambda": 0.05},
                {"dist": "geometric", "q": 0.95},
            ],
        },
        {
            "kind": "independent",
            "marginals": [
                {"dist": "poisson", "lambda": 0.05},
                {"dist": "bernoulli", "q": 0.1},
                {"dist": "bernoulli", "q": 0.05},
            ],
        },
        {
            "kind": "finite",
            "support": [
                {"v": [0, 0, 0], "p": 0.85},
                {"v": [1, 0, 0], "p": 0.05},
                {"v": [0, 1, 1], "p": 0.05},
                {"v": [0, 0, 2], "p": 0.05},
            ],
        },
    ],
    "immigration": {
        "kind": "independent",
        "marginals": [
            {"dist": "poisson", "lambda": 1.0},
            {"dist": "poisson", "lambda": 0.5},
            {"dist": "geometric", "q": 0.5},
        ],
    },
}

# Poisson(a) offspring, Poisson(lam) immigration: stationary mean lam/(1-a).
BIGPOP_A = 0.5
BIGPOP_LAM = 1000.0
BIGPOP = {
    "p": 1,
    "offspring": [{"kind": "independent", "marginals": [{"dist": "poisson", "lambda": BIGPOP_A}]}],
    "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": BIGPOP_LAM}]},
}

CLT_INAR = {"n": 200, "copies": 50, "grid": (0.5, 1.0), "reps": 30}
CLT_GRID = {
    "n": 80,
    "copies": 2,
    "grid": tuple(0.5 + k / 16.0 for k in range(9)),
    "reps": 200,
    "burnin": 20,
}
CLT = {"clt-inar": CLT_INAR, "clt-grid": CLT_GRID}
LONGPATH = {"n": 10000, "lags": (0, 1, 2, 3, 4, 5)}
MOMENTS_P = 16
SWEEP_P = (2, 4, 8, 12, 16)


def _marginal(kind, mean):
    if kind == 0:
        return {"dist": "bernoulli", "q": float(mean)}
    if kind == 1:
        return {"dist": "binomial", "n": 2, "q": float(mean / 2.0)}
    if kind == 2:
        return {"dist": "geometric", "q": float(1.0 / (1.0 + mean))}
    return {"dist": "poisson", "lambda": float(mean)}


def random_model(p, seed, rho_cap=0.8):
    """Random subcritical p-type model as JSON, a pure function of (p, seed).

    Every column of the mean matrix sums to less than rho_cap, which bounds
    the spectral radius. Even types have independent marginals (the four
    marginal kinds in turn), odd types a finite table on {0, e_j, 2 e_j}.
    The seed draws the parameters only, so the cost of the exact engine is
    the same for every seed.
    """
    rng = np.random.default_rng([seed, p])
    cap = rho_cap / p
    offspring = []
    for i in range(p):
        means = rng.uniform(0.05 * cap, cap, size=p)
        if i % 2 == 0:
            marginals = [_marginal((i + j) % 4, m) for j, m in enumerate(means)]
            offspring.append({"kind": "independent", "marginals": marginals})
            continue
        steps = 1 + (rng.random(p) < 0.3)
        atoms = [{"v": [0] * p, "p": float(1.0 - np.sum(means / steps))}]
        for j in range(p):
            v = [0] * p
            v[j] = int(steps[j])
            atoms.append({"v": v, "p": float(means[j] / steps[j])})
        offspring.append({"kind": "finite", "support": atoms})
    lams = rng.uniform(0.3, 2.0, size=p)
    immigration = {
        "kind": "independent",
        "marginals": [{"dist": "poisson", "lambda": float(x)} for x in lams],
    }
    return {"p": p, "offspring": offspring, "immigration": immigration}


def model_for(workload, seed):
    if workload == "clt-inar":
        return INAR
    if workload == "clt-grid":
        return GRID3
    if workload == "longpath-bigpop":
        return BIGPOP
    if workload == "moments-p16":
        return random_model(MOMENTS_P, seed)
    raise ValueError("unknown workload %r" % (workload,))


def write_model(workload, seed, workdir):
    path = os.path.join(workdir, "model.json")
    with open(path, "w") as fh:
        json.dump(model_for(workload, seed), fh, indent=1)
    return path


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def pass_ops(workload, model_path, workdir, op_seed):
    """The (kind, argv) operations of one pass, run one after another."""
    out = os.path.join(workdir, "out")
    if workload == "clt-inar":
        c = CLT_INAR
        return [
            ("clt", ["verify", "clt", "--model", model_path, "--n", str(c["n"]),
                     "--copies", str(c["copies"]), "--grid", _floats(c["grid"]),
                     "--reps", str(c["reps"]), "--seed", str(op_seed),
                     "--threads", "1", "--out", out + ".json"]),
        ]
    if workload == "clt-grid":
        c = CLT_GRID
        return [
            ("clt", ["verify", "clt", "--model", model_path, "--n", str(c["n"]),
                     "--copies", str(c["copies"]), "--grid", _floats(c["grid"]),
                     "--reps", str(c["reps"]), "--burnin", str(c["burnin"]),
                     "--seed", str(op_seed), "--threads", "1", "--out", out + ".json"]),
        ]
    if workload == "longpath-bigpop":
        c = LONGPATH
        return [
            ("autocov", ["verify", "autocov", "--model", model_path, "--n", str(c["n"]),
                         "--lags", ",".join(str(k) for k in c["lags"]),
                         "--seed", str(op_seed), "--out", out + ".json"]),
            ("csv", ["simulate", "--model", model_path, "--n", str(c["n"]),
                     "--copies", "1", "--seed", str(op_seed), "--threads", "1",
                     "--out", out + ".csv"]),
        ]
    if workload == "moments-p16":
        return [
            ("moments", ["moments", "--order", "3", "--model", model_path,
                         "--out", out + ".json"]),
        ]
    raise ValueError("unknown workload %r" % (workload,))
