"""The byte ledger: a pre-registered battery of bpagg command lines and the
sha256 of everything each one prints, returns and writes.

    python tests/ledger.py --write      record the battery in tests/ledger.json
    python tests/ledger.py --compare    rerun it and list what moved

Each run is bpagg.cli.main(argv) in this process, from the source tree
this file sits in, inside a fresh directory that holds only the battery's
model files, with COLUMNS=80 so that usage text wraps alike. A run's
record is its exit code and the sha256 of its stdout, of its stderr and of
every file it wrote. The manifest also holds the Python and numpy versions,
since numpy may change a Generator variate between releases, and the
sha256 of every model file. --compare lists each run that moved, by verb
and model, with the parts that moved, and exits 1 if any did.

A change that moves bytes runs --write and commits the manifest, whose
diff is its ledger. To ledger a change against an earlier commit, copy this
file into a checkout of that commit, run --write there, copy the manifest
it writes here and run --compare.

The battery covers every verb and verify experiment in JSON and CSV, to
stdout and to files; the scalar INAR, a two-type model, the benchmark's
3-type GRID3 and BIGPOP, random_model(5, 0), (8, 0) and (16, 3), a
near-critical and a critical model; blocks of both routes, one-copy
windows and windows of many copies, --threads 1 and 2, explicit and
automatic burn-in, and the exit-2 refusals. pytest does not collect this
file; tests/test_ledger.py reruns a slice of it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "ledger.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from bpagg import cli  # noqa: E402

_TWO = {
    "p": 2,
    "offspring": [
        {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.3},
                                              {"dist": "bernoulli", "q": 0.1}]},
        {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.2},
                                              {"dist": "bernoulli", "q": 0.4}]},
    ],
    "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0},
                                                         {"dist": "poisson", "lambda": 2.0}]},
}
_NEAR = {
    "p": 1,
    "offspring": [{"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.97}]}],
    "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]},
}
_CRITICAL = {
    "p": 1,
    "offspring": [{"kind": "independent", "marginals": [{"dist": "point", "c": 1}]}],
    "immigration": {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]},
}
MODELS = {
    "inar": workloads.INAR,
    "two": _TWO,
    "grid3": workloads.GRID3,
    "bigpop": workloads.BIGPOP,
    "rand5": workloads.random_model(5, 0),
    "rand8": workloads.random_model(8, 0),
    "rand16": workloads.random_model(16, 3),
    "near": _NEAR,
    "critical": _CRITICAL,
}


def _runs(model, *argvs):
    """Each argument string with --model <model>.json appended, split."""
    return [(a + " --model %s.json" % model).split() for a in argvs]


_CLT = "verify clt --n 40 --copies 2 --reps 50"
_ITER = "verify iterated --limit-order"
# the battery, pre-registered: argv lists, keyed by " ".join(argv)
BATTERY = (
    _runs("inar", "moments --order 1", "moments --order 2", "moments --order 3 --out r.json",
          "simulate --n 50 --copies 3 --seed 1 --out p.csv",
          "simulate --n 30 --copies 2 --burnin 0 --out p.csv",
          "aggregate --n 40 --copies 50 --grid 0.5,1 --out a.csv",
          "aggregate --n 40 --copies 2 --grid 0.01,1 --out a.csv",
          "aggregate --n 40 --copies 2 --grid 0,0.5,1 --burnin 2 --out a.csv",
          "verify ergodic --n 500 --seed 2", "verify ergodic --n 500 --format csv",
          _CLT, _CLT + " --format csv", _CLT + " --grid 0.01,1 --format csv",
          _CLT + " --grid 0.01,1", _CLT + " --grid 0,1 --format csv",
          _CLT + " --grid 0.25,0.5,1 --seed 5 --out c.json",
          "verify clt --n 200 --copies 50 --grid 0.5,1 --reps 30",
          "verify clt --n 20 --copies 1 --reps 4200 --threads 1 --out c.json",
          "verify clt --n 20 --copies 1 --reps 4200 --threads 2 --out c.json",
          "verify clt --n 200 --copies 50 --reps 4126 --seed 3 --threads 1",
          "verify clt --n 200 --copies 50 --reps 4126 --seed 3 --threads 2",
          _ITER + " N --n 40 --copies 40 --seed 1",
          _ITER + " N --n 40 --copies 40 --format csv",
          _ITER + " n --n 40 --copies 200 --sweep 20,50,200",
          _ITER + " n --n 30 --copies 1 --sweep 2,5",
          _ITER + " N --n 40 --copies 8 --grid 0.05,1",
          _ITER + " N --n 40 --copies 8 --grid 0.05,1 --format csv",
          _ITER + " N --n 40 --copies 8 --sweep 40,80 --grid 0.02,1",
          "verify autocov --n 500 --seed 1", "verify autocov --n 500 --lags 0,2 --format csv",
          "verify innovations --n 2000 --seed 3", "verify innovations --n 2000 --format csv"),
    _runs("two", "moments --order 3",
          "simulate --n 30 --copies 4 --burnin 5 --threads 2 --out p.csv",
          "aggregate --n 30 --copies 7 --grid 0.5,1 --burnin 3 --out a.csv",
          "verify ergodic --n 300 --format csv",
          "verify clt --n 24 --copies 3 --reps 100 --grid 0.25,0.5,1 --seed 21",
          "verify clt --n 30 --copies 4 --reps 60 --burnin 5",
          "verify clt --n 30 --copies 4 --reps 60 --burnin 5 --format csv",
          _ITER + " n --n 20 --copies 30 --sweep 10,30 --grid 0.5,1 --seed 8",
          _ITER + " N --n 30 --copies 6 --burnin 2 --format csv",
          "verify autocov --n 500 --lags 0,1,2",
          "verify innovations --n 2000 --seed 1"),
    _runs("grid3", "moments --order 2",
          "simulate --n 20 --copies 2 --seed 4 --out p.csv",
          "aggregate --n 50 --copies 100000 --grid 0.5,1 --seed 3 --out a.csv",
          "verify ergodic --n 400",
          "verify clt --n 80 --copies 2 --reps 200 --burnin 20"
          " --grid 0.5,0.5625,0.625,0.6875,0.75,0.8125,0.875,0.9375,1",
          "verify clt --n 20 --copies 7 --reps 1400 --seed 3 --threads 1",
          "verify clt --n 20 --copies 7 --reps 1400 --seed 3 --threads 2",
          _ITER + " n --n 20 --copies 1400 --grid 0.5,1 --seed 3 --threads 1",
          _ITER + " n --n 20 --copies 1400 --grid 0.5,1 --seed 3 --threads 2",
          "verify autocov --n 600 --lags 0,1"),
    _runs("bigpop", "simulate --n 3000 --copies 1 --seed 5 --out p.csv",
          "aggregate --n 100 --copies 3 --grid 1 --out a.csv",
          "verify autocov --n 3000 --seed 5",
          "verify clt --n 30 --copies 4 --reps 40"),
    _runs("rand5", "moments --order 3", "simulate --n 10 --copies 3 --out p.csv",
          "aggregate --n 20 --copies 5 --grid 0.5,1 --out a.csv",
          "verify ergodic --n 300 --format csv",
          "verify clt --n 20 --copies 2 --reps 60 --grid 0.5,1",
          _ITER + " N --n 20 --copies 10 --format csv",
          "verify innovations --n 1000"),
    _runs("rand8", "simulate --n 10 --copies 2 --out p.csv",
          "aggregate --n 20 --copies 2 --grid 1 --out a.csv",
          "verify clt --n 20 --copies 2 --reps 540 --seed 3 --threads 1",
          "verify clt --n 20 --copies 2 --reps 540 --seed 3 --threads 2"),
    _runs("rand16", "moments --order 3 --out r.json", "moments --order 1"),
    _runs("near", "simulate --n 200 --copies 1 --seed 2 --out p.csv",
          "aggregate --n 50 --copies 3 --grid 0.5,1 --out a.csv",
          "verify ergodic --n 2000", "verify clt --n 50 --copies 2 --reps 30"),
    # a critical model has no stationary law, which every verb but simulate
    # with an explicit burn-in refuses; then the exit-2 refusals of input
    _runs("critical", "moments --order 1",
          "aggregate --n 5 --copies 2 --grid 1 --out a.csv",
          "simulate --n 5 --copies 2 --burnin 3 --out p.csv",
          "verify clt --n 5 --copies 2 --reps 10",
          _ITER + " N --n 10 --copies 4"),
    _runs("inar", _CLT + " --grid inf", _CLT + " --grid 1,0.5", _CLT + " --grid 1,2",
          _CLT + " --reps 1", _CLT + " --burnin 2.5", "verify clt --n 0 --copies 2 --reps 10",
          _ITER + " N --n 40 --copies 1 --sweep 1", _ITER + " N --n 10 --copies 4 --grid 1.05"
          " --sweep 10,40", "verify autocov --n 10 --lags 9", "verify ergodic --n 1",
          "verify innovations --n 1", "simulate --n 5 --copies 1",
          "aggregate --n 5 --copies 0 --grid 1 --out a.csv", _CLT + " --threads 0",
          "verify clt --n 40 --copies 2 --seed -1", _ITER + " sideways --n 40 --copies 4"),
    [["ginar", "--means", "0.5"], ["ginar", "--means", "0.3,0.2", "--emit-model", "m.json"],
     ["ginar", "--means", "1.2"], ["ginar"], ["nosuchverb"]],
)
BATTERY = [argv for group in BATTERY for argv in group]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _label(argv):
    """(verb, model) of argv: the verb and any verify experiment, and the
    model file's name without .json, or '-'."""
    verb = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
    model = argv[argv.index("--model") + 1][: -len(".json")] if "--model" in argv else "-"
    return verb, model


def _write_models(directory):
    for name, spec in MODELS.items():
        (directory / (name + ".json")).write_text(json.dumps(spec, indent=1))


def run(argv):
    """The record of one run of argv: exit code, sha256 of stdout and stderr,
    and of every file written, by name."""
    old_cwd, old_columns = os.getcwd(), os.environ.get("COLUMNS")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_models(directory)
        inputs = set(os.listdir(directory))
        os.chdir(directory)
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(old_cwd)
            if old_columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = old_columns
        files = {name: _sha((directory / name).read_bytes())
                 for name in sorted(set(os.listdir(directory)) - inputs)}
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def manifest():
    """The battery's manifest: versions, model hashes and one record per run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "models": {name: _sha(json.dumps(spec, indent=1).encode())
                   for name, spec in MODELS.items()},
        "runs": {" ".join(argv): run(argv) for argv in BATTERY},
    }


def compare(old, new):
    """Lines naming what moved from manifest old to manifest new, grouped by
    verb and model; empty when nothing did."""
    lines = []
    for key in ("python", "numpy"):
        if old.get(key) != new[key]:
            lines.append("%s version %s -> %s" % (key, old.get(key), new[key]))
    for name, sha in new["models"].items():
        if old["models"].get(name) != sha:
            lines.append("model %s moved" % name)
    moved = {}
    for key, record in new["runs"].items():
        was = old["runs"].get(key)
        parts = ["new run"] if was is None else [
            part for part in ("exit", "stdout", "stderr", "files") if was[part] != record[part]
        ]
        if parts:
            moved.setdefault(_label(key.split()), []).append("  %s: %s" % (key, ", ".join(parts)))
    for key in old["runs"]:
        if key not in new["runs"]:
            moved.setdefault(_label(key.split()), []).append("  %s: dropped" % key)
    for (verb, model), runs in sorted(moved.items()):
        lines.append("%s on %s:" % (verb, model))
        lines.extend(runs)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the manifest")
    mode.add_argument("--compare", action="store_true", help="list what moved")
    args = parser.parse_args(argv)
    new = manifest()
    if args.write:
        MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
        print("%d runs written to %s" % (len(new["runs"]), MANIFEST))
        return 0
    lines = compare(json.loads(MANIFEST.read_text()), new)
    print("\n".join(lines) if lines else "all %d runs byte-identical" % len(new["runs"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
