"""Batch front end.

Verbs: moments, simulate, aggregate, verify (ergodic, clt, iterated,
autocov, innovations), ginar. Every run with identical arguments, model
file and seed writes identical bytes, whatever --threads says (default 1).
Each verb validates its model at most once, through the moment report
when it needs exact targets, and checks its grid before it simulates.
Exit codes: 0 success, 2 validation or input failure, 3 a verification
experiment ran and failed its bands.
"""

import argparse
import sys

from .ginar import (
    embed,
    characteristic_polynomial,
    ginar_classify,
    ginar_from_means,
    ginar_to_json,
    load_ginar,
    scalar_limit_std,
    v_ginar,
)
from .kronalg import NotSubcriticalError
from .model import json_text, load_model, model_to_json
from .moments import moment_report
from .simulate import (
    SimulationOverflowError,
    _resolve_burnin,
    aggregate,
    aggregates_to_csv,
    paths_to_csv,
    simulate_ensemble,
    write_metadata,
)
from .verify import (
    _innovation_check,
    autocovariance_check,
    clt_covariance_experiment,
    ergodic_check,
    iterated_experiment,
)

__all__ = ["main", "entry"]


def _floats(text):
    return tuple(float(x) for x in text.split(",") if x != "")


def _ints(text):
    return tuple(int(x) for x in text.split(",") if x != "")


def _burnin(text):
    if text == "auto":
        return "auto"
    return int(text)


def _threads(text):
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError("need --threads >= 1, got %d" % threads)
    return threads


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _warn(warnings):
    for text in warnings:
        sys.stderr.write("warning: %s\n" % text)


def _add_common(sub, *, n=False, copies=False, seed=False, burnin=False, threads=False):
    sub.add_argument("--model", required=True, help="model JSON file")
    if n:
        sub.add_argument("--n", type=int, required=True, help="steps per path")
    if copies:
        sub.add_argument("--copies", type=int, required=True, help="ensemble copies")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="master seed")
    if burnin:
        sub.add_argument(
            "--burnin", type=_burnin, default="auto", help="'auto' or an integer"
        )
    if threads:
        sub.add_argument("--threads", type=_threads, default=1, help="worker processes")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bpagg",
        description="stationary moments and aggregation limits of branching "
        "processes with immigration",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    m = verbs.add_parser("moments", help="exact stationary moment report")
    m.add_argument("--order", type=int, default=3, choices=(1, 2, 3))
    _add_common(m)

    s = verbs.add_parser("simulate", help="simulate an ensemble to CSV")
    _add_common(s, n=True, copies=True, seed=True, burnin=True, threads=True)

    a = verbs.add_parser("aggregate", help="scaled centered aggregates to CSV")
    a.add_argument("--grid", type=_floats, required=True, help="comma separated times")
    _add_common(a, n=True, copies=True, seed=True, burnin=True, threads=True)

    v = verbs.add_parser("verify", help="Monte Carlo verification experiments")
    kinds = v.add_subparsers(dest="experiment", required=True)

    ve = kinds.add_parser("ergodic", help="time averages vs exact moments")
    _add_common(ve, n=True, seed=True)
    ve.add_argument("--format", choices=("json", "csv"), default="json")

    vc = kinds.add_parser("clt", help="aggregate covariance and normality")
    vc.add_argument("--reps", type=int, default=200, help="independent replications")
    vc.add_argument("--grid", type=_floats, default=(1.0,))
    _add_common(vc, n=True, copies=True, seed=True, burnin=True, threads=True)
    vc.add_argument("--format", choices=("json", "csv"), default="json")

    vi = kinds.add_parser("iterated", help="iterated-limit covariance trajectory")
    vi.add_argument("--limit-order", choices=("N", "n"), required=True,
                    help="which limit is taken first")
    vi.add_argument("--sweep", type=_ints, default=None,
                    help="outer sweep values (default quarters of the outer size)")
    vi.add_argument("--grid", type=_floats, default=(1.0,))
    _add_common(vi, n=True, copies=True, seed=True, burnin=True, threads=True)
    vi.add_argument("--format", choices=("json", "csv"), default="json")

    va = kinds.add_parser("autocov", help="lagged autocovariances vs exact")
    va.add_argument("--lags", type=_ints, default=(0, 1, 2, 3, 4, 5))
    _add_common(va, n=True, seed=True)
    va.add_argument("--format", choices=("json", "csv"), default="json")

    vn = kinds.add_parser("innovations", help="innovation moment diagnostics")
    _add_common(vn, n=True, seed=True)
    vn.add_argument("--format", choices=("json", "csv"), default="json")

    g = verbs.add_parser("ginar", help="GINAR spec report and embedding")
    g.add_argument("--spec", default=None, help="GINAR spec JSON file")
    g.add_argument("--means", type=_floats, default=None,
                   help="bernoulli offspring means (each <= 1)")
    g.add_argument("--immigration-lambda", type=float, default=1.0,
                   help="poisson immigration mean used with --means")
    g.add_argument("--emit-model", default=None, help="write the embedded model JSON here")
    g.add_argument("--out", default=None, help="report path (default stdout)")
    return parser


def _run_moments(args):
    model = load_model(args.model)
    report = moment_report(model, args.order)
    _emit(report.to_json(), args.out)
    return 0


def _run_simulate(args):
    if args.out is None:
        raise ValueError("simulate needs --out for the paths CSV")
    model = load_model(args.model)
    burn, notes = _resolve_burnin(model, args.burnin, args.copies)
    _warn(notes)
    ens = simulate_ensemble(
        model, args.copies, args.n, args.seed, burnin=burn, threads=args.threads
    )
    paths_to_csv(ens, args.out)
    write_metadata(ens, args.out + ".meta.json")
    return 0


def _run_aggregate(args):
    if args.out is None:
        raise ValueError("aggregate needs --out for the CSV")
    model = load_model(args.model)
    exact = moment_report(model, 1)
    burn, notes = _resolve_burnin(model, args.burnin, args.copies, exact.mean)
    _warn(notes)
    series = aggregate(model, args.copies, args.n, args.seed, args.grid, burn, args.threads)
    aggregates_to_csv(series, args.out)
    return 0


def _run_verify(args):
    model = load_model(args.model)
    if args.experiment == "ergodic":
        report = ergodic_check(model, args.n, args.seed)
    elif args.experiment == "clt":
        report = clt_covariance_experiment(
            model, args.n, args.copies, reps=args.reps, grid=args.grid, seed=args.seed,
            burnin=args.burnin, threads=args.threads,
        )
    elif args.experiment == "iterated":
        order = "N_first" if args.limit_order == "N" else "n_first"
        report = iterated_experiment(
            model, args.n, args.copies, order, sweep=args.sweep, grid=args.grid,
            seed=args.seed, burnin=args.burnin, threads=args.threads,
        )
    elif args.experiment == "autocov":
        report = autocovariance_check(model, args.n, args.lags, args.seed)
    else:
        report = _innovation_check(model, args.n, args.seed)
    if args.format == "csv":  # CSV rows carry no warnings
        _warn(report.warnings)
    _emit(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    return 0 if report.passed else 3


def _run_ginar(args):
    if (args.spec is None) == (args.means is None):
        raise ValueError("give exactly one of --spec or --means")
    if args.spec is not None:
        spec = load_ginar(args.spec)
    else:
        spec = ginar_from_means(args.means, args.immigration_lambda)
    cls = ginar_classify(spec)
    model = embed(spec)
    out = {
        "spec": ginar_to_json(spec),
        "characteristic_polynomial": [float(c) for c in characteristic_polynomial(spec)],
        "rho": cls.rho,
        "regime": cls.regime,
        "primitive": cls.primitive,
    }
    if not cls.primitive:
        out["warning"] = (
            "embedded mean matrix is not primitive (top lag mean is zero?);"
            " limit theorems are stated under primitivity"
        )
    if cls.regime == "subcritical":
        out["V"] = v_ginar(spec).tolist()
        if spec.p == 1:
            std = scalar_limit_std(spec)
            out["scalar_limit_std"] = std
            out["scalar_limit_var"] = std * std
    if args.emit_model is not None:
        with open(args.emit_model, "w") as fh:
            fh.write(json_text(model_to_json(model)))
    _emit(json_text(out), args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {
        "moments": _run_moments,
        "simulate": _run_simulate,
        "aggregate": _run_aggregate,
        "verify": _run_verify,
        "ginar": _run_ginar,
    }
    try:
        return runners[args.verb](args)
    except (ValueError, NotSubcriticalError, SimulationOverflowError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
