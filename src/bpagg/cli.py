"""Batch front end.

Verbs: moments, simulate, aggregate, verify (ergodic, clt, iterated,
autocov, innovations), ginar. Every run with identical arguments, model
file and seed writes identical bytes, whatever --threads says (default 1).
Each verb classifies its model at most once (the model keeps its
classification), and checks its grid before it simulates.
Exit codes: 0 success, 2 validation or input failure, 3 a verification
experiment ran and failed its bands.

A verb imports the modules it runs only when it runs: moments the moment
engine, simulate and aggregate the simulator, verify the experiments (which
import both), ginar the GINAR module. Each runner calls its callees as
attributes of their defining module (moments.moment_report, ...), so a
patch there is the one that takes effect.
"""

import argparse
import sys

from .model import SimulationOverflowError, json_text, load_model, model_to_json

__all__ = ["main", "entry"]


def _read(kind, text, need):
    """kind(text), or the argparse error that says what the option needs."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError("need %s, got %r" % (need, text)) from None


def _floats(text):
    return tuple(_read(float, x, "comma separated numbers") for x in text.split(",") if x)


def _ints(text):
    return tuple(_read(int, x, "comma separated integers") for x in text.split(",") if x)


def _burnin(text):
    return "auto" if text == "auto" else _read(int, text, "'auto' or an integer")


def _at_least(option, low):
    """An argparse type that reads option's value, an integer >= low."""

    def parse(text):
        value = _read(int, text, "an integer >= %d" % low)
        if value < low:
            raise argparse.ArgumentTypeError("need %s >= %d, got %d" % (option, low, value))
        return value

    return parse


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
        sub.add_argument("--seed", type=_at_least("--seed", 0), default=0, help="master seed")
    if burnin:
        sub.add_argument(
            "--burnin", type=_burnin, default="auto", help="'auto' or an integer"
        )
    if threads:
        sub.add_argument("--threads", type=_at_least("--threads", 1), default=1,
                         help="worker processes")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_moments(sub):
    sub.add_argument("--order", type=int, default=3, choices=(1, 2, 3))
    _add_common(sub)


def _add_simulate(sub):
    _add_common(sub, n=True, copies=True, seed=True, burnin=True, threads=True)


def _add_aggregate(sub):
    sub.add_argument("--grid", type=_floats, required=True, help="comma separated times")
    _add_common(sub, n=True, copies=True, seed=True, burnin=True, threads=True)


def _add_ergodic(sub):
    _add_common(sub, n=True, seed=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_clt(sub):
    sub.add_argument("--reps", type=int, default=200, help="independent replications")
    sub.add_argument("--grid", type=_floats, default=(1.0,))
    _add_common(sub, n=True, copies=True, seed=True, burnin=True, threads=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_iterated(sub):
    sub.add_argument("--limit-order", choices=("N", "n"), required=True,
                     help="which limit is taken first")
    sub.add_argument("--sweep", type=_ints, default=None,
                     help="outer sweep values (default quarters of the outer size)")
    sub.add_argument("--grid", type=_floats, default=(1.0,))
    _add_common(sub, n=True, copies=True, seed=True, burnin=True, threads=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_autocov(sub):
    sub.add_argument("--lags", type=_ints, default=(0, 1, 2, 3, 4, 5))
    _add_common(sub, n=True, seed=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_innovations(sub):
    _add_common(sub, n=True, seed=True)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_ginar(sub):
    sub.add_argument("--spec", default=None, help="GINAR spec JSON file")
    sub.add_argument("--means", type=_floats, default=None,
                     help="bernoulli offspring means (each <= 1)")
    sub.add_argument("--immigration-lambda", type=float, default=1.0,
                     help="poisson immigration mean used with --means")
    sub.add_argument("--emit-model", default=None, help="write the embedded model JSON here")
    sub.add_argument("--out", default=None, help="report path (default stdout)")


# name: (help, function that adds its arguments or table of its own
# sub-parsers), in usage order
_EXPERIMENTS = {
    "ergodic": ("time averages vs exact moments", _add_ergodic),
    "clt": ("aggregate covariance and normality", _add_clt),
    "iterated": ("iterated-limit covariance trajectory", _add_iterated),
    "autocov": ("lagged autocovariances vs exact", _add_autocov),
    "innovations": ("innovation moment diagnostics", _add_innovations),
}
_VERBS = {
    "moments": ("exact stationary moment report", _add_moments),
    "simulate": ("simulate an ensemble to CSV", _add_simulate),
    "aggregate": ("scaled centered aggregates to CSV", _add_aggregate),
    "verify": ("Monte Carlo verification experiments", _EXPERIMENTS),
    "ginar": ("GINAR spec report and embedding", _add_ginar),
}


def _add_choices(parser, dest, table, names):
    """One sub-parser under dest for every entry of table, or, when names
    starts with an entry's name, for that entry alone; the usage line names
    every entry either way."""
    only = names[0] if names else None
    metavar = None if only is None else "{%s}" % ",".join(table)
    subs = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name, (text, add) in table.items():
        if only in (None, name):
            sub = subs.add_parser(name, help=text)
            if isinstance(add, dict):
                _add_choices(sub, "experiment", add, names[1:])
            else:
                add(sub)


def _named(argv, table):
    """The names that argv starts with, down to a sub-parser that takes
    arguments, or () when argv does not name one."""
    entry = table.get(argv[0]) if argv else None
    if entry is None:
        return ()
    if isinstance(entry[1], dict):
        rest = _named(argv[1:], entry[1])
        return (argv[0],) + rest if rest else ()
    return (argv[0],)


def build_parser(argv=None):
    """The bpagg parser. Given the argv it will parse, only the sub-parser of
    the verb (and verify experiment) that argv names is built; without argv,
    or when argv names no known verb and experiment, every sub-parser is.
    Usage, help and error text are the same either way."""
    parser = argparse.ArgumentParser(
        prog="bpagg",
        description="stationary moments and aggregation limits of branching "
        "processes with immigration",
    )
    _add_choices(parser, "verb", _VERBS, _named(argv, _VERBS))
    return parser


def _run_moments(args):
    from . import moments

    model = load_model(args.model)
    report = moments.moment_report(model, args.order)
    _emit(report.to_json(), args.out)
    return 0


def _run_simulate(args):
    from . import simulate

    if args.out is None:
        raise ValueError("simulate needs --out for the paths CSV")
    model = load_model(args.model)
    burn, notes = simulate._resolve_burnin(model, args.burnin, args.copies)
    _warn(notes)
    ens = simulate.simulate_ensemble(model, args.copies, args.n, args.seed, burn, args.threads)
    simulate.paths_to_csv(ens, args.out)
    simulate.write_metadata(ens, args.out + ".meta.json")
    return 0


def _run_aggregate(args):
    from . import simulate

    if args.out is None:
        raise ValueError("aggregate needs --out for the CSV")
    model = load_model(args.model)
    burn, notes = simulate._resolve_burnin(model, args.burnin, args.copies)
    _warn(notes)
    # one chain is one block, so --threads changes nothing here
    values = simulate.aggregate(model, args.copies, args.n, args.seed, args.grid, burn)[0]
    simulate.aggregates_to_csv(args.grid, values, args.out)
    return 0


def _run_verify(args):
    from . import verify

    model = load_model(args.model)
    if args.experiment == "ergodic":
        report = verify.ergodic_check(model, args.n, args.seed)
    elif args.experiment == "clt":
        report = verify.clt_covariance_experiment(
            model, args.n, args.copies, reps=args.reps, grid=args.grid, seed=args.seed,
            burnin=args.burnin, threads=args.threads,
        )
    elif args.experiment == "iterated":
        order = "N_first" if args.limit_order == "N" else "n_first"
        report = verify.iterated_experiment(
            model, args.n, args.copies, order, sweep=args.sweep, grid=args.grid,
            seed=args.seed, burnin=args.burnin, threads=args.threads,
        )
    elif args.experiment == "autocov":
        report = verify.autocovariance_check(model, args.n, args.lags, args.seed)
    else:
        report = verify._innovation_check(model, args.n, args.seed)
    if args.format == "csv":  # CSV rows carry no warnings
        _warn(report.warnings)
    _emit(report.to_json() if args.format == "json" else report.to_csv(), args.out)
    return 0 if report.passed else 3


def _run_ginar(args):
    from . import ginar

    if (args.spec is None) == (args.means is None):
        raise ValueError("give exactly one of --spec or --means")
    if args.spec is not None:
        spec = ginar.load_ginar(args.spec)
    else:
        spec = ginar.ginar_from_means(args.means, args.immigration_lambda)
    cls = ginar.ginar_classify(spec)
    model = ginar.embed(spec)
    out = {
        "spec": ginar.ginar_to_json(spec),
        "characteristic_polynomial": [float(c) for c in ginar.characteristic_polynomial(spec)],
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
        out["V"] = ginar.v_ginar(spec).tolist()
        if spec.p == 1:
            std = ginar.scalar_limit_std(spec)
            out["scalar_limit_std"] = std
            out["scalar_limit_var"] = std * std
    if args.emit_model is not None:
        with open(args.emit_model, "w") as fh:
            fh.write(json_text(model_to_json(model)))
    _emit(json_text(out), args.out)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    runners = {
        "moments": _run_moments,
        "simulate": _run_simulate,
        "aggregate": _run_aggregate,
        "verify": _run_verify,
        "ginar": _run_ginar,
    }
    try:
        return runners[args.verb](args)
    except (ValueError, SimulationOverflowError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
