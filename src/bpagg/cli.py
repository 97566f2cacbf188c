"""Batch front end.

Verbs: moments, simulate, aggregate, verify (ergodic, clt, iterated,
autocov, innovations), ginar. Every run with identical arguments, model
file and seed writes identical bytes, whatever --threads says (default 1).
Each verb classifies its model at most once (the model keeps its
classification), and checks its grid before it simulates.
Exit codes: 0 success, 2 validation or input failure, 3 a verification
experiment ran and failed its bands.

Every option is declared once, in _OPTIONS, and every verb and verify
experiment is one row of _VERBS or _EXPERIMENTS: its help, the options it
takes in usage order, and its runner. The five experiments share one
runner, _run_verify, and each experiment's row only maps the parsed
arguments to its verify call.

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


# name: (flag, argparse keywords); options that share a flag but differ
# in what they take are separate entries
_OPTIONS = {
    "order": ("--order", dict(type=int, default=3, choices=(1, 2, 3))),
    "model": ("--model", dict(required=True, help="model JSON file")),
    "n": ("--n", dict(type=int, required=True, help="steps per path")),
    "copies": ("--copies", dict(type=int, required=True, help="ensemble copies")),
    "seed": ("--seed", dict(type=_at_least("--seed", 0), default=0, help="master seed")),
    "burnin": ("--burnin", dict(type=_burnin, default="auto", help="'auto' or an integer")),
    "threads": ("--threads", dict(type=_at_least("--threads", 1), default=1,
                                  help="worker processes")),
    "out": ("--out", dict(help="output path (default stdout)")),
    "format": ("--format", dict(choices=("json", "csv"), default="json")),
    "aggregate-grid": ("--grid", dict(type=_floats, required=True,
                                      help="comma separated times")),
    "grid": ("--grid", dict(type=_floats, default=(1.0,))),
    "reps": ("--reps", dict(type=int, default=200, help="independent replications")),
    "limit-order": ("--limit-order", dict(choices=("N", "n"), required=True,
                                          help="which limit is taken first")),
    "sweep": ("--sweep", dict(type=_ints,
                              help="outer sweep values (default quarters of the outer size)")),
    "lags": ("--lags", dict(type=_ints, default=(0, 1, 2, 3, 4, 5))),
    "spec": ("--spec", dict(help="GINAR spec JSON file")),
    "means": ("--means", dict(type=_floats, help="bernoulli offspring means (each <= 1)")),
    "immigration-lambda": ("--immigration-lambda", dict(
        type=float, default=1.0, help="poisson immigration mean used with --means")),
    "emit-model": ("--emit-model", dict(help="write the embedded model JSON here")),
    "report": ("--out", dict(help="report path (default stdout)")),
}


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
    values = simulate.aggregate(model, args.copies, args.n, args.seed, args.grid, burn)[0]
    simulate.aggregates_to_csv(args.grid, values, args.out)
    return 0


def _run_verify(args):
    """Every experiment: its row's verify call, then the report in --format."""
    from . import verify

    model = load_model(args.model)
    report = _EXPERIMENTS[args.experiment][2](verify, model, args)
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


# name: (help, its options in usage order, runner); a verify experiment's
# runner is handed the verify module, the model and the parsed arguments
_EXPERIMENTS = {
    "ergodic": ("time averages vs exact moments", "model n seed out format",
                lambda verify, model, a: verify.ergodic_check(model, a.n, a.seed)),
    "clt": ("aggregate covariance and normality",
            "reps grid model n copies seed burnin threads out format",
            lambda verify, model, a: verify.clt_covariance_experiment(
                model, a.n, a.copies, reps=a.reps, grid=a.grid, seed=a.seed,
                burnin=a.burnin, threads=a.threads)),
    "iterated": ("iterated-limit covariance trajectory",
                 "limit-order sweep grid model n copies seed burnin threads out format",
                 lambda verify, model, a: verify.iterated_experiment(
                     model, a.n, a.copies, a.limit_order + "_first", sweep=a.sweep,
                     grid=a.grid, seed=a.seed, burnin=a.burnin, threads=a.threads)),
    "autocov": ("lagged autocovariances vs exact", "lags model n seed out format",
                lambda verify, model, a: verify.autocovariance_check(
                    model, a.n, a.lags, a.seed)),
    "innovations": ("innovation moment diagnostics", "model n seed out format",
                    lambda verify, model, a: verify._innovation_check(model, a.n, a.seed)),
}
# as _EXPERIMENTS; verify's options are the table of its experiments
_VERBS = {
    "moments": ("exact stationary moment report", "order model out", _run_moments),
    "simulate": ("simulate an ensemble to CSV", "model n copies seed burnin threads out",
                 _run_simulate),
    "aggregate": ("scaled centered aggregates to CSV",
                  "aggregate-grid model n copies seed burnin out", _run_aggregate),
    "verify": ("Monte Carlo verification experiments", _EXPERIMENTS, _run_verify),
    "ginar": ("GINAR spec report and embedding",
              "spec means immigration-lambda emit-model report", _run_ginar),
}


def _add_choices(parser, dest, table, names):
    """One sub-parser under dest for every entry of table, or, when names
    starts with an entry's name, for that entry alone; the usage line names
    every entry either way."""
    only = names[0] if names else None
    metavar = None if only is None else "{%s}" % ",".join(table)
    subs = parser.add_subparsers(dest=dest, required=True, metavar=metavar)
    for name, (text, options, _) in table.items():
        if only in (None, name):
            sub = subs.add_parser(name, help=text)
            if isinstance(options, dict):
                _add_choices(sub, "experiment", options, names[1:])
            else:
                for option in options.split():
                    flag, keywords = _OPTIONS[option]
                    sub.add_argument(flag, **keywords)


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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return _VERBS[args.verb][2](args)
    except (ValueError, SimulationOverflowError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
