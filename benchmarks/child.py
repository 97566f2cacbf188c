"""One workload run in a fresh process: set-up, then a closed loop of passes.

Set-up is process start through ``import bpagg``, the model load and
``validate``, without the calibration's own time; the parent passes the
wall-clock time at which it started this process. Like a pass, it is
rescaled to the reference host speed by the calibration job sampled while
it runs (``raw_setup_s`` before rescaling; see hostspeed.py).

The loop has one client: each pass runs the workload's CLI operations one
after another through ``bpagg.cli.main`` (``--threads 1``),
and a new pass starts only while the measuring time is not used up. Outputs
are checked after each pass, outside the timed region. While a pass runs,
hostspeed.Sampler times the calibration job; a pass's ``wall_s`` is its
wall time without the sampler's own time, rescaled to the reference host
speed, and ``raw_wall_s`` the same before rescaling.

With --trace 1 odd passes are traced and even passes are not, so the trace
overhead comes from the same process; the layer microbenchmarks follow.
The result goes to --result as JSON.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _setup(args, sampler):
    """Import bpagg, load and validate the model, with the sampler running."""
    sampler.start()
    t0 = time.perf_counter()
    import bpagg

    t1 = time.perf_counter()
    model = bpagg.load_model(args.model)
    t2 = time.perf_counter()
    bpagg.validate(model)
    t3 = time.perf_counter()
    sampler.stop()
    end = time.time()
    return {
        "import_s": t1 - t0,
        "load_model_s": t2 - t1,
        "validate_s": t3 - t2,
        "bpagg_file": bpagg.__file__,
    }, end


def _out(argv):
    return argv[argv.index("--out") + 1]


def _check_pass(workload, ops, rcs, ref, errors):
    """Check each operation's output; returns per-op failure flags and band counts."""
    import checks

    failed = []
    bands = {"band_checks": 0, "band_failures": 0, "bootstrap_resamples": 0}
    for (kind, argv), rc in zip(ops, rcs):
        try:
            errs, counts = checks.check_op(workload, kind, _out(argv), rc, ref)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errs, counts = ["malformed output: %s: %s" % (type(exc).__name__, exc)], None
        for key, value in (counts or {}).items():
            bands[key] += value
        errors.extend("%s: %s" % (kind, e) for e in errs)
        failed.append(bool(errs))
    return failed, bands


def _run_op(argv, tracer):
    """Run one CLI operation; an exception counts as exit code None."""
    from bpagg.cli import main

    try:
        if tracer is None:
            return main(argv)
        return tracer.span("cli.main", main, (argv,))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _calibrated(sampler, calibration):
    """Mean seconds per calibration job in the sampled interval."""
    if sampler.jobs:
        return sampler.job_s / sampler.jobs
    return calibration.block()


def _loop(args, model_json, result, calibration, sampler):
    import checks
    import hostspeed
    import tracing
    import workloads

    ref = checks.reference(args.workload, model_json)
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    errors = []
    attempted = failed = 0
    band_totals = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline or i < (2 if args.trace else 1):
        traced = bool(args.trace) and i % 2 == 1
        ops = workloads.pass_ops(args.workload, args.model, args.workdir, args.seed * 1000 + i)
        for _, argv in ops:
            if os.path.exists(_out(argv)):
                os.remove(_out(argv))
        if traced:
            tracer.install()
        rcs = []
        sampler.start()
        c0 = time.process_time()
        t0 = time.perf_counter()
        for k, (kind, argv) in enumerate(ops):
            if traced:
                tracer.op = "%d.%d" % (i, k)
            rcs.append(_run_op(argv, tracer if traced else None))
        sampler.stop()
        wall = time.perf_counter() - t0 - sampler.handler_s
        cpu = time.process_time() - c0 - sampler.handler_s
        if traced:
            tracer.uninstall()
        cal_s = _calibrated(sampler, calibration)
        bad, bands = _check_pass(args.workload, ops, rcs, ref, errors)
        attempted += len(ops)
        failed += sum(bad)
        passes.append({
            "wall_s": hostspeed.rescale(wall, cal_s), "raw_wall_s": wall, "cpu_s": cpu,
            "cal_s": cal_s, "cal_jobs": sampler.jobs, "traced": traced, "rcs": rcs,
        })
        band_totals.append(bands)
        i += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["passes"] = passes
    result["bands_per_pass"] = band_totals

    if model_json["p"] <= 3:
        # mean, V, var0 and sigma, which the reports above do not carry
        from bpagg.model import model_from_json
        from bpagg.moments import moment_report

        attempted += 1
        try:
            report = moment_report(model_from_json(model_json), 2).to_json_dict()
            errs = checks.check_moment_values(report, ref)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            errs = ["raised %s: %s" % (type(exc).__name__, exc)]
        errors.extend("moment_report: %s" % e for e in errs)
        failed += bool(errs)
    result.update(attempted=attempted, failed=failed, errors=errors)

    if args.trace:
        import microbench

        traced_passes = sum(p["traced"] for p in passes)
        result["layer"] = tracing.layer_metrics(tracer.spans, traced_passes)
        result["spans"] = tracer.spans
        result["micro"] = {}
        result["micro"].update(microbench.sample_sum_us(args.seed))
        result["micro"].update(microbench.csv_rows_per_s(args.seed, args.workdir))
        result["micro"].update(microbench.moment_report_sweep(args.seed))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--model", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # numpy, which the calibration job needs, is part of bpagg's own import
    # cost, so it is imported inside the set-up time but before sampling.
    import hostspeed

    t0 = time.perf_counter()
    calibration = hostspeed.Calibration()
    sampler = hostspeed.Sampler(calibration)
    own_s = time.perf_counter() - t0
    setup, end = _setup(args, sampler)
    raw = end - args.t0 - own_s - sampler.handler_s
    cal_s = _calibrated(sampler, calibration)
    setup.update(
        setup_s=hostspeed.rescale(raw, cal_s), raw_setup_s=raw, cal_s=cal_s,
        cal_jobs=sampler.jobs,
    )
    result = {"setup": setup}
    if not args.setup_only:
        with open(args.model) as fh:
            model_json = json.load(fh)
        _loop(args, model_json, result, calibration, sampler)
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)


if __name__ == "__main__":
    main()
