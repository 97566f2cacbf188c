"""bpagg benchmark: one workload run, printed as one JSON line.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload clt-inar --seed 1 --seconds 22 --trace 0

Workloads (see workloads.py for why each exists): clt-inar, clt-grid,
longpath-bigpop, moments-p16. The run writes the workload's model file from
--seed, then starts fresh Python processes that import bpagg from ./src:

- SETUP_PROBES set-up-only processes, and
- one measuring process (child.py): set-up, then a closed loop of passes
  over the workload's CLI operations for --seconds, one client, --threads 1,
  BLAS pinned to one thread.

Every operation's output is checked against references that do not use the
code under test (checks.py). An operation fails when it raises, exits 2,
writes a malformed report, or carries an exact target that disagrees with
the reference; a failed Monte Carlo band (exit 3) is counted, not failed.

--trace 0 prints the end-to-end metrics: wall_s (median wall time of a
pass), setup_s (median over every process's set-up) and
peak_rss_mb (the measuring process's peak RSS). Both times are rescaled to
a reference host speed by a calibration job timed during the interval they
measure (hostspeed.py): the shared host changes speed by up to 2x for
minutes at a time, which no run length averages out. --trace 1 alternates
traced and untraced passes and prints the per-layer metrics, including
trace.overhead_s (median traced pass minus median untraced pass, both
rescaled), the layer microbenchmarks and the raw, unscaled host.wall_raw_s
and host.setup_raw_s with the calibration job's time host.cal_us. Other
per-layer times are raw, and spans include the calibration job's share
(about 1% of a pass).

Each run also writes benchmarks/results/<workload>-seed<seed>-trace<t>.json
with provenance, every pass, the layer map and, when traced, the spans.

Not measured: process-pool scaling with --threads > 1, which cannot be
steady on two shared cores; `verify iterated`, which runs the same layers
as clt-inar; and `ginar`, whose cost is negligible.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
# every process of a run must end by then, so the run exits within 180 s
DEADLINE_S = 170

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "model.sample_sum_us.*": "copy_steps_per_s on longpath-bigpop; clt-inar unchanged",
    "simulate.us_per_copy_step, copy_steps, simulate_path.*, simulate_ensemble.s, "
    "aggregate.s, burnin_steps, copy_steps_per_s":
        "wall_s on clt-inar and clt-grid; longpath-bigpop is the bypass",
    "simulate.paths_to_csv.s, simulate.csv_rows_per_s": "wall_s on longpath-bigpop",
    "verify.self_s, bootstrap_resamples, band_checks, band_failures":
        "wall_s on clt-grid, little effect on clt-inar",
    "moments.build_transfer.s, moment_report.s, kronalg.lyapunov_solve.s, "
    "moments.moment_report_s.p*": "wall_s and peak_rss_mb on moments-p16, nothing elsewhere",
    "moments.stationary_moments.calls, noise_matrix.calls, model.validate.*":
        "exact counts for a single-pass moment report; small wall_s share on clt-inar",
    "setup.import_s, setup.load_model_s, cli.self_s": "setup_s on every workload",
    "trace.overhead_s": "traced wall_s minus untraced wall_s",
}

NOISE_NOTE = (
    "On a shared 2-core x86_64 host, 8 back-to-back runs of an identical 60-rep "
    "CLT job took 1.67-2.67 s with wall time close to CPU time. Figures hold "
    "within their bounds only for long runs interleaved across commits, and "
    "only after rescaling to a reference host speed (hostspeed.py); raw times "
    "are kept as raw_wall_s, raw_setup_s and the per-layer host.* metrics."
)


def _fail(msg):
    sys.stderr.write("benchmark error: %s\n" % msg)
    sys.exit(1)


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                sizes["L" + level] = fh.read().strip()
    except OSError:
        pass
    return {k: v for k, v in sizes.items() if k in ("L2", "L3")}


def provenance(root, seed, env):
    import numpy
    from importlib import metadata

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "bpagg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "caches": _cache_sizes(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "noise_note": NOISE_NOTE,
    }


def _child(cmd, env, deadline, result_path):
    """Run one measuring process to completion and read its result."""
    argv = [sys.executable, os.path.join(HERE, "child.py")] + cmd
    argv += ["--result", result_path, "--t0", repr(time.time())]
    try:
        proc = subprocess.run(
            argv, env=env, stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        _fail("measuring process did not end within the run's deadline")
    if proc.returncode != 0:
        _fail("measuring process exited %d" % proc.returncode)
    with open(result_path) as fh:
        return json.load(fh)


def main():
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds <= 0 or args.seconds > 60:
        _fail("--seconds must be in (0, 60]")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bpagg", "__init__.py")):
        _fail("run from the root of a bpagg checkout: %s/bpagg is missing" % src)

    env = dict(os.environ)
    env.update(
        PYTHONPATH=src, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", BPAGG_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(HERE, "work", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(HERE, "results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        model_path = workloads.write_model(args.workload, args.seed, workdir)
        base = ["--workload", args.workload, "--model", model_path,
                "--workdir", workdir, "--seed", str(args.seed)]
        probes = [
            _child(base + ["--setup-only"], env, deadline,
                   os.path.join(workdir, "probe%d.json" % k))["setup"]
            for k in range(SETUP_PROBES)
        ]
        run = _child(
            base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
            env, deadline, os.path.join(workdir, "loop.json"),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups = probes + [run["setup"]]
    expected = os.path.join(src, "bpagg", "__init__.py")
    if any(os.path.realpath(s["bpagg_file"]) != os.path.realpath(expected) for s in setups):
        _fail("bpagg was not imported from %s" % src)

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    untraced = [p["wall_s"] for p in run["passes"] if not p["traced"]]
    if args.trace:
        traced = [p["wall_s"] for p in run["passes"] if p["traced"]]
        values = dict(run["layer"])
        values.update(run["micro"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.load_model_s"] = statistics.median(s["load_model_s"] for s in setups)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["host.wall_raw_s"] = statistics.median(
            p["raw_wall_s"] for p in run["passes"] if not p["traced"])
        values["host.setup_raw_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        values["host.cal_us"] = 1e6 * statistics.median(
            [p["cal_s"] for p in run["passes"]] + [s["cal_s"] for s in setups])
        copy_steps = values["simulate.copy_steps"]
        values["simulate.copy_steps_per_s"] = copy_steps / statistics.median(untraced)
        bands = run["bands_per_pass"]
        for key in ("band_checks", "band_failures", "bootstrap_resamples"):
            values["verify." + key] = statistics.mean(b[key] for b in bands)
        listed = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    correct = run["failed"] == 0 and run["attempted"] >= 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root, args.seed, env),
        "loop": "closed, one client, --threads 1, passes run back to back",
        "layer_map": LAYER_MAP,
        "setups": setups,
        "passes": run["passes"],
        "bands_per_pass": run["bands_per_pass"],
        "errors": run["errors"],
        "metrics": metrics,
    }
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        spans = [dict(zip(("name", "start", "end", "parent", "op", "attrs"), s))
                 for s in run["spans"]]
        with open(os.path.join(results, tag + ".spans.json"), "w") as fh:
            json.dump(spans, fh)
    for err in run["errors"][:20]:
        sys.stderr.write("check failed: %s\n" % err)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
