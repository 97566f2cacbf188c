"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side only: install() replaces the
public functions listed in TRACED with timing wrappers inside every bpagg
module namespace that binds them (for example both bpagg.moments.noise_matrix
and bpagg.verify.noise_matrix), and uninstall() puts the originals back. No
file under src/ is edited. All spans stay in memory until the run ends.
"""

import functools
import importlib
import time

# Functions wrapped, by the module that defines them. The span name is
# "<module>.<function>".
TRACED = {
    "model": ("load_model", "validate"),
    "kronalg": ("lyapunov_solve",),
    "moments": (
        "build_transfer",
        "stationary_moments",
        "noise_matrix",
        "stationary_variance",
        "limit_covariance",
        "moment_report",
    ),
    "simulate": (
        "burnin_auto",
        "simulate_path",
        "simulate_ensemble",
        "aggregate",
        "paths_to_csv",
        "write_metadata",
    ),
    "verify": ("clt_covariance_experiment", "autocovariance_check"),
}
CONSUMERS = ("cli", "model", "kronalg", "moments", "simulate", "verify")


class Tracer:
    """Records (name, start, end, parent, op, attrs) spans in one process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.paused = False
        self._stack = []
        self._saved = []
        self._originals = {}

    def span(self, name, fn, args=(), kwargs=None, attrs=None):
        """Call fn(*args, **kwargs) inside a span and return its result."""
        kwargs = kwargs or {}
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.op, attrs(*args, **kwargs) if attrs else None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        attrs = self._attr_hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self.span(name, fn, args, kwargs, attrs)

        return wrapper

    def _attr_hooks(self):
        burnin_auto = self._originals["simulate.burnin_auto"]

        def path_steps(model, n, rng=None, burnin=None):
            if burnin is None:
                k = 0
            elif burnin == "auto":
                self.paused = True
                try:
                    k = burnin_auto(model)
                finally:
                    self.paused = False
            else:
                k = int(burnin)
            return {"steps": int(n) + k, "burnin": k}

        def csv_rows(ensemble, path):
            return {"rows": int(ensemble.N * (ensemble.n + 1))}

        return {"simulate.simulate_path": path_steps, "simulate.paths_to_csv": csv_rows}

    def install(self):
        mods = {m: importlib.import_module("bpagg." + m) for m in CONSUMERS}
        if not self._originals:
            for layer, names in TRACED.items():
                for name in names:
                    self._originals[layer + "." + name] = getattr(mods[layer], name)
        for full, fn in self._originals.items():
            wrapper = self._wrap(full, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


def summarize(spans):
    """Per span name: call count, inclusive seconds, self seconds, attr sums.

    Self time is the span's duration minus the durations of its direct
    children; spans of one process never overlap their siblings.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for sid, (name, start, end, parent, op, attrs) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": {}})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_time[sid]
        for key, value in (attrs or {}).items():
            s["attrs"][key] = s["attrs"].get(key, 0) + value
    return out


def layer_metrics(spans, passes):
    """Per-layer metrics per traced pass, from the spans of those passes."""
    summary = summarize(spans)

    def get(name, key="s"):
        return summary.get(name, {}).get(key, 0.0) / passes

    def attr(name, key):
        return summary.get(name, {}).get("attrs", {}).get(key, 0) / passes

    steps = attr("simulate.simulate_path", "steps")
    path_s = get("simulate.simulate_path")
    return {
        "simulate.us_per_copy_step": 1e6 * path_s / steps if steps else 0.0,
        "simulate.copy_steps": steps,
        "simulate.burnin_steps": attr("simulate.simulate_path", "burnin"),
        "simulate.simulate_path.calls": get("simulate.simulate_path", "calls"),
        "simulate.simulate_path.s": path_s,
        "simulate.simulate_ensemble.s": get("simulate.simulate_ensemble"),
        "simulate.aggregate.s": get("simulate.aggregate"),
        "simulate.paths_to_csv.s": get("simulate.paths_to_csv"),
        "verify.self_s": sum(
            v["self_s"] for k, v in summary.items() if k.startswith("verify.")
        ) / passes,
        "moments.build_transfer.s": get("moments.build_transfer"),
        "moments.moment_report.s": get("moments.moment_report"),
        "kronalg.lyapunov_solve.s": get("kronalg.lyapunov_solve"),
        "moments.stationary_moments.calls": get("moments.stationary_moments", "calls"),
        "moments.noise_matrix.calls": get("moments.noise_matrix", "calls"),
        "model.validate.calls": get("model.validate", "calls"),
        "model.validate.s": get("model.validate"),
        "cli.self_s": get("cli.main", "self_s"),
    }
