"""The benchmark harness binds bpagg names by string and by import; every one
of them must still exist, or `benchmarks/run.py --trace 1` breaks silently."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

from bpagg import simulate, verify
from conftest import build_scalar_inar, build_two_type

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bpagg_names(path):
    """(module, attribute) pairs a file takes from bpagg: `from bpagg.x import
    a`, and `m.a` after `import bpagg` or `from bpagg import x as m`."""
    tree = ast.parse(path.read_text())
    aliases, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bpagg"):
            for a in node.names:
                sub = node.module + "." + a.name
                if node.module == "bpagg" and importlib.util.find_spec(sub):
                    aliases[a.asname or a.name] = sub
                else:
                    used.add((node.module, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "bpagg":
                    aliases[a.asname or a.name] = "bpagg"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases and not node.attr.startswith("__"):
                used.add((aliases[node.value.id], node.attr))
    return used


def test_traced_names_exist():
    for layer, names in _load("tracing").TRACED.items():
        module = importlib.import_module("bpagg." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "bpagg.%s.%s" % (layer, name)


@pytest.mark.parametrize("script", ["child", "microbench"])
def test_imported_names_exist(script):
    used = _bpagg_names(BENCH / (script + ".py"))
    assert used, script
    for module_name, attr in sorted(used):
        module = importlib.import_module(module_name)
        assert hasattr(module, attr), "%s.%s" % (module_name, attr)


def test_tracer_hooks_bind_like_the_traced_functions():
    # each attribute hook is called with the arguments of the function it
    # traces, so it must take the same parameters and read what exists
    tracer = _load("tracing").Tracer()
    tracer._originals["simulate.burnin_auto"] = simulate.burnin_auto
    hooks = tracer._attr_hooks()
    assert hooks
    for full, hook in hooks.items():
        layer, name = full.split(".")
        real = inspect.signature(getattr(importlib.import_module("bpagg." + layer), name))
        params = inspect.signature(hook).parameters
        assert list(params) == list(real.parameters), full
        required = [p for p, v in real.parameters.items() if v.default is v.empty]
        inspect.signature(hook).bind(*required)
        inspect.signature(hook).bind(**{p: p for p in real.parameters})
    model = build_scalar_inar()
    burn = simulate.burnin_auto(model)
    assert hooks["simulate.simulate_path"](model, 10, None, "auto") == {
        "steps": 10 + burn, "burnin": burn
    }
    ens = simulate.simulate_ensemble(model, 2, 5, 0, burnin=3)
    assert hooks["simulate.paths_to_csv"](ens, "unused.csv") == {"rows": 12}


def test_tracer_path_steps_are_the_steps_simulate_path_runs(monkeypatch):
    hook = _load("tracing").Tracer()
    hook._originals["simulate.burnin_auto"] = simulate.burnin_auto
    path_steps = hook._attr_hooks()["simulate.simulate_path"]
    seen = []
    real = simulate._simulate_block

    def record(model, copies, n, rng, burnin, *args):
        seen.append(n + burnin)
        return real(model, copies, n, rng, burnin, *args)

    monkeypatch.setattr(simulate, "_simulate_block", record)
    for model in (build_scalar_inar(), build_two_type()):
        del seen[:]
        simulate.simulate_path(model, 10, simulate.stream_rng(0), burnin="auto")
        assert seen == [path_steps(model, 10, None, "auto")["steps"]]


def test_experiments_step_their_ensembles_inside_aggregate_spans():
    # verify clt steps one ensemble and verify iterated one per sweep point,
    # each through simulate.aggregate, so a traced run charges the stepping
    # to that span and not to the experiment's self time
    tracer = _load("tracing").Tracer()
    model = build_scalar_inar()
    tracer.install()
    try:
        verify.clt_covariance_experiment(model, 10, 4, reps=5, seed=1)
        tracer.span("verify.iterated_experiment", verify.iterated_experiment,
                    (model, 10, 4, "N_first"), {"sweep": [3, 6, 10], "seed": 1})
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    for experiment, count in (("clt_covariance_experiment", 1), ("iterated_experiment", 3)):
        [sid] = [k for k, name in enumerate(names) if name == "verify." + experiment]
        under = [span for span in tracer.spans if span[3] == sid]
        assert [span[0] for span in under].count("simulate.aggregate") == count, experiment
    assert names.count("simulate.aggregate") == 4
