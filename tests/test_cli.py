import collections
import dataclasses
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bpagg.cli as cli
import bpagg.ginar
import bpagg.model
import bpagg.moments
import bpagg.simulate
import bpagg.verify
from bpagg.cli import main
from bpagg.model import model_from_json, model_to_json
from bpagg.simulate import burnin_auto
from bpagg.verify import VerificationReport
from conftest import build_deterministic, build_scalar_inar, build_two_type
from bpagg.model import (
    Bernoulli,
    Binomial,
    BranchingModel,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Point,
    Poisson,
)


@pytest.fixture
def scalar_file(tmp_path):
    f = tmp_path / "scalar.json"
    f.write_text(json.dumps(model_to_json(build_scalar_inar())))
    return str(f)


@pytest.fixture
def two_type_file(tmp_path):
    f = tmp_path / "two.json"
    f.write_text(json.dumps(model_to_json(build_two_type())))
    return str(f)


def test_moments_stdout(scalar_file, capsys):
    assert main(["moments", "--model", scalar_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == [2.0]
    assert payload["kron2"] == [6.0]
    assert payload["kron3"][0] == pytest.approx(22.0)
    assert payload["V"] == [[1.5]]
    assert payload["varX0"] == [[2.0]]
    assert payload["sigma"] == [[6.0]]
    assert payload["rho"] == 0.5


def test_moments_order_two_and_out_file(scalar_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["moments", "--model", scalar_file, "--order", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kron3"] is None
    assert payload["kron2"] == [6.0]


def test_moments_critical_model_exits_two(tmp_path, capsys):
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    f = tmp_path / "crit.json"
    f.write_text(json.dumps(model_to_json(crit)))
    assert main(["moments", "--model", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_model_file_exits_two(tmp_path, capsys):
    assert main(["moments", "--model", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_writes_csv_and_metadata(scalar_file, tmp_path):
    out = tmp_path / "paths.csv"
    code = main(
        [
            "simulate", "--model", scalar_file, "--n", "5", "--copies", "2",
            "--seed", "3", "--burnin", "0", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "copy,k,x_1"
    assert len(lines) == 1 + 2 * 6
    meta = json.loads((tmp_path / "paths.csv.meta.json").read_text())
    assert meta["copies"] == 2 and meta["steps"] == 5 and meta["master_seed"] == 3


def test_simulate_requires_out(scalar_file, capsys):
    code = main(
        ["simulate", "--model", scalar_file, "--n", "5", "--copies", "1"]
    )
    assert code == 2
    assert "out" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb", [["simulate"], ["aggregate", "--grid", "1.0"]], ids=["simulate", "aggregate"]
)
def test_missing_out_fails_before_simulating(scalar_file, capsys, monkeypatch, verb):
    calls = []
    monkeypatch.setattr(bpagg.simulate, "_run_blocks", lambda *a, **k: calls.append(a))
    code = main(verb + ["--model", scalar_file, "--n", "5", "--copies", "1"])
    assert code == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []


def test_auto_burnin_ceiling_exits_two(tmp_path, capsys):
    near = BranchingModel(
        1, (IndependentMarginals([Bernoulli(1.0 - 1e-8)]),), IndependentMarginals([Poisson(1.0)])
    )
    f = tmp_path / "near.json"
    f.write_text(json.dumps(model_to_json(near)))
    code = main(["simulate", "--model", str(f), "--n", "5", "--copies", "1",
                 "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "rho" in err and "--burnin K" in err


@pytest.mark.parametrize("copies", ["1", "2"])
def test_int64_product_overflow_exits_two(tmp_path, capsys, copies):
    # binomial(2^40, 2^-42) offspring of 2^30 immigrants needs binomial(2^70, q)
    model = BranchingModel(
        1,
        (IndependentMarginals([Binomial(2 ** 40, 2.0 ** -42)]),),
        IndependentMarginals([Point(2 ** 30)]),
    )
    f = tmp_path / "big.json"
    f.write_text(json.dumps(model_to_json(model)))
    code = main(["simulate", "--model", str(f), "--n", "5", "--copies", copies,
                 "--burnin", "0", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize("copies", ["1", "2"])
def test_runaway_geometric_offspring_exits_two(tmp_path, capsys, copies):
    # geometric(1e-20) broods have mean 1e20: the first offspring draw needs a
    # Poisson rate beyond what numpy can draw, and the run stops with a message
    model = BranchingModel(
        1, (IndependentMarginals([Geometric(1e-20)]),), IndependentMarginals([Poisson(5.0)])
    )
    f = tmp_path / "runaway.json"
    f.write_text(json.dumps(model_to_json(model)))
    code = main(["simulate", "--model", str(f), "--n", "5", "--copies", copies,
                 "--burnin", "0", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err


def test_law_constant_beyond_int64_exits_two(tmp_path, capsys):
    # a point mass of 2^63 cannot be drawn as an int64 count
    spec = {
        "p": 1,
        "offspring": [{"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}],
        "immigration": {"kind": "independent", "marginals": [{"dist": "point", "c": 2 ** 63}]},
    }
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(spec))
    out = tmp_path / "p.csv"
    code = main(["simulate", "--model", str(f), "--n", "5", "--copies", "1", "--out", str(out)])
    assert code == 2
    assert "2^63" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_rows(two_type_file, tmp_path):
    out = tmp_path / "agg.csv"
    code = main(
        [
            "aggregate", "--model", two_type_file, "--n", "40", "--copies", "3",
            "--grid", "0.5,1.0", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,s_1,s_2"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.5


def test_aggregate_writes_the_exact_values(tmp_path):
    # from zero X_1 = (2, 3), then X_k = (2, 5), the stationary mean: each of
    # the 5 copies' centered sums is (0, -2) from the first step on, so both
    # rows read 5 (0, -2) / sqrt(4 * 5) = (0, -sqrt(5))
    model = tmp_path / "det.json"
    model.write_text(json.dumps(model_to_json(build_deterministic())))
    out = tmp_path / "agg.csv"
    code = main(
        [
            "aggregate", "--model", str(model), "--n", "4", "--copies", "5",
            "--grid", "0.25,1.0", "--burnin", "0", "--out", str(out),
        ]
    )
    assert code == 0
    root5 = -math.sqrt(5.0)
    assert out.read_text() == "t,s_1,s_2\n0.25,0.0,%r\n1.0,0.0,%r\n" % (root5, root5)


def _no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the input was checked")

    # every ensemble, with stored paths or streamed sums, runs its blocks here
    monkeypatch.setattr(bpagg.simulate, "_run_blocks", refuse)


_VERB_ARGS = {
    "aggregate": ["aggregate", "--n", "40", "--copies", "2"],
    "clt": ["verify", "clt", "--n", "40", "--copies", "2", "--reps", "5"],
    "iterated": ["verify", "iterated", "--limit-order", "N", "--n", "40", "--copies", "4"],
}


@pytest.mark.parametrize("grid", ["inf", "nan", "1.0,2.0", "", "1.0,0.5", "0.5,0.5"])
@pytest.mark.parametrize("verb", sorted(_VERB_ARGS))
def test_bad_grid_exits_two_before_simulating(
    scalar_file, tmp_path, capsys, monkeypatch, verb, grid
):
    _no_simulation(monkeypatch)
    out = tmp_path / "out.csv"
    argv = _VERB_ARGS[verb] + ["--model", scalar_file, "--grid", grid, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid" in err
    assert not out.exists()


def test_iterated_checks_grid_at_every_sweep_horizon(scalar_file, capsys, monkeypatch):
    # floor(1.05 * 10) = 10 fits --n 10 and the first horizon, floor(1.05 * 40) = 42
    # does not fit the last
    _no_simulation(monkeypatch)
    argv = ["verify", "iterated", "--limit-order", "N", "--n", "10", "--copies", "4",
            "--model", scalar_file, "--sweep", "10,40", "--grid", "1.05"]
    assert main(argv) == 2
    assert "grid" in capsys.readouterr().err


def test_aggregate_of_critical_model_exits_two_before_simulating(tmp_path, capsys, monkeypatch):
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    f = tmp_path / "crit.json"
    f.write_text(json.dumps(model_to_json(crit)))
    _no_simulation(monkeypatch)
    out = tmp_path / "agg.csv"
    for burnin in ("auto", "7"):
        argv = _VERB_ARGS["aggregate"] + ["--model", str(f), "--grid", "1.0",
                                          "--burnin", burnin, "--out", str(out)]
        assert main(argv) == 2
        assert "subcritical" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("verb", ["simulate", "aggregate", "clt", "iterated"])
def test_threads_below_one_exits_two(scalar_file, tmp_path, capsys, monkeypatch, verb, threads):
    _no_simulation(monkeypatch)
    head = ["simulate", "--n", "40", "--copies", "2"] if verb == "simulate" else _VERB_ARGS[verb]
    argv = head + ["--model", scalar_file, "--threads", threads, "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--threads >= 1" in capsys.readouterr().err


def test_threads_default_to_one(scalar_file):
    common = ["--model", scalar_file, "--n", "5", "--copies", "2"]
    heads = (["simulate"], ["aggregate", "--grid", "1"], ["verify", "clt"],
             ["verify", "iterated", "--limit-order", "N"])
    for head in heads:
        assert cli.build_parser().parse_args(head + common).threads == 1


def test_every_verb_validates_once(scalar_file, two_type_file, tmp_path, monkeypatch):
    spec = tmp_path / "spec.json"
    law = {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.3}]}
    immigration = {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]}
    spec.write_text(json.dumps({"order": 2, "offspring": [law, law],
                                "immigration": immigration}))
    out = str(tmp_path / "out")
    m = ["--model", two_type_file, "--out", out]
    ens = ["--n", "20", "--copies", "2"]
    verbs = {
        "moments": ["moments"] + m,
        "simulate-auto": ["simulate"] + ens + m,
        "aggregate-auto": ["aggregate", "--grid", "0.5,1.0"] + ens + m,
        "aggregate-7": ["aggregate", "--grid", "0.5,1.0", "--burnin", "7"] + ens + m,
        "ergodic": ["verify", "ergodic", "--n", "300"] + m,
        "autocov": ["verify", "autocov", "--n", "300", "--lags", "0,1"] + m,
        "clt": ["verify", "clt", "--reps", "5"] + ens + m,
        "iterated": ["verify", "iterated", "--limit-order", "N", "--n", "20",
                     "--copies", "4"] + m,
        "innovations": ["verify", "innovations", "--n", "300"] + m,
        "ginar-p1": ["ginar", "--means", "0.5", "--out", out],
        "ginar-p2": ["ginar", "--means", "0.3,0.2", "--out", out],
        "ginar-spec": ["ginar", "--spec", str(spec), "--out", out],
    }
    # count validate calls through every module binding of it
    calls = []
    real = bpagg.model.validate

    def counting(model):
        calls.append(model)
        return real(model)

    for mod in (bpagg.model, bpagg.moments, bpagg.simulate, bpagg.verify, bpagg.ginar):
        if hasattr(mod, "validate"):
            monkeypatch.setattr(mod, "validate", counting)
    for name, argv in verbs.items():
        del calls[:]
        assert main(argv) in (0, 3), name
        assert len(calls) == 1, name
    # an explicit burn-in needs no classification: simulate steps any regime
    del calls[:]
    assert main(["simulate", "--burnin", "7"] + ens + m) == 0
    assert calls == []


def _recorded_burnins(monkeypatch):
    """The burn-in of every block simulated from now on, in call order."""
    seen = []
    real = bpagg.simulate._simulate_block

    def record(model, copies, n, rng, burnin, *args):
        seen.append(burnin)
        return real(model, copies, n, rng, burnin, *args)

    monkeypatch.setattr(bpagg.simulate, "_simulate_block", record)
    return seen


def test_auto_burnin_is_certified_for_each_verbs_copy_count(scalar_file, tmp_path, monkeypatch):
    model = build_scalar_inar()
    seen = _recorded_burnins(monkeypatch)
    out = tmp_path / "out"
    m = ["--model", scalar_file, "--out", str(out)]
    # (argv, copies the run simulates); the iterated counts tell the sum of
    # the sweep's copy counts from the copies times the sweep length
    runs = [
        (["verify", "ergodic", "--n", "300"], 1),
        (["verify", "autocov", "--n", "300", "--lags", "0,1"], 1),
        (["verify", "innovations", "--n", "300"], 1),
        (["verify", "clt", "--n", "20", "--copies", "4", "--reps", "30"], 120),
        (["verify", "iterated", "--limit-order", "N", "--n", "40", "--copies", "20",
          "--sweep", "10,20,40"], 60),
        (["verify", "iterated", "--limit-order", "n", "--n", "20", "--copies", "40",
          "--sweep", "2,4,40"], 46),
    ]
    for argv, copies in runs:
        del seen[:]
        assert main(argv + m) in (0, 3), argv
        k = burnin_auto(model, copies)
        assert seen and set(seen) == {k}, argv
        report = json.loads(out.read_text())
        assert report["params"].get("burnin", k) == k, argv
        assert not [w for w in report["warnings"] if w.startswith("burn-in")], argv
    assert [burnin_auto(model, c) for c in (1, 46, 60, 120)] == [21, 27, 27, 28]
    del seen[:]
    assert main(["simulate", "--n", "5", "--copies", "300"] + m) == 0
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    assert meta["burnin"] == burnin_auto(model, 300) == 30 and seen == [30]
    del seen[:]
    # two blocks of 4096 and 904 copies, one burn-in for all 5000
    assert main(["aggregate", "--grid", "1.0", "--n", "5", "--copies", "5000"] + m) == 0
    assert seen == [burnin_auto(model, 5000)] * 2 == [34, 34]


@pytest.mark.parametrize("verb", [["simulate"], ["aggregate", "--grid", "1.0"]],
                         ids=["simulate", "aggregate"])
def test_explicit_short_burnin_warns_on_stderr(scalar_file, tmp_path, capsys, verb):
    argv = verb + ["--model", scalar_file, "--n", "5", "--copies", "100",
                   "--out", str(tmp_path / "out.csv")]
    assert main(argv + ["--burnin", "3"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: burn-in of 3 steps") and "copies = 100" in err
    for burnin in ("15", "auto"):
        assert main(argv + ["--burnin", burnin]) == 0
        assert capsys.readouterr().err == ""


def test_verify_csv_writes_the_report_warnings_to_stderr(scalar_file, capsys):
    # 10 x 10 copies after 3 steps: the burn-in and the mixing warnings
    argv = ["verify", "clt", "--model", scalar_file, "--n", "10", "--copies", "10",
            "--reps", "10", "--burnin", "3", "--seed", "1"]
    assert main(argv + ["--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("t,i,j,empirical,target,z\n")
    lines = err.splitlines()
    assert len(lines) == 2 and all(line.startswith("warning: ") for line in lines)
    assert "burn-in of 3 steps" in err and "copies = 100" in err
    assert "insufficient n" in err
    # a JSON report carries its warnings itself
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(json.loads(out)["warnings"]) == 2


def test_clt_grid_explicit_burnin_gets_no_warning(tmp_path):
    # the clt-grid benchmark pass: GRID3, --burnin 20 over 2 x 200 copies
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = workloads.write_model("clt-grid", 1, str(tmp_path))
    [(kind, argv)] = workloads.pass_ops("clt-grid", path, str(tmp_path), 5)
    assert kind == "clt" and main(argv) in (0, 3)
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["params"]["burnin"] == 20
    assert report["params"]["N"] * report["params"]["reps"] == 400
    assert not [w for w in report["warnings"] if w.startswith("burn-in")]


def test_verify_ergodic_csv(scalar_file, capsys):
    code = main(
        [
            "verify", "ergodic", "--model", scalar_file, "--n", "5000",
            "--seed", "0", "--format", "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("t,i,j,empirical,target,z\n")
    assert len(out.strip().split("\n")) == 3


def test_verify_clt_byte_identical(scalar_file, tmp_path):
    a, b, c = (tmp_path / x for x in ("a.json", "b.json", "c.json"))
    argv = [
        "verify", "clt", "--model", scalar_file, "--n", "40", "--copies", "4",
        "--reps", "30", "--seed", "9", "--grid", "0.5,1.0",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert main(argv + ["--threads", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["kind"] == "clt"
    assert payload["passed"] is True


def test_verify_iterated(scalar_file, capsys):
    code = main(
        [
            "verify", "iterated", "--model", scalar_file, "--limit-order", "N",
            "--n", "40", "--copies", "20", "--sweep", "10,20,40", "--seed", "2",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["order"] == "N_first"
    assert [e["n"] for e in payload["extra"]["sweep"]] == [10, 20, 40]


def test_verify_autocov_and_innovations(scalar_file, capsys):
    assert (
        main(
            [
                "verify", "autocov", "--model", scalar_file, "--n", "20000",
                "--lags", "0,1,2", "--seed", "0",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert [r["t"] for r in payload["rows"]] == [0.0, 1.0, 2.0]
    assert (
        main(
            ["verify", "innovations", "--model", scalar_file, "--n", "8000"]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "innovations"
    assert payload["rows"][0]["target"] == 1.5


# kind: (the shortest run that is accepted, [(a run one step or lag short
# of it, a piece of its error message)])
_SHORT_RUNS = {
    "ergodic": (["--n", "2"], [(["--n", "1"], "n >= 2"), (["--n", "0"], "n >= 2")]),
    "innovations": (["--n", "2"], [(["--n", "1"], "n >= 2"), (["--n", "0"], "n >= 2")]),
    "autocov": (
        ["--n", "4", "--lags", "0,2"],
        [(["--n", "4", "--lags", "0,3"], "n - 2"), (["--n", "20", "--lags", ""], "one lag")],
    ),
}


@pytest.mark.parametrize("kind", sorted(_SHORT_RUNS))
def test_short_single_path_runs_exit_two_before_simulating(
    scalar_file, capsys, monkeypatch, kind
):
    # below two terms a batch-means SE is infinite and every band passes
    shortest, refused = _SHORT_RUNS[kind]
    assert main(["verify", kind, "--model", scalar_file] + shortest) in (0, 3)
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] and all(np.isfinite(r["se"]) for r in payload["rows"])

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the input was checked")

    monkeypatch.setattr(bpagg.verify, "simulate_path", refuse)
    for argv, message in refused:
        assert main(["verify", kind, "--model", scalar_file] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""


def test_verify_failure_exit_code(scalar_file, capsys, monkeypatch):
    broken = VerificationReport(
        kind="ergodic",
        params={},
        rows=[{"t": 1.0, "i": 0, "j": 0, "empirical": 9.0, "target": 2.0,
               "se": 0.1, "z": 70.0}],
        passed=False,
    )
    monkeypatch.setattr(cli, "ergodic_check", lambda *a, **k: broken)
    code = main(["verify", "ergodic", "--model", scalar_file, "--n", "100"])
    assert code == 3
    # the report is still written before the failing exit code
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False


_CLT = ["verify", "clt", "--n", "40", "--copies", "4", "--reps", "30", "--seed", "9",
        "--grid", "0.5,1.0"]
_INNOVATIONS = ["verify", "innovations", "--n", "8000"]


def _first_ks_far(monkeypatch):
    real = bpagg.verify._ks_normal
    calls = []

    def first_far(values):
        calls.append(values)
        return 1.0 if len(calls) == 1 else real(values)

    monkeypatch.setattr(bpagg.verify, "_ks_normal", first_far)


def _increment_far(monkeypatch):
    # the first increment cross covariance reads 10 standard errors from 0
    real = bpagg.verify._increment_table

    def far(vals, grid):
        increments = real(vals, grid)
        first = increments[0]
        first["empirical"] = 10.0 * first["se"]
        first["z"] = bpagg.verify._zval(first["empirical"], first["se"])
        return increments

    monkeypatch.setattr(bpagg.verify, "_increment_table", far)


class _NumpyAbsOneHigh:
    """numpy, except that every absolute value reads one unit high."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def abs(x):
        return np.abs(x) + 1.0


def _abs_moment_far(monkeypatch):
    monkeypatch.setattr(bpagg.verify, "np", _NumpyAbsOneHigh())


def _bucket_far(monkeypatch):
    real = bpagg.verify.moment_report

    def shifted(model, order):
        exact = real(model, order)
        return dataclasses.replace(exact, immigration_cov=exact.immigration_cov + 1.0)

    monkeypatch.setattr(bpagg.verify, "_MAX_BUCKETS", 1)
    monkeypatch.setattr(bpagg.verify, "moment_report", shifted)


_EXTRA_CHECKS = {
    "ks": (_CLT, _first_ks_far, ("ks", "increments")),
    "increments": (_CLT, _increment_far, ("ks", "increments")),
    "abs_moment": (_INNOVATIONS, _abs_moment_far, ("abs_moment", "buckets")),
    "buckets": (_INNOVATIONS, _bucket_far, ("abs_moment", "buckets")),
}


def _check_entries(extra, kind):
    if kind == "buckets":
        return [e for b in extra["buckets"] for e in b["entries"]]
    return extra[kind]


def _entry_in_band(entry):
    return entry["passed"] if "passed" in entry else abs(entry["z"]) <= 4.0


@pytest.mark.parametrize("kind", sorted(_EXTRA_CHECKS))
def test_one_extra_check_out_of_band_fails_the_run(scalar_file, capsys, monkeypatch, kind):
    # a single extra check out of its band fails the report and exits 3 while
    # every row stays in its band
    argv, push_out, kinds = _EXTRA_CHECKS[kind]
    argv = argv + ["--model", scalar_file]
    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)
    push_out(monkeypatch)
    assert main(argv) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["rows"] == clean["rows"]
    assert all(abs(r["z"]) <= 4.0 for r in payload["rows"])
    for other in kinds:
        entries = _check_entries(payload["extra"], other)
        assert entries, other
        far = [e for e in entries if not _entry_in_band(e)]
        assert len(far) == (1 if other == kind else 0), other


def test_innovations_reads_each_law_table_once(two_type_file, capsys, monkeypatch):
    # the bucket targets come from the covariances the moment report built
    calls = collections.Counter()
    for cls in (FiniteSupport, IndependentMarginals):

        def counting(self, alpha, real=cls.kron_moment):
            calls[id(self), alpha] += 1
            return real(self, alpha)

        monkeypatch.setattr(cls, "kron_moment", counting)
    assert main(["verify", "innovations", "--model", two_type_file, "--n", "2000"]) == 0
    assert json.loads(capsys.readouterr().out)["extra"]["buckets"]
    seconds = [count for (_, alpha), count in calls.items() if alpha == 2]
    assert sorted(seconds) == [1, 1, 1]


def test_ginar_means_report(capsys):
    assert main(["ginar", "--means", "0.5,0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == pytest.approx(0.8520797289396148)
    assert payload["regime"] == "subcritical"
    assert payload["characteristic_polynomial"] == [1.0, -0.5, -0.3]
    assert payload["V"][0][0] == pytest.approx(3.3)
    assert "warning" not in payload


def test_ginar_scalar_closed_form(capsys):
    assert main(["ginar", "--means", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scalar_limit_var"] == pytest.approx(6.0)


def test_ginar_nonprimitive_warning(capsys):
    assert main(["ginar", "--means", "0.5,0.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["primitive"] is False
    assert "warning" in payload


def test_ginar_emit_model_chains_into_moments(tmp_path, capsys):
    emitted = tmp_path / "embedded.json"
    assert main(["ginar", "--means", "0.5,0.3", "--emit-model", str(emitted)]) == 0
    capsys.readouterr()
    assert main(["moments", "--model", str(emitted)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == pytest.approx([5.0, 5.0])
    assert payload["rho"] == pytest.approx(0.8520797289396148)


def test_ginar_rho_is_the_embedded_model_rho(tmp_path, capsys):
    # a zero top-lag mean: the characteristic polynomial has a zero root,
    # and the reported rho is the one moments reports for the embedded model
    emitted = tmp_path / "embedded.json"
    argv = ["ginar", "--means", "0.5,0.3,0.0", "--emit-model", str(emitted)]
    assert main(argv) == 0
    rho = json.loads(capsys.readouterr().out)["rho"]
    assert main(["moments", "--model", str(emitted), "--order", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == rho


def test_ginar_spec_finite_tables_rho_is_the_embedded_model_rho(tmp_path, capsys):
    # the lifted tables survive the --emit-model round trip bit for bit: the
    # emitted masses are the spec's
    def table(probs):
        return {"kind": "finite", "support": [{"v": [k], "p": q} for k, q in probs]}

    spec = {
        "order": 2,
        "offspring": [table([(0, 0.7), (1, 0.2), (2, 0.1)]), table([(0, 0.9), (3, 0.1)])],
        "immigration": {"kind": "independent",
                        "marginals": [{"dist": "poisson", "lambda": 1.0}]},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    emitted = tmp_path / "embedded.json"
    assert main(["ginar", "--spec", str(f), "--emit-model", str(emitted)]) == 0
    rho = json.loads(capsys.readouterr().out)["rho"]
    laws = json.loads(emitted.read_text())["offspring"]
    assert [[a["p"] for a in law["support"]] for law in laws] == [[0.7, 0.2, 0.1], [0.9, 0.1]]
    assert main(["moments", "--model", str(emitted), "--order", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == rho


def test_ginar_spec_file(tmp_path, capsys):
    spec = {
        "order": 1,
        "offspring": [
            {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}
        ],
        "immigration": {
            "kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]
        },
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main(["ginar", "--spec", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == pytest.approx(0.5)


def test_ginar_spec_and_means_conflict(capsys):
    assert main(["ginar", "--spec", "x.json", "--means", "0.5"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_console_script_runs(scalar_file):
    proc = subprocess.run(
        [sys.executable, "-m", "bpagg.cli", "moments", "--model", scalar_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mean"] == [2.0]


@pytest.mark.parametrize(
    "offspring",
    [
        {"kind": "independent", "marginals": [{"dist": "poisson", "mu": 0.5}]},
        {"kind": "finite", "support": [{"p": 1.0}]},
        3,
    ],
    ids=["unknown-parameter", "atom-without-v", "law-not-object"],
)
def test_malformed_model_json_exits_two(tmp_path, capsys, offspring):
    f = tmp_path / "bad.json"
    immigration = {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]}
    f.write_text(json.dumps({"p": 1, "offspring": [offspring], "immigration": immigration}))
    assert main(["moments", "--model", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")


_POISSON_ONE = {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]}


@pytest.mark.parametrize(
    "marginal, name",
    [({"dist": "poisson", "lambda": 1e120}, "lambda"), ({"dist": "geometric", "q": 1e-120}, "q")],
    ids=["poisson", "geometric"],
)
def test_law_with_raw_moments_beyond_float64_is_refused(tmp_path, capsys, marginal, name):
    # lambda^3 and ((1 - q) / q)^3 overflow; the law is refused when it is
    # built, not by a traceback from the third raw moment at any order
    law = {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}
    obj = {"p": 1, "offspring": [law], "immigration": {"kind": "independent",
                                                       "marginals": [marginal]}}
    with pytest.raises(ValueError, match="need %s " % name):
        model_from_json(obj)
    f = tmp_path / "big.json"
    f.write_text(json.dumps(obj))
    assert main(["moments", "--order", "1", "--model", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err


@pytest.mark.parametrize(
    "law, name",
    [
        ({"kind": "independent", "marginals": [{"dist": "bernoulli", "q": True}]}, "q"),
        ({"kind": "independent", "marginals": [{"dist": "poisson", "lambda": "1.0"}]},
         "lambda"),
        ({"kind": "independent", "marginals": [{"dist": "binomial", "n": True, "q": 0.5}]},
         "n"),
        ({"kind": "finite", "support": [{"v": ["0"], "p": "0.5"}, {"v": [1], "p": 0.5}]}, "v"),
    ],
    ids=["bool-q", "str-lambda", "bool-n", "str-atom"],
)
def test_law_json_refuses_booleans_and_strings(tmp_path, capsys, law, name):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"p": 1, "offspring": [law], "immigration": _POISSON_ONE}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"order": 1, "offspring": [law], "immigration": _POISSON_ONE}))
    for argv in (["moments", "--model", str(model)], ["ginar", "--spec", str(spec)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and '"%s"' % name in err
    # library constructors still take numpy scalars
    assert Bernoulli(np.float64(0.25)).q == 0.25
    assert Poisson(np.float32(2.0)).lam == 2.0
    assert Binomial(np.int64(3), np.float64(0.5)).n == 3
    table = FiniteSupport([[np.int64(0)], [np.int64(1)]], [np.float64(0.5)] * 2)
    assert table.support.tolist() == [[0], [1]]


@pytest.mark.parametrize(
    "order, offspring",
    [(1, 3), ("1", [{"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.5}]}])],
    ids=["offspring-not-list", "order-not-integer"],
)
def test_malformed_ginar_spec_exits_two(tmp_path, capsys, order, offspring):
    f = tmp_path / "spec.json"
    immigration = {"kind": "independent", "marginals": [{"dist": "poisson", "lambda": 1.0}]}
    f.write_text(json.dumps({"order": order, "offspring": offspring, "immigration": immigration}))
    assert main(["ginar", "--spec", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error:")
