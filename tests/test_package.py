"""The package namespace and its import graph: which bpagg modules set-up and
each CLI verb load, and that every public name resolves on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import bpagg
import bpagg.cli as cli
from bpagg.model import model_to_json
from conftest import build_scalar_inar

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bpagg.__file__)))

# the names the package exported when its __init__ imported every
# submodule, by the module that defined them then, less the removed
# kronalg.commutation_matrix, simulate.step and simulate.AggregateSeries
PUBLIC = {
    "kronalg": "spectral_radius mode_product tensor_fixed_point lyapunov_solve "
    "NotSubcriticalError",
    "model": "Poisson Bernoulli Binomial Geometric Point FiniteSupport IndependentMarginals "
    "BranchingModel Classification mean_matrix validate model_from_json model_to_json "
    "load_model model_digest",
    "moments": "TransferMatrices MomentReport build_transfer stationary_moments noise_matrix "
    "stationary_variance autocovariance limit_covariance moment_report",
    "simulate": "PathEnsemble SimulationOverflowError simulate_path "
    "simulate_ensemble aggregate extract_innovations burnin_auto stream_rng derived_seed",
    "verify": "VerificationReport ergodic_check clt_covariance_experiment iterated_experiment "
    "autocovariance_check innovation_diagnostics bands_overlap",
    "ginar": "GinarSpec embed characteristic_polynomial ginar_classify v_ginar "
    "scalar_limit_std ginar_from_json ginar_to_json load_ginar ginar_from_means",
}
BASE = {"bpagg", "bpagg.kronalg", "bpagg.model"}


def _bpagg_modules_after(code):
    """The bpagg modules in sys.modules after code runs in a fresh interpreter."""
    code += "\nimport sys\nprint(*(m for m in sys.modules if m.split('.')[0] == 'bpagg'))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


@pytest.fixture
def scalar_file(tmp_path):
    f = tmp_path / "scalar.json"
    f.write_text(json.dumps(model_to_json(build_scalar_inar())))
    return str(f)


def test_import_loads_no_submodule():
    assert _bpagg_modules_after("import bpagg") == {"bpagg"}


def test_setup_loads_only_model_and_kronalg(scalar_file):
    code = "import bpagg\nbpagg.validate(bpagg.load_model(%r))" % scalar_file
    assert _bpagg_modules_after(code) == BASE


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["moments", "--order", "3"], {"bpagg.moments"}),
        (["simulate", "--n", "5", "--copies", "2"], {"bpagg.simulate"}),
        (["aggregate", "--n", "5", "--copies", "2", "--grid", "1"], {"bpagg.simulate"}),
        (
            ["verify", "clt", "--n", "5", "--copies", "2", "--reps", "10"],
            {"bpagg.moments", "bpagg.simulate", "bpagg.verify"},
        ),
        (["ginar", "--means", "0.5"], {"bpagg.ginar"}),
    ],
)
def test_each_verb_loads_exactly_its_modules(scalar_file, tmp_path, argv, loaded):
    if argv[0] != "ginar":
        argv = argv + ["--model", scalar_file]
    argv = argv + ["--out", str(tmp_path / "out")]
    code = "from bpagg.cli import main\nassert main(%r) == 0" % argv
    assert _bpagg_modules_after(code) == BASE | {"bpagg.cli"} | loaded


def test_every_public_name_resolves_to_its_modules_object(monkeypatch):
    names = [(module, name) for module, text in PUBLIC.items() for name in text.split()]
    for module, name in names:
        # drop a name kept by an earlier use, so that the import resolves it
        monkeypatch.delitem(vars(bpagg), name, raising=False)
        imported = {}
        exec("from bpagg import %s" % name, imported)
        assert imported[name] is getattr(importlib.import_module("bpagg." + module), name)
        assert name in dir(bpagg)
    assert sorted(bpagg.__all__) == sorted(name for _, name in names)
    assert bpagg.simulate.SimulationOverflowError is bpagg.model.SimulationOverflowError


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        bpagg.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from bpagg import no_such_name", {})
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


@pytest.mark.parametrize("module", sorted(bpagg._EXPORTS))
def test_each_module_lists_the_names_the_package_exports_from_it(module):
    listed = importlib.import_module("bpagg." + module).__all__
    assert [name for name in bpagg._EXPORTS[module] if name not in listed] == []


# callee: (its defining module, a CLI run that calls it)
CALLEES = {
    "moment_report": ("moments", ["moments"]),
    "simulate_ensemble": ("simulate", ["simulate", "--n", "5", "--copies", "2"]),
    "aggregate": ("simulate", ["aggregate", "--n", "5", "--copies", "2", "--grid", "1"]),
    "ergodic_check": ("verify", ["verify", "ergodic", "--n", "5"]),
    "clt_covariance_experiment": ("verify", ["verify", "clt", "--n", "5", "--copies", "2"]),
    "iterated_experiment": (
        "verify",
        ["verify", "iterated", "--limit-order", "N", "--n", "5", "--copies", "2"],
    ),
    "autocovariance_check": ("verify", ["verify", "autocov", "--n", "5"]),
    "_innovation_check": ("verify", ["verify", "innovations", "--n", "5"]),
    "embed": ("ginar", ["ginar", "--means", "0.5"]),
}


@pytest.mark.parametrize("callee", CALLEES)
def test_cli_calls_each_callee_in_its_defining_module(
    scalar_file, tmp_path, capsys, monkeypatch, callee
):
    # the defining module is the one place to patch: cli binds no callee
    def patched(*args, **kwargs):
        raise ValueError("patched")

    module, argv = CALLEES[callee]
    monkeypatch.setattr(importlib.import_module("bpagg." + module), callee, patched)
    assert not hasattr(cli, callee)
    if argv[0] != "ginar":
        argv = argv + ["--model", scalar_file]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: patched\n"
