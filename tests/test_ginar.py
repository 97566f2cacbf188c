import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bpagg.ginar import (
    GinarSpec,
    characteristic_polynomial,
    embed,
    ginar_classify,
    ginar_from_json,
    ginar_from_means,
    ginar_to_json,
    load_ginar,
    scalar_limit_std,
    v_ginar,
)
from bpagg.kronalg import spectral_radius
from bpagg.model import (
    _regime,
    Bernoulli,
    FiniteSupport,
    Geometric,
    IndependentMarginals,
    Poisson,
    mean_matrix,
    validate,
)
from bpagg.moments import (
    autocovariance,
    limit_covariance,
    noise_matrix,
    stationary_moments,
    stationary_variance,
)
from conftest import ginar_json


def _spec_two():
    return ginar_from_means([0.5, 0.3], immigration_lam=1.0)


def test_embedding_mean_matrix_is_companion():
    model = embed(_spec_two())
    assert_allclose(mean_matrix(model), [[0.5, 0.3], [1.0, 0.0]], atol=0)


def test_characteristic_polynomial_coefficients():
    assert_allclose(characteristic_polynomial(_spec_two()), [1.0, -0.5, -0.3], atol=0)


def test_classification_rho_two_routes():
    # root route: largest root of z^2 - 0.5 z - 0.3
    cls = ginar_classify(_spec_two())
    assert cls.rho == pytest.approx(0.8520797289396148, abs=1e-12)
    assert cls.rho == pytest.approx(
        spectral_radius(mean_matrix(embed(_spec_two()))), abs=1e-9
    )
    assert cls.regime == "subcritical"
    assert cls.primitive
    assert cls.immigration_nontrivial


def test_regime_from_mean_sum():
    assert ginar_classify(ginar_from_means([0.5, 0.3])).regime == "subcritical"
    assert ginar_classify(ginar_from_means([0.5, 0.5])).regime == "critical"
    assert ginar_classify(ginar_from_means([0.6, 0.5])).regime == "supercritical"


def test_nonprimitive_spec_reported_not_raised():
    cls = ginar_classify(ginar_from_means([0.5, 0.0]))
    assert not cls.primitive
    assert cls.regime == "subcritical"


def test_noise_matrix_single_entry():
    spec = _spec_two()
    V = v_ginar(spec)
    model = embed(spec)
    # stationary chain mean is lambda / (1 - m1 - m2) = 5 in both coordinates
    # V[0,0] = 5 (0.25 + 0.21) + 1 = 3.3
    assert V[0, 0] == pytest.approx(3.3, abs=1e-12)
    assert_allclose(V, noise_matrix(model), atol=1e-12)
    assert np.count_nonzero(V) == 1


def test_v_ginar_requires_subcritical():
    with pytest.raises(ValueError):
        v_ginar(ginar_from_means([0.5, 0.5]))


def test_embedded_projection_invariants():
    # both coordinates carry the same chain one step apart
    spec = _spec_two()
    model = embed(spec)
    mean, _, _ = stationary_moments(model, 1)
    assert mean[0] == pytest.approx(mean[1], abs=1e-12)
    assert mean[0] == pytest.approx(5.0, abs=1e-12)
    var0 = stationary_variance(model)
    # cov(Z_k, Z_{k-1}) appears both as var0[0,1] and as lag-1 autocovariance
    g1 = autocovariance(model, 1)
    assert var0[0, 1] == pytest.approx(g1[0, 0], abs=1e-10)
    assert var0[1, 1] == pytest.approx(var0[0, 0], abs=1e-10)


def test_order_one_embedding_is_identity():
    spec = GinarSpec(
        1,
        (IndependentMarginals([Bernoulli(0.5)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    model = embed(spec)
    assert model.p == 1
    assert model.offspring[0] is spec.offspring[0]
    assert scalar_limit_std(spec) ** 2 == pytest.approx(
        limit_covariance(model)[0, 0], abs=1e-12
    )
    assert scalar_limit_std(spec) ** 2 == pytest.approx(6.0, abs=1e-12)


def test_scalar_limit_std_formula_other_laws():
    spec = GinarSpec(
        1,
        (IndependentMarginals([Geometric(0.7)]),),
        IndependentMarginals([Geometric(0.4)]),
    )
    assert scalar_limit_std(spec) ** 2 == pytest.approx(
        limit_covariance(embed(spec))[0, 0], abs=1e-12
    )


def test_scalar_limit_std_errors():
    with pytest.raises(ValueError):
        scalar_limit_std(_spec_two())
    crit = GinarSpec(
        1,
        (IndependentMarginals([Bernoulli(1.0)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    with pytest.raises(ValueError):
        scalar_limit_std(crit)


def test_lift_finite_support_laws():
    table = FiniteSupport([[0], [2]], [0.5, 0.5])
    spec = GinarSpec(
        2,
        (table, IndependentMarginals([Bernoulli(0.2)])),
        FiniteSupport([[1], [3]], [0.5, 0.5]),
    )
    model = embed(spec)
    assert validate(model).regime == "supercritical"
    assert_allclose(mean_matrix(model), [[1.0, 0.2], [1.0, 0.0]], atol=0)
    # type-1 brood carries the bookkeeping unit in coordinate 2
    off = model.offspring[0]
    assert_allclose(off.support[:, 1], [1, 1])
    imm = model.immigration
    assert_allclose(imm.support[:, 1], [0, 0])


def test_spec_validation():
    with pytest.raises(ValueError):
        GinarSpec(0, (), IndependentMarginals([Poisson(1.0)]))
    with pytest.raises(ValueError):
        GinarSpec(
            2,
            (IndependentMarginals([Bernoulli(0.5)]),),
            IndependentMarginals([Poisson(1.0)]),
        )
    with pytest.raises(ValueError):
        GinarSpec(
            1,
            (IndependentMarginals([Bernoulli(0.5), Bernoulli(0.5)]),),
            IndependentMarginals([Poisson(1.0)]),
        )


def test_json_round_trip(tmp_path):
    spec = _spec_two()
    payload = ginar_to_json(spec)
    back = ginar_from_json(json.loads(json.dumps(payload)))
    assert back.p == 2
    assert_allclose(
        characteristic_polynomial(back), characteristic_polynomial(spec), atol=0
    )
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(payload))
    loaded = load_ginar(f)
    assert ginar_classify(loaded).rho == pytest.approx(
        ginar_classify(spec).rho, abs=0
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(obj=ginar_json())
def test_json_round_trip_is_identity(obj):
    # every marginal kind and finite tables, to the same object and the same text
    back = ginar_to_json(ginar_from_json(obj))
    assert back == obj
    assert json.dumps(back) == json.dumps(obj)


def test_json_validation():
    with pytest.raises(ValueError):
        ginar_from_json([1, 2])
    with pytest.raises(ValueError):
        ginar_from_json({"order": 1, "offspring": []})


def test_from_means_validation():
    with pytest.raises(ValueError):
        ginar_from_means([0.5, 1.2])
    with pytest.raises(ValueError):
        ginar_from_means([-0.1])
    spec = ginar_from_means([0.4], immigration_lam=2.5)
    assert spec.p == 1
    assert spec.immigration.marginals[0].lam == 2.5


def test_v_ginar_reads_the_embedded_models_stationary_mean(tmp_path, monkeypatch):
    # the embedded model solves (I - M) mean = m_eps once, and ginar prints
    # the V of that mean, bit for bit the V of a solve on the spec's own
    # immigration mean, for a --means spec and for a --spec file
    from bpagg.cli import main

    table = {"kind": "finite", "support": [{"v": [0], "p": 0.25}, {"v": [1], "p": 0.5},
                                           {"v": [3], "p": 0.25}]}
    thin = {"kind": "finite", "support": [{"v": [0], "p": 0.75}, {"v": [2], "p": 0.25}]}
    bern = {"kind": "independent", "marginals": [{"dist": "bernoulli", "q": 0.2}]}
    obj = {"order": 3, "offspring": [bern, thin, bern], "immigration": table}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(obj))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(b) or solve(a, b))
    for argv, spec in (
        (["--means", "0.3,0.2,0.1", "--immigration-lambda", "2.5"],
         ginar_from_means([0.3, 0.2, 0.1], 2.5)),
        (["--spec", str(f)], ginar_from_json(obj)),
    ):
        out = tmp_path / "report.json"
        del solves[:]
        assert main(["ginar", "--out", str(out)] + argv) == 0
        assert len(solves) == 1
        m_eps = np.zeros(spec.p)
        m_eps[0] = spec.immigration.mean()[0]
        mean = solve(np.eye(spec.p) - mean_matrix(embed(spec)), m_eps)
        variances = [law.kron_moment(2)[0] - law.mean()[0] ** 2
                     for law in spec.offspring + (spec.immigration,)]
        want = sum(v * x for v, x in zip(variances, mean)) + variances[-1]
        assert json.loads(out.read_text())["V"][0][0] == want
        # one embedded model per spec, whose mean v_ginar reads
        assert embed(spec) is embed(spec)
        assert np.array_equal(v_ginar(spec)[0, 0], want) and len(solves) == 2


@st.composite
def _table_specs(draw):
    """GINAR specs of order 2-8 whose lag and immigration laws are tables on
    2-5 distinct counts in 0..6 with random masses."""
    p = draw(st.integers(2, 8))

    def table():
        k = draw(st.integers(2, 5))
        support = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
        w = [draw(st.floats(0.01, 1.0)) for _ in range(k)]
        return FiniteSupport([[v] for v in support], [x / sum(w) for x in w])

    return GinarSpec(p, tuple(table() for _ in range(p)), table())


def _spec_reads_the_embedded_means(spec):
    model = embed(spec)
    m_xi, m_eps = model._M[0], float(model.immigration.mean()[0])
    poly = characteristic_polynomial(spec)
    assert np.array_equal(poly, np.concatenate([[1.0], -m_xi]))
    # the companion matrix's eigenvalues are the polynomial's roots
    assert np.max(np.abs(np.roots(poly))) == pytest.approx(model._rho, rel=1e-6, abs=1e-9)
    cls = ginar_classify(spec)
    assert cls.regime == _regime(float(m_xi.sum()))
    if cls.regime != "subcritical":
        return
    var = [float(law.kron_moment(2)[0]) - m * m for law, m in zip(spec.offspring, m_xi)]
    want = sum(v * x for v, x in zip(var, model._mean))
    want += float(spec.immigration.kron_moment(2)[0]) - m_eps * m_eps
    assert v_ginar(spec)[0, 0] == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=_table_specs())
def test_spec_means_are_the_embedded_models(spec):
    # the polynomial, the regime and V read E xi^(i,1) and E eps from the
    # embedded model (the first row of M and its immigration mean), the
    # values behind its rho and stationary mean
    _spec_reads_the_embedded_means(spec)


def test_spec_mean_one_ulp_from_the_lifted_tables():
    # the table's own mean and its lift to 7 coordinates differ in the last
    # bit; the polynomial takes the lifted one, as M does
    law = FiniteSupport([[1], [5], [0], [2]], [0.3268581410964503, 0.2172365164628648,
                                               0.2612330133009233, 0.19467232913976162])
    spec = GinarSpec(7, (law,) * 7, law)
    lifted = embed(spec)._M[0]
    assert np.all(lifted != law.mean()[0])
    assert np.array_equal(characteristic_polynomial(spec)[1:], -lifted)
    _spec_reads_the_embedded_means(spec)
