import functools

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from bpagg.kronalg import (
    NotSubcriticalError,
    commutation_matrix,
    lyapunov_solve,
    mode_product,
    spectral_radius,
    tensor_fixed_point,
)


def test_kron_vectors():
    assert_allclose(np.kron([1, 2], [1, 0, 1]), [1, 0, 1, 2, 0, 2])


def test_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, q = rng.integers(1, 4, size=2)
        a, c = rng.normal(size=(2, p, p))
        b, d = rng.normal(size=(2, q, q))
        assert_allclose(np.kron(a, b) @ np.kron(c, d), np.kron(a @ c, b @ d), atol=1e-12)


def test_commutation_swaps_factors():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3, 4):
        P = commutation_matrix(p)
        for _ in range(10):
            u, v = rng.normal(size=(2, p))
            assert_allclose(P @ np.kron(v, u), np.kron(u, v), atol=1e-14)


def test_commutation_is_involution():
    for p in (1, 2, 3, 4):
        P = commutation_matrix(p)
        assert_allclose(P @ P, np.eye(p * p), atol=0)
        assert_allclose(P, P.T, atol=0)


def test_spectral_radius_two_by_two():
    # characteristic polynomial x^2 - 0.7 x + 0.10 has roots 0.5 and 0.2
    assert spectral_radius([[0.3, 0.2], [0.1, 0.4]]) == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_needs_square():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))


def test_spectral_radius_of_kron_square():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = rng.uniform(0, 1, size=(3, 3))
        assert spectral_radius(np.kron(m, m)) == pytest.approx(
            spectral_radius(m) ** 2, rel=1e-10
        )


def test_lyapunov_scalar_closed_form():
    s = lyapunov_solve(np.array([[0.5]]), np.array([[1.5]]))
    assert s[0, 0] == pytest.approx(2.0, abs=1e-14)


def _random_subcritical(rng, p, rho_cap):
    m = rng.uniform(-1, 1, size=(p, p))
    return m * (rho_cap / spectral_radius(m))


def test_lyapunov_against_truncated_series():
    rng = np.random.default_rng(21)
    for _ in range(15):
        p = int(rng.integers(1, 5))
        m = _random_subcritical(rng, p, rng.uniform(0.3, 0.9))
        g = rng.normal(size=(p, p))
        v = g @ g.T
        s = lyapunov_solve(m, v)
        series = np.zeros_like(v)
        term = v.copy()
        for _ in range(400):
            series += term
            term = m @ term @ m.T
        assert_allclose(s, series, rtol=1e-8, atol=1e-8)
        assert_allclose(
            s, scipy.linalg.solve_discrete_lyapunov(m, v), rtol=1e-10, atol=1e-10
        )


def test_lyapunov_fixed_point_residual():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        m = _random_subcritical(rng, p, 0.85)
        g = rng.normal(size=(p, p))
        v = g @ g.T
        s = lyapunov_solve(m, v)
        assert np.max(np.abs(s - v - m @ s @ m.T)) <= 1e-10 * (1 + np.max(np.abs(s)))


def test_lyapunov_keeps_symmetry_and_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        m = _random_subcritical(rng, p, 0.8)
        g = rng.normal(size=(p, p))
        s = lyapunov_solve(m, g @ g.T)
        assert_allclose(s, s.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh((s + s.T) / 2)) >= -1e-10


def test_lyapunov_rejects_unit_radius():
    with pytest.raises(NotSubcriticalError):
        lyapunov_solve(np.eye(2), np.eye(2))
    with pytest.raises(NotSubcriticalError):
        lyapunov_solve(np.array([[1.2]]), np.array([[1.0]]))


def test_lyapunov_shape_mismatch():
    with pytest.raises(ValueError):
        lyapunov_solve(np.eye(2) * 0.5, np.eye(3))


def test_mode_product_is_kronecker_power_action():
    rng = np.random.default_rng(31)
    for k in (1, 2, 3):
        for p in (1, 2, 4):
            m = rng.normal(size=(p, p))
            t = rng.normal(size=(p,) * k)
            dense = functools.reduce(np.kron, [m] * k) @ t.reshape(-1)
            assert_allclose(mode_product(m, t).reshape(-1), dense, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rho", [0.3, 0.9, 0.9995])
def test_tensor_fixed_point_matches_dense_solve(rho):
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        for p in (1, 3, 5):
            m = _random_subcritical(rng, p, rho)
            b = rng.normal(size=(p,) * k)
            dense = np.linalg.solve(
                np.eye(p ** k) - functools.reduce(np.kron, [m] * k), b.reshape(-1)
            )
            got = tensor_fixed_point(m, b).reshape(-1)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(got - dense)) <= 1e-10 * scale


def test_tensor_fixed_point_zero_and_nilpotent():
    assert_allclose(tensor_fixed_point(0.5 * np.eye(2), np.zeros((2, 2, 2))), 0.0, atol=0)
    m = np.array([[0.0, 3.0], [0.0, 0.0]])
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(tensor_fixed_point(m, b), b + m @ b @ m.T, atol=0)


@pytest.mark.parametrize("scale", [1.0, 1.2])
def test_tensor_fixed_point_rejects_unit_radius(scale):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for m in (scale * np.eye(2), scale * rot):
        for shape in ((2, 2), (2, 2, 2)):
            with pytest.raises(NotSubcriticalError, match="spectral radius"):
                tensor_fixed_point(m, np.ones(shape))


def test_tensor_fixed_point_shape_checks():
    with pytest.raises(ValueError):
        tensor_fixed_point(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        tensor_fixed_point(0.5 * np.eye(2), np.ones((2, 3)))
    with pytest.raises(ValueError):
        tensor_fixed_point(0.5 * np.eye(2), np.float64(1.0))
