"""Kronecker and small-tensor utilities shared by the moment machinery.

Everything here operates on plain numpy arrays (row-major, float64). A
Kronecker power of a vector of length p is stored either flat (length
p**k) or as a k-axis tensor with every axis of length p; the two agree
under reshape. The operator M^(x)k acts on the tensor form as M applied
along every axis, so fixed points x = b + M^(x)k x are solved on p x ... x p
tensors by Smith doubling (Smith 1968, "Matrix equation XA + BX = C", SIAM
J. Appl. Math.) at O(p^(k+1)) per doubling, and the p^k x p^k Kronecker
matrix is never formed.
"""

import numpy as np

__all__ = [
    "commutation_matrix",
    "spectral_radius",
    "mode_product",
    "tensor_fixed_point",
    "lyapunov_solve",
    "NotSubcriticalError",
]

# 2**64 terms of the series cover any spectral radius below 1 - 1e-9 (the
# regime tolerance) many times over
_MAX_DOUBLINGS = 64
_EPS = np.finfo(float).eps


class NotSubcriticalError(ValueError):
    """Raised when an operation requires a spectral radius strictly below one."""


def commutation_matrix(p):
    """Permutation matrix P of size p^2 x p^2 with u (x) v = P (v (x) u).

    Row index i*p + j has its one at column j*p + i. P is symmetric and is
    its own inverse.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    P = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            P[i * p + j, j * p + i] = 1.0
    return P


def spectral_radius(m):
    """Largest eigenvalue modulus of a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix, got shape %r" % (m.shape,))
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def mode_product(m, t):
    """Apply the square matrix m along every axis of the tensor t.

    For a k-axis tensor this is the tensor form of m^(x)k vec(t):
    out[a, b, ...] = sum m[a, i] m[b, j] ... t[i, j, ...]. Each pass
    contracts the leading axis and appends the result last, so after k
    passes the axes are back in order.
    """
    for _ in range(t.ndim):
        t = np.tensordot(t, m, axes=([0], [1]))
    return t


def tensor_fixed_point(m, b):
    """Solve X = b + mode_product(m, X) by Smith doubling.

    The solution is the series sum_k mode_product(m^k, b), which converges
    iff spectral_radius(m) < 1. Doubling step n adds the next 2^n terms at
    once, S <- S + mode_product(A, S), then squares A <- A A, so the cost
    per step is one mode product and one p x p matrix product. Stops once
    the update is below machine epsilon relative to S and the squared A has
    infinity norm below one. The norm test certifies spectral radius < 1:
    at radius one, partial sums S can cancel to zero (m a rotation, b odd
    under it), so a small update alone proves nothing. Raises
    NotSubcriticalError if the test does not pass within 64 doublings.
    """
    m = np.asarray(m, dtype=float)
    s = np.array(b, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix, got shape %r" % (m.shape,))
    if s.ndim < 1 or any(n != m.shape[0] for n in s.shape):
        raise ValueError(
            "need every axis of b to have length %d, got shape %r" % (m.shape[0], s.shape)
        )
    a = m
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS):
            update = mode_product(a, s)
            s = s + update
            size = np.max(np.abs(s))
            if not np.isfinite(size):
                break
            a = a @ a
            small = np.max(np.abs(update)) <= _EPS * size
            if small and np.max(np.sum(np.abs(a), axis=1)) < 1.0:
                return s
    raise NotSubcriticalError(
        "fixed point series did not converge within %d doublings; it needs"
        " spectral radius < 1, got %.6g" % (_MAX_DOUBLINGS, spectral_radius(m))
    )


def lyapunov_solve(m, v):
    """Solve S = v + m S m^T for the discrete Lyapunov fixed point.

    Requires spectral_radius(m) < 1, in which case the unique solution is
    S = sum_k m^k v (m^T)^k, summed by tensor_fixed_point on the p x p
    matrix; its norm certificate raises NotSubcriticalError otherwise.
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.shape != v.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need square m and v of matching shape")
    return tensor_fixed_point(m, v)
