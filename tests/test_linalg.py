"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from opiniongame.linalg import SingularMatrixError, exp_with_integral, solve_linear


def exp_factor(M, t):
    """e^{Mt}, the first factor of exp_with_integral."""
    return exp_with_integral(M, t)[0]


def expm_series(M, t, terms=200):
    """Independent oracle: plain Taylor summation of e^{Mt}."""
    M = np.asarray(M, dtype=float) * t
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return out


def test_exp_of_zero_matrix_is_identity():
    for size in (1, 3, 6):
        E = exp_factor(np.zeros((size, size)), 7.0)
        assert np.array_equal(E, np.eye(size))


def test_exp_single_agent_block_matches_cosh_form():
    # A = [[0, -1], [-lam, 0]] exponentiates to hyperbolic rotations
    lam, t = 3.7, 1.3
    E = exp_factor(np.array([[0.0, -1.0], [-lam, 0.0]]), t)
    s = np.sqrt(lam)
    ref = np.array([[np.cosh(s * t), -np.sinh(s * t) / s],
                    [-lam * np.sinh(s * t) / s, np.cosh(s * t)]])
    np.testing.assert_allclose(E, ref, rtol=1e-13)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        M = rng.standard_normal((5, 5))
        t = rng.uniform(0.1, 1.5)
        E = exp_factor(M, t)
        ref = expm_series(M, t)
        np.testing.assert_allclose(E, ref, rtol=1e-12, atol=1e-13)


def test_exp_semigroup_property():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    E1, E2 = exp_factor(M, 0.7), exp_factor(M, 1.1)
    E12 = exp_factor(M, 1.8)
    assert np.max(np.abs(E1 @ E2 - E12)) < 1e-10 * np.max(np.abs(E12))


def test_exp_rejects_bad_input():
    with pytest.raises(ValueError):
        exp_factor(np.zeros((2, 3)), 1.0)
    with pytest.raises(ValueError):
        exp_factor(np.array([[np.nan, 0], [0, 0]]), 1.0)
    with pytest.raises(ValueError):
        exp_factor(np.eye(2), np.inf)


def test_exp_with_integral_zero_matrix():
    Phi, Psi = exp_with_integral(np.zeros((3, 3)), 2.5)
    np.testing.assert_allclose(Phi, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(Psi, 2.5 * np.eye(3), rtol=1e-14)


def test_exp_with_integral_at_zero():
    Phi, Psi = exp_with_integral(np.ones((2, 2)), 0.0)
    assert np.array_equal(Phi, np.eye(2))
    assert np.array_equal(Psi, np.zeros((2, 2)))


def test_exp_with_integral_invertible_formula():
    # for invertible M the integral equals M^{-1}(e^{Mt} - I)
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    t = 0.9
    Phi, Psi = exp_with_integral(M, t)
    ref = np.linalg.solve(M, Phi - np.eye(4))
    np.testing.assert_allclose(Psi, ref, rtol=1e-11, atol=1e-13)


def test_exp_with_integral_derivative_consistency():
    # d/dt Psi = Phi, checked by central differences at O(h^2)
    rng = np.random.default_rng(9)
    M = rng.standard_normal((4, 4))
    t, h = 1.2, 1e-4
    Phi, _ = exp_with_integral(M, t)
    _, Psi_plus = exp_with_integral(M, t + h)
    _, Psi_minus = exp_with_integral(M, t - h)
    dPsi = (Psi_plus - Psi_minus) / (2 * h)
    assert np.max(np.abs(dPsi - Phi)) < 1e-6


def test_solve_identity_and_diagonal():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(solve_linear(np.eye(2), B), B)
    X = solve_linear(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(X, np.diag([0.5, 0.25]), rtol=1e-15)


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((10, 10)) + 5.0 * np.eye(10)
    X = rng.standard_normal((10, 3))
    B = M @ X
    X_hat = solve_linear(M, B)
    assert np.max(np.abs(X_hat - X)) < 1e-10 * max(1.0, np.max(np.abs(X)))
    assert np.max(np.abs(M @ X_hat - B)) < 1e-10 * np.max(np.abs(B))


def test_solve_rejects_singular():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(M, np.ones(2))
    assert info.value.rcond is not None and info.value.rcond < 1e-12
    assert "condition" in str(info.value)


def test_solve_rejects_the_zero_matrix():
    # a zero 1-norm is reported as rcond 0 without asking LAPACK
    with pytest.raises(SingularMatrixError) as info:
        solve_linear(np.zeros((2, 2)), np.ones(2))
    assert info.value.rcond == 0.0
    assert str(info.value) == ("matrix is singular to tolerance: reciprocal condition "
                               "estimate 0.000e+00 below threshold 1.000e-12 "
                               "(condition number ~ 1.000e+300)")


def test_solve_threshold_configurable():
    eps = 1e-9
    M = np.array([[1.0, 0.0], [0.0, eps]])
    solve_linear(M, np.ones(2), rcond_min=1e-12)  # fine at default
    with pytest.raises(SingularMatrixError):
        solve_linear(M, np.ones(2), rcond_min=1e-6)
