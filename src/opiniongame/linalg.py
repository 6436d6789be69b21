"""Dense linear algebra kernels: matrix exponentials, their running integrals, solves.

No game semantics live here; everything operates on plain square matrices.
scipy is imported inside the functions that call it, so importing this
module, and every module that needs only SingularMatrixError, loads numpy
alone.
"""

from __future__ import annotations

import warnings

import numpy as np


class SingularMatrixError(ValueError):
    """A linear solve met a matrix that is singular to working tolerance."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


def _as_square(M):
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def exp_with_integral(M, t):
    """Return (e^{Mt}, int_0^t e^{M(t-tau)} dtau) from one augmented exponential.

    The pair appears as the top block row of exp([[M, I], [0, 0]] t), which
    sidesteps inverting M and works for singular or defective inputs.
    """
    from scipy.linalg import expm

    A = _as_square(M)
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and nonnegative")
    m = A.shape[0]
    if t == 0.0:
        return np.eye(m), np.zeros((m, m))
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = A
    aug[:m, m:] = np.eye(m)
    big = expm(aug * t)
    return np.ascontiguousarray(big[:m, :m]), np.ascontiguousarray(big[:m, m:])


def _reciprocal_condition(lu, anorm):
    from scipy.linalg.lapack import dgecon

    if anorm == 0.0:
        return 0.0
    rcond, info = dgecon(lu, anorm, norm="1")
    if info < 0:
        raise RuntimeError("condition estimation failed")
    return float(rcond)


def solve_linear(M, B, rcond_min=1e-12):
    """Solve M X = B by LU with partial pivoting.

    Raises SingularMatrixError when the 1-norm reciprocal condition estimate
    falls below rcond_min.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    A = _as_square(M)
    rhs = np.asarray(B, dtype=float)
    with warnings.catch_warnings():
        # exact singularity is reported through SingularMatrixError below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(A)
    rcond = _reciprocal_condition(lu, np.linalg.norm(A, 1))
    if rcond < rcond_min:
        raise SingularMatrixError(
            f"matrix is singular to tolerance: reciprocal condition estimate "
            f"{rcond:.3e} below threshold {rcond_min:.3e} "
            f"(condition number ~ {1.0 / max(rcond, 1e-300):.3e})",
            rcond=rcond,
        )
    return lu_solve((lu, piv), rhs)
