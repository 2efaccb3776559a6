"""Dense LU in extended precision.

The grid Gram matrices get badly conditioned as geometric grids refine, and
the sign checks downstream run at 1e-10 tolerances, so factorization is done
in numpy longdouble (80-bit on x86) rather than double.  The cubic cost is
not small: numpy runs longdouble without BLAS, and a traced grid-algebra
benchmark run spends about two thirds of its time in this module.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

__all__ = ["LD", "lu_factor", "lu_solve", "inv", "slogdet", "cond1"]


def lu_factor(a: np.ndarray):
    """Partial-pivot LU; returns (lu, piv, sign)."""
    lu = np.array(a, dtype=LD, copy=True)
    n = lu.shape[0]
    piv = np.arange(n)
    sign = 1.0
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0:
            raise np.linalg.LinAlgError("singular matrix in LU factorization")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    if lu[n - 1, n - 1] == 0:
        raise np.linalg.LinAlgError("singular matrix in LU factorization")
    return lu, piv, sign


def lu_solve(factored, b: np.ndarray) -> np.ndarray:
    lu, piv, _ = factored
    n = lu.shape[0]
    x = np.array(b, dtype=LD, copy=True)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    x = x[piv]
    for k in range(1, n):            # forward, unit lower triangle
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):   # backward
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x[:, 0] if squeeze else x


def inv(a: np.ndarray, factored=None) -> np.ndarray:
    """Inverse with up to two steps of Newton refinement, each squaring the
    residual, which keeps entrywise identity checks meaningful on badly
    conditioned Gram matrices; refinement stops once the residual is below
    1e-30.  factored, when given, is lu_factor(a), so that a caller who
    holds it factors a once.
    """
    a = np.asarray(a, dtype=LD)
    n = a.shape[0]
    x = lu_solve(factored or lu_factor(a), np.eye(n, dtype=LD))
    for _ in range(2):
        residual = np.eye(n, dtype=LD) - a @ x
        if np.max(np.abs(residual)) < 1e-30:
            break
        x = x + x @ residual
    return x


def slogdet(a: np.ndarray, factored=None) -> tuple[float, float]:
    """(sign, log|det a|); factored, when given, is lu_factor(a)."""
    lu, _, sign = factored or lu_factor(a)
    diag = np.diag(lu)
    sign *= float(np.prod(np.sign(diag).astype(float)))
    return sign, float(np.sum(np.log(np.abs(diag))))


def cond1(a: np.ndarray, a_inv: np.ndarray) -> float:
    norm = lambda m: float(np.max(np.sum(np.abs(m), axis=0)))
    return norm(a) * norm(a_inv)
