"""The longdouble routes that permlab's float64 linear algebra replaced, kept
as oracles for the tests.

numpy's longdouble is 80-bit on x86 and plain float64 on some other
platforms, so a test that needs the extra bits says so by comparing with a
tolerance that float64 would also meet, or by asking mpmath.
"""

import numpy as np

LD = np.longdouble


def lu_factor(a):
    """Partial-pivot LU in longdouble; returns (lu, piv, sign)."""
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


def lu_solve(factored, b):
    lu, piv, _ = factored
    n = lu.shape[0]
    x = np.array(b, dtype=LD, copy=True)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    x = x[piv]
    for k in range(1, n):            # forward, unit lower triangle
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):   # backward
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x[:, 0] if squeeze else x


def slogdet(a):
    """(sign, log|det a|) from the longdouble LU."""
    lu, _, sign = lu_factor(a)
    diag = np.diag(lu)
    sign *= float(np.prod(np.sign(diag).astype(float)))
    return sign, float(np.sum(np.log(np.abs(diag))))


def inv(a):
    """Longdouble LU, lu_solve of the identity, and two longdouble Newton
    steps."""
    a = np.asarray(a, dtype=LD)
    n = a.shape[0]
    x = lu_solve(lu_factor(a), np.eye(n, dtype=LD))
    for _ in range(2):
        residual = np.eye(n, dtype=LD) - a @ x
        if np.max(np.abs(residual)) < 1e-30:
            break
        x = x + x @ residual
    return x


def split(a):
    """(hi, lo), float64 matrices with hi + lo == a exactly for a longdouble
    a (80-bit values have 64 bits, which two doubles hold)."""
    a = np.asarray(a, dtype=LD)
    hi = np.asarray(a, dtype=float)
    return hi, np.asarray(a - hi, dtype=float)


def join(pair):
    """hi + lo of a float64 pair, in longdouble."""
    out = np.asarray(pair[0], dtype=LD)
    return out + pair[1]


def kernel(ak):
    """The bordered matrix [[1, f], [g, G + g f^T]] of an AugmentedKernel,
    assembled in longdouble."""
    f, g = (np.asarray(x, dtype=LD) for x in (ak.fvec, ak.gvec))
    n = len(f) + 1
    out = np.empty((n, n), dtype=LD)
    out[0, 0], out[0, 1:], out[1:, 0] = 1.0, f, g
    out[1:, 1:] = np.asarray(ak.G, dtype=LD) + np.outer(g, f)
    return out
