"""Dense linear algebra for the kernel checks: a longdouble LU, and an
inverse refined on float64 BLAS with exact matrix products.

The grid Gram matrices get badly conditioned as geometric grids refine, and
the sign checks downstream run at 1e-10 tolerances, so neither route stops
at float64 accuracy.

lu_factor, lu_solve and slogdet run a partial-pivot LU in numpy longdouble
(80-bit on x86).  numpy runs longdouble without BLAS, so this is the one
cubic cost left outside BLAS; each kernel factors G and K once, and the LU
of K is the determinant's oracle.

inv starts from LAPACK's float64 inverse and takes two Newton steps
X <- X + X (I - A X), keeping X as a pair hi + lo of doubles.  The residual
R = I - A X comes from _residual, whose matrix products cannot round.  Each
operand is a pair hi + lo (lo = 0 for a float64 matrix; a longdouble one
splits exactly), cut into four slices, A by rows and X by columns, with the
splitting constant beta = ceil((53 + log2 n) / 2) of Ozaki, Ogita, Oishi &
Rump, Numer. Algorithms 59 (2012).  If 2^t bounds a row of A's hi part (or
a column of X's), its slice k holds the bits between 2^e_k and 2^(e_k - b),
b = 53 - beta, with e_0 = t, e_1 = t - b, e_2 = t - 2b + 1 and e_3 = e_2 -
b; lo joins the row before slice 2, which has the bit of headroom it needs.
A product of two slices then sums n integers of at most 2b <= 53 - log2 n
bits in a common unit, which float64 holds exactly, in any order of
summation and on any number of BLAS threads.  The ten products S_i T_j with
i + j <= 3 are taken.  The identity and the three largest, S_0 T_0, S_1 T_0
and S_0 T_1, are summed by Sum2, a cascade of error-free sums (Ogita, Rump &
Oishi, "Accurate sum and dot product", SISC 26, 2005); the other seven lie
below 2^(1-2b) of |A| |X| and are summed plainly.  For pairs with
|lo| <= 2^-53 |hi|, as in inv, a computed entry differs from the exact R_ij
by at most

    2^-53 |R_ij| + 16 n 2^(t_i + t'_j) (2^(-4b) + 2^(-2b-51)) + 2^-100,

with t_i and t'_j the exponents of row i of A and column j of X.  That is
well below the longdouble residual's n 2^-64 |A| |X|, and it takes the
error of the refined inverse down to about cond * 2^-4b.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

LD = np.longdouble
_BLOCK = 64              # columns of X per pass of _residual

__all__ = ["LD", "lu_factor", "lu_solve", "inv", "correction", "slogdet",
           "cond1"]


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


def inv(a: np.ndarray) -> np.ndarray:
    """Longdouble inverse of a float64 or longdouble matrix: LAPACK's float64
    inverse and two Newton steps, each squaring its error, with the
    residuals from _residual and the corrections X R on float64 BLAS."""
    a = _pair(a)
    hi = np.linalg.inv(a[0])
    lo = np.zeros_like(hi)
    for _ in range(2):
        hi, lo = _add(hi, lo, hi @ _residual(a, (hi, lo)))
    out = np.asarray(hi, dtype=LD)
    out += lo
    return out


def correction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Newton correction x (I - a x), in float64, of float64 or
    longdouble matrices a and x; the residual comes from _residual."""
    x = _pair(x)
    return x[0] @ _residual(_pair(a), x)


def _add(hi: np.ndarray, lo: np.ndarray, c: np.ndarray) -> tuple:
    """(hi, lo) + c as a normalized pair: TwoSum, then FastTwoSum.  Works in
    place on lo and c, so that three n x n temporaries are made, not eight.
    """
    s = hi + c
    z = s - hi
    c -= z
    z -= s
    z += hi                 # hi - (s - z), as fl(z - s) = -fl(s - z)
    z += c
    lo += z                 # lo + TwoSum's error
    hi = s + lo
    s -= hi
    lo += s                 # lo - (hi - s)
    return hi, lo


def _pair(a: np.ndarray) -> tuple:
    """(hi, lo), float64 matrices with hi + lo == a exactly; lo is None for
    a float64 a."""
    a = np.asarray(a)
    hi = np.asarray(a, dtype=float)
    return hi, (np.asarray(a - hi, dtype=float) if a.dtype == LD else None)


def _slices(hi: np.ndarray, lo, beta: int) -> list:
    """The four Ozaki slices of the rows of hi + lo (lo may be None), as
    four arrays: one array of all four, the largest allocation of an
    inverse, raised the resident peak of a long run by about 1 MB at
    n = 401.  With 2^t above the largest |entry| of a row of hi,
    slice k is a multiple of 2^(e_k - b) of size at most 2^e_k, b = 53 -
    beta.  e_0 = t and e_1 = t - b; lo joins what is left before slice 2,
    which takes a bit of headroom for it: e_2 = t - 2b + 1, e_3 = e_2 - b.
    """
    b = 53 - beta
    _, t = np.frexp(np.abs(hi).max(axis=1, keepdims=True))
    # 2^(e_k + beta), the splitting constant of slice k for each row
    shifts = np.array([beta, beta - b, beta + 1 - 2 * b, beta + 1 - 3 * b])
    sigmas = np.ldexp(1.0, t + shifts[:, None, None])
    rest = np.array(hi, dtype=float, order="C")
    out = []
    for k, sigma in enumerate(sigmas):
        if k == 2 and lo is not None:
            rest += lo
        piece = rest + sigma
        piece -= sigma
        rest -= piece
        out.append(piece)
    return out


def _residual(a: tuple, x: tuple) -> np.ndarray:
    """I - a x for pairs a = (hi, lo) of m x n and x = (hi, lo) of n x k
    float64 matrices (lo may be None), I the m x k identity, with exact
    slice products (module docstring).  X is taken _BLOCK columns at a
    time, so that the temporaries besides a's slices stay O((m + n)
    _BLOCK); the result does not depend on _BLOCK."""
    m, n = a[0].shape
    beta = ceil((53 + log2(n)) / 2)
    s = _slices(*a, beta)
    out = np.empty((m, x[0].shape[1]))
    for c0 in range(0, out.shape[1], _BLOCK):
        cols = slice(c0, c0 + _BLOCK)
        # X is sliced by columns, which are the rows of its transpose
        t = _slices(*(None if y is None else y[:, cols].T for y in x), beta)
        # S_i T_j for i + j <= 3.  S_0 T_0, S_1 T_0 and S_0 T_1 go through
        # Sum2: acc, plus the rounding errors of its sums gathered in err.
        # The other seven lie below 2^(1-2b) of |a| |x| and are summed
        # plainly in tail.
        acc = np.eye(m, len(t[0]), -c0)
        err, tail = np.zeros(acc.shape), np.zeros(acc.shape)
        for j, right in enumerate(t):
            for i, left in enumerate(s[:4 - j]):
                p = left @ right.T
                if i + j > 1:
                    tail += p
                    continue
                # TwoSum's error (acc - (total - z)) - (p + z), in place
                total = acc - p
                z = total - acc
                acc -= total - z
                z += p
                acc -= z
                err += acc
                acc = total
        err -= tail
        acc += err
        out[:, cols] = acc
    return out


def slogdet(a: np.ndarray, factored=None) -> tuple[float, float]:
    """(sign, log|det a|); factored, when given, is lu_factor(a)."""
    lu, _, sign = factored or lu_factor(a)
    diag = np.diag(lu)
    sign *= float(np.prod(np.sign(diag).astype(float)))
    return sign, float(np.sum(np.log(np.abs(diag))))


def cond1(a: np.ndarray, a_inv: np.ndarray) -> float:
    norm = lambda m: float(np.max(np.sum(np.abs(m), axis=0)))
    return norm(a) * norm(a_inv)
