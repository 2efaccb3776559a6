"""Dense linear algebra for the kernel checks, in float64 on every platform:
LAPACK's inverse and determinant through numpy.linalg, an inverse refined
with exact matrix products, and the error-free transformations that keep
what rounding drops.

The grid Gram matrices get badly conditioned as geometric grids refine, and
the sign checks downstream run at 1e-10 tolerances, so inv does not stop at
LAPACK's inverse np.linalg.inv(a): it takes two Newton steps
X <- X + X (I - A X), keeping X as a pair hi + lo of doubles.

residual computes c - A X (c = I by default) with products that cannot
round.  Each operand is a pair hi + lo (lo = None for a float64 matrix),
cut into four slices (_slices), A by rows and X by columns, with the
splitting constant beta = ceil((53 + log2 n) / 2) of Ozaki, Ogita, Oishi &
Rump, Numer. Algorithms 59 (2012).  A product of two slices sums n integers
of at most 2b <= 53 - log2 n bits, b = 53 - beta, in a common unit, which
float64 holds exactly, in any order of summation and on any number of BLAS
threads.  Of the products S_i T_j with i + j <= 3, c and the three largest
are summed by Sum2, a cascade of error-free sums (Ogita, Rump & Oishi,
"Accurate sum and dot product", SISC 26, 2005); the other seven lie below
2^(1-2b) of |A| |X| and are summed plainly.  product runs that sum twice
over one set of products, from 0 and then from its own result, and so
returns A X as a pair hi + lo.  For pairs with |lo| <= 2^-53 |hi|, as in
inv, a computed entry differs from the exact R_ij by at most

    2^-53 |R_ij| + 16 n 2^(t_i + t'_j) (2^(-4b) + 2^(-2b-51)) + 2^-100,

with t_i and t'_j the exponents of row i of A and column j of X, and that
takes the error of the refined inverse down to about cond * 2^-4b.

residual and product take A already cut: cut(a) returns its four slices as
one 4 x m x n array, and the caller keeps it for as many products with A as
it needs, so each left operand is cut once (inv cuts a once for both of its
Newton steps).  X is cut _BLOCK columns at a time.  Because A's slices are
contiguous, the products S_0 T_j ... S_(3-j) T_j of a block come from one
GEMM each, four per block in place of ten, and each entry is the same exact
value as that of its own product.  Besides the cut, which the caller
holds, the temporaries are a block's slices of X (4 n _BLOCK doubles) and
its products: one stack of at most 4 m _BLOCK at a time in residual, all
ten, 10 m _BLOCK, in product.

two_product and pair_add are the error-free transformations of Dekker and
Knuth (Ogita, Rump & Oishi 2005, algorithms 3.1-3.3), pair_div is exact to
first order in low parts, and dot sums exact products with math.fsum.
"""

from __future__ import annotations

from math import ceil, fsum, log2

import numpy as np

_BLOCK = 64              # columns of X per pass of residual
_SPLIT = 2.0 ** 27 + 1   # Veltkamp's constant: halves of 26 bits
_SINGULAR = "singular matrix in LU factorization"

__all__ = ["lu_factor", "lu_solve", "inv", "cut", "residual", "product",
           "slogdet", "cond1", "two_product", "pair_add", "pair_div", "dot"]


def lu_factor(a: np.ndarray):
    """LAPACK's partial-pivot LU of a float64 matrix, as (lu, piv), from
    scipy, imported on the call.  No permlab route calls it or lu_solve:
    they are the route inv and slogdet replaced, the tests' oracle for
    both, and perfbench/tracer.py patches both names."""
    from scipy.linalg import lapack
    lu, piv, info = lapack.dgetrf(np.asarray_chkfinite(a, dtype=float))
    if info > 0:
        raise np.linalg.LinAlgError(_SINGULAR)
    return lu, piv


def lu_solve(lu_and_piv: tuple, b: np.ndarray) -> np.ndarray:
    """scipy's solve of a x = b from lu_factor(a), imported on the call."""
    from scipy.linalg import lu_solve as solve
    return solve(lu_and_piv, b)


def inv(a: np.ndarray) -> tuple:
    """The inverse of a float64 matrix as a pair (hi, lo): LAPACK's inverse
    and two Newton steps, each squaring its error, with exact residuals.
    ValueError on NaN or inf, LinAlgError on an exactly singular matrix."""
    a = np.asarray_chkfinite(a, dtype=float)
    try:
        hi = np.linalg.inv(a)
    except np.linalg.LinAlgError as err:
        # a finite square matrix fails only on a zero pivot of its LU
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise
        raise np.linalg.LinAlgError(_SINGULAR) from err
    lo = np.zeros_like(hi)
    s = cut((a, None))
    for _ in range(2):
        hi, lo = pair_add(hi, lo, hi @ residual(s, (hi, lo)))
    return hi, lo


def pair_add(hi: np.ndarray, lo: np.ndarray, c: np.ndarray) -> tuple:
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


def two_product(a, b) -> tuple:
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker), for
    float64 arrays whose products neither overflow nor underflow."""
    p = np.multiply(a, b)
    (a1, a2), (b1, b2) = _halves(a), _halves(b)
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _halves(a):
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    c = _SPLIT * np.asarray(a, dtype=float)
    hi = c - (c - a)
    return hi, a - hi


def pair_div(a: tuple, d: tuple) -> tuple:
    """(a_hi + a_lo) / (d_hi + d_lo) as a pair, to first order in the low
    parts: q = a_hi / d_hi, and the remainder a - q d over d_hi."""
    q = a[0] / d[0]
    p, e = two_product(q, d[0])
    return q, ((a[0] - p) - e + a[1] - q * d[1]) / d[0]


def dot(x: np.ndarray, y: np.ndarray) -> tuple:
    """x . y of two float64 vectors as a pair (hi, lo), each rounded once:
    the exact products of two_product, summed by math.fsum."""
    terms = np.concatenate(two_product(x, y))
    hi = fsum(terms)
    return hi, fsum(np.append(terms, -hi))


def _beta(n: int) -> int:
    """The splitting constant beta = ceil((53 + log2 n) / 2) of products
    of inner dimension n."""
    return ceil((53 + log2(n)) / 2)


def _slices(hi: np.ndarray, lo, beta: int) -> np.ndarray:
    """The four Ozaki slices of the rows of hi + lo (lo may be None), as one
    4 x m x n array.  With 2^t above the largest |entry| of a row of hi,
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
    out = np.empty((4,) + rest.shape)
    for k, (piece, sigma) in enumerate(zip(out, sigmas)):
        if k == 2 and lo is not None:
            rest += lo
        np.add(rest, sigma, out=piece)
        piece -= sigma
        rest -= piece
    return out


def cut(a: tuple) -> np.ndarray:
    """The left operand of residual and product: the pair a = (hi, lo) of
    an m x n float64 matrix (lo may be None) cut by rows into its four
    slices, stacked as one 4 x m x n array (module docstring)."""
    return _slices(*a, _beta(a[0].shape[1]))


def _products(s: np.ndarray, x: tuple, cols: slice):
    """The slice products S_i T_j, i + j <= 3, of the cut s and the columns
    cols of the pair x, cut by columns: for j = 0..3, the stack S_0 T_j ...
    S_(3-j) T_j from one product of S_0 ... S_(3-j), contiguous in s, and
    T_j.  Each entry is exact, so it equals the product of the two slices
    alone, whatever order BLAS sums it in."""
    _, m, n = s.shape
    # X is sliced by columns, which are the rows of its transpose
    t = _slices(*(None if y is None else y[:, cols].T for y in x), _beta(n))
    left = s.reshape(4 * m, n)
    for j, right in enumerate(t):
        yield (left[:(4 - j) * m] @ right.T).reshape(4 - j, m, -1)


def _sum2(acc: np.ndarray, products) -> np.ndarray:
    """acc minus the slice products, in place.  S_0 T_0, S_1 T_0 and S_0 T_1
    go through Sum2: acc, plus the rounding errors of its sums gathered in
    err.  The other seven lie below 2^(1-2b) of |a| |x| and are summed
    plainly in tail."""
    err, tail = np.zeros(acc.shape), np.zeros(acc.shape)
    for j, stack in enumerate(products):
        for i, p in enumerate(stack):
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
    return acc


def residual(s: np.ndarray, x: tuple, c: np.ndarray | None = None) -> np.ndarray:
    """c - a x for the cut s = cut(a) of an m x n matrix, the pair x = (hi,
    lo) of an n x k float64 matrix (lo may be None) and a float64 m x k
    matrix c, the identity by default, with exact slice products (module
    docstring).  X is taken _BLOCK columns at a time, so that the
    temporaries besides s stay O((m + n) _BLOCK); the result does not
    depend on _BLOCK."""
    m, k = s.shape[1], x[0].shape[1]
    out = np.empty((m, k))
    for c0 in range(0, k, _BLOCK):
        cols = slice(c0, min(c0 + _BLOCK, k))
        acc = (np.eye(m, cols.stop - c0, -c0) if c is None
               else np.array(c[:, cols], dtype=float))
        # the products are made as the sums reach them, one stack at a time
        out[:, cols] = _sum2(acc, _products(s, x, cols))
    return out


def product(s: np.ndarray, x: tuple) -> tuple:
    """a x as a pair (hi, lo) for the cut s = cut(a) and the pair x of
    residual: hi = -residual(s, x, 0) and lo = -residual(s, x, hi), bit for
    bit, from one set of slice products."""
    m, k = s.shape[1], x[0].shape[1]
    hi, lo = np.empty((m, k)), np.empty((m, k))
    for c0 in range(0, k, _BLOCK):
        cols = slice(c0, min(c0 + _BLOCK, k))
        products = list(_products(s, x, cols))
        hi[:, cols] = -_sum2(np.zeros((m, cols.stop - c0)), products)
        lo[:, cols] = -_sum2(np.array(hi[:, cols]), products)
    return hi, lo


def slogdet(a: np.ndarray) -> tuple[float, float]:
    """(sign, log|det a|) from LAPACK's LU, through numpy.linalg.
    ValueError on NaN or inf, LinAlgError on an exactly singular matrix."""
    sign, logdet = np.linalg.slogdet(np.asarray_chkfinite(a, dtype=float))
    if sign == 0:
        raise np.linalg.LinAlgError(_SINGULAR)
    return float(sign), float(logdet)


def cond1(a: np.ndarray, a_inv: np.ndarray) -> float:
    norm = lambda m: float(np.max(np.sum(np.abs(m), axis=0)))
    return norm(a) * norm(a_inv)
