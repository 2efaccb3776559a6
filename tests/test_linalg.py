"""The refined inverse, its exact residual and the error-free
transformations, against exact arithmetic and the longdouble route they
replaced.

_linalg.residual computes c - A X from slice products that cannot round.
Fraction arithmetic checks it within the bound that the module docstring
states, and because no product rounds, the result cannot depend on how the
columns of X are blocked, on whether A's slices are multiplied one by one
or stacked, nor on BLAS's thread count; CI runs this file again on two
threads.  A is cut once and may serve many residuals, which must equal
those of a fresh cut, and product's pair hi + lo must equal the two
residuals it stands for.  The longdouble inv, a longdouble LU with longdouble
Newton steps, is an oracle of the float64 one (longdouble_oracle), and a
40-digit mpmath inverse decides which of the two is closer on a deep grid.
inv and slogdet reach LAPACK through numpy.linalg; the route they replaced,
scipy's LU (la.lu_factor, la.lu_solve), is the oracle of both.
"""

from fractions import Fraction
from math import ceil, log2

import numpy as np
import pytest

import longdouble_oracle as ld
from permlab import (ExpDecayBase, GridSpec, ScaleMinBase, ScalePotential,
                     partial_rebirth_potential)
from permlab import _linalg as la
from permlab.bases import mirror_upper
from permlab.expressions import Affine, Const, Pow, Prod, Sum


# -- the exact residual -----------------------------------------------------

def _exact_residual(a, x, c=None):
    """c - (a_hi + a_lo)(x_hi + x_lo) in Fractions, c = I by default."""
    def whole(pair):
        hi, lo = pair
        lo = np.zeros_like(hi) if lo is None else lo
        return [[Fraction(h) + Fraction(l) for h, l in zip(*rows)]
                for rows in zip(hi, lo)]
    A, X = whole(a), whole(x)
    cols = list(zip(*X))
    target = (lambda i, j: int(i == j)) if c is None else (
        lambda i, j: Fraction(c[i, j]))
    return [[target(i, j) - sum(p * q for p, q in zip(row, col))
             for j, col in enumerate(cols)] for i, row in enumerate(A)]


def _bound(a, x, exact):
    """The module docstring's bound, entry by entry, in Fractions."""
    n = a[0].shape[1]
    b = 53 - ceil((53 + log2(n)) / 2)
    t_row = np.frexp(np.max(np.abs(a[0]), axis=1))[1]
    t_col = np.frexp(np.max(np.abs(x[0]), axis=0))[1]
    two = Fraction(2)
    level = two ** (-4 * b) + two ** (-2 * b - 51)
    return [[abs(r) * two ** -53 + 16 * n * two ** int(ti + tj) * level
             + two ** -100
             for tj, r in zip(t_col, row)] for ti, row in zip(t_row, exact)]


def _spread(rng, shape, with_lo):
    """Entries with exponents spread over +-60, and a low part below
    2^-53 of them."""
    hi = rng.uniform(-1.0, 1.0, shape) * np.exp2(rng.integers(-60, 61, shape))
    lo = hi * rng.uniform(-1.0, 1.0, shape) * 2.0 ** -53 if with_lo else None
    return hi, lo


def _near_inverse(n, longdouble):
    """A min-kernel Gram matrix and its refined inverse, so that I - A X
    cancels to about 1e-19; with longdouble, A / 3 in longdouble, whose
    pair has a low part."""
    pts = np.linspace(0.1, 2.0, n) ** 2
    a = np.minimum.outer(pts, pts)
    if longdouble:
        a = ld.split(np.asarray(a, dtype=ld.LD) / 3)
        return a, la.inv(a[0])
    return (a, None), la.inv(a)


CASES = ([(f"spread-{n}-{'lo' if lo else 'hi'}", n, lo)
          for n in (1, 2, 7, 64, 401) for lo in (False, True)]
         + [("inverse-12", 12, False), ("inverse-ld-30", 30, True),
            ("target-64", 64, True)])


@pytest.mark.parametrize("name, n, flag", CASES, ids=[c[0] for c in CASES])
def test_residual_is_within_its_bound_of_fraction_arithmetic(name, n, flag):
    c = None
    if name.startswith("spread"):
        rng = np.random.default_rng(n + 1000 * flag)
        a, x = _spread(rng, (3, n), flag), _spread(rng, (n, 4), flag)
    elif name.startswith("target"):
        # a target c that nearly cancels a x, as in a refinement step
        rng = np.random.default_rng(n)
        a, x = _spread(rng, (3, n), flag), _spread(rng, (n, 4), flag)
        c = a[0] @ x[0]
    else:
        a, x = _near_inverse(n, flag)
    got = la.residual(la.cut(a), x, c)
    assert np.array_equal(got, _former_residual(a, x, c))
    exact = _exact_residual(a, x, c)
    bound = _bound(a, x, exact)
    for i, row in enumerate(exact):
        for j, r in enumerate(row):
            assert abs(Fraction(got[i, j]) - r) <= bound[i][j], (i, j)


def _negative(n):
    """Entries in (-1, -0.5], whose slices take the finer of the two units
    of the split: the slice products of a column sum to over 2^51 of their
    unit, so slices one bit wider would round."""
    rng = np.random.default_rng(n)
    return ((-rng.uniform(0.5, 1.0, (n, n)), None),
            (-rng.uniform(0.5, 1.0, (n, n)), None))


@pytest.mark.parametrize("name", ["near-inverse-97", "negative-401"])
def test_residual_does_not_depend_on_the_block_size(name, monkeypatch):
    if name == "near-inverse-97":
        # a longdouble A and a pair X, so that both low parts are used
        a, x = _near_inverse(97, True)
        assert a[1].any() and x[1].any()
    else:
        a, x = _negative(401)
    n = len(a[0])
    monkeypatch.setattr(la, "_BLOCK", n)
    s = la.cut(a)
    full = la.residual(s, x)
    for block in (1, 7, 64):
        monkeypatch.setattr(la, "_BLOCK", block)
        assert np.array_equal(la.residual(la.cut(a), x), full), block
        assert np.array_equal(la.residual(s, x), full), block


def _right_operands(rng, n, with_lo):
    """A thin and a square right operand, with or without a low part."""
    return [_spread(rng, (n, k), with_lo) for k in (2, n)]


@pytest.mark.parametrize("with_lo", [False, True], ids=["hi", "lo"])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_reused_cut_gives_the_residuals_of_fresh_cuts(with_lo, block,
                                                        monkeypatch):
    monkeypatch.setattr(la, "_BLOCK", block)
    rng = np.random.default_rng(block + 100 * with_lo)
    n = 97
    a = _spread(rng, (n, n), with_lo)
    s = la.cut(a)
    kept = s.copy()
    for x in _right_operands(rng, n, with_lo) * 2:
        c = rng.uniform(-1.0, 1.0, (n, x[0].shape[1]))
        for target in (None, c):
            assert np.array_equal(la.residual(s, x, target),
                                  la.residual(la.cut(a), x, target))
        assert np.array_equal(la.product(s, x)[0], la.product(la.cut(a), x)[0])
    assert np.array_equal(s, kept)


@pytest.mark.parametrize("with_lo", [False, True], ids=["hi", "lo"])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_product_is_the_pair_of_two_residuals(with_lo, block, monkeypatch):
    monkeypatch.setattr(la, "_BLOCK", block)
    rng = np.random.default_rng(block + 100 * with_lo + 1)
    n = 97
    a = _spread(rng, (n, n), with_lo)
    s = la.cut(a)
    for x in _right_operands(rng, n, with_lo):
        hi, lo = la.product(s, x)
        assert np.array_equal(hi, -la.residual(s, x, np.zeros(hi.shape)))
        assert np.array_equal(lo, -la.residual(s, x, hi))


def _former_residual(a, x, c=None):
    """residual as it was before A's slices were stacked: A cut on every
    call and its ten slice products made one by one, in the same order of
    summation."""
    m, n = a[0].shape
    beta = ceil((53 + log2(n)) / 2)
    s = list(la._slices(*a, beta))
    out = np.empty((m, x[0].shape[1]))
    for c0 in range(0, out.shape[1], la._BLOCK):
        cols = slice(c0, c0 + la._BLOCK)
        t = list(la._slices(*(None if y is None else y[:, cols].T for y in x),
                            beta))
        acc = (np.eye(m, len(t[0]), -c0) if c is None
               else np.array(c[:, cols], dtype=float))
        err, tail = np.zeros(acc.shape), np.zeros(acc.shape)
        for j, right in enumerate(t):
            for i, left in enumerate(s[:4 - j]):
                p = left @ right.T
                if i + j > 1:
                    tail += p
                    continue
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


# -- the refined inverse -----------------------------------------------------

def _rebirth_400():
    """The extension of the 400-state scale diffusion of
    tests/test_rebirth.py."""
    n = 400
    edges = np.linspace(0.0, 2.0, n + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    s = centers + 0.2 * centers ** 2
    mu = np.where(centers <= 1.0, 1.0 + 0.5 * centers, 0.0) * width
    mu *= 0.9 / np.sum(mu)
    return partial_rebirth_potential(np.minimum.outer(s, s), mu,
                                     np.full(n, width)).u_ext


def _grid_200():
    """The Gram matrix of a scale kernel on a 200-point grid below x0, with
    offsets from 1.5e-3 to 0.4."""
    s = Sum(Affine(1.2, 0.0), Prod(Const(0.5), Pow(Affine(1.0, 0.0), 2.0)))
    pts = np.concatenate(([1.1], 1.1 - np.geomspace(1.5e-3, 0.4, 199)))
    return mirror_upper(ScaleMinBase(ScalePotential(s)).gram(pts, pts))


def _deep_grid():
    """exp_decay on the 18 offsets down to 2^-20 of
    tests/test_decompose_routes.py (cond 4.3e7)."""
    pts = GridSpec(d=0.6541, theta=0.5, n=20, q=0.5, direction=-1).points()
    return mirror_upper(ExpDecayBase(0.7765, 1.016).gram(pts, pts))


MATRICES = {"rebirth-400": _rebirth_400, "grid-200": _grid_200,
            "deep-grid": _deep_grid}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_inv_agrees_with_the_longdouble_oracle(name):
    a = MATRICES[name]()
    new, old = la.inv(a), ld.inv(a)
    assert all(part.dtype == np.float64 for part in new)
    cond = la.cond1(a, old)
    scale = float(np.max(np.abs(old)))
    assert float(np.max(np.abs(ld.join(new) - old))) <= cond * 2.0 ** -62 * scale


def test_inv_returns_a_normalized_pair():
    hi, lo = la.inv(_deep_grid())
    assert lo.any()
    assert np.all(np.abs(lo) <= 0.5 * np.spacing(np.abs(hi)))
    assert np.array_equal(hi + lo, hi)


def test_inv_is_no_further_from_a_40_digit_inverse_than_the_oracle():
    mp = pytest.importorskip("mpmath")
    a = _deep_grid()
    n = len(a)
    with mp.workdps(40):
        ref = mp.inverse(mp.matrix(a.tolist()))

        def error(pair):
            hi, lo = pair
            return max(abs(mp.mpf(hi[i, j]) + mp.mpf(lo[i, j]) - ref[i, j])
                       for i in range(n) for j in range(n))

        new, old = error(la.inv(a)), error(ld.split(ld.inv(a)))
    assert new <= old


def _exp_decay_grid(n, t_min):
    """exp_decay's Gram matrix on d = 1 and n - 1 offsets below it, in
    geometric steps from t_min to 0.5."""
    pts = np.concatenate(([1.0], 1.0 - np.geomspace(t_min, 0.5, n - 1)))
    return mirror_upper(ExpDecayBase(0.7, 0.3).gram(pts, pts))


def _former_inv(a):
    """inv as it was started before numpy.linalg: from scipy's LU solve of
    the identity, with the same two Newton steps."""
    hi = la.lu_solve(la.lu_factor(a), np.eye(len(a)))
    lo = np.zeros_like(hi)
    for _ in range(2):
        hi, lo = la.pair_add(hi, lo, hi @ la.residual(la.cut((a, None)), (hi, lo)))
    return hi, lo


GRIDS = {f"exp-decay-{n}-{t:g}": (lambda n=n, t=t: _exp_decay_grid(n, t))
         for n in (3, 30, 120, 401) for t in (1e-2, 1e-5, 1e-8)}


@pytest.mark.parametrize("name", sorted(MATRICES) + list(GRIDS))
def test_inv_agrees_with_the_scipy_started_pair(name):
    # each pair lies within about cond 2^-4b of the inverse (module
    # docstring), so the two lie within that of each other; the largest
    # share of it measured on such grids is 0.25, at n = 100 and cond 8e8
    a = {**MATRICES, **GRIDS}[name]()
    b = 53 - ceil((53 + log2(len(a))) / 2)
    new, old = la.inv(a), _former_inv(a)
    diff = np.max(np.abs((new[0] - old[0]) + (new[1] - old[1])))
    bound = la.cond1(a, old[0]) * 2.0 ** (-4 * b) * np.max(np.abs(old[0]))
    assert diff <= bound


def test_lu_factor_refuses_a_singular_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        la.lu_factor(np.ones((3, 3)))


def _eye_with(value):
    a = np.eye(3)
    a[1, 2] = value
    return a


@pytest.mark.parametrize("func", [la.inv, la.slogdet], ids=["inv", "slogdet"])
@pytest.mark.parametrize("a, error, match", [
    (_eye_with(np.nan), ValueError, "infs or NaNs"),
    (_eye_with(np.inf), ValueError, "infs or NaNs"),
    (np.ones((3, 3)), np.linalg.LinAlgError, "singular matrix in LU factorization"),
], ids=["nan", "inf", "singular"])
def test_inv_and_slogdet_refuse_a_bad_matrix(func, a, error, match):
    with pytest.raises(error, match=match) as got:
        func(a)
    # LinAlgError is a ValueError: NaN and inf must not read as singular
    assert got.type is error


def _former_slogdet(a):
    """(sign, sum log|diag|) from the pivots and diagonal of scipy's LU."""
    lu, piv = la.lu_factor(a)
    diag = np.diag(lu)
    sign = (-1.0) ** np.count_nonzero(piv != np.arange(len(piv)))
    return sign * np.prod(np.sign(diag)), np.sum(np.log(np.abs(diag)))


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_slogdet_agrees_with_numpy(name):
    # la.slogdet is numpy's; the oracle is scipy's LU, the route it replaced
    a = MATRICES[name]()
    # a row swap makes the sign negative where the matrix has one
    for mat in (a, a[::-1]):
        sign, logdet = la.slogdet(mat)
        want_sign, want = _former_slogdet(mat)
        assert sign == want_sign
        assert logdet == pytest.approx(want, rel=1e-13, abs=1e-12)


# -- error-free transformations ----------------------------------------------

def test_two_product_and_pair_add_are_exact():
    rng = np.random.default_rng(5)
    a, _ = _spread(rng, (40, 40), False)
    b, _ = _spread(rng, (40, 40), False)
    c, _ = _spread(rng, (40, 40), False)
    p, e = la.two_product(a, b)
    for x, y, hi, lo in zip(a.ravel(), b.ravel(), p.ravel(), e.ravel()):
        assert Fraction(hi) + Fraction(lo) == Fraction(x) * Fraction(y)
    # (c, 0) + a: TwoSum is exact, and the pair comes out normalized
    hi, lo = la.pair_add(c, np.zeros_like(c), a.copy())
    for x, y, s, t in zip(c.ravel(), a.ravel(), hi.ravel(), lo.ravel()):
        assert Fraction(s) + Fraction(t) == Fraction(x) + Fraction(y)
    assert np.array_equal(hi + lo, hi)


def test_dot_rounds_the_exact_dot_product_once():
    rng = np.random.default_rng(6)
    for n in (1, 5, 200):
        x, _ = _spread(rng, n, False)
        y, _ = _spread(rng, n, False)
        # a last term that cancels most of the sum
        y[-1] = -float(np.dot(x[:-1], y[:-1])) / x[-1]
        exact = sum(Fraction(p) * Fraction(q) for p, q in zip(x, y))
        hi, lo = la.dot(x, y)
        # each part correctly rounded: no double lies strictly between it
        # and what it stands for
        assert abs(Fraction(hi) - exact) <= Fraction(np.spacing(abs(hi))) / 2
        rest = exact - Fraction(hi)
        assert abs(Fraction(lo) - rest) <= Fraction(np.spacing(abs(lo))) / 2


def test_pair_div_is_exact_to_first_order():
    rng = np.random.default_rng(7)
    a_hi, _ = _spread(rng, 200, False)
    d_hi = rng.uniform(0.5, 2.0, 200) * np.exp2(rng.integers(-30, 31, 200))
    a_lo, d_lo = (x * rng.uniform(-1.0, 1.0, 200) * 2.0 ** -53
                  for x in (a_hi, d_hi))
    hi, lo = la.pair_div((a_hi, a_lo), (d_hi, d_lo))
    for terms in zip(a_hi, a_lo, d_hi, d_lo, hi, lo):
        a1, a2, d1, d2, q1, q2 = map(Fraction, terms)
        exact = (a1 + a2) / (d1 + d2)
        assert abs(q1 + q2 - exact) <= abs(exact) * Fraction(2) ** -100
