"""The refined inverse and its exact residual, against exact arithmetic and
the longdouble route they replaced.

_linalg._residual computes I - A X from slice products that cannot round.
Fraction arithmetic checks it within the bound that the module docstring
states, and because no product rounds, the result cannot depend on how the
columns of X are blocked (nor on BLAS's thread count; CI runs this file
again on two threads).  The former inv, a longdouble LU with longdouble
Newton steps, is kept below as the oracle of the new one, and a 40-digit
mpmath inverse decides which of the two is closer on a deep grid.
"""

from fractions import Fraction
from math import ceil, log2

import numpy as np
import pytest

from permlab import (ExpDecayBase, GridSpec, ScaleMinBase, ScalePotential,
                     partial_rebirth_potential)
from permlab import _linalg as la
from permlab.bases import mirror_upper
from permlab.expressions import Affine, Const, Pow, Prod, Sum


def _longdouble_inv(a):
    """inv as it was: longdouble LU, lu_solve of the identity, and two
    longdouble Newton steps."""
    a = np.asarray(a, dtype=la.LD)
    n = a.shape[0]
    x = la.lu_solve(la.lu_factor(a), np.eye(n, dtype=la.LD))
    for _ in range(2):
        residual = np.eye(n, dtype=la.LD) - a @ x
        if np.max(np.abs(residual)) < 1e-30:
            break
        x = x + x @ residual
    return x


# -- the exact residual -----------------------------------------------------

def _exact_residual(a, x):
    """I - (a_hi + a_lo)(x_hi + x_lo) in Fractions."""
    def whole(pair):
        hi, lo = pair
        lo = np.zeros_like(hi) if lo is None else lo
        return [[Fraction(h) + Fraction(l) for h, l in zip(*rows)]
                for rows in zip(hi, lo)]
    A, X = whole(a), whole(x)
    cols = list(zip(*X))
    return [[int(i == j) - sum(p * q for p, q in zip(row, col))
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
    """A min-kernel Gram matrix and a refined inverse, so that I - A X
    cancels to about 1e-19."""
    pts = np.linspace(0.1, 2.0, n) ** 2
    a = np.minimum.outer(pts, pts)
    if longdouble:
        a = np.asarray(a, dtype=la.LD) / 3
    x = la.inv(a)
    x_hi = np.asarray(x, dtype=float)
    return la._pair(a), (x_hi, np.asarray(x - x_hi, dtype=float))


CASES = ([(f"spread-{n}-{'lo' if lo else 'hi'}", n, lo)
          for n in (1, 2, 7, 64, 401) for lo in (False, True)]
         + [("inverse-12", 12, False), ("inverse-ld-30", 30, True)])


@pytest.mark.parametrize("name, n, flag", CASES, ids=[c[0] for c in CASES])
def test_residual_is_within_its_bound_of_fraction_arithmetic(name, n, flag):
    if name.startswith("spread"):
        rng = np.random.default_rng(n + 1000 * flag)
        a, x = _spread(rng, (3, n), flag), _spread(rng, (n, 4), flag)
    else:
        a, x = _near_inverse(n, flag)
    got = la._residual(a, x)
    exact = _exact_residual(a, x)
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
    full = la._residual(a, x)
    for block in (1, 7, 64):
        monkeypatch.setattr(la, "_BLOCK", block)
        assert np.array_equal(la._residual(a, x), full), block


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
    new, old = la.inv(a), _longdouble_inv(a)
    assert new.dtype == la.LD
    cond = la.cond1(a, old)
    scale = float(np.max(np.abs(old)))
    assert float(np.max(np.abs(new - old))) <= cond * 2.0 ** -62 * scale


def test_inv_of_a_longdouble_matrix_uses_its_low_part():
    a = np.asarray(_deep_grid(), dtype=la.LD) * (1 + la.LD(2) ** -60)
    new, old = la.inv(a), _longdouble_inv(a)
    assert la._pair(a)[1].any()
    cond = la.cond1(a, old)
    scale = float(np.max(np.abs(old)))
    assert float(np.max(np.abs(new - old))) <= cond * 2.0 ** -62 * scale


def test_inv_is_no_further_from_a_40_digit_inverse_than_the_oracle():
    mp = pytest.importorskip("mpmath")
    a = _deep_grid()
    n = len(a)
    with mp.workdps(40):
        ref = mp.inverse(mp.matrix(a.tolist()))

        def error(x):
            # a longdouble entry is hi + lo in doubles, exactly
            hi = np.asarray(x, dtype=float)
            lo = np.asarray(x - hi, dtype=float)
            return max(abs(mp.mpf(hi[i, j]) + mp.mpf(lo[i, j]) - ref[i, j])
                       for i in range(n) for j in range(n))

        new, old = error(la.inv(a)), error(_longdouble_inv(a))
    assert new <= old
