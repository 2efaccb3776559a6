"""The array kernel interface against scalar calls and per-pair formulas.

Every base builds gram(xs, ys) and sigma2(xs, ys) with array code shared by
its scalar kernel(x, y).  The contract: both grids equal the base's own
scalar calls, one pair at a time, bit for bit.

The references below are the per-pair scalar formulas and increment-variance
routes those arrays replaced, evaluated one pair at a time on potentials with
their own quadrature caches.  Those that run numpy or the quadrature still
give the same bits.  The libm formulas of exp_decay and stable_hit_zero
(math.exp and Python **) are the former route's oracle, within a bound in
ulps of their uncancelled terms.
"""

from math import exp, sqrt

import numpy as np
import pytest

from permlab import (Affine, CharExponent, Const, ConstantExcessive, Exp,
                     ExpDecayBase, GridSpec, HitZeroLevyBase, LevyBase,
                     LevyPotential, Pow, PQBase, PQPotential, Prod,
                     ScaleMinBase, ScalePotential, StableHitZeroBase,
                     VBetaBase, VPQBase, assemble_kernel,
                     regular_variation_constant)
from permlab import potentials
from permlab.bases import mirror_upper

STABLE = CharExponent.pure_stable(1.5)


# Pow and Exp run numpy's power and exp on scalars (as 0-d input) and grids
# alike, so the per-pair references of these potentials give the grid's bits

def _pq_pot():
    return PQPotential(Pow(Affine(1.0, 3.0), 1.5), Exp(Affine(-1.0, 0.0)),
                       beta=0.5)


def _scale_pot():
    return ScalePotential(Prod(Const(0.9), Pow(Affine(1.0, 0.0), 1.5)))


# -- scalar references -------------------------------------------------------
# Each maker returns (base, reference kernel, reference increment variance,
# uncancelled terms).  The last is None where the reference gives the grid's
# bits; for a libm reference it gives the sum of the absolute terms that the
# kernel adds and subtracts at (x, y), which bounds the reference's error.

# numpy's vector exp and power differ from libm by at most one ulp per term
# (with AVX-512 dispatch; without it they agree).  On the grids below the
# references miss by at most 2 ulps of their terms: 2 ulps of the value for
# exp_decay, and up to 23 ulps of the cancelled value for stable_hit_zero.
LIBM_ULPS = 4


def _exp_decay():
    beta, c = 0.7, 0.3

    def kernel(x, y):
        return exp(-sqrt(beta / c) * abs(x - y)) / (2.0 * sqrt(beta * c))

    def sigma2(x, y):
        rate = sqrt(beta / c)
        amp = 1.0 / (2.0 * sqrt(beta * c))
        return -2.0 * amp * np.expm1(-rate * abs(x - y))

    return ExpDecayBase(beta, c), kernel, sigma2, kernel


def _levy():
    ref = LevyPotential(STABLE, beta=1.0)

    def kernel(x, y):
        return ref.u_with_error(x - y)[0]

    def sigma2(x, y):
        return ref.sigma2_with_error(x - y)[0]

    return LevyBase(LevyPotential(STABLE, beta=1.0)), kernel, sigma2, None


def _hit_zero_levy():
    ref = LevyPotential(STABLE, beta=0.0)

    def phi(x):
        return 0.5 * ref.sigma2_with_error(x)[0]

    def kernel(x, y):
        return phi(x) + phi(y) - phi(x - y)

    return HitZeroLevyBase(LevyPotential(STABLE, beta=0.0)), kernel, None, None


def _stable_hit_zero():
    rho = 0.6
    c = regular_variation_constant(rho + 1.0) / 2.0

    def kernel(x, y):
        return c * (abs(x) ** rho + abs(y) ** rho - abs(x - y) ** rho)

    def terms(x, y):
        return c * (abs(x) ** rho + abs(y) ** rho + abs(x - y) ** rho)

    return StableHitZeroBase(rho), kernel, None, terms


def _vbeta():
    ref = LevyPotential(STABLE, beta=1.0)

    def u(x):
        return ref.u_with_error(x)[0]

    def kernel(x, y):
        return u(x - y) - u(x) * u(y) / u(0.0)

    return VBetaBase(LevyPotential(STABLE, beta=1.0)), kernel, None, None


def _pq_kernel(pot):
    def kernel(x, y):
        lo, hi = (x, y) if x <= y else (y, x)
        return float(pot.p(lo)) * float(pot.q(hi))

    return kernel


def _pq():
    pot = _pq_pot()
    return PQBase(pot), _pq_kernel(pot), None, None


def _vpq():
    pot = _pq_pot()
    u = _pq_kernel(pot)

    def kernel(x, y):
        ratio = float(pot.p(0.0)) / float(pot.q(0.0))
        return u(x, y) - ratio * float(pot.q(x)) * float(pot.q(y))

    return VPQBase(pot), kernel, None, None


def _scale():
    pot = _scale_pot()

    def kernel(x, y):
        return 2.0 * min(float(pot.s(x)), float(pot.s(y)))

    def sigma2(x, y):
        return 2.0 * abs(float(pot.s(x)) - float(pot.s(y)))

    return ScaleMinBase(pot), kernel, sigma2, None


CLOSED_FORMS = {"exp_decay": _exp_decay, "stable_hit_zero": _stable_hit_zero,
                "pq": _pq, "vpq": _vpq, "scale": _scale}
FAMILIES = {**CLOSED_FORMS, "levy": _levy, "levy_hit_zero": _hit_zero_levy,
            "levy_v": _vbeta}


def _ref_sigma2(kernel, sigma2):
    """The family's own route, or k(x, x) + k(y, y) - 2 k(x, y) without one."""
    if sigma2 is not None:
        return sigma2
    return lambda x, y: kernel(x, x) + kernel(y, y) - 2.0 * kernel(x, y)


def _ref_sigma2_terms(terms, sigma2):
    """Uncancelled terms of k(x, x) + k(y, y) - 2 k(x, y) on a libm kernel;
    None where the family's own route gives the bits."""
    if terms is None or sigma2 is not None:
        return None
    return lambda x, y: terms(x, x) + terms(y, y) + 2.0 * terms(x, y)


def _per_pair(fn, xs, ys):
    return np.array([[fn(float(x), float(y)) for y in ys] for x in xs])


def _assert_reference(got, ref, terms, xs, ys):
    """got equals the per-pair reference bit for bit, or for a libm
    reference within LIBM_ULPS ulps of its uncancelled terms."""
    want = _per_pair(ref, xs, ys)
    if terms is None:
        assert np.array_equal(got, want)
    else:
        bound = LIBM_ULPS * np.spacing(_per_pair(terms, xs, ys))
        assert np.all(np.abs(got - want) <= bound)


def _assert_grids(family, xs, ys):
    """gram and sigma2 equal the base's own scalar calls bit for bit, and the
    references within their bounds."""
    base, kernel, sigma2, terms = FAMILIES[family]()
    if sigma2 is None:
        own_sigma2 = _ref_sigma2(base.kernel, None)
    else:   # a route of its own, called on one pair
        def own_sigma2(x, y):
            return base.sigma2([x], [y])[0, 0]
    gram, s2 = base.gram(xs, ys), base.sigma2(xs, ys)
    assert np.array_equal(gram, _per_pair(base.kernel, xs, ys))
    assert np.array_equal(s2, _per_pair(own_sigma2, xs, ys))
    _assert_reference(gram, kernel, terms, xs, ys)
    _assert_reference(s2, _ref_sigma2(kernel, sigma2),
                      _ref_sigma2_terms(terms, sigma2), xs, ys)


DOWN = GridSpec(d=1.0, theta=0.4, n=12, q=0.5, direction=-1).points()
UP = GridSpec(d=0.5, theta=0.3, n=12, q=0.5).points()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_arrays_equal_scalar_references(family):
    for xs, ys in ((DOWN, DOWN), (UP[:4], DOWN), ([UP[0]], UP)):
        _assert_grids(family, xs, ys)
    base, kernel, _, terms = FAMILIES[family]()
    for x, y in ((DOWN[0], DOWN[3]), (DOWN[5], UP[2]), (UP[1], UP[1])):
        val = base.kernel(x, y)
        assert type(val) is float
        assert val == base.gram([x], [y])[0, 0]
        _assert_reference(np.array([[val]]), kernel, terms, [x], [y])


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_closed_forms_equal_scalar_references_on_a_dense_grid(family):
    # enough distinct values that libm's exp or power would differ somewhere
    pts = np.geomspace(0.01, 1.9, 70)
    _assert_grids(family, pts, pts)


def test_levy_gram_runs_one_quadrature_per_distinct_offset(monkeypatch):
    calls = []
    real = potentials.cosine_halfline_array

    def counting(weight, xs, *args, **kwargs):
        calls.extend(xs)
        return real(weight, xs, *args, **kwargs)

    monkeypatch.setattr(potentials, "cosine_halfline_array", counting)
    base = LevyBase(LevyPotential(STABLE, beta=1.0))
    base.gram(DOWN, DOWN)
    assert sorted(calls) == sorted(np.unique(np.abs(np.subtract.outer(DOWN, DOWN))))


def test_assembled_gram_is_the_mirrored_upper_triangle():
    base, kernel, _, _ = _vpq()
    upper = np.triu(_per_pair(kernel, DOWN, DOWN))
    one = ConstantExcessive(1.0)
    G = assemble_kernel(base, one, one, DOWN).G
    assert np.array_equal(G, upper + np.triu(upper, 1).T)


def test_mirror_upper_copies_the_upper_triangle():
    mat = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(mirror_upper(mat),
                          [[0.0, 1.0, 2.0], [1.0, 4.0, 5.0], [2.0, 5.0, 8.0]])


@pytest.mark.parametrize("beta, c, field", [
    (0.0, 0.5, "beta"), (-1.0, 0.5, "beta"), (0.5, 0.0, "C"),
    (0.5, -1.0, "C"), (float("nan"), 0.5, "beta"),
])
def test_exp_decay_refuses_a_nonpositive_rate_or_coefficient(beta, c, field):
    with pytest.raises(ValueError, match=repr(field)):
        ExpDecayBase(beta, c)
