"""The array kernel interface against the scalar per-pair formulas.

Every base builds gram(xs, ys) and sigma2(xs, ys) with array code shared by
its scalar kernel(x, y).  The references below are the per-pair scalar
formulas and increment-variance routes those arrays replaced, evaluated one
pair at a time on potentials with their own quadrature caches; the arrays
must equal them bit for bit.
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


# scalar calls of Pow raise numpy scalars to a power through libm, while
# array calls use numpy's vector power; the grids must follow the scalar route

def _pq_pot():
    return PQPotential(Pow(Affine(1.0, 3.0), 1.5), Exp(Affine(-1.0, 0.0)),
                       beta=0.5)


def _scale_pot():
    return ScalePotential(Prod(Const(0.9), Pow(Affine(1.0, 0.0), 1.5)))


# -- scalar references -------------------------------------------------------
# Each maker returns (base, reference kernel, reference increment variance).

def _exp_decay():
    beta, c = 0.7, 0.3

    def kernel(x, y):
        return exp(-sqrt(beta / c) * abs(x - y)) / (2.0 * sqrt(beta * c))

    def sigma2(x, y):
        rate = sqrt(beta / c)
        amp = 1.0 / (2.0 * sqrt(beta * c))
        return -2.0 * amp * np.expm1(-rate * abs(x - y))

    return ExpDecayBase(beta, c), kernel, sigma2


def _levy():
    ref = LevyPotential(STABLE, beta=1.0)

    def kernel(x, y):
        return ref.u_with_error(x - y)[0]

    def sigma2(x, y):
        return ref.sigma2_with_error(x - y)[0]

    return LevyBase(LevyPotential(STABLE, beta=1.0)), kernel, sigma2


def _hit_zero_levy():
    ref = LevyPotential(STABLE, beta=0.0)

    def phi(x):
        return 0.5 * ref.sigma2_with_error(x)[0]

    def kernel(x, y):
        return phi(x) + phi(y) - phi(x - y)

    return HitZeroLevyBase(LevyPotential(STABLE, beta=0.0)), kernel, None


def _stable_hit_zero():
    rho = 0.6

    def kernel(x, y):
        c = regular_variation_constant(rho + 1.0) / 2.0
        return c * (abs(x) ** rho + abs(y) ** rho - abs(x - y) ** rho)

    return StableHitZeroBase(rho), kernel, None


def _vbeta():
    ref = LevyPotential(STABLE, beta=1.0)

    def u(x):
        return ref.u_with_error(x)[0]

    def kernel(x, y):
        return u(x - y) - u(x) * u(y) / u(0.0)

    return VBetaBase(LevyPotential(STABLE, beta=1.0)), kernel, None


def _pq_kernel(pot):
    def kernel(x, y):
        lo, hi = (x, y) if x <= y else (y, x)
        return float(pot.p(lo)) * float(pot.q(hi))

    return kernel


def _pq():
    pot = _pq_pot()
    return PQBase(pot), _pq_kernel(pot), None


def _vpq():
    pot = _pq_pot()
    u = _pq_kernel(pot)

    def kernel(x, y):
        ratio = float(pot.p(0.0)) / float(pot.q(0.0))
        return u(x, y) - ratio * float(pot.q(x)) * float(pot.q(y))

    return VPQBase(pot), kernel, None


def _scale():
    pot = _scale_pot()

    def kernel(x, y):
        return 2.0 * min(float(pot.s(x)), float(pot.s(y)))

    def sigma2(x, y):
        return 2.0 * abs(float(pot.s(x)) - float(pot.s(y)))

    return ScaleMinBase(pot), kernel, sigma2


CLOSED_FORMS = {"exp_decay": _exp_decay, "stable_hit_zero": _stable_hit_zero,
                "pq": _pq, "vpq": _vpq, "scale": _scale}
FAMILIES = {**CLOSED_FORMS, "levy": _levy, "levy_hit_zero": _hit_zero_levy,
            "levy_v": _vbeta}


def _ref_sigma2(kernel, sigma2):
    """The family's own route, or k(x, x) + k(y, y) - 2 k(x, y) without one."""
    if sigma2 is not None:
        return sigma2
    return lambda x, y: kernel(x, x) + kernel(y, y) - 2.0 * kernel(x, y)


def _per_pair(fn, xs, ys):
    return np.array([[fn(float(x), float(y)) for y in ys] for x in xs])


DOWN = GridSpec(d=1.0, theta=0.4, n=12, q=0.5, direction=-1).points()
UP = GridSpec(d=0.5, theta=0.3, n=12, q=0.5).points()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_arrays_equal_scalar_references(family):
    base, kernel, sigma2 = FAMILIES[family]()
    ref_sigma2 = _ref_sigma2(kernel, sigma2)
    for xs, ys in ((DOWN, DOWN), (UP[:4], DOWN), ([UP[0]], UP)):
        assert np.array_equal(base.gram(xs, ys), _per_pair(kernel, xs, ys))
        assert np.array_equal(base.sigma2(xs, ys), _per_pair(ref_sigma2, xs, ys))
    for x, y in ((DOWN[0], DOWN[3]), (DOWN[5], UP[2]), (UP[1], UP[1])):
        val = base.kernel(x, y)
        assert type(val) is float
        assert val == kernel(x, y) == base.gram([x], [y])[0, 0]


@pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
def test_closed_forms_equal_scalar_references_on_a_dense_grid(family):
    # enough distinct values that a vector exp or power would differ somewhere
    base, kernel, sigma2 = CLOSED_FORMS[family]()
    pts = np.geomspace(0.01, 1.9, 70)
    assert np.array_equal(base.gram(pts, pts), _per_pair(kernel, pts, pts))
    assert np.array_equal(base.sigma2(pts, pts),
                          _per_pair(_ref_sigma2(kernel, sigma2), pts, pts))


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
    base, kernel, _ = _vpq()
    upper = np.triu(_per_pair(kernel, DOWN, DOWN))
    one = ConstantExcessive(1.0)
    G = assemble_kernel(base, one, one, DOWN).G
    assert np.array_equal(G, upper + np.triu(upper, 1).T)


def test_mirror_upper_copies_the_upper_triangle():
    mat = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(mirror_upper(mat),
                          [[0.0, 1.0, 2.0], [1.0, 4.0, 5.0], [2.0, 5.0, 8.0]])
