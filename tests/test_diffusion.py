import numpy as np
import pytest

from permlab import (Affine, CharExponent, Const, Exp, LevyPotential, Pow,
                     PQPotential, Prod, ScalePotential, Sum, expr_from_spec,
                     is_excessive_for_scale, riesz_reconstruct,
                     wronskian_defect)
from permlab.diffusion import concave_cap_value


def exp_pair(rate=1.0):
    return Exp(Affine(rate, 0.0)), Exp(Affine(-rate, 0.0))


# -- expression grammar -------------------------------------------------

def test_expression_derivatives_are_exact():
    e = Sum(Prod(Const(2.0), Pow(Affine(1.0, 0.0), 3.0)), Exp(Affine(-0.5, 1.0)))
    xs = np.linspace(0.3, 2.0, 7)
    d1 = e.diff()
    d2 = d1.diff()
    want1 = 6.0 * xs ** 2 - 0.5 * np.exp(-0.5 * xs + 1.0)
    want2 = 12.0 * xs + 0.25 * np.exp(-0.5 * xs + 1.0)
    assert np.allclose(d1(xs), want1, rtol=1e-14)
    assert np.allclose(d2(xs), want2, rtol=1e-14)


def test_expression_spec_round_trip():
    e = Prod(Const(0.5), Exp(Affine(2.0, -1.0)), Pow(Affine(1.0, 3.0), 1.5))
    again = expr_from_spec(e.to_spec())
    xs = np.linspace(0.0, 2.0, 5)
    assert np.allclose(e(xs), again(xs))
    with pytest.raises(ValueError):
        expr_from_spec({"kind": "exp", "arg": {"kind": "const", "value": 1.0},
                        "bogus": 2})
    with pytest.raises(ValueError):
        expr_from_spec({"kind": "mystery"})


# -- product kernels -----------------------------------------------------

def test_product_kernel_values():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    assert pot.u(1.3, 1.3) == pytest.approx(1.0)
    assert pot.u(0.0, 2.0) == pytest.approx(np.exp(-2.0))
    assert pot.u(2.0, 0.0) == pytest.approx(pot.u(0.0, 2.0))


def test_product_kernel_matches_quadrature_potential():
    # the killed quadratic-exponent potential written as an increasing and a
    # decreasing exponential
    beta, cc = 0.5, 0.5
    rate = np.sqrt(beta / cc)
    amp = 1.0 / np.sqrt(2.0) / (beta * cc) ** 0.25
    pot = PQPotential(Prod(Const(amp), Exp(Affine(rate, 0.0))),
                      Prod(Const(amp), Exp(Affine(-rate, 0.0))), beta=beta)
    quad_pot = LevyPotential(CharExponent.gaussian(cc), beta=beta)
    for x, y in ((0.0, 0.0), (0.3, 1.2), (-1.0, 0.5)):
        assert pot.u(x, y) == pytest.approx(quad_pot.u(x - y), rel=1e-7)


def test_constructor_rejects_invalid_pairs():
    p, q = exp_pair()
    with pytest.raises(ValueError):
        PQPotential(q, p, beta=0.5)      # p decreasing
    with pytest.raises(ValueError):
        PQPotential(p, q, beta=0.0)
    with pytest.raises(ValueError):
        PQPotential(Affine(1.0, 5.0), q, beta=0.5)   # p not strictly convex


def test_killed_product_kernel():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    assert pot.v(1.0, 2.0) == pytest.approx(np.exp(-1) - np.exp(-3), rel=1e-12)
    assert pot.v(2.0, 1.0) == pytest.approx(pot.v(1.0, 2.0))
    assert pot.v(1e-9, 1.5) == pytest.approx(0.0, abs=1e-8)


def test_local_scale():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    for d in (-0.5, 0.0, 1.2):
        assert pot.tau(d) == pytest.approx(2.0, rel=1e-12)
    beta, cc = 0.7, 0.5
    rate = np.sqrt(beta / cc)
    amp = 1.0 / np.sqrt(2.0) / (beta * cc) ** 0.25
    brown = PQPotential(Prod(Const(amp), Exp(Affine(rate, 0.0))),
                        Prod(Const(amp), Exp(Affine(-rate, 0.0))), beta=beta)
    assert brown.tau(0.8) == pytest.approx(1.0 / cc, rel=1e-12)


def test_tau_matches_one_sided_difference():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    d, h = 0.7, 1e-5
    lhs = pot.u(d, d) - pot.u(d, d - h)
    want = float(q(d)) * float(p.diff()(d)) * h
    assert lhs == pytest.approx(want, rel=0.01)


def test_increment_scale_ratio():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    d, h = 0.4, 1e-5
    ratio = pot.sigma2(d + h, d) / (pot.tau(d) * h)
    assert 0.99 <= ratio <= 1.01


def test_increments_negatively_correlated():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    for x, y, z, w in ((-0.5, 0.1, 0.3, 0.9), (0.0, 0.2, 0.4, 1.5)):
        cov = pot.u(y, w) + pot.u(x, z) - pot.u(x, w) - pot.u(y, z)
        assert cov <= 1e-14
        assert cov == pytest.approx(
            (float(p(y)) - float(p(x))) * (float(q(w)) - float(q(z))),
            rel=1e-9, abs=1e-12)


def test_kernel_dominated_by_diagonal():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(-1.5, 1.5, size=2)
        assert pot.u(x, y) <= min(pot.u(x, x), pot.u(y, y)) + 1e-14


# -- generator identity ----------------------------------------------------

def _bump(center, width):
    def h(y):
        y = np.asarray(y, dtype=float)
        out = np.where(np.abs(y - center) < width / 2,
                       np.cos(np.pi * (y - center) / width) ** 2, 0.0)
        return out if out.ndim else float(out)
    return h


def test_wronskian_defect_exponential_pair():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5, interval=(-1.5, 2.5))
    h = _bump(0.3, 1.2)
    rep = wronskian_defect(pot, Const(1.0), h, (-0.3, 0.9),
                           np.linspace(-0.5, 1.0, 13))
    assert rep.c_pq == pytest.approx(1.0, rel=1e-12)
    assert rep.sup_residual < 1e-5
    assert rep.wronskian_spread < 1e-10


def test_wronskian_defect_zero_density():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)

    def zero(y):
        return np.zeros_like(np.asarray(y, dtype=float))

    rep = wronskian_defect(pot, Const(1.0), zero, (-0.5, 0.5),
                           np.linspace(-0.2, 0.6, 5))
    assert rep.sup_residual < 1e-12


def test_wronskian_rejects_wrong_coefficient():
    p, q = exp_pair()
    pot = PQPotential(p, q, beta=0.5)
    with pytest.raises(ValueError):
        wronskian_defect(pot, Const(2.0), _bump(0.3, 1.0), (-0.2, 0.8),
                         np.linspace(0.0, 0.5, 3))


def test_wronskian_constant_for_other_rates():
    p, q = exp_pair(1.3)
    pot = PQPotential(p, q, beta=0.5 * 1.3 ** 2)
    vals = [pot.wronskian(Const(1.0), x) for x in np.linspace(-2.0, 2.0, 9)]
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] < 0.0


# -- scale kernels -----------------------------------------------------------

def test_scale_min_kernel():
    lin = ScalePotential(Affine(1.0, 0.0))
    assert lin.u(1.0, 2.0) == pytest.approx(2.0)
    assert lin.u(0.7, 0.7) == pytest.approx(1.4)
    quad = ScalePotential(Pow(Affine(1.0, 0.0), 2.0))
    assert quad.u(2.0, 3.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        quad.u(0.0, 1.0)


def test_scale_must_vanish_at_origin():
    with pytest.raises(ValueError):
        ScalePotential(Affine(1.0, 0.5))
    with pytest.raises(ValueError):
        ScalePotential(Affine(-1.0, 0.0))


def test_scale_inverse_bisection():
    pot = ScalePotential(Sum(Affine(1.0, 0.0), Pow(Affine(1.0, 0.0), 3.0)))
    for target in (0.3, 2.0, 9.0):
        x = pot.inverse(target)
        assert float(pot.s(x)) == pytest.approx(target, abs=1e-10)


def test_scale_inverse_on_an_array_equals_the_scalar_calls():
    # each entry keeps its own bracket doubling (targets past s(hi) = s(10))
    # and its own stopping test; the array has a 2-d shape
    s = Prod(Exp(Affine(0.3, 0.0)), Pow(Affine(1.0, 0.0), 1.5))
    pot = ScalePotential(s)
    targets = np.concatenate((np.linspace(1e-3, 30.0, 197),
                              [0.0, 700.0, 5e4, 2e6, 123.456, 1e-9]))
    got = pot.inverse(targets.reshape(7, 29))
    assert got.shape == (7, 29)
    want = np.array([pot.inverse(float(t)) for t in targets])
    assert np.array_equal(got.ravel(), want)
    assert type(pot.inverse(2.0)) is float
    assert type(pot.inverse(np.float64(2.0))) is float
    with pytest.raises(ValueError, match="reachable range"):
        ScalePotential(Affine(1.0, 0.0)).inverse(np.array([1.0, 1e13]))


def test_excessive_for_scale():
    pot = ScalePotential(Affine(1.0, 0.0))

    def capped(x):
        return concave_cap_value(3.0, 1.0, np.asarray(x, dtype=float))

    ok, witness = is_excessive_for_scale(pot, capped, (0.1, 2.0))
    assert ok and witness is None

    square = Pow(Affine(1.0, 0.0), 2.0)
    ok, witness = is_excessive_for_scale(pot, square, (0.1, 2.0))
    assert not ok and witness is not None

    const = Const(1.2)
    ok, _ = is_excessive_for_scale(pot, const, (0.1, 2.0))
    assert ok


def test_excessive_check_respects_scale_composition():
    # f(x) = s(x)^2 is convex through s, even when s itself is nonlinear
    pot = ScalePotential(Pow(Affine(1.0, 0.0), 2.0), hi=4.0)
    ok, _ = is_excessive_for_scale(pot, Pow(Affine(1.0, 0.0), 4.0), (0.2, 1.8))
    assert not ok
    # f = sqrt of scale is concave through s
    ok, _ = is_excessive_for_scale(pot, Affine(1.0, 0.0), (0.2, 1.8))
    assert ok


def test_riesz_reconstruction():
    pot = ScalePotential(Affine(1.0, 0.0))
    grid = np.linspace(0.1, 1.5, 15)
    resid = riesz_reconstruct(pot, 3.0, 1.0, grid)
    assert np.max(np.abs(resid)) < 1e-6
    resid4 = riesz_reconstruct(pot, 4.0, 1.0, grid)
    assert np.max(np.abs(resid4)) < 1e-6
    # beyond the flat point the reconstruction is constant
    flat = riesz_reconstruct(pot, 3.0, 1.0, [1.0, 1.2, 2.0])
    assert np.max(np.abs(flat)) < 1e-9
