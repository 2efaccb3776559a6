import numpy as np
import pytest

from permlab import (Affine, CharExponent, Const, Exp, LevyPotential, Pow,
                     PQPotential, Prod, ScalePotential, Sum, expr_from_spec,
                     riesz_reconstruct, wronskian_defect)
from permlab import diffusion
from permlab.diffusion import (_GL64, _PANELS, _panel_integral,
                               concave_cap_value)


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
    # every kind of the grammar, parsed from its wire form, against the tree
    # built directly; trees compare by their values on a grid
    spec = {"kind": "sum", "terms": [
        {"kind": "prod", "factors": [
            {"kind": "const", "value": 0.5},
            {"kind": "exp", "arg": {"kind": "affine", "a": 2.0, "b": -1.0}},
            {"kind": "pow", "base": {"kind": "affine", "a": 1.0, "b": 3.0},
             "exponent": 1.5}]},
        {"kind": "affine", "a": -0.25}]}
    e = Sum(Prod(Const(0.5), Exp(Affine(2.0, -1.0)), Pow(Affine(1.0, 3.0), 1.5)),
            Affine(-0.25))
    xs = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(expr_from_spec(spec)(xs), e(xs))
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


# -- the array checks against the former per-point routes --------------------
#
# The former routes integrated one interval at a time, panel by panel, and
# built the potential of h one stencil point at a time; they are kept here as
# oracles for the array formulas.


def _former_panel_integral(fn, a, b):
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, _PANELS + 1)
    nodes, weights = _GL64
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(weights @ fn(mid + half * nodes))
    return total


def _former_eigen_residual(pot, b):
    lo, hi = pot.interval
    xs = np.linspace(lo, hi, 101)
    b1 = b.diff()
    worst = 0.0
    for f in (pot.p, pot.q):
        f1, f2 = f.diff(), f.diff().diff()
        lf = 0.5 * (np.asarray(b(xs)) * f2(xs) + np.asarray(b1(xs)) * f1(xs))
        res = np.max(np.abs(lf - pot.beta * np.asarray(f(xs)))
                     / np.maximum(np.abs(pot.beta * np.asarray(f(xs))), 1e-300))
        worst = max(worst, float(res))
    return worst


def _former_wronskian(pot, b, x):
    return 0.5 * float(b(x)) * (float(pot.q.diff()(x)) * float(pot.p(x))
                                - float(pot.q(x)) * float(pot.p.diff()(x)))


def _former_wronskian_defect(pot, b, h, h_support, x_grid):
    eig = _former_eigen_residual(pot, b)
    lo, hi = h_support

    def potential_of_h(x):
        left = _former_panel_integral(lambda y: np.asarray(pot.p(y)) * h(y),
                                      lo, min(x, hi))
        right = _former_panel_integral(lambda y: np.asarray(pot.q(y)) * h(y),
                                       max(x, lo), hi)
        return float(pot.q(x)) * left + float(pot.p(x)) * right

    b1 = b.diff()
    x_grid = np.asarray(x_grid, dtype=float)
    c_pq = -_former_wronskian(pot, b, float(x_grid[0]))
    spread = max(abs(_former_wronskian(pot, b, x)
                     - _former_wronskian(pot, b, float(x_grid[0])))
                 for x in x_grid)
    residuals = np.empty_like(x_grid)
    step = diffusion._FD_STEP
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * step
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * step ** 2)
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * step)
    for i, x in enumerate(x_grid):
        f_vals = np.array([potential_of_h(x + o) for o in offsets])
        lf = 0.5 * (float(b(x)) * float(w2 @ f_vals)
                    + float(b1(x)) * float(w1 @ f_vals))
        residuals[i] = lf - pot.beta * f_vals[2] + c_pq * float(h(x))
    return c_pq, residuals, spread, eig


def _former_riesz_reconstruct(pot, p, x0, x_grid):
    s0 = float(pot.s(x0))
    out = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        sx = float(pot.s(x))
        cut = min(sx, s0)

        def low(y):
            return np.asarray(y) * (-diffusion.concave_cap_second_derivative(
                p, s0, y))

        def high(y):
            return sx * (-diffusion.concave_cap_second_derivative(
                p, s0, np.asarray(y)))

        rebuilt = _former_panel_integral(low, 0.0, cut)
        rebuilt += _former_panel_integral(high, cut, s0)
        out[i] = rebuilt - concave_cap_value(p, s0, sx)
    return out


def _assert_matches_former_defect(pot, b, h, support, grid):
    rep = wronskian_defect(pot, b, h, support, grid)
    c_pq, residuals, spread, eig = _former_wronskian_defect(pot, b, h,
                                                            support, grid)
    # c_pq, the spread and the eigen residual are elementwise formulas
    assert (rep.c_pq, rep.wronskian_spread, rep.eigen_residual) == (
        c_pq, spread, eig)
    assert rep.residuals.shape == residuals.shape
    assert np.max(np.abs(rep.residuals - residuals)) <= 1e-10
    assert rep.sup_residual == np.max(np.abs(rep.residuals))


def test_wronskian_defect_matches_the_former_route_on_criterion_13():
    pot = PQPotential(*exp_pair(), beta=0.5, interval=(-1.5, 2.5))
    _assert_matches_former_defect(pot, Const(1.0), _bump(0.3, 1.2),
                                  (-0.3, 0.9), np.linspace(-0.5, 1.0, 13))


def test_riesz_reconstruct_matches_the_former_route_on_criterion_14():
    pot = ScalePotential(Affine(1.0, 0.0))
    grid = np.linspace(0.1, 1.5, 15)
    got = riesz_reconstruct(pot, 3.0, 1.0, grid)
    assert np.max(np.abs(got - _former_riesz_reconstruct(pot, 3.0, 1.0, grid))
                  ) <= 1e-10


def test_panel_integral_matches_the_former_route_on_a_sweep():
    # positive integrands on intervals of every kind: inside, across and
    # outside the bump's support, tiny, reversed and empty
    rng = np.random.default_rng(20261)
    for _ in range(20):
        center, width = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0)
        rate = rng.uniform(0.5, 2.0)
        bump = _bump(center, width)

        def fn(y):
            return np.exp(rate * np.asarray(y)) * (bump(y) + 0.1)

        a = rng.uniform(-2.0, 2.0, size=24)
        b = a + rng.choice([-0.5, 0.0, 1e-9, 0.3, 1.5, 3.0], size=24)
        got = _panel_integral(fn, a, b)
        want = np.array([_former_panel_integral(fn, lo, hi)
                         for lo, hi in zip(a, b)])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert np.all(got[b <= a] == 0.0)


def test_panel_integral_broadcasts_and_skips_empty_intervals():
    seen = []

    def fn(y):
        seen.append(y.shape)
        return np.cos(y)

    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([0.5, 1.5, 2.5, 1.0])
    got = _panel_integral(fn, a, b)
    assert got.shape == (3, 4)
    live = b > a
    assert seen == [(int(live.sum()), _PANELS, 64)]
    assert np.all(got[~live] == 0.0)
    want = np.sin(np.broadcast_to(b, a.shape[:1] + b.shape)) - np.sin(a)
    assert np.allclose(got[live], want[live], rtol=1e-14, atol=0.0)
    seen.clear()
    assert np.array_equal(_panel_integral(fn, 1.0, np.array([0.0, 1.0])),
                          [0.0, 0.0])


def test_wronskian_defect_matches_the_former_route_on_a_sweep():
    # bumps of several centres and widths, rates 0.5-2 and a constant
    # coefficient b, on grids that straddle both edges of the support
    rng = np.random.default_rng(20262)
    for _ in range(6):
        rate, c = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        pot = PQPotential(*exp_pair(rate), beta=0.5 * c * rate ** 2,
                          interval=(-2.0, 2.0))
        center, width = rng.uniform(-0.8, 0.8), rng.uniform(0.3, 1.2)
        lo, hi = center - width / 2.0, center + width / 2.0
        grid = np.sort(np.concatenate((
            rng.uniform(lo - 0.3, hi + 0.3, size=9), [lo, hi, lo - 0.015])))
        _assert_matches_former_defect(pot, Const(c), _bump(center, width),
                                      (lo, hi), grid)


def test_riesz_reconstruct_matches_the_former_route_on_a_sweep():
    # cap exponents in (2, 6], flat points in [0.3, 2], grids on both sides
    # of the flat point and on it
    rng = np.random.default_rng(20263)
    scales = (Affine(1.0, 0.0), Pow(Affine(1.0, 0.0), 1.5),
              Sum(Affine(1.0, 0.0), Pow(Affine(1.0, 0.0), 3.0)))
    for s in scales:
        pot = ScalePotential(s)
        for _ in range(4):
            p, x0 = 6.0 - rng.uniform(0.0, 4.0), rng.uniform(0.3, 2.0)
            grid = np.concatenate((rng.uniform(0.01, 2.0 * x0, size=12),
                                   [x0, 1e-6]))
            got = riesz_reconstruct(pot, p, x0, grid)
            want = _former_riesz_reconstruct(pot, p, x0, grid)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_wronskian_on_an_array_equals_the_scalar_calls():
    pot = PQPotential(Pow(Affine(1.0, 3.0), 1.5), Exp(Affine(-1.0, 0.0)),
                      beta=0.5)
    b = Sum(Const(1.0), Prod(Const(0.2), Exp(Affine(0.5, 0.0))))
    xs = np.linspace(-2.0, 2.0, 37)
    got = pot.wronskian(b, xs.reshape(37, 1))
    assert got.shape == (37, 1)
    want = np.array([pot.wronskian(b, float(x)) for x in xs])
    assert np.array_equal(got.ravel(), want)
    assert type(pot.wronskian(b, 0.3)) is float
    assert pot.wronskian(b, 0.3) == _former_wronskian(pot, b, 0.3)


def test_the_checks_call_h_and_b_on_whole_arrays(monkeypatch):
    h_shapes, b_shapes = [], []
    bump = _bump(0.3, 1.2)

    def h(y):
        h_shapes.append(np.shape(y))
        return bump(y)

    class RecordedConst(Const):
        def __call__(self, x):
            b_shapes.append(np.shape(x))
            return super().__call__(x)

    pot = PQPotential(*exp_pair(), beta=0.5, interval=(-1.5, 2.5))
    grid = np.linspace(-0.5, 1.0, 13)
    wronskian_defect(pot, RecordedConst(1.0), h, (-0.3, 0.9), grid)
    # one quadrature pass per side of x over all 13 * 5 stencil points, then
    # h on the grid; b on the eigen check's 101 points, then on the grid for
    # the wronskian and for L
    assert len(h_shapes) == 3
    assert [s[1:] for s in h_shapes[:2]] == [(_PANELS, 64)] * 2
    assert h_shapes[0][0] + h_shapes[1][0] >= 13 * 5
    assert h_shapes[2] == (13,)
    assert b_shapes == [(101,), (13,), (13,)]

    calls = []
    real = diffusion.concave_cap_second_derivative

    def recorded(p, s0, y):
        calls.append(np.shape(y))
        return real(p, s0, y)

    monkeypatch.setattr(diffusion, "concave_cap_second_derivative", recorded)
    riesz_reconstruct(ScalePotential(Affine(1.0, 0.0)), 3.0, 1.0,
                      np.linspace(0.1, 1.5, 15))
    assert len(calls) == 2 and all(c[1:] == (_PANELS, 64) for c in calls)


# -- arguments outside the checks' domain ------------------------------------

@pytest.mark.parametrize("p, x0, grid, name", [
    (3.0, 0.0, [0.5, 1.0], "x0"),
    (3.0, -1.0, [0.5, 1.0], "x0"),
    (3.0, 1.0, [0.5, 0.0, 1.0], "x_grid"),
    (3.0, 1.0, [-0.5, 1.0], "x_grid"),
    (1.5, 1.0, [0.5, 1.0], "p"),
    (2.0, 1.0, [0.5, 1.0], "p"),
])
def test_riesz_reconstruct_refuses_arguments_outside_its_domain(p, x0, grid,
                                                                name):
    # each once returned a wrong residual (-1 below the origin or at x0 = 0,
    # small nonzero values for p = 1.5) without a word
    pot = ScalePotential(Affine(1.0, 0.0))
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        riesz_reconstruct(pot, p, x0, grid)


def test_wronskian_defect_refuses_a_coefficient_that_is_nan_somewhere():
    # sqrt(x) is NaN on the negative half of the working interval; the
    # eigen check once reported residual 0.0 there and let the pair through.
    # Outside pytest numpy only prints its warnings.
    pot = PQPotential(*exp_pair(), beta=0.5)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="eigen identity: residual nan"):
            wronskian_defect(pot, Pow(Affine(1.0, 0.0), 0.5), _bump(0.3, 1.2),
                             (-0.3, 0.9), np.linspace(0.2, 0.6, 3))


def test_wronskian_defect_refuses_a_reversed_support():
    # a reversed support once reported sup_residual 1.0
    pot = PQPotential(*exp_pair(), beta=0.5)
    for support in ((0.9, -0.3), (0.4, 0.4)):
        with pytest.raises(ValueError, match="h_support"):
            wronskian_defect(pot, Const(1.0), _bump(0.3, 1.2), support,
                             np.linspace(-0.5, 1.0, 5))
