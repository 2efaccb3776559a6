import numpy as np
import pytest

from permlab import (CharExponent, LevyPotential, QuadratureConfig,
                     QuadratureError, check_sigma2_asymptotics,
                     check_sigma2_regularity, regular_variation_constant)

BROWNIAN = CharExponent.gaussian(0.5)


@pytest.fixture(scope="module")
def brownian_pot():
    return LevyPotential(BROWNIAN, beta=0.5)


def test_quadratic_closed_form(brownian_pot):
    for x in (0.0, 0.1, 1.0, 5.0):
        assert brownian_pot.u(x) == pytest.approx(np.exp(-abs(x)), rel=1e-6)


def test_sigma2_quadratic(brownian_pot):
    assert brownian_pot.sigma2(0.0) == 0.0
    assert brownian_pot.sigma2(0.5) == pytest.approx(2 * (1 - np.exp(-0.5)),
                                                     rel=1e-7)


def test_stable_u_at_zero_matches_trapezoid_oracle():
    # oracle: graded trapezoid over [0, 1e6] plus the analytic power tail
    f = lambda lam: 1.0 / (1.0 + lam ** 1.5)
    segs = [np.linspace(0, 10, 4_000_001),
            np.linspace(10, 1000, 4_000_001),
            np.linspace(1000, 1e6, 4_000_001)]
    main = sum(np.trapezoid(f(s), s) for s in segs)
    tail = 2.0 / np.sqrt(1e6) - 0.5 * 1e6 ** -2.0
    oracle = (main + tail) / np.pi
    assert oracle == pytest.approx(0.7698003589195, abs=2e-10)  # frozen
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    assert pot.u(0.0) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("x", [1e-16, 1e-12, 1e-9, 1e-7])
def test_stable_u_near_zero_agrees_with_sigma2(x):
    # z0 ~ 10/|x| lies far out; with a panel edge at each decade past 1e6
    # the head converges, and u(0) - u(x) = sigma2(x)/2 within the bounds
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    u0, e0 = pot.u_with_error(0.0)
    ux, ex = pot.u_with_error(x)
    s, es = pot.sigma2_with_error(x)
    assert abs(u0 - ux - s / 2) <= e0 + ex + es / 2


@pytest.mark.parametrize("x", [1e-20, 1e-100])
def test_stable_u_at_tinier_x_fails_loudly(x):
    # one panel from 1e4 to z0 had all its nodes where w is negligible, so
    # it missed int_1e4^1e6 w unseen: u(1e-20) read 0.76343 (u(0) = 0.76980)
    # with a bound of 5e-10.  No panel now spans more than a decade, and the
    # first panels cannot meet their share of the budget
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    with pytest.raises(QuadratureError, match="head did not converge"):
        pot.u(x)


def test_c_constant_values():
    assert regular_variation_constant(2.0) == pytest.approx(1.0, abs=1e-12)
    # frozen from the gamma identity, cross-checked by quadrature in verify
    assert regular_variation_constant(1.5) == pytest.approx(1.5957691216057308,
                                                            rel=1e-12)
    with pytest.raises(ValueError):
        regular_variation_constant(1.0 + 1e-7)
    with pytest.raises(ValueError):
        regular_variation_constant(2.1)


def test_sigma2_matches_two_u_difference():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    tol = 2 * pot.quad.abs_tol + 1e-12
    for x in (0.1, 0.7, 2.0):
        direct = pot.sigma2(x)
        via_u = 2 * (pot.u(0.0) - pot.u(x))
        assert abs(direct - via_u) <= 10 * tol + 1e-8 * direct


def test_u_even_and_maximal_at_zero():
    pot = LevyPotential(CharExponent.stable_mixture([(1.3, 1.0), (1.8, 0.5)]),
                        beta=0.7)
    u0 = pot.u(0.0)
    for x in (0.05, 0.3, 1.0, 4.0):
        assert pot.u(x) == pytest.approx(pot.u(-x), rel=1e-12)
        assert pot.u(x) <= u0


def test_stable_increment_variance_is_exact_power():
    # sigma^2(x) = C_r |x|^(r-1) exactly for a pure power exponent
    for r in (1.2, 1.5, 1.9):
        pot = LevyPotential(CharExponent.pure_stable(r), beta=0.0)
        c_r = regular_variation_constant(r)
        for x in (1e-4, 0.01, 0.5):
            # rel_tol budget plus the documented absolute floor of the quadrature
            assert pot.sigma2(x) == pytest.approx(c_r * x ** (r - 1),
                                                  rel=1e-6, abs=3e-9)


def test_hit_zero_kernel_stable_closed_form():
    rho = 0.5
    pot = LevyPotential(CharExponent.pure_stable(rho + 1.0), beta=0.0)
    half_c = regular_variation_constant(rho + 1.0) / 2.0
    for x, y in ((0.3, 0.8), (1.0, 1.0), (-0.4, 0.9)):
        want = half_c * (abs(x) ** rho + abs(y) ** rho - abs(x - y) ** rho)
        assert pot.u0(x, y) == pytest.approx(want, rel=1e-6)
    assert pot.u0(0.7, 0.7) == pytest.approx(2 * pot.phi(0.7), rel=1e-9)


def test_hit_zero_kernel_quadratic_is_scaled_min():
    pot = LevyPotential(BROWNIAN, beta=0.0)
    assert pot.phi(1.0) == pytest.approx(1.0, rel=1e-8)
    for x, y in ((1.0, 2.0), (0.5, 0.25), (3.0, 3.0)):
        assert pot.u0(x, y) == pytest.approx(2 * min(x, y), rel=1e-8)


def test_hit_zero_increment_identity():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=0.0)
    for x, y in ((0.4, 1.1), (-0.2, 0.5)):
        lhs = pot.u0(x, x) + pot.u0(y, y) - 2 * pot.u0(x, y)
        assert lhs == pytest.approx(2 * pot.phi(x - y), rel=1e-6, abs=1e-9)


def test_v_kernel(brownian_pot):
    want = np.exp(-1) * (1 - np.exp(-2))
    assert brownian_pot.v(1.0, 2.0) == pytest.approx(want, rel=1e-7)
    assert brownian_pot.v(1.0, 2.0) == pytest.approx(brownian_pot.v(2.0, 1.0))
    assert brownian_pot.v(0.7, 0.0) == pytest.approx(0.0, abs=1e-12)
    for x in (0.2, 1.5):
        assert brownian_pot.v(x, x) >= 0.0


def test_v_dominated_by_diagonal():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    pairs = [(0.3, 0.9), (0.5, 2.0), (1.1, 1.4)]
    for x, y in pairs:
        vxy = pot.v(x, y)
        assert vxy <= min(pot.v(x, x), pot.v(y, y)) + 1e-10


def test_asymptotic_ratio_beta_independence():
    ratios = {}
    for beta in (0.0, 1.0):
        pot = LevyPotential(CharExponent.pure_stable(1.5), beta=beta)
        (_, ratios[beta]), = check_sigma2_asymptotics(pot, [1e-4])
    assert ratios[0.0] == pytest.approx(1.0, abs=0.05)
    assert abs(ratios[0.0] - ratios[1.0]) <= 0.02


def test_asymptotic_ratio_quadratic():
    pot = LevyPotential(CharExponent.gaussian(0.5), beta=1.0)
    x = 1e-4
    # sigma^2 ~ |x| / C with C = 1/2
    assert pot.sigma2(x) / (x / 0.5) == pytest.approx(1.0, abs=1e-3)
    (_, ratio), = check_sigma2_asymptotics(pot, [x])
    assert ratio == pytest.approx(1.0, abs=1e-3)


def test_regularity_power_case():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=0.0)
    rep = check_sigma2_regularity(pot, np.linspace(0.05, 2.0, 9))
    assert rep.derivative_ok
    assert rep.max_derivative_ratio == pytest.approx(0.5, abs=0.01)
    assert rep.concavity_checked and rep.concavity_ok


def test_regularity_mixture_with_killing():
    pot = LevyPotential(CharExponent.stable_mixture([(1.3, 1.0), (1.9, 1.0)]),
                        beta=0.5)
    rep = check_sigma2_regularity(pot, np.linspace(0.05, 5.0, 9))
    assert rep.derivative_ok
    assert not rep.concavity_checked  # only stated for the unkilled case


def test_regularity_skips_pure_quadratic_concavity():
    pot = LevyPotential(CharExponent.gaussian(1.0), beta=0.0)
    rep = check_sigma2_regularity(pot, np.linspace(0.1, 1.0, 5))
    assert not rep.concavity_checked


class _SquareSigma2:
    """sigma2(x) = x^2 at beta = 0: convex, and |d sigma2/dx| = 2 sigma2(x)/x,
    so both regularity checks fail at every point.  Counts sigma2 calls."""

    psi = CharExponent.pure_stable(1.5)
    beta = 0.0

    def __init__(self):
        self.calls = 0

    def sigma2(self, x):
        self.calls += 1
        return np.asarray(x) ** 2


def test_regularity_reports_first_witnesses_from_one_sigma2_call():
    pot = _SquareSigma2()
    rep = check_sigma2_regularity(pot, [0.9, 0.3, 0.6, 0.3, 1.2])
    assert pot.calls == 1
    # the first failing point in grid order, and in increasing order for
    # concavity, where the repeated 0.3 counts once
    assert not rep.derivative_ok and rep.derivative_witness == 0.9
    assert rep.max_derivative_ratio == pytest.approx(2.0, rel=1e-6)
    assert rep.concavity_checked and not rep.concavity_ok
    assert rep.concavity_witness == 0.6


def test_asymptotic_check_rejects_zero():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    with pytest.raises(ValueError):
        check_sigma2_asymptotics(pot, [1e-3, 0.0])


def test_u_requires_positive_killing():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=0.0)
    with pytest.raises(ValueError):
        pot.u(1.0)
    with pytest.raises(ValueError):
        pot.v(1.0, 2.0)
    killed = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    with pytest.raises(ValueError):
        killed.phi(1.0)
    with pytest.raises(ValueError):
        killed.u0(1.0, 2.0)


def test_quadrature_failure_is_loud():
    # sigma2 makes no scipy call, so no IntegrationWarning may escape either
    cfg = QuadratureConfig(abs_tol=1e-19, rel_tol=1e-19, max_half_periods=32)
    pot = LevyPotential(CharExponent.pure_stable(1.2), beta=0.0, quad=cfg)
    with pytest.raises(QuadratureError):
        pot.sigma2(1e-3)


@pytest.mark.parametrize("call", [
    lambda pot: pot.u(np.nan), lambda pot: pot.u(np.inf),
    lambda pot: pot.u(np.array([0.1, np.nan])), lambda pot: pot.sigma2(np.nan),
    lambda pot: pot.sigma2(np.array([0.2, -np.inf])),
    lambda pot: pot.u_with_error(np.nan), lambda pot: pot.v(0.1, np.nan),
])
def test_non_finite_points_are_refused(call):
    # these gave an uninitialized entry, 0.0 or a KeyError
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    with pytest.raises(ValueError, match="finite x"):
        call(pot)


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_non_finite_killing_rate_is_refused(beta):
    with pytest.raises(ValueError, match="killing rate"):
        LevyPotential(CharExponent.pure_stable(1.5), beta=beta)


@pytest.mark.parametrize("fields", [
    {"max_half_periods": 0}, {"max_half_periods": -3},
    {"max_half_periods": 2.5}, {"max_half_periods": True},
    {"abs_tol": -1e-9}, {"rel_tol": float("nan")},
    {"abs_tol": 0.0, "rel_tol": 0.0},
])
def test_quadrature_config_rejects_invalid_fields(fields):
    with pytest.raises(ValueError):
        QuadratureConfig(**fields)


def test_quadrature_config_accepts_one_zero_tolerance():
    assert QuadratureConfig(abs_tol=0.0).budget(2.0) == pytest.approx(2e-7)
    cfg = QuadratureConfig(rel_tol=0.0, max_half_periods=np.int64(32))
    assert cfg.budget(2.0) == 1e-9


def test_max_half_periods_zero_is_refused_before_any_evaluation():
    # it used to be accepted, and the first evaluation then crashed inside
    # the period sums with UnboundLocalError
    with pytest.raises(ValueError, match="max_half_periods"):
        LevyPotential(CharExponent.pure_stable(1.5), beta=1.0,
                      quad=QuadratureConfig(max_half_periods=0)).u(1.0)


def test_grid_values_equal_each_point_evaluated_alone():
    # one array call over 40 offsets against 40 calls of one point each, on
    # fresh caches: values and bounds must agree bit for bit
    psi = CharExponent.stable_mixture([(1.3, 0.8), (1.8, 0.6)])
    offsets = np.concatenate(([0.0], np.geomspace(1e-4, 8.0, 39)))
    for beta, grid_of, one_of in ((1.0, "u", "u_with_error"),
                                  (0.0, "sigma2", "sigma2_with_error"),
                                  (0.5, "sigma2", "sigma2_with_error")):
        grid, alone = (LevyPotential(psi, beta=beta) for _ in range(2))
        values = getattr(grid, grid_of)(offsets)
        singles = [getattr(alone, one_of)(x) for x in offsets]
        assert np.array_equal(values, [v for v, _ in singles])
        assert [getattr(grid, one_of)(x) for x in offsets] == singles


def test_a_failing_grid_raises_for_its_smallest_failing_offset():
    # at this budget the largest two of these offsets fail and the rest pass;
    # the grid comes in descending order and with both signs
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-11)
    psi = CharExponent.pure_stable(1.12)
    xs = np.geomspace(1e-3, 10.0, 12)[:0:-1] * np.array([1, -1] * 5 + [1])
    failing = []
    one_at_a_time = LevyPotential(psi, beta=0.5, quad=cfg)
    for x in xs:
        try:
            one_at_a_time.u_with_error(x)
        except QuadratureError as exc:
            failing.append((abs(x), str(exc)))
    assert len(failing) == 2
    with pytest.raises(QuadratureError) as grid:
        LevyPotential(psi, beta=0.5, quad=cfg).u(xs)
    assert str(grid.value) == min(failing)[1]
