import numpy as np
import pytest

from permlab import (Affine, AtomicPotential, CharExponent, ConstantExcessive,
                     Exp, ExpDecayBase, GridSpec, HitZeroLevyBase,
                     IndicatorPotential, LevyBase, LevyPotential, Pow, PQBase,
                     PQPotential, Prod, ScaleConcaveExcessive, ScaleMinBase,
                     ScalePotential, StableHitZeroBase, VBetaBase, VPQBase,
                     assemble_kernel, brownian_min_kernel, brownian_unit_base,
                     excessive_from_spec, gram_surrogate_min, make_flat_pair)

OU = brownian_unit_base()


def test_indicator_potential_closed_form():
    # window [0, 2] against exp(-|t|): value at 1 is the integral of exp(-|t|)
    # over [-1, 1]
    f = IndicatorPotential(OU, 0.0, 2.0)
    assert f(1.0) == pytest.approx(2 * (1 - np.exp(-1)), rel=1e-9)
    assert f(0.0) == pytest.approx(1 - np.exp(-2), rel=1e-9)


def test_indicator_matches_quadrature_base():
    pot = LevyPotential(CharExponent.gaussian(0.5), beta=0.5)
    f = IndicatorPotential(LevyBase(pot), 0.0, 2.0)
    assert f(1.0) == pytest.approx(2 * (1 - np.exp(-1)), rel=1e-6)


def test_indicator_derivative():
    f = IndicatorPotential(OU, 0.0, 2.0)
    assert f.derivative(1.0) == pytest.approx(0.0, abs=1e-8)
    assert f.derivative(0.0) == pytest.approx(1 - np.exp(-2), rel=1e-12)


def test_indicator_derivative_midpoint_stable_base():
    pot = LevyPotential(CharExponent.pure_stable(1.5), beta=1.0)
    f = IndicatorPotential(LevyBase(pot), 0.3, 1.1)
    assert f.derivative(0.7) == pytest.approx(0.0, abs=1e-8)


def test_indicator_derivative_matches_finite_differences():
    f = IndicatorPotential(OU, 0.0, 2.0)
    for x in (0.2, 0.9, 1.7, 2.5):
        h = 1e-5
        fd = (f(x + h) - f(x - h)) / (2 * h)
        assert fd == pytest.approx(f.derivative(x), rel=1e-5, abs=1e-8)


def test_indicator_needs_translation_invariance():
    with pytest.raises(ValueError):
        IndicatorPotential(brownian_min_kernel(), 0.0, 1.0)
    with pytest.raises(ValueError):
        IndicatorPotential(OU, 1.0, 1.0)


def test_atomic_potential():
    f = AtomicPotential(OU, ((0.0, 1.0),))
    assert f(0.7) == pytest.approx(np.exp(-0.7), rel=1e-12)
    two = AtomicPotential(OU, ((0.0, 0.5), (1.0, 2.0)))
    assert two(0.3) == pytest.approx(0.5 * np.exp(-0.3) + 2 * np.exp(-0.7),
                                     rel=1e-12)
    with pytest.raises(ValueError):
        AtomicPotential(OU, ((0.0, -1.0),))
    with pytest.raises(ValueError):
        AtomicPotential(OU, ())


# -- the array contract ----------------------------------------------------

STABLE = CharExponent.pure_stable(1.5)


def _pq_pot():
    return PQPotential(Pow(Affine(1.0, 3.0), 1.5), Exp(Affine(-1.0, 0.0)),
                       beta=0.5)


# every base family of the workloads, built afresh on each call, so that a
# quadrature-backed base starts with empty caches
BASES = {
    "exp_decay": lambda: ExpDecayBase(0.7, 0.3),
    "levy": lambda: LevyBase(LevyPotential(STABLE, beta=1.0)),
    "levy_hit_zero": lambda: HitZeroLevyBase(LevyPotential(STABLE, beta=0.0)),
    "stable_hit_zero": lambda: StableHitZeroBase(0.6),
    "levy_v": lambda: VBetaBase(LevyPotential(STABLE, beta=1.0)),
    "pq": lambda: PQBase(_pq_pot()),
    "vpq": lambda: VPQBase(_pq_pot()),
    "scale": lambda: ScaleMinBase(ScalePotential(
        Prod(Exp(Affine(0.3, 0.0)), Pow(Affine(1.0, 0.0), 1.5)))),
    # scipy's quad over the cusp of a stable u takes seconds per window, so
    # the indicator runs on the smooth Gaussian u
    "levy_gaussian": lambda: LevyBase(LevyPotential(CharExponent.gaussian(0.5),
                                                    beta=1.0)),
}

KINDS = {
    "atoms": lambda base: AtomicPotential(base, ((1.1, 0.7), (1.35, 0.4),
                                                 (0.8, 0.25))),
    "const": lambda base: ConstantExcessive(0.7),
    # window edges off the grid: the Levy u raises QuadratureError at
    # 0 < |x| < ~1e-7, which the derivative would meet at an edge
    "indicator": lambda base: IndicatorPotential(base, 0.85, 1.55),
    "scale_concave": lambda base: ScaleConcaveExcessive(base, 3.0, 1.3),
}

CONTRACT_CASES = ([("atoms", family) for family in BASES]
                  + [("scale_concave", "scale"), ("const", "exp_decay"),
                     ("indicator", "exp_decay"), ("indicator", "levy_gaussian")])

# 2 x 4 positive points near the atoms, on both sides of the cap; closed
# forms also run on 240 points, where a last-ulp difference of numpy's vector
# formulas from the scalar ones would show
PTS = 1.2 + np.array([[-0.3, -0.01, -1e-3, 0.0], [1e-4, 0.02, 0.25, 0.5]])
DENSE = np.linspace(0.55, 1.75, 240).reshape(2, 120)


def _excessive(kind, family):
    return KINDS[kind](BASES[family]())


@pytest.mark.parametrize("kind, family", CONTRACT_CASES)
def test_array_call_equals_scalar_calls(kind, family):
    fn, ref = _excessive(kind, family), _excessive(kind, family)
    pts = PTS if "levy" in family else DENSE
    methods = ["__call__"] + (["derivative"] if hasattr(fn, "derivative") else [])
    for name in methods:
        got = getattr(fn, name)(pts)
        want = np.array([[getattr(ref, name)(x) for x in row] for row in pts])
        assert got.shape == pts.shape
        assert got.tobytes() == want.tobytes()
        assert type(getattr(fn, name)(1.2)) is float
        assert type(getattr(fn, name)(PTS[0, 0])) is float


@pytest.mark.parametrize("family", BASES)
def test_atoms_sum_as_the_former_scalar_loop(family):
    fn = _excessive("atoms", family)
    pts = PTS if "levy" in family else DENSE
    want = [sum(w * fn.base.kernel(x, loc) for loc, w in fn.atoms)
            for x in pts.ravel()]
    assert fn(pts).tobytes() == np.array(want).reshape(pts.shape).tobytes()


def test_assemble_kernel_broadcasts_and_copies_border_values():
    spec = GridSpec(1.0, 0.5, 20, 0.5)
    pts = spec.points()
    ak = assemble_kernel(OU, lambda x: 0.7, ConstantExcessive(1.0), spec)
    assert ak.fvec.shape == pts.shape and np.all(ak.fvec == 0.7)
    # the callable returns the grid itself; the kernel keeps its own copy
    ak = assemble_kernel(OU, lambda x: x, ConstantExcessive(1.0), pts)
    assert np.array_equal(ak.fvec, pts) and not np.shares_memory(ak.fvec, pts)
    with pytest.raises(ValueError):
        assemble_kernel(OU, lambda x: np.ones(3), ConstantExcessive(1.0), spec)
    with pytest.raises(ValueError):
        assemble_kernel(OU, ConstantExcessive(1.0), lambda x: x[:, None], spec)


def test_constant_excessive():
    c = ConstantExcessive(1.0)
    assert c(17.0) == 1.0
    with pytest.raises(ValueError):
        ConstantExcessive(-0.5)


def test_flat_pair_translation_invariant():
    f, g = make_flat_pair(OU, 1.0)
    assert abs(f.derivative(1.0)) <= 1e-8
    assert abs(g.derivative(1.0)) <= 1e-8
    # not proportional in any neighborhood: second differences disagree
    h = 0.05
    d2f = f(1 + h) - 2 * f(1.0) + f(1 - h)
    d2g = g(1 + h) - 2 * g(1.0) + g(1 - h)
    assert abs(d2f / f(1.0) - d2g / g(1.0)) > 1e-6


def test_flat_pair_scale_base():
    base = brownian_min_kernel()
    f, g = make_flat_pair(base, 1.0)
    assert isinstance(f, ScaleConcaveExcessive) and f.p == 3.0
    assert isinstance(g, ScaleConcaveExcessive) and g.p == 4.0
    assert f.derivative(1.0) == 0.0
    assert g.derivative(1.0) == 0.0
    xs = np.array([0.9, 0.95, 0.99])
    ratio = np.array([f(x) / g(x) for x in xs])
    assert np.max(ratio) - np.min(ratio) > 1e-4


def test_flat_pair_rejections():
    with pytest.raises(ValueError):
        make_flat_pair(brownian_min_kernel(), 0.0)
    with pytest.raises(ValueError):
        make_flat_pair(StableHitZeroBase(0.5), 1.0)


def test_gram_surrogate_nonnegative_for_potential_type_functions():
    pts = 1.0 + 0.3 ** np.arange(1, 8)[::-1]
    pts = np.concatenate([[1.0], pts])
    for fn in (AtomicPotential(OU, ((1.1, 1.0),)),
               ConstantExcessive(0.7),
               IndicatorPotential(OU, 0.5, 1.5)):
        assert gram_surrogate_min(OU, fn, pts) >= -1e-10


def test_gram_surrogate_detects_non_excessive():
    pts = np.array([1.0, 1.05, 1.1, 1.3, 1.6])
    # exp(x) grows too fast to be excessive for the unit exponential kernel
    assert gram_surrogate_min(OU, lambda x: np.exp(2.5 * x), pts) < 0


def test_excessive_from_spec():
    base = OU
    f = excessive_from_spec({"kind": "indicator", "a": 0.0, "b": 2.0}, base)
    assert f(1.0) == pytest.approx(2 * (1 - np.exp(-1)), rel=1e-9)
    g = excessive_from_spec({"kind": "atoms", "atoms": [[0.0, 1.0]]}, base)
    assert g(0.7) == pytest.approx(np.exp(-0.7), rel=1e-12)
    c = excessive_from_spec({"kind": "const", "c": 2.0}, base)
    assert c(5.0) == 2.0
    s = excessive_from_spec({"kind": "scale_concave", "p": 3.0, "x0": 1.0},
                            brownian_min_kernel())
    assert s(2.0) == 1.0
    with pytest.raises(ValueError):
        excessive_from_spec({"kind": "indicator", "a": 0.0, "b": 1.0,
                             "junk": 3}, base)
    with pytest.raises(ValueError):
        excessive_from_spec({"kind": "wavelet"}, base)


@pytest.mark.slow
def test_resolvent_identity_links_killed_and_unkilled_potentials():
    """U0 h = V_beta (h + beta U0 h) checked by quadrature on a window density.

    Both sides are built independently: the left from the unkilled hit-zero
    kernel, the right from the killed-at-zero kernel of the same exponent.
    """
    from permlab import QuadratureConfig
    psi = CharExponent.pure_stable(1.5)
    beta = 0.8
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)  # far-field evals
    pot0 = LevyPotential(psi, beta=0.0, quad=cfg)
    potb = LevyPotential(psi, beta=beta, quad=cfg)
    a, b = 0.5, 1.5

    nodes, weights = np.polynomial.legendre.leggauss(10)

    def rule(lo, hi):
        """Gauss-Legendre nodes and weights of [lo, hi] along a last axis."""
        lo, hi = np.asarray(lo)[..., None], np.asarray(hi)[..., None]
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes, 0.5 * (hi - lo) * weights

    def u0_potential(x):
        # split the window at x, where the kernel has its kink; a piece of
        # zero width gets zero weights
        x = np.asarray(x, dtype=float)
        cut = np.clip(x, a, b)
        total = 0.0
        for lo, hi in ((a, cut), (cut, b)):
            ys, ws = rule(np.broadcast_to(lo, x.shape), hi)
            total = total + np.sum(ws * pot0.u0(x[..., None], ys), axis=-1)
        return total

    # outer integral over the full line, cut off where the killed kernel is
    # negligible; panels align with the kinks of the integrand (the window
    # edges, the origin, and the diagonal point y = x)
    L = 60.0
    x = 0.8
    breaks = sorted({-L, -1.0, 0.0, a, x, b, 2.0, 5.0, 15.0, L})
    panels = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(np.ceil((hi - lo) / 3.0))) if hi - lo > 1.5 else 2
        edges = np.linspace(lo, hi, k + 1)
        panels.extend(zip(edges[:-1], edges[1:]))
    ys, ws = rule(*np.array(panels).T)
    dens = beta * u0_potential(ys) + ((a <= ys) & (ys <= b))
    rhs = np.sum(ws * potb.v(x, ys) * dens)
    lhs = u0_potential(x)
    assert rhs == pytest.approx(lhs, rel=2e-3)
