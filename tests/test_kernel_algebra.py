import numpy as np
import pytest

from permlab import (ConstantExcessive, ExpDecayBase, GridError, GridSpec,
                     StableHitZeroBase, assemble_kernel, brownian_min_kernel,
                     brownian_unit_base, decompose, make_flat_pair,
                     min_kernel_inverse, rowsum_residuals)
from permlab import _linalg as la

MK = brownian_min_kernel()
OU = brownian_unit_base()
ONE = ConstantExcessive(1.0)


# -- grids -------------------------------------------------------------------

def test_grid_counts_and_offsets():
    spec = GridSpec(d=0.0, theta=0.5, n=20, q=0.5)
    assert spec.m == 17
    offs = spec.offsets()
    assert offs[0] == pytest.approx(2.0 ** -20)
    assert offs[-1] == pytest.approx(2.0 ** -4)
    pts = spec.points()
    assert pts[0] == 0.0
    assert np.all(np.diff(pts) > 0)


def test_grid_guard_rejects_large_offsets():
    with pytest.raises(GridError):
        GridSpec(d=0.0, theta=0.5, n=4, q=0.5)   # 0.25 > e^-e


def test_grid_descending_direction():
    spec = GridSpec(d=1.0, theta=0.3, n=30, q=0.4, direction=-1)
    pts = spec.points()
    assert pts[0] == 1.0
    assert np.all(pts[1:] < 1.0)
    assert np.all(pts > 0)


def test_grid_parameter_validation():
    for kwargs in ({"theta": 1.1}, {"theta": 0.0}, {"q": 1.0}, {"n": 0},
                   {"direction": 2}, {"d": float("nan")}, {"d": float("inf")},
                   {"d": -float("inf")}, {"theta": float("nan")},
                   {"q": float("nan")}):
        full = {"d": 1.0, "theta": 0.5, "n": 20, "q": 0.5}
        full.update(kwargs)
        with pytest.raises(GridError):
            GridSpec(**full)


# -- assembly ------------------------------------------------------------------

class _OnePoint:
    positive_domain = False
    translation_invariant = False

    def kernel(self, x, y):
        return 2.0

    def gram(self, xs, ys):
        return np.full((len(xs), len(ys)), 2.0)


def test_assemble_one_point_by_hand():
    ak = assemble_kernel(_OnePoint(), lambda x: 5.0, lambda x: 3.0, [0.4])
    assert np.allclose(ak.K, [[1.0, 5.0], [3.0, 17.0]])
    dec = decompose(ak)
    sign, logdet = la.slogdet(ak.K)
    assert sign > 0
    assert np.exp(logdet) == pytest.approx(2.0, rel=1e-15)
    assert dec.det_ratio_error < 1e-14


def test_assemble_rejects_negative_excessive():
    with pytest.raises(ValueError):
        assemble_kernel(OU, lambda x: x - 10.0, ONE, GridSpec(1.0, 0.5, 20, 0.5))


def test_assemble_rejects_zero_at_distinguished_point():
    # f = 0 on the whole grid is no exception while g is not zero too
    for f in (lambda x: np.maximum(x - 1.0, 0.0), lambda x: 0.0):
        with pytest.raises(ValueError, match="distinguished point"):
            assemble_kernel(OU, f, ONE, GridSpec(1.0, 0.5, 20, 0.5))


def test_zero_pair_is_the_symmetric_kernel():
    # f = g = 0 needs no flag: the border of K is zero, nu = 1 and a = 0
    zero = lambda x: 0.0
    ak = assemble_kernel(OU, zero, zero, GridSpec(1.0, 0.5, 20, 0.5))
    assert np.all(ak.K[0, 1:] == 0.0) and np.all(ak.K[1:, 0] == 0.0)
    assert np.array_equal(ak.K[1:, 1:], ak.G)
    dec = decompose(ak)
    assert dec.nu == 1.0
    assert np.all(dec.a == 0.0)


def test_assemble_rejects_singular_gram():
    # a deep grid makes kernel rows nearly identical: at n = 36 LAPACK still
    # factors G, but its condition estimate (4.4e12) is past the limit
    spec = GridSpec(d=1.0, theta=0.5, n=36, q=0.5)
    with pytest.raises(ValueError, match="numerically singular"):
        assemble_kernel(OU, ONE, ONE, spec)
    # at n = 60 the rows are identical in float64 and LAPACK refuses G
    spec = GridSpec(d=1.0, theta=0.5, n=60, q=0.5)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        assemble_kernel(OU, ONE, ONE, spec)


def test_condition_limit_is_not_an_argument():
    with pytest.raises(TypeError):
        assemble_kernel(OU, ONE, ONE, GridSpec(1.0, 0.5, 20, 0.5),
                        cond_limit=1e10)


def test_grid_touching_origin_rejected_for_hit_zero_base():
    spec = GridSpec(d=0.02, theta=0.5, n=30, q=0.5, direction=-1)
    with pytest.raises(GridError):
        assemble_kernel(MK, ONE, ONE, spec)
    # explicit points too: a process killed at 0 cannot reach -0.3 from 0.5
    for pts in ([0.5, -0.3, 0.2, 0.4], [0.5, 0.0, 0.2]):
        with pytest.raises(GridError, match="origin"):
            assemble_kernel(StableHitZeroBase(0.6), ONE, ONE, pts)


def test_domain_flags_are_not_constructor_arguments():
    # a base that could be built with positive_domain=False would let a grid
    # through the origin check above
    with pytest.raises(TypeError):
        StableHitZeroBase(0.6, positive_domain=False)
    with pytest.raises(TypeError):
        ExpDecayBase(translation_invariant=False)


def test_assemble_rejects_non_finite_points():
    # NaN passes both the positivity and the condition checks
    for bad in (float("nan"), float("inf")):
        for pts in ([bad, 0.2, 0.4], [0.5, 0.2, bad]):
            with pytest.raises(GridError, match="finite"):
                assemble_kernel(OU, ONE, ONE, pts)


# -- decomposition ----------------------------------------------------------

def test_symmetric_pair_gives_unit_ratio():
    f = lambda x: 0.5 + 0.1 * np.exp(-x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    dec = decompose(assemble_kernel(OU, f, f, spec))
    assert dec.nu == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(dec.h, dec.r, atol=1e-12)


def test_linear_slope_limit():
    # the hit-zero quadratic kernel with a linear border function pins the
    # determinant ratio at 1 + slope/2 for every grid depth
    for n in (20, 40, 60):
        spec = GridSpec(d=1.0, theta=0.85, n=n, q=0.95)
        dec = decompose(assemble_kernel(MK, lambda x: x, ONE, spec))
        assert dec.nu == pytest.approx(1.5, abs=1e-9)


def test_flat_pair_ratio_decreases_to_one():
    f, g = make_flat_pair(MK, 1.0)
    nus = []
    for n in (20, 40, 60):
        spec = GridSpec(d=1.0, theta=0.85, n=n, q=0.95, direction=-1)
        nus.append(decompose(assemble_kernel(MK, f, g, spec)).nu)
    assert nus[0] > nus[1] > nus[2] >= 1.0 - 1e-12
    assert nus[2] - 1.0 < 1e-3


def test_decomposition_identities():
    f, g = make_flat_pair(OU, 1.0)
    spec = GridSpec(d=1.0, theta=0.85, n=40, q=0.95)
    dec = decompose(assemble_kernel(OU, f, g, spec))
    assert dec.rho_identity_error <= 1e-10
    assert dec.det_ratio_error <= 1e-10
    assert dec.block_identity_error <= 1e-10
    assert dec.a_is_m_matrix and dec.a_sym_is_m_matrix
    assert dec.nu >= 1.0 - 1e-12
    # border of the inverse matches the solve route
    assert np.allclose(-dec.A[1:, 0], dec.r, atol=1e-9)
    assert np.allclose(-dec.A[0, 1:], dec.v, atol=1e-9)
    assert dec.A[0, 0] == pytest.approx(1.0 + dec.rho, rel=1e-10)


def test_decompose_rejects_non_excessive_input():
    # a convex function of the scale cannot be excessive for the min kernel
    f = lambda x: x ** 2
    spec = GridSpec(d=1.0, theta=0.85, n=30, q=0.95, direction=-1)
    with pytest.raises(ValueError, match="excessive"):
        decompose(assemble_kernel(MK, f, ONE, spec))


def test_rowsum_residuals_shrink():
    f, g = make_flat_pair(OU, 1.0)
    prev = None
    for n in (20, 40):
        spec = GridSpec(d=1.0, theta=0.85, n=n, q=0.95)
        dec = decompose(assemble_kernel(OU, f, g, spec))
        res = rowsum_residuals(dec)
        t_m = spec.offsets()[-1]
        sigma2_tm = 2.0 * (1.0 - np.exp(-t_m))
        assert max(res.values()) < 5.0 * sigma2_tm
        if prev is not None:
            assert max(res.values()) < max(prev.values())
        prev = res


def test_border_scale_bound():
    # a_j stays within sqrt(f(d) g(d)) plus a multiple of the increment scale;
    # the multiple is fitted on the shallowest grid and reused
    f, g = make_flat_pair(OU, 1.0)
    fd, gd = f(1.0), g(1.0)
    fitted = None
    for n in (20, 40, 60):
        spec = GridSpec(d=1.0, theta=0.85, n=n, q=0.95)
        dec = decompose(assemble_kernel(OU, f, g, spec))
        sigma_tm = np.sqrt(2.0 * (1.0 - np.exp(-spec.offsets()[-1])))
        assert np.all(dec.a > 0)
        excess = (np.max(dec.a) - np.sqrt(fd * gd)) / sigma_tm
        if fitted is None:
            fitted = max(excess, 0.0) + 1e-6
        else:
            assert np.max(dec.a) <= np.sqrt(fd * gd) + fitted * sigma_tm


# -- tridiagonal inverse -----------------------------------------------------

def test_min_kernel_inverse_small():
    out = min_kernel_inverse([1.0, 2.0, 3.0])
    want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(out, want)
    assert np.allclose(min_kernel_inverse([0.5]), [[2.0]])


def test_min_kernel_inverse_randomized():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(1, 25))
        t = np.cumsum(rng.uniform(0.1, 1.5, size=m)) + 0.2
        tri, G = min_kernel_inverse(t), np.minimum.outer(t, t)
        # I - T G with exact products, so that only T's error shows
        assert float(np.max(np.abs(la.residual(la.cut((tri, None)), (G, None))))) < 1e-12


def _min_kernel_inverse_loop(t):
    """The per-entry loop that min_kernel_inverse replaced."""
    m = len(t)
    a = np.empty(m)
    a[0] = 1.0 / t[0]
    if m > 1:
        a[1:] = 1.0 / np.diff(t)
    out = np.zeros((m, m))
    for j in range(m):
        out[j, j] = a[j] + (a[j + 1] if j + 1 < m else 0.0)
        if j + 1 < m:
            out[j, j + 1] = out[j + 1, j] = -a[j + 1]
    return out


def test_min_kernel_inverse_equals_the_loop():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 40):
        t = np.cumsum(rng.uniform(0.01, 2.0, size=m))
        assert np.array_equal(min_kernel_inverse(t), _min_kernel_inverse_loop(t))


def test_min_kernel_inverse_rejects_bad_grids():
    with pytest.raises(ValueError):
        min_kernel_inverse([1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        min_kernel_inverse([0.0, 1.0])
    with pytest.raises(ValueError):
        min_kernel_inverse([2.0, 1.0])


def test_grid_condition_diagnostic_direction():
    from permlab import regular_variation_constant
    from permlab.kernel_algebra import grid_condition_diagnostic

    # power increment variance with index below one: the diagnostic shrinks
    c = regular_variation_constant(1.5)
    power = lambda x: c * x ** 0.5
    vals = [grid_condition_diagnostic(GridSpec(0.0, 0.5, n, 0.5), power)
            for n in (20, 100, 200)]
    assert vals[0] > vals[-1]

    # a linear increment variance makes it grow with the point count instead
    linear = lambda x: 2.0 * x
    grow = [grid_condition_diagnostic(GridSpec(0.0, 0.5, n, 0.5), linear)
            for n in (20, 100, 200)]
    assert grow[0] < grow[1] < grow[2]


def test_grid_condition_diagnostic_matches_the_pairwise_loop():
    from permlab.kernel_algebra import grid_condition_diagnostic

    spec = GridSpec(0.0, 0.5, 30, 0.5)
    variance = lambda x: 1.3 * np.asarray(x) ** 0.7
    t = np.concatenate(([0.0], spec.offsets()))
    worst = max(abs(t[k] - t[j]) / variance(abs(t[k] - t[j]))
                for j in range(len(t)) for k in range(j + 1, len(t)))
    assert grid_condition_diagnostic(spec, variance) == pytest.approx(
        spec.m * worst, rel=1e-14)
