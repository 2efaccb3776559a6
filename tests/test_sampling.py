import numpy as np
import pytest
from scipy.stats import ks_2samp

from permlab import (ConstantExcessive, GridSpec, ScaleMinBase,
                     ScalePotential, assemble_kernel, brownian_min_kernel,
                     brownian_unit_base, decompose, laplace_check,
                     lil_harness, make_flat_pair, sample_chi_square,
                     sample_isymi_representation, sampling, sandwich_check,
                     trend_is_nondecreasing)
from permlab.expressions import Affine, Const, Pow, Prod, Sum

OU = brownian_unit_base()


def test_samples_are_deterministic():
    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    a = sample_chi_square(cov, 2, 1000, seed=42)
    b = sample_chi_square(cov, 2, 1000, seed=42)
    assert np.array_equal(a, b)
    c = sample_chi_square(cov, 2, 1000, seed=43)
    assert not np.array_equal(a, c)


def test_exponential_marginal():
    # order two with unit variance is a rate-one exponential
    x = sample_chi_square(np.array([[1.0]]), 2, 200_000, seed=1)
    n = len(x)
    assert abs(np.mean(x) - 1.0) <= 3.0 / np.sqrt(n)
    assert np.mean(x > 1.0) == pytest.approx(np.exp(-1.0), abs=4 / np.sqrt(n))
    assert np.all(x >= 0.0)


def test_independent_components():
    x = sample_chi_square(np.eye(2), 1, 200_000, seed=2)
    corr = np.corrcoef(x.T)[0, 1]
    assert abs(corr) < 5.0 / np.sqrt(len(x))


def test_mean_is_half_diagonal():
    pts = [0.0, 0.4, 1.1]
    cov = np.exp(-np.abs(np.subtract.outer(pts, pts)))
    x = sample_chi_square(cov, 1, 200_000, seed=3)
    se = np.std(x, axis=0, ddof=1) / np.sqrt(len(x))
    assert np.all(np.abs(np.mean(x, axis=0) - np.diag(cov) / 2) <= 4 * se)


def test_covariance_rejections():
    with pytest.raises(ValueError):
        sample_chi_square(np.array([[1.0, 2.0], [2.0, 1.0]]), 1, 10, 0)
    with pytest.raises(ValueError):
        sample_chi_square(np.array([[1.0, 0.0], [0.5, 1.0]]), 1, 10, 0)
    with pytest.raises(ValueError):
        sample_chi_square(np.array([[1.0]]), 0, 10, 0)


@pytest.mark.parametrize("cov", [[[np.nan]], [[1.0, np.nan], [np.nan, 1.0]],
                                 [[np.inf]], [[1.0, -np.inf], [-np.inf, 1.0]]])
def test_samplers_reject_a_non_finite_covariance(cov):
    # a NaN entry once passed the symmetry check and gave NaN samples
    cov = np.array(cov)
    with pytest.raises(ValueError, match="finite"):
        sample_chi_square(cov, 1, 5, 0)
    with pytest.raises(ValueError, match="finite"):
        laplace_check(cov, 1, np.ones(len(cov)), 5, 0)


@pytest.mark.parametrize("k, n_paths", [(0, 10), (-1, 10), (1, 0)])
def test_samplers_reject_fewer_than_one_copy_or_path(k, n_paths):
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    dec = decompose(assemble_kernel(OU, f, f, spec))
    calls = [
        lambda: sample_chi_square(np.eye(1), k, n_paths, 0),
        lambda: sample_isymi_representation(dec, k, n_paths, 0),
        lambda: sandwich_check(dec, k, lambda x: x[:, 0] > 1.0, n_paths, 0),
        lambda: lil_harness(OU, None, None, [spec], k, n_paths, 0),
        lambda: lil_harness(OU, f, f, [spec], k, n_paths, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="at least 1"):
            call()


def test_laplace_transform_scalar():
    emp, analytic, z = laplace_check(np.array([[1.0]]), 1, [1.0], 200_000, 5)
    assert analytic == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert abs(z) <= 4.0
    emp, analytic, z = laplace_check(np.array([[1.0]]), 1, [0.0], 100, 5)
    assert emp == 1.0 and analytic == 1.0 and z == 0.0


def test_laplace_transform_matrix_case():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    emp, analytic, z = laplace_check(cov, 3, [1.0, 1.0], 400_000, 6)
    s = np.diag([1.0, 1.0])
    want = np.linalg.det(np.eye(2) + cov @ s) ** -1.5
    assert analytic == pytest.approx(want, rel=1e-12)
    assert abs(z) <= 4.0


def test_laplace_rejects_negative_argument():
    with pytest.raises(ValueError):
        laplace_check(np.array([[1.0]]), 1, [-0.1], 100, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_laplace_rejects_a_non_finite_argument(bad):
    # s < 0 is false for NaN, so a sign check alone would return a NaN z
    with pytest.raises(ValueError, match="finite"):
        laplace_check(np.eye(2), 1, [0.5, bad], 100, 0)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_laplace_rejects_fewer_than_two_paths(n_paths):
    # its z-score divides by a ddof=1 standard deviation
    with pytest.raises(ValueError, match="at least 2 paths"):
        laplace_check(np.array([[1.0]]), 1, [1.0], n_paths, 5)


def test_isymi_representation_symmetric_case():
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    ak = assemble_kernel(OU, f, f, spec)
    dec = decompose(ak)
    # with f = g the augmented kernel is symmetric and the representation
    # Gram matrix reproduces it exactly
    want = ak.G + np.outer(ak.fvec, ak.fvec)
    got = ak.G + np.outer(dec.a, dec.a)
    assert np.max(np.abs(got - want)) <= 1e-10
    x = sample_isymi_representation(dec, 1, 100_000, seed=8)
    se = np.std(x, axis=0, ddof=1) / np.sqrt(len(x))
    assert np.all(np.abs(np.mean(x, axis=0) - np.diag(want) / 2) <= 5 * se)


def test_isymi_representation_degenerate_pair():
    zero = lambda x: 0.0
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    ak = assemble_kernel(OU, zero, zero, spec)
    dec = decompose(ak)
    assert np.allclose(dec.a, 0.0)
    x = sample_isymi_representation(dec, 2, 50_000, seed=9)
    se = np.std(x, axis=0, ddof=1) / np.sqrt(len(x))
    assert np.all(np.abs(np.mean(x, axis=0) - np.diag(ak.G)) <= 5 * se)


def test_sandwich_interval():
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    dec = decompose(assemble_kernel(OU, f, f, spec))
    rep = sandwich_check(dec, 2, lambda x: x[:, 0] > 1.0, 50_000, seed=10)
    assert rep.width == pytest.approx(0.0, abs=1e-12)
    assert rep.lower == pytest.approx(rep.upper, abs=1e-12)

    mk = brownian_min_kernel()
    dec = decompose(assemble_kernel(
        mk, lambda x: x, ConstantExcessive(1.0), GridSpec(1.0, 0.85, 40, 0.95)))
    rep = sandwich_check(dec, 2, lambda x: x[:, 0] > 1.0, 20_000, seed=11)
    assert rep.nu == pytest.approx(1.5, abs=1e-9)
    assert rep.width == pytest.approx(1.0 - 1.5 ** -1.0, rel=1e-9)

    ff, gg = make_flat_pair(mk, 1.0)
    dec = decompose(assemble_kernel(
        mk, ff, gg, GridSpec(1.0, 0.85, 60, 0.95, direction=-1)))
    rep = sandwich_check(dec, 2, lambda x: x[:, 0] > 1.0, 20_000, seed=12)
    assert rep.width < 1.1e-3


def test_lil_rows_and_trend():
    specs = [GridSpec(d=0.0, theta=0.3, n=n, q=0.5) for n in (20, 30, 40)]
    rows = lil_harness(OU, None, None, specs, k=1, n_paths=2000, seed=99)
    assert len(rows) == 9      # three grids, three epsilons
    by_eps = {}
    for r in rows:
        assert 0.0 <= r.freq_lower <= 1.0
        assert 0.0 <= r.freq_upper <= 1.0
        by_eps.setdefault(r.epsilon, []).append(r.freq_lower)
    for eps, freqs in by_eps.items():
        assert trend_is_nondecreasing(freqs, 2000)


def test_lil_flags_degenerate_kernel():
    class AllOnes:
        positive_domain = False
        translation_invariant = False

        def kernel(self, x, y):
            return 1.0

        def sigma2(self, xs, ys):
            return np.zeros((len(xs), len(ys)))

    specs = [GridSpec(d=0.0, theta=0.3, n=20, q=0.5)]
    rows = lil_harness(AllOnes(), None, None, specs, k=1, n_paths=100, seed=1)
    assert all(r.degenerate for r in rows)
    assert all(np.isnan(r.freq_lower) for r in rows)


def _scale_base():
    """u = 2 (s(x) ^ s(y)) with the scale s(x) = 1.2 x + x^2 / 2."""
    s = Sum(Affine(1.2, 0.0), Prod(Const(0.5), Pow(Affine(1.0, 0.0), 2.0)))
    return ScaleMinBase(ScalePotential(s))


@pytest.mark.parametrize("name, direction", [
    ("min", 1), ("min", -1), ("scale", 1), ("scale", -1), ("ou", -1)])
def test_increment_structure_equals_the_transformed_kernel(name, direction):
    # (eta_d, eta_j - eta_d) = T (eta_d, eta_j) with T = [[1, 0], [-1, I]],
    # so the joint covariance is T K T^T for K the kernel on the points
    base = {"min": brownian_min_kernel, "scale": _scale_base,
            "ou": brownian_unit_base}[name]()
    d, offsets = 1.0, np.geomspace(0.004, 0.06, 6)
    pts = np.concatenate(([d], d + direction * offsets))
    K = base.gram(pts, pts)
    T = np.eye(len(pts))
    T[1:, 0] = -1.0
    got = sampling._increment_structure(base, d, offsets, direction)
    assert np.allclose(got, T @ K @ T.T, rtol=0.0, atol=1e-13 * np.max(K))
    if name == "min" and direction == -1:
        # u(d - t, d) - u(d, d) = -2 t, twice the -sigma2 / 2 = -t of a
        # stationary kernel
        assert np.allclose(got[1:, 0], -2.0 * offsets, rtol=1e-14, atol=0.0)


def test_lil_rejects_a_singular_increment_correlation(monkeypatch):
    # two equal rows: the correlation is not positive definite, and no shift
    # may make it so
    def equal_rows(base, d, offsets, direction):
        m = len(offsets)
        cov = np.ones((m + 1, m + 1))
        cov[0, 1:] = cov[1:, 0] = 0.0
        return cov

    monkeypatch.setattr(sampling, "_increment_structure", equal_rows)
    specs = [GridSpec(d=0.0, theta=0.3, n=20, q=0.5)]
    with pytest.raises(np.linalg.LinAlgError):
        lil_harness(OU, None, None, specs, k=1, n_paths=100, seed=1)


def test_lil_flat_pair_statistic_matches_symmetric_law():
    # with the determinant ratio this close to 1 the surrograte statistic is
    # indistinguishable from the plain symmetric one
    mk = brownian_min_kernel()
    f, g = make_flat_pair(mk, 1.0)
    spec = GridSpec(d=1.0, theta=0.85, n=60, q=0.95, direction=-1)
    n_paths = 4000
    rows_flat = lil_harness(mk, f, g, [spec], k=1, n_paths=n_paths, seed=21,
                            eps_list=(0.3,))
    rows_sym = lil_harness(mk, None, None, [spec], k=1, n_paths=n_paths,
                           seed=22, eps_list=(0.3,))
    assert rows_flat[0].nu - 1.0 < 1e-3
    # compare the exceedance frequencies in place of full samples
    se = np.sqrt(0.25 / n_paths)
    assert abs(rows_flat[0].freq_lower - rows_sym[0].freq_lower) <= 6 * se


def test_lil_statistic_distribution_ks():
    # full two-sample comparison of the chi-square laws behind the harness:
    # symmetrized representation vs plain Gaussian squares
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    dec = decompose(assemble_kernel(OU, f, f, spec))
    a = sample_isymi_representation(dec, 1, 20_000, seed=30)[:, 0]
    cov = dec.kernel.G + np.outer(dec.kernel.fvec, dec.kernel.fvec)
    b = sample_chi_square(cov, 1, 20_000, seed=31)[:, 0]
    assert ks_2samp(a, b).statistic <= 0.05


def test_trend_helper():
    assert trend_is_nondecreasing([0.5, 0.52, 0.55], 1000)
    assert trend_is_nondecreasing([0.5, 0.49], 1000)   # within noise
    assert not trend_is_nondecreasing([0.8, 0.5], 1000)


def test_isymi_chi_square_covariance_matches_kernel():
    # for a chi-square of order k with kernel K the covariance of the squared
    # process is k K_ij^2 / 2; check the sampled representation against the
    # symmetrized kernel block entry by entry
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    g = lambda x: 0.8 + 0.1 * x
    spec = GridSpec(d=1.0, theta=0.5, n=12, q=0.7)
    dec = decompose(assemble_kernel(OU, f, g, spec))
    k = 2
    x = sample_isymi_representation(dec, k, 400_000, seed=77)
    block = dec.K_isymi[1:, 1:]
    want = k * block ** 2 / 2.0
    emp = np.cov(x.T)
    n = len(x)
    # standard error of a covariance entry is of order the product of the
    # standard deviations over sqrt(n)
    sd = np.sqrt(np.diag(emp))
    se = np.outer(sd, sd) / np.sqrt(n) * 3.0
    assert np.all(np.abs(emp - want) <= 5 * se)


# -- the whole-array routes, kept as oracles of the path-blocked ones ---------

def _whole_chi_square(cov, k, n_paths, seed):
    factor = sampling._psd_factor(cov)
    z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[0]))
    eta = z @ factor.T
    return 0.5 * np.sum(eta * eta, axis=1)


def _whole_isymi(dec, k, n_paths, seed):
    # eta + a xi is [F, a] applied to dim + 1 normals, xi last in each row
    factor = np.column_stack((sampling._psd_factor(dec.kernel.G), dec.a))
    z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[1]))
    eta = z @ factor.T
    return 0.5 * np.sum(eta * eta, axis=1)


def _lil_factor(base, f, g, spec):
    """(factor, nu, psi) of one grid: [L, c] with borders, L without; factor
    None on a degenerate grid."""
    offsets = spec.offsets()
    cov = sampling._increment_structure(base, spec.d, offsets, spec.direction)
    if np.min(np.diag(cov)[1:]) <= 0.0:
        return None, np.nan, None
    factor, nu = np.linalg.cholesky(cov), 1.0
    if f is not None:
        dec = decompose(assemble_kernel(base, f, g, spec))
        # xi adds a_0 to the value at d and a_j - a_0 to increment j
        c = np.concatenate(([dec.a[0]], dec.a[1:] - dec.a[0]))
        factor, nu = np.column_stack((factor, c)), dec.nu
    psi = np.sqrt(2.0 * np.diag(cov)[1:] * np.log(np.log(1.0 / offsets)))
    return factor, nu, psi


def _reduce(eta_d, delta, psi):
    """(stat, stat_abs, X(d)) from the values at d and the increments."""
    dX = np.sum(delta * (eta_d[:, :, None] + 0.5 * delta), axis=1)
    return (np.max(dX / psi, axis=1), np.max(np.abs(dX) / psi, axis=1),
            0.5 * np.sum(eta_d * eta_d, axis=1))


def _whole_lil(base, f, g, grid_specs, k, n_paths, seed,
               eps_list=(0.1, 0.2, 0.3)):
    """The harness's stream layout on whole arrays: each path's k rows of
    1 + m normals (then xi, with borders) drawn as one (paths, k, width)
    array, restarting the stream at seed for every grid.  Returns (rows,
    (stat, stat_abs, X(d)) of each grid that is not degenerate)."""
    rows, stats = [], []
    for spec in grid_specs:
        factor, nu, psi = _lil_factor(base, f, g, spec)
        if factor is None:
            rows.extend(sampling.LILRow(spec.n, spec.m, eps, np.nan, np.nan,
                                        np.nan, n_paths, degenerate=True)
                        for eps in eps_list)
            continue
        z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[1]))
        eta = z @ factor.T
        stat, stat_abs, x_d = _reduce(eta[:, :, 0], eta[:, :, 1:], psi)
        stats.append(np.array([stat, stat_abs, x_d]))
        target = np.sqrt(2.0 * x_d)
        rows.extend(sampling.LILRow(
            n=spec.n, m=spec.m, epsilon=eps,
            freq_lower=float(np.mean(stat >= (1.0 - eps) * target)),
            freq_upper=float(np.mean(stat_abs <= (1.0 + eps) * target)),
            nu=nu, paths=n_paths) for eps in eps_list)
    return rows, stats


def _conditional_lil(base, f, g, spec, k, n_paths, seed):
    """The former route, kept as the law oracle: eta_d drawn whole first,
    then the increments given eta_d from the Cholesky factor of their
    conditional correlation and the slope on eta_d, then xi added last.
    Returns (stat, stat_abs, X(d))."""
    offsets = spec.offsets()
    cov = sampling._increment_structure(base, spec.d, offsets, spec.direction)
    G00, cross, C = cov[0, 0], cov[1:, 0], cov[1:, 1:]
    cond = C - np.outer(cross, cross) / G00
    dd = np.sqrt(np.diag(cond))
    factor = np.linalg.cholesky(cond / np.outer(dd, dd))
    rng = sampling.philox(seed)
    m = len(offsets)
    eta_d = np.sqrt(G00) * rng.standard_normal((n_paths, k))
    z = rng.standard_normal((n_paths, k, m if f is None else m + 1))
    delta = (z[:, :, :m] @ factor.T) * dd + (cross / G00) * eta_d[:, :, None]
    if f is not None:
        a = decompose(assemble_kernel(base, f, g, spec)).a
        xi = z[:, :, m:]
        eta_d = eta_d + xi[:, :, 0] * a[0]
        delta = delta + xi * (a[1:] - a[0])
    psi = np.sqrt(2.0 * np.diag(C) * np.log(np.log(1.0 / offsets)))
    return _reduce(eta_d, delta, psi)


B = sampling._BLOCK
BLOCK_EDGES = [1, B - 1, B, B + 1, int(2.5 * B)]
F_OU = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
G_OU = lambda x: 0.8 + 0.1 * x


@pytest.mark.parametrize("n_paths", BLOCK_EDGES)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bordered", [False, True])
def test_blocked_lil_equals_the_whole_array_route(monkeypatch, bordered, k,
                                                  n_paths):
    f, g = (F_OU, G_OU) if bordered else (None, None)
    specs = [GridSpec(d=1.0, theta=0.5, n=n, q=0.7) for n in (12, 16)]
    rows, seen = _spied_lil_statistics(monkeypatch, OU, f, g, specs, k,
                                       n_paths, 17)
    want_rows, want_stats = _whole_lil(OU, f, g, specs, k, n_paths, seed=17)
    assert rows == want_rows
    assert len(seen) == len(want_stats) == 2
    for got, want in zip(seen, want_stats):
        assert np.array_equal(got, want)


def _spied_lil_statistics(monkeypatch, *args):
    """lil_harness(*args) and the (stat, stat_abs, X(d)) of each grid that
    is not degenerate."""
    seen = []
    one_stream = sampling._lil_statistics

    def spy(*args):
        seen.extend(one_stream(*args))
        return seen

    monkeypatch.setattr(sampling, "_lil_statistics", spy)
    return lil_harness(*args), seen


def _degenerate_at(monkeypatch, d_flat):
    """Make every grid at d_flat degenerate: no increment variance there."""
    structure = sampling._increment_structure

    def flat(base, d, offsets, direction):
        cov = structure(base, d, offsets, direction)
        if d == d_flat:
            cov[1:, :] = cov[:, 1:] = 0.0
        return cov

    monkeypatch.setattr(sampling, "_increment_structure", flat)


# rows of 1 + 8, 1 + 11 and 1 + 13 normals (one more with borders): a chunk
# of the widest grid's paths ends inside a path of a narrower grid, and
# holds more than a block of the narrower grid's paths
SCHEDULES = {
    "three-widths": [GridSpec(d=1.0, theta=0.5, n=n, q=0.7)
                     for n in (16, 12, 20)],
    # the widest grid is the degenerate one, so it draws nothing
    "degenerate-middle": [GridSpec(d=d, theta=0.5, n=n, q=0.7)
                          for d, n in ((1.0, 12), (2.0, 20), (1.0, 16))],
}


@pytest.mark.parametrize("n_paths", BLOCK_EDGES)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_one_stream_lil_equals_the_restarted_streams(monkeypatch, schedule,
                                                     bordered, k, n_paths):
    # every grid reads the stream from its start, so drawing it once for
    # the widest grid gives each grid the normals it drew when it restarted
    # the stream itself
    f, g = (F_OU, G_OU) if bordered else (None, None)
    specs = SCHEDULES[schedule]
    _degenerate_at(monkeypatch, 2.0)
    rows, seen = _spied_lil_statistics(monkeypatch, OU, f, g, specs, k,
                                       n_paths, 19)
    want_rows, want_stats = _whole_lil(OU, f, g, specs, k, n_paths, seed=19)
    assert rows == want_rows
    assert [r.degenerate for r in rows[::3]] == [s.d == 2.0 for s in specs]
    assert len(seen) == len(want_stats) == sum(s.d != 2.0 for s in specs)
    for got, want in zip(seen, want_stats):
        assert np.array_equal(got, want)


# two-sample KS at 40,000 paths a side: 1.95 sqrt(2 / n) is the 0.1% point
LAW_PATHS = 40_000
LAW_KS_BOUND = 1.95 * np.sqrt(2.0 / LAW_PATHS)       # 0.0138


@pytest.mark.parametrize("bordered", [False, True])
def test_lil_statistics_follow_the_conditional_route_in_law(monkeypatch,
                                                            bordered):
    # the joint factor and the former conditional decomposition sample the
    # same Gaussian law of (eta_d, increments, xi); compare the statistics
    f, g = (F_OU, G_OU) if bordered else (None, None)
    spec = GridSpec(d=1.0, theta=0.5, n=16, q=0.7)
    _, seen = _spied_lil_statistics(monkeypatch, OU, f, g, [spec], 2,
                                    LAW_PATHS, 41)
    want = _conditional_lil(OU, f, g, spec, 2, LAW_PATHS, seed=42)
    for got, ref in zip(seen[0], want):
        assert ks_2samp(got, ref).statistic <= LAW_KS_BOUND


@pytest.mark.parametrize("n_paths", BLOCK_EDGES)
@pytest.mark.parametrize("k", [1, 2])
def test_blocked_chi_square_equals_the_whole_array_route(k, n_paths):
    pts = [0.2, 0.5, 0.9, 1.4]
    cov = np.exp(-np.abs(np.subtract.outer(pts, pts)))
    assert np.array_equal(sample_chi_square(cov, k, n_paths, 23),
                          _whole_chi_square(cov, k, n_paths, 23))
    dec = decompose(assemble_kernel(OU, F_OU, G_OU,
                                    GridSpec(d=1.0, theta=0.5, n=12, q=0.7)))
    assert np.array_equal(sample_isymi_representation(dec, k, n_paths, 24),
                          _whole_isymi(dec, k, n_paths, 24))


@pytest.mark.parametrize("m", [12, 52, 104])
def test_blocked_product_equals_the_whole_product(m):
    # BLAS does not promise that a product of a row block equals the same
    # rows of the whole product; the blocked samplers rely on it, and a
    # narrower grid of a lil table cuts the shared stream into blocks of
    # whatever size its paths fall into, down to a single path
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    factor = np.linalg.cholesky(a @ a.T + m * np.eye(m))
    n = int(2.5 * B)
    z = rng.standard_normal((n, 2, m))
    whole_blocks = [slice(0, B), slice(B, 2 * B), slice(2 * B, n)]
    blocked = np.concatenate([z[b] @ factor.T for b in whole_blocks])
    assert np.array_equal(blocked, z @ factor.T)
    cuts = [0, 1, 2, 9, 1000, B + 1000, B + 1001, 2 * B + 999, n]
    cut = np.concatenate([z[i:j] @ factor.T
                          for i, j in zip(cuts[:-1], cuts[1:])])
    assert np.array_equal(cut, z @ factor.T)


def _traced_peak(call):
    import tracemalloc
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lil_table_peaks_well_below_one_whole_array():
    n_paths, k = 50_000, 2
    whole = 8 * n_paths * k * 52                  # 41.6 MB
    # m = 52 on both grids; the bordered one is conditioned for the algebra
    for spec, f, g in ((GridSpec(d=0.0, theta=0.65, n=58, q=0.5), None, None),
                       (GridSpec(d=1.0, theta=0.85, n=70, q=0.7), F_OU, G_OU)):
        assert spec.m == 52
        peak = _traced_peak(lambda: lil_harness(OU, f, g, [spec], k, n_paths,
                                                seed=3))
        assert peak < 0.5 * whole


def test_three_grid_lil_table_peaks_well_below_the_widest_whole_array():
    # the stream is drawn once for all three grids, so its buffer, each
    # grid's tail and the three grids' statistics live together
    n_paths, k = 50_000, 2
    whole = 8 * n_paths * k * 52                  # the widest grid's, 41.6 MB
    for specs, f, g in (
            ([GridSpec(d=0.0, theta=0.6, n=n, q=0.5) for n in (36, 45, 58)],
             None, None),
            ([GridSpec(d=1.0, theta=0.85, n=n, q=0.7) for n in (58, 64, 70)],
             F_OU, G_OU)):
        assert specs[-1].m == 52 and len({spec.m for spec in specs}) == 3
        peak = _traced_peak(lambda: lil_harness(OU, f, g, specs, k, n_paths,
                                                seed=3))
        assert peak < 0.5 * whole


def test_isymi_sample_peaks_well_below_one_whole_array():
    dec = decompose(assemble_kernel(OU, F_OU, G_OU,
                                    GridSpec(d=1.0, theta=0.5, n=12, q=0.7)))
    # the (paths, dim) result is a k-th of the whole normal array
    n_paths, k = 100_000, 4
    whole = 8 * n_paths * k * len(dec.a)
    peak = _traced_peak(lambda: sample_isymi_representation(dec, k, n_paths,
                                                            seed=4))
    assert peak < 0.5 * whole


def _with_eigenvalues(vals):
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    cov = (q * vals) @ q.T
    return 0.5 * (cov + cov.T)


def test_psd_factor_clips_an_eigenvalue_inside_the_tolerance():
    cov = _with_eigenvalues([2.0, 1.0, -0.5 * sampling._EIG_CLIP_TOL * 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)                   # so the fallback runs
    factor = sampling._psd_factor(cov)
    assert np.max(np.abs(factor @ factor.T - cov)) <= 1e-9
    assert np.all(sample_chi_square(cov, 1, 100, 1) >= 0.0)


def test_psd_factor_rejects_an_eigenvalue_beyond_the_tolerance():
    cov = _with_eigenvalues([2.0, 1.0, -2.0 * sampling._EIG_CLIP_TOL * 3.0])
    lowest = np.linalg.eigvalsh(cov).min()
    with pytest.raises(ValueError, match="indefinite") as err:
        sampling._psd_factor(cov)
    assert f"eigenvalue {lowest:.3e}" in str(err.value)
    with pytest.raises(ValueError, match="indefinite"):
        sample_chi_square(cov, 1, 100, 1)
