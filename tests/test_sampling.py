import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

import permlab
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
    # an empty covariance once failed inside numpy's max
    for call in (lambda: sample_chi_square(np.zeros((0, 0)), 1, 10, 0),
                 lambda: laplace_check(np.zeros((0, 0)), 1, [], 10, 0),
                 lambda: sampling._psd_factor(np.zeros((0, 0)))):
        with pytest.raises(ValueError, match="at least one row"):
            call()
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


@pytest.mark.parametrize("k, n_paths, name", [(1.5, 10, "k"), (2.0, 10, "k"),
                                              (1, 10.0, "n_paths"),
                                              (1, np.float64(10), "n_paths")])
def test_samplers_reject_a_non_integer_copy_or_path_count(k, n_paths, name):
    # these once passed the check and failed deep inside numpy with a
    # TypeError
    f = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
    spec = GridSpec(d=1.0, theta=0.7, n=20, q=0.7)
    dec = decompose(assemble_kernel(OU, f, f, spec))
    calls = [
        lambda: sample_chi_square(np.eye(2), k, n_paths, 1),
        lambda: laplace_check(np.eye(2), k, [1.0, 1.0], n_paths, 1),
        lambda: sample_isymi_representation(dec, k, n_paths, 0),
        lambda: lil_harness(OU, None, None, [spec], k, n_paths, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()


def test_samplers_take_numpy_integer_counts():
    want = sample_chi_square(np.eye(2), 2, 10, 1)
    assert np.array_equal(
        sample_chi_square(np.eye(2), np.int64(2), np.int32(10), 1), want)


@pytest.mark.parametrize("s", [[1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]],
                               [[1.0], [2.0]], 1.0])
def test_laplace_check_rejects_arguments_of_another_shape_before_sampling(
        monkeypatch, s):
    # the shape was once compared only in x @ s, after every path was drawn
    def no_draws(seed):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(sampling, "philox", no_draws)
    with pytest.raises(ValueError, match="one Laplace argument per dimension"):
        laplace_check(np.eye(2), 1, s, 1000, 3)


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


def test_lil_epsilons_are_fixed():
    specs = [GridSpec(d=0.0, theta=0.3, n=20, q=0.5)]
    rows = lil_harness(OU, None, None, specs, k=1, n_paths=100, seed=1)
    assert [r.epsilon for r in rows] == [0.1, 0.2, 0.3]
    with pytest.raises(TypeError):
        lil_harness(OU, None, None, specs, k=1, n_paths=100, seed=1,
                    eps_list=(0.3,))


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
    rows_flat = [r for r in lil_harness(mk, f, g, [spec], k=1,
                                        n_paths=n_paths, seed=21)
                 if r.epsilon == 0.3]
    rows_sym = [r for r in lil_harness(mk, None, None, [spec], k=1,
                                       n_paths=n_paths, seed=22)
                if r.epsilon == 0.3]
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

def _fixed_product(z, factor):
    """z @ factor.T for z of shape (paths, k, w), as the samplers compute it:
    one 2-D product of _ROWS paths per block, blocks aligned to path 0, the
    last block zero-padded to _ROWS paths and cut back to its real rows."""
    R = sampling._ROWS
    eta = np.empty(z.shape[:2] + factor.shape[:1])
    for i in range(0, len(z), R):
        block = np.zeros((R,) + z.shape[1:])
        rows = len(z[i:i + R])
        block[:rows] = z[i:i + R]
        eta[i:i + rows] = (block.reshape(-1, z.shape[2]) @ factor.T).reshape(
            R, z.shape[1], -1)[:rows]
    return eta


def _whole_chi_square(cov, k, n_paths, seed):
    factor = sampling._psd_factor(cov)
    z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[0]))
    eta = _fixed_product(z, factor)
    return 0.5 * np.sum(eta * eta, axis=1)


def _whole_isymi(dec, k, n_paths, seed):
    # eta + a xi is [F, a] applied to dim + 1 normals, xi last in each row
    factor = np.column_stack((sampling._psd_factor(dec.kernel.G), dec.a))
    z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[1]))
    eta = _fixed_product(z, factor)
    return 0.5 * np.sum(eta * eta, axis=1)


def _serial_factor_blocks(factors, k, n_paths, seed):
    """The engine without drawing ahead: one buffer, every chunk drawn on
    the caller's thread just before its products, each factor's blocks
    multiplied by _fixed_product."""
    if not factors:
        return
    B, R = sampling._BLOCK, sampling._ROWS
    widths = [k * factor.shape[1] for factor in factors]
    widest = max(widths)
    chunk, total, head = B * widest, n_paths * widest, R * widest
    buf = np.empty(head + chunk)
    rng = sampling.philox(seed)
    tails = [buf[:0] for _ in factors]
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        rng.standard_normal(out=buf[head:head + stop - start])
        for g, (factor, w) in enumerate(zip(factors, widths)):
            end = min(stop, n_paths * w)
            if end <= start:
                continue
            held = len(tails[g])
            buf[head - held:head] = tails[g]
            z = buf[head - held:head + end - start]
            first, paths = (start - held) // w, len(z) // w
            if end < n_paths * w:
                paths -= paths % R           # whole blocks until the last
            tails[g] = z[paths * w:].copy()
            eta = _fixed_product(z[:paths * w].reshape(paths, k, -1), factor)
            for i in range(0, paths, R):
                yield g, slice(first + i, first + min(i + R, paths)), eta[i:i + R]


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


def _whole_lil(base, f, g, grid_specs, k, n_paths, seed):
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
                        for eps in (0.1, 0.2, 0.3))
            continue
        z = sampling.philox(seed).standard_normal((n_paths, k, factor.shape[1]))
        eta = _fixed_product(z, factor)
        stat, stat_abs, x_d = _reduce(eta[:, :, 0], eta[:, :, 1:], psi)
        stats.append(np.array([stat, stat_abs, x_d]))
        target = np.sqrt(2.0 * x_d)
        rows.extend(sampling.LILRow(
            n=spec.n, m=spec.m, epsilon=eps,
            freq_lower=float(np.mean(stat >= (1.0 - eps) * target)),
            freq_upper=float(np.mean(stat_abs <= (1.0 + eps) * target)),
            nu=nu, paths=n_paths) for eps in (0.1, 0.2, 0.3))
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


B, R = sampling._BLOCK, sampling._ROWS
# path counts at the edges of a product block and of a drawn chunk
BLOCK_EDGES = [1, R - 1, R, R + 1, B - 1, B, B + 1, int(2.5 * B)]
F_OU = lambda x: 0.4 + 0.2 * np.exp(-0.5 * x)
G_OU = lambda x: 0.8 + 0.1 * x


@pytest.mark.parametrize("n_paths", BLOCK_EDGES)
@pytest.mark.parametrize("k", [1, 2, 3])
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


@pytest.mark.parametrize("n_paths", BLOCK_EDGES)
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_drawing_ahead_yields_the_serial_blocks(monkeypatch, schedule,
                                                bordered, k, n_paths):
    # the helper draws the same stream in the same chunks, so every block
    # of every factor holds the serial engine's bits
    f, g = (F_OU, G_OU) if bordered else (None, None)
    _degenerate_at(monkeypatch, 2.0)
    factors = [factor for factor, _, _ in
               (_lil_factor(OU, f, g, spec) for spec in SCHEDULES[schedule])
               if factor is not None]
    got = list(sampling._factor_blocks(factors, k, n_paths, 29))
    want = list(_serial_factor_blocks(factors, k, n_paths, 29))
    assert len(got) == len(want)
    for (g_got, b_got, eta_got), (g_want, b_want, eta_want) in zip(got, want):
        assert (g_got, b_got) == (g_want, b_want)
        assert np.array_equal(eta_got, eta_want)


class _DrawFailed(Exception):
    pass


def _failing_philox(monkeypatch, fail_at):
    """Make the stream's fail_at-th draw raise; returns the error and the
    threads that called philox and standard_normal."""
    real, error, seen = sampling.philox, _DrawFailed("draw failed"), []

    class Stub:
        def __init__(self, seed):
            seen.append(("philox", threading.get_ident()))
            self.rng, self.draws = real(seed), 0

        def standard_normal(self, **kwargs):
            seen.append(("draw", threading.get_ident()))
            self.draws += 1
            if self.draws == fail_at:
                raise error
            return self.rng.standard_normal(**kwargs)

    monkeypatch.setattr(sampling, "philox", Stub)
    return error, seen


THREE_GRIDS = SCHEDULES["three-widths"]


def test_a_failed_draw_raises_its_own_error_and_leaves_no_thread(monkeypatch):
    # three chunks of the widest factor: the third draw fails
    error, seen = _failing_philox(monkeypatch, fail_at=3)
    before = threading.active_count()
    calls = [lambda: sample_chi_square(np.eye(3), 2, 3 * B, 1),
             lambda: lil_harness(OU, None, None, THREE_GRIDS, 2, 3 * B, 1)]
    for call in calls:
        seen.clear()
        with pytest.raises(_DrawFailed) as raised:
            call()
        assert raised.value is error
        assert threading.active_count() == before
        # philox and the first draw on the caller's thread, which tracers
        # patch; the later draws on one other thread, in order, and none
        # after the failed one
        here = threading.get_ident()
        assert seen[:2] == [("philox", here), ("draw", here)]
        drawers = {ident for what, ident in seen[2:]}
        assert len(drawers) == 1 and here not in drawers
        assert [what for what, _ in seen] == ["philox"] + ["draw"] * 3


def test_a_one_chunk_sampler_starts_no_thread(monkeypatch):
    # the first chunk is drawn on the caller's thread, and the helper starts
    # on its first draw
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    sample_chi_square(np.eye(3), 2, B, 1)
    laplace_check(np.eye(3), 2, [1.0, 1.0, 1.0], B, 1)
    lil_harness(OU, None, None, THREE_GRIDS, 2, B, 1)
    assert started == []
    sample_chi_square(np.eye(3), 2, B + 1, 1)
    assert len(started) == 1


def test_samplers_leave_no_thread_behind(monkeypatch):
    before = threading.active_count()
    sample_chi_square(np.eye(3), 2, 3 * B, 1)
    assert threading.active_count() == before
    lil_harness(OU, None, None, THREE_GRIDS, 2, 3 * B, 1)
    assert threading.active_count() == before

    # a generator closed after its first block, with a draw in flight
    blocks = sampling._factor_blocks([np.eye(3)], 2, 3 * B, 1)
    next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before

    # a table that fails mid-way abandons the generator while it draws ahead
    reduce, calls = sampling._reduce, []

    def failing_reduce(eta, psi):
        calls.append(len(eta))
        if len(calls) == 4:
            raise _DrawFailed("reduce failed")
        return reduce(eta, psi)

    monkeypatch.setattr(sampling, "_reduce", failing_reduce)
    with pytest.raises(_DrawFailed, match="reduce failed"):
        lil_harness(OU, None, None, THREE_GRIDS, 2, 3 * B, 1)
    assert threading.active_count() == before


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
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocked_chi_square_equals_the_whole_array_route(k, n_paths):
    pts = [0.2, 0.5, 0.9, 1.4]
    cov = np.exp(-np.abs(np.subtract.outer(pts, pts)))
    assert np.array_equal(sample_chi_square(cov, k, n_paths, 23),
                          _whole_chi_square(cov, k, n_paths, 23))
    dec = decompose(assemble_kernel(OU, F_OU, G_OU,
                                    GridSpec(d=1.0, theta=0.5, n=12, q=0.7)))
    assert np.array_equal(sample_isymi_representation(dec, k, n_paths, 24),
                          _whole_isymi(dec, k, n_paths, 24))


def test_eight_copies_stay_within_ulps_of_numpys_pairwise_sum(monkeypatch):
    # the samplers sum over the copies in copy order; np.sum, the oracles'
    # route, sums 8 or more contiguous terms pairwise: the squares of a 1x1
    # covariance and X(d).  All terms are positive, so the sum bounds the
    # error of either order.
    ulps = 8 * np.finfo(float).eps
    n_paths = B + 3
    got = sample_chi_square([[1.7]], 8, n_paths, 23)
    want = _whole_chi_square([[1.7]], 8, n_paths, 23)
    assert np.all(np.abs(got - want) <= ulps * want)
    assert not np.array_equal(got, want)   # the pairwise order shows
    specs = [GridSpec(d=1.0, theta=0.5, n=12, q=0.7)]
    _, seen = _spied_lil_statistics(monkeypatch, OU, None, None, specs, 8,
                                    n_paths, 17)
    _, (want,) = _whole_lil(OU, None, None, specs, 8, n_paths, seed=17)
    (got,) = seen
    assert np.array_equal(got[:2], want[:2])   # offsets are not contiguous
    assert np.all(np.abs(got[2] - want[2]) <= ulps * want[2])


def _two_way_chain(n):
    """A chain spec on n states, each pair joined at rate 0.1."""
    gen = np.full((n, n), 0.1)
    np.fill_diagonal(gen, -1.0)
    return {"states": list(range(n)), "m": [1.0] * n, "mu": [0.0] * n,
            "generator": gen.tolist()}


@pytest.mark.parametrize("n", [1, 3, 7])
def test_check_ek_functional_is_the_exponential_of_the_row_sums(
        monkeypatch, tmp_path, n):
    # the command folds the columns in place; np.sum over a row of fewer
    # than 8 entries adds them in the same order, so the bits agree
    import json

    from permlab import cli
    from permlab.rebirth import EKReport
    seen = []

    def check(chain, y, F, n_paths, seed):
        seen.append(F)
        return EKReport(1.0, 1.0, 0.0, 0.1, 0.1)

    monkeypatch.setattr(cli, "ek_identity_check", check)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_two_way_chain(n)))
    assert cli.main(["rebirth", "check-ek", "--model", str(model), "--s",
                     "0.7", "--paths", "10", "--seed", "1", "--out",
                     str(tmp_path / "out")]) == 0
    x = np.random.default_rng(n).exponential(size=(B + 3, n))
    before = x.copy()
    assert np.array_equal(seen[0](x), np.exp(-0.7 * np.sum(x, axis=1)))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("m", [12, 52, 104])
def test_blocked_product_equals_the_whole_product(m):
    # BLAS does not promise that a row of a product does not depend on the
    # other rows.  The samplers rely on it for one shape only: a block of
    # _ROWS paths, each of k rows, with a row at a fixed position.  A run's
    # last block, zero-padded, must give the rows that the same paths give
    # inside a full block of a longer run.
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    factor = np.linalg.cholesky(a @ a.T + m * np.eye(m))
    z = rng.standard_normal((2 * R, m))           # a block of k = 2
    whole = z @ factor.T
    for rows in [1, 2, 9, R - 1, R, R + 1, 2 * R - 2, 2 * R - 1]:
        padded = np.zeros_like(z)
        padded[:rows] = z[:rows]
        assert np.array_equal((padded @ factor.T)[:rows], whole[:rows])


@pytest.mark.parametrize("dim, k", [(1, 1), (4, 2), (13, 1), (53, 2), (54, 2)])
def test_fixed_shape_products_stay_within_ulps_of_the_stacked_product(dim, k):
    # the stacked (paths, k, w) @ F.T, numpy's own route, stays the oracle of
    # the fixed-shape blocks: the two differ in the order of summation only
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim))
    factor = np.linalg.cholesky(a @ a.T + dim * np.eye(dim))
    n_paths = int(2.5 * B) + 7
    z = sampling.philox(31).standard_normal((n_paths, k, dim))
    eta = np.full((n_paths, k, dim), np.nan)
    for _, b, block in sampling._factor_blocks([factor], k, n_paths, 31):
        eta[b] = block
    scale = np.abs(z) @ np.abs(factor).T
    assert np.all(np.abs(eta - z @ factor.T) <= 8 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("k", [1, 2])
def test_a_chi_square_run_is_the_prefix_of_a_longer_run(k):
    # products are fixed-shape blocks aligned to path 0, so a row does not
    # depend on how many paths follow it
    pts = [0.2, 0.5, 0.9, 1.4]
    cov = np.exp(-np.abs(np.subtract.outer(pts, pts)))
    dec = decompose(assemble_kernel(OU, F_OU, G_OU,
                                    GridSpec(d=1.0, theta=0.5, n=12, q=0.7)))
    longest = 3 * B + 5
    chi = sample_chi_square(cov, k, longest, 23)
    isymi = sample_isymi_representation(dec, k, longest, 24)
    for n_paths in BLOCK_EDGES:
        assert np.array_equal(sample_chi_square(cov, k, n_paths, 23),
                              chi[:n_paths])
        assert np.array_equal(sample_isymi_representation(dec, k, n_paths, 24),
                              isymi[:n_paths])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bordered", [False, True])
def test_lil_statistics_are_the_prefix_of_a_longer_run(bordered, k):
    # and a chunk of the widest grid cuts a narrower grid's blocks anywhere
    f, g = (F_OU, G_OU) if bordered else (None, None)
    grids = [(factor, psi) for factor, _, psi in
             (_lil_factor(OU, f, g, spec) for spec in THREE_GRIDS)]
    want = sampling._lil_statistics(grids, k, 3 * B + 5, 37)
    for n_paths in BLOCK_EDGES:
        got = sampling._lil_statistics(grids, k, n_paths, 37)
        for stats, longer in zip(got, want, strict=True):
            assert np.array_equal(stats, longer[:, :n_paths])


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


def test_isomorphism_check_peaks_below_one_and_a_half_local_time_arrays():
    # the chi-squares are streamed in blocks beside the local times, and
    # the local times are freed before the right side is drawn; measured
    # 1.40 local-time arrays (the former engine's 1.66)
    from permlab.rebirth import ek_identity_check
    from permlab.verify import _three_state_chain
    n_paths = 1_000_000
    local_times = 8 * n_paths * 3                 # 24 MB
    peak = _traced_peak(lambda: ek_identity_check(
        _three_state_chain(), 1, lambda X: np.exp(-np.sum(X, axis=1)),
        n_paths, 3))
    assert peak < 1.5 * local_times


def test_conditioned_chain_peaks_below_one_and_a_half_local_time_arrays():
    # the engine keeps one int32 index and one small-int state per live
    # path, compacts both in place and draws each round in chunks; measured
    # 1.35 local-time arrays (the former engine's 1.63)
    from permlab.rebirth import _simulate_conditioned
    from permlab.verify import _three_state_chain
    chain = _three_state_chain()
    v = chain.potential()
    n_paths = 1_000_000
    local_times = 8 * n_paths * 3                 # 24 MB
    peak = _traced_peak(lambda: _simulate_conditioned(chain, v, 1, n_paths, 3))
    assert peak < 1.5 * local_times


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


# the tests above compare the samplers with oracles in one process; this
# compares their outputs across processes on one and two BLAS threads
_DIGEST = """
import hashlib
import numpy as np
from permlab import (GridSpec, brownian_unit_base, lil_harness,
                     sample_chi_square)
pts = np.linspace(0.1, 2.0, 53)
cov = np.exp(-np.abs(np.subtract.outer(pts, pts)))
h = hashlib.sha256(sample_chi_square(cov, 2, 5000, 3).tobytes())
specs = [GridSpec(d=1.0, theta=0.5, n=n, q=0.7) for n in (16, 12, 20)]
rows = lil_harness(brownian_unit_base(), None, None, specs, 2, 5000, 3)
h.update(repr(rows).encode())
print(h.hexdigest())
"""


def _digest_on_blas_threads(n: int) -> str:
    src = os.path.dirname(os.path.dirname(permlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n),
               PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", _DIGEST], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.strip()


def test_sampler_outputs_equal_on_one_and_two_blas_threads():
    one = _digest_on_blas_threads(1)
    assert len(one) == 64
    assert _digest_on_blas_threads(2) == one
