import numpy as np
import pytest
from scipy.stats import ks_2samp

from permlab import (ConstantExcessive, GridSpec, assemble_kernel,
                     brownian_min_kernel, brownian_unit_base, decompose,
                     laplace_check, lil_harness, make_flat_pair,
                     sample_chi_square, sample_isymi_representation,
                     sampling, sandwich_check, trend_is_nondecreasing)

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


def test_lil_rejects_a_singular_increment_correlation(monkeypatch):
    # two equal rows: the correlation is not positive definite, and no shift
    # may make it so
    def equal_rows(base, d, offsets, direction):
        return 1.0, np.zeros(len(offsets)), np.ones((len(offsets), len(offsets)))

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
