"""Chi-square sampling, determinant Laplace checks, the symmetrized-kernel
representation, and the iterated-logarithm Monte Carlo harness.

Randomness comes from a counter-based Philox generator keyed by the run seed;
all draws happen in fixed path-major order, so results are bit-identical for
a given (config, seed) regardless of how the caller schedules work.

The harness samples Gaussian vectors in (value at d, increments) form.  The
increment covariance is assembled from increment variances rather than by
subtracting kernel values, because on deep geometric grids the kernel entries
agree to fifteen digits and the difference would be pure cancellation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .bases import mirror_upper
from .kernel_algebra import Decomposition, GridSpec, assemble_kernel, decompose

__all__ = [
    "philox",
    "sample_chi_square",
    "laplace_check",
    "sample_isymi_representation",
    "sandwich_check",
    "SandwichReport",
    "lil_harness",
    "LILRow",
    "trend_is_nondecreasing",
]

def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
        raise ValueError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        trace = float(np.trace(cov))
        if float(np.min(vals)) < -1e-10 * max(trace, 1.0):
            raise ValueError(
                f"covariance indefinite: eigenvalue {np.min(vals):.3e}")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _check_counts(k: int, n_paths: int):
    if k < 1 or n_paths < 1:
        raise ValueError(f"k and n_paths must be at least 1, got {k}, {n_paths}")


def _gaussian_copies(cov, k: int, n_paths: int, rng) -> np.ndarray:
    """(n_paths, k, dim) independent centered Gaussians with covariance cov."""
    _check_counts(k, n_paths)
    factor = _psd_factor(cov)
    return rng.standard_normal((n_paths, k, factor.shape[0])) @ factor.T


def sample_chi_square(cov, k: int, n_paths: int, seed: int) -> np.ndarray:
    """(n_paths, dim) samples of sum of k squared centered Gaussians over 2."""
    eta = _gaussian_copies(cov, k, n_paths, philox(seed))
    return 0.5 * np.sum(eta * eta, axis=1)


def laplace_check(cov, k: int, s_vec, n_paths: int, seed: int):
    """Empirical Laplace transform against det(I + cov S)^(-k/2).

    Returns (empirical, analytic, z_score) with the z-score in sample
    standard errors of the Monte Carlo mean.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths for the standard error, "
                         f"got {n_paths}")
    s = np.asarray(s_vec, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("Laplace arguments must be nonnegative")
    x = sample_chi_square(cov, k, n_paths, seed)
    vals = np.exp(-x @ s)
    emp = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / sqrt(n_paths))
    analytic = float(np.linalg.det(np.eye(len(s)) + np.asarray(cov) * s[None, :])
                     ** (-k / 2.0))
    z = 0.0 if se == 0.0 else (emp - analytic) / se
    return emp, analytic, z


def sample_isymi_representation(dec: Decomposition, k: int, n_paths: int,
                                seed: int) -> np.ndarray:
    """Chi-square samples of the symmetrized comparison process.

    Each Gaussian copy is eta(t'_j) + a_j * xi with eta drawn from the grid
    Gram matrix and xi an independent standard normal, so its Gram matrix is
    G + a a^T, the lower block of dec.K_isymi by construction.
    """
    rng = philox(seed)
    eta = _gaussian_copies(dec.kernel.G, k, n_paths, rng)
    eta = eta + rng.standard_normal((n_paths, k, 1)) * dec.a[None, None, :]
    return 0.5 * np.sum(eta * eta, axis=1)


@dataclass
class SandwichReport:
    nu: float
    symmetric_probability: float
    lower: float
    upper: float
    width: float


def sandwich_check(dec: Decomposition, k: int, event, n_paths: int,
                   seed: int) -> SandwichReport:
    """Probability interval for an event under the non-symmetric law.

    The symmetric surrogate is sampled, and the comparison inequality brackets
    the non-symmetric probability inside
    [nu^(-k/2) P, 1 - nu^(-k/2) + nu^(-k/2) P].  The width 1 - nu^(-k/2) is
    at most (k/2)(nu - 1).
    """
    x = sample_isymi_representation(dec, k, n_paths, seed)
    p_sym = float(np.mean(event(x)))
    damp = dec.nu ** (-k / 2.0)
    lower = damp * p_sym
    upper = 1.0 - damp + damp * p_sym
    width = 1.0 - damp
    if width > (k / 2.0) * (dec.nu - 1.0) + 1e-12:
        raise AssertionError("sandwich width exceeded its first-order bound")
    return SandwichReport(dec.nu, p_sym, lower, upper, width)


# -- iterated-logarithm harness ----------------------------------------


def _increment_structure(base, d: float, offsets: np.ndarray, direction: int):
    """(G00, cross, C): variance at d, E[eta_d (eta_j - eta_d)], increment Gram.

    Built from increment variances so that nothing cancels at tiny offsets.
    """
    pts = d + direction * offsets
    sig2_0 = base.sigma2([d], pts)[0]
    C = 0.5 * (sig2_0[:, None] + sig2_0[None, :]
               - mirror_upper(base.sigma2(pts, pts)))
    np.fill_diagonal(C, sig2_0)
    G00 = base.kernel(d, d)
    cross = -0.5 * sig2_0
    return G00, cross, C


@dataclass
class LILRow:
    n: int
    m: int
    epsilon: float
    freq_lower: float
    freq_upper: float
    nu: float
    paths: int
    degenerate: bool = False


def lil_harness(base, f, g, grid_specs, k: int, n_paths: int, seed: int,
                eps_list=(0.1, 0.2, 0.3)) -> list[LILRow]:
    """Per-grid exceedance frequencies of the normalized running maximum.

    For each grid the statistic is max_j (X(t'_j) - X(d)) / psi(t_j) with
    psi(t) = sqrt(2 sigma^2(d+t, d) log log 1/t); the lower frequency counts
    paths where it clears (1 - eps) sqrt(2 X(d)), the upper frequency counts
    paths whose two-sided maximum stays below (1 + eps) sqrt(2 X(d)).
    When f and g are given the symmetrized comparison process is sampled and
    its determinant ratio is reported alongside.  The conditional correlation
    of the increments is factored by plain Cholesky, with no shift: one that
    is not positive definite raises numpy's LinAlgError, a ValueError.
    """
    _check_counts(k, n_paths)
    rows: list[LILRow] = []
    for spec in grid_specs:
        if not isinstance(spec, GridSpec):
            raise TypeError("grid_specs must contain GridSpec values")
        offsets = spec.offsets()
        d = spec.d
        G00, cross, C = _increment_structure(base, d, offsets, spec.direction)
        if np.min(np.diag(C)) <= 0.0:
            rows.extend(LILRow(spec.n, spec.m, eps, np.nan, np.nan, np.nan,
                               n_paths, degenerate=True) for eps in eps_list)
            continue

        a_extra = 0.0
        nu = 1.0
        if f is not None or g is not None:
            dec = decompose(assemble_kernel(base, f, g, spec))
            nu = dec.nu
            a_extra = dec.a      # full vector, index 0 is the point d

        # conditional decomposition: eta_d, then increments given eta_d
        cond = C - np.outer(cross, cross) / G00
        dd = np.sqrt(np.diag(cond))
        corr = cond / np.outer(dd, dd)
        factor = np.linalg.cholesky(corr)
        rng = philox(seed)
        m = len(offsets)
        eta_d = sqrt(G00) * rng.standard_normal((n_paths, k))
        z = rng.standard_normal((n_paths, k, m))
        delta = (z @ factor.T) * dd[None, None, :] \
            + (cross / G00)[None, None, :] * eta_d[:, :, None]
        if f is not None or g is not None:
            xi = rng.standard_normal((n_paths, k, 1))
            eta_d = eta_d + xi[:, :, 0] * a_extra[0]
            delta = delta + xi * (a_extra[1:] - a_extra[0])[None, None, :]
        dX = np.sum(eta_d[:, :, None] * delta + 0.5 * delta * delta, axis=1)
        x_d = 0.5 * np.sum(eta_d * eta_d, axis=1)

        loglog = np.log(np.log(1.0 / offsets))
        psi = np.sqrt(2.0 * np.diag(C) * loglog)
        stat = np.max(dX / psi[None, :], axis=1)
        stat_abs = np.max(np.abs(dX) / psi[None, :], axis=1)
        target = np.sqrt(2.0 * x_d)
        for eps in eps_list:
            rows.append(LILRow(
                n=spec.n, m=spec.m, epsilon=eps,
                freq_lower=float(np.mean(stat >= (1.0 - eps) * target)),
                freq_upper=float(np.mean(stat_abs <= (1.0 + eps) * target)),
                nu=nu, paths=n_paths))
    return rows


def trend_is_nondecreasing(freqs, n_paths: int) -> bool:
    """One-sided trend check: each step may drop at most 2 binomial errors."""
    freqs = list(freqs)
    for a, b in zip(freqs[:-1], freqs[1:]):
        se = sqrt(max(a * (1 - a), b * (1 - b), 1e-12) / n_paths)
        if b < a - 2.0 * sqrt(2.0) * se:
            return False
    return True
