"""Chi-square sampling, determinant Laplace checks, the symmetrized-kernel
representation, and the iterated-logarithm Monte Carlo harness.

Randomness comes from a counter-based Philox generator keyed by the run seed;
all draws happen in fixed path-major order, so results are bit-identical for
a given (config, seed) regardless of how the caller schedules work.

Every sampler has one stream layout: each path draws all of its normals
together, path after path, as k rows of width w, where w is the width of
the sampler's factor.  Consecutive standard-normal draws equal one draw of
their concatenation, so one block loop works through the paths in blocks of
_BLOCK, draws a block's normals when the block is reached, and yields the
block's factor z; the result is the same for any block size, and no
temporary spans every path.

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

_BLOCK = 4096            # paths per block of the samplers
# _psd_factor's eigenvalue fallback sets eigenvalues down to
# -_EIG_CLIP_TOL * max(trace, 1) to zero; one below that is indefinite
_EIG_CLIP_TOL = 1e-10


def philox(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in 0..2**64 - 1, got {seed}")
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
        if float(np.min(vals)) < -_EIG_CLIP_TOL * max(trace, 1.0):
            raise ValueError(
                f"covariance indefinite: eigenvalue {np.min(vals):.3e}")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _check_counts(k: int, n_paths: int):
    if k < 1 or n_paths < 1:
        raise ValueError(f"k and n_paths must be at least 1, got {k}, {n_paths}")


def _blocks(n_paths: int):
    """Slices of at most _BLOCK consecutive paths covering 0..n_paths."""
    return [slice(i, min(i + _BLOCK, n_paths))
            for i in range(0, n_paths, _BLOCK)]


def _gaussian_blocks(factor: np.ndarray, k: int, n_paths: int, seed: int):
    """(paths, factor z) for each block of paths: z is standard normal of
    shape (block, k, width), and path i uses normals i*k*width ..
    (i+1)*k*width - 1 of the stream."""
    rng = philox(seed)
    for b in _blocks(n_paths):
        z = rng.standard_normal((b.stop - b.start, k, factor.shape[1]))
        yield b, z @ factor.T


def _chi_square(factor: np.ndarray, k: int, n_paths: int,
                seed: int) -> np.ndarray:
    """(n_paths, rows) samples of half the sum of k squares of factor z."""
    x = np.empty((n_paths, factor.shape[0]))
    for b, eta in _gaussian_blocks(factor, k, n_paths, seed):
        x[b] = 0.5 * np.sum(eta * eta, axis=1)
    return x


def sample_chi_square(cov, k: int, n_paths: int, seed: int) -> np.ndarray:
    """(n_paths, dim) samples of sum of k squared centered Gaussians over 2."""
    _check_counts(k, n_paths)
    return _chi_square(_psd_factor(cov), k, n_paths, seed)


def laplace_check(cov, k: int, s_vec, n_paths: int, seed: int):
    """Empirical Laplace transform against det(I + cov S)^(-k/2).

    Returns (empirical, analytic, z_score) with the z-score in sample
    standard errors of the Monte Carlo mean.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths for the standard error, "
                         f"got {n_paths}")
    s = np.asarray(s_vec, dtype=float)
    if not np.all(np.isfinite(s) & (s >= 0.0)):
        raise ValueError("Laplace arguments must be finite and nonnegative")
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
    Gram matrix G = F F^T and xi an independent standard normal.  That is
    [F, a] applied to dim + 1 standard normals, and [F, a][F, a]^T =
    G + a a^T, the lower block of dec.K_isymi.  So this is a chi-square
    sample with the factor [F, a]: each path draws k rows of dim + 1
    normals, xi last in each row.
    """
    _check_counts(k, n_paths)
    factor = np.column_stack((_psd_factor(dec.kernel.G), dec.a))
    return _chi_square(factor, k, n_paths, seed)


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
    """Joint covariance of (eta_d, eta_j - eta_d for each offset).

    Built from increment variances so that nothing cancels at tiny offsets;
    Cov(eta_d, eta_j - eta_d) = (u(p_j, p_j) - u(d, d) - sigma2(d, p_j)) / 2.
    """
    pts = d + direction * offsets
    u_dd = base.kernel(d, d)
    sig2_0 = base.sigma2([d], pts)[0]
    C = 0.5 * (sig2_0[:, None] + sig2_0[None, :]
               - mirror_upper(base.sigma2(pts, pts)))
    np.fill_diagonal(C, sig2_0)
    cross = 0.5 * ((base.kernel(pts, pts) - u_dd) - sig2_0)[:, None]
    return np.block([[u_dd, cross.T], [cross, C]])


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


def _grid_statistics(factor, psi, k: int, n_paths: int, seed: int):
    """(stat, stat_abs, X(d)) over the paths of one grid; see lil_harness.

    Each row of factor z is (eta_d, increments) at one copy.
    """
    out = np.empty((3, n_paths))
    for b, eta in _gaussian_blocks(factor, k, n_paths, seed):
        eta_d, delta = eta[:, :, 0], eta[:, :, 1:]
        # X(d + t_j) - X(d) in a form that does not cancel at small delta
        dX = np.sum(delta * (eta_d[:, :, None] + 0.5 * delta), axis=1)
        out[:, b] = (np.max(dX / psi, axis=1), np.max(np.abs(dX) / psi, axis=1),
                     0.5 * np.sum(eta_d * eta_d, axis=1))
    return out


def lil_harness(base, f, g, grid_specs, k: int, n_paths: int, seed: int,
                eps_list=(0.1, 0.2, 0.3)) -> list[LILRow]:
    """Per-grid exceedance frequencies of the normalized running maximum.

    For each grid the statistic is max_j (X(t'_j) - X(d)) / psi(t_j) with
    psi(t) = sqrt(2 sigma^2(d+t, d) log log 1/t); the lower frequency counts
    paths where it clears (1 - eps) sqrt(2 X(d)), the upper frequency counts
    paths whose two-sided maximum stays below (1 + eps) sqrt(2 X(d)).
    When f and g are given the symmetrized comparison process is sampled and
    its determinant ratio is reported alongside; one of them alone is a
    ValueError.  The joint covariance of the value at d and the increments
    is factored by plain Cholesky, with no shift: one that is not positive
    definite raises numpy's LinAlgError, a ValueError.

    Each grid restarts the stream at seed.  Each path draws k rows of 1 + m
    normals, one for the value at d and one per increment, each row followed
    by xi when f and g are given; the rows are the factor [L, c] applied to
    them, with L the Cholesky factor and c = (a_0, a_1 - a_0, ..., a_m - a_0)
    the comparison process's vector in increment coordinates.
    """
    _check_counts(k, n_paths)
    if (f is None) != (g is None):
        raise ValueError("lil needs both border functions f and g, or neither")
    rows: list[LILRow] = []
    for spec in grid_specs:
        if not isinstance(spec, GridSpec):
            raise TypeError("grid_specs must contain GridSpec values")
        offsets = spec.offsets()
        cov = _increment_structure(base, spec.d, offsets, spec.direction)
        var = np.diag(cov)[1:]
        if np.min(var) <= 0.0:
            rows.extend(LILRow(spec.n, spec.m, eps, np.nan, np.nan, np.nan,
                               n_paths, degenerate=True) for eps in eps_list)
            continue

        nu, factor = 1.0, np.linalg.cholesky(cov)
        if f is not None:
            dec = decompose(assemble_kernel(base, f, g, spec))
            a = dec.a      # index 0 of a is the point d
            nu, factor = dec.nu, np.column_stack((factor,
                                                  np.r_[a[0], a[1:] - a[0]]))

        psi = np.sqrt(2.0 * var * np.log(np.log(1.0 / offsets)))
        stat, stat_abs, x_d = _grid_statistics(factor, psi, k, n_paths, seed)
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
