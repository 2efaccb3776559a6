"""Chi-square sampling, determinant Laplace checks, the symmetrized-kernel
representation, and the iterated-logarithm Monte Carlo harness.

Randomness comes from a counter-based Philox generator keyed by the run seed;
all draws happen in fixed path-major order, so results are bit-identical for
a given (config, seed) regardless of how the caller schedules work.  The
first chunk of the stream is drawn on the caller's thread; each later one is
drawn one chunk ahead by a single helper thread, in chunk order, while the
caller's thread computes factor z on the chunk before.  That moves work, not
draws.

Every sampler has one stream layout: each path draws all of its normals
together, path after path, as k rows of width w, where w is the width of
the sampler's factor.  One engine, _factor_blocks, draws the stream and
computes factor z for every sampler, the chi-square ones (one factor) and
the harness (one factor per grid of a table).  Every factor reads the
stream from its start, so a narrower factor's normals are a prefix of the
widest one's; the stream is drawn once, in chunks of _BLOCK paths of the
widest factor, and no temporary spans every path.  Each factor multiplies
its paths in blocks of exactly _ROWS paths, aligned to its own path 0: one
2-D product of _ROWS * k rows per block, the last block zero-padded to that
size.  A row of a product of one fixed shape, at a fixed position, does not
depend on the other rows, so outputs depend only on (config, seed) and
_ROWS: not on n_paths, nor on where a chunk ends.

The harness samples Gaussian vectors in (value at d, increments) form.  The
increment covariance is assembled from increment variances rather than by
subtracting kernel values, because on deep geometric grids the kernel entries
agree to fifteen digits and the difference would be pure cancellation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from numbers import Integral

import numpy as np

from .bases import mirror_upper
from .kernel_algebra import (Decomposition, GridSpec, assemble_kernel,
                             decompose, grid_points)

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

_BLOCK = 4096            # paths of the widest factor per drawn chunk
_ROWS = 1024             # paths per product, aligned to each factor's path 0
_EPS_LIST = (0.1, 0.2, 0.3)   # the lil harness's eps, one row each per grid
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
    if not cov.size:
        raise ValueError("covariance must have at least one row")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
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
    for name, count in (("k", k), ("n_paths", n_paths)):
        if not isinstance(count, Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if k < 1 or n_paths < 1:
        raise ValueError(f"k and n_paths must be at least 1, got {k}, {n_paths}")


def _factor_blocks(factors, k: int, n_paths: int, seed: int):
    """(g, paths, z @ F_g.T) for each factor F_g of factors, in blocks of
    _ROWS paths aligned to the factor's path 0, the last block perhaps
    shorter; see the module docstring.

    Path i of factor g uses normals i*k*w_g .. (i+1)*k*w_g - 1 of the
    stream, for w_g the width of F_g.  Chunks of _BLOCK paths of the widest
    factor are drawn into two buffers in turn: the first on this thread,
    each later one by one helper thread while this one computes the products
    of the chunk before.  Each factor takes its part of a chunk behind its
    tail, the normals before the chunk that fall short of a whole block.
    Every product is one GEMM of _ROWS * k rows; a factor's last block is
    copied into zeros to that size, and only its real rows are yielded.
    The helper starts on the first submit, so a one-chunk call starts no
    thread, and lives for one call: finishing, raising or closing the
    generator waits for the draw in flight and ends the thread.
    """
    if not factors:
        return
    from concurrent.futures import ThreadPoolExecutor

    widths = [k * factor.shape[1] for factor in factors]
    widest = max(widths)
    chunk, total, head = _BLOCK * widest, n_paths * widest, _ROWS * widest
    # a chunk goes behind head normals, which hold any tail; the helper
    # draws only into spare, whose chunk is fully consumed
    buf, spare = np.empty(head + chunk), np.empty(head + chunk)
    rng = philox(seed)
    rng.standard_normal(out=buf[head:head + min(chunk, total)])
    tails = [buf[:0] for _ in factors]
    with ThreadPoolExecutor(max_workers=1) as helper:
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            if stop < total:
                drawn = helper.submit(
                    rng.standard_normal,
                    out=spare[head:head + min(chunk, total - stop)])
            for g, (factor, w) in enumerate(zip(factors, widths)):
                end = min(stop, n_paths * w)
                if end <= start:
                    continue
                held = len(tails[g])
                buf[head - held:head] = tails[g]
                z = buf[head - held:head + end - start]
                first, paths = (start - held) // w, len(z) // w
                if end < n_paths * w:
                    paths -= paths % _ROWS     # whole blocks until the last
                tails[g] = z[paths * w:].copy()
                for i in range(0, paths, _ROWS):
                    rows = min(_ROWS, paths - i)
                    block = z[i * w:(i + rows) * w]
                    if rows < _ROWS:
                        block = np.zeros(_ROWS * w)
                        block[:rows * w] = z[i * w:(i + rows) * w]
                    eta = block.reshape(_ROWS * k, -1) @ factor.T
                    yield (g, slice(first + i, first + i + rows),
                           eta.reshape(_ROWS, k, -1)[:rows])
            if stop < total:
                drawn.result()
            buf, spare = spare, buf


def _chi_square_blocks(factor: np.ndarray, k: int, n_paths: int, seed: int):
    """(paths, rows) for each block of _factor_blocks: the block's samples
    of half the sum of k squares of factor z, one row per path.

    The squares are summed in copy order, ((z_0^2 + z_1^2) + z_2^2) + ...,
    by elementwise passes, then halved.  That is numpy's own order of
    np.sum over the copies below 8 of them; from 8 copies on a 1x1
    covariance numpy sums pairwise, and the bits may differ from that in
    the last place.
    """
    for _, b, eta in _factor_blocks([factor], k, n_paths, seed):
        rows = np.square(eta[:, 0])
        for c in range(1, k):
            rows += np.square(eta[:, c])
        rows *= 0.5
        yield b, rows


def _chi_square(factor: np.ndarray, k: int, n_paths: int,
                seed: int) -> np.ndarray:
    """(n_paths, rows) samples of _chi_square_blocks, collected."""
    x = np.empty((n_paths, factor.shape[0]))
    for b, rows in _chi_square_blocks(factor, k, n_paths, seed):
        x[b] = rows
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
    if s.shape != np.shape(cov)[-1:]:
        raise ValueError(f"need one Laplace argument per dimension of the "
                         f"covariance, shape {np.shape(cov)}, got shape "
                         f"{s.shape}")
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

    Built from increment variances, so that nothing cancels at tiny offsets
    for the bases whose sigma2 is a closed form of the offset: exp_decay
    (expm1), scale (|s(x) - s(y)|) and the translation-invariant Levy base
    (1 - cos).  The others, pq and vpq among them, take _GridKernel.sigma2
    = k(x, x) + k(y, y) - 2 k(x, y), which does cancel: on pq with
    p = e^(1.2x), q = e^(-1.2x) at d = 1 its relative error is 2.3e-10 at
    offset 1e-6 and 8.3e-8 at 1e-10.
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


def _reduce(eta, psi):
    """(stat, stat_abs, X(d)) of a block of factor z; see lil_harness.

    Each row of eta is (eta_d, increments) at one copy.  Both sums over the
    copies, of the increment terms and of eta_d^2, run in copy order,
    ((c_0 + c_1) + c_2) + ..., by elementwise passes: numpy's own order of
    np.sum over the copies below 8 of them (from 8 on, numpy sums a
    contiguous axis pairwise, X(d) and a one-offset grid, and the bits may
    differ from that in the last place).  The max and min over the offsets
    run down the columns of a contiguous (m, paths) copy of the ratios,
    elementwise passes too; they are exact in any order.
    """
    r = x_d = None
    for copy in eta.transpose(1, 0, 2):     # (paths, 1 + m) per copy
        eta_d, delta = copy[:, :1], copy[:, 1:]
        # X(d + t_j) - X(d) = sum over copies of delta (eta_d + delta / 2),
        # a form that does not cancel at small delta
        term = 0.5 * delta
        term += eta_d
        term *= delta
        square = np.square(copy[:, 0])
        if r is None:
            r, x_d = term, square
        else:
            r += term
            x_d += square
    r /= psi
    r = r.T.copy()
    stat = np.max(r, axis=0)
    # max |dX| / psi, exactly: psi > 0, so |dX| / psi = |r|
    stat_abs = np.maximum(stat, -np.min(r, axis=0))
    x_d *= 0.5
    return stat, stat_abs, x_d


def _lil_statistics(grids, k: int, n_paths: int, seed: int):
    """(stat, stat_abs, X(d)) over the paths of each grid, from one stream;
    grids holds each grid's (factor, psi)."""
    outs = [np.empty((3, n_paths)) for _ in grids]
    for g, b, eta in _factor_blocks([factor for factor, _ in grids], k,
                                    n_paths, seed):
        outs[g][:, b] = _reduce(eta, grids[g][1])
    return outs


def lil_harness(base, f, g, grid_specs, k: int, n_paths: int,
                seed: int) -> list[LILRow]:
    """Per-grid exceedance frequencies of the normalized running maximum.

    For each grid the statistic is max_j (X(t'_j) - X(d)) / psi(t_j) with
    psi(t) = sqrt(2 sigma^2(d+t, d) log log 1/t); the lower frequency counts
    paths where it clears (1 - eps) sqrt(2 X(d)), the upper frequency counts
    paths whose two-sided maximum stays below (1 + eps) sqrt(2 X(d)).
    Each grid gives one row per eps in _EPS_LIST = (0.1, 0.2, 0.3), in order.
    When f and g are given the symmetrized comparison process is sampled and
    its determinant ratio is reported alongside; one of them alone is a
    ValueError, as is a grid point outside the base's domain (GridError).
    The joint covariance of the value at d and the increments is factored
    by plain Cholesky, with no shift: one that is not positive definite
    raises numpy's LinAlgError, a ValueError.

    Each grid reads the stream from its start; the stream is drawn once.
    Each path draws k rows of 1 + m normals, one for the value at d and one
    per increment, each row followed by xi when f and g are given; the rows
    are the factor [L, c] applied to them, with L the Cholesky factor and
    c = (a_0, a_1 - a_0, ..., a_m - a_0) the comparison process's vector in
    increment coordinates.
    """
    _check_counts(k, n_paths)
    if (f is None) != (g is None):
        raise ValueError("lil needs both border functions f and g, or neither")
    grids = []        # (spec, factor, psi, nu), factor None if degenerate
    for spec in grid_specs:
        if not isinstance(spec, GridSpec):
            raise TypeError("grid_specs must contain GridSpec values")
        grid_points(base, spec)
        offsets = spec.offsets()
        cov = _increment_structure(base, spec.d, offsets, spec.direction)
        var = np.diag(cov)[1:]
        if np.min(var) <= 0.0:
            grids.append((spec, None, None, np.nan))
            continue

        nu, factor = 1.0, np.linalg.cholesky(cov)
        if f is not None:
            dec = decompose(assemble_kernel(base, f, g, spec))
            a = dec.a      # index 0 of a is the point d
            nu, factor = dec.nu, np.column_stack((factor,
                                                  np.r_[a[0], a[1:] - a[0]]))
        psi = np.sqrt(2.0 * var * np.log(np.log(1.0 / offsets)))
        grids.append((spec, factor, psi, nu))

    stats = iter(_lil_statistics([(factor, psi) for _, factor, psi, _ in grids
                                  if factor is not None], k, n_paths, seed))
    rows: list[LILRow] = []
    for spec, factor, _, nu in grids:
        if factor is None:
            rows.extend(LILRow(spec.n, spec.m, eps, np.nan, np.nan, np.nan,
                               n_paths, degenerate=True) for eps in _EPS_LIST)
            continue
        stat, stat_abs, x_d = next(stats)
        target = np.sqrt(2.0 * x_d)
        for eps in _EPS_LIST:
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
