"""Half-line cosine-transform quadrature for slowly decaying weights.

The integrals here look like int_0^inf cos(lam*x) w(lam) dlam with w positive,
decreasing and w(lam) <= c_tail^-1 * lam^-gamma beyond lam = 1 for some
gamma > 1.  The half line is split at the first cosine zero z0 past
max(1, _SPLIT_SCALE/|x|): the head [0, z0] is handled by adaptive quadrature,
the rest period by period over consecutive cosine zeros, _BATCH half periods
of _GL_ORDER Gauss-Legendre nodes at a time.  Those contributions strictly
alternate in sign with decreasing magnitude, so iterated averaging of the
partial sums (Euler acceleration) converges far faster than the raw series,
which matters when gamma is close to 1.

The non-oscillating tail int_{lam0}^inf w is integrated on [1, inf) in units
of lam0, so that scipy's map of [1, inf) onto (0, 1] sees its mass however
far out lam0 lies.

Truncation never happens silently: period sums stopped at max_half_periods
add the analytic tail bound of the power minorant to the reported error, and
evaluation fails loudly when the achieved bound exceeds the budget.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "cosine_halfline",
    "one_minus_cos_halfline",
    "smooth_tail",
]

_SPLIT_SCALE = 10.0   # head/tail split at max(1, _SPLIT_SCALE/|x|)
_GL_ORDER = 16        # nodes per half period
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_BATCH = 32           # half periods generated per acceleration pass
_QUAD_LIMIT = 400     # subintervals of each adaptive quad call


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_half_periods: int = 4096

    def budget(self, scale: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(scale))


class QuadratureError(RuntimeError):
    """Raised when the achieved error bound exceeds the tolerance budget."""

    def __init__(self, message: str, value: float, err_bound: float):
        super().__init__(f"{message} (value~{value:.6g}, bound {err_bound:.3g})")
        self.value = value
        self.err_bound = err_bound


def _averaged_alternating(partials: np.ndarray) -> tuple[float, float]:
    """Iterated mean of alternating-series partial sums plus an error estimate.

    The error estimate is the change between the last two averaging levels,
    which tracks the true error well for smoothly decaying terms.  partials
    needs at least two entries.
    """
    prev, cur = partials, partials
    while cur.size > 1:
        prev, cur = cur, 0.5 * (cur[:-1] + cur[1:])
    value = float(cur[-1])
    return value, abs(value - float(prev[-1]))


def _period_sums(weight, ax: float, z0: float, cfg: QuadratureConfig,
                 tol: float, c_tail: float,
                 gamma: float) -> tuple[float, float, float]:
    """sum of int_{z_i}^{z_{i+1}} cos(ax*lam) w(lam) dlam over cosine zeros z_i.

    Returns the accelerated sum, its error estimate and the analytic bound on
    the part beyond the last half period, which is 0.0 unless the sums stopped
    at max_half_periods without converging.
    """
    half = np.pi / ax
    terms = np.empty(0)
    while terms.size < cfg.max_half_periods:
        left = z0 + np.arange(terms.size, terms.size + _BATCH) * half
        mid = left + 0.5 * half
        lam = mid[:, None] + 0.5 * half * _GL_NODES[None, :]
        vals = np.cos(lam * ax) * weight(lam)
        terms = np.concatenate((terms, 0.5 * half * vals @ _GL_WEIGHTS))
        # accumulate adds in sequence, the order of a running total
        value, err = _averaged_alternating(np.add.accumulate(terms)[-64:])
        last = abs(terms[-1])
        if err + min(last, err) < tol or last < tol * 1e-3:
            return value, err + last * 2.0 ** (-min(terms.size, 50)), 0.0
    # int_{z_end}^inf dt / (c_tail * t^gamma), z_end >= z0 >= 1
    z_end = z0 + cfg.max_half_periods * np.pi / ax
    tail = z_end ** (1.0 - gamma) / (c_tail * (gamma - 1.0))
    return value, err + abs(terms[-1]), tail


def _split_head(integrand, ax: float, cfg: QuadratureConfig):
    """The split point z0 for frequency ax and the head int_0^z0 integrand."""
    lam_star = max(1.0, _SPLIT_SCALE / ax)
    k0 = int(np.ceil(lam_star * ax / np.pi - 0.5))
    z0 = (k0 + 0.5) * np.pi / ax
    pts = [p for p in (1.0, 10.0, 100.0, 1e4) if p < z0]
    head, head_err = quad(integrand, 0.0, z0, epsabs=cfg.abs_tol / 4,
                          epsrel=cfg.rel_tol / 4, limit=_QUAD_LIMIT,
                          points=pts or None)
    return z0, head, head_err


def cosine_halfline(weight, x: float, cfg: QuadratureConfig,
                    c_tail: float, gamma: float) -> tuple[float, float]:
    """int_0^inf cos(x*lam) w(lam) dlam with a certified error bound."""
    if x == 0.0:
        return smooth_tail(weight, 0.0, cfg)
    ax = abs(x)

    def integrand(lam):
        return float(np.cos(lam * ax) * weight(np.asarray(lam)))

    z0, head, head_err = _split_head(integrand, ax, cfg)
    series, series_err, tail = _period_sums(weight, ax, z0, cfg,
                                            cfg.budget(head) / 2, c_tail, gamma)
    err = head_err + series_err + tail
    value = head + series
    if err > cfg.budget(value):
        raise QuadratureError("cosine transform did not converge", value, err)
    return value, err


def smooth_tail(weight, lam0: float, cfg: QuadratureConfig) -> tuple[float, float]:
    """int_{lam0}^inf w(lam) dlam for monotone w with a power tail.

    Integrated as lam0 * int_1^inf w(lam0 * s) ds.
    """

    def integrand(lam):
        return float(weight(np.asarray(lam)))

    if lam0 == 0.0:
        head, head_err = quad(integrand, 0.0, 1.0, epsabs=cfg.abs_tol / 4,
                              epsrel=cfg.rel_tol / 4, limit=_QUAD_LIMIT)
        lam0 = 1.0
    else:
        head, head_err = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda s: integrand(lam0 * s), 1.0, np.inf,
                        epsabs=cfg.abs_tol / 4 / lam0, epsrel=cfg.rel_tol / 4,
                        limit=_QUAD_LIMIT)
    total = head + lam0 * val
    total_err = head_err + lam0 * err
    if total_err > 4 * cfg.budget(total):
        raise QuadratureError("monotone tail did not converge", total, total_err)
    return total, total_err


def one_minus_cos_halfline(weight, x: float, cfg: QuadratureConfig,
                           c_tail: float, gamma: float,
                           weight_at_zero: float = 0.0) -> tuple[float, float]:
    """int_0^inf (1 - cos(x*lam)) w(lam) dlam.

    weight_at_zero supplies the finite limit of (1-cos(lam*x))*w(lam) at
    lam = 0 when w itself blows up there (the unkilled case).
    """
    if x == 0.0:
        return 0.0, 0.0
    ax = abs(x)

    def integrand(lam):
        if lam == 0.0:
            return weight_at_zero
        return float((1.0 - np.cos(lam * ax)) * weight(np.asarray(lam)))

    z0, head, head_err = _split_head(integrand, ax, cfg)
    flat, flat_err = smooth_tail(weight, z0, cfg)
    scale = abs(head) + abs(flat)
    series, series_err, tail = _period_sums(weight, ax, z0, cfg,
                                            cfg.budget(scale) / 2, c_tail, gamma)
    err = head_err + flat_err + series_err + tail
    value = head + flat - series
    if err > 4 * cfg.budget(max(abs(value), scale)):
        raise QuadratureError("increment-variance transform did not converge",
                              value, err)
    return value, err
