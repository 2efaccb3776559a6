"""The quadrature against its former routes and against closed forms.

The reference functions below are the module as it was before the tail
integral was scaled by lam0 and the split and series code were shared: two
copies of the head split, a per-term loop over the period sums, and a tail
that falls back to geometric segments when scipy reports a large error.
Settings that are now module constants are written in as the values every
caller used.  cosine_halfline, and so every u, must equal the reference bit
for bit, bounds and failures included; one_minus_cos_halfline must agree
within the sum of both bounds where the reference's tail was right.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from permlab import (CharExponent, LevyPotential, QuadratureConfig,
                     QuadratureError, regular_variation_constant)
from permlab.quadrature import cosine_halfline, one_minus_cos_halfline

_SPLIT, _GL, _BATCH, _LIMIT = 10.0, 16, 32, 400


def _tail_integral_bound(lam, c_tail, gamma):
    return lam ** (1.0 - gamma) / (c_tail * (gamma - 1.0))


def _averaged_alternating(partials):
    levels = [partials.astype(float)]
    while levels[-1].size > 1:
        cur = levels[-1]
        levels.append(0.5 * (cur[:-1] + cur[1:]))
    value = float(levels[-1][-1])
    if len(levels) >= 2:
        err = abs(value - float(levels[-2][-1]))
    else:
        err = abs(value)
    return value, err


def _period_sums(weight, x, z0, cfg, tol):
    ax = abs(x)
    half = np.pi / ax
    nodes, gl_w = np.polynomial.legendre.leggauss(_GL)
    terms, partials = [], []
    total = 0.0
    n_done = 0
    value, err = 0.0, np.inf
    while n_done < cfg.max_half_periods:
        idx = np.arange(n_done, n_done + _BATCH)
        left = z0 + idx * half
        mid = left + 0.5 * half
        lam = mid[:, None] + 0.5 * half * nodes[None, :]
        vals = np.cos(lam * ax) * weight(lam)
        batch_terms = 0.5 * half * vals @ gl_w
        for t in batch_terms:
            total += t
            terms.append(t)
            partials.append(total)
        n_done += _BATCH
        value, err = _averaged_alternating(np.array(partials[-64:]))
        last = abs(terms[-1])
        if err + min(last, err) < tol or last < tol * 1e-3:
            return value, err + last * 2.0 ** (-min(len(terms), 50)), True
    return value, err + abs(terms[-1]), False


def ref_cosine_halfline(weight, x, cfg, c_tail, gamma):
    if x == 0.0:
        return ref_smooth_tail(weight, 0.0, cfg, c_tail, gamma)
    ax = abs(x)
    lam_star = max(1.0, _SPLIT / ax)
    k0 = int(np.ceil(lam_star * ax / np.pi - 0.5))
    z0 = (k0 + 0.5) * np.pi / ax

    def integrand(lam):
        return float(np.cos(lam * ax) * weight(np.asarray(lam)))

    pts = [p for p in (1.0, 10.0, 100.0, 1e4) if p < z0]
    head, head_err = quad(integrand, 0.0, z0, epsabs=cfg.abs_tol / 4,
                          epsrel=cfg.rel_tol / 4, limit=_LIMIT,
                          points=pts or None)
    tol = cfg.budget(head)
    series, series_err, converged = _period_sums(weight, x, z0, cfg, tol / 2)
    err = head_err + series_err
    if not converged:
        z_end = z0 + cfg.max_half_periods * np.pi / ax
        err += _tail_integral_bound(z_end, c_tail, gamma)
    value = head + series
    if err > cfg.budget(value):
        raise QuadratureError("cosine transform did not converge", value, err)
    return value, err


def ref_smooth_tail(weight, lam0, cfg, c_tail, gamma):
    def integrand(lam):
        return float(weight(np.asarray(lam)))

    if lam0 == 0.0:
        head, head_err = quad(integrand, 0.0, 1.0, epsabs=cfg.abs_tol / 4,
                              epsrel=cfg.rel_tol / 4, limit=_LIMIT)
        lam0 = 1.0
    else:
        head, head_err = 0.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(integrand, lam0, np.inf, epsabs=cfg.abs_tol / 4,
                        epsrel=cfg.rel_tol / 4, limit=_LIMIT)
    if err > 4 * max(cfg.abs_tol, cfg.rel_tol * abs(val)):
        val, err = 0.0, 0.0
        left = lam0
        while True:
            right = left * 4.0
            seg, seg_err = quad(integrand, left, right,
                                epsabs=cfg.abs_tol / 8, epsrel=cfg.rel_tol / 8,
                                limit=_LIMIT)
            val += seg
            err += seg_err
            left = right
            bound = _tail_integral_bound(left, c_tail, gamma)
            if bound < cfg.abs_tol / 2 or left > 1e60:
                err += bound
                break
    total = head + val
    total_err = head_err + err
    if total_err > 4 * cfg.budget(total):
        raise QuadratureError("monotone tail did not converge", total, total_err)
    return total, total_err


def ref_one_minus_cos_halfline(weight, x, cfg, c_tail, gamma, weight_at_zero=0.0):
    if x == 0.0:
        return 0.0, 0.0
    ax = abs(x)
    lam_star = max(1.0, _SPLIT / ax)
    k0 = int(np.ceil(lam_star * ax / np.pi - 0.5))
    z0 = (k0 + 0.5) * np.pi / ax

    def integrand(lam):
        if lam == 0.0:
            return weight_at_zero
        return float((1.0 - np.cos(lam * ax)) * weight(np.asarray(lam)))

    pts = [p for p in (1.0, 10.0, 100.0, 1e4) if p < z0]
    head, head_err = quad(integrand, 0.0, z0, epsabs=cfg.abs_tol / 4,
                          epsrel=cfg.rel_tol / 4, limit=_LIMIT,
                          points=pts or None)
    flat, flat_err = ref_smooth_tail(weight, z0, cfg, c_tail, gamma)
    scale = abs(head) + abs(flat)
    tol = cfg.budget(scale)
    series, series_err, converged = _period_sums(weight, x, z0, cfg, tol / 2)
    err = head_err + flat_err + series_err
    if not converged:
        z_end = z0 + cfg.max_half_periods * np.pi / ax
        err += _tail_integral_bound(z_end, c_tail, gamma)
    value = head + flat - series
    if err > 4 * cfg.budget(max(abs(value), scale)):
        raise QuadratureError("increment-variance transform did not converge",
                              value, err)
    return value, err


# -- the grid -------------------------------------------------------------------

EXPONENTS = {
    "gaussian": CharExponent.gaussian(0.5),
    "stable-1.12": CharExponent.pure_stable(1.12),
    "stable-1.5": CharExponent.pure_stable(1.5),
    "stable-1.9": CharExponent.pure_stable(1.9),
    "mixture": CharExponent.stable_mixture([(1.2, 0.5), (1.7, 1.0)]),
    "gaussian_plus": CharExponent.gaussian_plus(0.3, [(1.3, 0.7)]),
}
XS = (0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0)


def _outcome(fn, *args):
    """(value, err) of a call, or the QuadratureError's message and fields."""
    try:
        return fn(*args)
    except QuadratureError as exc:
        return str(exc), exc.value, exc.err_bound


def _setup(name, beta):
    psi = EXPONENTS[name]
    pot = LevyPotential(psi, beta=beta)
    c, g = psi.tail_minorant()
    return pot, pot._weight(beta), c, g


@pytest.mark.parametrize("beta", (0.5, 2.0))
@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_cosine_halfline_matches_the_former_route_bit_for_bit(name, beta):
    pot, w, c, g = _setup(name, beta)
    for x in XS:
        new = _outcome(cosine_halfline, w, x, pot.quad, c, g)
        ref = _outcome(ref_cosine_halfline, w, x, pot.quad, c, g)
        assert new == ref, (name, beta, x)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("max_half_periods", (32, 64, 96))
def test_truncated_cosine_halfline_fails_as_before(max_half_periods):
    # a budget below what the head quad can reach, which also stops the period
    # sums at max_half_periods, so that the analytic tail bound enters the
    # reported error of the failure
    cfg = QuadratureConfig(abs_tol=1e-19, rel_tol=1e-19,
                           max_half_periods=max_half_periods)
    psi = CharExponent.pure_stable(1.12)
    w = LevyPotential(psi, beta=0.5)._weight(0.5)
    c, g = psi.tail_minorant()
    for x in (0.1, 1.0, 3.0):
        new = _outcome(cosine_halfline, w, x, cfg, c, g)
        assert new == _outcome(ref_cosine_halfline, w, x, cfg, c, g)


@pytest.mark.parametrize("beta", (0.0, 0.5, 2.0))
@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_one_minus_cos_halfline_agrees_with_the_former_route(name, beta):
    pot, w, c, g = _setup(name, beta)
    for x in XS[1:]:
        wz = pot._weight_at_zero_limit(x)
        val, err = one_minus_cos_halfline(w, x, pot.quad, c, g, weight_at_zero=wz)
        ref, ref_err = ref_one_minus_cos_halfline(w, x, pot.quad, c, g,
                                                  weight_at_zero=wz)
        assert abs(val - ref) <= err + ref_err, (name, beta, x)


# -- sigma2 at x = 1e-4 against closed forms ---------------------------------------

def _gaussian_sigma2(c, beta, x):
    if beta == 0.0:
        return x / c
    return -math.expm1(-math.sqrt(beta / c) * x) / math.sqrt(beta * c)


@pytest.mark.parametrize("beta", (0.0, 0.5))
@pytest.mark.parametrize("c", (1.6, 2.0, 3.0))
def test_gaussian_sigma2_near_zero_within_its_bound(c, beta):
    pot = LevyPotential(CharExponent.gaussian(c), beta=beta)
    val, err = pot.sigma2_with_error(1e-4)
    assert abs(val - _gaussian_sigma2(c, beta, 1e-4)) <= err


@pytest.mark.parametrize("index", (1.1, 1.12))
def test_stable_sigma2_near_zero_within_its_bound(index):
    pot = LevyPotential(CharExponent.pure_stable(index), beta=0.0)
    val, err = pot.sigma2_with_error(1e-4)
    exact = regular_variation_constant(index) * 1e-4 ** (index - 1.0)
    assert abs(val - exact) <= err
