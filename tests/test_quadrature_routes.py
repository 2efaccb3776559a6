"""The quadrature against its former routes and against closed forms.

The reference functions below are the former scalar route: scipy's quad on
the head [0, z0] with a Python callback per node, two copies of the head
split, a per-term loop over the period sums, and a tail that falls back to
geometric segments when scipy reports a large error.  Settings that are now
module constants are written in as the values every caller used.  The head
now runs on Gauss-Kronrod panels for many |x| at once, so the module and the
references agree within the sum of both bounds, not bit for bit, and a
budget neither can meet makes both raise.  one_minus_cos_halfline is
compared where the reference's tail was right.  The flat tail now runs on
the panels too; scipy_smooth_tail is the scipy route it replaced, and
mpmath settles the cases where the two disagree.

Against closed forms the bounds are strict: a seeded sweep of Gaussian and
pure stable potentials has no value outside its reported bound, rounding
included, and mpmath checks a two-atom mixture.

The array transforms run their |x| in chunks and their nodes in blocks;
the former node sums, by np.add.accumulate over every panel and node at
once, are kept below, and the transforms must equal them bit for bit at
every chunk width and block size.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from permlab import (CharExponent, LevyPotential, QuadratureConfig,
                     QuadratureError, regular_variation_constant)
from permlab import quadrature
from permlab.bases import LevyBase
from permlab.quadrature import (cosine_halfline, cosine_halfline_array,
                                one_minus_cos_halfline,
                                one_minus_cos_halfline_array, smooth_tail)

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


def scipy_smooth_tail(weight, lam0, cfg):
    """The tail as scipy's quad took it until the panels did: on [1, inf) in
    units of lam0, so that its map onto (0, 1] sees the mass however far out
    lam0 lies."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda s: float(weight(np.asarray(lam0 * s))), 1.0,
                        np.inf, epsabs=cfg.abs_tol / 4 / lam0,
                        epsrel=cfg.rel_tol / 4, limit=_LIMIT)
    return lam0 * val, lam0 * err


def ref_one_minus_cos_halfline(weight, x, cfg, c_tail, gamma, weight_at_zero=0.0,
                               flat_tail=None):
    """The former route; flat_tail(z0), when given, replaces its flat tail
    by a value and bound of one's own."""
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
    if flat_tail is None:
        flat, flat_err = ref_smooth_tail(weight, z0, cfg, c_tail, gamma)
    else:
        flat, flat_err = flat_tail(z0)
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
# lowest index 1.05, where the former route's flat tail can miss its bound
LOW_INDEX = {
    "stable-1.05": CharExponent.pure_stable(1.05),
    "mixture-1.05": CharExponent.stable_mixture([(1.05, 2.0), (1.2, 0.5)]),
}
XS = (0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0)


def _setup(name, beta):
    psi = {**EXPONENTS, **LOW_INDEX}[name]
    pot = LevyPotential(psi, beta=beta)
    c, g = psi.tail_minorant()
    return pot, pot._weight(beta), c, g


@pytest.mark.parametrize("beta", (0.5, 2.0))
@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_cosine_halfline_agrees_with_the_former_route(name, beta):
    pot, w, c, g = _setup(name, beta)
    for x in XS:
        val, err = cosine_halfline(w, x, pot.quad, c, g)
        ref, ref_err = ref_cosine_halfline(w, x, pot.quad, c, g)
        assert abs(val - ref) <= err + ref_err, (name, beta, x)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("max_half_periods", (32, 64, 96))
def test_truncated_cosine_halfline_fails_as_before(max_half_periods):
    # a budget below what either head can reach, which also stops the period
    # sums at max_half_periods
    cfg = QuadratureConfig(abs_tol=1e-19, rel_tol=1e-19,
                           max_half_periods=max_half_periods)
    psi = CharExponent.pure_stable(1.12)
    w = LevyPotential(psi, beta=0.5)._weight(0.5)
    c, g = psi.tail_minorant()
    for x in (0.1, 1.0, 3.0):
        with pytest.raises(QuadratureError):
            cosine_halfline(w, x, cfg, c, g)
        with pytest.raises(QuadratureError):
            ref_cosine_halfline(w, x, cfg, c, g)


@pytest.mark.parametrize("beta", (0.0, 0.5, 2.0))
@pytest.mark.parametrize("name", sorted(EXPONENTS) + sorted(LOW_INDEX))
def test_one_minus_cos_halfline_agrees_with_the_former_route(name, beta):
    pot, w, c, g = _setup(name, beta)

    def mp_flat(z0):
        # mpmath must find the panels' flat tail within its bound and the
        # former one outside its own
        exact = _mp_tail(pot.psi, beta, z0)
        flat, flat_err, _ = smooth_tail(w, np.array([z0]), pot.quad, c, g)
        ref, ref_err = ref_smooth_tail(w, z0, pot.quad, c, g)
        assert abs(flat[0] - exact) <= flat_err[0], (z0, flat[0], exact)
        assert abs(ref - exact) > ref_err, (z0, ref, exact)
        return exact, 0.0

    for x in XS[1:]:
        val, err = one_minus_cos_halfline(w, x, pot.quad, c, g)
        # scipy's nodes are interior too: the reference never reads lam = 0
        ref, ref_err = ref_one_minus_cos_halfline(w, x, pot.quad, c, g,
                                                  weight_at_zero=np.nan)
        if not abs(val - ref) <= err + ref_err:
            # the former tail misses on 6 of the 21 mixture-1.05 cases; the
            # former route with mpmath's tail must agree
            ref, ref_err = ref_one_minus_cos_halfline(
                w, x, pot.quad, c, g, weight_at_zero=np.nan, flat_tail=mp_flat)
        assert abs(val - ref) <= err + ref_err, (name, beta, x)


# -- the flat tail -----------------------------------------------------------------

TAIL_Z0 = np.array([1.0, 1.7, 10.0, 123.4, 1e3, 2.2e4, 1e5])


@pytest.mark.parametrize("index", (1.05, 1.12, 1.5, 1.9))
def test_stable_flat_tail_within_its_bound(index):
    w = LevyPotential(CharExponent.pure_stable(index), beta=0.0)._weight(0.0)
    val, err, failed = smooth_tail(w, TAIL_Z0, QuadratureConfig(), 1.0, index)
    exact = TAIL_Z0 ** (1.0 - index) / (index - 1.0)
    assert not failed.any()
    assert np.all(np.abs(val - exact) <= err)


@pytest.mark.parametrize("c, beta", [(2.0, 0.7), (0.2, 3.0), (3.0, 0.1)])
def test_gaussian_flat_tail_within_its_bound(c, beta):
    w = LevyPotential(CharExponent.gaussian(c), beta=beta)._weight(beta)
    val, err, failed = smooth_tail(w, TAIL_Z0, QuadratureConfig(), c, 2.0)
    # (pi/2 - atan(z0 sqrt(c/beta))) / sqrt(c beta), without the cancellation
    exact = np.arctan(math.sqrt(beta / c) / TAIL_Z0) / math.sqrt(c * beta)
    assert not failed.any()
    assert np.all(np.abs(val - exact) <= err)


def _tail_case(family, rng):
    """A drawn exponent and killing rate for the flat-tail sweep."""
    top = rng.uniform(1.05, 1.95)
    if family == "stable":
        psi = CharExponent.stable_mixture([(top, rng.uniform(0.2, 3.0))])
    elif family == "mixture":
        low = rng.uniform(1.01, top)
        psi = CharExponent.stable_mixture([(low, rng.uniform(0.2, 3.0)),
                                           (top, rng.uniform(0.2, 3.0))])
    else:
        psi = CharExponent.gaussian_plus(rng.uniform(0.2, 3.0),
                                         [(top, rng.uniform(0.2, 3.0))])
    return psi, rng.choice([0.0, rng.uniform(0.1, 3.0)])


def _mp_tail(psi, beta, lam0):
    """int_{lam0}^inf dlam / (beta + psi) to 25 digits, in the module's s."""
    mp = pytest.importorskip("mpmath")
    p = 1 / (psi.tail_minorant()[1] - 1)

    def f(s):
        lam = lam0 * s ** -p
        return p * lam / s / (beta + psi.gaussian_coeff * lam ** 2
                              + sum(c * lam ** a for a, c in psi.atoms))

    with mp.workdps(25):
        edges = [0] + [mp.mpf(4) ** -k for k in (5, 4, 3, 2, 1, 0)]
        return float(mp.quad(f, edges))


@pytest.mark.parametrize("family", ["stable", "mixture", "gaussian_plus"])
def test_flat_tail_agrees_with_scipy(family):
    # 20 exponents x 8 values of lam0 from 1 to 1e5 per family, against the
    # former route's scipy tail, within the sum of both bounds.  Where the
    # two disagree, mpmath must find the panels within their bound and scipy
    # outside its own: scipy's estimate misses on 15 of the 160 mixture tails,
    # whose indices both lie near 1
    rng = np.random.default_rng([20261019, len(family)])
    cfg = QuadratureConfig()
    for _ in range(20):
        psi, beta = _tail_case(family, rng)
        w = LevyPotential(psi, beta=beta)._weight(beta)
        c, g = psi.tail_minorant()
        lam0 = np.sort(10.0 ** rng.uniform(0.0, 5.0, 8))
        val, err, failed = smooth_tail(w, lam0, cfg, c, g)
        assert not failed.any()
        for z, v, e in zip(lam0, val, err):
            ref, ref_err = scipy_smooth_tail(w, z, cfg)
            if not abs(v - ref) <= e + ref_err:
                exact = _mp_tail(psi, beta, z)
                assert abs(v - exact) <= e and abs(ref - exact) > ref_err, (
                    psi, beta, z, v, ref, exact)


def test_flat_tails_equal_each_entry_evaluated_alone():
    psi = CharExponent.stable_mixture([(1.1, 0.8), (1.6, 0.6)])
    c, g = psi.tail_minorant()
    w = LevyPotential(psi, beta=0.3)._weight(0.3)
    lam0 = np.concatenate((np.geomspace(1.0, 1e7, 23), [1.0]))
    together = smooth_tail(w, lam0, QuadratureConfig(), c, g)
    alone = [smooth_tail(w, lam0[i:i + 1], QuadratureConfig(), c, g)
             for i in range(lam0.size)]
    for got, parts in zip(together, zip(*alone)):
        assert np.array_equal(got, np.concatenate(parts))


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


# -- strict bounds against closed forms ------------------------------------------

def _stable_sigma2(index, x):
    return regular_variation_constant(index) * x ** (index - 1.0)


def _gaussian_u(c, beta, x):
    return math.exp(-math.sqrt(beta / c) * x) / (2.0 * math.sqrt(beta * c))


def _sweep_case(family, rng):
    """(potential, evaluation name, exact value) of one drawn exponent."""
    c, beta = rng.uniform(0.2, 3.0), rng.uniform(0.1, 3.0)
    if family == "gaussian-u":
        pot = LevyPotential(CharExponent.gaussian(c), beta=beta)
        return pot, "u", lambda x: _gaussian_u(c, beta, x)
    if family == "stable-sigma2-0":
        index = rng.uniform(1.1, 1.99)
        pot = LevyPotential(CharExponent.pure_stable(index), beta=0.0)
        return pot, "sigma2", lambda x: _stable_sigma2(index, x)
    beta = 0.0 if family == "gaussian-sigma2-0" else beta
    pot = LevyPotential(CharExponent.gaussian(c), beta=beta)
    return pot, "sigma2", lambda x: _gaussian_sigma2(c, beta, x)


@pytest.mark.parametrize("family", ["gaussian-u", "gaussian-sigma2-0",
                                    "gaussian-sigma2-b", "stable-sigma2-0"])
def test_closed_forms_lie_within_their_bounds(family):
    # 15 exponents x 100 points per family; the former route, with scipy's
    # quad on the head, missed 251 of these 6000 cases, by up to 23 times its
    # bound
    rng = np.random.default_rng([20261018, len(family)])
    misses = []
    for _ in range(15):
        pot, kind, exact = _sweep_case(family, rng)
        xs = 10.0 ** rng.uniform(-4.0, 1.0, 100)
        getattr(pot, kind)(xs)          # one array call fills the cache
        for x in xs:
            val, err = getattr(pot, f"{kind}_with_error")(x)
            if not abs(val - exact(x)) <= err:
                misses.append((x, val, exact(x), err))
    assert misses == []


@pytest.mark.parametrize("beta", (0.0, 0.7))
def test_two_atom_mixture_within_its_bounds_of_mpmath(beta):
    # Turned onto the imaginary axis, lam = i t, the transforms lose their
    # oscillation: beta + psi has no zero in the first quadrant, where each
    # power of lam has argument below pi, and the integrand vanishes on the
    # arc at infinity.  So u(x) = -Im int_0^inf e^{-xt} w(it) dt / pi and
    # sigma2(x) = -2 Im int_0^inf (1 - e^{-xt}) w(it) dt / pi.
    mp = pytest.importorskip("mpmath")
    atoms = ((1.3, 0.8), (1.8, 0.6))
    pot = LevyPotential(CharExponent.stable_mixture(atoms), beta=beta)

    def w(t):
        return 1 / (beta + sum(c * t ** s * mp.expjpi(s / 2) for s, c in atoms))

    with mp.workdps(25):
        for x in (1e-3, 0.5, 3.0):
            s2 = -2 * mp.im(mp.quad(lambda t: -mp.expm1(-x * t) * w(t),
                                    [0, 1, mp.inf])) / mp.pi
            val, err = pot.sigma2_with_error(x)
            assert abs(val - float(s2)) <= err, (x, val, s2, err)
            if beta > 0.0:
                u = -mp.im(mp.quad(lambda t: mp.exp(-x * t) * w(t),
                                   [0, 1, mp.inf])) / mp.pi
                val, err = pot.u_with_error(x)
                assert abs(val - float(u)) <= err, (x, val, u, err)


# -- chunks and blocks -------------------------------------------------------------

def _accumulated_panels(integrand, owner, left, right):
    """_panels before its blocks: every panel at once, each node sum by
    np.add.accumulate."""
    half = 0.5 * (right - left)
    t = (left + half) + half * quadrature._K15_NODES[:, None]
    f = integrand(t, owner)
    terms = quadrature._GK_WEIGHTS.T[:, :, None] * f
    np.abs(terms[2], out=terms[2])
    k, g, size = np.add.accumulate(terms, axis=1)[:, -1]
    return np.stack((left, right, half * k, half * np.abs(k - g),
                     quadrature._PANEL_ROUNDING * half * size))


def _accumulated_period_sums(weight, ax, z0, tol, cfg, c_tail, gamma):
    """_period_sums before its node groups: every node of a batch at once,
    summed by np.add.accumulate."""
    value, err, tail = np.empty(ax.size), np.empty(ax.size), np.zeros(ax.size)
    live = np.arange(ax.size)
    half = np.pi / ax
    total = np.zeros(ax.size)
    partials = np.empty((ax.size, 0))
    done = 0
    while live.size:
        h = half[live, None]
        mid = z0[live, None] + np.arange(done, done + _BATCH) * h + 0.5 * h
        lam = mid + 0.5 * h * quadrature._GL_NODES[:, None, None]
        vals = np.cos(lam * ax[live, None]) * weight(lam)
        s = np.add.accumulate(quadrature._GL_WEIGHTS[:, None, None] * vals,
                              axis=0)[-1]
        terms = 0.5 * h * s
        done += _BATCH
        run = np.add.accumulate(np.concatenate((total[:, None], terms), axis=1),
                                axis=1)[:, 1:]
        total = run[:, -1]
        partials = np.concatenate((partials, run), axis=1)[:, -64:]
        val, e = quadrature._averaged_alternating(partials)
        last = np.abs(terms[:, -1])
        conv = (e + np.minimum(last, e) < tol[live]) | (last < tol[live] * 1e-3)
        stop = conv | (done >= cfg.max_half_periods)
        value[live[stop]] = val[stop]
        err[live[stop]] = np.where(conv, e + last * 2.0 ** (-min(done, 50)),
                                   e + last)[stop]
        cut = live[stop & ~conv]
        z_end = z0[cut] + cfg.max_half_periods * np.pi / ax[cut]
        tail[cut] = z_end ** (1.0 - gamma) / (c_tail * (gamma - 1.0))
        live, total, partials = live[~stop], total[~stop], partials[~stop]
    return value, err, tail


def _chunk_xs(n, seed):
    """n values of x in a seeded order, signs mixed, with 0 and 1e-6 at
    the edges of chunks of 7, 16 and 256."""
    rng = np.random.default_rng(seed)
    xs = 10.0 ** rng.uniform(-4.0, 1.0, n) * rng.choice([-1.0, 1.0], n)
    xs[[15, 255]] = 0.0
    xs[[7, 256]] = 1e-6
    return xs


def _transforms(xs, cfg):
    _, w, c, g = _setup("mixture", 0.5)
    return [transform(w, xs, cfg, c, g)
            for transform in (cosine_halfline_array, one_minus_cos_halfline_array)]


@pytest.fixture(scope="module")
def former_chunks():
    """The 610 values and bounds of the two transforms, with the former
    node sums in the former chunks of 16."""
    xs = _chunk_xs(610, 11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_panels", _accumulated_panels)
        mp.setattr(quadrature, "_period_sums", _accumulated_period_sums)
        mp.setattr(quadrature, "_ROWS", 16)
        return xs, _transforms(xs, QuadratureConfig())


def _assert_same_bits(got, expected):
    for (val, err), (ref, ref_err) in zip(got, expected):
        assert np.array_equal(val, ref) and np.array_equal(err, ref_err)


@pytest.mark.parametrize("rows", (1, 7, 16, 256))
def test_transforms_do_not_depend_on_the_chunk_width(monkeypatch, former_chunks,
                                                     rows):
    xs, expected = former_chunks
    monkeypatch.setattr(quadrature, "_ROWS", rows)
    _assert_same_bits(_transforms(xs, QuadratureConfig()), expected)


@pytest.mark.parametrize("block", (15, 64, 1000))
def test_transforms_do_not_depend_on_the_block_size(monkeypatch, former_chunks,
                                                    block):
    # 15 values make one panel per block and one node per group, where a
    # node sum over the node axis last would add pairwise
    xs, expected = former_chunks
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    _assert_same_bits(_transforms(xs[:120], QuadratureConfig()),
                      [(val[:120], err[:120]) for val, err in expected])


def test_panels_equal_the_accumulated_node_sums():
    _, w, _, _ = _setup("mixture", 0.5)
    rng = np.random.default_rng(12)
    step = quadrature._BLOCK // 15
    for n in (1, 2, step - 1, step, step + 1, 3 * step + 5):
        left = 10.0 ** rng.uniform(-3.0, 3.0, n)
        right = left * (1.0 + 10.0 ** rng.uniform(-6.0, 1.0, n))
        ax = 10.0 ** rng.uniform(-4.0, 1.0, n)

        def integrand(lam, own):
            return np.cos(lam * ax[own]) * w(lam)

        owner = np.arange(n)
        assert np.array_equal(quadrature._panels(integrand, owner, left, right),
                              _accumulated_panels(integrand, owner, left, right))


@pytest.mark.parametrize("transform, cfg", [
    (cosine_halfline_array, QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)),
    (one_minus_cos_halfline_array,
     QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14))])
def test_a_failing_grid_raises_for_its_smallest_failing_x(monkeypatch, transform,
                                                         cfg):
    # about a third of these x fail, each evaluated alone
    _, w, c, g = _setup("mixture", 0.5)
    xs = _chunk_xs(300, 13)
    alone = {}
    for x in xs:
        try:
            transform(w, [x], cfg, c, g)
        except QuadratureError as exc:
            alone[abs(x)] = exc
    assert 0 < len(alone) < xs.size
    want = alone[min(alone)]
    # the smallest failing |x| moves past the first chunk of 256, behind
    # other failing ones
    xs = xs[np.argsort(np.abs(xs) == min(alone), kind="stable")]
    for rows in (1, 7, 16, 256):
        monkeypatch.setattr(quadrature, "_ROWS", rows)
        with pytest.raises(QuadratureError) as got:
            transform(w, xs, cfg, c, g)
        assert (str(got.value), got.value.value, got.value.err_bound) == (
            str(want), want.value, want.err_bound)


def test_levy_gram_quadrature_peaks_below_two_and_a_half_mb():
    # 40 points give 781 distinct offsets, four chunks of up to 256; the
    # chunks evaluated whole peak at 5.5 MB, chunks of 16 at 0.6 MB
    import tracemalloc
    pts = np.concatenate(([0.0], 1.0 + 0.9 ** np.arange(39)))
    pot = _setup("mixture", 0.5)[0]
    tracemalloc.start()
    try:
        LevyBase(pot).gram(pts, pts)
        pot.sigma2(np.subtract.outer(pts, pts))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6
