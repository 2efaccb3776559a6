"""Half-line cosine-transform quadrature for slowly decaying weights.

The integrals here look like int_0^inf cos(lam*x) w(lam) dlam with w positive,
decreasing and w(lam) <= c_tail^-1 * lam^-gamma beyond lam = 1 for some
gamma > 1.  The half line is split at the first cosine zero z0 past
max(1, _SPLIT_SCALE/|x|).

The head [0, z0] is integrated for every |x| of a call at once, as one array
of (node x panel) values.  Each panel carries QUADPACK's Gauss-Kronrod pair
(Piessens et al., QUADPACK, 1983): the 15-point Kronrod sum is the value,
and its bound is |K15 - G7| plus the rounding of the sum itself,
gamma_16 * sum |w_i f_i| for 15 products and additions and the scaling by
the half-length (Higham, Accuracy and Stability of Numerical Algorithms,
ch. 4); adding up n panels adds gamma_n times the sum of their magnitudes.
The panels start at the break points 1, 10, 100, 1e4 and each decade from
1e6 below z0.  While
the bound of an |x| exceeds _HEAD_SHARE of its budget, each of its panels
whose |K15 - G7| exceeds that tolerance's share for the panel's length is
split into _SPLIT_WAYS equal parts, up to _QUAD_LIMIT panels per |x|.  The
rounding terms take no part in that choice, since splitting cannot shrink
them; quarters rather than halves grade the panels toward lam = 0, where
psi is not smooth, in half the passes.  Sums over nodes and panels run in a
fixed order, so a value does not depend on the other |x| of its call.  The
Kronrod nodes are interior, so lam = 0, where w may blow up, is never
evaluated; 1 - cos(lam*x) is written as 2 sin^2(lam*x/2), which has no
cancellation at small lam*x.

The rest is summed period by period over consecutive cosine zeros, _BATCH
half periods of _GL_ORDER Gauss-Legendre nodes at a time, for all |x| of a
chunk in lockstep.  Those contributions strictly alternate in sign with
decreasing magnitude, so iterated averaging of the partial sums (Euler
acceleration) converges far faster than the raw series, which matters when
gamma is close to 1.

A call runs its |x| in chunks of _ROWS = 256, and each chunk pays the fixed
cost of its refinement rounds and period-sum batches once, whatever its
width.  Within a chunk, panels are evaluated in blocks of _BLOCK // 15
and period-sum nodes in groups of at most _BLOCK values, so that the
working set is set by _BLOCK, not by the chunk: the quadrature of a
40-point Levy gram and its increment variances (781 distinct |x|) peaks at
1.4 MB traced, against 5.5 MB for the same chunks evaluated whole and
0.6 MB for chunks of 16.  A one-point call makes one block and one group.
Both reductions add the nodes one by one, in the same order for every
entry, so no value depends on the chunk or block it fell in.

The non-oscillating tail int_{lam0}^inf w, with lam0 = z0 in the increment
variance and lam0 = 1 in u(0), runs on the same panels, for every lam0 of a
call at once.  With lam = lam0 s^-p and p = 1/(gamma - 1) it becomes
int_0^1 p lam w(lam) / s ds, whose integrand stays bounded as s -> 0 since
w(lam) ~ lam^-gamma / c_tail; a fractional power of s that lower indices or
beta > 0 leave there is graded by the same quarter splits, from the panels
[0, 1/16], [1/16, 1/4] and [1/4, 1].  w is read up to lam = 10^(300/gamma),
where psi is still finite, and the power minorant bounds the rest.  Only
u(0)'s int_0^1 w, where w need not be smooth at 0, is left to scipy's quad,
which quad below imports on its first call, so that importing permlab loads
no scipy.

Truncation never happens silently: period sums stopped at max_half_periods
and a tail cut at 10^(300/gamma) add the analytic tail bound of the power
minorant to the reported error, and evaluation fails loudly, for the
smallest failing |x| of a call, when a head or tail overruns its panels or
the achieved bound exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "cosine_halfline",
    "cosine_halfline_array",
    "one_minus_cos_halfline",
    "one_minus_cos_halfline_array",
    "smooth_tail",
]

_SPLIT_SCALE = 10.0   # head/tail split at max(1, _SPLIT_SCALE/|x|)
# first panel edges: no panel of a head spans more than a decade past 1e4,
# however small |x| and so however far out z0 = ~_SPLIT_SCALE/|x| lies
_HEAD_BREAKS = np.concatenate(([0.0, 1.0, 10.0, 100.0, 1e4],
                               10.0 ** np.arange(6, 309)))
_QUAD_LIMIT = 400     # panels of a head or tail; subintervals of u(0)'s quad
_GL_ORDER = 16        # nodes per half period
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
_BATCH = 32           # half periods generated per acceleration pass
# |K15 - G7| overstates the error of K15 by orders of magnitude; refining
# to a small share of the budget keeps the head's bound no looser than the
# other parts of a total
_HEAD_SHARE = 1 / 64  # of the budget, for a head or a flat tail
_SPLIT_WAYS = 4       # equal parts a panel is split into
_SPLIT_EDGES = np.arange(_SPLIT_WAYS + 1) / _SPLIT_WAYS
# first panel edges of a flat tail, in s = (lam0 / lam)^(gamma - 1)
_TAIL_EDGES = np.array([0.0, 1 / 16, 1 / 4, 1.0])
_ROWS = 256           # |x| per chunk, evaluated in lockstep
_BLOCK = 8192         # values per block of panels or group of period-sum nodes

# QUADPACK's qk15 on [-1, 1] by halves, from the outermost node inwards:
# Kronrod nodes (the Gauss nodes are every second one), Kronrod weights and
# 7-point Gauss weights
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_K15_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
# columns weighting (f, f, |f|): K15, G7 (zero off its nodes) and K15 again
_GK_WEIGHTS = np.zeros((15, 3))
_GK_WEIGHTS[:, 0] = _GK_WEIGHTS[:, 2] = np.concatenate((_WGK, _WGK[-2::-1]))
_GK_WEIGHTS[1::2, 1] = np.concatenate((_WG, _WG[-2::-1]))


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u) for unit roundoff u = 2^-53."""
    nu = np.asarray(n, dtype=float) * 2.0 ** -53
    return nu / (1.0 - nu)


_PANEL_ROUNDING = float(_gamma(16))


@dataclass(frozen=True)
class QuadratureConfig:
    """Error budget max(abs_tol, rel_tol * |value|) and the cap on period sums."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_half_periods: int = 4096

    def __post_init__(self):
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValueError(f"tolerances must be nonnegative, got abs_tol="
                             f"{self.abs_tol!r} and rel_tol={self.rel_tol!r}")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValueError("abs_tol and rel_tol cannot both be 0")
        n = self.max_half_periods
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"max_half_periods must be an integer >= 1, got {n!r}")

    def budget(self, scale):
        """The error allowed at scale; elementwise for arrays."""
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(scale))


class QuadratureError(RuntimeError):
    """Raised when the achieved error bound exceeds the tolerance budget."""

    def __init__(self, message: str, value: float, err_bound: float):
        super().__init__(f"{message} (value~{value:.6g}, bound {err_bound:.3g})")
        self.value = value
        self.err_bound = err_bound


# -- the head ------------------------------------------------------------------

def _cos(lam, ax):
    return np.cos(lam * ax)


def _one_minus_cos(lam, ax):
    s = np.sin(lam * (0.5 * ax))
    return 2.0 * s * s


def _split_points(ax: np.ndarray) -> np.ndarray:
    """The first cosine zero z0 past max(1, _SPLIT_SCALE/ax), for each ax."""
    lam_star = np.maximum(1.0, _SPLIT_SCALE / ax)
    k0 = np.ceil(lam_star * ax / np.pi - 0.5)
    return (k0 + 0.5) * np.pi / ax


def _panels(integrand, owner, left, right):
    """Rows left, right, K15 value, |K15 - G7| and the rounding term of the
    panels [left, right] of integrand(t, owner), panel i belonging to entry
    owner[i], evaluated in blocks of _BLOCK // 15 panels."""
    out = np.empty((5, left.size))
    out[0], out[1] = left, right
    half = 0.5 * (right - left)
    step = _BLOCK // _K15_NODES.size
    for start in range(0, left.size, step):
        blk = slice(start, start + step)
        h = half[blk]
        f = integrand((left[blk] + h) + h * _K15_NODES[:, None], owner[blk])
        # (node, sum, panel): with the nodes outermost the reduction adds
        # them one by one, in the same order for every panel
        terms = f[:, None, :] * _GK_WEIGHTS[:, :, None]
        np.abs(terms[:, 2], out=terms[:, 2])
        k, g, size = np.add.reduce(terms, axis=0)
        out[2, blk] = h * k
        out[3, blk] = h * np.abs(k - g)
        out[4, blk] = _PANEL_ROUNDING * h * size
    return out


def _refine(integrand, owner, left, right, length, cfg: QuadratureConfig):
    """The integral of integrand over each entry's panels, its bound and a
    mask of the entries whose panels would have exceeded _QUAD_LIMIT.

    The panels [left, right] of entry i (owner == i) tile an interval of
    length[i]; they are split until each entry's bound meets _HEAD_SHARE
    of its budget.
    """
    n = length.size
    count = np.bincount(owner, minlength=n)
    panels = _panels(integrand, owner, left, right)
    overran = np.zeros(n, dtype=bool)
    while True:
        left, right, val, trunc, rnd = panels
        # the panels of one entry keep an order set by its own splits alone,
        # and bincount sums them in that order
        total = np.bincount(owner, val, n)
        err = (np.bincount(owner, trunc + rnd, n)
               + _gamma(count) * np.bincount(owner, np.abs(val), n))
        tol = cfg.budget(total) * _HEAD_SHARE
        split = (((err > tol) & ~overran)[owner]
                 & (trunc * length[owner] > tol[owner] * (right - left)))
        grown = count + (_SPLIT_WAYS - 1) * np.bincount(owner[split], minlength=n)
        over = grown > _QUAD_LIMIT
        if over.any():
            overran |= over
            split &= ~over[owner]
            grown[over] = count[over]
        if not split.any():
            return total, err, overran
        count = grown
        edges = left[split] + (right - left)[split] * _SPLIT_EDGES[:, None]
        edges[-1] = right[split]
        new_owner = np.tile(owner[split], _SPLIT_WAYS)
        fresh = _panels(integrand, new_owner, edges[:-1].ravel(),
                        edges[1:].ravel())
        keep = ~split
        owner = np.concatenate((owner[keep], new_owner))
        panels = np.concatenate((panels[:, keep], fresh), axis=1)


def _head(osc, weight, ax: np.ndarray, z0: np.ndarray, cfg: QuadratureConfig):
    """int_0^z0 osc(lam, ax) w(lam) dlam for each entry of ax, as _refine
    returns it."""
    # panels [0, 1], [1, 10], ... up to the last break point below z0, then z0
    count = np.searchsorted(_HEAD_BREAKS, z0)   # break points below z0
    owner = np.repeat(np.arange(ax.size), count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    right = np.where(j + 1 < count[owner],
                     _HEAD_BREAKS[np.minimum(j + 1, _HEAD_BREAKS.size - 1)],
                     z0[owner])
    return _refine(lambda lam, own: osc(lam, ax[own]) * weight(lam),
                   owner, _HEAD_BREAKS[j], right, z0, cfg)


# -- the flat tail -----------------------------------------------------------------

def smooth_tail(weight, lam0: np.ndarray, cfg: QuadratureConfig, c_tail: float,
                gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int_{lam0}^inf w(lam) dlam for each entry lam0 >= 1 of a 1-d array,
    where w(lam) <= lam^-gamma / c_tail for lam >= 1.

    Integrated as int_0^1 p lam w(lam) / s ds with lam = lam0 s^-p and
    p = 1/(gamma - 1), on the Gauss-Kronrod panels of the head (see the
    module docstring).  Returns the values, their bounds and a mask of the
    entries that failed: their panels overran or their bound exceeds 4
    times the budget.  A value does not depend on the other entries.
    """
    p = 1.0 / (gamma - 1.0)
    # w is evaluated up to lam_max, where psi stays finite; the rest of the
    # tail is left out and its bound under the power minorant added
    lam_max = 10.0 ** (300.0 / gamma)
    s_min = (lam0 / lam_max) ** (gamma - 1.0)

    def integrand(s, own):
        s_in = np.maximum(s, s_min[own])
        lam = lam0[own] * s_in ** -p
        return np.where(s < s_min[own], 0.0, p * lam * weight(lam) / s_in)

    n = lam0.size
    owner = np.repeat(np.arange(n), _TAIL_EDGES.size - 1)
    value, err, overran = _refine(integrand, owner,
                                  np.tile(_TAIL_EDGES[:-1], n),
                                  np.tile(_TAIL_EDGES[1:], n), np.ones(n), cfg)
    err = err + lam_max ** (1.0 - gamma) / (c_tail * (gamma - 1.0))
    return value, err, overran | (err > 4 * cfg.budget(value))


# -- the period sums -------------------------------------------------------------

def _averaged_alternating(partials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterated means of each row of alternating-series partial sums, and
    error estimates.

    The error estimate is the change between the last two averaging levels,
    which tracks the true error well for smoothly decaying terms.  Rows need
    at least two entries.
    """
    prev, cur = partials, partials
    while cur.shape[1] > 1:
        prev, cur = cur, 0.5 * (cur[:, :-1] + cur[:, 1:])
    value = cur[:, -1]
    return value, np.abs(value - prev[:, -1])


def _period_sums(weight, ax, z0, tol, cfg, c_tail, gamma):
    """sum of int_{z_i}^{z_{i+1}} cos(ax*lam) w(lam) dlam over cosine zeros
    z_i >= z0, for each entry of ax against its own tolerance tol.

    The entries run in lockstep until each converges.  Returns the
    accelerated sums, their error estimates and the analytic bounds on the
    part beyond the last half period, which are 0.0 unless the sums stopped
    at max_half_periods without converging.
    """
    value, err, tail = np.empty(ax.size), np.empty(ax.size), np.zeros(ax.size)
    live = np.arange(ax.size)
    half = np.pi / ax
    total = np.zeros(ax.size)
    partials = np.empty((ax.size, 0))
    done = 0
    while live.size:
        h = half[live, None]
        mid = z0[live, None] + np.arange(done, done + _BATCH) * h + 0.5 * h
        # the nodes in groups of at most _BLOCK values; with the nodes
        # outermost, and the sum of the groups before leading each group,
        # the reduction adds the nodes one by one, in the same order for
        # every entry
        step = max(1, _BLOCK // (live.size * _BATCH))
        s = None
        for i in range(0, _GL_ORDER, step):
            lam = mid + 0.5 * h * _GL_NODES[i:i + step, None, None]
            vals = np.cos(lam * ax[live, None]) * weight(lam)
            vals *= _GL_WEIGHTS[i:i + step, None, None]
            s = np.add.reduce(vals if s is None
                              else np.concatenate((s[None], vals)), axis=0)
        terms = 0.5 * h * s
        done += _BATCH
        # accumulate adds in sequence, the order of a running total
        run = np.add.accumulate(np.concatenate((total[:, None], terms), axis=1),
                                axis=1)[:, 1:]
        total = run[:, -1]
        partials = np.concatenate((partials, run), axis=1)[:, -64:]
        val, e = _averaged_alternating(partials)
        last = np.abs(terms[:, -1])
        conv = (e + np.minimum(last, e) < tol[live]) | (last < tol[live] * 1e-3)
        stop = conv | (done >= cfg.max_half_periods)
        value[live[stop]] = val[stop]
        err[live[stop]] = np.where(conv, e + last * 2.0 ** (-min(done, 50)),
                                   e + last)[stop]
        # int_{z_end}^inf dt / (c_tail * t^gamma), z_end >= z0 >= 1
        cut = live[stop & ~conv]
        z_end = z0[cut] + cfg.max_half_periods * np.pi / ax[cut]
        tail[cut] = z_end ** (1.0 - gamma) / (c_tail * (gamma - 1.0))
        live, total, partials = live[~stop], total[~stop], partials[~stop]
    return value, err, tail


# -- the transforms ----------------------------------------------------------------

_OVERRUN = f"head did not converge in {_QUAD_LIMIT} panels"


def _fail_where(failures: dict, idx, mask, message: str, value, err):
    """Note a QuadratureError for each index idx[mask] that has none yet."""
    for i, v, e in zip(idx[mask], value[mask], err[mask]):
        failures.setdefault(int(i), QuadratureError(message, float(v), float(e)))


def _by_chunks(rows, xs) -> tuple[np.ndarray, np.ndarray]:
    """rows(ax) applied to chunks of _ROWS entries of |xs|; raises the
    QuadratureError of the smallest failing |x|, and a ValueError on a
    non-finite |x|."""
    ax = np.abs(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(ax)):
        raise ValueError(f"the transforms need finite x, got "
                         f"{ax[~np.isfinite(ax)][0]}")
    value, err = np.empty(ax.size), np.empty(ax.size)
    failures: dict[int, QuadratureError] = {}
    for start in range(0, ax.size, _ROWS):
        chunk = slice(start, start + _ROWS)
        value[chunk], err[chunk], failed = rows(ax[chunk])
        failures.update((start + i, exc) for i, exc in failed.items())
    if failures:
        raise failures[min(failures, key=lambda i: ax[i])]
    return value, err


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad(func, a, b, **kwargs), imported on the first
    call; excessive's indicator potential binds this same function."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(func, a, b, **kwargs)


def _cosine_rows(weight, ax, cfg, c_tail, gamma):
    value, err = np.empty(ax.size), np.empty(ax.size)
    failures: dict[int, QuadratureError] = {}
    zero = np.flatnonzero(ax == 0.0)
    if zero.size:
        # w may not be smooth at 0, where scipy's quad takes [0, 1]
        head, head_err = quad(lambda lam: float(weight(np.asarray(lam))), 0.0,
                              1.0, epsabs=cfg.abs_tol / 4,
                              epsrel=cfg.rel_tol / 4, limit=_QUAD_LIMIT)
        flat, flat_err, failed = smooth_tail(weight, np.ones(1), cfg, c_tail,
                                             gamma)
        v = head + flat[0]
        e = head_err + flat_err[0] + _gamma(1) * abs(v)
        if failed[0] or e > 4 * cfg.budget(v):
            failures.update((int(i), QuadratureError(
                "monotone tail did not converge", v, e)) for i in zero)
        value[zero], err[zero] = v, e
    pos = np.flatnonzero(ax > 0.0)
    a = ax[pos]
    z0 = _split_points(a)
    head, head_err, overran = _head(_cos, weight, a, z0, cfg)
    _fail_where(failures, pos, overran, _OVERRUN, head, head_err)
    series, series_err, tail = _period_sums(weight, a, z0, cfg.budget(head) / 2,
                                            cfg, c_tail, gamma)
    v = head + series
    e = head_err + series_err + tail + _gamma(2) * (np.abs(head) + np.abs(series))
    _fail_where(failures, pos, e > cfg.budget(v),
                "cosine transform did not converge", v, e)
    value[pos], err[pos] = v, e
    return value, err, failures


def cosine_halfline_array(weight, xs, cfg: QuadratureConfig, c_tail: float,
                          gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^inf cos(x*lam) w(lam) dlam and a posteriori error estimates,
    for each entry x of the 1-d array xs.

    The estimates are checked against the closed-form sweep and mpmath in
    the tests, not proved."""
    return _by_chunks(lambda ax: _cosine_rows(weight, ax, cfg, c_tail, gamma), xs)


def cosine_halfline(weight, x: float, cfg: QuadratureConfig,
                    c_tail: float, gamma: float) -> tuple[float, float]:
    """int_0^inf cos(x*lam) w(lam) dlam with an a posteriori error estimate
    (see cosine_halfline_array)."""
    value, err = cosine_halfline_array(weight, [x], cfg, c_tail, gamma)
    return float(value[0]), float(err[0])


def _one_minus_cos_rows(weight, ax, cfg, c_tail, gamma):
    value, err = np.zeros(ax.size), np.zeros(ax.size)
    failures: dict[int, QuadratureError] = {}
    pos = np.flatnonzero(ax > 0.0)
    a = ax[pos]
    z0 = _split_points(a)
    head, head_err, overran = _head(_one_minus_cos, weight, a, z0, cfg)
    _fail_where(failures, pos, overran, _OVERRUN, head, head_err)
    flat, flat_err, failed = smooth_tail(weight, z0, cfg, c_tail, gamma)
    _fail_where(failures, pos, failed, "monotone tail did not converge", flat,
                flat_err)
    scale = np.abs(head) + np.abs(flat)
    series, series_err, tail = _period_sums(weight, a, z0, cfg.budget(scale) / 2,
                                            cfg, c_tail, gamma)
    v = head + flat - series
    e = (head_err + flat_err + series_err + tail
         + _gamma(2) * (scale + np.abs(series)))
    _fail_where(failures, pos, e > 4 * cfg.budget(np.maximum(np.abs(v), scale)),
                "increment-variance transform did not converge", v, e)
    value[pos], err[pos] = v, e
    return value, err, failures


def one_minus_cos_halfline_array(weight, xs, cfg: QuadratureConfig,
                                 c_tail: float,
                                 gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^inf (1 - cos(x*lam)) w(lam) dlam and error bounds, for each entry
    x of the 1-d array xs."""
    return _by_chunks(
        lambda ax: _one_minus_cos_rows(weight, ax, cfg, c_tail, gamma), xs)


def one_minus_cos_halfline(weight, x: float, cfg: QuadratureConfig,
                           c_tail: float, gamma: float) -> tuple[float, float]:
    """int_0^inf (1 - cos(x*lam)) w(lam) dlam with an error bound."""
    value, err = one_minus_cos_halfline_array(weight, [x], cfg, c_tail, gamma)
    return float(value[0]), float(err[0])
