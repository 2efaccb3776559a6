"""Potential densities of symmetric Levy processes and derived quantities.

For an exponent psi and killing rate beta > 0 the potential density is

    u(x) = (1/pi) int_0^inf cos(lam*x) / (beta + psi(lam)) dlam,

with increment variance sigma2(x) = (2/pi) int (1-cos(lam*x))/(beta+psi(lam)),
defined for beta >= 0.  The beta = 0 objects phi and the hit-zero kernel
u0(x, y) = phi(x) + phi(y) - phi(x - y) stay finite even though u itself
diverges at beta = 0, so u() insists on beta > 0 while sigma2/phi/u0 accept
the unkilled case.  All evaluations go through the oscillatory half-line
quadrature; nothing here special-cases the quadratic exponent, whose closed
form is used only by tests as an oracle.

u, sigma2, phi, u0 and v take scalars or numpy arrays that broadcast
together.  The quadrature runs once per distinct |x|: an array sends all of
its uncached |x| through the array route of the quadrature in one call, and
a value does not depend on which call computed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import cos, gamma as gamma_fn, pi

import numpy as np

from .exponents import CharExponent
from .quadrature import (QuadratureConfig, cosine_halfline,
                         cosine_halfline_array, one_minus_cos_halfline,
                         one_minus_cos_halfline_array)

__all__ = [
    "LevyPotential",
    "regular_variation_constant",
    "check_sigma2_asymptotics",
    "check_sigma2_regularity",
    "RegularityReport",
]

_MIN_RV_INDEX = 1.0 + 1e-6
_REGULARITY_STEP = 1e-4    # relative step of the central differences
_REGULARITY_SLACK = 1e-3   # allowance of both regularity checks


def regular_variation_constant(r: float) -> float:
    """The constant C_r = (4/pi) int_0^inf sin^2(s/2) s^-r ds for r in (1, 2].

    Evaluated through the gamma-function identity C_r = -1/(Gamma(r) cos(pi r/2)),
    which is exact on the whole range and gives C_2 = 1.
    """
    r = float(r)
    if not _MIN_RV_INDEX < r <= 2.0:
        raise ValueError(f"index must lie in ({_MIN_RV_INDEX}, 2], got {r}")
    return -1.0 / (gamma_fn(r) * cos(pi * r / 2.0))


def _store(cache, factor, xs, vals, errs):
    """cache[x] = (factor * value / pi, factor * bound / pi) for each x; the
    scalar and the array routes scale and round alike."""
    for x, val, err in zip(xs, vals, errs):
        cache[float(x)] = (factor * float(val) / pi, factor * float(err) / pi)


@dataclass
class LevyPotential:
    """Evaluator bundle for one exponent and one killing rate."""

    psi: CharExponent
    beta: float = 0.0
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.beta < 0.0:
            raise ValueError("killing rate must be nonnegative")
        g0, _ = self.psi.support()
        if g0 <= 1.0 and self.psi.gaussian_coeff == 0.0:
            raise ValueError("exponent index at zero must exceed 1")
        self._u_cache: dict[float, tuple[float, float]] = {}
        self._s_cache: dict[float, tuple[float, float]] = {}

    # weight 1/(beta + psi) as a vectorized callable
    def _weight(self, beta: float):
        psi = self.psi

        def w(lam):
            return 1.0 / (beta + psi(lam))

        return w

    def _gather(self, cache, factor, transform, x):
        """Values at |x| from cache, after one transform call fills in every
        distinct |x| it lacks."""
        ax = np.abs(np.asarray(x, dtype=float))
        distinct, where = np.unique(ax.ravel(), return_inverse=True)
        missing = [t for t in distinct.tolist() if t not in cache]
        if missing:
            c, g = self.psi.tail_minorant()
            vals, errs = transform(self._weight(self.beta), np.array(missing),
                                   self.quad, c, g)
            _store(cache, factor, missing, vals, errs)
        out = np.array([cache[t][0] for t in distinct.tolist()])
        return out[where].reshape(ax.shape)

    # -- the killed potential density ----------------------------------

    def u_with_error(self, x: float) -> tuple[float, float]:
        if self.beta <= 0.0:
            raise ValueError("the potential density needs beta > 0")
        x = float(abs(x))
        if x not in self._u_cache:
            c, g = self.psi.tail_minorant()
            val, err = cosine_halfline(self._weight(self.beta), x, self.quad, c, g)
            _store(self._u_cache, 1.0, [x], [val], [err])
        return self._u_cache[x]

    def u(self, x):
        if np.ndim(x) == 0:     # a float, from the same array code
            return self.u_with_error(x)[0]
        if self.beta <= 0.0:
            raise ValueError("the potential density needs beta > 0")
        return self._gather(self._u_cache, 1.0, cosine_halfline_array, x)

    # -- increment variance, any beta >= 0 -----------------------------

    def sigma2_with_error(self, x: float) -> tuple[float, float]:
        x = float(abs(x))
        if x == 0.0:
            return 0.0, 0.0
        if x not in self._s_cache:
            c, g = self.psi.tail_minorant()
            val, err = one_minus_cos_halfline(self._weight(self.beta), x,
                                              self.quad, c, g)
            _store(self._s_cache, 2.0, [x], [val], [err])
        return self._s_cache[x]

    def sigma2(self, x):
        if np.ndim(x) == 0:     # a float, from the same array code
            return self.sigma2_with_error(x)[0]
        return self._gather(self._s_cache, 2.0, one_minus_cos_halfline_array, x)

    # -- unkilled objects ----------------------------------------------

    def phi(self, x):
        """Half the unkilled increment variance."""
        if self.beta != 0.0:
            raise ValueError("phi lives on the beta = 0 potential")
        return 0.5 * self.sigma2(x)

    def u0(self, x, y):
        """Kernel of the process killed on hitting zero."""
        if self.beta != 0.0:
            raise ValueError("the hit-zero kernel lives on the beta = 0 potential")
        return self.phi(x) + self.phi(y) - self.phi(x - y)

    def v(self, x, y):
        """Kernel after additionally killing at zero, beta > 0."""
        if self.beta <= 0.0:
            raise ValueError("v needs beta > 0")
        return self.u(x - y) - self.u(x) * self.u(y) / self.u(0.0)

    def u0_with_error(self, x: float, y: float) -> tuple[float, float]:
        """u0(x, y) and the bound (e(x) + e(y) + e(x - y)) / 2 propagated
        from the sigma2 bounds e."""
        val = self.u0(x, y)
        ex, ey, exy = (self.sigma2_with_error(t)[1] for t in (x, y, x - y))
        return val, (ex + ey + exy) / 2.0

    def v_with_error(self, x: float, y: float) -> tuple[float, float]:
        """v(x, y) and its bound: the bound on u(x - y) plus the largest
        change of u(x) u(y) / u(0) over the corners of the intervals that the
        bounds on u(x), u(y) and u(0) allow."""
        val = self.v(x, y)
        (ux, ex), (uy, ey), (uz, ez) = (self.u_with_error(t) for t in (x, y, 0.0))
        prod = ux * uy / uz
        spread = max(abs((ux + a * ex) * (uy + b * ey) / (uz + c * ez) - prod)
                     for a, b, c in product((-1.0, 1.0), repeat=3))
        return val, self.u_with_error(x - y)[1] + spread


def check_sigma2_asymptotics(pot: LevyPotential, xs) -> list[tuple[float, float]]:
    """Ratios sigma2(x) * |x| * psi(1/x) / C_r for a regularly varying exponent.

    The ratios trend to 1 as x -> 0; the caller decides what counts as close.
    """
    r = pot.psi.index_at_infinity()
    c_r = regular_variation_constant(r)
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.abs(xs) > 0.0):
        raise ValueError("asymptotic check needs x != 0")
    ratios = pot.sigma2(xs) * np.abs(xs) * pot.psi(1.0 / xs) / c_r
    return list(zip(xs.tolist(), ratios.tolist()))


@dataclass
class RegularityReport:
    derivative_ok: bool
    max_derivative_ratio: float
    derivative_witness: float | None
    concavity_checked: bool
    concavity_ok: bool
    concavity_witness: float | None


def check_sigma2_regularity(pot: LevyPotential, grid) -> RegularityReport:
    """Sampled smoothness checks for a stable-mixture increment variance.

    (a) |d sigma2 / dx| <= sigma2(x)/x up to _REGULARITY_SLACK, via central
        differences of relative step _REGULARITY_STEP;
    (b) for beta = 0 (and a non-quadratic exponent) second differences are
        nonpositive up to _REGULARITY_SLACK; skipped otherwise, where nothing
        is claimed.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0):
        raise ValueError("regularity grid must be positive")
    h = _REGULARITY_STEP * grid
    s_p, s_m, s_0 = pot.sigma2(np.array([grid + h, grid - h, grid]))
    bound = s_0 / grid
    ratio = np.divide(np.abs((s_p - s_m) / (2.0 * h)), bound,
                      out=np.full_like(bound, np.inf), where=bound > 0.0)
    steep = grid[ratio > 1.0 + _REGULARITY_SLACK]      # in grid order
    deriv = (not steep.size, float(np.max(ratio, initial=0.0)),
             float(steep[0]) if steep.size else None)
    if pot.psi.is_pure_gaussian or pot.beta != 0.0:
        return RegularityReport(*deriv, False, True, None)

    xs, first = np.unique(grid, return_index=True)   # distinct and increasing
    vals = s_0[first]
    hl, hr = xs[1:-1] - xs[:-2], xs[2:] - xs[1:-1]
    # divided second difference; <= 0 for a concave function
    d2 = 2.0 * (hl * vals[2:] - (hl + hr) * vals[1:-1] + hr * vals[:-2])
    d2 /= hl * hr * (hl + hr)
    convex = xs[1:-1][d2 > _REGULARITY_SLACK * np.maximum(1.0, np.abs(vals[1:-1]))]
    return RegularityReport(*deriv, True, not convex.size,
                            float(convex[0]) if convex.size else None)
