"""Diffusion potential families: increasing/decreasing products, the same
killed at zero, and time-changed Brownian motion through a scale function.

The product family is u(x, y) = p(min) * q(max) for a positive increasing
convex p and positive decreasing convex q.  Killing at zero subtracts
(p(0)/q(0)) q(x) q(y); the scale family is u(x, y) = 2 (s(x) ^ s(y)).  The
local scale tau(d) = q(d) p'(d) - p(d) q'(d) calibrates increment variances
against |x - y|, and the generator identity

    (L - beta) int u(., y) h(y) dy = -c_{p,q} h

with L = (1/2) d/dx b(x) d/dx is verified numerically on demand.  Both checks
are array formulas: h and b are called on arrays, one pass over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Expr

__all__ = [
    "PQPotential",
    "ScalePotential",
    "WronskianReport",
    "wronskian_defect",
    "concave_cap_value",
    "concave_cap_second_derivative",
    "is_excessive_for_scale",
    "riesz_reconstruct",
]

_GL64 = np.polynomial.legendre.leggauss(64)
_PANELS = 8              # panels of the composite Gauss-Legendre rule
_FD_STEP = 0.01          # step of the five-point generator stencil
_EIGEN_TOL = 1e-6        # eigen-identity residual a (p, q, b) triple may have
_INVERSE_TOL = 1e-12     # relative bracket width of the scale inverse
_EXCESSIVE_POINTS = 201  # sample points of the excessiveness check
_EXCESSIVE_TOL = 1e-7    # negativity and convexity allowance of that check


def _panel_integral(fn, a, b) -> np.ndarray:
    """Composite 64-point Gauss-Legendre integrals of fn over each [a, b].

    a and b broadcast together.  fn is called once, on the nodes of every
    nonempty interval as an (intervals, _PANELS, 64) array; each interval adds
    its panels in order, and an empty one (b <= a) gives exactly 0.0."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    live = b > a
    edges = np.linspace(a[live], b[live], _PANELS + 1, axis=-1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    nodes, weights = _GL64
    vals = fn(mid[..., None] + half[..., None] * nodes)
    # accumulate adds in order; a sum of 8 contiguous panels goes pairwise
    out[live] = np.add.accumulate(half * (vals @ weights), axis=-1)[:, -1]
    return out


def _check_on(xs: np.ndarray, where: str, checks):
    """Refuse unless fn is finite on xs and side(fn, 0) holds there, for
    each (fn, name, side, msg) of checks in turn.  An overflow or an
    invalid operation gives a non-finite value, which fails silently."""
    with np.errstate(all="ignore"):
        values = [np.asarray(fn(xs), dtype=float) for fn, *_ in checks]
    for vals, (_, name, side, msg) in zip(values, checks):
        if not np.isfinite(vals).all():
            raise ValueError(f"{name} must be finite on {where}")
        if not side(vals, 0.0).all():
            raise ValueError(f"{msg} on {where}")


@dataclass
class PQPotential:
    """u(x, y) = p(x)q(y) for x <= y, with a killing rate attached."""

    p: Expr
    q: Expr
    beta: float
    interval: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("the product family carries beta > 0")
        lo, hi = self.interval
        xs = np.linspace(lo, hi, 101)
        self.p1, self.q1 = self.p.diff(), self.q.diff()
        self.p2, self.q2 = self.p1.diff(), self.q1.diff()
        _check_on(xs, "the working interval", [
            (self.p, "p", np.greater, "p must be positive"),
            (self.q, "q", np.greater, "q must be positive"),
            (self.p1, "p'", np.greater, "p must be strictly increasing"),
            (self.q1, "q'", np.less, "q must be strictly decreasing"),
            (self.p2, "p''", np.greater, "p must be strictly convex"),
            (self.q2, "q''", np.greater, "q must be strictly convex"),
        ])

    def u(self, x, y):
        """p(x ^ y) q(x v y); scalars or arrays that broadcast together."""
        below = x <= y
        return self.p(np.where(below, x, y)) * self.q(np.where(below, y, x))

    def v(self, x, y):
        """Product kernel additionally killed at zero; vanishes as x or y -> 0."""
        if np.any(x < 0.0) or np.any(y < 0.0):
            raise ValueError("the killed kernel lives on x, y >= 0")
        ratio = float(self.p(0.0)) / float(self.q(0.0))
        return self.u(x, y) - ratio * self.q(x) * self.q(y)

    def tau(self, d: float) -> float:
        """Local increment scale q(d)p'(d) - p(d)q'(d); positive for valid pairs."""
        val = self.q(d) * self.p1(d) - self.p(d) * self.q1(d)
        if val <= 0.0:
            raise ValueError("nonpositive local scale: invalid p, q pair")
        return val

    def sigma2(self, x: float, y: float) -> float:
        return self.u(x, x) + self.u(y, y) - 2.0 * self.u(x, y)

    def eigen_residual(self, b: Expr) -> float:
        """Max relative residual of (1/2)(b f')' = beta f for f in {p, q}."""
        xs = np.linspace(*self.interval, 101)
        lf = 0.5 * (b(xs) * np.array([self.p2(xs), self.q2(xs)])
                    + b.diff()(xs) * np.array([self.p1(xs), self.q1(xs)]))
        bf = self.beta * np.array([self.p(xs), self.q(xs)])
        return float(np.max(np.abs(lf - bf) / np.maximum(np.abs(bf), 1e-300)))

    def wronskian(self, b: Expr, x):
        """(1/2) b(x) (q'(x)p(x) - q(x)p'(x)); constant and negative.  An
        array x gives the scalar calls' values, a scalar x a float."""
        return 0.5 * b(x) * (self.q1(x) * self.p(x) - self.q(x) * self.p1(x))


@dataclass
class WronskianReport:
    c_pq: float
    residuals: np.ndarray
    sup_residual: float
    wronskian_spread: float
    eigen_residual: float


def wronskian_defect(pot: PQPotential, b: Expr, h, h_support: tuple[float, float],
                     x_grid) -> WronskianReport:
    """Residuals of (L - beta) applied to the potential of h, plus c_{p,q} h.

    The pair is rejected when p and q fail the eigenfunction identity for the
    supplied coefficient b.  The potential is evaluated by composite
    quadrature and L by five-point finite differences, in one array pass:
    h and b are called on arrays, once per side of x for the quadrature.
    """
    eig = pot.eigen_residual(b)
    if not eig <= _EIGEN_TOL:     # a NaN residual fails too
        raise ValueError(f"pair fails the eigen identity: residual {eig:.3e}")
    lo, hi = h_support
    if not lo < hi:
        raise ValueError(f"h_support must satisfy lo < hi, got {h_support}")
    x_grid = np.asarray(x_grid, dtype=float)
    wron = pot.wronskian(b, x_grid)
    c_pq = -float(wron[0])
    spread = float(np.max(np.abs(wron - wron[0])))
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * _FD_STEP ** 2)
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * _FD_STEP)
    xs = x_grid[:, None] + np.arange(-2.0, 3.0) * _FD_STEP   # 5-point stencils
    left = _panel_integral(lambda y: pot.p(y) * h(y), lo, np.minimum(xs, hi))
    right = _panel_integral(lambda y: pot.q(y) * h(y), np.maximum(xs, lo), hi)
    f_vals = pot.q(xs) * left + pot.p(xs) * right
    lf = 0.5 * (b(x_grid) * (f_vals @ w2) + b.diff()(x_grid) * (f_vals @ w1))
    residuals = lf - pot.beta * f_vals[:, 2] + c_pq * h(x_grid)
    return WronskianReport(c_pq, residuals, float(np.max(np.abs(residuals))),
                           spread, eig)


@dataclass
class ScalePotential:
    """u(x, y) = 2 (s(x) ^ s(y)) for a strictly increasing s with s(0) = 0."""

    s: Expr
    hi: float = 10.0

    def __post_init__(self):
        with np.errstate(all="ignore"):
            s0 = self.s(0.0)        # a negative power blows up at 0
        if not abs(s0) <= 1e-12:
            raise ValueError("scale function must vanish at zero")
        xs = np.linspace(self.hi / 200.0, self.hi, 200)
        _check_on(xs, "(0, hi]", [
            (self.s.diff(), "s'", np.greater,
             "scale function must be strictly increasing"),
            (self.s, "s", np.greater, "scale function must be positive"),
        ])

    def u(self, x, y):
        """2 (s(x) ^ s(y)); scalars or arrays that broadcast together."""
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            raise ValueError("the scale kernel lives on x, y > 0")
        out = 2.0 * np.minimum(self.s(x), self.s(y))
        return out if np.ndim(out) else float(out)

    def inverse(self, target):
        """Preimage of each target under s by bisection; monotonicity makes
        it safe.  Each entry doubles its own bracket and stops on its own
        width, so it equals the call on its target alone; a scalar target
        gives a float."""
        t = np.asarray(target, dtype=float)
        lo, hi = np.zeros(t.shape), np.full(t.shape, float(self.hi))
        short = np.array(self.s(hi) < t)
        while np.any(short):
            hi[short] *= 2.0
            if np.any(hi[short] > 1e12):
                raise ValueError("target outside the reachable range of s")
            short[short] = self.s(hi[short]) < t[short]
        live = np.ones(t.shape, dtype=bool)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            live &= ~(hi - lo < _INVERSE_TOL * np.maximum(1.0, np.abs(mid)))
            if not np.any(live):
                break
            below = self.s(mid[live]) < t[live]
            lo[live] = np.where(below, mid[live], lo[live])
            hi[live] = np.where(below, hi[live], mid[live])
        out = 0.5 * (lo + hi)
        return out if out.ndim else float(out)


def concave_cap_value(p: float, s0: float, y):
    """1 - ((s0 - y)/s0)^p on (0, s0], capped at 1 beyond; p > 2."""
    y = np.asarray(y, dtype=float)
    inside = np.clip((s0 - y) / s0, 0.0, None)
    out = np.where(y >= s0, 1.0, 1.0 - np.power(inside, p))
    return out if out.ndim else float(out)


def concave_cap_second_derivative(p: float, s0: float, y):
    y = np.asarray(y, dtype=float)
    inside = np.clip((s0 - y) / s0, 0.0, None)
    out = np.where(y >= s0, 0.0,
                   -p * (p - 1.0) / (s0 * s0) * np.power(inside, p - 2.0))
    return out if out.ndim else float(out)


def is_excessive_for_scale(pot: ScalePotential, f, interval: tuple[float, float]):
    """Whether f factors through s as a concave function.

    Pulls f back through the numeric inverse of s and inspects second
    differences of the composition; returns (verdict, witness) where the
    witness is the first x whose pulled-back second difference is convex.
    """
    lo, hi = interval
    if lo <= 0.0:
        raise ValueError("interval must sit inside (0, inf)")
    xs = np.linspace(lo, hi, _EXCESSIVE_POINTS)
    fx = np.asarray(f(xs), dtype=float)
    if np.any(fx < -_EXCESSIVE_TOL):
        bad = xs[np.argmax(fx < -_EXCESSIVE_TOL)]
        return False, float(bad)
    y_lo, y_hi = float(pot.s(lo)), float(pot.s(hi))
    ys = np.linspace(y_lo, y_hi, _EXCESSIVE_POINTS)
    pulled = pot.inverse(ys)
    g = np.asarray(f(pulled), dtype=float)
    dy = ys[1] - ys[0]
    second = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dy ** 2
    scale = max(1.0, float(np.max(np.abs(g))))
    bad = second > _EXCESSIVE_TOL * scale / dy + 1e-6 * scale
    if np.any(bad):
        return False, float(pulled[1:-1][np.argmax(bad)])
    return True, None


def riesz_reconstruct(pot: ScalePotential, p: float, x0: float,
                      x_grid) -> np.ndarray:
    """Residuals of rebuilding the capped concave function from its curvature.

    The target is f(s(x)) with f the concave cap of exponent p > 2 flattening
    at s(x0), x0 > 0; the reconstruction integrates (s(x) ^ y) against
    -f''(y) dy over (0, s(x0)), in one quadrature pass per side of s(x).
    """
    if not p > 2.0:
        raise ValueError(f"cap exponent p must exceed 2, got {p}")
    if not x0 > 0.0:
        raise ValueError(f"flat point x0 must be positive, got {x0}")
    if not np.all(np.asarray(x_grid) > 0.0):
        raise ValueError("x_grid must lie inside (0, inf)")
    s0 = float(pot.s(x0))
    sx = pot.s(x_grid)
    cut = np.minimum(sx, s0)
    low = _panel_integral(
        lambda y: y * -concave_cap_second_derivative(p, s0, y), 0.0, cut)
    high = _panel_integral(
        lambda y: -concave_cap_second_derivative(p, s0, y), cut, s0)
    return low + sx * high - concave_cap_value(p, s0, sx)
