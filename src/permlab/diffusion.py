"""Diffusion potential families: increasing/decreasing products, the same
killed at zero, and time-changed Brownian motion through a scale function.

The product family is u(x, y) = p(min) * q(max) for a positive increasing
convex p and positive decreasing convex q.  Killing at zero subtracts
(p(0)/q(0)) q(x) q(y); the scale family is u(x, y) = 2 (s(x) ^ s(y)).  The
local scale tau(d) = q(d) p'(d) - p(d) q'(d) calibrates increment variances
against |x - y|, and the generator identity

    (L - beta) int u(., y) h(y) dy = -c_{p,q} h

with L = (1/2) d/dx b(x) d/dx is verified numerically on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pointwise import map_distinct
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


def _panel_integral(fn, a: float, b: float) -> float:
    """Composite 64-point Gauss-Legendre integral of fn over [a, b]."""
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, _PANELS + 1)
    nodes, weights = _GL64
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * float(weights @ fn(mid + half * nodes))
    return total


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
        p1, q1 = self.p.diff(), self.q.diff()
        p2, q2 = p1.diff(), q1.diff()
        checks = [
            (np.all(self.p(xs) > 0), "p must be positive"),
            (np.all(self.q(xs) > 0), "q must be positive"),
            (np.all(p1(xs) > 0), "p must be strictly increasing"),
            (np.all(q1(xs) < 0), "q must be strictly decreasing"),
            (np.all(p2(xs) > 0), "p must be strictly convex"),
            (np.all(q2(xs) > 0), "q must be strictly convex"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg + " on the working interval")

    def u(self, x, y):
        """p(x ^ y) q(x v y); scalars or arrays that broadcast together."""
        below = x <= y
        return (map_distinct(self.p, np.where(below, x, y))
                * map_distinct(self.q, np.where(below, y, x)))

    def v(self, x, y):
        """Product kernel additionally killed at zero; vanishes as x or y -> 0."""
        if np.any(x < 0.0) or np.any(y < 0.0):
            raise ValueError("the killed kernel lives on x, y >= 0")
        ratio = float(self.p(0.0)) / float(self.q(0.0))
        return (self.u(x, y) - ratio * map_distinct(self.q, x)
                * map_distinct(self.q, y))

    def tau(self, d: float) -> float:
        """Local increment scale q(d)p'(d) - p(d)q'(d); positive for valid pairs."""
        val = (float(self.q(d)) * float(self.p.diff()(d))
               - float(self.p(d)) * float(self.q.diff()(d)))
        if val <= 0.0:
            raise ValueError("nonpositive local scale: invalid p, q pair")
        return val

    def sigma2(self, x: float, y: float) -> float:
        return self.u(x, x) + self.u(y, y) - 2.0 * self.u(x, y)

    def eigen_residual(self, b: Expr) -> float:
        """Max relative residual of (1/2)(b f')' = beta f for f in {p, q}."""
        lo, hi = self.interval
        xs = np.linspace(lo, hi, 101)
        b1 = b.diff()
        worst = 0.0
        for f in (self.p, self.q):
            f1, f2 = f.diff(), f.diff().diff()
            lf = 0.5 * (np.asarray(b(xs)) * f2(xs) + np.asarray(b1(xs)) * f1(xs))
            res = np.max(np.abs(lf - self.beta * np.asarray(f(xs)))
                         / np.maximum(np.abs(self.beta * np.asarray(f(xs))), 1e-300))
            worst = max(worst, float(res))
        return worst

    def wronskian(self, b: Expr, x: float) -> float:
        """(1/2) b(x) (q'(x)p(x) - q(x)p'(x)); constant and negative."""
        return 0.5 * float(b(x)) * (float(self.q.diff()(x)) * float(self.p(x))
                                    - float(self.q(x)) * float(self.p.diff()(x)))


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
    quadrature and L by five-point finite differences.
    """
    eig = pot.eigen_residual(b)
    if eig > _EIGEN_TOL:
        raise ValueError(f"pair fails the eigen identity: residual {eig:.3e}")
    lo, hi = h_support

    def potential_of_h(x: float) -> float:
        left = _panel_integral(lambda y: np.asarray(pot.p(y)) * h(y),
                               lo, min(x, hi))
        right = _panel_integral(lambda y: np.asarray(pot.q(y)) * h(y),
                                max(x, lo), hi)
        return float(pot.q(x)) * left + float(pot.p(x)) * right

    b1 = b.diff()
    x_grid = np.asarray(x_grid, dtype=float)
    c_pq = -pot.wronskian(b, float(x_grid[0]))
    spread = max(abs(pot.wronskian(b, x) - pot.wronskian(b, float(x_grid[0])))
                 for x in x_grid)
    residuals = np.empty_like(x_grid)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * _FD_STEP
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * _FD_STEP ** 2)
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * _FD_STEP)
    for i, x in enumerate(x_grid):
        f_vals = np.array([potential_of_h(x + o) for o in offsets])
        f2 = float(w2 @ f_vals)
        f1 = float(w1 @ f_vals)
        lf = 0.5 * (float(b(x)) * f2 + float(b1(x)) * f1)
        residuals[i] = lf - pot.beta * f_vals[2] + c_pq * float(h(x))
    return WronskianReport(c_pq, residuals, float(np.max(np.abs(residuals))),
                           spread, eig)


@dataclass
class ScalePotential:
    """u(x, y) = 2 (s(x) ^ s(y)) for a strictly increasing s with s(0) = 0."""

    s: Expr
    hi: float = 10.0

    def __post_init__(self):
        if abs(float(self.s(0.0))) > 1e-12:
            raise ValueError("scale function must vanish at zero")
        xs = np.linspace(self.hi / 200.0, self.hi, 200)
        if not np.all(np.asarray(self.s.diff()(xs)) > 0):
            raise ValueError("scale function must be strictly increasing")
        if not np.all(np.asarray(self.s(xs)) > 0):
            raise ValueError("scale function must be positive on (0, hi]")

    def u(self, x, y):
        """2 (s(x) ^ s(y)); scalars or arrays that broadcast together."""
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            raise ValueError("the scale kernel lives on x, y > 0")
        out = 2.0 * np.minimum(map_distinct(self.s, x), map_distinct(self.s, y))
        return out if np.ndim(out) else float(out)

    def inverse(self, target: float) -> float:
        """Preimage of target under s by bisection; monotonicity makes it safe."""
        lo, hi = 0.0, self.hi
        s_hi = float(self.s(hi))
        while s_hi < target:
            hi *= 2.0
            s_hi = float(self.s(hi))
            if hi > 1e12:
                raise ValueError("target outside the reachable range of s")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo < _INVERSE_TOL * max(1.0, abs(mid)):
                break
            if float(self.s(mid)) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def concave_cap_value(p: float, s0: float, y):
    """1 - ((s0 - y)/s0)^p on (0, s0], capped at 1 beyond; p > 2."""
    y = np.asarray(y, dtype=float)
    inside = np.clip((s0 - y) / s0, 0.0, None)
    out = np.where(y >= s0, 1.0, 1.0 - inside ** p)
    return out if out.ndim else float(out)


def concave_cap_second_derivative(p: float, s0: float, y):
    y = np.asarray(y, dtype=float)
    inside = np.clip((s0 - y) / s0, 0.0, None)
    out = np.where(y >= s0, 0.0, -p * (p - 1.0) / s0 ** 2 * inside ** (p - 2.0))
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
    g = np.array([float(np.asarray(f(pot.inverse(y)))) for y in ys])
    dy = ys[1] - ys[0]
    second = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dy ** 2
    scale = max(1.0, float(np.max(np.abs(g))))
    bad = second > _EXCESSIVE_TOL * scale / dy + 1e-6 * scale
    if np.any(bad):
        witness = pot.inverse(float(ys[1:-1][np.argmax(bad)]))
        return False, witness
    return True, None


def riesz_reconstruct(pot: ScalePotential, p: float, x0: float,
                      x_grid) -> np.ndarray:
    """Residuals of rebuilding the capped concave function from its curvature.

    The target is f(s(x)) with f the concave cap of exponent p flattening at
    s(x0); the reconstruction integrates (s(x) ^ y) against -f''(y) dy over
    (0, s(x0)).
    """
    s0 = float(pot.s(x0))
    out = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        sx = float(pot.s(x))
        cut = min(sx, s0)

        def low(y):
            return np.asarray(y) * (-concave_cap_second_derivative(p, s0, y))

        def high(y):
            return sx * (-concave_cap_second_derivative(p, s0, np.asarray(y)))

        rebuilt = _panel_integral(low, 0.0, cut)
        rebuilt += _panel_integral(high, cut, s0)
        out[i] = rebuilt - concave_cap_value(p, s0, sx)
    return out
