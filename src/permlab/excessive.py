"""Excessive functions as potentials of measures.

Only potential-type constructions are accepted: indicator-interval potentials
of translation-invariant bases, atomic-measure potentials, constants, and the
capped concave family for scale kernels.  Arbitrary callables are rejected
because nothing could certify them.  The discrete surrogate for
excessiveness, min over j of (U^-1 f)_j >= -tol on a grid Gram matrix U, is
exposed here and consumed by the kernel-algebra layer.

Every excessive function and derivative takes a scalar, giving a float, or
an array, giving an array of its shape equal to the scalar calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _wire as wire
from ._pointwise import map_distinct
from .bases import ScaleMinBase, mirror_upper
from .diffusion import concave_cap_value

__all__ = [
    "IndicatorPotential",
    "AtomicPotential",
    "ConstantExcessive",
    "ScaleConcaveExcessive",
    "make_flat_pair",
    "gram_surrogate_min",
    "on_grid",
    "excessive_from_spec",
]

_FLAT_WIDTHS = (1.0, 1.5)       # nested windows of the translation-invariant pair
_FLAT_DERIVATIVE_TOL = 1e-8     # |derivative| at x0 a flat function may have


@dataclass(frozen=True)
class IndicatorPotential:
    """f(x) = integral of the radial kernel over the window [a, b]."""

    base: object
    a: float
    b: float

    def __post_init__(self):
        if not getattr(self.base, "translation_invariant", False):
            raise ValueError("indicator potentials need a translation-invariant base")
        if not self.a < self.b:
            raise ValueError("window must satisfy a < b")

    def __call__(self, x):
        def window(t: float) -> float:
            lo, hi = t - self.b, t - self.a
            return quad(self.base.radial, lo, hi, epsabs=1e-10, epsrel=1e-9,
                        limit=100, points=[0.0] if lo < 0.0 < hi else None)[0]

        return map_distinct(window, x)

    def derivative(self, x):
        return self.base.radial(x - self.a) - self.base.radial(x - self.b)


@dataclass(frozen=True)
class AtomicPotential:
    """f(x) = sum of w * kernel(x, location) over the atoms."""

    base: object
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("an atomic potential needs at least one atom")
        for _, w in self.atoms:
            if w <= 0.0:
                raise ValueError("atom weights must be positive")

    def __call__(self, x):
        locs, w = np.array(self.atoms).T
        terms = self.base.gram(np.ravel(x), locs) * w
        # summed one atom after another, in their order
        total = np.add.accumulate(terms, axis=-1)[:, -1].reshape(np.shape(x))
        return total if total.ndim else float(total)


@dataclass(frozen=True)
class ConstantExcessive:
    c: float

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError("constant must be nonnegative")

    def __call__(self, x):
        return np.full(np.shape(x), self.c) if np.ndim(x) else float(self.c)


@dataclass(frozen=True)
class ScaleConcaveExcessive:
    """Capped concave function of the scale, flat beyond x0; exponent > 2."""

    base: ScaleMinBase
    p: float
    x0: float

    def __post_init__(self):
        if self.p <= 2.0:
            raise ValueError("cap exponent must exceed 2")
        if self.x0 <= 0.0:
            raise ValueError("flat point must be positive")

    # numpy's vector power can differ from libm's in the last ulp, so the cap
    # and its slope run once per distinct point, as s does
    def __call__(self, x):
        s = self.base.pot.s
        s0 = float(s(self.x0))
        return map_distinct(lambda t: concave_cap_value(self.p, s0, float(s(t))), x)

    def derivative(self, x):
        s, ds = self.base.pot.s, self.base.pot.s.diff()
        s0 = float(s(self.x0))

        def slope(t):   # 0 beyond x0, where s(t) >= s0
            inside = max((s0 - float(s(t))) / s0, 0.0)
            return (self.p / s0) * inside ** (self.p - 1.0) * float(ds(t))

        return map_distinct(slope, x)


def make_flat_pair(base, x0: float):
    """Two excessive functions with vanishing derivative at x0 that are not
    proportional near x0.

    Translation-invariant bases get nested symmetric window potentials; scale
    bases get capped concave functions of exponents 3 and 4.  Other bases are
    rejected.  Flatness is checked numerically before returning.
    """
    if getattr(base, "translation_invariant", False):
        w1, w2 = _FLAT_WIDTHS
        f = IndicatorPotential(base, x0 - w1 / 2.0, x0 + w1 / 2.0)
        g = IndicatorPotential(base, x0 - w2 / 2.0, x0 + w2 / 2.0)
    elif isinstance(base, ScaleMinBase):
        if x0 <= 0.0:
            raise ValueError("zero is outside the state space of a scale base")
        f = ScaleConcaveExcessive(base, 3.0, x0)
        g = ScaleConcaveExcessive(base, 4.0, x0)
    else:
        raise ValueError("no flat-pair construction for this base")
    if max(abs(f.derivative(x0)), abs(g.derivative(x0))) > _FLAT_DERIVATIVE_TOL:
        raise ValueError("constructed function is not flat at x0")
    # second-difference disparity certifies non-proportionality
    h = 1e-2 * (abs(x0) + 1.0)
    side = -1.0 if isinstance(base, ScaleMinBase) else 1.0
    xs = np.array([x0, x0 + side * h, x0 + side * 2 * h])
    at_x0, near, far = np.array([f(xs), g(xs)]).T
    ratios = (far - 2.0 * near + at_x0) / np.maximum(at_x0, 1e-300)
    if abs(ratios[0] - ratios[1]) <= 1e-12 * np.max(np.abs(ratios)):
        raise ValueError("flat pair degenerated to proportional functions")
    return f, g


def gram_surrogate_min(base, fn, points) -> float:
    """min over j of (U^-1 fvec)_j for the grid Gram matrix U of the base.

    Nonnegative (up to roundoff) exactly when fn passes the discrete
    excessiveness surrogate on this grid.
    """
    pts = np.asarray(points, dtype=float)
    U = mirror_upper(base.gram(pts, pts))
    return float(np.min(np.linalg.solve(U, on_grid(fn, pts))))


def on_grid(fn, pts: np.ndarray) -> np.ndarray:
    """fn(pts) as a new float array of pts' shape; a scalar result is
    broadcast, and a result of another shape raises ValueError."""
    return np.array(np.broadcast_to(fn(pts), pts.shape), dtype=float)


_FIELDS = {
    "indicator": {"kind", "a", "b"},
    "atoms": {"kind", "atoms"},
    "const": {"kind", "c"},
    "scale_concave": {"kind", "p", "x0"},
}


def excessive_from_spec(spec: dict, base):
    kind = wire.kind_of(spec, _FIELDS, "excessive")
    what = f"{kind!r} excessive spec"
    wire.check_fields(spec, _FIELDS[kind], _FIELDS[kind], what)
    if kind == "indicator":
        return IndicatorPotential(base, wire.number(spec, "a", what),
                                  wire.number(spec, "b", what))
    if kind == "atoms":
        return AtomicPotential(base, wire.pairs(spec, "atoms", what))
    if kind == "const":
        return ConstantExcessive(wire.number(spec, "c", what))
    return ScaleConcaveExcessive(base, wire.number(spec, "p", what),
                                 wire.number(spec, "x0", what))
