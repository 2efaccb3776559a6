"""Excessive functions as potentials of measures.

Only potential-type constructions are accepted: indicator-interval potentials
of translation-invariant bases, atomic-measure potentials, constants, and the
capped concave family for scale kernels.  Arbitrary callables are rejected
because nothing could certify them.  The discrete surrogate for
excessiveness, min over j of (U^-1 f)_j >= -tol on a grid Gram matrix U, is
exposed here and consumed by the kernel-algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _wire as wire
from .bases import ScaleMinBase, mirror_upper
from .diffusion import concave_cap_value

__all__ = [
    "IndicatorPotential",
    "AtomicPotential",
    "ConstantExcessive",
    "ScaleConcaveExcessive",
    "make_flat_pair",
    "gram_surrogate_min",
    "excessive_from_spec",
]


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

    def __call__(self, x: float) -> float:
        lo, hi = x - self.b, x - self.a
        val, _ = quad(lambda t: self.base.radial(t), lo, hi,
                      epsabs=1e-10, epsrel=1e-9, limit=100,
                      points=[0.0] if lo < 0.0 < hi else None)
        return val

    def derivative(self, x: float) -> float:
        return self.base.radial(x - self.a) - self.base.radial(x - self.b)


@dataclass(frozen=True)
class AtomicPotential:
    """f(x) = sum of w * kernel(x, location) over the atoms."""

    base: object
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for _, w in self.atoms:
            if w <= 0.0:
                raise ValueError("atom weights must be positive")

    def __call__(self, x: float) -> float:
        return sum(w * self.base.kernel(x, loc) for loc, w in self.atoms)


@dataclass(frozen=True)
class ConstantExcessive:
    c: float

    def __post_init__(self):
        if self.c < 0.0:
            raise ValueError("constant must be nonnegative")

    def __call__(self, x: float) -> float:
        return self.c


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

    def __call__(self, x: float) -> float:
        s = self.base.pot.s
        return concave_cap_value(self.p, float(s(self.x0)), float(s(x)))

    def derivative(self, x: float) -> float:
        s = self.base.pot.s
        s0 = float(s(self.x0))
        sx = float(s(x))
        if sx >= s0:
            return 0.0
        return (self.p / s0) * ((s0 - sx) / s0) ** (self.p - 1.0) * float(s.diff()(x))


def make_flat_pair(base, x0: float, widths: tuple[float, float] = (1.0, 1.5),
                   derivative_tol: float = 1e-8):
    """Two excessive functions with vanishing derivative at x0 that are not
    proportional near x0.

    Translation-invariant bases get nested symmetric window potentials; scale
    bases get capped concave functions of exponents 3 and 4.  Other bases are
    rejected.  Flatness is checked numerically before returning.
    """
    if getattr(base, "translation_invariant", False):
        w1, w2 = widths
        if not 0.0 < w1 < w2:
            raise ValueError("widths must be positive and nested")
        f = IndicatorPotential(base, x0 - w1 / 2.0, x0 + w1 / 2.0)
        g = IndicatorPotential(base, x0 - w2 / 2.0, x0 + w2 / 2.0)
    elif isinstance(base, ScaleMinBase):
        if x0 <= 0.0:
            raise ValueError("zero is outside the state space of a scale base")
        f = ScaleConcaveExcessive(base, 3.0, x0)
        g = ScaleConcaveExcessive(base, 4.0, x0)
    else:
        raise ValueError("no flat-pair construction for this base")
    for fn in (f, g):
        if abs(fn.derivative(x0)) > derivative_tol:
            raise ValueError("constructed function is not flat at x0")
    # second-difference disparity certifies non-proportionality
    h = 1e-2 * (abs(x0) + 1.0)
    side = -1.0 if isinstance(base, ScaleMinBase) else 1.0
    xs = (x0 + side * h, x0 + side * 2 * h)
    ratios = []
    for fn in (f, g):
        d2 = fn(xs[1]) - 2.0 * fn(xs[0]) + fn(x0)
        ratios.append(d2 / max(fn(x0), 1e-300))
    if abs(ratios[0] - ratios[1]) <= 1e-12 * max(map(abs, ratios)):
        raise ValueError("flat pair degenerated to proportional functions")
    return f, g


def gram_surrogate_min(base, fn, points) -> float:
    """min over j of (U^-1 fvec)_j for the grid Gram matrix U of the base.

    Nonnegative (up to roundoff) exactly when fn passes the discrete
    excessiveness surrogate on this grid.
    """
    pts = [float(p) for p in points]
    U = mirror_upper(base.gram(pts, pts))
    fvec = np.array([float(fn(p)) for p in pts])
    coeffs = np.linalg.solve(U, fvec)
    return float(np.min(coeffs))


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
