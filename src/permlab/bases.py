"""Grid-evaluable symmetric kernels shared by the excessive-function and
matrix-algebra layers.

Every base exposes kernel(x, y); translation-invariant ones additionally have
radial(t) with kernel(x, y) = radial(x - y).  positive_domain marks state
spaces that exclude the origin (kernels of processes killed on hitting 0).
Both flags are class attributes, fixed by the family, not dataclass fields.

Every base also has two array methods on a grid xs x ys:

    gram(xs, ys)[i, j]   = kernel(xs[i], ys[j])
    sigma2(xs, ys)[i, j] = increment variance of the points xs[i], ys[j]

gram runs the same formula as kernel, which takes scalars or arrays that
broadcast together.  sigma2 is k(x, x) + k(y, y) - 2 k(x, y) unless a base
has a route free of that cancellation: a closed form, the Levy quadrature, or
the scale difference.  Neither method mirrors its result: the killed product
kernel rounds (r q(x)) q(y) differently from (r q(y)) q(x), so callers that
need an exactly symmetric square grid copy the upper triangle down with
mirror_upper.

Closed-form kernels run numpy ufuncs only (np.exp, np.power, never math.exp
or a scalar **), once per grid, and a scalar call goes through the same
ufuncs on 0-d input and returns a float.  So a scalar call equals the
matching grid entry bit for bit.  The values follow numpy's SIMD dispatch,
not libm, and can differ by a few ulps between CPUs with and without AVX-512.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .diffusion import PQPotential, ScalePotential
from .expressions import Affine
from .potentials import LevyPotential, regular_variation_constant

__all__ = [
    "ExpDecayBase",
    "LevyBase",
    "HitZeroLevyBase",
    "StableHitZeroBase",
    "VBetaBase",
    "PQBase",
    "VPQBase",
    "ScaleMinBase",
    "brownian_unit_base",
    "brownian_min_kernel",
    "mirror_upper",
]


def _grid(xs, ys):
    """xs as a column and ys as a row, so that formulas broadcast to the grid."""
    return np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]


def mirror_upper(mat: np.ndarray) -> np.ndarray:
    """mat with its strict upper triangle copied onto the lower one, in place."""
    lower = np.tril_indices(len(mat), -1)
    mat[lower] = mat.T[lower]
    return mat


class _GridKernel:
    """gram through kernel, and the increment variance from kernel values."""

    # each base overrides the flags that hold for it
    positive_domain = False
    translation_invariant = False

    def gram(self, xs, ys) -> np.ndarray:
        return self.kernel(*_grid(xs, ys))

    def sigma2(self, xs, ys) -> np.ndarray:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        return (self.kernel(xs, xs)[:, None] + self.kernel(ys, ys)[None, :]
                - 2.0 * self.gram(xs, ys))


@dataclass(frozen=True)
class ExpDecayBase(_GridKernel):
    """Closed form exp(-sqrt(beta/C)|t|) / (2 sqrt(beta C)) kernel.

    This is the exponentially killed quadratic-exponent potential written out
    explicitly; with beta = C = 1/2 it is exactly exp(-|t|).
    """

    beta: float = 0.5
    C: float = 0.5
    translation_invariant = True

    def __post_init__(self):
        for name in ("beta", "C"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"exp_decay field {name!r} must be positive, "
                                 f"got {value!r}")

    def radial(self, t):
        rate, denom = sqrt(self.beta / self.C), 2.0 * sqrt(self.beta * self.C)
        out = np.exp(-rate * np.abs(t)) / denom
        return out if np.ndim(out) else float(out)

    def kernel(self, x, y):
        return self.radial(x - y)

    def sigma2(self, xs, ys) -> np.ndarray:
        # 2 (k(0) - k(t)) through expm1, exact at tiny offsets
        rate = sqrt(self.beta / self.C)
        amp = 1.0 / (2.0 * sqrt(self.beta * self.C))
        return -2.0 * amp * np.expm1(-rate * np.abs(np.subtract.outer(xs, ys)))


def brownian_unit_base() -> ExpDecayBase:
    """The unit-amplitude exponential kernel exp(-|x - y|)."""
    return ExpDecayBase(beta=0.5, C=0.5)


@dataclass(frozen=True)
class LevyBase(_GridKernel):
    """Quadrature-backed translation-invariant potential, beta > 0."""

    pot: LevyPotential
    translation_invariant = True

    def radial(self, t):
        return self.pot.u(t)

    def kernel(self, x, y):
        return self.pot.u(x - y)

    def sigma2(self, xs, ys) -> np.ndarray:
        return self.pot.sigma2(np.subtract.outer(xs, ys))


@dataclass(frozen=True)
class HitZeroLevyBase(_GridKernel):
    """Quadrature-backed kernel of the unkilled process stopped at zero."""

    pot: LevyPotential
    positive_domain = True

    def kernel(self, x, y):
        return self.pot.u0(x, y)


@dataclass(frozen=True)
class StableHitZeroBase(_GridKernel):
    """Closed form stable hit-zero kernel (C_{rho+1}/2)(|x|^rho + |y|^rho - |x-y|^rho)."""

    rho: float
    positive_domain = True

    def kernel(self, x, y):
        c = regular_variation_constant(self.rho + 1.0) / 2.0
        out = c * (np.power(np.abs(x), self.rho) + np.power(np.abs(y), self.rho)
                   - np.power(np.abs(x - y), self.rho))
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class VBetaBase(_GridKernel):
    """Killed-at-zero kernel u(x-y) - u(x)u(y)/u(0), beta > 0."""

    pot: LevyPotential
    positive_domain = True

    def kernel(self, x, y):
        return self.pot.v(x, y)


@dataclass(frozen=True)
class PQBase(_GridKernel):
    pot: PQPotential

    def kernel(self, x, y):
        return self.pot.u(x, y)


@dataclass(frozen=True)
class VPQBase(_GridKernel):
    pot: PQPotential
    positive_domain = True

    def kernel(self, x, y):
        return self.pot.v(x, y)


@dataclass(frozen=True)
class ScaleMinBase(_GridKernel):
    pot: ScalePotential
    positive_domain = True

    def kernel(self, x, y):
        return self.pot.u(x, y)

    def sigma2(self, xs, ys) -> np.ndarray:
        # the kernel 2 (s ^ s) has increment variance 2 |s(x) - s(y)|
        sx, sy = (self.pot.s(p) for p in _grid(xs, ys))
        return 2.0 * np.abs(sx - sy)


def brownian_min_kernel() -> ScaleMinBase:
    """u(x, y) = 2 (x ^ y), the hit-zero kernel of the quadratic case."""
    return ScaleMinBase(ScalePotential(Affine(1.0, 0.0)))
