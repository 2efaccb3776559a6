"""Symmetric characteristic exponents built from a quadratic part and stable atoms.

An exponent here is psi(lam) = C*lam**2 + sum_i w_i*|lam|**s_i with C >= 0,
w_i > 0 and 1 < s_i < 2.  Atoms placed exactly at s = 2 are folded into the
quadratic coefficient at construction time, so the atomic part never carries
mass at the endpoint.  Everything needed downstream (values, two derivatives,
two-sided power bounds, tail minorants) is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _wire as wire

__all__ = ["CharExponent", "exponent_from_spec"]

_DEFAULT_BAND = 0.05


@dataclass(frozen=True)
class CharExponent:
    """psi(lam) = gaussian_coeff * lam^2 + sum of w * |lam|^s over atoms."""

    atoms: tuple[tuple[float, float], ...] = field(default=())
    gaussian_coeff: float = 0.0

    def __post_init__(self):
        folded = []
        extra_c = 0.0
        for s, w in self.atoms:
            s = float(s)
            w = float(w)
            if w <= 0.0:
                raise ValueError(f"atom weight must be positive, got {w}")
            if not 1.0 < s <= 2.0:
                raise ValueError(f"atom exponent must lie in (1, 2], got {s}")
            if s == 2.0:
                extra_c += w
            else:
                folded.append((s, w))
        c = float(self.gaussian_coeff) + extra_c
        if c < 0.0:
            raise ValueError("gaussian coefficient must be nonnegative")
        if c == 0.0 and not folded:
            raise ValueError("exponent is identically zero")
        folded.sort()
        object.__setattr__(self, "atoms", tuple(folded))
        object.__setattr__(self, "gaussian_coeff", c)

    # -- constructors -------------------------------------------------

    @classmethod
    def pure_stable(cls, index: float) -> "CharExponent":
        """|lam|^index with index in (1, 2]; index 2 is the quadratic case."""
        return cls(atoms=((float(index), 1.0),))

    @classmethod
    def stable_mixture(cls, atoms) -> "CharExponent":
        return cls(atoms=tuple((float(s), float(w)) for s, w in atoms))

    @classmethod
    def gaussian(cls, coeff: float) -> "CharExponent":
        return cls(atoms=(), gaussian_coeff=float(coeff))

    @classmethod
    def gaussian_plus(cls, coeff: float, atoms=()) -> "CharExponent":
        return cls(atoms=tuple((float(s), float(w)) for s, w in atoms),
                   gaussian_coeff=float(coeff))

    # -- basic structure ----------------------------------------------

    @property
    def kind(self) -> str:
        if not self.atoms:
            return "gaussian"
        if self.gaussian_coeff > 0.0:
            return "gaussian_plus"
        if len(self.atoms) == 1 and self.atoms[0][1] == 1.0:
            return "stable"
        return "mixture"

    @property
    def is_pure_gaussian(self) -> bool:
        return not self.atoms

    @property
    def total_mass(self) -> float:
        """Mass of the defining measure, quadratic part counted at s = 2."""
        return self.gaussian_coeff + sum(w for _, w in self.atoms)

    def support(self) -> tuple[float, float]:
        """Smallest and largest exponent carrying mass (2 if quadratic part)."""
        exps = [s for s, _ in self.atoms]
        if self.gaussian_coeff > 0.0:
            exps.append(2.0)
        return min(exps), max(exps)

    def index_at_infinity(self) -> float:
        """Growth index of psi at infinity."""
        return self.support()[1]

    def tail_minorant(self) -> tuple[float, float]:
        """(c, gamma) with psi(lam) >= c*lam**gamma for lam >= 1, gamma > 1.

        Uses the single component of largest exponent, which gives the
        strongest integrable-tail bound for 1/psi.
        """
        if self.gaussian_coeff > 0.0:
            return self.gaussian_coeff, 2.0
        s_top = self.atoms[-1][0]
        w_top = sum(w for s, w in self.atoms if s == s_top)
        return w_top, s_top

    # -- evaluation ----------------------------------------------------

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        a = np.abs(lam)
        out = self.gaussian_coeff * a * a
        for s, w in self.atoms:
            out = out + w * a ** s
        return out if out.ndim else float(out)

    def derivatives(self, lam):
        """First and second derivative of the analytic form at lam > 0."""
        lam_arr = np.asarray(lam, dtype=float)
        if np.any(lam_arr <= 0.0):
            raise ValueError("derivatives require lam > 0")
        d1 = 2.0 * self.gaussian_coeff * lam_arr
        d2 = np.full_like(lam_arr, 2.0 * self.gaussian_coeff)
        for s, w in self.atoms:
            d1 = d1 + w * s * lam_arr ** (s - 1.0)
            d2 = d2 + w * s * (s - 1.0) * lam_arr ** (s - 2.0)
        if lam_arr.ndim:
            return d1, d2
        return float(d1), float(d2)

    def bounds(self, lam: float, eps: float = _DEFAULT_BAND) -> tuple[float, float]:
        """Two-sided power bounds for a mixture supported on [g0, g1].

        Upper bound |mu|*|lam|**g0 for |lam| <= 1 (|lam|**g1 beyond 1); the
        lower bound uses only the mass within eps of the relevant endpoint
        and is 0 when that band is empty.
        """
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        g0, g1 = self.support()
        a = abs(float(lam))
        mass = self.total_mass
        if a == 1.0:
            # every power equals 1 there, so the bounds collapse to the mass
            return mass, mass
        entries = list(self.atoms)
        if self.gaussian_coeff > 0.0:
            entries.append((2.0, self.gaussian_coeff))
        if a <= 1.0:
            upper = mass * a ** g0
            band = sum(w for s, w in entries if s <= g0 + eps)
            lower = band * a ** (g0 + eps)
        else:
            upper = mass * a ** g1
            band = sum(w for s, w in entries if s >= g1 - eps)
            lower = band * a ** (g1 - eps)
        return lower, upper

    # -- serialization ---------------------------------------------------

    def to_spec(self) -> dict:
        kind = self.kind
        if kind == "stable":
            return {"kind": "stable", "index": self.atoms[0][0]}
        if kind == "mixture":
            return {"kind": "mixture", "atoms": [[s, w] for s, w in self.atoms]}
        return {"kind": "gaussian_plus", "C": self.gaussian_coeff,
                "atoms": [[s, w] for s, w in self.atoms]}


# (required, optional) fields of each kind besides "kind"
_SCHEMA = {"stable": (("index",), ()), "mixture": (("atoms",), ()),
           "gaussian_plus": ((), ("C", "atoms"))}


def exponent_from_spec(spec: dict) -> CharExponent:
    """Parse the JSON wire form; unknown fields are rejected."""
    kind, what = wire.kind_of(spec, _SCHEMA, "exponent")
    if kind == "stable":
        return CharExponent.pure_stable(wire.number(spec, "index", what))
    if kind == "mixture":
        return CharExponent.stable_mixture(wire.pairs(spec, "atoms", what))
    return CharExponent.gaussian_plus(wire.number(spec, "C", what, 0.0),
                                      wire.pairs(spec, "atoms", what, ()))
