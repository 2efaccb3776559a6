"""A tiny closed expression grammar with exact derivatives.

Scale functions and eigenfunction pairs all need two noise-free derivatives,
so they are supplied as expression trees over {const, affine, sum, prod, exp,
pow} rather than as black-box callables.  Differentiation returns another
tree; evaluation runs numpy ufuncs only, and a scalar goes through them as a
0-d array, so a scalar call equals the matching entry of a grid call bit for
bit.  (Python's and numpy-scalar `**` call libm, which can differ from
numpy's vector power in the last ulp.)
"""

from __future__ import annotations

import numpy as np

from . import _wire as wire

__all__ = ["Expr", "Const", "Affine", "Sum", "Prod", "Exp", "Pow",
           "expr_from_spec"]


class Expr:
    def _raw(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._raw(x))
        return out if out.ndim else float(out)

    def diff(self) -> "Expr":
        raise NotImplementedError


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def _raw(self, x):
        return np.full_like(x, self.value)

    def diff(self):
        return Const(0.0)


class Affine(Expr):
    """a*x + b"""

    def __init__(self, a: float, b: float = 0.0):
        self.a = float(a)
        self.b = float(b)

    def _raw(self, x):
        return self.a * x + self.b

    def diff(self):
        return Const(self.a)


class Sum(Expr):
    def __init__(self, *terms: Expr):
        self.terms = tuple(terms)

    def _raw(self, x):
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t._raw(x)
        return out

    def diff(self):
        return Sum(*(t.diff() for t in self.terms))


class Prod(Expr):
    def __init__(self, *factors: Expr):
        self.factors = tuple(factors)

    def _raw(self, x):
        out = np.ones_like(x)
        for f in self.factors:
            out = out * f._raw(x)
        return out

    def diff(self):
        terms = []
        for i in range(len(self.factors)):
            fs = list(self.factors)
            fs[i] = fs[i].diff()
            terms.append(Prod(*fs))
        return Sum(*terms)


class Exp(Expr):
    def __init__(self, arg: Expr):
        self.arg = arg

    def _raw(self, x):
        return np.exp(self.arg._raw(x))

    def diff(self):
        return Prod(self.arg.diff(), Exp(self.arg))


class Pow(Expr):
    """base(x)^p for a real exponent; the base must stay positive."""

    def __init__(self, base: Expr, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def _raw(self, x):
        return np.power(self.base._raw(x), self.exponent)

    def diff(self):
        return Prod(Const(self.exponent), Pow(self.base, self.exponent - 1.0),
                    self.base.diff())


# kind: (required fields, optional fields, builder from the spec and label)
_KINDS = {
    "const": (("value",), (), lambda d, w: Const(wire.number(d, "value", w))),
    "affine": (("a",), ("b",), lambda d, w: Affine(
        wire.number(d, "a", w), wire.number(d, "b", w, 0.0))),
    "sum": (("terms",), (), lambda d, w: Sum(
        *map(expr_from_spec, wire.items(d, "terms", w)))),
    "prod": (("factors",), (), lambda d, w: Prod(
        *map(expr_from_spec, wire.items(d, "factors", w)))),
    "exp": (("arg",), (), lambda d, w: Exp(expr_from_spec(d["arg"]))),
    "pow": (("base", "exponent"), (), lambda d, w: Pow(
        expr_from_spec(d["base"]), wire.number(d, "exponent", w))),
}


def expr_from_spec(spec: dict) -> Expr:
    kind, what = wire.kind_of(spec, _KINDS, "expression")
    return _KINDS[kind][2](spec, what)
