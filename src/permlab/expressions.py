"""A tiny closed expression grammar with exact derivatives.

Scale functions and eigenfunction pairs all need two noise-free derivatives,
so they are supplied as expression trees over {const, affine, sum, prod, exp,
pow} rather than as black-box callables.  Differentiation returns another
tree; evaluation is vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np

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

    def to_spec(self) -> dict:
        raise NotImplementedError


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def _raw(self, x):
        return np.full_like(x, self.value)

    def diff(self):
        return Const(0.0)

    def to_spec(self):
        return {"kind": "const", "value": self.value}


class Affine(Expr):
    """a*x + b"""

    def __init__(self, a: float, b: float = 0.0):
        self.a = float(a)
        self.b = float(b)

    def _raw(self, x):
        return self.a * x + self.b

    def diff(self):
        return Const(self.a)

    def to_spec(self):
        return {"kind": "affine", "a": self.a, "b": self.b}


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

    def to_spec(self):
        return {"kind": "sum", "terms": [t.to_spec() for t in self.terms]}


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

    def to_spec(self):
        return {"kind": "prod", "factors": [f.to_spec() for f in self.factors]}


class Exp(Expr):
    def __init__(self, arg: Expr):
        self.arg = arg

    def _raw(self, x):
        return np.exp(self.arg._raw(x))

    def diff(self):
        return Prod(self.arg.diff(), Exp(self.arg))

    def to_spec(self):
        return {"kind": "exp", "arg": self.arg.to_spec()}


class Pow(Expr):
    """base(x)^p for a real exponent; the base must stay positive."""

    def __init__(self, base: Expr, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def _raw(self, x):
        return self.base._raw(x) ** self.exponent

    def diff(self):
        return Prod(Const(self.exponent), Pow(self.base, self.exponent - 1.0),
                    self.base.diff())

    def to_spec(self):
        return {"kind": "pow", "base": self.base.to_spec(),
                "exponent": self.exponent}


_KINDS = {
    "const": lambda d: Const(d["value"]),
    "affine": lambda d: Affine(d["a"], d.get("b", 0.0)),
    "sum": lambda d: Sum(*(expr_from_spec(t) for t in d["terms"])),
    "prod": lambda d: Prod(*(expr_from_spec(f) for f in d["factors"])),
    "exp": lambda d: Exp(expr_from_spec(d["arg"])),
    "pow": lambda d: Pow(expr_from_spec(d["base"]), d["exponent"]),
}

_FIELDS = {
    "const": {"kind", "value"},
    "affine": {"kind", "a", "b"},
    "sum": {"kind", "terms"},
    "prod": {"kind", "factors"},
    "exp": {"kind", "arg"},
    "pow": {"kind", "base", "exponent"},
}

_OPTIONAL = {"affine": {"b"}}


def expr_from_spec(spec: dict) -> Expr:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("expression spec must be a dict with a 'kind'")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown expression kind {kind!r}")
    extra = set(spec) - _FIELDS[kind]
    if extra:
        raise ValueError(f"unknown fields in expression spec: {sorted(extra)}")
    missing = _FIELDS[kind] - _OPTIONAL.get(kind, set()) - set(spec)
    if missing:
        raise ValueError(f"{kind!r} expression spec is missing fields: "
                         f"{sorted(missing)}")
    return _KINDS[kind](spec)
