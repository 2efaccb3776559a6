"""Checks shared by the JSON wire-format parsers.

A malformed document raises ValueError naming the offending field, which
the command line reports as a usage error (exit 2), never a traceback.
"""

from __future__ import annotations

import itertools
import math
from numbers import Integral, Real

import numpy as np


def kind_of(spec, schema, noun: str, tag: str = "kind") -> tuple[str, str]:
    """(kind, label) of a tagged document whose fields fit its kind.

    schema maps each kind to (required, optional, ...), the fields besides
    the tag; label is "'<kind>' <noun> spec", for the caller's messages.
    """
    if not isinstance(spec, dict) or tag not in spec:
        raise ValueError(f"{noun} spec must be a dict with a {tag!r} field")
    kind = spec[tag]
    if not isinstance(kind, str) or kind not in schema:
        raise ValueError(f"{noun} spec field {tag!r} must be one of "
                         f"{sorted(schema)}, got {kind!r}")
    required, optional = schema[kind][:2]
    label = f"{kind!r} {noun} spec"
    check_fields(spec, {tag, *required, *optional}, required, label)
    return kind, label


def check_fields(spec, allowed, required, what: str):
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be a dict")
    extra = set(spec) - set(allowed)
    if extra:
        raise ValueError(f"unknown fields in {what}: {sorted(extra)}")
    missing = sorted(set(required) - set(spec))
    if missing:
        raise ValueError(f"{what} is missing fields: {missing}")


def _finite(value, label: str) -> float:
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:      # an integer beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{label} must be a finite number, got {value!r}")


def _seq(value, label: str, length=None):
    if not isinstance(value, (list, tuple)) or (
            length is not None and len(value) != length):
        size = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{label} must be {size}, got {value!r}")
    return value


def number(spec: dict, key: str, what: str, default=None) -> float:
    """spec[key], or the default when absent, as a finite float."""
    return _finite(spec.get(key, default), f"{what} field {key!r}")


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def integer(spec: dict, key: str, what: str, default=None) -> int:
    value = spec.get(key, default)
    if not _is_integer(value):
        raise ValueError(f"{what} field {key!r} must be an integer, got {value!r}")
    return int(value)


def integers(spec: dict, key: str, what: str) -> list[int]:
    label = f"{what} field {key!r}"
    values = _seq(spec[key], label)
    if not all(map(_is_integer, values)):
        raise ValueError(f"{label} must be a list of integers, got {values!r}")
    return [int(v) for v in values]


def items(spec: dict, key: str, what: str, length=None):
    return _seq(spec[key], f"{what} field {key!r}", length)


def numbers(spec: dict, key: str, what: str, length: int, default=None) -> tuple:
    label = f"{what} field {key!r}"
    return tuple(_finite(v, label)
                 for v in _seq(spec.get(key, default), label, length))


def pairs(spec: dict, key: str, what: str, default=None) -> tuple:
    """spec[key] as a tuple of (number, number) pairs."""
    label = f"{what} field {key!r}"
    return tuple(tuple(_finite(v, label) for v in _seq(p, label, 2))
                 for p in _seq(spec.get(key, default), label))


def _entry_types(value, ndim: int) -> set:
    """The types of the entries of a regular ndim-deep nested sequence."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return {value.dtype.type}
    for _ in range(ndim - 1):
        value = itertools.chain.from_iterable(value)
    return set(map(type, value))


def array(spec: dict, key: str, what: str, ndim: int) -> np.ndarray:
    """spec[key] as a finite float array with ndim dimensions.

    As in scalar fields, every entry must be a number: the float conversion
    alone would also accept numeric strings and booleans.
    """
    value = spec[key]
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or out.ndim != ndim or not np.all(np.isfinite(out))
            or not all(issubclass(t, Real) and not issubclass(t, bool)
                       for t in _entry_types(value, ndim))):
        shape = "a list of numbers" if ndim == 1 else "a matrix of numbers"
        raise ValueError(f"{what} field {key!r} must be {shape}")
    return out
