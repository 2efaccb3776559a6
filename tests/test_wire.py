"""Malformed wire documents: every parser returns or raises ValueError.

The command line turns ValueError into exit 2 with an ``error:`` line, so a
parser that raises anything else on a bad document shows up as a traceback.
"""

import functools
import json
import math

import pytest

from permlab.bases import brownian_min_kernel, brownian_unit_base
from permlab.cli import base_from_spec, main
from permlab.excessive import excessive_from_spec
from permlab.exponents import exponent_from_spec
from permlab.expressions import expr_from_spec
from permlab.rebirth import chain_from_spec, potential_from_spec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

STABLE = {"kind": "stable", "index": 1.5}
MIXTURE = {"kind": "mixture", "atoms": [[1.2, 1.0], [1.8, 0.5]]}
GAUSS = {"kind": "gaussian_plus", "C": 0.5, "atoms": [[1.5, 1.0]]}
AFFINE = {"kind": "affine", "a": 1.0, "b": 0.0}
P_EXPR = {"kind": "exp", "arg": {"kind": "affine", "a": 1.0}}
Q_EXPR = {"kind": "exp", "arg": {"kind": "affine", "a": -1.0}}
SCALE_S = {"kind": "sum", "terms": [AFFINE, {"kind": "pow", "base": AFFINE,
                                              "exponent": 2.0}]}
EXP_DECAY = {"family": "exp_decay", "beta": 0.5, "C": 0.5}
PQ = {"family": "pq", "p": P_EXPR, "q": Q_EXPR, "beta": 0.5,
      "interval": [-2.0, 2.0]}
MODEL = {"states": [0, 1], "m": [1.0, 1.0],
         "generator": [[-1.0, 0.3], [0.3, -0.8]], "mu": [0.5, 0.0],
         "p": 0.4, "alpha": 0.7}
POTENTIAL_MODEL = {"states": [0, 1], "m": [1.0, 1.0],
                   "potential": [[2.0, 1.0], [1.0, 2.0]], "mu": [0.5, 0.0]}

# border-function parsers on a translation-invariant and on a scale base
ON_EXP_DECAY = functools.partial(excessive_from_spec, base=brownian_unit_base())
ON_SCALE = functools.partial(excessive_from_spec, base=brownian_min_kernel())

# (parser, a valid document); each field of the document gets fuzzed
PARSED = [
    (exponent_from_spec, STABLE),
    (exponent_from_spec, MIXTURE),
    (exponent_from_spec, GAUSS),
    (expr_from_spec, {"kind": "prod", "factors": [AFFINE, {"kind": "const",
                                                           "value": 2.0}]}),
    (expr_from_spec, SCALE_S),
    (base_from_spec, {"family": "levy", "psi": STABLE, "beta": 0.5}),
    (base_from_spec, {"family": "levy_hit_zero", "psi": GAUSS}),
    (base_from_spec, {"family": "levy_v", "psi": MIXTURE, "beta": 0.5}),
    (base_from_spec, {"family": "stable_hit_zero", "rho": 0.5}),
    (base_from_spec, EXP_DECAY),
    (base_from_spec, PQ),
    (base_from_spec, {**PQ, "family": "vpq"}),
    (base_from_spec, {"family": "scale", "s": SCALE_S, "hi": 10.0}),
    (ON_EXP_DECAY, {"kind": "indicator", "a": 0.5, "b": 1.5}),
    (ON_EXP_DECAY, {"kind": "atoms", "atoms": [[1.0, 1.0]]}),
    (ON_EXP_DECAY, {"kind": "const", "c": 1.0}),
    (ON_SCALE, {"kind": "scale_concave", "p": 3.0, "x0": 1.0}),
    (chain_from_spec, MODEL),
    (potential_from_spec, MODEL),
    (potential_from_spec, POTENTIAL_MODEL),
]

# (command line with placeholders, valid documents); run through main
COMMANDS = [
    (["potential", "eval", "--family", "exp_decay", "--spec", "spec",
      "--x", "0.5", "1.0"], {"spec": EXP_DECAY}),
    (["potential", "eval", "--family", "stable_hit_zero", "--spec", "spec",
      "--x", "0.5", "--y", "1.0"], {"spec": {"family": "stable_hit_zero",
                                            "rho": 0.5}}),
    (["potential", "eval", "--family", "pq", "--spec", "spec", "--x", "0.5"],
     {"spec": PQ}),
    (["potential", "eval", "--family", "vpq", "--spec", "spec", "--x", "0.5"],
     {"spec": {"family": "vpq", "p": P_EXPR, "q": Q_EXPR, "beta": 0.5}}),
    (["potential", "eval", "--family", "scale", "--spec", "spec", "--x", "0.5"],
     {"spec": {"family": "scale", "s": SCALE_S, "hi": 10.0}}),
    (["kernel", "analyze", "--base", "base", "--f", "f", "--g", "g",
      "--grid", "1.0,0.7,12,0.7"],
     {"base": EXP_DECAY, "f": {"kind": "indicator", "a": 0.5, "b": 1.5},
      "g": {"kind": "atoms", "atoms": [[1.0, 1.0]]}}),
    (["kernel", "analyze", "--base", "base", "--f", "f", "--g", "g",
      "--grid", "1.0,0.7,12,0.7", "--direction", "-1"],
     {"base": {"family": "scale", "s": AFFINE},
      "f": {"kind": "scale_concave", "p": 3.0, "x0": 1.0},
      "g": {"kind": "const", "c": 1.0}}),
    (["lil", "run", "--config", "config"],
     {"config": {"base": EXP_DECAY, "schedule": [10],
                 "grid": {"d": 0.0, "theta": 0.3, "q": 0.5, "direction": 1},
                 "k": 1, "paths": 20, "seed": 1,
                 "f": {"kind": "const", "c": 1.0}}}),
]


def _field_paths(doc, prefix=()):
    """The root and every dict key below it, as key paths."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    if isinstance(doc, list):
        return [_replaced(v, path[1:], value) if i == path[0] else v
                for i, v in enumerate(doc)]
    return {**doc, path[0]: _replaced(doc[path[0]], path[1:], value)}


def _number_paths(doc, prefix=()):
    """The key and index paths of every number below doc."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield prefix
    elif isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _number_paths(value, prefix + (key,))


# Numbers stay small so that a fuzzed size field (paths, schedule, grid
# depth) cannot ask for a huge job: the property is about types and shapes.
_leaves = (st.none() | st.booleans() | st.text(max_size=4)
           | st.integers(-4, 12)
           | st.floats(-4.0, 4.0)
           | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]))
JSON_VALUES = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

_FUZZ = settings(max_examples=300, deadline=None, database=None,
                 derandomize=True)


@_FUZZ
@given(st.sampled_from([(parse, doc, path) for parse, doc in PARSED
                        for path in _field_paths(doc)]),
       JSON_VALUES)
def test_parsers_raise_only_value_errors(case, value):
    parse, doc, path = case
    try:
        parse(_replaced(doc, path, value))
    except ValueError:
        pass


def _exit_code(workdir, argv, docs, fuzzed, path, value):
    """main's exit code on the documents, one field of one of them replaced."""
    files = {}
    for name, doc in docs.items():
        files[name] = str(workdir / f"{name}.json")
        if name == fuzzed:
            doc = _replaced(doc, path, value)
        with open(files[name], "w") as fh:
            json.dump(doc, fh)
    argv = [files.get(a, a) for a in argv] + ["--out", str(workdir / "out")]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@_FUZZ
@given(st.sampled_from([(argv, docs, name, path)
                        for argv, docs in COMMANDS
                        for name in docs for path in _field_paths(docs[name])]),
       JSON_VALUES)
def test_commands_exit_zero_or_two_on_any_field_value(tmp_path_factory, case,
                                                     value):
    argv, docs, fuzzed, path = case
    workdir = tmp_path_factory.mktemp("wire")
    assert _exit_code(workdir, argv, docs, fuzzed, path, value) in (0, 2)


NUMBER_CASES = [(argv, docs, name, path) for argv, docs in COMMANDS
                for name in docs for path in _number_paths(docs[name])]


# Zero and minus one are the edges of most parameter ranges (rates, scales,
# counts); a random draw rarely lands on them, so each number gets both.
@pytest.mark.parametrize("case", NUMBER_CASES)
@pytest.mark.parametrize("value", [0, -1])
def test_commands_exit_zero_or_two_at_zero_and_minus_one(tmp_path, case,
                                                         value):
    argv, docs, fuzzed, path = case
    assert _exit_code(tmp_path, argv, docs, fuzzed, path, value) in (0, 2)


# A huge number overflows the closed forms that check a document (exp, power,
# products of them); the document must still be refused with one error line,
# and a numpy RuntimeWarning on the way is an error under pytest.ini.
@pytest.mark.parametrize("case", NUMBER_CASES)
@pytest.mark.parametrize("value", [1e300, -1e300])
def test_commands_exit_zero_or_two_at_huge_values(tmp_path, case, value):
    argv, docs, fuzzed, path = case
    assert _exit_code(tmp_path, argv, docs, fuzzed, path, value) in (0, 2)
