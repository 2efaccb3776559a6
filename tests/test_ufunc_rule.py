"""Scalar calls of closed forms equal the matching entry of a grid call.

Expressions and the concave cap run numpy ufuncs only, and a scalar goes
through them as 0-d input, so numpy's SIMD dispatch gives both the same
bits.  A formula that raised a Python float or a numpy scalar to a power
with `**` would call libm instead: on an AVX-512 host that differs from the
vector power in the last ulp on a few percent of these points, and this test
fails.
"""

import numpy as np
import pytest

from permlab import Affine, Const, Exp, Pow, Prod, Sum
from permlab.diffusion import concave_cap_second_derivative, concave_cap_value

# about 200 points, with many distinct exponents and mantissas
PTS = np.geomspace(0.013, 3.7, 200)

TREES = {
    "pow": Pow(Affine(1.0, 3.0), 1.5),
    "exp": Exp(Affine(-1.0, 0.0)),
    "prod": Prod(Const(0.9), Pow(Affine(1.0, 0.0), 1.5)),
    "sum": Sum(Exp(Affine(0.3, 0.0)), Pow(Affine(2.0, 1.0), -0.7),
               Affine(0.5, 0.1)),
    "nested": Prod(Exp(Affine(0.3, 0.0)), Pow(Sum(Affine(1.0, 0.0),
                                                  Pow(Affine(1.0, 0.0), 3.0)),
                                              0.45)),
}


def _assert_scalars_match(fn, pts):
    grid = fn(pts)
    # the transposed grid runs numpy's strided loops
    strided = fn(pts.reshape(20, 10).T)
    scalars = [fn(x) for x in pts.tolist()]
    assert all(type(v) is float for v in scalars)
    assert grid.tobytes() == np.array(scalars).tobytes()
    assert strided.T.ravel().tobytes() == grid.tobytes()


@pytest.mark.parametrize("name", sorted(TREES))
def test_expression_scalar_calls_equal_the_grid(name):
    tree = TREES[name]
    for fn in (tree, tree.diff(), tree.diff().diff()):
        _assert_scalars_match(fn, PTS)


@pytest.mark.parametrize("p", [3.0, 4.0, 3.7])
def test_concave_cap_scalar_calls_equal_the_grid(p):
    s0 = 2.1    # PTS run past the cap at s0
    _assert_scalars_match(lambda y: concave_cap_value(p, s0, y), PTS)
    _assert_scalars_match(lambda y: concave_cap_second_derivative(p, s0, y), PTS)
