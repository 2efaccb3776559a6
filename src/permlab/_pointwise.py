"""Entrywise evaluation of scalar formulas over arrays.

numpy's vector exp and power can differ from libm in the last ulp, and so
from the scalar formulas behind the kernels: math.exp, float powers, and
the numpy-scalar power inside a scalar call of an expression.
Grids of those kernels call the scalar formula once per distinct value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["map_distinct"]


def map_distinct(fn, values):
    """fn applied entrywise, called once per distinct value of values.

    A scalar gives fn's result; an array gives a float array of its shape.
    """
    if np.ndim(values) == 0:
        return fn(float(values))
    values = np.asarray(values, dtype=float)
    distinct, where = np.unique(values.ravel(), return_inverse=True)
    out = np.array([fn(float(v)) for v in distinct], dtype=float)
    return out[where].reshape(values.shape)
