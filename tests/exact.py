"""Exact references the test modules share (not collected: no test_ prefix).

expand_power_sum gives the integer multinomial expansion of a power sum, and
entries reads a flat vector's stored entries back keyed by exponent tuples,
so the two can be compared exactly.
"""

import numpy as np


def expand_power_sum(n, p):
    """Integer coefficients of (z_0 + ... + z_{n-1})**p as {exponent tuple: int},
    by repeated distribution.

    With z_j = x_j y_j these are the coefficients of (sum_j x_j y_j)**p: the y_j
    powers mirror the x_j ones, so one tuple suffices.
    """
    terms = {(0,) * n: 1}
    for _ in range(p):
        grown = {}
        for expo, coef in terms.items():
            for j in range(n):
                bumped = expo[:j] + (expo[j] + 1,) + expo[j + 1:]
                grown[bumped] = grown.get(bumped, 0) + coef
        terms = grown
    return terms


def entries(vec):
    """{exponent tuple: value} over the nonzero stored entries of ``vec``.

    An exponent tuple has one entry per slot of the vector's level: an input
    coordinate at level 0.  A stacked vector is refused.
    """
    if vec.values.ndim != 1:
        raise ValueError("a stacked vector has no entries; take row j with like(values[j])")
    lv = vec._space
    dense = np.zeros((len(lv.own_degree), lv.n_slots + 1), dtype=np.int64)
    np.put_along_axis(dense, lv.terms_pos.astype(np.intp), lv.terms_exp.astype(np.int64), axis=1)
    rows = dense[:, : lv.n_slots].tolist()
    return {tuple(k): v for k, v in zip(rows, vec.values.tolist()) if v != 0.0}
