"""Euclidean projection onto the probability simplex.

The descent loops project a handful of short vectors per step, thousands
of times per run, so the projection works on Python floats: for vectors
of a few entries numpy's per-call overhead costs more than the
arithmetic.  From length 3 on, the float operations and their order are
a numpy sort-and-threshold's, so the result is the same to the last bit;
lengths 1 and 2 take closed forms, which can differ in the last bit.
"""

from __future__ import annotations

import math

import numpy as np


def project_simplex(v):
    """Closest probability vector to ``v`` in Euclidean distance.

    Sort-and-threshold: find the largest prefix of the sorted entries
    whose common shift keeps them positive, subtract that shift and clip.
    Exact up to float rounding, idempotent, and nearly linear time in the
    vector length.  See :func:`project_list` for the same projection on
    a list of Python floats.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    return np.array(project_list(v.tolist()))


def project_list(vals):
    """:func:`project_simplex` from a list of floats to a list of floats."""
    n = len(vals)
    if n == 0:
        raise ValueError("expected a nonempty vector")
    if not all(map(math.isfinite, vals)):
        raise ValueError("expected finite entries")
    if n == 1:
        return [1.0]
    if n == 2:
        # Projection moves along (1, -1); the threshold is the clip.
        a = 0.5 * (vals[0] - vals[1] + 1.0)
        a = 0.0 if a < 0.0 else (1.0 if a > 1.0 else a)
        return [a, 1.0 - a]
    # Keep the last rank that passes, not the first that fails: the two
    # agree in exact arithmetic, and the last one is what a vectorized
    # test over every rank picks.
    running = 0.0
    shift = None
    for rank, u in enumerate(sorted(vals, reverse=True), start=1):
        running += u
        cumulative = running - 1.0
        if u * rank > cumulative:
            shift = cumulative / rank
    if shift is None:
        # Every rank fails only when subtracting 1 is lost to rounding.
        raise ValueError("entries too large to project")
    return [d if d > 0.0 else 0.0 for d in [x - shift for x in vals]]
