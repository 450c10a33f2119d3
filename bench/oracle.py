"""Brute-force pure-deviation certificates on materialized payoff tensors.

Independent of ``teamsolve``'s own certifier: the tensor is contracted one
axis at a time with ``numpy.tensordot``, and every unilateral pure
deviation of every player is read off the resulting vectors.  By
multilinearity the best unilateral deviation is pure, so the gap is exact
up to float rounding.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def is_simplex(x, size):
    """Whether ``x`` is a finite probability vector of length ``size``."""
    x = np.asarray(x, dtype=float)
    return (x.shape == (size,) and bool(np.all(np.isfinite(x)))
            and float(x.min()) >= -TOL and abs(float(x.sum()) - 1.0) <= TOL)


def _contract_all_but(tensor, vectors, keep):
    """Contract every axis except ``keep`` with its strategy vector."""
    out = tensor
    # Highest axis first, so the axes still to go keep their positions.
    for axis in range(tensor.ndim - 1, -1, -1):
        if axis != keep:
            out = np.tensordot(out, vectors[axis], axes=([axis], [0]))
    return out


def profile_gap(tensor, minimizers, maximizers):
    """Largest gain of any unilateral pure deviation at a mixed profile.

    Axes of ``tensor`` are the minimizers' followed by the maximizers'; a
    single adversary is a maximizer team of one.  A minimizer gains by
    lowering the payoff, a maximizer by raising it.
    """
    vectors = [np.asarray(v, dtype=float)
               for v in list(minimizers) + list(maximizers)]
    value = float(_contract_all_but(tensor, vectors, 0) @ vectors[0])
    gains = [value - float(_contract_all_but(tensor, vectors, i).min())
             for i in range(len(minimizers))]
    gains += [float(_contract_all_but(tensor, vectors, j).max()) - value
              for j in range(len(minimizers), len(vectors))]
    return max(gains)
