"""Programs whose tableau overflows are refused, never certified optimal.

Coefficients scaled by up to 10^300 overflow the simplex tableau to inf
and NaN.  NaN fails every ``>`` test, so a guard written as ``x > bound``
lets it through; the solver must instead restart and then raise
``LpFault``.
"""

import math
import warnings

import numpy as np
import pytest

import teamsolve.linprog as linprog
from teamsolve import LinearProgram, LpFault, solve_lp

# Overflow and inf - inf are the point here; numpy warns about both.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def overflowing_lp(seed):
    """Three variables in [0, 1], four rows scaled by 10^-300 to 10^300."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (4, 3)) * 10.0 ** rng.uniform(-300, 300, (4, 3))
    b = rng.uniform(-1, 1, 4) * 10.0 ** rng.uniform(0, 300, 4)
    c = rng.uniform(-1, 1, 3)
    return LinearProgram(c, A, b, bounds=[(0, 1)] * 3)


def _all_finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


def test_no_optimal_status_with_non_finite_results():
    optimal = 0
    for seed in range(3000):
        try:
            sol = solve_lp(overflowing_lp(seed))
        except LpFault:
            continue
        if sol.status == "optimal":
            optimal += 1
            assert _all_finite(sol.value, sol.primal, sol.dual,
                               sol.duality_gap), seed
    assert optimal > 0  # the draw still has certifiable programs


def test_first_overflowing_seed_raises_after_the_restart(monkeypatch):
    # Seed 44 used to come back "optimal" with a non-finite value.
    attempts = []
    solve = linprog._solve_converted

    def recorded(lp, perturb):
        attempts.append(perturb)
        return solve(lp, perturb)

    monkeypatch.setattr(linprog, "_solve_converted", recorded)
    with pytest.raises(LpFault, match="perturbed restart"):
        solve_lp(overflowing_lp(44))
    assert attempts == [False, True]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_blowup_guard_trips_on_non_finite_entries(bad):
    # The tableau's largest entry is near the float maximum, so the
    # blow-up bound 1e12 * max would overflow to inf without its cap.
    T = np.array([[1.0, 1.0, 1e300],
                  [-1.0, 0.0, 0.0]])
    T[0, 1] = bad
    with pytest.raises(linprog._DegeneratePivot):
        linprog._pivot_until_optimal(T, [1], stop_cols=2, pivots=[])


def test_overflow_is_refused_without_warnings():
    # The module filter above ignores RuntimeWarnings; recording them all
    # here shows that solve_lp itself emits none.
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(LpFault):
            solve_lp(overflowing_lp(44))
    assert [str(w.message) for w in seen] == []
