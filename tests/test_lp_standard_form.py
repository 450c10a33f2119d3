"""Each way the simplex's standard form treats a variable or a row, against HiGHS.

Every program is built around a known feasible point, with an objective
that is a nonnegative combination of the rows plus reduced costs that the
bounds can pay, so it is feasible and bounded by construction.  The value
and the dual objective of the returned multipliers are checked against
``scipy.optimize.linprog(method="highs")``.
"""

import numpy as np
import pytest

import teamsolve.linprog as linprog
from teamsolve import LinearProgram, solve_lp

from test_lp_pins import _dual_objective

FREE = (None, None)


def _hit(rows, point, rhs, margin):
    """Shift each row along ``point`` so that ``row . point = rhs + margin``."""
    return rows + np.outer(rhs + margin - rows @ point, point) / (point @ point)


def _program(rng, bounds, ineq_rhs=(), eq_rhs=()):
    """A feasible, bounded program with the given bounds and right-hand sides."""
    n = len(bounds)
    point = np.empty(n)
    reduced = np.zeros(n)
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None and hi is not None:
            point[j] = lo + rng.uniform(0.2, 0.8) * (hi - lo)
            reduced[j] = rng.uniform(-1, 1)
        elif lo is not None:
            point[j] = lo + rng.uniform(0.2, 1.0)
            reduced[j] = rng.uniform(0, 1)
        elif hi is not None:
            point[j] = hi - rng.uniform(0.2, 1.0)
            reduced[j] = -rng.uniform(0, 1)
        else:
            point[j] = rng.uniform(-1, 1)
    b = np.asarray(ineq_rhs, dtype=float)
    f = np.asarray(eq_rhs, dtype=float)
    A = _hit(rng.uniform(-1, 1, size=(b.size, n)), point, b,
             rng.uniform(0.1, 1.0, size=b.size))
    E = _hit(rng.uniform(-1, 1, size=(f.size, n)), point, f, 0.0)
    lam = rng.uniform(0, 1, size=b.size) * (rng.uniform(size=b.size) < 0.7)
    c = A.T @ lam + E.T @ rng.uniform(-1, 1, size=f.size) + reduced
    return LinearProgram(c, A if b.size else None, b if b.size else None,
                         E if f.size else None, f if f.size else None,
                         list(bounds))


def _highs(lp):
    highs = pytest.importorskip("scipy.optimize").linprog
    return highs(lp.objective,
                 A_ub=-lp.A if lp.A.size else None,
                 b_ub=-lp.b if lp.b.size else None,
                 A_eq=lp.E if lp.E.size else None,
                 b_eq=lp.f if lp.f.size else None,
                 bounds=lp.bounds, method="highs")


def _assert_matches_highs(lp, sol):
    res = _highs(lp)
    assert res.status == 0
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(res.fun, abs=1e-7)
    assert _dual_objective(lp, sol.dual) == pytest.approx(res.fun, abs=1e-7)


def _rhs(rng, size, sign):
    return sign * rng.uniform(0.1, 1.0, size=size)


CASES = {
    "lower_bound_not_zero": lambda rng: _program(
        rng, [(-1.5, None), (0.7, None), (2.0, None)],
        ineq_rhs=rng.uniform(-1, 1, size=4)),
    "upper_bound_only": lambda rng: _program(
        rng, [(None, 1.0), (None, -0.5), (0.0, None)],
        ineq_rhs=rng.uniform(-1, 1, size=4)),
    "box_with_lower_not_zero": lambda rng: _program(
        rng, [(-2.0, 1.0), (0.5, 3.0), (1.0, 1.5)],
        ineq_rhs=rng.uniform(-1, 1, size=3)),
    "free_variables": lambda rng: _program(
        rng, [FREE, (0.0, None), FREE, (0.0, None)],
        ineq_rhs=rng.uniform(-1, 1, size=5), eq_rhs=[1.0]),
    "rows_needing_artificials": lambda rng: _program(
        rng, [(0.0, None)] * 4 + [FREE], ineq_rhs=_rhs(rng, 5, 1.0)),
    # Zero lower bounds keep the rows' right-hand sides unshifted.
    "rows_all_nonpositive": lambda rng: _program(
        rng, [(0.0, None)] * 3 + [(0.0, 2.0)], ineq_rhs=np.r_[
            _rhs(rng, 3, -1.0), 0.0]),
    "equality_with_negative_rhs": lambda rng: _program(
        rng, [(0.0, None), (None, 0.5), FREE],
        ineq_rhs=rng.uniform(-1, 1, size=2), eq_rhs=[-0.8]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_and_dual_objective_match_highs(name):
    rng = np.random.default_rng(sorted(CASES).index(name))
    for _ in range(5):
        lp = CASES[name](rng)
        _assert_matches_highs(lp, solve_lp(lp))


@pytest.mark.parametrize("name, loops", [("rows_all_nonpositive", 1),
                                         ("rows_needing_artificials", 2)])
def test_phase_one_runs_only_when_a_row_needs_an_artificial(name, loops,
                                                            monkeypatch):
    # With every row on its surplus column, the only pivot loop is phase 2.
    seen = []
    real = linprog._pivot_until_optimal
    monkeypatch.setattr(linprog, "_pivot_until_optimal",
                        lambda *a, **k: seen.append(1) or real(*a, **k))
    lp = CASES[name](np.random.default_rng(0))
    assert solve_lp(lp).status == "optimal"
    assert len(seen) == loops


@pytest.mark.parametrize("lp", [
    # Box bounds that cross.
    LinearProgram(np.array([1.0]), bounds=[(1.0, 0.0)]),
    # An upper bound only, against a row that needs more.
    LinearProgram(np.array([1.0]), A=[[1.0]], b=[2.0], bounds=[(None, 1.0)]),
    # A negative equality on a nonnegative variable.
    LinearProgram(np.array([1.0, 1.0]), E=[[1.0, 1.0]], f=[-1.0],
                  bounds=[(0.0, None), (0.0, None)]),
], ids=["crossed_box", "upper_only", "negative_equality"])
def test_infeasible_reported(lp):
    assert solve_lp(lp).status == "infeasible"


@pytest.mark.parametrize("lp", [
    # A free variable pushed down with nothing below it.
    LinearProgram(np.array([1.0, 0.0]), A=[[0.0, 1.0]], b=[-1.0]),
    # An upper bound only, minimized.
    LinearProgram(np.array([1.0]), bounds=[(None, 2.0)]),
    # A shifted lower bound, maximized along a ray the rows allow.
    LinearProgram(np.array([-1.0, 1.0]), A=[[1.0, -1.0]], b=[0.5],
                  bounds=[(1.0, None), (-2.0, None)]),
], ids=["free", "upper_only", "shifted_lower"])
def test_unbounded_reported(lp):
    assert solve_lp(lp).status == "unbounded"


@pytest.mark.parametrize("name", sorted(CASES))
def test_perturbed_restart_certifies_against_original_data(name,
                                                           monkeypatch):
    real = linprog._solve_converted
    attempts = []

    def first_attempt_stalls(lp, perturb):
        attempts.append(perturb)
        if not perturb:
            raise linprog._DegeneratePivot
        return real(lp, perturb)

    monkeypatch.setattr(linprog, "_solve_converted", first_attempt_stalls)
    lp = CASES[name](np.random.default_rng(50))
    sol = solve_lp(lp)
    assert attempts == [False, True]
    _assert_matches_highs(lp, sol)
    rows = lp.A.shape[0] + lp.E.shape[0] + sum(
        lo is not None and hi is not None for lo, hi in lp.bounds)
    allow = linprog.FEAS_TOL + linprog.PERTURBATION * rows
    assert np.all(lp.A @ sol.primal >= lp.b - allow)
    assert np.all(np.abs(lp.E @ sol.primal - lp.f) <= allow)
    assert sol.duality_gap <= linprog.GAP_TOL * (1.0 + abs(sol.value))
