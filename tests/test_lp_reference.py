"""The simplex against its own reference copy, bit for bit, and its cycle stop.

``oracles.reference_solve_lp`` is the dense two-phase simplex as it stood
before the standard-form layout was cached.  Every program here must give
the same status, pivot sequence, primal and dual bytes, value, duality gap
and fault text from both.  The programs are extension LPs from dense, ring
and two-team games, Kelley-shaped cut models, ``random_feasible_lp``
draws, each standard-form case, infeasible and unbounded programs, and
the perturbed restart on its own.
"""

import math

import numpy as np
import pytest

import teamsolve.linprog as linprog
from teamsolve import LinearProgram, LpFault, extend_ne, random_game, solve_lp

from oracles import reference_solve_converted, reference_solve_lp
from test_linprog import random_feasible_lp
from test_lp_pins import CASES as PIN_CASES
from test_lp_pins import _extension_lp, _team
from test_lp_standard_form import CASES as FORM_CASES
from test_lp_standard_form import _assert_matches_highs


def _outcome(solve, *args):
    """Everything a solve returns, as comparable bytes and strings."""
    try:
        sol = solve(*args)
    except LpFault as exc:
        return ("fault", str(exc))
    return (sol.status, sol.pivots,
            None if sol.primal is None else sol.primal.tobytes(),
            None if sol.dual is None else sol.dual.tobytes(),
            float(sol.value).hex(), float(sol.duality_gap).hex())


def _assert_same(lp):
    assert _outcome(solve_lp, lp) == _outcome(reference_solve_lp, lp)


def kelley_lp(rng, n_b, n_cuts, jitter):
    """The cut model ``max u s.t. u <= a_k + s_k . y`` over the simplex.

    The slopes are one direction plus ``jitter`` noise, so the cuts are
    near-duplicates, as in the late rounds of a Kelley solve.
    """
    slopes = rng.uniform(-1, 1, size=n_b) + jitter * rng.standard_normal(
        (n_cuts, n_b))
    intercepts = (-(slopes @ rng.dirichlet(np.ones(n_b)))
                  + jitter * rng.standard_normal(n_cuts))
    cost = np.zeros(1 + n_b)
    cost[0] = -1.0
    eq = np.zeros((1, 1 + n_b))
    eq[0, 1:] = 1.0
    return LinearProgram(cost, np.hstack([-np.ones((n_cuts, 1)), slopes]),
                         -intercepts, eq, np.ones(1),
                         [(None, None)] + [(0.0, None)] * n_b)


def _kelley(seed):
    rng = np.random.default_rng(seed)
    jitter = 10.0 ** -int(rng.integers(3, 10))
    return kelley_lp(rng, int(rng.integers(3, 7)), int(rng.integers(2, 12)),
                     jitter)


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_extension_and_feasible_programs(name):
    _assert_same(PIN_CASES[name]())


@pytest.mark.parametrize("seed", range(60))
def test_random_feasible_programs(seed):
    rng = np.random.default_rng(1000 + seed)
    _assert_same(random_feasible_lp(rng, n_vars=int(rng.integers(2, 8)),
                                    n_cons=int(rng.integers(1, 12))))


def test_kelley_programs():
    # Seeds 44 and 268 end in LpFault (a failed certificate and a stall
    # after the restart), 302 and 511 certify only after the restart.
    for seed in [*range(40), 44, 268, 302, 511]:
        _assert_same(_kelley(seed))
    assert _outcome(solve_lp, _kelley(44))[0] == "fault"
    assert "stalled" in _outcome(solve_lp, _kelley(268))[1]


@pytest.mark.parametrize("name", sorted(FORM_CASES))
def test_standard_form_cases(name):
    rng = np.random.default_rng(sorted(FORM_CASES).index(name))
    for _ in range(5):
        _assert_same(FORM_CASES[name](rng))


@pytest.mark.parametrize("lp", [
    LinearProgram(np.array([1.0]), bounds=[(1.0, 0.0)]),
    LinearProgram(np.array([1.0]), A=[[1.0], [-1.0]], b=[2.0, -1.0]),
    LinearProgram(np.array([1.0, 1.0]), E=[[1.0, 1.0]], f=[-1.0],
                  bounds=[(0.0, None), (0.0, None)]),
    LinearProgram(np.array([1.0, 0.0]), A=[[0.0, 1.0]], b=[-1.0]),
    LinearProgram(np.array([1.0]), bounds=[(None, 2.0)]),
    LinearProgram(np.array([-1.0, 1.0]), A=[[1.0, -1.0]], b=[0.5],
                  bounds=[(1.0, None), (-2.0, None)]),
    LinearProgram(np.array([0.0])),
], ids=["crossed_box", "crossed_rows", "negative_equality", "free_ray",
        "upper_only_ray", "shifted_ray", "no_rows"])
def test_infeasible_and_unbounded_programs(lp):
    _assert_same(lp)


@pytest.mark.parametrize("name", sorted(FORM_CASES) + sorted(PIN_CASES))
def test_perturbed_restart(name):
    if name in FORM_CASES:
        lp = FORM_CASES[name](np.random.default_rng(50))
    else:
        lp = PIN_CASES[name]()
    assert (_outcome(linprog._solve_converted, lp, True)
            == _outcome(reference_solve_converted, lp, True))


def _cycling_program():
    """A 4^4 x 6 extension LP whose free guarantees are split by hand.

    Each free ``g`` becomes ``g+`` in place and ``g-`` after all other
    columns, every variable ``>= 0``.  On this draw the pivot rule cycles
    in phase 1 of the first attempt.
    """
    seed = 85
    game = random_game(4, [4, 4, 4, 4], 6, seed)
    lp = _extension_lp(extend_ne, game,
                       _team(np.random.default_rng(seed), game))
    n_g = 4
    return LinearProgram(
        np.concatenate([lp.objective, -lp.objective[:n_g]]),
        np.hstack([lp.A, -lp.A[:, :n_g]]), lp.b,
        np.hstack([lp.E, -lp.E[:, :n_g]]), lp.f,
        [(0.0, None)] * (lp.n_vars + n_g))


def test_cycle_stops_at_first_repeated_basis(monkeypatch):
    lp = _cycling_program()
    made = []
    real = linprog._pivot_until_optimal

    def counting(T, basis, stop_cols, pivots):
        before = len(pivots)
        try:
            return real(T, basis, stop_cols, pivots)
        finally:
            made.append(len(pivots) - before)

    monkeypatch.setattr(linprog, "_pivot_until_optimal", counting)
    with pytest.raises(linprog._DegeneratePivot):
        linprog._solve_converted(lp, perturb=False)
    # Phase 1 runs on 17 rows and 32 columns: bases are recorded from
    # pivot 49 on, where the guard alone would allow 200 * 49.
    assert 49 <= made[0] < 2 * 49
    monkeypatch.undo()

    sol = solve_lp(lp)
    _assert_matches_highs(lp, sol)
    # The restart is the reference's own restart, reached ~9,800 pivots later.
    assert _outcome(solve_lp, lp) == _outcome(reference_solve_lp, lp)


def test_bounds_stored_as_hashable_floats():
    lp = LinearProgram(np.array([1.0, 1.0]),
                       bounds=[(-0.0, None), (np.float64(1), 2)])
    assert lp.bounds == ((0.0, None), (1.0, 2.0))
    assert math.copysign(1.0, lp.bounds[0][0]) == 1.0
    hash(lp.bounds)
    same = LinearProgram(np.array([1.0, 1.0]),
                         bounds=((0.0, None), (1.0, 2.0)))
    assert _outcome(solve_lp, lp) == _outcome(solve_lp, same)


@pytest.mark.parametrize("field", ["objective", "A", "b", "E", "f"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected(field, bad):
    data = {"objective": np.ones(2), "A": np.ones((1, 2)), "b": np.ones(1),
            "E": np.ones((1, 2)), "f": np.ones(1)}
    data[field].flat[0] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        LinearProgram(**data)
