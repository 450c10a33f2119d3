"""Pinned simplex behaviour, and the LP layer against scipy's HiGHS.

Each pin holds, for one seeded program, the pivot count and digests of
the pivot sequence and of the primal solution.  The simplex is meant to
be bitwise deterministic, so a change to its pivot rule or to its
tableau arithmetic shows up here as a changed digest.  The programs are
extension LPs from dense, ring and two-team games, plus
``random_feasible_lp`` draws.
"""

import hashlib

import numpy as np
import pytest

import teamsolve.extension as extension
from teamsolve import (
    LinearProgram,
    TwoTeamGame,
    extend_ne,
    extend_ne_multi,
    random_game,
    solve_lp,
    zero_sum_value,
)

from conftest import ring_game
from test_linprog import random_feasible_lp


def _extension_lp(extend, game, *strategies):
    """The LinearProgram that one extension call hands to ``solve_lp``."""
    seen = []
    real = extension.solve_lp

    def capture(lp):
        seen.append(lp)
        return real(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension, "solve_lp", capture)
        extend(game, *strategies)
    return seen[0]


def _team(rng, game):
    return tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)


def _dense(sizes, adversary, seed):
    game = random_game(len(sizes), list(sizes), adversary, seed)
    return _extension_lp(extend_ne, game,
                         _team(np.random.default_rng(seed), game))


def _ring(seed):
    rng = np.random.default_rng(seed)
    game = ring_game(rng, 12, 3)
    return _extension_lp(extend_ne, game, _team(rng, game))


def _two_team(seed):
    rng = np.random.default_rng(seed)
    game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 2, 2, 2)), n=2, m=2)
    xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
    ys = (rng.dirichlet(np.ones(2)),)
    return _extension_lp(extend_ne_multi, game, xs, ys)


CASES = {
    **{f"dense_2x2x3_{s}": (lambda s=s: _dense((2, 2), 3, s))
       for s in range(4)},
    **{f"dense_4444x6_{s}": (lambda s=s: _dense((4, 4, 4, 4), 6, s))
       for s in range(3)},
    **{f"ring_12_{s}": (lambda s=s: _ring(s)) for s in range(3)},
    **{f"two_team_2v2_{s}": (lambda s=s: _two_team(s)) for s in range(2)},
    **{f"feasible_{s}": (lambda s=s: random_feasible_lp(
        np.random.default_rng(100 + s))) for s in range(8)},
}

# name -> (pivot count, digest of the pivot sequence, digest of the primal)
PINS = {
    "dense_2x2x3_0": (11, "6284efaea206228f", "2f9cac2cfdc0f36a"),
    "dense_2x2x3_1": (17, "ae8bc77e16c70708", "cfe268582e349492"),
    "dense_2x2x3_2": (16, "a086e70fe190b8cd", "4307fe5d68f4c5d6"),
    "dense_2x2x3_3": (10, "426de1970ed1a171", "0111d47caf1cfb24"),
    "dense_4444x6_0": (54, "cdb2f3e3b493a9c1", "a76a8bf977baabe0"),
    "dense_4444x6_1": (46, "c031e1f0b9b3b900", "c302814acf93ddb3"),
    "dense_4444x6_2": (41, "79235146a04a5524", "8217db63a0529029"),
    "feasible_0": (33, "9b1bca3178919c06", "ddb9d4f2b18d5e27"),
    "feasible_1": (35, "02d51b6c39bb6ff8", "6b847cea06e15533"),
    "feasible_2": (37, "455e48def72b3848", "a1eb4f7c53b572c6"),
    "feasible_3": (33, "a288fb385e3cb4f7", "8992fe35ccd467e7"),
    "feasible_4": (36, "52c255d2c5fd4b1b", "6a91603d0d7d39ce"),
    "feasible_5": (31, "55460f915792a627", "265031f351a6e858"),
    "feasible_6": (32, "abb9fd4a95ffaed4", "53d151a0acd46858"),
    "feasible_7": (47, "f26c85d5fe88922a", "6c34a933115a6788"),
    "ring_12_0": (69, "0f0cf629614990f9", "d3959f30fdfcf1d4"),
    "ring_12_1": (92, "26694b5332650ab9", "0664064b21255406"),
    "ring_12_2": (114, "120ed7e01ba68478", "21b9f49e5b786144"),
    "two_team_2v2_0": (13, "018011518b913e8b", "ec601f62c13c8c7f"),
    "two_team_2v2_1": (11, "a9e44db9601b0b6f", "cdd314d30fe1c4b8"),
}


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def pin(lp):
    sol = solve_lp(lp)
    return (len(sol.pivots), _digest(repr(sol.pivots).encode()),
            _digest(sol.primal.tobytes()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_pivots_and_primal_pinned(name):
    assert pin(CASES[name]()) == PINS[name]


def _dual_objective(lp, dual):
    """Dual objective of the row multipliers, bound multipliers implied.

    The reduced cost of each variable is paid by its lower bound when
    positive and by its upper bound when negative; a free side must see
    a zero reduced cost.
    """
    k = lp.A.shape[0]
    lam, nu = dual[:k], dual[k:]
    assert np.all(lam >= -1e-9)
    total = float(lp.b @ lam + lp.f @ nu)
    reduced = lp.objective - lp.A.T @ lam - lp.E.T @ nu
    bounds = lp.bounds or [(None, None)] * lp.n_vars
    for r, (lo, hi) in zip(reduced, bounds):
        if r > 1e-9:
            assert lo is not None
            total += r * lo
        elif r < -1e-9:
            assert hi is not None
            total += r * hi
    return total


class TestAgainstHighs:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_value_and_dual_objective(self, name):
        linprog = pytest.importorskip("scipy.optimize").linprog
        lp = CASES[name]()
        sol = solve_lp(lp).require_optimal()
        res = linprog(lp.objective, A_ub=-lp.A, b_ub=-lp.b,
                      A_eq=lp.E if lp.E.size else None,
                      b_eq=lp.f if lp.f.size else None,
                      bounds=lp.bounds or [(None, None)] * lp.n_vars,
                      method="highs")
        assert res.status == 0
        assert sol.value == pytest.approx(res.fun, abs=1e-7)
        assert _dual_objective(lp, sol.dual) == pytest.approx(res.fun,
                                                              abs=1e-7)

    def test_zero_sum_value(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(13)
        for rows, cols in [(2, 2), (3, 4), (5, 3), (4, 6)]:
            M = rng.uniform(-1, 1, size=(rows, cols))
            value, _, _ = zero_sum_value(M)
            # min u s.t. u >= (x^T M)_j for every column j, x a distribution.
            res = linprog(np.r_[1.0, np.zeros(rows)],
                          A_ub=np.hstack([-np.ones((cols, 1)), M.T]),
                          b_ub=np.zeros(cols),
                          A_eq=np.r_[0.0, np.ones(rows)][None, :], b_eq=[1.0],
                          bounds=[(None, None)] + [(0, None)] * rows,
                          method="highs")
            assert res.status == 0
            assert value == pytest.approx(res.fun, abs=1e-7)


@pytest.mark.parametrize("cost, status", [(-1.0, "unbounded"),
                                          (1.0, "unbounded"),
                                          (0.0, "optimal")])
def test_program_without_constraints(cost, status):
    # No rows at all: the entering column is empty.
    sol = solve_lp(LinearProgram(np.array([cost])))
    assert sol.status == status
    assert sol.pivots == ()
