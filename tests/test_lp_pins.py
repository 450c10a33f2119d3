"""Pinned simplex behaviour, and the LP layer against scipy's HiGHS.

Each pin holds, for one seeded program, the pivot count and digests of
the pivot sequence and of the primal solution.  The simplex is meant to
be bitwise deterministic, so a change to its pivot rule or to its
tableau arithmetic shows up here as a changed digest.  The programs are
extension LPs from dense, ring and two-team games, plus
``random_feasible_lp`` draws.

The pins may change only in a change whose stated purpose allows the
pivot sequences to move; every other change must leave them equal.  To
re-record them, run ``PYTHONPATH=src python tests/test_lp_pins.py``
from the repository root and replace ``PINS`` with the dict it prints.
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
)

from conftest import ring_game
from test_linprog import minimax_lp, random_feasible_lp


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
    "dense_2x2x3_0": (4, "ef3a65452e4efb31", "86650d5625497b57"),
    "dense_2x2x3_1": (7, "5abdd2b1806533ad", "e3fe46e977bd4317"),
    "dense_2x2x3_2": (8, "d6c5481306420f17", "729cf74d8fb86585"),
    "dense_2x2x3_3": (5, "002a2308ab75882c", "b8ebb6697fe958ed"),
    "dense_4444x6_0": (18, "ea1f2cee5b9bdaa6", "6c59c875ae72157d"),
    "dense_4444x6_1": (19, "ad83b74da27fca6a", "50c7130eaee21bf8"),
    "dense_4444x6_2": (16, "cf6c6912024d7a8b", "f40508e2de20edf8"),
    "feasible_0": (7, "3ed71f27a6964677", "18360cea92cca176"),
    "feasible_1": (9, "d0d65c953d31ac4a", "f9205da83e463b93"),
    "feasible_2": (4, "2b6373e88ce423e8", "76cbc1f520eaa467"),
    "feasible_3": (2, "4f6f4ffc355f2cd0", "afa26f04e71eb412"),
    "feasible_4": (7, "b8b6737b22ac3f1e", "6a91603d0d7d39ce"),
    "feasible_5": (3, "a9e39efe01f9c0ac", "878253196008a58f"),
    "feasible_6": (4, "a2aa1487f5ed31f9", "a819b58dbca55613"),
    "feasible_7": (4, "233ec31f4c72f1c3", "6157a7955f2c2709"),
    "ring_12_0": (30, "30aeb3ebac7cb5ef", "f81385478ff931e2"),
    "ring_12_1": (36, "b8ab6a9d7d993991", "e7dfe029807286b1"),
    "ring_12_2": (41, "5f9c872b1a87b988", "567bd14f8b97d942"),
    "two_team_2v2_0": (4, "9ebe28867933ae87", "7b67fa911d8afa31"),
    "two_team_2v2_1": (5, "b08827df60887234", "2727ea33882f8d5a"),
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
            # min u s.t. u >= (x^T M)_j for every column j, x a distribution.
            lp = minimax_lp(rng.uniform(-1, 1, size=(rows, cols)))
            value = solve_lp(lp).require_optimal().value
            res = linprog(lp.objective, A_ub=-lp.A, b_ub=-lp.b, A_eq=lp.E,
                          b_eq=lp.f, bounds=lp.bounds, method="highs")
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


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {pin(CASES[name]())!r},".replace("'", '"'))
    print("}")
