import math

import numpy as np
import pytest

from teamsolve import LocalBlock, TeamGame, TwoTeamGame

MP_TENSOR = np.array([[1.0, -1.0], [-1.0, 1.0]])


@pytest.fixture()
def matching_pennies():
    """Team player with actions {H, T} versus adversary with {h, t}."""
    return TeamGame.dense(MP_TENSOR)


@pytest.fixture()
def constant_game():
    return TeamGame.dense(np.full((2, 2), 2.0))


def random_team_game(rng, max_players=3, max_actions=3, max_adversary=4):
    n = int(rng.integers(1, max_players + 1))
    sizes = [int(rng.integers(2, max_actions + 1)) for _ in range(n)]
    nb = int(rng.integers(2, max_adversary + 1))
    return TeamGame.dense(rng.uniform(-1, 1, size=(*sizes, nb)))


def random_profile(rng, game):
    team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
    adversary = rng.dirichlet(np.ones(game.adversary_actions))
    return team, adversary


def stationarity_measure(res, ell):
    """``(measure, slack)`` at a prox result's center: ``2 * ell`` times
    the prox distance plus the slack ``2 sqrt(2 tau ell)`` of its value
    tolerance ``tau``, since a value error ``tau`` on an ``ell``-strongly
    convex objective moves the minimizer by at most ``sqrt(2 tau / ell)``.
    """
    slack = 2.0 * math.sqrt(2.0 * res.tolerance * ell)
    return 2.0 * ell * res.prox_distance + slack, slack


def ring_game(rng, players, adversary_actions):
    """Polytensor ring: one block per pair (i, i+1 mod n), with the adversary."""
    blocks = [LocalBlock(tuple(sorted((i, (i + 1) % players))), True,
                         rng.uniform(-1, 1, size=(2, 2, adversary_actions)))
              for i in range(players)]
    return TeamGame.polytensor([2] * players, adversary_actions, blocks)


def mixed_ring_game(rng, players, adversary_actions):
    """A ring whose odd pairs skip the adversary, plus two one-player blocks
    (one with the adversary axis, one without)."""
    blocks = [LocalBlock(tuple(sorted((i, (i + 1) % players))), i % 2 == 0,
                         rng.uniform(-1, 1, size=(2, 2) + (
                             (adversary_actions,) if i % 2 == 0 else ())))
              for i in range(players)]
    blocks.append(LocalBlock((1,), False, rng.uniform(-1, 1, size=2)))
    blocks.append(LocalBlock((2,), True,
                             rng.uniform(-1, 1, size=(2, adversary_actions))))
    return TeamGame.polytensor([2] * players, adversary_actions, blocks)


def random_two_team(rng, n=2, m=2, size=2):
    shape = (size,) * (n + m)
    return TwoTeamGame(rng.uniform(-1, 1, size=shape), n=n, m=m)


def _seed9_draws():
    """The six 2v2 draws of ``test_batch_2v2_certified`` (and of the
    benchmark's ``gdmm`` panel)."""
    rng = np.random.default_rng(9)
    return [random_two_team(rng) for _ in range(6)]


# Blocks of a 2v2 polytensor game as (players, includes_adversary): the
# joint team is minimizers 0 and 1 and co-maximizer 2, the adversary the
# last maximizer.
POLY_2V2_BLOCKS = (((0, 2), False), ((1,), True), ((0, 1), False),
                   ((2,), True), ((0, 1, 2), True))


def poly_two_team_doc(rng, blocks=POLY_2V2_BLOCKS, maximizers=2):
    """A two-team document with two minimizers, ``maximizers`` maximizers
    and a polytensor payoff over ``blocks``, two actions each.

    Entries are multiples of 1e-6, drawn like the benchmark's rational
    payoffs.
    """
    locals_ = []
    for players, with_adversary in blocks:
        shape = (2,) * (len(players) + with_adversary)
        entries = [[list(idx), int(rng.integers(-10**6, 10**6 + 1)), 10**6]
                   for idx in np.ndindex(*shape)]
        locals_.append({"players": list(players),
                        "includes_adversary": with_adversary,
                        "entries": [e for e in entries if e[1]]})
    return {"teams": {"minimizers": 2, "maximizers": maximizers},
            "actions": [2, 2], "adversary_actions": [2] * maximizers,
            "payoff": {"kind": "polytensor", "locals": locals_}}
