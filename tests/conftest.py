import numpy as np
import pytest

from teamsolve import LocalBlock, TeamGame

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
