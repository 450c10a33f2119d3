"""Game constructors: congestion-with-adversary, potential embeddings,

and seeded random instances.  Every generator emits a JSON document in
the standard schema (exact rational entries) and parses it back, so the
games the solver sees are byte-for-byte reproducible under a fixed seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import (GameError, SchemaError, TeamGame, game_from_dict,
                    game_to_dict)
from .two_team import TwoTeamGame, two_team_from_dict

MENU_PRODUCT_CAP = 64
_RATIONAL_GRID = 10 ** 6


class CapacityError(GameError):
    """A generator refused to materialize an oversized action space."""


def _rat(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(*value.as_integer_ratio())
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    raise SchemaError(f"expected a rational, got {value!r}")


def _pair(frac):
    return [int(frac.numerator), int(frac.denominator)]


# -- random dense games --------------------------------------------------


def random_game(n, sizes, adversary_size, seed, value_range=(-1, 1)):
    """Dense game with i.i.d. uniform rational entries, seed-determined.

    Entries live on a ``10^-6`` grid of ``value_range``, so the emitted
    document is exact and identical across runs with the same seed.
    """
    if n < 1 or len(sizes) != n or any(k < 1 for k in sizes):
        raise GameError("need n >= 1 positive action counts")
    if adversary_size < 1:
        raise GameError("adversary needs >= 1 action")
    lo, hi = _rat(value_range[0]), _rat(value_range[1])
    if hi < lo:
        raise GameError("empty value range")
    rng = np.random.default_rng(seed)
    shape = tuple(sizes) + (int(adversary_size),)
    ticks = rng.integers(0, _RATIONAL_GRID + 1, size=shape)
    entries = []
    v_max = Fraction(0)
    span = hi - lo
    for idx in np.ndindex(*shape):
        value = lo + span * Fraction(int(ticks[idx]), _RATIONAL_GRID)
        if value != 0:
            entries.append([list(int(i) for i in idx), *_pair(value)])
        v_max = max(v_max, abs(value))
    doc = {
        "n": int(n),
        "actions": [int(k) for k in sizes],
        "adversary_actions": int(adversary_size),
        "payoff": {"kind": "dense", "entries": entries},
        "v_max": _pair(v_max),
        "provenance": {"generator": "random", "seed": int(seed),
                       "value_range": [_pair(lo), _pair(hi)]},
    }
    return game_from_dict(doc)


# -- congestion games with an adversarial cost picker --------------------


@dataclass(frozen=True)
class CongestionSpec:
    """Players route over edges; an adversary picks each edge's costs.

    ``menus[e]`` lists the cost functions available on edge ``e``, each a
    table of ``n_players + 1`` values ``c(load)`` for loads ``0..n``.
    ``strategies[i]`` lists player ``i``'s actions, each a nonempty tuple
    of edge indices.
    """

    n_players: int
    menus: tuple            # per edge: tuple of cost tables (Fractions)
    strategies: tuple       # per player: tuple of edge-index tuples

    def __post_init__(self):
        if self.n_players < 1:
            raise SchemaError("need at least one player", "n_players")
        if not self.menus:
            raise SchemaError("need at least one edge", "edges")
        for e, menu in enumerate(self.menus):
            if not menu:
                raise SchemaError("menu must be nonempty", f"edges[{e}]")
            for k, table in enumerate(menu):
                if len(table) != self.n_players + 1:
                    raise SchemaError(
                        f"cost table needs {self.n_players + 1} entries "
                        f"(loads 0..n), got {len(table)}",
                        f"edges[{e}].menu[{k}]")
        if len(self.strategies) != self.n_players:
            raise SchemaError(
                f"need strategies for {self.n_players} players",
                "strategies")
        n_edges = len(self.menus)
        for i, actions in enumerate(self.strategies):
            if not actions:
                raise SchemaError("player needs at least one strategy",
                                  f"strategies[{i}]")
            for s, subset in enumerate(actions):
                if not subset or not all(0 <= e < n_edges for e in subset):
                    raise SchemaError(
                        "strategy must be a nonempty subset of edges",
                        f"strategies[{i}][{s}]")
                if len(set(subset)) != len(subset):
                    raise SchemaError("strategy repeats an edge",
                                      f"strategies[{i}][{s}]")

    @staticmethod
    def from_dict(doc):
        if not isinstance(doc, dict):
            raise SchemaError("congestion spec must be an object")
        for key in ("n_players", "edges", "strategies"):
            if key not in doc:
                raise SchemaError("missing required field", key)
        menus = []
        for e, edge in enumerate(doc["edges"]):
            if not isinstance(edge, dict) or "menu" not in edge:
                raise SchemaError("edge needs a 'menu'", f"edges[{e}]")
            menus.append(tuple(
                tuple(_rat(v) for v in table) for table in edge["menu"]))
        strategies = tuple(
            tuple(tuple(int(e) for e in subset) for subset in per_player)
            for per_player in doc["strategies"])
        return CongestionSpec(n_players=int(doc["n_players"]),
                              menus=tuple(menus), strategies=strategies)

    def to_dict(self):
        return {
            "n_players": self.n_players,
            "edges": [{"menu": [[_pair(v) for v in table]
                                for table in menu]} for menu in self.menus],
            "strategies": [[list(subset) for subset in per_player]
                           for per_player in self.strategies],
        }


def _loads(spec, action_profile):
    loads = [0] * len(spec.menus)
    for i, choice in enumerate(action_profile):
        for e in spec.strategies[i][choice]:
            loads[e] += 1
    return loads


def congestion_potential(spec, action_profile, menu_choice):
    """``sum_e sum_{j=0}^{load_e} c_{e,b_e}(j)`` as an exact rational.

    The load-zero term is included: it is constant in the players'
    choices but depends on the adversary's menu pick, so it shapes the
    adversary's incentives.
    """
    loads = _loads(spec, action_profile)
    total = Fraction(0)
    for e, load in enumerate(loads):
        table = spec.menus[e][menu_choice[e]]
        total += sum(table[j] for j in range(load + 1))
    return total


def congestion_player_cost(spec, player, action_profile, menu_choice):
    """Original cost: the player pays each edge it uses at its load."""
    loads = _loads(spec, action_profile)
    subset = spec.strategies[player][action_profile[player]]
    return sum(spec.menus[e][menu_choice[e]][loads[e]] for e in subset)


def menu_combinations(spec):
    return list(itertools.product(*(range(len(menu))
                                    for menu in spec.menus)))


def congestion_to_team_game(spec, menu_cap=MENU_PRODUCT_CAP):
    """Embed the congestion game as a team-vs-adversary potential game.

    Team actions are the players' routing strategies; the adversary's
    actions are the (capped) product of per-edge menu choices; the
    payoff is the potential, which players minimize and the cost picker
    maximizes.  Original player costs stay available through
    :func:`congestion_player_cost` so certificates can be re-checked
    against what players actually pay.
    """
    combos = menu_combinations(spec)
    if len(combos) > menu_cap:
        raise CapacityError(
            f"menu product has {len(combos)} adversary actions, cap is "
            f"{menu_cap}; refusing to materialize")
    sizes = [len(actions) for actions in spec.strategies]
    entries = []
    v_max = Fraction(0)
    for profile in itertools.product(*(range(k) for k in sizes)):
        for b, combo in enumerate(combos):
            value = congestion_potential(spec, profile, combo)
            if value != 0:
                entries.append([list(profile) + [b], *_pair(value)])
            v_max = max(v_max, abs(value))
    doc = {
        "n": spec.n_players,
        "actions": sizes,
        "adversary_actions": len(combos),
        "payoff": {"kind": "dense", "entries": entries},
        "v_max": _pair(v_max),
        "provenance": {"generator": "congestion", "spec": spec.to_dict(),
                       "menu_combos": [list(c) for c in combos]},
    }
    return game_from_dict(doc)


# -- adversarial potential games -----------------------------------------


def potential_game_embed(costs, utils, potential, tol=1e-9):
    """Wrap a validated adversarial potential game as a two-team game.

    ``costs[i]`` and ``utils[j]`` are dense per-player tables over the
    joint action space, ``potential`` the shared table.  Both difference
    identities (cost differences for minimizers, utility differences for
    maximizers, each against potential differences) are checked
    exhaustively; the first violating profile pair is named.  Any
    equilibrium computed on the returned game transfers to the original
    per-player tables.
    """
    potential = np.asarray(potential, dtype=float)
    n, m = len(costs), len(utils)
    if potential.ndim != n + m:
        raise GameError("potential rank must equal total player count")
    for i, table in enumerate(costs):
        _check_difference_identity(np.asarray(table, dtype=float), potential,
                                   axis=i, tol=tol, label=f"cost[{i}]")
    for j, table in enumerate(utils):
        _check_difference_identity(np.asarray(table, dtype=float), potential,
                                   axis=n + j, tol=tol, label=f"util[{j}]")
    return TwoTeamGame(potential, n=n, m=m)


def _check_difference_identity(table, potential, axis, tol, label):
    if table.shape != potential.shape:
        raise GameError(f"{label}: shape {table.shape} does not match the "
                        f"potential {potential.shape}")
    # The identity says table - potential is constant along `axis`.
    residual = table - potential
    spread = residual.max(axis=axis) - residual.min(axis=axis)
    worst = float(spread.max(initial=0.0))
    if worst > tol:
        flat = int(np.argmax(spread))
        where = np.unravel_index(flat,
                                 spread.shape) if spread.ndim else ()
        raise GameError(
            f"{label}: difference identity violated by {worst:.3g} at "
            f"profile slice {tuple(int(v) for v in where)} along axis "
            f"{axis}")


def random_potential_triple(minimizers, maximizers, actions,
                            adversary_actions, seed, value_range=(-1, 1)):
    """Seeded (costs, utils, potential) satisfying the identities exactly.

    Built constructively: each cost is the potential plus a random term
    that ignores the owner's action, and symmetrically for utilities.
    Returns float tables ready for :func:`potential_game_embed`.
    """
    rng = np.random.default_rng(seed)
    lo, hi = float(value_range[0]), float(value_range[1])
    shape = tuple(actions) + tuple(adversary_actions)
    potential = rng.uniform(lo, hi, size=shape)
    costs = []
    for i in range(minimizers):
        off_shape = list(shape)
        off_shape[i] = 1
        costs.append(potential + rng.uniform(lo, hi, size=off_shape))
    utils = []
    for j in range(maximizers):
        off_shape = list(shape)
        off_shape[minimizers + j] = 1
        utils.append(potential + rng.uniform(lo, hi, size=off_shape))
    return costs, utils, potential


def potential_spec_to_two_team(doc, seed):
    """CLI path: build a seeded valid triple from a size spec and embed it."""
    for key in ("minimizers", "maximizers", "actions", "adversary_actions"):
        if key not in doc:
            raise SchemaError("missing required field", key)
    costs, utils, potential = random_potential_triple(
        int(doc["minimizers"]), int(doc["maximizers"]),
        [int(k) for k in doc["actions"]],
        [int(k) for k in doc["adversary_actions"]],
        seed, tuple(doc.get("value_range", (-1, 1))))
    game = potential_game_embed(costs, utils, potential)
    joint = game_to_dict(game.joint)  # the two-team axis order
    document = {
        "teams": {"minimizers": game.n, "maximizers": game.m},
        "actions": [int(k) for k in doc["actions"]],
        "adversary_actions": [int(k) for k in doc["adversary_actions"]],
        "payoff": joint["payoff"],
        "v_max": joint["v_max"],
        "provenance": {"generator": "potential", "seed": int(seed)},
    }
    return two_team_from_dict(document)
