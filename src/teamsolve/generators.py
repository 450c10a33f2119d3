"""Game constructors: congestion-with-adversary, potential embeddings,

and seeded random instances.  Every generator emits a JSON document in
the standard schema (exact rational entries) and parses it back, so the
games the solver sees are byte-for-byte reproducible under a fixed seed.
:func:`random_game` computes each entry as an integer numerator over one
common denominator, reduced with ``math.gcd``, so it builds no
``Fraction`` per entry; the pairs are the lowest-terms ``Fraction`` ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import (GameError, SchemaError, _is_int, game_from_dict,
                    game_to_dict)
from .two_team import TwoTeamGame, _action_counts, two_team_from_dict

MENU_PRODUCT_CAP = 64
_RATIONAL_GRID = 10 ** 6
_IDENTITY_TOL = 1e-9  # potential_game_embed's difference identities


class CapacityError(GameError):
    """A generator refused to materialize an oversized action space."""


def _rat(value, path):
    """A ``Fraction``, a JSON integer, a finite float or a ``[num, den]``
    pair of JSON integers, as an exact ``Fraction``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(*value.as_integer_ratio())
    if isinstance(value, (list, tuple)) and len(value) == 2:
        num, den = _ints(value, path, depth=1)
        if den == 0:
            raise SchemaError(f"zero denominator in {value!r}", path)
        return Fraction(num, den)
    if _is_int(value):
        return Fraction(value)
    raise SchemaError(f"expected a rational, got {value!r}", path)


def _ints(value, path, depth):
    """``value``, checked to be JSON integers (the schema's rule,
    :func:`~teamsolve.games._is_int`) nested ``depth`` lists deep."""
    if depth and isinstance(value, (list, tuple)):
        return [_ints(v, f"{path}[{i}]", depth - 1)
                for i, v in enumerate(value)]
    if not depth and _is_int(value):
        return value
    raise SchemaError(f"expected {'a list' if depth else 'an integer'}, "
                      f"got {value!r}", path)


def _field(doc, key, depth=0):
    """A spec object's required field, checked as :func:`_ints`."""
    if not isinstance(doc, dict):
        raise SchemaError("spec must be an object")
    if key not in doc:
        raise SchemaError("missing required field", key)
    return _ints(doc[key], key, depth)


def _value_range(value_range):
    """``(lo, hi)`` as Fractions from a two-entry list of rationals."""
    if not isinstance(value_range, (list, tuple)) or len(value_range) != 2:
        raise SchemaError(f"expected [low, high], got {value_range!r}",
                          "value_range")
    return tuple(_rat(v, f"value_range[{i}]")
                 for i, v in enumerate(value_range))


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
    lo, hi = _value_range(value_range)
    if hi < lo:
        raise GameError("empty value range")
    rng = np.random.default_rng(seed)
    shape = tuple(sizes) + (int(adversary_size),)
    ticks = rng.integers(0, _RATIONAL_GRID + 1, size=shape)
    span = hi - lo
    # lo + span * tick / 10^6 == (a + c * tick) / d, reduced by the gcd.
    d = lo.denominator * span.denominator * _RATIONAL_GRID
    a = lo.numerator * span.denominator * _RATIONAL_GRID
    c = span.numerator * lo.denominator
    entries = []
    for idx, tick in zip(itertools.product(*map(range, shape)),
                         ticks.ravel().tolist()):
        num = a + c * tick
        if num:
            g = math.gcd(num, d)
            entries.append([list(idx), num // g, d // g])
    # |value| is convex in the tick, so its maximum sits at an end tick.
    v_max = max(abs(lo + span * Fraction(int(t), _RATIONAL_GRID))
                for t in (ticks.min(), ticks.max()))
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


def random_spec_to_game(doc, seed):
    """CLI path: :func:`random_game` from a size spec."""
    return random_game(_field(doc, "n"), _field(doc, "actions", depth=1),
                       _field(doc, "adversary_actions"), seed,
                       doc.get("value_range", (-1, 1)))


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
        n_players = _field(doc, "n_players")
        strategies = _field(doc, "strategies", depth=3)
        edges = doc.get("edges")
        if not isinstance(edges, list):
            raise SchemaError("expected a list of edges", "edges")
        menus = []
        for e, edge in enumerate(edges):
            if (not isinstance(edge, dict)
                    or not isinstance(edge.get("menu"), list)
                    or not all(isinstance(t, list) for t in edge["menu"])):
                raise SchemaError("edge needs a 'menu' list of cost tables",
                                  f"edges[{e}]")
            menus.append(tuple(
                tuple(_rat(v, f"edges[{e}].menu[{k}][{j}]")
                      for j, v in enumerate(table))
                for k, table in enumerate(edge["menu"])))
        return CongestionSpec(n_players, tuple(menus), tuple(
            tuple(map(tuple, actions)) for actions in strategies))

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


def congestion_to_team_game(spec):
    """Embed the congestion game as a team-vs-adversary potential game.

    Team actions are the players' routing strategies; the adversary's
    actions are the product of per-edge menu choices, refused with a
    :class:`CapacityError` above :data:`MENU_PRODUCT_CAP`; the
    payoff is the potential, which players minimize and the cost picker
    maximizes.  Original player costs stay available through
    :func:`congestion_player_cost` so certificates can be re-checked
    against what players actually pay.
    """
    combos = menu_combinations(spec)
    if len(combos) > MENU_PRODUCT_CAP:
        raise CapacityError(
            f"menu product has {len(combos)} adversary actions, cap is "
            f"{MENU_PRODUCT_CAP}; refusing to materialize")
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


def potential_game_embed(costs, utils, potential):
    """Wrap a validated adversarial potential game as a two-team game.

    ``costs[i]`` and ``utils[j]`` are dense per-player tables over the
    joint action space, ``potential`` the shared table.  Both difference
    identities (cost differences for minimizers, utility differences for
    maximizers, each against potential differences) are checked
    exhaustively, up to ``_IDENTITY_TOL``; the first violating profile
    pair is named.  Any equilibrium computed on the returned game
    transfers to the original per-player tables.
    """
    potential = np.asarray(potential, dtype=float)
    n, m = len(costs), len(utils)
    if potential.ndim != n + m:
        raise GameError("potential rank must equal total player count")
    for i, table in enumerate(costs):
        _check_difference_identity(np.asarray(table, dtype=float), potential,
                                   axis=i, label=f"cost[{i}]")
    for j, table in enumerate(utils):
        _check_difference_identity(np.asarray(table, dtype=float), potential,
                                   axis=n + j, label=f"util[{j}]")
    return TwoTeamGame(potential, n=n, m=m)


def _check_difference_identity(table, potential, axis, label):
    if table.shape != potential.shape:
        raise GameError(f"{label}: shape {table.shape} does not match the "
                        f"potential {potential.shape}")
    # The identity says table - potential is constant along `axis`.
    residual = table - potential
    spread = residual.max(axis=axis) - residual.min(axis=axis)
    worst = float(spread.max(initial=0.0))
    if worst > _IDENTITY_TOL:
        flat = int(np.argmax(spread))
        where = np.unravel_index(flat,
                                 spread.shape) if spread.ndim else ()
        raise GameError(
            f"{label}: difference identity violated by {worst:.3g} at "
            f"profile slice {tuple(int(v) for v in where)} along axis "
            f"{axis}")


def potential_spec_to_two_team(doc, seed):
    """CLI path: a seeded uniform potential table of a size spec's shape,
    checked as :func:`~teamsolve.two_team.two_team_from_dict` checks it,
    as a two-team game (see :func:`potential_game_embed`)."""
    n, m = _field(doc, "minimizers"), _field(doc, "maximizers")
    for key, size in (("minimizers", n), ("maximizers", m)):
        if size < 1:
            raise SchemaError("team size must be positive", key)
    actions, adversary_actions = _action_counts(doc, n, m)
    lo, hi = map(float, _value_range(doc.get("value_range", (-1, 1))))
    potential = np.random.default_rng(seed).uniform(
        lo, hi, size=tuple(actions + adversary_actions))
    joint = game_to_dict(TwoTeamGame(potential, n=n, m=m).joint)
    document = {
        "teams": {"minimizers": n, "maximizers": m},
        "actions": actions,
        "adversary_actions": adversary_actions,
        "payoff": joint["payoff"],
        "v_max": joint["v_max"],
        "provenance": {"generator": "potential", "seed": int(seed)},
    }
    return two_team_from_dict(document)
