import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from teamsolve import (
    CapacityError,
    CongestionSpec,
    congestion_to_team_game,
    game_from_dict,
    game_to_dict,
    random_game,
)
from teamsolve.games import SchemaError
from teamsolve.generators import (
    congestion_player_cost,
    congestion_potential,
    menu_combinations,
)


def _json_round_trip(doc):
    return json.loads(json.dumps(doc))


def seeded_spec(seed, n_players=3, n_edges=3, menu_size=2, n_actions=2):
    """Random congestion spec with exact rational cost tables."""
    rng = np.random.default_rng(seed)
    menus = tuple(
        tuple(tuple(Fraction(int(v), 7) for v in rng.integers(-9, 10,
                                                               n_players + 1))
              for _ in range(menu_size))
        for _ in range(n_edges))
    strategies = []
    for _ in range(n_players):
        actions = []
        while len(actions) < n_actions:
            mask = rng.integers(0, 2, n_edges)
            subset = tuple(int(e) for e in np.flatnonzero(mask))
            if subset and subset not in actions:
                actions.append(subset)
        strategies.append(tuple(actions))
    return CongestionSpec(n_players, menus, tuple(strategies))


def _profiles(spec):
    return itertools.product(*(range(len(a)) for a in spec.strategies))


class TestRandomGame:
    @pytest.mark.parametrize("n, sizes, b, seed", [
        (1, [2], 2, 0), (2, [2, 3], 4, 1), (3, [3, 2, 2], 3, 7)])
    def test_dict_round_trip_is_bitwise(self, n, sizes, b, seed):
        game = random_game(n, sizes, b, seed)
        doc = _json_round_trip(game_to_dict(game))
        back = game_from_dict(doc)
        assert back.payoff_tensor().tobytes() == game.payoff_tensor().tobytes()
        assert back.payoff_tensor().shape == (*sizes, b)
        assert back.v_max == game.v_max
        assert game_to_dict(back) == doc

    def test_seed_fixes_the_document(self):
        assert (game_to_dict(random_game(2, [2, 2], 3, 5))
                == game_to_dict(random_game(2, [2, 2], 3, 5)))
        assert (game_to_dict(random_game(2, [2, 2], 3, 5))
                != game_to_dict(random_game(2, [2, 2], 3, 6)))


class TestCongestion:
    def test_spec_round_trip(self):
        spec = seeded_spec(0)
        assert CongestionSpec.from_dict(spec.to_dict()) == spec
        assert CongestionSpec.from_dict(
            _json_round_trip(spec.to_dict())) == spec

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_potential_tracks_every_unilateral_cost_change(self, seed):
        spec = seeded_spec(seed)
        for profile in _profiles(spec):
            for menu_choice in menu_combinations(spec):
                before = congestion_potential(spec, profile, menu_choice)
                for i, actions in enumerate(spec.strategies):
                    cost = congestion_player_cost(spec, i, profile,
                                                  menu_choice)
                    for a in range(len(actions)):
                        moved = profile[:i] + (a,) + profile[i + 1:]
                        assert (congestion_potential(spec, moved, menu_choice)
                                - before
                                == congestion_player_cost(
                                    spec, i, moved, menu_choice) - cost)

    def test_team_game_payoff_is_the_potential(self):
        spec = seeded_spec(1)
        game = congestion_to_team_game(spec)
        combos = menu_combinations(spec)
        assert game.action_sets == tuple(len(a) for a in spec.strategies)
        assert game.adversary_actions == len(combos) == 8
        for profile in _profiles(spec):
            for b, menu_choice in enumerate(combos):
                potential = congestion_potential(spec, profile, menu_choice)
                assert game.payoff(profile, b) == float(potential)
                # The embedding keeps each player's incentives.
                for i, actions in enumerate(spec.strategies):
                    for a in range(len(actions)):
                        moved = profile[:i] + (a,) + profile[i + 1:]
                        delta = (congestion_player_cost(spec, i, moved,
                                                        menu_choice)
                                 - congestion_player_cost(spec, i, profile,
                                                          menu_choice))
                        assert (game.payoff(moved, b) - game.payoff(profile, b)
                                == pytest.approx(float(delta), abs=1e-12))

    def test_menu_product_over_the_cap_is_refused(self):
        # Two menus per edge: 7 edges make 128 adversary actions, 6 make 64.
        with pytest.raises(CapacityError):
            congestion_to_team_game(seeded_spec(0, n_edges=7))
        assert (congestion_to_team_game(seeded_spec(0, n_edges=6))
                .adversary_actions == 64)


class TestSpecRationals:
    """Spec rationals follow the schema: integer members, no booleans."""

    @pytest.mark.parametrize("bad, message", [
        ([1.5, 2], r"value_range\[0\]\[0\]: expected an integer, got 1\.5"),
        (["1", 2], r"value_range\[0\]\[0\]: expected an integer, got '1'"),
        ([True, 2], r"value_range\[0\]\[0\]: expected an integer, got True"),
        ([1, False], r"value_range\[0\]\[1\]: expected an integer, got False"),
        ([1, 0], r"value_range\[0\]: zero denominator in \[1, 0\]"),
        (True, r"value_range\[0\]: expected a rational, got True"),
        (float("nan"), r"value_range\[0\]: expected a rational, got nan"),
        ("1/2", r"value_range\[0\]: expected a rational, got '1/2'"),
    ])
    def test_random_game_value_range_is_checked(self, bad, message):
        with pytest.raises(SchemaError, match=message):
            random_game(1, [2], 2, 0, value_range=(bad, 1))

    def test_pair_members_keep_working(self):
        game = random_game(2, [2, 2], 3, 0, value_range=([1, 2], 1))
        assert game.document["provenance"]["value_range"] == [[1, 2], [1, 1]]
        tensor = game.payoff_tensor()
        assert tensor.min() >= 0.5 and tensor.max() <= 1.0
        same = random_game(2, [2, 2], 3, 0,
                           value_range=(Fraction(1, 2), Fraction(1)))
        assert game_to_dict(same) == game_to_dict(game)

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d.update(n_players="3"), "n_players"),
        (lambda d: d.update(n_players=True), "n_players"),
        (lambda d: d["strategies"][0][0].__setitem__(0, 1.0),
         r"strategies\[0\]\[0\]\[0\]: expected an integer, got 1\.0"),
        (lambda d: d["strategies"][1].__setitem__(0, 2),
         r"strategies\[1\]\[0\]: expected a list, got 2"),
        (lambda d: d.update(edges={"menu": []}), "edges: expected a list"),
        (lambda d: d["edges"][0]["menu"].__setitem__(0, 5),
         r"edges\[0\]: edge needs"),
        (lambda d: d["edges"][1]["menu"][0].__setitem__(2, [1, 0]),
         r"edges\[1\]\.menu\[0\]\[2\]: zero denominator in \[1, 0\]"),
        (lambda d: d["edges"][2]["menu"][1].__setitem__(0, [2.5, 7]),
         r"edges\[2\]\.menu\[1\]\[0\]\[0\]: expected an integer, "
         r"got 2\.5"),
        (lambda d: d["edges"][0]["menu"][1].__setitem__(3, True),
         r"edges\[0\]\.menu\[1\]\[3\]: expected a rational, got True"),
    ])
    def test_congestion_spec_fields_are_checked(self, edit, path):
        doc = _json_round_trip(seeded_spec(0).to_dict())
        edit(doc)
        with pytest.raises(SchemaError, match=path):
            CongestionSpec.from_dict(doc)
