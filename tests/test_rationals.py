"""Exact-rational game documents: loading, generation and rejections.

``game_from_dict`` converts each ``[num, den]`` by one integer division;
its tables, blocks and ``v_max`` must equal a ``float(Fraction)``
reference byte for byte, and ``random_game`` must emit the reference's
document.
"""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsolve import GameError, SchemaError, game_from_dict, random_game
from teamsolve.two_team import two_team_from_dict

from oracles import (
    reference_dense_entries,
    reference_random_game_document,
    reference_rational,
)

# Pairs whose conversion is easy to get wrong: zero over a negative
# denominator, underflow to a signed zero, subnormals, ties to even and
# integers above 2**53.
EDGE_PAIRS = [(0, -5), (0, 1), (-1, 10**330), (1, -(10**330)), (1, 2**1074),
              (-1, 2**1074), (1, 2**1075), (3, 2**1075), (-3, -(2**1075)),
              (2**53 + 1, 1), (-(2**53 + 1), -1), (2**53 + 3, 1),
              (2**64 + 1, 3), (10**300, 7), (-(10**300), 10**300 + 1),
              (1, 3), (-2, -6), (7, -10**6)]

_NUMERATORS = st.one_of(st.integers(-10**6, 10**6),
                        st.integers(-2**80, 2**80),
                        st.sampled_from([0, 2**53 + 1, -(2**53 + 1),
                                         2**63 + 5, 10**300]))
_DENOMINATORS = st.one_of(st.integers(1, 10**6), st.integers(-10**6, -1),
                          st.integers(2**53, 2**80),
                          st.sampled_from([-5, 2**1074, -(2**1074),
                                           2**1075, 10**330, -(10**330)]))
_PAIRS = st.one_of(st.tuples(_NUMERATORS, _DENOMINATORS),
                   st.sampled_from(EDGE_PAIRS))


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _entries(draw, shape):
    """Entries at distinct positions of ``shape``, in a drawn order."""
    size = math.prod(shape)
    order = draw(st.permutations(range(size)))
    count = draw(st.integers(0, size))
    return [[[int(i) for i in np.unravel_index(at, shape)], *draw(_PAIRS)]
            for at in order[:count]]


@st.composite
def _blocks(draw, players, adversary):
    """Polytensor locals over ``players`` team players, each nonempty."""
    locals_ = []
    for _ in range(draw(st.integers(1, 4))):
        members = sorted(draw(st.sets(st.integers(0, len(players) - 1),
                                      max_size=3)))
        with_adv = draw(st.booleans()) or not members
        shape = (tuple(players[p] for p in members)
                 + ((adversary,) if with_adv else ()))
        locals_.append({"players": members, "includes_adversary": with_adv,
                        "entries": draw(_entries(shape))})
    return locals_


def _reference_blocks(locals_, actions, adversary):
    for loc in locals_:
        shape = tuple(actions[p] for p in loc["players"])
        if loc["includes_adversary"]:
            shape += (adversary,)
        yield reference_dense_entries(loc["entries"], shape)


def _assert_payoff_matches(game, payoff, actions, adversary):
    if payoff["kind"] == "dense":
        want = reference_dense_entries(payoff["entries"],
                                       (*actions, adversary))
        _same_bytes(game.payoff_tensor(), want)
    else:
        wants = list(_reference_blocks(payoff["locals"], actions, adversary))
        assert len(game._blocks) == len(wants)
        for blk, want in zip(game._blocks, wants):
            _same_bytes(blk.table, want)


@st.composite
def _team_docs(draw):
    n = draw(st.integers(1, 3))
    actions = [draw(st.integers(1, 3)) for _ in range(n)]
    adversary = draw(st.integers(1, 3))
    if draw(st.booleans()):
        payoff = {"kind": "dense",
                  "entries": draw(_entries((*actions, adversary)))}
    else:
        payoff = {"kind": "polytensor",
                  "locals": draw(_blocks(actions, adversary))}
    return {"n": n, "actions": actions, "adversary_actions": adversary,
            "payoff": payoff}


@st.composite
def _two_team_docs(draw):
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    actions = [draw(st.integers(1, 3)) for _ in range(n)]
    b_actions = [draw(st.integers(1, 3)) for _ in range(m)]
    joint = actions + b_actions[:-1]
    if draw(st.booleans()):
        payoff = {"kind": "dense",
                  "entries": draw(_entries((*joint, b_actions[-1])))}
    else:
        payoff = {"kind": "polytensor",
                  "locals": draw(_blocks(joint, b_actions[-1]))}
    return {"teams": {"minimizers": n, "maximizers": m}, "actions": actions,
            "adversary_actions": b_actions, "payoff": payoff}


class TestLoadMatchesFractionReference:
    @settings(max_examples=150, deadline=None)
    @given(_team_docs())
    def test_tables_and_blocks(self, doc):
        game = game_from_dict(json.loads(json.dumps(doc)))
        _assert_payoff_matches(game, doc["payoff"], doc["actions"],
                               doc["adversary_actions"])

    @settings(max_examples=100, deadline=None)
    @given(_two_team_docs())
    def test_two_team_joint_tables(self, doc):
        game = two_team_from_dict(json.loads(json.dumps(doc)))
        b_actions = doc["adversary_actions"]
        _assert_payoff_matches(game.joint, doc["payoff"],
                               doc["actions"] + b_actions[:-1],
                               b_actions[-1])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_PAIRS, _NUMERATORS))
    def test_v_max(self, value):
        value = list(value) if isinstance(value, tuple) else value
        doc = {"n": 1, "actions": [1], "adversary_actions": 1,
               "payoff": {"kind": "dense", "entries": []}, "v_max": value}
        want = reference_rational(value)
        if want < 0:
            with pytest.raises(GameError, match="nonnegative"):
                game_from_dict(doc)
            return
        got = game_from_dict(doc).v_max
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("num, den", EDGE_PAIRS,
                             ids=[f"pair{k}" for k in range(len(EDGE_PAIRS))])
    def test_edge_pairs(self, num, den):
        want = reference_rational([num, den])
        doc = {"n": 1, "actions": [2], "adversary_actions": 1,
               "payoff": {"kind": "dense", "entries": [[[1, 0], num, den]]}}
        if want >= 0:  # -0.0 included
            doc["v_max"] = [num, den]
        game = game_from_dict(doc)
        got = [game.payoff_tensor()[1, 0]] + [game.v_max] * ("v_max" in doc)
        for value in got:
            assert math.copysign(1.0, value) == math.copysign(1.0, want)
            assert np.float64(value).tobytes() == np.float64(want).tobytes()

    def test_zero_over_a_negative_denominator_is_positive_zero(self):
        doc = {"n": 1, "actions": [1], "adversary_actions": 2,
               "payoff": {"kind": "dense", "entries": [[[0, 0], 0, -5],
                                                       [[0, 1], -1, 10**330]]}}
        got = game_from_dict(doc).payoff_tensor()
        assert math.copysign(1.0, got[0, 0]) == 1.0
        assert math.copysign(1.0, got[0, 1]) == -1.0


def _dense_doc():
    return {"n": 1, "actions": [2], "adversary_actions": 2,
            "payoff": {"kind": "dense",
                       "entries": [[[0, 0], 1, 1], [[1, 1], -1, 2]]},
            "v_max": [1, 1]}


def _poly_doc():
    return {"n": 2, "actions": [2, 2], "adversary_actions": 2,
            "payoff": {"kind": "polytensor", "locals": [
                {"players": [0, 1], "includes_adversary": False,
                 "entries": [[[0, 1], 1, 4]]},
                {"players": [1], "includes_adversary": True,
                 "entries": [[[1, 0], 1, 2], [[0, 1], -1, 3]]}]}}


def _two_team_doc():
    return {"teams": {"minimizers": 1, "maximizers": 2}, "actions": [2],
            "adversary_actions": [2, 2],
            "payoff": {"kind": "dense", "entries": [[[0, 1, 0], 1, 2]]}}


def _set(doc, keys, value):
    *keys, last = keys
    for key in keys:
        doc = doc[key]
    doc[last] = value


def _reject(load, doc, path):
    with pytest.raises(SchemaError) as err:
        load(doc)
    assert err.value.path == path
    return err.value


class TestBooleansAreNotIntegers:
    @pytest.mark.parametrize("make, keys, value, path", [
        (_dense_doc, ("n",), True, "n"),
        (_dense_doc, ("actions",), [True], "actions"),
        (_dense_doc, ("adversary_actions",), True, "adversary_actions"),
        (_dense_doc, ("v_max",), True, "v_max"),
        (_dense_doc, ("v_max",), [True, 1], "v_max"),
        (_dense_doc, ("v_max",), [1, True], "v_max"),
        (_dense_doc, ("payoff", "entries", 1), [[True, 0], 1, 2],
         "payoff.entries[1]"),
        (_dense_doc, ("payoff", "entries", 1), [[1, False], 1, 2],
         "payoff.entries[1]"),
        (_dense_doc, ("payoff", "entries", 1), [[1, 1], True, 2],
         "payoff.entries[1]"),
        (_dense_doc, ("payoff", "entries", 1), [[1, 1], 1, True],
         "payoff.entries[1]"),
        (_poly_doc, ("payoff", "locals", 1, "players"), [True],
         "payoff.locals[1].players"),
        (_poly_doc, ("payoff", "locals", 1, "entries", 0), [[1, 0], True, 2],
         "payoff.locals[1].entries[0]"),
    ])
    def test_team_documents(self, make, keys, value, path):
        doc = make()
        _set(doc, keys, value)
        _reject(game_from_dict, doc, path)

    @pytest.mark.parametrize("keys, value, path", [
        (("teams", "minimizers"), True, "teams"),
        (("teams", "maximizers"), True, "teams"),
        (("actions",), [True], "actions"),
        (("adversary_actions",), [2, True], "adversary_actions"),
        (("payoff", "entries", 0), [[0, True, 0], 1, 2], "payoff.entries[0]"),
    ])
    def test_two_team_documents(self, keys, value, path):
        doc = _two_team_doc()
        _set(doc, keys, value)
        _reject(two_team_from_dict, doc, path)

    def test_one_maximizer_with_a_boolean_action_count(self):
        doc = _two_team_doc()
        doc["teams"]["maximizers"] = 1
        doc["adversary_actions"] = True
        doc["payoff"]["entries"] = []
        _reject(two_team_from_dict, doc, "adversary_actions")

    def test_the_message_names_the_axis(self):
        doc = _dense_doc()
        doc["payoff"]["entries"][1] = [[1, False], 1, 2]
        err = _reject(game_from_dict, doc, "payoff.entries[1]")
        assert "axis 1 must be an integer, got bool" in str(err)


class TestBlockFields:
    @pytest.mark.parametrize("players", [[1, 0], [1, 1]])
    def test_players_must_be_strictly_increasing(self, players):
        doc = _poly_doc()
        doc["payoff"]["locals"][0]["players"] = players
        err = _reject(game_from_dict, doc, "payoff.locals[0].players")
        assert "strictly increasing" in str(err)

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
    def test_includes_adversary_must_be_a_boolean(self, value):
        doc = _poly_doc()
        doc["payoff"]["locals"][1]["includes_adversary"] = value
        err = _reject(game_from_dict, doc,
                      "payoff.locals[1].includes_adversary")
        assert "must be a boolean" in str(err)

    def test_includes_adversary_defaults_to_false(self):
        doc = _poly_doc()
        del doc["payoff"]["locals"][0]["includes_adversary"]
        assert not game_from_dict(doc)._blocks[0].includes_adversary


class TestOutOfFloatRange:
    @pytest.mark.parametrize("keys, value, path", [
        (("payoff", "entries", 0), [[0, 0], 10**400, 1], "payoff.entries[0]"),
        (("payoff", "entries", 1), [[1, 1], -10**400, 7], "payoff.entries[1]"),
        (("v_max",), [10**400, 1], "v_max"),
        (("v_max",), 10**400, "v_max"),
    ])
    def test_dense(self, keys, value, path):
        doc = _dense_doc()
        _set(doc, keys, value)
        err = _reject(game_from_dict, doc, path)
        assert str(err) == f"{path}: rational out of float range"

    def test_block_entry(self):
        doc = _poly_doc()
        doc["payoff"]["locals"][1]["entries"][1] = [[0, 1], 2**1100, 3]
        _reject(game_from_dict, doc, "payoff.locals[1].entries[1]")

    def test_largest_finite_still_loads(self):
        num, den = sys.float_info.max.as_integer_ratio()
        doc = _dense_doc()
        doc["payoff"]["entries"] = [[[0, 0], -num, den]]
        doc["v_max"] = [num, den]
        game = game_from_dict(doc)
        assert game.payoff_tensor()[0, 0] == -sys.float_info.max
        assert game.v_max == sys.float_info.max


class TestRepeatedIndices:
    def test_dense_names_the_later_entry(self):
        doc = _dense_doc()
        doc["payoff"]["entries"] += [[[0, 1], 1, 3], [[1, 1], 1, 2]]
        err = _reject(game_from_dict, doc, "payoff.entries[3]")
        assert "repeats the index of an earlier entry" in str(err)

    def test_block(self):
        doc = _poly_doc()
        doc["payoff"]["locals"][0]["entries"].append([[0, 1], 1, 4])
        _reject(game_from_dict, doc, "payoff.locals[0].entries[1]")

    def test_two_team(self):
        doc = _two_team_doc()
        doc["payoff"]["entries"] = [[[1, 1, 1], 1, 2], [[0, 1, 0], 1, 2],
                                    [[1, 1, 1], 1, 2]]
        _reject(two_team_from_dict, doc, "payoff.entries[2]")

    def test_same_position_in_another_block_is_fine(self):
        doc = _poly_doc()
        doc["payoff"]["locals"].append(
            {"players": [0, 1], "includes_adversary": False,
             "entries": [[[0, 1], 1, 4]]})
        game_from_dict(doc)


VALUE_RANGES = [(-1, 1), (0, 1), (-3, 7), (2, 2), (-0.5, 0.25), (1.1, 2.3),
                ([1, 3], [5, 7]), ([-2, 3], 1), (-7, [-1, 2])]


class TestRandomGameMatchesFractionReference:
    @pytest.mark.parametrize("value_range", VALUE_RANGES)
    @pytest.mark.parametrize("n, sizes, b, seed", [
        (1, [1], 1, 0), (1, [2], 3, 1), (2, [2, 3], 4, 2),
        (3, [3, 2, 2], 3, 7), (4, [2, 1, 3, 2], 2, 11)])
    def test_document(self, n, sizes, b, seed, value_range):
        game = random_game(n, sizes, b, seed, value_range=value_range)
        want = reference_random_game_document(n, sizes, b, seed,
                                              value_range=value_range)
        assert json.dumps(game.document) == json.dumps(want)
        entries = want["payoff"]["entries"]
        _same_bytes(game.payoff_tensor(),
                    reference_dense_entries(entries, (*sizes, b)))
        assert game.v_max == reference_rational(want["v_max"])

    def test_pinned_document_digest(self):
        # The digest of the document the per-entry Fraction generator wrote.
        doc = random_game(4, [4] * 4, 6, 0).document
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == ("ff95c30bc6ed0813e284c401bcd66bf6"
                          "b395ed2cea4211480fc2847010d8a2fd")
