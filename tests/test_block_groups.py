"""Stacked block groups against the per-block loops they replaced.

A polytensor game keeps its blocks stacked by adversary flag and table
shape, and each kernel contracts a whole group at once.  The kernels sum
in their own order: a total with no team axis kept plus, on each touched
player's entries, the block's kept term minus that total's term.  So
every kernel must agree with the per-block reference of ``oracles``
within 1e-12, for a mixed, a pure and a kept adversary, and its number
of ``einsum`` calls must depend on the groups, not on the number of
blocks.  Bitwise agreement between the kernels themselves is checked in
``test_kernels``.
"""

import tracemalloc
import types
from fractions import Fraction

import numpy as np
from hypothesis import given, settings

import teamsolve.games as games
from teamsolve import LocalBlock, MixedProfile, TeamGame, extend_ne, ne_gap
from teamsolve.games import (
    contract_game,
    contract_players,
    extension_coefficients,
    fix_adversary,
    game_from_dict,
)

from conftest import mixed_ring_game, random_profile, ring_game
from oracles import (
    reference_fixed_tables,
    reference_sum_blocks,
    reference_sum_blocks_per_player,
)
from test_kernels import _adversary_only_game, _block_layouts


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def _keeps(game):
    """Every ``keep`` pattern ``contract_game`` takes on a polytensor
    game: the value, one team axis with and without the adversary axis,
    and the adversary axis alone."""
    n = game.n
    keeps = [(), (n,)]
    keeps += [(i,) for i in range(n)] + [(i, n) for i in range(n)]
    return keeps


def _adversaries(game, y):
    """``(adversary, keeps adversary axis)`` for a mixed ``y``, every pure
    action and a kept axis."""
    pure = [(b, False) for b in range(game.adversary_actions)]
    return [(y, False), *pure, (None, True)]


def _assert_game_matches(game, team, y):
    n = game.n
    for adversary, kept in _adversaries(game, y):
        for keep in _keeps(game):
            if (n in keep) != kept:
                continue
            _close(contract_game(game, team, adversary, keep),
                   reference_sum_blocks(game, team, adversary, keep))
    if n <= 8:
        # Materialized block by block, in block order, as the reference.
        got = game.payoff_tensor()
        want = reference_sum_blocks(game, (None,) * n, None,
                                    tuple(range(n + 1)))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_players_match(game, team, y, players):
    for adversary, kept in _adversaries(game, y):
        for listed in (range(game.n), players):
            got = contract_players(game, team, adversary, kept, listed)
            want = reference_sum_blocks_per_player(game, team, adversary,
                                                   listed, kept)
            assert len(got) == len(want) == len(listed)
            for vec, ref in zip(got, want):
                _close(vec, ref)


def _assert_extension_matches(game, team):
    coeffs, values = extension_coefficients(game, team)
    want, total = reference_sum_blocks_per_player(
        game, team, None, range(game.n), True, with_total=True)
    for got, ref in zip(coeffs, want, strict=True):
        _close(got, ref)
    _close(values, total)


def _assert_fixed_matches(game, team, y, players):
    fixed = fix_adversary(game, y)
    tables = reference_fixed_tables(game, y)
    for blk, table in zip(fixed._blocks, tables, strict=True):
        _close(blk.table, table)
    # The per-block reference on the per-block fixed tables.
    reference = types.SimpleNamespace(
        n=game.n, action_sets=game.action_sets, adversary_actions=1,
        _blocks=[LocalBlock(blk.players, False, table)
                 for blk, table in zip(game._blocks, tables)])
    for keep in _keeps(game):
        if game.n not in keep:
            _close(contract_game(fixed, team, 0, keep),
                   reference_sum_blocks(reference, team, 0, keep))
    for listed in (range(game.n), players):
        got = contract_players(fixed, team, 0, players=listed)
        want = reference_sum_blocks_per_player(reference, team, 0, listed,
                                               False)
        for vec, ref in zip(got, want, strict=True):
            _close(vec, ref)


def _assert_all_kernels_match(game, rng, players):
    team, y = random_profile(rng, game)
    _assert_game_matches(game, team, y)
    _assert_players_match(game, team, y, players)
    _assert_extension_matches(game, team)
    _assert_fixed_matches(game, team, y, players)


def _rational_ring(rng, players, adversary):
    """A ring loaded from exact rationals on a 1e-6 grid in [-1, 1], as the
    benchmark's ``certify`` rings are."""
    locals_ = []
    for i in range(players):
        ticks = rng.integers(0, 10**6 + 1, size=(2, 2, adversary))
        entries = []
        for idx in np.ndindex(*ticks.shape):
            value = Fraction(-1) + Fraction(2 * int(ticks[idx]), 10**6)
            if value:
                entries.append([list(idx), value.numerator,
                                value.denominator])
        locals_.append({"players": sorted((i, (i + 1) % players)),
                        "includes_adversary": True, "entries": entries})
    return game_from_dict({"n": players, "actions": [2] * players,
                           "adversary_actions": adversary,
                           "payoff": {"kind": "polytensor",
                                      "locals": locals_}})


def _three_player_game(rng):
    """Three-player blocks with and without the adversary axis among
    pairwise and one-player blocks, on players of 2 and 3 actions."""
    sizes = [2, 3, 2, 3, 2]
    specs = [((0, 1, 2), True), ((1, 2, 3), False), ((0, 1), True),
             ((2, 3, 4), True), ((3,), False), ((0, 3, 4), True),
             ((1, 2, 3), False)]
    blocks = [LocalBlock(players, with_adversary, rng.uniform(
        -1, 1, size=tuple(sizes[p] for p in players) + (3,) * with_adversary))
        for players, with_adversary in specs]
    return TeamGame.polytensor(sizes, 3, blocks)


class TestStackedKernelsMatchPerBlockLoops:
    """Every kernel within 1e-12 of the per-block loops, in every
    adversary mode."""

    def test_rings(self):
        rng = np.random.default_rng(60)
        for game in (ring_game(rng, 12, 3), ring_game(rng, 5, 6),
                     ring_game(rng, 3, 2), ring_game(rng, 2, 1)):
            for _ in range(3):
                _assert_all_kernels_match(game, rng, [game.n - 1, 0])

    def test_benchmark_rational_ring(self):
        rng = np.random.default_rng(61)
        game = _rational_ring(rng, 12, 3)
        for _ in range(3):
            _assert_all_kernels_match(game, rng, [7, 2, 3])

    def test_mixed_ring(self):
        rng = np.random.default_rng(62)
        for players in (4, 6, 9):
            game = mixed_ring_game(rng, players, 3)
            for _ in range(3):
                _assert_all_kernels_match(game, rng, [1, 2])

    def test_adversary_only_and_constant_blocks(self):
        rng = np.random.default_rng(63)
        game = _adversary_only_game(rng)
        for _ in range(5):
            _assert_all_kernels_match(game, rng, [3, 1])

    def test_three_player_blocks(self):
        rng = np.random.default_rng(64)
        game = _three_player_game(rng)
        for _ in range(3):
            _assert_all_kernels_match(game, rng, [4, 1])

    def test_star_with_three_player_and_constant_blocks(self):
        # Player 0 sits at position 0 of every block of the pairwise
        # group, so the scatter adds several blocks into the same rows.
        rng = np.random.default_rng(70)
        blocks = [LocalBlock((0, j), True, rng.uniform(-1, 1, size=(2, 2, 3)))
                  for j in range(1, 5)]
        blocks += [LocalBlock((1, 2, 4), True,
                              rng.uniform(-1, 1, size=(2, 2, 2, 3))),
                   LocalBlock((), False, rng.uniform(-1, 1, size=()))]
        game = TeamGame.polytensor([2] * 5, 3, blocks)
        assert len(game._groups) == 3
        for _ in range(3):
            _assert_all_kernels_match(game, rng, [0, 3])

    def test_pure_strategies_and_signed_zeros(self):
        # One-hot strategies and zero entries give products of -0.0.
        rng = np.random.default_rng(65)
        game = ring_game(rng, 6, 3)
        blocks = [LocalBlock(blk.players, True,
                             np.where(np.abs(blk.table) < 0.4,
                                      -0.0 * np.sign(blk.table), blk.table))
                  for blk in game._blocks]
        game = TeamGame.polytensor(game.action_sets, 3, blocks)
        team = tuple(np.eye(2)[i % 2] for i in range(game.n))
        y = np.array([0.0, 1.0, 0.0])
        _assert_game_matches(game, team, y)
        _assert_players_match(game, team, y, [0, 3])
        _assert_extension_matches(game, team)
        _assert_fixed_matches(game, team, y, [0, 3])

    @settings(max_examples=100, deadline=None)
    @given(_block_layouts())
    def test_random_block_layouts(self, drawn):
        game, rng, players = drawn
        _assert_all_kernels_match(game, rng, players)


class TestBlocksAreViewsOfGroups:
    def test_tables_are_frozen_views(self):
        rng = np.random.default_rng(66)
        game = mixed_ring_game(rng, 6, 3)
        stacks = [group.table for group in game._groups]
        for blk in game._blocks:
            assert not blk.table.flags.writeable
            assert any(np.shares_memory(blk.table, s) for s in stacks)

    def test_groups_by_adversary_flag_and_shape(self):
        rng = np.random.default_rng(67)
        game = mixed_ring_game(rng, 6, 3)
        keys = [(group.includes_adversary, group.table.shape[1:])
                for group in game._groups]
        assert keys == [(True, (2, 2, 3)), (False, (2, 2)), (False, (2,)),
                        (True, (2, 3))]
        assert sorted(j for group in game._groups
                      for j in group.order.tolist()) == list(range(8))


class TestKernelMemory:
    def test_thousand_player_ring_under_2_mb(self):
        # Each kernel holds a few arrays of the size of one group's
        # tables, never one array of blocks x entries.
        rng = np.random.default_rng(71)
        game = ring_game(rng, 1000, 3)
        team, y = random_profile(rng, game)
        for kernel in (lambda: contract_players(game, team, y),
                       lambda: extension_coefficients(game, team),
                       lambda: contract_game(game, team, None, (game.n,))):
            tracemalloc.start()
            try:
                kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000


def _count_einsum(monkeypatch):
    calls = []
    real = games._c_einsum
    monkeypatch.setattr(games, "_c_einsum",
                        lambda *a: calls.append(1) or real(*a))
    return calls


class TestEinsumCalls:
    """Contractions per kernel call are O(groups), not O(blocks)."""

    @staticmethod
    def _bound(game):
        return sum(1 + len(group.gather) for group in game._groups)

    def test_per_kernel_calls_do_not_grow_with_the_ring(self, monkeypatch):
        calls = _count_einsum(monkeypatch)
        rng = np.random.default_rng(68)
        counts = []
        for players in (12, 40):
            game = ring_game(rng, players, 3)
            assert self._bound(game) == 3
            team, y = random_profile(rng, game)
            row = []
            for kernel in (
                    lambda: contract_players(game, team, y),
                    lambda: extension_coefficients(game, team),
                    lambda: contract_game(game, team, None, (game.n,))):
                calls.clear()
                kernel()
                assert 0 < len(calls) <= self._bound(game)
                row.append(len(calls))
            counts.append(row)
        assert counts[0] == counts[1]

    def test_ring_extension_calls(self, monkeypatch):
        # One group: one no-team-axis term, one term per position.
        calls = _count_einsum(monkeypatch)
        rng = np.random.default_rng(28)
        game = ring_game(rng, 12, 3)
        extend_ne(game, random_profile(rng, game)[0])
        assert len(calls) == 3

    def test_certify_ring_instance(self, monkeypatch):
        calls = _count_einsum(monkeypatch)
        rng = np.random.default_rng(69)
        game = _rational_ring(rng, 12, 3)
        team = random_profile(rng, game)[0]
        y = extend_ne(game, team)
        ne_gap(game, MixedProfile(team, y))
        assert 0 < len(calls) <= 10
