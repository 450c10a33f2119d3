import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsolve import (
    DimensionMismatchError,
    GameError,
    MixedProfile,
    TeamGame,
    analytic_bounds,
    extend_ne,
    game_from_dict,
    game_to_dict,
    ne_gap,
    proximal_point,
)
from teamsolve.dynamics import _descent
from teamsolve.games import (
    LocalBlock,
    SchemaError,
    contract,
    contract_game,
    contract_players,
    fix_adversary,
)

from conftest import mixed_ring_game, random_profile, random_team_game, ring_game
from oracles import (
    exhaustive_expected_utility,
    finite_difference_gradient,
    tensordot_contract,
)


def profile(team, adversary):
    return MixedProfile.of(team, adversary)


def arrays(vectors):
    return tuple(np.asarray(x, dtype=float) for x in vectors)


def utility(game, team, adversary):
    """The expected payoff at a mixed profile: every axis contracted."""
    return float(contract_game(game, arrays(team),
                               np.asarray(adversary, dtype=float), ()))


def adversary_vector(game, team):
    """The expected payoff against each pure adversary action."""
    return contract_game(game, arrays(team), None, (game.n,))


class TestExpectedUtility:
    def test_pure_profile_reads_tensor_entry(self, matching_pennies):
        assert utility(matching_pennies, [[1, 0]], [0, 1]) == -1.0

    def test_uniform_symmetry(self, matching_pennies):
        assert utility(matching_pennies, [[0.5, 0.5]], [0.5, 0.5]) == 0.0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        game = TeamGame.dense(rng.uniform(-1, 1, size=(2, 2, 2)))
        team, adversary = random_profile(rng, game)
        expected = exhaustive_expected_utility(game.payoff_tensor(), team,
                                               adversary)
        got = utility(game, team, adversary)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch_names_player(self, matching_pennies):
        with pytest.raises(DimensionMismatchError) as err:
            profile([[0.5, 0.25, 0.25]], [0.5, 0.5]).validate(
                matching_pennies)
        assert err.value.player == 0
        assert "player 0" in str(err.value)

    def test_invalid_simplex_rejected(self, matching_pennies):
        with pytest.raises(DimensionMismatchError):
            profile([[0.7, 0.7]], [0.5, 0.5]).validate(matching_pennies)

    @settings(max_examples=50, deadline=None)
    @given(lam=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_multilinearity_in_each_player(self, lam, seed):
        rng = np.random.default_rng(seed)
        game = random_team_game(rng)
        team, adversary = random_profile(rng, game)
        other = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
        for i in range(game.n):
            blend = list(team)
            blend[i] = lam * team[i] + (1 - lam) * other[i]
            left = utility(game, blend, adversary)
            b = list(team)
            b[i] = other[i]
            right = (lam * utility(game, team, adversary)
                     + (1 - lam) * utility(game, b, adversary))
            assert left == pytest.approx(right, abs=1e-9)


class TestPartialGradient:
    """Deviation payoffs of one player, the gradient in its strategy."""

    def test_uniform_adversary_zeroes_pennies(self, matching_pennies):
        grad = contract_game(matching_pennies, arrays([[0.3, 0.7]]),
                             np.array([0.5, 0.5]), (0,))
        assert np.allclose(grad, [0.0, 0.0])

    def test_row_expectations(self, matching_pennies):
        grad = contract_game(matching_pennies, arrays([[0.5, 0.5]]),
                             np.array([1.0, 0.0]), (0,))
        assert np.allclose(grad, [1.0, -1.0])

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            game = random_team_game(rng)
            team, adversary = random_profile(rng, game)
            player = int(rng.integers(game.n))
            fd = finite_difference_gradient(game.payoff_tensor(), team,
                                            adversary, player)
            grad = contract_players(game, team, adversary)[player]
            assert np.max(np.abs(grad - fd)) < 1e-5

    def test_fixing_pure_action_reproduces_components(self):
        rng = np.random.default_rng(12)
        game = random_team_game(rng)
        team, adversary = random_profile(rng, game)
        grad = contract_game(game, team, adversary, (0,))
        for a in range(game.action_sets[0]):
            pinned = list(team)
            pinned[0] = np.zeros(game.action_sets[0])
            pinned[0][a] = 1.0
            val = utility(game, pinned, adversary)
            assert grad[a] == pytest.approx(val, abs=1e-12)


class TestAdversaryBestResponse:
    """The adversary payoff vector and the pure best response that a
    descent step reads off it."""

    @staticmethod
    def best_response(game, team):
        action, _ = _descent(game, arrays(team), adversary_vector(game, team))
        return action, float(adversary_vector(game, team)[action])

    def test_column_read(self, matching_pennies):
        assert self.best_response(matching_pennies,
                                  [np.array([1.0, 0.0])]) == (0, 1.0)

    def test_tie_breaks_to_lowest_index(self, matching_pennies):
        action, value = self.best_response(matching_pennies,
                                           [np.array([0.5, 0.5])])
        assert action == 0 and value == 0.0

    def test_value_matches_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            game = random_team_game(rng)
            team, _ = random_profile(rng, game)
            action, value = self.best_response(game, team)
            per_action = []
            for b in range(game.adversary_actions):
                one_hot = np.zeros(game.adversary_actions)
                one_hot[b] = 1.0
                per_action.append(exhaustive_expected_utility(
                    game.payoff_tensor(), team, one_hot))
            assert value == pytest.approx(max(per_action), abs=1e-12)
            assert action == int(np.argmax(per_action))

    def test_pure_actions_suffice(self):
        rng = np.random.default_rng(22)
        game = random_team_game(rng)
        team, _ = random_profile(rng, game)
        _, value = self.best_response(game, team)
        vec = adversary_vector(game, team)
        for _ in range(100):
            mixed = rng.dirichlet(np.ones(game.adversary_actions))
            assert float(vec @ mixed) <= value + 1e-9


class TestAnalyticBounds:
    def test_pennies_lipschitz_is_two(self, matching_pennies):
        bounds = analytic_bounds(matching_pennies)
        assert bounds.lipschitz == pytest.approx(2.0)
        assert bounds.smoothness == pytest.approx(4.0)
        assert bounds.source == "analytic"

    def test_zero_game(self):
        game = TeamGame.dense(np.zeros((2, 2)))
        bounds = analytic_bounds(game)
        assert bounds.lipschitz == 0.0 and bounds.smoothness == 0.0

    def test_sampled_lipschitz_audit(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            game = random_team_game(rng)
            lip = analytic_bounds(game).lipschitz
            tensor = game.payoff_tensor()
            for _ in range(200):
                t1, a1 = random_profile(rng, game)
                t2, a2 = random_profile(rng, game)
                u1 = utility(game, t1, a1)
                u2 = utility(game, t2, a2)
                dist = math.sqrt(
                    sum(float((x - y) @ (x - y))
                        for x, y in zip(t1, t2))
                    + float((a1 - a2) @ (a1 - a2)))
                assert abs(u1 - u2) <= lip * dist + 1e-12
            del tensor


class TestDeviationMatrix:
    def test_row_average_recovers_payoff_vector(self):
        rng = np.random.default_rng(41)
        game = random_team_game(rng)
        team, _ = random_profile(rng, game)
        vec = adversary_vector(game, team)
        for x, C in zip(team, contract_players(game, team, None,
                                               keep_adversary=True)):
            assert C.shape == (x.size, game.adversary_actions)
            assert np.allclose(x @ C, vec, atol=1e-12)


class TestPolytensor:
    def blocks_game(self):
        blocks = [
            LocalBlock((0,), True, np.array([[1.0, -1.0], [-1.0, 1.0]])),
            LocalBlock((1,), False, np.array([0.5, 0.25])),
            LocalBlock((0, 1), True,
                       np.arange(8, dtype=float).reshape(2, 2, 2) / 10.0),
        ]
        return TeamGame.polytensor([2, 2], 2, blocks)

    def test_matches_materialized_tensor(self):
        game = self.blocks_game()
        dense = TeamGame.dense(game.payoff_tensor())
        rng = np.random.default_rng(51)
        for _ in range(20):
            team, adversary = random_profile(rng, game)
            assert utility(game, team, adversary) == pytest.approx(
                utility(dense, team, adversary), abs=1e-12)
            for mine, theirs in zip(
                    contract_players(game, team, adversary),
                    contract_players(dense, team, adversary)):
                assert np.allclose(mine, theirs, atol=1e-12)
            for mine, theirs in zip(
                    contract_players(game, team, None, keep_adversary=True),
                    contract_players(dense, team, None, keep_adversary=True)):
                assert np.allclose(mine, theirs, atol=1e-12)

    def test_v_max_default_bounds_samples(self):
        game = self.blocks_game()
        # The default bound sums per-block maxima, so every sample obeys it.
        for *a, b in np.ndindex(*game.action_sets, game.adversary_actions):
            assert abs(game.payoff(a, b)) <= game.v_max + 1e-12

    def test_explicit_v_max_violation_rejected(self):
        blocks = [LocalBlock((0,), False, np.array([3.0, 0.0]))]
        with pytest.raises(GameError):
            TeamGame.polytensor([2], 2, blocks, v_max=1.0)

    def test_constant_block_keeps_its_rank(self):
        table = np.array([[0.5, -1.0], [0.25, 2.0]])
        game = TeamGame.polytensor([2], 2, [
            LocalBlock((), False, np.array(1.5)),
            LocalBlock((0,), True, table)])
        assert game._blocks[0].table.shape == ()
        tensor = 1.5 + table
        for *a, b in np.ndindex(2, 2):
            assert game.payoff(a, b) == tensor[(*a, b)]
        assert np.array_equal(game.payoff_tensor(), tensor)
        rng = np.random.default_rng(52)
        for _ in range(5):
            team, y = random_profile(rng, game)
            assert utility(game, team, y) == pytest.approx(
                exhaustive_expected_utility(tensor, team, y), abs=1e-12)

    @pytest.mark.parametrize("players", [(1, 0), (0, 0)])
    def test_players_out_of_order_are_rejected(self, players):
        # Read in its own axis order, (1, 0) would put T[0, 1] at profile
        # (0, 1), where the payoff is T[1, 0].
        table = np.arange(4.0).reshape(2, 2)
        with pytest.raises(GameError, match="block 1: players must be "
                                            "strictly increasing"):
            TeamGame.polytensor([2, 2], 2, [
                LocalBlock((0,), True, np.eye(2)),
                LocalBlock(players, False, table)])

    def test_keeps_at_most_one_team_axis(self):
        game = self.blocks_game()
        team, y = random_profile(np.random.default_rng(53), game)
        for adversary, keep in ((y, (0, 1)), (None, (0, 1, 2))):
            with pytest.raises(ValueError, match="at most one team axis"):
                contract_game(game, team, adversary, keep)


def _scalar_v_max_samples(game):
    """The polytensor v_max audit as a per-sample loop over payoff()."""
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(10_000):
        a = tuple(int(rng.integers(k)) for k in game.action_sets)
        b = int(rng.integers(game.adversary_actions))
        samples.append((a + (b,), game.payoff(a, b)))
    return samples


class TestVmaxAudit:
    """The vectorized audit against the scalar loop it replaced."""

    @staticmethod
    def game(action_sets, adversary, seed, v_max=None):
        rng = np.random.default_rng(seed)
        n = len(action_sets)
        blocks = [LocalBlock(tuple(sorted((i, (i + 1) % n))), i % 2 == 0,
                             rng.uniform(-1, 1, size=(
                                 action_sets[min(i, (i + 1) % n)],
                                 action_sets[max(i, (i + 1) % n)])
                                 + ((adversary,) if i % 2 == 0 else ())))
                  for i in range(n)]
        blocks.append(LocalBlock((), True, rng.uniform(-1, 1, size=adversary)))
        return TeamGame.polytensor(action_sets, adversary, blocks, v_max)

    @pytest.mark.parametrize("action_sets, adversary", [
        ((2,) * 12, 3), ((4, 4, 4, 4, 3, 7), 6), ((1, 2, 1, 3), 1)])
    def test_first_violation_matches_scalar_loop(self, action_sets,
                                                 adversary):
        samples = _scalar_v_max_samples(self.game(action_sets, adversary, 7))
        values = sorted({abs(v) for _, v in samples})
        for v_max in (0.0, values[len(values) // 2], values[-1] * 0.999):
            slack = 1e-12 * (1.0 + v_max)
            profile, val = next((p, v) for p, v in samples
                                if abs(v) > v_max + slack)
            with pytest.raises(GameError) as err:
                self.game(action_sets, adversary, 7, v_max=v_max)
            assert str(err.value) == (f"sampled payoff {val} at {profile} "
                                      f"exceeds v_max {v_max}")
        self.game(action_sets, adversary, 7, v_max=values[-1])


class TestDefaultVmax:
    """The default v_max is a proven bound, so only a declared one is
    audited."""

    @staticmethod
    def count_audits(monkeypatch):
        calls = []
        real = TeamGame._audit_v_max
        monkeypatch.setattr(TeamGame, "_audit_v_max",
                            lambda self: calls.append(self) or real(self))
        return calls

    def test_only_a_declared_v_max_is_audited(self, monkeypatch):
        calls = self.count_audits(monkeypatch)
        rng = np.random.default_rng(5)
        ring = ring_game(rng, 12, 3)
        dense = random_team_game(rng)
        assert calls == []
        TeamGame.polytensor(ring.action_sets, 3, ring._blocks,
                            v_max=ring.v_max)
        TeamGame.dense(dense.payoff_tensor(), v_max=dense.v_max)
        assert len(calls) == 2

    def test_default_bounds_every_payoff(self):
        rng = np.random.default_rng(6)
        for game in (ring_game(rng, 5, 3), mixed_ring_game(rng, 4, 2),
                     random_team_game(rng)):
            tensor = game.payoff_tensor()
            assert np.abs(tensor).max() <= game.v_max
        dense = random_team_game(rng)
        assert dense.v_max == np.abs(dense.payoff_tensor()).max()


class TestJsonSchema:
    def doc(self):
        return {
            "n": 1,
            "actions": [2],
            "adversary_actions": 2,
            "payoff": {"kind": "dense",
                       "entries": [[[0, 0], 1, 1], [[0, 1], -1, 1],
                                   [[1, 0], -1, 1], [[1, 1], 1, 1]]},
        }

    def test_round_trip(self, matching_pennies):
        game = game_from_dict(self.doc())
        assert np.array_equal(game.payoff_tensor(),
                              matching_pennies.payoff_tensor())
        assert game_to_dict(game) == self.doc()

    def test_missing_field_path(self):
        doc = self.doc()
        del doc["actions"]
        with pytest.raises(SchemaError) as err:
            game_from_dict(doc)
        assert err.value.path == "actions"

    def test_entry_index_out_of_range(self):
        doc = self.doc()
        doc["payoff"]["entries"][0][0] = [5, 0]
        with pytest.raises(SchemaError) as err:
            game_from_dict(doc)
        assert "payoff.entries[0]" in str(err.value)

    def test_rational_v_max(self):
        doc = self.doc()
        doc["v_max"] = [3, 2]
        game = game_from_dict(doc)
        assert game.v_max == 1.5

    def test_v_max_too_small_rejected(self):
        doc = self.doc()
        doc["v_max"] = [1, 2]
        with pytest.raises(GameError):
            game_from_dict(doc)


class TestSeventeenPlayers:
    """More team axes than a one-letter-per-axis subscript scheme covers."""

    N = 17

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(17)
        return TeamGame.dense(rng.uniform(-1, 1, size=(2,) * self.N + (2,)))

    def test_one_hot_team_reads_tensor_slices(self, wide):
        tensor = wide.payoff_tensor()
        a = tuple(int(v) for v in np.random.default_rng(0).integers(
            2, size=self.N))
        team = [np.eye(2)[ai] for ai in a]
        y = np.array([0.25, 0.75])
        assert np.array_equal(adversary_vector(wide, team), tensor[a])
        for p in (0, 8, self.N - 1):
            rows = tensor[a[:p] + (slice(None),) + a[p + 1:]]
            assert np.array_equal(
                contract_game(wide, team, None, (p, self.N)), rows)
        value = float(tensor[a] @ y)
        deviations = [float(tensor[a[:p] + (c,) + a[p + 1:]] @ y)
                      for p in range(self.N) for c in range(2)]
        cert = ne_gap(wide, profile(team, y))
        assert cert.gap_team == pytest.approx(value - min(deviations),
                                              abs=1e-12)
        assert cert.gap_adversary == pytest.approx(
            float(np.max(tensor[a])) - value, abs=1e-12)

    def test_dirichlet_team_matches_tensordot(self, wide):
        rng = np.random.default_rng(1)
        tensor = wide.payoff_tensor()
        team = [rng.dirichlet(np.ones(2)) for _ in range(self.N)]
        y = rng.dirichlet(np.ones(2))
        vectors = team + [y]
        adv = tensordot_contract(tensor, vectors, (self.N,))
        assert np.allclose(adversary_vector(wide, team), adv,
                           rtol=0, atol=1e-12)
        for p in (0, 8, self.N - 1):
            assert np.allclose(contract_game(wide, team, None, (p, self.N)),
                               tensordot_contract(tensor, vectors,
                                                  (p, self.N)),
                               rtol=0, atol=1e-12)
        value = float(adv @ y)
        gap_team = max(
            value - float(np.min(tensordot_contract(tensor, vectors, (p,))))
            for p in range(self.N))
        cert = ne_gap(wide, profile(team, y))
        assert cert.gap_team == pytest.approx(gap_team, abs=1e-12)
        assert cert.gap_adversary == pytest.approx(float(np.max(adv)) - value,
                                                   abs=1e-12)


class TestContract:
    def test_stacked_operands_match_one_call_per_row(self):
        rng = np.random.default_rng(3)
        table = rng.uniform(-1, 1, size=(2, 3, 4, 2))
        first = rng.dirichlet(np.ones(2), size=5)
        third = rng.dirichlet(np.ones(4), size=6)
        last = rng.dirichlet(np.ones(2))
        stacked = contract(table, (first, None, third, last), (1,))
        assert stacked.shape == (5, 6, 3)
        for r in range(5):
            for s in range(6):
                single = contract(table, (first[r], None, third[s], last),
                                  (1,))
                assert np.allclose(stacked[r, s], single, rtol=0,
                                   atol=1e-14)


class TestKernelsRejectNonDistributions:
    BAD = pytest.mark.parametrize("bad", [[1.5, -0.5], [0.5, 0.4]])

    @staticmethod
    def game():
        return TeamGame.dense(np.arange(8.0).reshape(2, 2, 2))

    @BAD
    def test_adversary_payoff_vector(self, bad):
        # The prox objective starts from this vector at its center.
        with pytest.raises(DimensionMismatchError, match="player 1"):
            proximal_point(self.game(), [[0.5, 0.5], bad], ell=1.0, tol=1e-6)

    @BAD
    def test_deviation_payoff_matrix(self, bad):
        # These matrices are the extension LP's coefficients.
        with pytest.raises(DimensionMismatchError, match="player 0"):
            extend_ne(self.game(), [bad, [0.5, 0.5]])

    @BAD
    def test_team_gradients(self, bad):
        with pytest.raises(DimensionMismatchError, match="adversary"):
            ne_gap(self.game(), profile([[0.5, 0.5], [0.5, 0.5]], bad))


class TestFixAdversary:
    """The team-only payoff against the one-axis-at-a-time oracle."""

    @staticmethod
    def check(game, rng):
        n = game.n
        tensor = game.payoff_tensor()
        team = [rng.dirichlet(np.ones(k)) for k in game.action_sets]
        y = rng.dirichlet(np.ones(game.adversary_actions))
        vectors = team + [y]
        payoff = fix_adversary(game, y)
        if payoff._tensor is not None:
            assert np.allclose(payoff._tensor[..., 0],
                               tensordot_contract(tensor, vectors, range(n)),
                               rtol=0, atol=1e-12)
        else:
            assert not any(blk.includes_adversary for blk in payoff._blocks)
        for i in range(n):
            assert np.allclose(contract_game(payoff, team, 0, (i,)),
                               tensordot_contract(tensor, vectors, (i,)),
                               rtol=0, atol=1e-12)
        value = float(contract_game(payoff, team, 0, ()))
        assert value == pytest.approx(
            float(tensordot_contract(tensor, vectors)), abs=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 3, 3, 4)])
    def test_dense(self, shape):
        rng = np.random.default_rng(len(shape))
        game = TeamGame.dense(rng.uniform(-1, 1, size=shape))
        for _ in range(5):
            self.check(game, rng)

    def test_seventeen_dense_players(self):
        rng = np.random.default_rng(17)
        self.check(TeamGame.dense(rng.uniform(-1, 1, size=(2,) * 17 + (3,))),
                   rng)

    @pytest.mark.parametrize("players", [3, 6])
    def test_rings(self, players):
        rng = np.random.default_rng(players)
        for game in (ring_game(rng, players, 3),
                     mixed_ring_game(rng, players, 3)):
            for _ in range(3):
                self.check(game, rng)

    def test_fixed_game_is_a_team_game(self):
        rng = np.random.default_rng(53)
        for game in (TeamGame.dense(rng.uniform(-1, 1, size=(2, 3, 4))),
                     ring_game(rng, 5, 3), mixed_ring_game(rng, 4, 3)):
            for _ in range(3):
                team, y = random_profile(rng, game)
                fixed = fix_adversary(game, y)
                assert isinstance(fixed, TeamGame)
                assert fixed.adversary_actions == 1
                assert fixed.v_max <= game.v_max
                assert utility(fixed, team, [1.0]) == pytest.approx(
                    utility(game, team, y), abs=1e-12)

    def test_inherits_v_max_without_computing_or_auditing_it(
            self, monkeypatch):
        rng = np.random.default_rng(54)
        games = (TeamGame.dense(rng.uniform(-1, 1, size=(2, 3, 4))),
                 ring_game(rng, 5, 3), mixed_ring_game(rng, 4, 3))
        draws = [random_profile(rng, game) for game in games]
        # References through the validating constructors, built before the
        # spies go in.
        references = []
        for game, (_, y) in zip(games, draws):
            if game._tensor is not None:
                references.append(TeamGame.dense(
                    contract(game._tensor, (None,) * game.n + (y,),
                             tuple(range(game.n)))[..., None]))
            else:
                references.append(TeamGame.polytensor(
                    game.action_sets, 1, [LocalBlock(
                        blk.players, False,
                        contract(blk.table, (None,) * len(blk.players) + (y,),
                                 tuple(range(len(blk.players)))))
                        if blk.includes_adversary else blk
                        for blk in game._blocks]))
        calls = []
        for name in ("_default_v_max", "_audit_v_max"):
            monkeypatch.setattr(TeamGame, name,
                                lambda self, name=name: calls.append(name))
        for game, (team, y), reference in zip(games, draws, references):
            fixed = fix_adversary(game, y)
            assert fixed.v_max == game.v_max
            for i in range(game.n):
                assert (contract_game(fixed, team, 0, (i,)).tobytes()
                        == contract_game(reference, team, 0, (i,)).tobytes())
        assert calls == []

    def test_blocks_without_adversary_kept_as_they_are(self):
        game = mixed_ring_game(np.random.default_rng(0), 4, 2)
        payoff = fix_adversary(game, np.array([0.3, 0.7]))
        for blk, fixed in zip(game._blocks, payoff._blocks):
            assert fixed.players == blk.players
            if not blk.includes_adversary:
                assert fixed is blk
