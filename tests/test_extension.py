import dataclasses

import numpy as np
import pytest

import teamsolve.extension as extension
from teamsolve import (
    DimensionMismatchError,
    DualityError,
    MixedProfile,
    TeamGame,
    TwoTeamGame,
    extend_ne,
    extend_ne_multi,
    ne_gap,
    proximal_point,
    random_game,
)
from teamsolve.dynamics import GdConfig, gradient_descent_max
from teamsolve.games import _validate_mixed_team, analytic_bounds

from conftest import (random_profile, random_team_game, ring_game,
                      stationarity_measure)
from oracles import (
    deviation_gaps,
    exhaustive_expected_utility,
    support_enumeration_zero_sum,
    tensordot_contract,
)


def profile(team, adversary):
    return MixedProfile.of(team, adversary)


def extend_audited(game, team):
    """What :func:`extend_ne` returns and the audit of its LP, read off
    the core it calls on the team it validates."""
    y, audit, _ = extension._extend(game, _validate_mixed_team(game, team),
                                    game.n)
    assert extend_ne(game, team).tobytes() == y.tobytes()
    return y, audit


class TestExtendNe:
    def test_pennies_exact_stationary_point(self, matching_pennies):
        y, audit = extend_audited(matching_pennies, [np.array([0.5, 0.5])])
        assert np.allclose(y, [0.5, 0.5], atol=1e-9)
        cert = ne_gap(matching_pennies, profile([[0.5, 0.5]], y))
        assert cert.gap <= 1e-9
        value, _, y_lp = support_enumeration_zero_sum(
            matching_pennies.payoff_tensor())
        assert np.allclose(y, y_lp, atol=1e-7)
        assert audit.u_star == pytest.approx(value, abs=1e-9)

    def test_constant_game_lowest_vertex(self, constant_game):
        y = extend_ne(constant_game, [np.array([0.3, 0.7])])
        assert np.allclose(y, [1.0, 0.0], atol=1e-9)
        cert = ne_gap(constant_game, profile([[0.3, 0.7]], y))
        assert cert.gap_team == pytest.approx(0.0, abs=1e-12)
        assert cert.gap_adversary == pytest.approx(0.0, abs=1e-12)

    def test_duality_chain_on_every_call(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            game = random_team_game(rng)
            team, _ = random_profile(rng, game)
            _, audit = extend_audited(game, team)
            assert audit.margin >= -1e-7
            assert audit.sd_residual <= 1e-7
            assert audit.scale == game.n

    def test_solver_output_extension_quality(self):
        # eta above the (very conservative) default keeps this test quick;
        # the claim under test is the certificate of the final profile,
        # not the default schedule.
        rng = np.random.default_rng(8)
        converged = 0
        for _ in range(4):
            game = random_team_game(rng, max_players=2)
            _, cert, trace = gradient_descent_max(
                game, GdConfig(epsilon=0.01, eta=0.002, max_iters=20_000))
            if trace.outcome != "converged":
                continue
            converged += 1
            team = trace.final_profile.team
            adv = trace.final_profile.adversary
            oracle_team, oracle_adv = deviation_gaps(
                game.payoff_tensor(), team, adv)
            assert max(oracle_team, oracle_adv) <= 0.01 + 1e-9
        assert converged >= 3

    def test_exact_minimax_recovery(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = rng.uniform(-1, 1, size=(3, 4))
            value, x, _ = support_enumeration_zero_sum(M)
            game = TeamGame.dense(M)
            y = extend_ne(game, [x])
            cert = ne_gap(game, profile([x], y))
            assert cert.gap <= 1e-6
            got = exhaustive_expected_utility(M, [x], y)
            assert got == pytest.approx(value, abs=1e-6)


class TestNeGap:
    def test_uniform_pennies_is_exact(self, matching_pennies):
        cert = ne_gap(matching_pennies, profile([[0.5, 0.5]], [0.5, 0.5]))
        assert cert.gap_team == 0.0 and cert.gap_adversary == 0.0

    def test_vertex_profile_reads_tensor(self, matching_pennies):
        cert = ne_gap(matching_pennies, profile([[1, 0]], [1, 0]))
        assert cert.gap_team == pytest.approx(2.0)
        assert cert.gap_adversary == pytest.approx(0.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            game = random_team_game(rng)
            team, adversary = random_profile(rng, game)
            cert = ne_gap(game, profile(team, adversary))
            oracle_team, oracle_adv = deviation_gaps(
                game.payoff_tensor(), team, adversary)
            assert cert.gap_team == pytest.approx(oracle_team, abs=1e-9)
            assert cert.gap_adversary == pytest.approx(oracle_adv, abs=1e-9)
            assert cert.gap_team >= -1e-9 and cert.gap_adversary >= -1e-9

    def test_epsilon_claim(self, matching_pennies):
        cert = ne_gap(matching_pennies, profile([[0.5, 0.5]], [0.5, 0.5]),
                      epsilon_claimed=0.01)
        assert cert.epsilon_claimed == 0.01
        assert cert.to_dict()["epsilon_claimed"] == 0.01
        assert cert.gap <= cert.epsilon_claimed


class TestMonotoneDegradation:
    def test_gap_tracks_stationarity_with_fitted_constant(self):
        """The extension quality degrades with the stationarity measure.

        The fitted C is reported for the logs; the assertion pins the
        relation with that single constant across all sampled points.
        """
        rng = np.random.default_rng(12)
        samples = []
        for _ in range(15):
            game = random_team_game(rng, max_players=2)
            ell = max(analytic_bounds(game).smoothness, 1e-9)
            team, _ = random_profile(rng, game)
            measure, _ = stationarity_measure(
                proximal_point(game, team, ell, tol=1e-8), ell)
            y = extend_ne(game, team)
            cert = ne_gap(game, profile(team, y))
            samples.append((measure, cert.gap))
        ratios = [gap / max(measure, 1e-9) for measure, gap in samples]
        fitted = max(ratios)
        print(f"\nextension degradation: fitted C = {fitted:.4f} over "
              f"{len(samples)} samples")
        assert np.isfinite(fitted) and fitted >= 0.0
        for measure, gap in samples:
            assert gap <= fitted * measure + 1e-6


class TestExtendNeBoundary:
    @pytest.mark.parametrize("team", [[1.5, -0.5], [0.5, 0.4]])
    def test_rejects_team_vector_that_is_not_a_distribution(self, team):
        with pytest.raises(DimensionMismatchError):
            extend_ne(random_game(1, [2], 2, 0), [team])


def _uniform_block_multipliers(lp, sol):
    """``sol`` with each player's row multipliers replaced by uniform ones.

    The guarantee variables are the columns with cost -1; each extension
    row puts -1 on the guarantee of the player it belongs to.
    """
    n_g = int(np.sum(lp.objective == -1.0))
    owner = np.argmax(lp.A[:, :n_g] == -1.0, axis=1)
    sizes = np.bincount(owner, minlength=n_g)
    dual = sol.dual.copy()
    dual[:owner.size] = 1.0 / sizes[owner]
    return dataclasses.replace(sol, dual=dual)


class TestOneLpAudit:
    """The audit is read from the single LP's row multipliers."""

    @pytest.fixture()
    def wrong_multipliers(self, monkeypatch):
        real = extension.solve_lp
        monkeypatch.setattr(
            extension, "solve_lp",
            lambda lp: _uniform_block_multipliers(lp, real(lp)))

    def test_catches_wrong_multipliers(self, wrong_multipliers):
        rng = np.random.default_rng(21)
        dense = random_game(2, [2, 2], 3, 4)
        ring = ring_game(rng, 4, 3)
        for game in (dense, ring):
            team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
            with pytest.raises(DualityError):
                extend_ne(game, team)
        two = TwoTeamGame(rng.uniform(-1, 1, size=(2, 2, 2, 2)), n=2, m=2)
        with pytest.raises(DualityError):
            extend_ne_multi(two, (rng.dirichlet(np.ones(2)),) * 2,
                            (rng.dirichlet(np.ones(2)),))

    def test_one_lp_per_extension(self, monkeypatch):
        calls = []
        real = extension.solve_lp
        monkeypatch.setattr(extension, "solve_lp",
                            lambda lp: calls.append(lp) or real(lp))
        game = random_game(2, [2, 2], 3, 4)
        team = ([0.3, 0.7], [0.6, 0.4])
        extend_ne(game, team)
        assert len(calls) == 1
        _, audit = extend_audited(game, team)
        assert audit.pivots == len(real(calls[0]).pivots) > 0

    @pytest.mark.parametrize("kind", ["dense", "ring"])
    def test_audit_matches_highs(self, kind):
        # The free-U program min U s.t. U >= sum_i C_i^T x_i, rebuilt from
        # the raw tensor, where C_i is player i's pure-deviation payoff
        # matrix against each adversary action.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(22)
        for seed in range(4):
            if kind == "dense":
                n = 2 + seed % 2
                game = random_game(n, [2 + seed % 3] * n, 3 + seed, seed)
            else:
                game = ring_game(rng, 3 + seed, 2 + seed % 2)
            team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
            _, audit = extend_audited(game, team)
            tensor = game.payoff_tensor()
            n_b = game.adversary_actions
            blocks = [tensordot_contract(tensor, team + (None,), (i, game.n))
                      for i in range(game.n)]
            sizes = [blk.shape[0] for blk in blocks]
            a_eq = np.zeros((game.n, 1 + sum(sizes)))
            offset = 1
            for r, k in enumerate(sizes):
                a_eq[r, offset:offset + k] = 1.0
                offset += k
            res = linprog(np.r_[1.0, np.zeros(sum(sizes))],
                          A_ub=np.hstack([-np.ones((n_b, 1))]
                                         + [blk.T for blk in blocks]),
                          b_ub=np.zeros(n_b), A_eq=a_eq, b_eq=np.ones(game.n),
                          bounds=[(None, None)] + [(0, None)] * sum(sizes),
                          method="highs")
            assert res.status == 0
            assert audit.u_joint == pytest.approx(res.fun, abs=1e-7)
            assert audit.dual_total == pytest.approx(res.fun, abs=1e-7)
