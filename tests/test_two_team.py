import math

import numpy as np
import pytest

import teamsolve.extension as extension
import teamsolve.two_team as two_team
from teamsolve import (
    GdConfig,
    TeamGame,
    TwoTeamGame,
    TwoTeamProfile,
    analytic_bounds,
    extend_ne,
    extend_ne_multi,
    gd_mm,
    gradient_descent_max,
    minmax_oracle,
    ne_gap_two_team,
    project_simplex,
    two_team_from_dict,
)
from teamsolve.dynamics import CANDIDATE_EVERY, default_eta
from teamsolve.games import (
    DimensionMismatchError,
    GameError,
    SchemaError,
    contract_game,
)
from teamsolve.two_team import (
    _checked_strategies,
    _induced,
    two_team_profile_from_dict,
    two_team_profile_to_dict,
)

from conftest import _seed9_draws, poly_two_team_doc, random_two_team
from oracles import (
    support_enumeration_zero_sum,
    tensordot_contract,
    two_team_deviation_gaps,
)

MP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def expected_value(game, profile):
    """The expected payoff: the joint game with every axis contracted."""
    team = (*profile.minimizers, *profile.maximizers[:-1])
    return float(contract_game(game.joint, team, profile.maximizers[-1], ()))


def _last_axis_pair_matrices(tensor, vecs):
    """Payoff of each player's pure action against each last-axis action.

    Entry ``[k][a, b]`` averages ``tensor`` over every axis other than
    ``k`` and the last, weighted by ``vecs``; brute-force enumeration.
    """
    last = tensor.ndim - 1
    mats = [np.zeros((tensor.shape[k], tensor.shape[last]))
            for k in range(last)]
    for idx in np.ndindex(*tensor.shape):
        for k in range(last):
            weight = 1.0
            for p in range(last):
                if p != k:
                    weight *= vecs[p][idx[p]]
            mats[k][idx[k], idx[last]] += weight * tensor[idx]
    return mats


class TestStructure:
    def test_hypothesis_flag(self):
        rng = np.random.default_rng(0)
        assert TwoTeamGame(rng.uniform(size=(2, 2, 2)), 2, 1)\
            .extendibility_hypothesis()
        assert not TwoTeamGame(rng.uniform(size=(2, 2, 2)), 1, 2)\
            .extendibility_hypothesis()

    def test_expected_value_matches_oracle(self):
        rng = np.random.default_rng(1)
        game = random_two_team(rng)
        xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
        ys = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
        profile = TwoTeamProfile(xs, ys)
        direct = expected_value(game, profile)
        slow = 0.0
        for idx in np.ndindex(*game.tensor.shape):
            p = 1.0
            for pos, i in enumerate(idx):
                vec = (xs + ys)[pos]
                p *= vec[i]
            slow += p * game.tensor[idx]
        assert direct == pytest.approx(slow, abs=1e-12)


class TestCertificate:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            game = random_two_team(rng)
            xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
            ys = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
            cert = ne_gap_two_team(game, TwoTeamProfile(xs, ys))
            o_min, o_max = two_team_deviation_gaps(game.tensor, 2, xs, ys)
            assert cert.gap_team == pytest.approx(o_min, abs=1e-9)
            assert cert.gap_adversary == pytest.approx(o_max, abs=1e-9)


class TestMinmaxOracle:
    def test_pennies_single_maximizer(self):
        game = TwoTeamGame(MP, n=1, m=1)
        res = minmax_oracle(game, (), method="grid", grid_step=0.02)
        value, x, _ = support_enumeration_zero_sum(MP)
        assert res.value == pytest.approx(value, abs=1e-9)
        assert np.allclose(res.team[0], x, atol=0.02)
        assert res.bracket[0] <= value <= res.bracket[1] + 1e-12

    def test_constant_game(self):
        game = TwoTeamGame(np.full((2, 2, 2), 1.5), n=1, m=2)
        res = minmax_oracle(game, (np.array([0.4, 0.6]),), method="grid")
        assert res.value == pytest.approx(1.5, abs=1e-12)

    def test_grid_and_nested_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            game = random_two_team(rng)
            anchor = (rng.dirichlet(np.ones(2)),)
            grid = minmax_oracle(game, anchor, method="grid",
                                 grid_step=0.02)
            nested = minmax_oracle(game, anchor, method="nested",
                                   inner_config=GdConfig(epsilon=0.02))
            assert abs(grid.value - nested.value) <= 0.05

    def test_grid_capacity_error(self):
        rng = np.random.default_rng(4)
        big = TwoTeamGame(rng.uniform(size=(3, 3, 3, 3, 2)), n=4, m=1)
        with pytest.raises(GameError, match="nested"):
            minmax_oracle(big, (), method="grid", grid_step=0.002)


def extend_multi_audited(game, xs, ys):
    """What :func:`extend_ne_multi` returns, which validates the
    strategies, and the audit of the same LP, read off its core."""
    team = (_checked_strategies(xs, game.minimizer_actions, "minimizer",
                                "minimizer", 0)
            + _checked_strategies(ys, game.maximizer_actions[:-1],
                                  "maximizer", "maximizer", game.n))
    y_m, audit, _ = extension._extend(game.joint, team, game.n)
    assert extend_ne_multi(game, xs, ys).tobytes() == y_m.tobytes()
    return y_m, audit


class TestExtendNeMulti:
    def test_m1_bitwise_agreement(self):
        rng = np.random.default_rng(5)
        tensor = rng.uniform(-1, 1, size=(2, 3, 4))
        two = TwoTeamGame(tensor, n=2, m=1)
        one = TeamGame.dense(tensor)
        x = (rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3)))
        assert np.array_equal(extend_ne_multi(two, x, ()),
                              extend_ne(one, x))

    def test_constant_game_lowest_vertex(self):
        game = TwoTeamGame(np.full((2, 2, 2), 1.0), n=1, m=2)
        y_m, audit = extend_multi_audited(game, (np.array([0.5, 0.5]),),
                                          (np.array([0.5, 0.5]),))
        assert np.allclose(y_m, [1.0, 0.0], atol=1e-9)
        assert audit.sd_residual <= 1e-7

    def test_duality_audits_on_seeded_games(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            game = random_two_team(rng)
            xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
            ys = (rng.dirichlet(np.ones(2)),)
            _, audit = extend_multi_audited(game, xs, ys)
            assert audit.scale == game.n - game.m + 1
            assert audit.margin >= -1e-7
            assert audit.sd_residual <= 1e-7

    @pytest.mark.parametrize("n, m", [(1, 2), (1, 3)])
    def test_audit_outside_hypothesis_matches_highs(self, n, m):
        # Scales 0 and -1: the joint-deviation program is the free-U LP
        # min U s.t. U >= sum_i C_i^T x_i - sum_j W_j^T y_j, rebuilt here
        # from the raw tensor and solved by HiGHS.  Its optimum is not 0
        # on these games, so the audit cannot pass by assuming it is.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(12)
        totals = []
        for _ in range(4):
            game = random_two_team(rng, n=n, m=m)
            xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(n))
            ys = tuple(rng.dirichlet(np.ones(2)) for _ in range(m - 1))
            _, audit = extend_multi_audited(game, xs, ys)
            assert audit.scale == n - m + 1
            assert audit.sd_residual <= 1e-7
            assert audit.margin >= -1e-7
            mats = _last_axis_pair_matrices(game.tensor, xs + ys)
            blocks = mats[:n] + [-W for W in mats[n:]]
            n_b = game.tensor.shape[-1]
            sizes = [blk.shape[0] for blk in blocks]
            a_ub = np.hstack([-np.ones((n_b, 1))] + [blk.T for blk in blocks])
            a_eq = np.zeros((len(blocks), 1 + sum(sizes)))
            offset = 1
            for r, k in enumerate(sizes):
                a_eq[r, offset:offset + k] = 1.0
                offset += k
            cost = np.zeros(1 + sum(sizes))
            cost[0] = 1.0
            res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n_b), A_eq=a_eq,
                          b_eq=np.ones(len(blocks)),
                          bounds=[(None, None)] + [(0, None)] * sum(sizes),
                          method="highs")
            assert res.status == 0
            assert audit.u_joint == pytest.approx(res.fun, abs=1e-7)
            assert audit.dual_total == pytest.approx(res.fun, abs=1e-7)
            totals.append(audit.dual_total)
        assert max(abs(t) for t in totals) > 1e-2


class TestGdMm:
    def test_m1_matches_single_adversary_quality(self):
        rng = np.random.default_rng(7)
        tensor = rng.uniform(-1, 1, size=(2, 2, 3))
        two = TwoTeamGame(tensor, n=2, m=1)
        one = TeamGame.dense(tensor)
        eps = 0.05
        profile2, cert2, trace2 = gd_mm(two, GdConfig(epsilon=eps),
                                        oracle_method="nested")
        _, cert1, trace1 = gradient_descent_max(one, GdConfig(epsilon=eps))
        assert trace2.outcome == "converged" == trace1.outcome
        assert cert2.gap <= eps and cert1.gap <= eps

    def test_constant_game_immediate(self):
        game = TwoTeamGame(np.full((2, 2, 2, 2), 0.75), n=2, m=2)
        profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert len(trace.iterations) == 1
        assert cert.gap == pytest.approx(0.0, abs=1e-9)

    def test_warns_outside_hypothesis(self):
        rng = np.random.default_rng(8)
        game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 2, 2, 2)), n=1, m=3)
        with pytest.warns(RuntimeWarning, match="n > m - 1"):
            gd_mm(game, GdConfig(epsilon=0.5, max_iters=2))

    def test_batch_2v2_certified(self):
        rng = np.random.default_rng(9)
        converged = 0
        for _ in range(6):
            game = random_two_team(rng)
            profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.1),
                                         oracle_method="grid")
            if trace.outcome == "converged":
                converged += 1
                o_min, o_max = two_team_deviation_gaps(
                    game.tensor, game.n, profile.minimizers,
                    profile.maximizers)
                assert max(o_min, o_max) <= 0.1 + 1e-9
        assert converged >= 5


class TestGdMmAveragedReplies:
    """Every CANDIDATE_EVERY iterations, the average of the oracle's last
    minimizer replies against the ascended co-maximizers is extended and
    certified."""

    def _assert_certified(self, game, profile, eps):
        o_min, o_max = two_team_deviation_gaps(
            game.tensor, game.n, profile.minimizers, profile.maximizers)
        assert max(o_min, o_max) <= eps + 1e-9

    def test_every_seed9_draw_converges(self):
        for game in _seed9_draws():
            profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.1),
                                         oracle_method="grid")
            assert trace.outcome == "converged"
            assert cert.gap <= 0.1
            self._assert_certified(game, profile, 0.1)

    def test_oscillating_draw_converges_on_the_average(self, monkeypatch):
        # Draw 5's oracle reply alternates between two pure points, so no
        # iterate certifies; the average of ten replies does.  Those are
        # the replies the co-maximizers stepped against: after a rejected
        # step, the accepted point's reply, not the oracle's latest.
        replies = []
        real = two_team.contract_players
        monkeypatch.setattr(
            two_team, "contract_players",
            lambda game, team, *a, **k: replies.append(team[:2])
            or real(game, team, *a, **k))
        game = _seed9_draws()[5]
        profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.1),
                                     oracle_method="grid")
        assert trace.outcome == "converged"
        assert trace.certified == "average"
        assert len(trace.iterations) <= 50
        assert len(trace.iterations) % CANDIDATE_EVERY == 0
        # The last record is the iterate's, which did not certify.
        assert trace.iterations[-1].ne_gap > 0.1
        assert len(replies) == len(trace.iterations)
        for i, x in enumerate(profile.minimizers):
            block = [team[i] for team in replies[-CANDIDATE_EVERY:]]
            assert np.allclose(x, np.mean(block, axis=0), atol=1e-15)
        self._assert_certified(game, profile, 0.1)
        summary = trace.summary()
        assert summary["certified"] == "average"
        assert summary["final_ne_gap"] == cert.gap <= 0.1
        # The candidate's LP is offered the re-extension's basis.
        assert (trace.lp_warm_kept + trace.lp_warm_repaired
                + trace.lp_warm_dropped + 2 == trace.extend_calls
                == 2 * len(trace.iterations)
                + len(trace.iterations) // CANDIDATE_EVERY)

    def test_single_maximizer_tries_no_candidate(self):
        game = TwoTeamGame(np.array([[3.0, -1.0], [-1.0, 1.0]]), n=1, m=1)
        _, _, trace = gd_mm(game, GdConfig(epsilon=1e-9, max_iters=12),
                            oracle_method="grid")
        assert trace.outcome == "budget_exhausted"
        assert trace.certified is None
        assert trace.extend_calls == len(trace.iterations) == 1

    def test_fresh_2v2_draws_converge(self):
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            converged = 0
            for _ in range(30):
                game = random_two_team(rng)
                profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.1),
                                             oracle_method="grid")
                if trace.outcome == "converged":
                    converged += 1
                    self._assert_certified(game, profile, 0.1)
            assert converged == 30, seed


def _converged_and_certified(game):
    """Run the default GDmm on ``game``; a converged profile must pass the
    brute-force two-team certificate."""
    profile, _, trace = gd_mm(game, GdConfig(epsilon=0.1),
                              oracle_method="grid", grid_step=0.02)
    if trace.outcome != "converged":
        return False
    o_min, o_max = two_team_deviation_gaps(
        game.tensor, game.n, profile.minimizers, profile.maximizers)
    assert max(o_min, o_max) <= 0.1 + 1e-9
    return True


class TestGdMmAdaptiveStep:
    """The co-maximizer step grows by ``_ETA_GROWTH``, up to the step that
    crosses a simplex, while the oracle's minmax value does not fall; a
    fall halves it and retakes the step from the accepted point and its
    reply."""

    def test_rule_replayed_on_a_run_with_backoffs(self, monkeypatch):
        oracles, steps = [], []
        real_oracle, real_grads = two_team.minmax_oracle, \
            two_team.contract_players
        monkeypatch.setattr(
            two_team, "minmax_oracle",
            lambda game, y, *a, **k: oracles.append(
                (y, real_oracle(game, y, *a, **k))) or oracles[-1][1])
        monkeypatch.setattr(
            two_team, "contract_players",
            lambda game, team, *a, **k: steps.append(
                (team, real_grads(game, team, *a, **k))) or steps[-1][1])
        game = _seed9_draws()[4]
        _, _, trace = gd_mm(game, GdConfig(epsilon=0.1),
                            oracle_method="grid")
        assert trace.outcome == "converged"
        eta0 = default_eta(game, 0.1, movers=1)
        cap = max(eta0, math.sqrt(2.0) / analytic_bounds(game).lipschitz)
        assert trace.eta == eta0 < cap
        assert two_team._ETA_GROWTH == 4.0
        eta, accepted, backoffs, etas = eta0, None, 0, []
        for t, ((y, reply), (team, grads)) in enumerate(zip(oracles, steps)):
            if (accepted is not None and reply.value < accepted[1].value
                    and eta > eta0):
                eta, backoffs = max(eta / 2.0, eta0), backoffs + 1
                # Stepped from the accepted point, against its reply.
                assert accepted[1] is not reply
            else:
                if accepted is not None:
                    eta = min(two_team._ETA_GROWTH * eta, cap)
                accepted = (y, reply)
            etas.append(eta)
            base, stored = accepted
            assert all(np.array_equal(a, b) for a, b in
                       zip(team, (*stored.team, *base)))
            if t + 1 < len(oracles):
                for yj, bj, g in zip(oracles[t + 1][0], base, grads):
                    assert np.array_equal(yj, project_simplex(bj + eta * g))
        assert len(oracles) == len(steps) == len(trace.iterations)
        assert eta0 <= min(etas) and max(etas) <= cap
        assert max(etas) > eta0
        assert trace.eta_backoffs == backoffs > 0
        assert trace.summary()["eta_backoffs"] == backoffs
        assert trace.summary()["final_eta"] == trace.final_eta == eta

    def test_single_maximizer_keeps_the_initial_step(self):
        game = TwoTeamGame(np.array([[3.0, -1.0], [-1.0, 1.0]]), n=1, m=1)
        _, _, trace = gd_mm(game, GdConfig(epsilon=1e-9, max_iters=5),
                            oracle_method="grid")
        assert trace.summary()["final_eta"] == trace.final_eta == trace.eta
        assert trace.eta_backoffs == 0

    def test_3v3_draws_converge(self):
        # The eight 3v3 draws of ROADMAP item 4.
        rng = np.random.default_rng(9)
        converged = sum(_converged_and_certified(random_two_team(rng, 3, 3))
                        for _ in range(8))
        assert converged == 8

    def test_polytensor_draws_and_dense_copies_converge(self):
        # At the fixed step 4 of 10 polytensor draws and 8 of 10 dense
        # copies converged: the polytensor v_max is looser, and the fixed
        # step scales with 1 / v_max.
        poly = dense = 0
        for seed in range(10):
            game = two_team_from_dict(
                poly_two_team_doc(np.random.default_rng(seed)))
            poly += _converged_and_certified(game)
            dense += _converged_and_certified(
                TwoTeamGame(game.tensor, n=2, m=2))
        assert poly == 10
        assert dense == 10


class TestSchema:
    def doc(self):
        return {
            "teams": {"minimizers": 1, "maximizers": 2},
            "actions": [2],
            "adversary_actions": [2, 2],
            "payoff": {"kind": "dense",
                       "entries": [[[0, 0, 0], 1, 2], [[1, 1, 1], -1, 2]]},
        }

    def test_round_trip(self):
        game = two_team_from_dict(self.doc())
        assert game.n == 1 and game.m == 2
        assert game.tensor[0, 0, 0] == 0.5
        assert game.document == self.doc()

    def test_schema_errors_carry_paths(self):
        doc = self.doc()
        doc["adversary_actions"] = [2]
        with pytest.raises(SchemaError, match="adversary_actions"):
            two_team_from_dict(doc)

    def test_profile_round_trip(self):
        profile = TwoTeamProfile.of([[0.5, 0.5]], [[1, 0], [0.25, 0.75]])
        doc = two_team_profile_to_dict(profile)
        back = two_team_profile_from_dict(doc)
        for a, b in zip(profile.maximizers, back.maximizers):
            assert np.allclose(a, b)

    def test_m1_induced_game_is_same_tensor(self):
        rng = np.random.default_rng(11)
        tensor = rng.uniform(-1, 1, size=(2, 2))
        game = TwoTeamGame(tensor, n=1, m=1)
        induced = _induced(game, ())
        assert np.array_equal(induced.payoff_tensor(), tensor)


class TestSeventeenPlayers:
    def test_value_and_certificate_match_tensordot(self):
        rng = np.random.default_rng(17)
        n, m = 9, 8
        game = TwoTeamGame(rng.uniform(-1, 1, size=(2,) * (n + m)), n=n, m=m)
        vectors = [rng.dirichlet(np.ones(2)) for _ in range(n + m)]
        profile = TwoTeamProfile.of(vectors[:n], vectors[n:])
        value = float(tensordot_contract(game.tensor, vectors))
        assert expected_value(game, profile) == pytest.approx(value,
                                                              abs=1e-12)
        devs = [tensordot_contract(game.tensor, vectors, (k,))
                for k in range(n + m)]
        cert = ne_gap_two_team(game, profile)
        assert cert.gap_team == pytest.approx(
            max(value - float(np.min(d)) for d in devs[:n]), abs=1e-12)
        assert cert.gap_adversary == pytest.approx(
            max(float(np.max(d)) - value for d in devs[n:]), abs=1e-12)


class TestProfileValidation:
    GAME = TwoTeamGame(np.arange(8.0).reshape(2, 2, 2), n=1, m=2)

    def test_negative_probability_names_axis(self):
        profile = TwoTeamProfile.of([[0.5, 0.5]], [[0.5, 0.5], [1.5, -0.5]])
        with pytest.raises(DimensionMismatchError,
                           match="maximizer 1: negative") as err:
            ne_gap_two_team(self.GAME, profile)
        assert err.value.player == 2

    def test_wrong_length_and_count(self):
        long = TwoTeamProfile.of([[0.5, 0.25, 0.25]], [[1, 0], [0, 1]])
        with pytest.raises(DimensionMismatchError, match="minimizer 0"):
            ne_gap_two_team(self.GAME, long)
        short = TwoTeamProfile.of([[0.5, 0.5]], [[1, 0]])
        with pytest.raises(DimensionMismatchError, match="maximizer vectors"):
            ne_gap_two_team(self.GAME, short)


class TestGdMmSingleMaximizer:
    def test_one_extension_per_iteration(self):
        # Minmax strategy (1/3, 2/3) lies off the 1/50 grid: never exact.
        game = TwoTeamGame(np.array([[3.0, -1.0], [-1.0, 1.0]]), n=1, m=1)
        _, cert, trace = gd_mm(
            game, GdConfig(epsilon=1e-9, max_iters=3), oracle_method="grid")
        # Nothing moves between iterations, so the first is the last.
        assert trace.outcome == "budget_exhausted"
        assert trace.extend_calls == len(trace.iterations) == 1
        assert trace.summary()["final_ne_gap"] == cert.gap


class TestGdMmDefaultStep:
    CASES = {
        "dense-1v1": lambda: random_two_team(np.random.default_rng(30), 1, 1),
        "dense-2v2": lambda: random_two_team(np.random.default_rng(31), 2, 2),
        "dense-3v3": lambda: random_two_team(np.random.default_rng(32), 3, 3),
        "polytensor-2v2": lambda: two_team_from_dict(
            poly_two_team_doc(np.random.default_rng(33))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_default_eta_counts_the_co_maximizers_as_movers(self, case):
        game = self.CASES[case]()
        eps = 0.1
        _, _, trace = gd_mm(game, GdConfig(epsilon=eps, max_iters=1),
                            grid_step=0.25)
        assert trace.eta == default_eta(game, eps, movers=max(game.m - 1, 1))


class TestGdMmLpPivots:
    def test_trace_sums_extension_lp_pivots(self, monkeypatch):
        seen = []
        real = extension.solve_lp
        monkeypatch.setattr(extension, "solve_lp",
                            lambda lp: seen.append(real(lp)) or seen[-1])
        game = random_two_team(np.random.default_rng(23))
        _, _, trace = gd_mm(game, GdConfig(epsilon=1e-9, max_iters=3))
        assert trace.extend_calls == len(seen) == 6
        assert trace.lp_pivots == sum(len(s.pivots) for s in seen) > 0
        assert trace.summary()["lp_pivots"] == trace.lp_pivots


class TestAnalyticBounds:
    def test_sizes_sum_over_both_teams(self):
        rng = np.random.default_rng(12)
        game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 3, 2, 4)), n=2, m=2)
        bounds = analytic_bounds(game)
        assert bounds.lipschitz == game.v_max * math.sqrt(11)
        assert bounds.smoothness == game.v_max * 11
