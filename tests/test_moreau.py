import math

import numpy as np
import pytest

import teamsolve.linprog as linprog
import teamsolve.moreau as moreau
from teamsolve import DimensionMismatchError, TeamGame
from teamsolve.games import LocalBlock, analytic_bounds, contract_game
from teamsolve.generators import random_game
from teamsolve.moreau import proximal_point

from conftest import (mixed_ring_game, random_profile, ring_game,
                      stationarity_measure)
from oracles import (
    grid_prox_minimum,
    sort_threshold_projection,
    support_enumeration_zero_sum,
)


def small_games(seed, count, two_player=False):
    """Dense games whose simplex product stays grid-searchable at 1e-3."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        if two_player and rng.random() < 0.5:
            sizes = (2, 2)
        else:
            sizes = (int(rng.integers(2, 4)),)
        nb = int(rng.integers(2, 5))
        games.append(TeamGame.dense(rng.uniform(-1, 1, size=(*sizes, nb))))
    return games


class TestProximalPoint:
    def test_constant_game_returns_center(self, constant_game):
        center = [np.array([0.3, 0.7])]
        res = proximal_point(constant_game, center, ell=4.0, tol=1e-6)
        assert np.allclose(res.prox_point[0], center[0], atol=1e-9)
        assert res.objective_value == pytest.approx(2.0, abs=1e-9)
        assert res.reached

    def test_pennies_vertex_matches_grid(self, matching_pennies):
        res = proximal_point(matching_pennies, [np.array([1.0, 0.0])],
                             ell=4.0, tol=1e-3)
        grid_val, _ = grid_prox_minimum(matching_pennies.payoff_tensor(),
                                        [np.array([1.0, 0.0])], ell=4.0)
        assert abs(res.objective_value - grid_val) <= 2e-3

    def test_exact_minimax_center_is_stationary(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            M = rng.uniform(-1, 1, size=(3, 3))
            _, x, _ = support_enumeration_zero_sum(M)
            game = TeamGame.dense(M)
            ell = analytic_bounds(game).smoothness
            res = proximal_point(game, [x], ell=ell, tol=1e-10)
            assert res.prox_distance <= math.sqrt(2 * res.tolerance / ell) + 1e-5

    def test_center_always_feasible(self):
        rng = np.random.default_rng(24)
        for game in small_games(25, 8, two_player=True):
            team, _ = random_profile(rng, game)
            ell = analytic_bounds(game).smoothness
            res = proximal_point(game, team, ell=ell, tol=1e-5)
            phi_center = float(np.max(contract_game(game, team, None,
                                                    (game.n,))))
            assert res.objective_value <= phi_center + 1e-9
            assert res.tolerance > 0

    def test_planned_budget_matches_rate_formula(self, matching_pennies):
        tol = 1e-4
        res = proximal_point(matching_pennies, [np.array([0.6, 0.4])],
                             ell=4.0, tol=tol)
        assert res.reached and res.tolerance <= tol

    @pytest.mark.parametrize("tol", [1e-6, 1e-15, 1e-320])
    def test_reached_iff_reported_tolerance_meets_tol(self, matching_pennies,
                                                      tol):
        res = proximal_point(matching_pennies, [np.array([0.5, 0.5])],
                             ell=4.0, tol=tol)
        assert res.tolerance >= 1e-15
        assert res.reached == (res.tolerance <= tol)
        assert res.reached == (tol >= 1e-15)

    def test_iteration_cap_flags_unreached(self, matching_pennies):
        res = proximal_point(matching_pennies, [np.array([1.0, 0.0])],
                             ell=4.0, tol=1e-13)
        assert res.tolerance > 0
        if not res.reached:
            assert res.iterations <= 3

    def test_grid_oracle_agreement(self):
        tol = 1e-3
        for game in small_games(26, 10, two_player=True):
            rng = np.random.default_rng(27)
            team, _ = random_profile(rng, game)
            ell = analytic_bounds(game).smoothness
            res = proximal_point(game, team, ell=ell, tol=tol)
            grid_val, _ = grid_prox_minimum(game.payoff_tensor(), team,
                                            ell=ell)
            assert abs(res.objective_value - grid_val) <= 2 * tol

    def test_polytensor_games_supported(self):
        blocks = [
            LocalBlock((0,), True, np.array([[1.0, -1.0], [-1.0, 1.0]])),
            LocalBlock((1,), True, np.array([[0.5, 0.0], [-0.5, 0.25]])),
        ]
        game = TeamGame.polytensor([2, 2], 2, blocks)
        team = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        ell = analytic_bounds(game).smoothness
        res = proximal_point(game, team, ell=ell, tol=1e-6)
        dense = TeamGame.dense(game.payoff_tensor())
        res_dense = proximal_point(dense, team, ell=ell, tol=1e-6)
        assert res.objective_value == pytest.approx(
            res_dense.objective_value, abs=1e-5)


class TestPotential:
    """The run potential: the achieved prox objective value."""

    def test_constant_game_everywhere(self, constant_game):
        rng = np.random.default_rng(31)
        for _ in range(5):
            team, _ = random_profile(rng, constant_game)
            res = proximal_point(constant_game, team, ell=4.0, tol=1e-8)
            assert res.objective_value == pytest.approx(2.0, abs=1e-8)

    def test_pennies_at_equilibrium_is_zero(self, matching_pennies):
        res = proximal_point(matching_pennies, [np.array([0.5, 0.5])],
                             ell=4.0, tol=1e-6)
        assert abs(res.objective_value) <= 1e-6 + 1e-6

    def test_bounded_by_payoff_and_diameter(self):
        rng = np.random.default_rng(32)
        for game in small_games(33, 5):
            ell = analytic_bounds(game).smoothness
            bound = game.v_max + ell * 2.0 * game.n
            for _ in range(20):
                team, _ = random_profile(rng, game)
                res = proximal_point(game, team, ell=ell, tol=1e-4)
                assert abs(res.objective_value) <= bound + 1e-9


class TestStationarity:
    """Near-stationarity certified through the prox distance and the
    prox value tolerance (``conftest.stationarity_measure``)."""

    def test_minimax_center_nearly_stationary(self):
        rng = np.random.default_rng(41)
        M = rng.uniform(-1, 1, size=(3, 3))
        _, x, _ = support_enumeration_zero_sum(M)
        game = TeamGame.dense(M)
        ell = analytic_bounds(game).smoothness
        measure, slack = stationarity_measure(
            proximal_point(game, [x], ell=ell, tol=1e-10), ell)
        assert measure <= slack + 1e-4

    def test_pennies_vertex_far_from_stationary(self, matching_pennies):
        measure, _ = stationarity_measure(
            proximal_point(matching_pennies, [np.array([1.0, 0.0])],
                           ell=4.0, tol=1e-8), 4.0)
        assert measure > 0.5

    def test_constant_game_slack_only(self, constant_game):
        res = proximal_point(constant_game, [np.array([0.3, 0.7])],
                             ell=4.0, tol=1e-8)
        measure, slack = stationarity_measure(res, 4.0)
        assert measure == pytest.approx(slack)
        assert res.prox_distance == pytest.approx(0.0, abs=1e-12)

    def test_close_prox_relation_by_construction(self):
        rng = np.random.default_rng(42)
        for game in small_games(43, 5):
            team, _ = random_profile(rng, game)
            ell = analytic_bounds(game).smoothness
            res = proximal_point(game, team, ell=ell, tol=1e-6)
            measure, _ = stationarity_measure(res, ell)
            assert res.prox_distance <= measure / (2 * ell) + 1e-12


class TestSummedDeviationTransfer:
    def test_prox_distance_of_summed_deviation_function(self):
        """Stationarity transfers to the summed-deviation surrogate.

        At the prox point of a near-stationary center, the function
        summing each player's unilateral payoff (others pinned at the
        prox point) has a proximal point within measure/ell plus solver
        slack.  The summed function lives in a polytensor game whose
        blocks couple each player with the adversary.
        """
        rng = np.random.default_rng(44)
        maker = np.random.default_rng(45)
        games = [TeamGame.dense(maker.uniform(-1, 1, size=(2, 2,
                                                           int(maker.integers(2, 5)))))
                 for _ in range(4)]
        checked = 0
        for game in games:
            ell = max(analytic_bounds(game).smoothness, 1e-9)
            team, _ = random_profile(rng, game)
            res = proximal_point(game, team, ell=ell, tol=1e-9)
            anchor = res.prox_point
            measure, _ = stationarity_measure(res, ell)
            blocks = []
            tensor = game.payoff_tensor()
            for i in range(game.n):
                axes = list(range(game.n))
                axes.remove(i)
                table = tensor
                shift = 0
                for pos, j in enumerate(axes):
                    table = np.tensordot(anchor[j], table,
                                         axes=([0], [j - shift]))
                    shift += 1
                blocks.append(LocalBlock((i,), True, table))
            summed = TeamGame.polytensor(game.action_sets,
                                         game.adversary_actions, blocks)
            res_w = proximal_point(summed, anchor, ell=ell, tol=1e-9)
            slack = (math.sqrt(2.0 * res_w.tolerance / ell)
                     + math.sqrt(2.0 * res.tolerance / ell))
            assert res_w.prox_distance <= measure / ell + slack + 1e-6
            checked += 1
        assert checked >= 2


class TestCenterValidation:
    @pytest.mark.parametrize("center", [[[1.5, -0.5]], [[0.5, 0.4]],
                                        [[math.nan, 1.0]]])
    def test_rejects_center_that_is_not_a_distribution(self, center):
        with pytest.raises(DimensionMismatchError):
            proximal_point(random_game(1, [2], 2, 0), center, ell=4.0,
                           tol=1e-6)


class TestKelleyFaults:
    def test_faults_counted_and_bounds_from_probes_stay_sound(
            self, monkeypatch):
        monkeypatch.setattr(moreau._DualCertifier, "_newton",
                            lambda self, *args, **kwargs: False)
        game = random_game(1, [3], 3, 1)
        center = [np.array([0.2, 0.15, 0.65])]
        clean = proximal_point(game, center, ell=2.0, tol=1e-8)
        faults = []

        def failing(lp):
            faults.append(lp)
            raise linprog.LpFault("forced")

        monkeypatch.setattr(moreau, "solve_lp", failing)
        res = proximal_point(game, center, ell=2.0, tol=1e-8)
        assert clean.kelley_faults == 0 < clean.lp_pivots
        assert res.kelley_faults == len(faults) > 0
        assert res.lp_pivots == 0
        # Each run's certified lower bound sits below the other's
        # achieved (feasible) value.
        lower = res.objective_value - res.tolerance
        assert lower <= clean.objective_value + 1e-12
        assert clean.objective_value - clean.tolerance \
            <= res.objective_value + 1e-12
        grid_val, _ = grid_prox_minimum(game.payoff_tensor(), center, 2.0)
        assert lower <= grid_val + 1e-12


class TestFdJacobian:
    @pytest.mark.parametrize("w, backward", [([0.3, 0.2, 0.5], False),
                                             ([0.3, 0.7, 0.0], True)])
    def test_matches_linear_residual(self, w, backward):
        # Column j moves mass between member j and the last member, so the
        # exact Jacobian of r(w) = M w is M[:, j] - M[:, -1].
        M = np.random.default_rng(7).uniform(-1, 1, size=(2, 3))
        moved = []

        def residual(wv):
            moved.append(wv[-1] - w[-1])
            return M @ wv, None

        w = np.array(w)
        jac = moreau._DualCertifier._fd_jacobian(residual, w, M @ w)
        assert np.allclose(jac, M[:, :-1] - M[:, -1:], rtol=0, atol=1e-8)
        assert all((m > 0) == backward for m in moved)

    def test_both_weights_zero_gives_none(self):
        w = np.array([0.0, 1.0, 0.0])
        assert moreau._DualCertifier._fd_jacobian(
            lambda wv: (wv[:-1], None), w, w[:-1]) is None


class TestDuplicateCuts:
    def test_cut_within_tolerance_of_a_recent_one_is_dropped(self):
        game = random_game(1, [3], 3, 1)
        center = (np.array([0.2, 0.15, 0.65]),)
        y = np.array([0.5, 0.3, 0.2])
        cert = moreau._DualCertifier(game, center, 2.0, center, y,
                                     memory=None)
        cert.probe(y, moreau._POLISH_TOL)
        near = y + np.array([1e-8, -1e-8, 0.0])
        cert.probe(near, moreau._POLISH_TOL)
        z_near = moreau._inner_solve(game, center, 2.0, near, center,
                                     moreau._POLISH_TOL)[0]
        slope = contract_game(game, z_near, None, (game.n,))
        differ = float(np.max(np.abs(slope - cert.cut_slopes[0])))
        assert 1e-12 < differ < moreau._DUPLICATE_CUT
        assert len(cert.cut_slopes) == 1
        cert.probe(np.array([0.0, 0.0, 1.0]), moreau._POLISH_TOL)
        assert len(cert.cut_slopes) == 2


def _inner_min_full_game(game, center, ell, y, z0, inner_tol):
    """The inner solve contracting the whole game, adversary axis
    included, on every call."""
    n = game.n
    z = list(z0)
    lb = -math.inf
    f_z = math.inf
    for _ in range(moreau._INNER_SWEEPS):
        for i in range(n):
            g_i = contract_game(game, z, y, (i,))
            z[i] = sort_threshold_projection(center[i] - g_i / (2.0 * ell))
        grads = [contract_game(game, z, y, (i,)) for i in range(n)]
        f_z = float(z[0] @ grads[0]) + ell * moreau._dist2(z, center)
        quad = 0.0
        for zi, gi, ci in zip(z, grads, center):
            full = gi + 2.0 * ell * (zi - ci)
            d = sort_threshold_projection(zi - full / ell) - zi
            quad += float(full @ d) + 0.5 * ell * float(d @ d)
        lb = f_z + quad
        if -quad <= inner_tol:
            break
    return tuple(z), f_z, lb


class TestInnerMinFixedAdversary:
    """One adversary contraction per call against the full-game loop."""

    @staticmethod
    def games():
        rng = np.random.default_rng(5)
        return [TeamGame.dense(rng.uniform(-1, 1, size=(2, 2, 3))),
                TeamGame.dense(rng.uniform(-1, 1, size=(3, 3, 3, 4))),
                TeamGame.dense(rng.uniform(-1, 1, size=(2,) * 17 + (2,))),
                ring_game(rng, 6, 3), mixed_ring_game(rng, 4, 3)]

    @pytest.mark.parametrize("inner_tol", [1e-9, moreau._POLISH_TOL])
    def test_matches_full_game_loop(self, inner_tol):
        rng = np.random.default_rng(6)
        for game in self.games():
            ell = analytic_bounds(game).smoothness
            center, y = random_profile(rng, game)
            z0 = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
            z, f_z, lb, _ = moreau._inner_solve(game, center, ell, y, z0,
                                                inner_tol)
            z_ref, f_ref, lb_ref = _inner_min_full_game(
                game, center, ell, y, z0, inner_tol)
            assert max(float(np.max(np.abs(a - b)))
                       for a, b in zip(z, z_ref)) <= 1e-12
            assert abs(f_z - f_ref) <= 1e-12
            assert abs(lb - lb_ref) <= 1e-12
