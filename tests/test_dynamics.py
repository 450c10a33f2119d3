import hashlib
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamsolve
import teamsolve.dynamics as dynamics
import teamsolve.extension as extension
import teamsolve.games as games
import teamsolve.linprog as linprog
import teamsolve.moreau as moreau
from teamsolve import GdConfig, TeamGame, gradient_descent_max, project_simplex
from teamsolve.dynamics import (
    PHASES,
    TRACE_VERSION,
    default_eta,
    default_max_iters,
)
from teamsolve.generators import random_game

from conftest import random_team_game
from oracles import deviation_gaps, simplex_grid_points, sort_threshold_projection


class TestProjectSimplex:
    def test_already_feasible(self):
        assert np.allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_nearest_vertex(self):
        assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_equal_shift_when_interior(self):
        # Both coordinates stay positive, so the projection subtracts
        # (sum - 1) / 2 from each.
        assert np.allclose(project_simplex([0.8, 0.4]), [0.7, 0.3])

    def test_matches_fine_grid_search(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            dim = int(rng.integers(2, 4))
            v = rng.uniform(-2, 2, size=dim)
            p = project_simplex(v)
            grid = simplex_grid_points(dim, 1e-2 if dim == 3 else 1e-3)
            grid_best = np.min(((grid - v) ** 2).sum(axis=1))
            assert float((p - v) @ (p - v)) <= grid_best + 1e-4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    def test_projection_properties(self, values):
        v = np.asarray(values)
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        again = project_simplex(p)
        assert np.allclose(again, p, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(-10, 10), min_size=2, max_size=5),
           seed=st.integers(0, 1000))
    def test_projection_optimality_vs_random_feasible(self, values, seed):
        v = np.asarray(values)
        p = project_simplex(v)
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(v.size))
        assert float((p - v) @ (p - v)) <= float((q - v) @ (q - v)) + 1e-12


def _projection_inputs():
    """Seeded vectors of length 1-64 over scales 1e-12 to 1e6."""
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        for scale in (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6):
            v = rng.normal(size=n) * scale
            yield v
            yield np.round(v / scale, 1) * scale  # ties
            yield np.full(n, scale)  # all equal
            yield np.full(n, -scale)
            yield rng.dirichlet(np.ones(n))  # already feasible
            yield v + (1.0 - v.sum()) / n  # on the hyperplane, off-simplex


class TestProjectSimplexOracle:
    def test_bitwise_equal_to_sort_threshold(self):
        for v in _projection_inputs():
            assert np.array_equal(project_simplex(v),
                                  sort_threshold_projection(v)), v

    @pytest.mark.parametrize("v", [[math.nan, 1.0, 0.0], [math.inf, 0.0],
                                   [-math.inf], [1.0, 2.0, math.inf, 0.5],
                                   [], [[0.5, 0.5]], [[1.0], [0.0]]])
    def test_same_errors(self, v):
        with pytest.raises(ValueError) as expected:
            sort_threshold_projection(v)
        with pytest.raises(ValueError) as got:
            project_simplex(v)
        assert str(got.value) == str(expected.value)

    def test_entries_lost_to_rounding_raise_a_named_error(self):
        # Subtracting 1 from 1e17 rounds back to 1e17, so no rank passes
        # the threshold test; the vectorized body fails on an empty index.
        with pytest.raises(IndexError):
            sort_threshold_projection([1e17] * 3)
        with pytest.raises(ValueError, match="too large"):
            project_simplex([1e17] * 3)


def gd_step(game, team, eta):
    """One descent step from ``team`` as the GD loop takes it:
    ``(new_team, br_action)``."""
    values = games.contract_game(game, team, None, (game.n,))
    br_action, step = dynamics._descent(game, team, values)
    return step(eta), br_action


class TestGdStep:
    def test_hand_evaluated_pipeline(self, matching_pennies):
        new_team, br = gd_step(matching_pennies, (np.array([0.5, 0.5]),),
                               eta=0.1)
        assert br == 0  # tie at value 0 breaks to h
        assert np.allclose(new_team[0], [0.4, 0.6], atol=1e-12)

    def test_constant_game_fixed_point(self, constant_game):
        team = (np.array([0.25, 0.75]),)
        new_team, _ = gd_step(constant_game, team, eta=0.5)
        assert np.allclose(new_team[0], team[0], atol=1e-12)

    def test_zero_eta_identity(self, matching_pennies):
        team = (np.array([0.7, 0.3]),)
        new_team, _ = gd_step(matching_pennies, team, eta=0.0)
        assert np.allclose(new_team[0], team[0], atol=1e-15)

    def test_update_is_simultaneous(self):
        # Player 1's update must see player 0's OLD strategy: after the
        # joint step from a uniform start on this game, a sequential
        # (Gauss-Seidel) update would differ.
        rng = np.random.default_rng(3)
        game = TeamGame.dense(rng.uniform(-1, 1, size=(2, 2, 2)))
        team = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        new_team, br = gd_step(game, team, eta=0.3)
        grads = games.contract_players(game, team, br)
        for i in range(2):
            assert np.allclose(new_team[i],
                               project_simplex(team[i] - 0.3 * grads[i]),
                               atol=1e-15)


class TestGdConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GdConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            GdConfig(epsilon=0.1, eta=-1.0)
        with pytest.raises(ValueError):
            GdConfig(epsilon=0.1, max_iters=0)
        for bad in ({"epsilon": math.inf}, {"epsilon": math.nan},
                    {"epsilon": 1e300}, {"epsilon": 0.1, "eta": math.inf}):
            with pytest.raises(ValueError):
                GdConfig(**bad)

    def test_default_budget_scales_with_epsilon(self, matching_pennies):
        t1 = default_max_iters(matching_pennies, 0.2)
        t2 = default_max_iters(matching_pennies, 0.1)
        assert t2 / t1 == pytest.approx(16.0, rel=0.01)

    def test_tiny_epsilon_rejected_by_name(self, matching_pennies):
        # 1e-100 ** 4 is 0, so the prox tolerance would be 0; 1e-80 ** 4
        # is subnormal and the budget over it is not finite.
        with pytest.raises(ValueError, match="underflows"):
            GdConfig(epsilon=1e-100)
        with pytest.raises(ValueError, match="underflows"):
            GdConfig(epsilon=1e-100, max_iters=5)
        GdConfig(epsilon=1e-80)
        with pytest.raises(ValueError, match="finite iteration budget"):
            default_max_iters(matching_pennies, 1e-80)

    def test_default_eta_positive(self, matching_pennies):
        assert default_eta(matching_pennies, 0.05) > 0
        zero_game = TeamGame.dense(np.zeros((2, 2)))
        assert default_eta(zero_game, 0.05) == 1.0  # degenerate bounds


class TestGradientDescentMax:
    def test_matching_pennies_converges(self, matching_pennies):
        profile, cert, trace = gradient_descent_max(
            matching_pennies, GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert cert.gap <= 0.05
        assert np.abs(profile.adversary - 0.5).sum() <= 0.05

    def test_constant_game_immediate(self, constant_game):
        profile, cert, trace = gradient_descent_max(
            constant_game, GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert len(trace.iterations) == 1
        assert cert.gap == pytest.approx(0.0, abs=1e-12)

    def test_batch_certified_by_independent_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            game = random_team_game(rng, max_players=2)
            profile, cert, trace = gradient_descent_max(
                game, GdConfig(epsilon=0.05, max_iters=50_000))
            assert trace.outcome == "converged"
            oracle_gaps = deviation_gaps(game.payoff_tensor(), profile.team,
                                         profile.adversary)
            assert max(oracle_gaps) <= 0.05 + 1e-9

    def test_budget_exhaustion_returns_best_seen(self, matching_pennies):
        game = TeamGame.dense(
            np.random.default_rng(5).uniform(-1, 1, size=(3, 3)))
        profile, cert, trace = gradient_descent_max(
            game, GdConfig(epsilon=1e-6, max_iters=5))
        assert trace.outcome == "budget_exhausted"
        assert cert.gap == min(r.ne_gap for r in trace.iterations)

    def test_deterministic_trace(self):
        rng = np.random.default_rng(15)
        game = random_team_game(rng, max_players=2, max_actions=2)
        runs = [gradient_descent_max(
            game, GdConfig(epsilon=0.05))
            for _ in range(2)]
        (p1, _, t1), (p2, _, t2) = runs
        assert len(t1.iterations) == len(t2.iterations)
        for r1, r2 in zip(t1.iterations, t2.iterations):
            assert r1 == r2  # bit-identical records
        for x1, x2 in zip(p1.team, p2.team):
            assert np.array_equal(x1, x2)
        assert np.array_equal(p1.adversary, p2.adversary)

    def test_potential_monotone_along_run(self):
        rng = np.random.default_rng(16)
        game = random_team_game(rng, max_players=2)
        _, _, trace = gradient_descent_max(
            game, GdConfig(epsilon=0.05, max_iters=50_000))
        assert trace.monotonicity_violations() == 0
        drops = [ga - gb for (_, ga), (_, gb) in trace.potential_pairs]
        assert drops, "expected recorded potential pairs"

    def test_every_record_carries_the_potential(self):
        _, _, trace = gradient_descent_max(random_game(2, [2, 2], 3, 3),
                                           GdConfig(epsilon=0.05))
        assert all(isinstance(r.potential_g, float)
                   for r in trace.iterations)
        assert len(trace.potential_pairs) == len(trace.iterations) - 1


class TestRunTrace:
    def test_csv_format(self, matching_pennies):
        _, _, trace = gradient_descent_max(matching_pennies,
                                           GdConfig(epsilon=0.05))
        lines = trace.to_csv().splitlines()
        assert lines[0] == f"# {TRACE_VERSION}"
        assert lines[1] == "t,potential_g,ne_gap,step_norm,br_action"
        assert len(lines) == 2 + len(trace.iterations)

    def test_summary_fields(self, matching_pennies):
        _, _, trace = gradient_descent_max(matching_pennies,
                                           GdConfig(epsilon=0.05))
        summary = trace.summary()
        assert summary["outcome"] == "converged"
        assert summary["monotonicity_violations"] == 0
        assert summary["max_sd_residual"] <= 1e-7
        assert not math.isnan(summary["final_ne_gap"])


class TestSummaryMatchesCertificate:
    def test_prox_candidate_run_reports_certified_gap(self):
        # Converges on the extended prox point, not on the raw iterate.
        game = random_game(2, [2, 2], 3, 2)
        _, cert, trace = gradient_descent_max(game, GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert trace.iterations[-1].ne_gap > 0.05
        assert trace.summary()["final_ne_gap"] == cert.gap <= 0.05

    def test_budget_exhausted_run_reports_best_gap(self):
        game = random_game(2, [2, 2], 3, 0)
        _, cert, trace = gradient_descent_max(
            game, GdConfig(epsilon=1e-6, max_iters=5))
        assert trace.outcome == "budget_exhausted"
        assert trace.summary()["final_ne_gap"] == cert.gap


class TestCertifiedCandidate:
    def test_prox_exit(self):
        # The run of test_prox_candidate_run_reports_certified_gap.
        game = random_game(2, [2, 2], 3, 2)
        _, cert, trace = gradient_descent_max(game, GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert trace.iterations[-1].ne_gap > 0.05
        assert trace.certified == trace.summary()["certified"] == "prox"

    def test_iterate_exit(self, matching_pennies):
        _, cert, trace = gradient_descent_max(matching_pennies,
                                              GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert trace.iterations[-1].ne_gap == cert.gap <= 0.05
        assert trace.certified == trace.summary()["certified"] == "iterate"

    def test_budget_exhausted_names_no_candidate(self):
        _, _, trace = gradient_descent_max(
            random_game(2, [2, 2], 3, 0), GdConfig(epsilon=1e-6,
                                                   max_iters=5))
        assert trace.outcome == "budget_exhausted"
        assert trace.certified is None
        assert trace.summary()["certified"] is None


class TestLpPivots:
    def test_trace_sums_extension_lp_pivots(self, monkeypatch):
        seen = []
        real = extension.solve_lp
        monkeypatch.setattr(extension, "solve_lp",
                            lambda lp: seen.append(real(lp)) or seen[-1])
        game = random_game(2, [2, 2], 3, 0)
        _, _, trace = gradient_descent_max(
            game, GdConfig(epsilon=1e-6, max_iters=5))
        assert trace.extend_calls == len(seen) > 0
        assert trace.lp_pivots == sum(len(s.pivots) for s in seen) > 0
        assert trace.summary()["lp_pivots"] == trace.lp_pivots


class TestProxLpPivots:
    def test_trace_sums_kelley_lp_pivots(self, monkeypatch):
        # Extension and moreau each bind solve_lp at import; moreau's
        # binding reaches the Kelley LPs only.
        monkeypatch.setattr(moreau._DualCertifier, "_newton",
                            lambda self, *args, **kwargs: False)
        seen = []
        real = linprog.solve_lp
        monkeypatch.setattr(moreau, "solve_lp",
                            lambda lp: seen.append(real(lp)) or seen[-1])
        _, _, trace = gradient_descent_max(
            random_game(1, [3], 3, 2), GdConfig(epsilon=0.05, max_iters=40))
        assert len(seen) > 0
        assert trace.prox_lp_pivots == sum(len(s.pivots) for s in seen) > 0
        assert trace.summary()["prox_lp_pivots"] == trace.prox_lp_pivots


class TestProxKelleyFaults:
    def test_trace_counts_kelley_lp_faults(self, monkeypatch):
        faults = []

        def failing(lp):
            faults.append(lp)
            raise linprog.LpFault("forced")

        monkeypatch.setattr(moreau._DualCertifier, "_newton",
                            lambda self, *args, **kwargs: False)
        monkeypatch.setattr(moreau, "solve_lp", failing)
        _, cert, trace = gradient_descent_max(
            random_game(1, [3], 3, 2), GdConfig(epsilon=0.05, max_iters=40))
        assert trace.prox_kelley_faults == len(faults) > 0
        assert trace.prox_lp_pivots == 0
        assert trace.summary()["prox_kelley_faults"] == len(faults)
        assert trace.summary()["final_ne_gap"] == cert.gap


class TestProxUnreached:
    def test_trace_counts_unreached_prox_calls(self, monkeypatch,
                                               matching_pennies):
        # A certifier that only probes its current mixture stalls where
        # the worst case has a kink, as at the uniform start of pennies.
        monkeypatch.setattr(
            moreau._DualCertifier, "run",
            lambda self, tol, value_hint: self.probe(self.best_y,
                                                     moreau._POLISH_TOL))
        results = []
        real = dynamics._proximal_point
        monkeypatch.setattr(dynamics, "_proximal_point",
                            lambda *a, **k: results.append(real(*a, **k))
                            or results[-1])
        _, _, trace = gradient_descent_max(
            matching_pennies, GdConfig(epsilon=0.05))
        unreached = sum(not r.reached for r in results)
        assert trace.prox_unreached == unreached > 0
        assert trace.summary()["prox_unreached"] == unreached


class TestDualCertifiedRun:
    def test_every_prox_call_reached_without_kelley_faults(self):
        # This run meets both certifier defects: Kelley LPs on cuts about
        # 1e-7 apart, which fault unless near-duplicates are dropped, and
        # an active set whose last weight is 0.  About four seconds.
        _, _, trace = gradient_descent_max(random_game(3, [3, 3, 3], 4, 0),
                                           GdConfig(epsilon=0.05))
        assert trace.outcome == "converged"
        assert len(trace.iterations) == 2493
        assert trace.prox_kelley_faults == 0
        assert trace.prox_unreached == 0
        assert trace.max_prox_tolerance <= trace.prox_tol


class TestTrajectoryPin:
    def test_gd_run_pinned(self):
        # Pins taken from the numpy projection and the full-game inner
        # solve; the kernels that replace them must not move any step.
        _, _, trace = gradient_descent_max(random_game(2, [2, 2], 3, 3),
                                           GdConfig(epsilon=0.05))
        gaps = np.array([r.ne_gap for r in trace.iterations])
        assert len(trace.iterations) == 737
        assert trace.outcome == "converged"
        assert hashlib.sha256(gaps.tobytes()).hexdigest()[:16] \
            == "b5702666d0474153"


class TestPhaseTimes:
    def test_phases_cover_the_run(self):
        # About one second of GD on the pinned game above.
        began = time.perf_counter()
        _, _, trace = gradient_descent_max(random_game(2, [2, 2], 3, 3),
                                           GdConfig(epsilon=0.05))
        wall = time.perf_counter() - began
        phases = trace.summary()["phase_s"]
        assert set(phases) == set(PHASES)
        assert all(v >= 0.0 for v in phases.values())
        assert 0.8 * wall <= sum(phases.values()) <= wall


class TestValidateOnce:
    def test_gradient_descent_max_validates_no_strategy(self, monkeypatch):
        # Wrap MixedProfile.validate, and extend_ne, ne_gap and
        # _validate_mixed_team wherever a teamsolve module binds them; the
        # run must reach none of them.
        calls = []

        def spy(name, real):
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        monkeypatch.setattr(games.MixedProfile, "validate",
                            spy("validate", games.MixedProfile.validate))
        for home, name in ((extension, "extend_ne"), (extension, "ne_gap"),
                           (games, "_validate_mixed_team")):
            real = getattr(home, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("teamsolve")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, spy(name, real))
        game = random_game(2, [2, 2], 2, 4)
        profile, cert, trace = gradient_descent_max(game,
                                                    GdConfig(epsilon=0.1))
        assert trace.outcome == "converged" and len(trace.iterations) == 41
        _, _, exhausted = gradient_descent_max(
            game, GdConfig(epsilon=1e-9, max_iters=12))
        assert exhausted.outcome == "budget_exhausted" and calls == []
        # The wrappers are live at the entry points.
        assert teamsolve.ne_gap(game, profile).gap == cert.gap
        teamsolve.extend_ne(game, profile.team)
        assert calls == ["ne_gap", "validate", "_validate_mixed_team",
                         "extend_ne", "_validate_mixed_team"]
