"""Two-team games run on one single-adversary joint game.

The joint game's team is the minimizers followed by the co-maximizers and
its adversary is the last maximizer; it may be polytensor.  These tests
check polytensor two-team payoffs against dense copies and brute force,
and the validation at the two-team entry points.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import teamsolve.two_team as two_team
from teamsolve import (
    GdConfig,
    TwoTeamGame,
    TwoTeamProfile,
    extend_ne_multi,
    gd_mm,
    ne_gap_two_team,
    two_team_from_dict,
)
from teamsolve.games import DimensionMismatchError
from teamsolve.two_team import induced_single_adversary_game

from conftest import poly_two_team_doc
from oracles import two_team_deviation_gaps

# A draw of poly_two_team_doc on which gd_mm converges at epsilon 0.1.
CONVERGING_SEED = 3


def load(seed=CONVERGING_SEED):
    doc = json.loads(json.dumps(poly_two_team_doc(
        np.random.default_rng(seed))))
    return doc, two_team_from_dict(doc)


def dense_copy(game):
    # v_max sets gd_mm's step size, so the copy keeps the loose polytensor
    # bound instead of recomputing it from the tensor.
    return TwoTeamGame(game.tensor, game.n, game.m, v_max=game.v_max)


def exact_tensor(doc):
    """The payoff tensor summed block by block from the document's exact
    rationals, in the two-team axis order (minimizers, then maximizers).
    """
    sizes = doc["actions"] + doc["adversary_actions"]
    tensor = np.zeros(sizes)
    for idx in itertools.product(*(range(k) for k in sizes)):
        total = Fraction(0)
        for block in doc["payoff"]["locals"]:
            key = [idx[p] for p in block["players"]]
            if block["includes_adversary"]:
                key.append(idx[-1])
            for entry_idx, num, den in block["entries"]:
                if entry_idx == key:
                    total += Fraction(num, den)
        tensor[idx] = float(total)
    return tensor


class TestPolytensorTwoTeam:
    def test_loads_as_a_polytensor_joint_game(self):
        doc, game = load()
        assert game.joint.representation == "polytensor"
        assert game.joint.document is None and game.document == doc
        assert (game.n, game.m) == (2, 2)
        assert game.minimizer_actions == game.maximizer_actions == (2, 2)
        exact = exact_tensor(doc)
        assert np.allclose(game.tensor, exact, rtol=0, atol=1e-12)
        for idx in np.ndindex(*exact.shape):
            assert game.payoff(idx[:2], idx[2:]) == pytest.approx(
                exact[idx], abs=1e-12)

    def test_certificate_and_extension_match_the_dense_copy(self):
        _, game = load()
        dense = dense_copy(game)
        rng = np.random.default_rng(0)
        for _ in range(5):
            xs = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
            ys = tuple(rng.dirichlet(np.ones(2)) for _ in range(2))
            poly_cert = ne_gap_two_team(game, TwoTeamProfile(xs, ys))
            dense_cert = ne_gap_two_team(dense, TwoTeamProfile(xs, ys))
            assert poly_cert.gap_team == pytest.approx(dense_cert.gap_team,
                                                       abs=1e-12)
            assert poly_cert.gap_adversary == pytest.approx(
                dense_cert.gap_adversary, abs=1e-12)
            assert np.allclose(extend_ne_multi(game, xs, ys[:1]),
                               extend_ne_multi(dense, xs, ys[:1]),
                               rtol=0, atol=1e-12)

    def test_gd_mm_matches_the_dense_copy_and_is_certified(self):
        doc, game = load()
        profile, cert, trace = gd_mm(game, GdConfig(epsilon=0.1),
                                     oracle_method="grid")
        _, _, dense_trace = gd_mm(dense_copy(game), GdConfig(epsilon=0.1),
                                  oracle_method="grid")
        assert trace.outcome == dense_trace.outcome == "converged"
        assert len(trace.iterations) == len(dense_trace.iterations)
        assert np.allclose([r.ne_gap for r in trace.iterations],
                           [r.ne_gap for r in dense_trace.iterations],
                           rtol=0, atol=1e-12)
        o_min, o_max = two_team_deviation_gaps(
            exact_tensor(doc), game.n, profile.minimizers,
            profile.maximizers)
        assert cert.gap_team == pytest.approx(o_min, abs=1e-9)
        assert cert.gap_adversary == pytest.approx(o_max, abs=1e-9)
        assert max(o_min, o_max) <= 0.1 + 1e-9


class TestEntryPointValidation:
    # One minimizer, a co-maximizer and the last maximizer.
    GAME = TwoTeamGame(np.arange(8.0).reshape(2, 2, 2), n=1, m=2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_extend_ne_multi_rejects_a_minimizer_off_the_simplex(self, m):
        game = self.GAME if m == 2 else TwoTeamGame(np.eye(2), n=1, m=1)
        y_minus_m = ([0.5, 0.5],) * (m - 1)
        with pytest.raises(DimensionMismatchError,
                           match="minimizer 0: negative") as err:
            extend_ne_multi(game, ([1.5, -0.5],), y_minus_m)
        assert err.value.player == 0

    def test_extend_ne_multi_rejects_a_co_maximizer_off_the_simplex(self):
        with pytest.raises(DimensionMismatchError,
                           match="maximizer 0: probabilities sum") as err:
            extend_ne_multi(self.GAME, ([0.5, 0.5],), ([0.5, 0.4],))
        assert err.value.player == 1

    def test_extend_ne_multi_rejects_wrong_counts(self):
        with pytest.raises(DimensionMismatchError, match="minimizer vectors"):
            extend_ne_multi(self.GAME, ([0.5, 0.5],) * 2, ())
        with pytest.raises(DimensionMismatchError, match="maximizer vectors"):
            extend_ne_multi(self.GAME, ([0.5, 0.5],), ())

    def test_induced_game_rejects_a_co_maximizer_off_the_simplex(self):
        with pytest.raises(DimensionMismatchError,
                           match="maximizer 0: negative") as err:
            induced_single_adversary_game(self.GAME, ([1.5, -0.5],))
        assert err.value.player == 1

    def test_gd_mm_validates_no_strategy(self, monkeypatch):
        calls = []
        real = two_team._check_strategy
        monkeypatch.setattr(two_team, "_check_strategy",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        game = TwoTeamGame(
            np.random.default_rng(23).uniform(-1, 1, size=(2, 2, 2, 2)),
            n=2, m=2)
        profile, _, trace = gd_mm(game, GdConfig(epsilon=1e-9, max_iters=2))
        assert len(trace.iterations) == 2 and calls == []
        ne_gap_two_team(game, profile)
        assert len(calls) == 4  # the wrapper is live at the entry points
