"""The grid minmax oracle against a full-grid reference, and gd_mm phases.

``minmax_oracle(method="grid")`` screens the product grid and rescores it
in full only on near-ties; either way its choice must be the reference's
first full-grid argmin, bit for bit.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamsolve.two_team as two_team
from teamsolve import GdConfig, TwoTeamGame, extend_ne, gd_mm, minmax_oracle
from teamsolve.dynamics import PHASES
from teamsolve.two_team import _induced, _simplex_grid

from oracles import einsum_contract, reference_grid_argmin, reference_simplex_grid


def _reference(game, y_minus_m, q):
    """Team, value, best response and adversary of the full-grid oracle."""
    induced = _induced(game, y_minus_m)
    tensor = induced.payoff_tensor()
    team = reference_grid_argmin(tensor, q)
    vec = einsum_contract(tensor, (*team, None), (induced.n,))
    b = int(np.argmax(vec))
    return team, float(vec[b]), b, extend_ne(induced, team)


def _assert_matches_reference(game, y_minus_m, q):
    res = minmax_oracle(game, y_minus_m, method="grid", grid_step=1.0 / q)
    team, value, b, adversary = _reference(game, y_minus_m, q)
    assert len(res.team) == len(team)
    for got, want in zip(res.team, team):
        assert got.tobytes() == want.tobytes()
    assert res.value == value
    assert res.best_response == b
    assert res.adversary.tobytes() == adversary.tobytes()
    assert res.bracket[1] == res.value
    assert res.bracket[0] <= res.bracket[1]
    return res


@st.composite
def _oracle_cases(draw):
    """A two-team tensor with 1-3 minimizers, a strategy per co-maximizer
    and a grid resolution; payoffs uniform, rounded to a tenth (ties),
    ignoring minimizer 0, or constant."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    sizes = ([draw(st.integers(2, 3)) for _ in range(n + m - 1)]
             + [draw(st.integers(1, 4))])
    q = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["uniform", "rounded", "ignores", "constant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensor = rng.uniform(-1, 1, size=sizes)
    if kind == "rounded":
        tensor = np.round(tensor, 1)
    elif kind == "ignores":
        tensor = np.broadcast_to(tensor[:1], sizes).copy()
    elif kind == "constant":
        tensor = np.full(sizes, tensor.flat[0])
    y_minus_m = tuple(rng.dirichlet(np.ones(k)) for k in sizes[n:-1])
    return TwoTeamGame(tensor, n=n, m=m), y_minus_m, q


class TestGridOracle:
    @settings(max_examples=120, deadline=None)
    @given(_oracle_cases())
    def test_matches_full_grid_reference(self, case):
        _assert_matches_reference(*case)

    def test_screen_and_fallback_both_taken(self, monkeypatch):
        # The fallback is the only call that contracts stacked grids.
        full_grid = []
        real = two_team.contract

        def spy(table, vectors, keep=()):
            full_grid.append(any(v is not None and v.ndim == 2
                                 for v in vectors))
            return real(table, vectors, keep)

        monkeypatch.setattr(two_team, "contract", spy)
        rng = np.random.default_rng(0)
        game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 3, 2)), n=2, m=1)
        _assert_matches_reference(game, (), 10)
        assert not any(full_grid)
        # A payoff constant in minimizer 0 ties along that player's grid.
        ignores = np.broadcast_to(rng.uniform(-1, 1, size=(1, 3, 2)),
                                  (2, 3, 2)).copy()
        _assert_matches_reference(TwoTeamGame(ignores, n=2, m=1), (), 10)
        assert any(full_grid)

    def test_grid_is_cached_and_read_only(self):
        grid = _simplex_grid(3, 5)
        assert _simplex_grid(3, 5) is grid
        assert not grid.flags.writeable
        before = grid.copy()
        game = TwoTeamGame(np.random.default_rng(1).uniform(
            -1, 1, size=(3, 2)), n=1, m=1)
        res = minmax_oracle(game, (), method="grid", grid_step=0.2)
        assert res.team[0].flags.writeable
        res.team[0][:] = 7.0
        assert np.array_equal(_simplex_grid(3, 5), before)

    @pytest.mark.parametrize("size, qs", [(1, (1, 7, 10**6)),
                                          (2, range(1, 51)),
                                          (3, range(1, 51)),
                                          (4, range(1, 31))])
    def test_grid_matches_point_by_point_reference(self, size, qs):
        for q in qs:
            expected = reference_simplex_grid(size, q)
            got = _simplex_grid(size, q)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            assert got.shape == expected.shape

    def test_three_players_three_actions(self):
        # 66**3 = 287,496 grid points against four adversary actions.
        tensor = np.random.default_rng(2).uniform(-1, 1, size=(3, 3, 3, 4))
        _assert_matches_reference(TwoTeamGame(tensor, n=3, m=1), (), 10)


class TestGdMmPhases:
    def test_phases_cover_a_converging_run(self):
        # The fifth seed-9 draw: its iterate certifies at iteration 11.
        rng = np.random.default_rng(9)
        for _ in range(5):
            tensor = rng.uniform(-1, 1, size=(2, 2, 2, 2))
        game = TwoTeamGame(tensor, n=2, m=2)
        began = time.perf_counter()
        _, _, trace = gd_mm(game, GdConfig(epsilon=0.1))
        wall = time.perf_counter() - began
        assert trace.outcome == "converged"
        assert len(trace.iterations) > 10
        phases = trace.summary()["phase_s"]
        assert tuple(phases) == PHASES
        assert phases["oracle"] > 0.0
        assert phases["prox"] == 0.0
        assert 0.8 * wall <= sum(phases.values()) <= wall

    def test_single_maximizer_has_no_re_extension(self):
        # With one maximizer the oracle's extension completes the profile.
        game = TwoTeamGame(np.array([[3.0, -1.0], [-1.0, 1.0]]), n=1, m=1)
        _, _, trace = gd_mm(game, GdConfig(epsilon=0.05, max_iters=3))
        assert trace.phase_s["extend"] == 0.0
        assert trace.phase_s["oracle"] > 0.0


@pytest.mark.parametrize("q", [1, 2, 50])
def test_two_by_two_matches_reference(q):
    rng = np.random.default_rng(q)
    game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 2, 2, 2)), n=2, m=2)
    _assert_matches_reference(game, (rng.dirichlet(np.ones(2)),), q)
