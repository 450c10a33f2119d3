"""The small-array kernels of the descent loop against their references.

``games.contract`` must equal one ``np.einsum`` call bitwise, whichever
C entry point it reaches; ``contract_players`` must equal per-player
``contract_game`` calls bitwise; ``project_list`` must equal
``project_simplex`` bitwise; the Python-float inner solve must agree with
the full-game numpy loop to rounding.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teamsolve.dynamics as dynamics
import teamsolve.extension as extension
import teamsolve.games as games
import teamsolve.moreau as moreau
from teamsolve import (
    GdConfig,
    MixedProfile,
    TeamGame,
    extend_ne,
    gradient_descent_max,
    ne_gap,
    two_team_from_dict,
)
from teamsolve._simplex import project_list, project_simplex
from teamsolve.games import (
    LocalBlock,
    analytic_bounds,
    contract,
    contract_game,
    contract_players,
    extension_coefficients,
    fix_adversary,
)
from teamsolve.generators import random_game

from conftest import (
    mixed_ring_game,
    poly_two_team_doc,
    random_profile,
    random_team_game,
    ring_game,
)
from oracles import einsum_contract
from test_dynamics import _projection_inputs
from test_moreau import _inner_min_full_game


def _assert_bitwise(table, vectors, keep):
    got = contract(table, vectors, keep)
    want = einsum_contract(table, vectors, keep)
    assert got.shape == want.shape
    assert np.array_equal(got, want), (table.shape, keep)


def _dense_cases():
    """Dense tables of 1 to 17 axes with a few kept-axis choices each."""
    rng = np.random.default_rng(11)
    for ndim in range(1, 18):
        shape = (tuple(int(k) for k in rng.integers(1, 5, size=ndim))
                 if ndim <= 6 else (2,) * ndim)
        table = rng.uniform(-1, 1, size=shape)
        vectors = [rng.dirichlet(np.ones(k)) for k in shape]
        keeps = {(), (0,), (ndim - 1,), tuple(range(ndim))}
        if ndim >= 3:
            keeps.add((1, ndim - 1))
        for keep in sorted(keeps):
            yield table, vectors, keep


class TestContractMatchesEinsum:
    @pytest.mark.parametrize("case", list(_dense_cases()),
                             ids=lambda c: f"{c[0].ndim}d-keep{c[2]}")
    def test_dense_tables(self, case):
        _assert_bitwise(*case)

    def test_stacked_grids(self):
        # The two-team grid oracle: every player's grid stacked at once,
        # the adversary axis kept.
        rng = np.random.default_rng(12)
        for sizes, b in (((2, 2), 3), ((3, 2), 2), ((2, 2, 2), 4)):
            table = rng.uniform(-1, 1, size=(*sizes, b))
            grids = [rng.dirichlet(np.ones(k), size=int(rng.integers(1, 9)))
                     for k in sizes]
            _assert_bitwise(table, (*grids, None), (len(sizes),))
            # One stacked operand among plain ones.
            mixed = [grids[0]] + [rng.dirichlet(np.ones(k))
                                  for k in sizes[1:]]
            _assert_bitwise(table, (*mixed, rng.dirichlet(np.ones(b))), ())

    def test_pure_adversary_slices(self):
        # ``table[..., b]`` is a strided view, as contract_game passes it.
        rng = np.random.default_rng(13)
        for shape in ((2, 3), (2, 2, 3), (3, 3, 3, 4), (2,) * 12 + (3,)):
            table = rng.uniform(-1, 1, size=shape)
            team = [rng.dirichlet(np.ones(k)) for k in shape[:-1]]
            for b in range(shape[-1]):
                view = table[..., b]
                for keep in ((), (0,), (len(team) - 1,)):
                    _assert_bitwise(view, team, keep)

    def test_polytensor_blocks(self, monkeypatch):
        # Every batched group contraction _sum_blocks issues, with the
        # adversary kept, mixed and pure: table j of each is the einsum of
        # that block's table alone.
        rng = np.random.default_rng(14)
        issued = []
        real = games.contract
        monkeypatch.setattr(games, "contract",
                            lambda *a: issued.append(a) or real(*a))
        for game in (ring_game(rng, 12, 3), mixed_ring_game(rng, 6, 3)):
            team, adversary = random_profile(rng, game)
            n = game.n
            for adv, keeps in ((None, ((n,), (0, n), (2, n))),
                               (adversary, ((), (0,), (1,), (0, 2))),
                               (1, ((), (0,), (2,)))):
                for keep in keeps:
                    contract_game(game, team, adv, keep)
        assert len(issued) > 20 and all(a[3] for a in issued)
        for table, vectors, keep, _ in issued:
            got = contract(table, vectors, keep, True)
            for j in range(len(table)):
                own = [v if v is None or v.ndim == 1 else v[j]
                       for v in vectors]
                assert np.array_equal(got[j],
                                      einsum_contract(table[j], own, keep))

    def test_too_many_labels_is_a_value_error(self):
        table = np.zeros((1,) * 30)
        vectors = [np.ones((1, 1))] * 30
        with pytest.raises(ValueError, match="valid range"):
            einsum_contract(table, vectors, ())
        with pytest.raises(ValueError, match="valid range"):
            contract(table, vectors, ())


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _assert_players_match(game, team, y, players=None):
    """``contract_players`` against per-player ``contract_game`` for a
    mixed, a pure and a kept adversary, and ``contract_players`` against
    ``contract_game`` on the game fixed at ``y``."""
    players = range(game.n) if players is None else players
    b = game.adversary_actions - 1
    for adversary, keep_adversary in ((y, False), (b, False), (None, True)):
        extra = (game.n,) if keep_adversary else ()
        got = contract_players(game, team, adversary, keep_adversary,
                               players)
        assert len(got) == len(players)
        for i, vec in zip(players, got):
            _assert_same_bytes(
                vec, contract_game(game, team, adversary, (i,) + extra))
    payoff = fix_adversary(game, y)
    got = contract_players(payoff, team, 0, players=players)
    for i, vec in zip(players, got):
        _assert_same_bytes(vec, contract_game(payoff, team, 0, (i,)))


def _adversary_only_game(rng):
    """Blocks with no team player (fixed to a constant block by
    ``fix_adversary``), one-player blocks and a block missing player 3."""
    blocks = [LocalBlock((), True, rng.uniform(-1, 1, size=3)),
              LocalBlock((0, 2), False, rng.uniform(-1, 1, size=(2, 3))),
              LocalBlock((1,), True, rng.uniform(-1, 1, size=(2, 3))),
              LocalBlock((), True, rng.uniform(-1, 1, size=3)),
              LocalBlock((3,), False, rng.uniform(-1, 1, size=2))]
    return TeamGame.polytensor([2, 2, 3, 2], 3, blocks)


@st.composite
def _block_layouts(draw):
    """A polytensor game with 1-6 players and 1-8 random blocks."""
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    b = draw(st.integers(1, 3))
    specs = draw(st.lists(
        st.tuples(st.sets(st.integers(0, n - 1), max_size=3), st.booleans()),
        min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for players, with_adversary in specs:
        players = tuple(sorted(players))
        with_adversary = with_adversary or not players
        shape = tuple(sizes[p] for p in players) + ((b,) * with_adversary)
        blocks.append(LocalBlock(players, with_adversary,
                                 rng.uniform(-1, 1, size=shape)))
    game = TeamGame.polytensor(sizes, b, blocks)
    players = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return game, rng, players


class TestContractPlayers:
    """One block-order pass equals per-player contractions bitwise."""

    def test_rings(self):
        rng = np.random.default_rng(20)
        for game in (ring_game(rng, 12, 3), mixed_ring_game(rng, 6, 3),
                     ring_game(rng, 3, 2)):
            for _ in range(5):
                _assert_players_match(game, *random_profile(rng, game))

    def test_adversary_only_and_constant_blocks(self):
        rng = np.random.default_rng(21)
        game = _adversary_only_game(rng)
        payoff = fix_adversary(game, rng.dirichlet(np.ones(3)))
        assert payoff._blocks[0].table.ndim == 0  # a constant block
        for _ in range(5):
            _assert_players_match(game, *random_profile(rng, game))

    def test_two_team_joint_game(self):
        rng = np.random.default_rng(22)
        game = two_team_from_dict(poly_two_team_doc(rng)).joint
        for _ in range(5):
            team, y = random_profile(rng, game)
            _assert_players_match(game, team, y)
            _assert_players_match(game, team, y, players=[2])

    def test_dense_games(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            game = random_team_game(rng, max_players=4)
            _assert_players_match(game, *random_profile(rng, game))

    @settings(max_examples=150, deadline=None)
    @given(_block_layouts())
    def test_random_block_layouts(self, drawn):
        game, rng, players = drawn
        team, y = random_profile(rng, game)
        _assert_players_match(game, team, y)
        _assert_players_match(game, team, y, players)

    def test_certificate_calls_on_a_ring(self, monkeypatch):
        # One block group.  extend_ne makes its no-team-axis term and one
        # term per position; ne_gap contracts the adversary vector, then
        # the same three terms at the extension's mixture.
        rng = np.random.default_rng(25)
        game = ring_game(rng, 12, 3)
        calls = []
        real = games._c_einsum
        monkeypatch.setattr(games, "_c_einsum",
                            lambda *a: calls.append(1) or real(*a))
        team = random_profile(rng, game)[0]
        y = extend_ne(game, team)
        assert len(calls) == 3
        calls.clear()
        ne_gap(game, MixedProfile(team, y))
        assert len(calls) == 4

    def test_dense_calls_are_per_player(self, monkeypatch):
        rng = np.random.default_rng(26)
        game = random_team_game(rng, max_players=3)
        team, y = random_profile(rng, game)
        calls = []
        real = games.contract
        monkeypatch.setattr(games, "contract",
                            lambda *a: calls.append(a[2]) or real(*a))
        contract_players(game, team, y)
        assert calls == [(i,) for i in range(game.n)]


class TestExtensionCoefficients:
    """The extension LP's coefficients and adversary vector in one pass
    equal ``contract_players`` and ``contract_game`` bitwise."""

    @staticmethod
    def _assert_matches(game, team):
        coeffs, values = extension_coefficients(game, team)
        want = contract_players(game, team, None, keep_adversary=True)
        assert len(coeffs) == len(want)
        for got, vec in zip(coeffs, want):
            _assert_same_bytes(got, vec)
        _assert_same_bytes(values,
                           contract_game(game, team, None, (game.n,)))

    def test_rings_and_dense_games(self):
        rng = np.random.default_rng(27)
        for game in (ring_game(rng, 12, 3), mixed_ring_game(rng, 6, 3),
                     ring_game(rng, 2, 2), _adversary_only_game(rng),
                     random_team_game(rng, max_players=4)):
            for _ in range(20):
                self._assert_matches(game, random_profile(rng, game)[0])

    @settings(max_examples=150, deadline=None)
    @given(_block_layouts())
    def test_random_block_layouts(self, drawn):
        game, rng, _ = drawn
        self._assert_matches(game, random_profile(rng, game)[0])


class TestCEinsumImportGuard:
    def test_finds_the_c_entry_point(self):
        assert games._find_c_einsum() is not np.einsum

    def test_fallback_to_np_einsum_is_bitwise_equal(self, monkeypatch):
        for name in ("numpy._core.multiarray", "numpy.core.multiarray"):
            monkeypatch.setitem(sys.modules, name, None)
        fallback = games._find_c_einsum()
        assert fallback is np.einsum
        cases = list(_dense_cases())[::3]
        direct = [contract(*case) for case in cases]
        monkeypatch.setattr(games, "_c_einsum", fallback)
        for case, want in zip(cases, direct):
            got = contract(*case)
            assert np.array_equal(got, want)
            assert np.array_equal(got, einsum_contract(*case))


class TestProjectList:
    def test_bitwise_equal_to_project_simplex(self):
        for v in _projection_inputs():
            got = project_list(v.tolist())
            assert isinstance(got, list)
            assert got == project_simplex(v).tolist(), v

    @pytest.mark.parametrize("vals, message", [
        ([], "nonempty"), ([float("nan"), 1.0], "finite"),
        ([1e17] * 3, "too large")])
    def test_errors(self, vals, message):
        with pytest.raises(ValueError, match=message):
            project_list(vals)


class TestInnerMinPythonFloats:
    """The list-based inner solve against the test-local numpy loop."""

    @staticmethod
    def games():
        rng = np.random.default_rng(15)
        return [TeamGame.dense(rng.uniform(-1, 1, size=(3, 4))),
                TeamGame.dense(rng.uniform(-1, 1, size=(3, 3, 3, 4))),
                ring_game(rng, 12, 3)]

    @pytest.mark.parametrize("inner_tol", [1e-9, moreau._POLISH_TOL])
    def test_agrees_with_full_game_loop(self, inner_tol):
        rng = np.random.default_rng(16)
        for game in self.games():
            ell = analytic_bounds(game).smoothness
            for _ in range(3):
                center, y = random_profile(rng, game)
                z0 = tuple(rng.dirichlet(np.ones(k))
                           for k in game.action_sets)
                z, f_z, lb, _ = moreau._inner_solve(game, center, ell, y,
                                                    z0, inner_tol)
                z_ref, f_ref, lb_ref = _inner_min_full_game(
                    game, center, ell, y, z0, inner_tol)
                assert lb <= f_z
                assert max(float(np.max(np.abs(a - b)))
                           for a, b in zip(z, z_ref)) <= 1e-12
                assert abs(f_z - f_ref) <= 1e-12
                assert abs(lb - lb_ref) <= 1e-12

    def test_returns_squared_distance_of_its_point(self):
        rng = np.random.default_rng(17)
        for game in self.games():
            ell = analytic_bounds(game).smoothness
            center, y = random_profile(rng, game)
            z, _, _, dist2 = moreau._inner_solve(
                game, center, ell, y, center, 1e-12)
            assert abs(dist2 - moreau._dist2(z, center)) <= 1e-15


def _pinned_run():
    # The run TestTrajectoryPin pins in test_dynamics.py.
    return gradient_descent_max(random_game(2, [2, 2], 3, 3),
                                GdConfig(epsilon=0.05))


class TestAdversaryVectorOnce:
    def test_one_adversary_vector_per_iterate(self, monkeypatch):
        # The first iterate's vector, then one per extension LP: the
        # certificate and the best reply reuse the extension's.
        calls = []
        real = games.contract_game

        def counted(game, team, adversary, keep):
            if keep == (game.n,):
                calls.append(1)
            return real(game, team, adversary, keep)

        for module in (games, extension, dynamics):
            monkeypatch.setattr(module, "contract_game", counted)
        _, _, trace = gradient_descent_max(
            random_game(2, [2, 2], 3, 3),
            GdConfig(epsilon=1e-6, max_iters=5))
        assert len(trace.iterations) == 5
        # Five loop extensions plus the t = 0 prox candidate's.
        assert trace.extend_calls == 6
        assert len(calls) == 1 + trace.extend_calls


class TestInnerSolveCounter:
    def test_trace_counts_every_inner_solve(self, monkeypatch):
        calls = []
        solve = moreau._inner_solve

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(moreau, "_inner_solve", counted)
        # The pinned game with a step large enough to be backed off.
        _, _, trace = gradient_descent_max(
            random_game(2, [2, 2], 3, 3), GdConfig(epsilon=0.05, eta=1.0))
        assert trace.eta_backoffs > 0  # backed-off prox calls count too
        assert trace.prox_inner_solves == len(calls) > 0
        assert trace.summary()["prox_inner_solves"] == len(calls)

    def test_result_counts_its_own_call(self, monkeypatch):
        calls = []
        solve = moreau._inner_solve
        monkeypatch.setattr(moreau, "_inner_solve",
                            lambda *a: calls.append(1) or solve(*a))
        game = random_game(2, [2, 2], 3, 3)
        res = moreau.proximal_point(game, ([0.3, 0.7], [0.6, 0.4]),
                                    ell=analytic_bounds(game).smoothness,
                                    tol=1e-8)
        assert res.inner_solves == len(calls) > 0


class TestWarmProbeReuse:
    @staticmethod
    def _newton_probes(probed_y):
        """Mixtures Newton probes when it starts at the uniform mixture
        over all three actions and is handed the probe of ``probed_y``."""
        game = random_game(2, [2, 2], 3, 3)
        center = tuple(np.full(k, 1.0 / k) for k in game.action_sets)
        start = np.full(3, 1.0 / 3.0)
        cert = moreau._DualCertifier(game, center,
                                     analytic_bounds(game).smoothness,
                                     center, start, memory=None)
        vec = cert.probe(probed_y, moreau._POLISH_TOL)
        cert.best_y = start  # Newton starts from best_y
        seen = []
        probe = cert.probe
        cert.probe = lambda y, tol: seen.append(y.copy()) or probe(y, tol)
        # A negative tolerance is never certified, so Newton keeps going.
        cert._newton([0, 1, 2], -1.0, math.inf, probed=(probed_y, vec))
        return start, seen

    def test_matching_probe_is_not_solved_again(self):
        start, seen = self._newton_probes(np.full(3, 1.0 / 3.0))
        assert seen and not any(np.array_equal(y, start) for y in seen)

    def test_other_mixture_is_solved_at_the_start(self):
        start, seen = self._newton_probes(np.array([0.4, 0.3, 0.3]))
        assert np.array_equal(seen[0], start)

    def test_reuse_saves_solves_without_moving_the_run(self, monkeypatch):
        _, _, reused = _pinned_run()
        newton = moreau._DualCertifier._newton

        def without_reuse(self, *args, probed=None, **kwargs):
            return newton(self, *args, **kwargs)

        monkeypatch.setattr(moreau._DualCertifier, "_newton", without_reuse)
        _, _, fresh = _pinned_run()
        assert [r.ne_gap for r in reused.iterations] \
            == [r.ne_gap for r in fresh.iterations]
        assert reused.eta_backoffs == fresh.eta_backoffs
        assert reused.prox_inner_solves < fresh.prox_inner_solves
