"""Warm-started extension LPs: the accept-or-cold rule of ``solve_lp``.

Each sequence is the extension LPs of one game along a short path of
team strategies, as consecutive outer iterations produce them.  Every LP
is solved from the previous LP's final basis and must be certified
optimal and agree with scipy's HiGHS; a basis that is not optimal as it
stands must give exactly the cold solve.
"""

import dataclasses

import numpy as np
import pytest

import teamsolve.extension as extension
import teamsolve.linprog as linprog
from teamsolve import (
    GdConfig,
    LinearProgram,
    TeamGame,
    TwoTeamGame,
    extend_ne,
    extend_ne_multi,
    gd_mm,
    gradient_descent_max,
    random_game,
    solve_lp,
)

from conftest import _seed9_draws, ring_game

STEPS = 12


def _extension_lps(extend, game, path):
    """The LinearPrograms that ``extend(game, *point)`` hands to
    ``solve_lp``, one per point of ``path``."""
    seen = []
    real = extension.solve_lp

    def capture(lp):
        seen.append(lp)
        return real(lp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension, "solve_lp", capture)
        for point in path:
            extend(game, *point)
    return seen


def _path(rng, sizes):
    """``STEPS`` strategy profiles on the segment between two draws."""
    start = [rng.dirichlet(np.ones(k)) for k in sizes]
    end = [rng.dirichlet(np.ones(k)) for k in sizes]
    return [tuple((1 - s) * a + s * b for a, b in zip(start, end))
            for s in np.linspace(0.0, 0.3, STEPS)]


def _dense(seed):
    game = random_game(2, [2, 2], 3, seed)
    path = _path(np.random.default_rng(seed), game.action_sets)
    return _extension_lps(extend_ne, game, [(team,) for team in path])


def _ring(seed):
    rng = np.random.default_rng(seed)
    game = ring_game(rng, 6, 3)
    return _extension_lps(extend_ne, game,
                          [(team,) for team in _path(rng, game.action_sets)])


def _two_team(seed):
    rng = np.random.default_rng(seed)
    game = TwoTeamGame(rng.uniform(-1, 1, size=(2, 2, 2, 2)), n=2, m=2)
    path = _path(rng, (2, 2, 2))
    return _extension_lps(extend_ne_multi, game,
                          [(team[:2], team[2:]) for team in path])


SEQUENCES = {
    **{f"dense_2x2x3_{s}": (lambda s=s: _dense(s)) for s in range(3)},
    **{f"ring_6_{s}": (lambda s=s: _ring(s)) for s in range(3)},
    **{f"two_team_2v2_{s}": (lambda s=s: _two_team(s)) for s in range(3)},
}


def _offered(lp, basis):
    return dataclasses.replace(lp, basis=basis)


def _outcome(sol):
    """Everything a solve returns, as comparable bytes and strings."""
    return (sol.status, sol.pivots, sol.basis, sol.warm,
            None if sol.primal is None else sol.primal.tobytes(),
            None if sol.dual is None else sol.dual.tobytes(),
            float(sol.value).hex(), float(sol.duality_gap).hex())


def _at_basis(lp, basis):
    """The standard-form basic values and reduced costs at ``basis``."""
    A, b, c = linprog._convert(lp, perturb=False)[:3]
    B = A[:, list(basis)]
    y = np.linalg.solve(B.T, c[list(basis)])
    return np.linalg.solve(B, b), c - y @ A


def _highs_value(lp):
    highs = pytest.importorskip("scipy.optimize").linprog
    res = highs(lp.objective, A_ub=-lp.A, b_ub=-lp.b, A_eq=lp.E, b_eq=lp.f,
                bounds=lp.bounds, method="highs")
    assert res.status == 0
    return res.fun


def _assert_certified(lp, sol):
    assert sol.status == "optimal"
    residual = max(float((lp.b - lp.A @ sol.primal).max(initial=0.0)),
                   float(np.abs(lp.E @ sol.primal - lp.f).max(initial=0.0)))
    for v, (lo, hi) in zip(sol.primal, lp.bounds):
        residual = max(residual, 0.0 if lo is None else lo - v,
                       0.0 if hi is None else v - hi)
    assert residual <= linprog.FEAS_TOL
    scale = 1.0 + float(np.abs(lp.objective).max()) + abs(sol.value)
    assert sol.duality_gap <= linprog.GAP_TOL * scale
    assert sol.value == pytest.approx(_highs_value(lp), abs=1e-7)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_warm_sequence_is_certified_and_matches_highs(name):
    lps = SEQUENCES[name]()
    basis = solve_lp(lps[0]).basis
    kept = 0
    for lp in lps[1:]:
        sol = solve_lp(_offered(lp, basis))
        _assert_certified(lp, sol)
        cold = solve_lp(lp)
        assert sol.value == pytest.approx(cold.value, abs=1e-9)
        if sol.warm:
            kept += 1
            assert sol.pivots == () and sol.basis == basis
        else:
            assert _outcome(sol) == _outcome(cold)
        basis = sol.basis
    assert kept > 0


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_own_final_basis_is_kept(name):
    lp = SEQUENCES[name]()[0]
    cold = solve_lp(lp)
    warm = solve_lp(_offered(lp, cold.basis))
    assert warm.warm and warm.pivots == () and warm.basis == cold.basis
    assert np.allclose(warm.primal, cold.primal, rtol=0, atol=1e-12)
    assert warm.value == pytest.approx(cold.value, abs=1e-12)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_unusable_basis_gives_the_cold_solve(name):
    lp = SEQUENCES[name]()[0]
    cold = solve_lp(lp)
    rows = len(cold.basis)
    # The guarantees are free, so columns 0 and 1 are g_1's split pair,
    # negatives of each other: any basis holding both is singular.
    singular = (0, 1) + tuple(j for j in cold.basis if j > 1)[:rows - 2]
    assert len(set(singular)) == rows
    for basis in (cold.basis[:-1], cold.basis + (0,), singular,
                  (cold.basis[0],) * rows, (-1,) + cold.basis[1:],
                  (10 ** 6,) + cold.basis[1:]):
        assert _outcome(solve_lp(_offered(lp, basis))) == _outcome(cold)


def test_infeasible_and_nonoptimal_bases_give_the_cold_solve():
    """Along the sequences, every offered basis that is primal-infeasible
    or has a negative reduced cost is dropped for the cold solve."""
    infeasible = nonoptimal = 0
    for make in SEQUENCES.values():
        lps = make()
        for prev, lp in zip(lps, lps[1:]):
            basis = solve_lp(prev).basis
            x_B, reduced = _at_basis(lp, basis)
            if x_B.min() >= 0.0 and reduced.min() >= -linprog.PIVOT_TOL:
                continue
            infeasible += x_B.min() < 0.0
            nonoptimal += reduced.min() < -linprog.PIVOT_TOL
            assert (_outcome(solve_lp(_offered(lp, basis)))
                    == _outcome(solve_lp(lp)))
    assert infeasible > 0 and nonoptimal > 0


def test_basis_is_a_hint_only():
    lp = LinearProgram(np.array([1.0, 1.0]), A=[[1.0, 2.0], [3.0, 1.0]],
                       b=[2.0, 3.0], bounds=[(0.0, None)] * 2)
    cold = solve_lp(lp)
    assert cold.basis is not None and not cold.warm
    assert _offered(lp, np.array(cold.basis)).basis == cold.basis
    for status, bad in (("infeasible", LinearProgram(
            np.array([1.0]), A=[[1.0], [-1.0]], b=[2.0, -1.0])),
            ("unbounded", LinearProgram(np.array([-1.0]), A=[[1.0]],
                                        b=[0.0]))):
        sol = solve_lp(_offered(bad, (0, 1)))
        assert sol.status == status and sol.basis is None


# -- gd_mm ------------------------------------------------------------------


def test_gd_mm_matches_the_cold_reference(monkeypatch):
    # Pivots of the LPs offered a basis.  Each run's first oracle LP and
    # first re-extension have none to be offered and are cold in both arms.
    offered = []
    real = extension.solve_lp

    def spy(lp):
        sol = real(lp)
        if lp.basis is not None:
            offered.append(len(sol.pivots))
        return sol

    monkeypatch.setattr(extension, "solve_lp", spy)
    config = GdConfig(epsilon=0.1)
    warm = [gd_mm(game, config)[2] for game in _seed9_draws()]
    warm_pivots = sum(offered)
    offered.clear()
    monkeypatch.setattr(linprog, "_solve_warm",
                        lambda lp, converted: None)
    cold = [gd_mm(game, config)[2] for game in _seed9_draws()]
    for w, c in zip(warm, cold):
        assert len(w.iterations) == len(c.iterations)
        assert w.outcome == c.outcome
        assert w.final_ne_gap == pytest.approx(c.final_ne_gap, abs=1e-12)
        assert w.extend_calls == c.extend_calls
        assert c.lp_warm_kept == 0
    assert sum(offered) >= 3 * warm_pivots


def test_gd_mm_converts_each_lp_once_and_audits_no_bound(monkeypatch):
    games = _seed9_draws()
    calls = {"_convert": 0, "solve_lp": 0, "_audit_v_max": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(linprog, "_convert",
                        counted("_convert", linprog._convert))
    monkeypatch.setattr(extension, "solve_lp",
                        counted("solve_lp", extension.solve_lp))
    monkeypatch.setattr(TeamGame, "_audit_v_max",
                        counted("_audit_v_max", TeamGame._audit_v_max))
    traces = [gd_mm(game, GdConfig(epsilon=0.1))[2] for game in games]
    assert sum(t.lp_warm_dropped for t in traces) > 0
    assert (calls["_convert"] == calls["solve_lp"]
            == sum(t.extend_calls for t in traces))
    assert calls["_audit_v_max"] == 0


def test_gd_mm_counts_kept_and_dropped_warm_starts():
    game = _seed9_draws()[2]
    _, _, trace = gd_mm(game, GdConfig(epsilon=0.1))
    # The first oracle LP and the first re-extension have nothing to reuse.
    assert (trace.lp_warm_kept + trace.lp_warm_dropped + 2
            == trace.extend_calls)
    assert trace.lp_warm_kept > 0
    summary = trace.summary()
    assert summary["lp_warm_kept"] == trace.lp_warm_kept
    assert summary["lp_warm_dropped"] == trace.lp_warm_dropped


def test_gradient_descent_max_and_extend_ne_solve_cold(monkeypatch):
    offered = []
    real = extension.solve_lp
    monkeypatch.setattr(extension, "solve_lp",
                        lambda lp: offered.append(lp.basis) or real(lp))
    game = random_game(2, [2, 2], 3, 0)
    _, _, trace = gradient_descent_max(game, GdConfig(epsilon=1e-6,
                                                      max_iters=5))
    extend_ne(game, tuple(np.full(k, 1.0 / k) for k in game.action_sets))
    assert len(offered) == trace.extend_calls + 1
    assert offered == [None] * len(offered)
    assert trace.lp_warm_kept == trace.lp_warm_dropped == 0
