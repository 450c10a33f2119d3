"""Warm-started extension LPs: the keep-repair-or-cold rule of ``solve_lp``.

Each sequence is the extension LPs of one game along a short path of
team strategies, as consecutive outer iterations produce them.  Every LP
is solved from the previous LP's final basis and must be certified
optimal and agree with scipy's HiGHS and with the cold solve's value.  A
basis that is optimal as it stands is kept at no pivots, one that is
primal or dual feasible is repaired by pivots from it, and any other
must give exactly the cold solve.
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
from oracles import enumerate_lp_vertices
from test_linprog import minimax_lp

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


def _feasibility(lp, basis):
    """Whether ``basis`` is primal and whether it is dual feasible for
    ``lp``, by the solver's own tests."""
    x_B, reduced = _at_basis(lp, basis)
    return x_B.min() >= 0.0, reduced.min() >= -linprog.PIVOT_TOL


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
        primal, dual = _feasibility(lp, basis)
        if not sol.warm:
            assert _outcome(sol) == _outcome(cold)
        elif sol.pivots:
            assert primal != dual  # repaired from exactly one side
        else:
            kept += 1
            assert primal and dual and sol.basis == basis
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


def _offers():
    """``(lp, basis)`` pairs: each LP of a sequence after the first,
    offered the previous LP's final basis and that of the same step of
    the next seed's sequence of the same shape, a basis from further
    away."""
    sequences = {name: make() for name, make in SEQUENCES.items()}
    for name, lps in sequences.items():
        kind, seed = name.rsplit("_", 1)
        sibling = sequences[f"{kind}_{(int(seed) + 1) % 3}"]
        for k in range(1, len(lps)):
            yield lps[k], solve_lp(lps[k - 1]).basis
            yield lps[k], solve_lp(sibling[k]).basis


def test_infeasible_and_nonoptimal_bases_are_repaired_or_solved_cold():
    """An offered basis that is dual but not primal feasible, or primal
    feasible with a negative reduced cost, is repaired: pivots from it
    reach a certified optimum that agrees with HiGHS and with the cold
    solve's value.  A basis that is neither gives exactly the cold
    solve."""
    repaired = {"dual": 0, "primal": 0}
    neither = 0
    for lp, basis in _offers():
        primal, dual = _feasibility(lp, basis)
        if primal and dual:
            continue
        sol = solve_lp(_offered(lp, basis))
        cold = solve_lp(lp)
        if primal or dual:
            assert sol.warm and sol.pivots
            repaired["dual" if dual else "primal"] += 1
            _assert_certified(lp, sol)
            assert sol.value == pytest.approx(cold.value, abs=1e-9)
        else:
            neither += 1
            assert _outcome(sol) == _outcome(cold)
    assert repaired["dual"] > 0 and repaired["primal"] > 0 and neither > 0


def test_degenerate_repairs_match_highs_and_vertex_enumeration():
    """Zero-sum games with payoffs in {-1, 0, 1} give degenerate minimax
    programs.  Each is offered the final basis of another draw; every
    repair must end certified at an optimal vertex, by HiGHS and by
    vertex enumeration, although it may be another vertex than the cold
    solve's."""
    rng = np.random.default_rng(0)
    repaired = degenerate = 0
    for _ in range(40):
        source, lp = (minimax_lp(rng.integers(-1, 2, size=(3, 4))
                                 .astype(float)) for _ in range(2))
        sol = solve_lp(_offered(lp, solve_lp(source).basis))
        if not (sol.warm and sol.pivots):
            continue
        repaired += 1
        _assert_certified(lp, sol)
        best, _ = enumerate_lp_vertices(lp.objective, lp.A, lp.b, lp.E, lp.f,
                                        lp.bounds)
        assert sol.value == pytest.approx(best, abs=1e-9)
        x_B, _ = _at_basis(lp, sol.basis)
        degenerate += bool((np.abs(x_B) <= 1e-12).any())
    assert repaired >= 15 and degenerate >= 10


def test_tripped_guard_falls_back_to_the_cold_solve(monkeypatch):
    """With a pivot budget of one, every dual simplex repair trips its
    guard after the first pivot, and the solve is then exactly cold."""
    real_dual, real_guarded = (linprog._dual_pivot_until_feasible,
                               linprog._guarded)
    trips = []

    def one_pivot(T, basis, stop_cols, pivots):
        monkeypatch.setattr(linprog, "_guarded",
                            lambda T: (1, real_guarded(T)[1]))
        try:
            return real_dual(T, basis, stop_cols, pivots)
        except linprog._DegeneratePivot:
            trips.append(len(pivots))
            raise
        finally:
            monkeypatch.setattr(linprog, "_guarded", real_guarded)

    monkeypatch.setattr(linprog, "_dual_pivot_until_feasible", one_pivot)
    for lp, basis in _offers():
        primal, dual = _feasibility(lp, basis)
        if primal or not dual:
            continue
        sol = solve_lp(_offered(lp, basis))
        assert not sol.warm
        assert _outcome(sol) == _outcome(solve_lp(lp))
    assert trips and set(trips) == {1}


def test_singular_basis_gives_the_cold_solve():
    """A basis whose third column is a float-rounded mix of the first
    two: exactly singular for the factorization on some draws, and on
    others a near-singular basis with values around 1e16.  Either way
    the solve is exactly cold."""
    kinds = {"exact": 0, "rounded": 0}
    for seed in range(12):
        rows = np.random.default_rng(seed).uniform(-1, 1, size=(2, 4))
        lp = minimax_lp(np.vstack([rows, 0.3 * rows[0] + 0.7 * rows[1]]))
        # Columns: u+ and u- (0, 1), x (2-4), surplus (5-8).
        basis = (2, 3, 4, 7, 8)
        try:
            _at_basis(lp, basis)
            kinds["rounded"] += 1
        except np.linalg.LinAlgError:
            kinds["exact"] += 1
        sol = solve_lp(_offered(lp, basis))
        assert not sol.warm
        assert _outcome(sol) == _outcome(solve_lp(lp))
    assert kinds["exact"] > 0 and kinds["rounded"] > 0


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
        assert c.lp_warm_kept == c.lp_warm_repaired == 0
    assert sum(offered) >= 4.5 * warm_pivots


def test_gd_mm_converts_once_per_shape_and_audits_no_bound(monkeypatch):
    """Each extension LP's standard form is written from its shape's
    template, which ``_convert`` builds once; a dropped warm start does
    not convert its program again."""
    games = _seed9_draws()
    calls = {"_convert": 0, "program": 0, "solve_lp": 0, "_audit_v_max": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    extension._guarantee_template.cache_clear()
    monkeypatch.setattr(linprog, "_convert",
                        counted("_convert", linprog._convert))
    monkeypatch.setattr(linprog._Template, "program",
                        counted("program", linprog._Template.program))
    monkeypatch.setattr(extension, "solve_lp",
                        counted("solve_lp", extension.solve_lp))
    monkeypatch.setattr(TeamGame, "_audit_v_max",
                        counted("_audit_v_max", TeamGame._audit_v_max))
    traces = [gd_mm(game, GdConfig(epsilon=0.1))[2] for game in games]
    assert sum(t.lp_warm_dropped for t in traces) > 0
    assert (calls["program"] == calls["solve_lp"]
            == sum(t.extend_calls for t in traces))
    shapes = extension._guarantee_template.cache_info()
    assert calls["_convert"] == shapes.misses == shapes.currsize
    assert calls["_convert"] < calls["solve_lp"] / 10
    assert calls["_audit_v_max"] == 0


def test_gd_mm_counts_kept_and_dropped_warm_starts():
    game = _seed9_draws()[2]
    _, _, trace = gd_mm(game, GdConfig(epsilon=0.1))
    # The first oracle LP and the first re-extension have nothing to reuse.
    assert (trace.lp_warm_kept + trace.lp_warm_repaired
            + trace.lp_warm_dropped + 2 == trace.extend_calls)
    assert trace.lp_warm_kept > 0 and trace.lp_warm_repaired > 0
    summary = trace.summary()
    for key in ("lp_warm_kept", "lp_warm_repaired", "lp_warm_dropped"):
        assert summary[key] == getattr(trace, key)


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
