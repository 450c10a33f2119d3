import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsolve import LinearProgram, solve_lp

from oracles import enumerate_lp_vertices, support_enumeration_zero_sum


def test_single_constraint():
    sol = solve_lp(LinearProgram(np.array([1.0]), A=[[1.0]], b=[3.0]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(3.0, abs=1e-9)


def test_box_corner():
    sol = solve_lp(LinearProgram(np.array([-1.0, -1.0]),
                                 bounds=[(0.0, 1.0), (0.0, 1.0)]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(sol.primal, [1.0, 1.0], atol=1e-9)


def test_infeasible_reported_not_raised():
    lp = LinearProgram(np.array([1.0]), A=[[1.0], [-1.0]], b=[2.0, -1.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_reported_not_raised():
    lp = LinearProgram(np.array([-1.0]), A=[[1.0]], b=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_equality_with_free_variable():
    lp = LinearProgram(np.array([0.0, 1.0]),
                       E=[[1.0, 1.0]], f=[2.0],
                       bounds=[(None, None), (0.0, None)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def random_feasible_lp(rng, n_vars=5, n_cons=8):
    """Random bounded-feasible program built around a known point."""
    A = rng.uniform(-1, 1, size=(n_cons, n_vars))
    interior = rng.uniform(0.2, 0.8, size=n_vars)
    b = A @ interior - rng.uniform(0.1, 1.0, size=n_cons)
    c = rng.uniform(-1, 1, size=n_vars)
    bounds = [(0.0, 1.0)] * n_vars
    return LinearProgram(c, A, b, bounds=bounds)


class TestAgainstVertexEnumeration:
    def test_seeded_random_programs(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            lp = random_feasible_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            oracle_value, _ = enumerate_lp_vertices(
                lp.objective, lp.A, lp.b, lp.E, lp.f, lp.bounds)
            assert sol.value == pytest.approx(oracle_value, abs=1e-7)
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.value))


class TestSolutionQuality:
    def test_feasibility_and_duality_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lp = random_feasible_lp(rng, n_vars=4, n_cons=6)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            residual = np.minimum(lp.A @ sol.primal - lp.b, 0.0)
            assert np.max(np.abs(residual)) <= 1e-8
            # Inequality multipliers of a min problem are nonnegative.
            assert np.min(sol.dual[:lp.A.shape[0]]) >= -1e-9

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(4)
        lp = random_feasible_lp(rng)
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.pivots == second.pivots
        assert np.array_equal(first.primal, second.primal)
        assert first.value == second.value

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        lp = random_feasible_lp(rng)
        base = solve_lp(lp)
        scaled = solve_lp(LinearProgram(3.0 * lp.objective, lp.A, lp.b,
                                        bounds=lp.bounds))
        assert scaled.value == pytest.approx(3.0 * base.value, rel=1e-9)
        assert np.allclose(scaled.primal, base.primal, atol=1e-9)


def minimax_lp(matrix):
    """The row player's program of a zero-sum game ``x^T M y``: minimize
    ``u`` s.t. ``u >= (x^T M)_j`` for every column ``j``, ``x`` a
    distribution.  Variables are ``(u, x)``."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = M.shape
    return LinearProgram(np.r_[1.0, np.zeros(rows)],
                         A=np.hstack([np.ones((cols, 1)), -M.T]),
                         b=np.zeros(cols),
                         E=np.r_[0.0, np.ones(rows)][None, :], f=np.ones(1),
                         bounds=[(None, None)] + [(0.0, None)] * rows)


def zero_sum_solution(matrix):
    """Value, row strategy and column strategy of :func:`minimax_lp`; the
    column player's strategy is the multipliers of the column rows."""
    cols = np.atleast_2d(matrix).shape[1]
    sol = solve_lp(minimax_lp(matrix)).require_optimal()
    return sol.value, sol.primal[1:], sol.dual[:cols]


class TestZeroSum:
    def test_matching_pennies(self):
        value, x, y = zero_sum_solution([[1, -1], [-1, 1]])
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(x, [0.5, 0.5], atol=1e-7)
        assert np.allclose(y, [0.5, 0.5], atol=1e-7)

    def test_constant_game_lowest_index_tie_break(self):
        value, x, y = zero_sum_solution([[2, 2], [2, 2]])
        assert value == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(x, [1.0, 0.0], atol=1e-7)
        assert np.allclose(y, [1.0, 0.0], atol=1e-7)

    def test_seeded_matrices_match_support_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            M = rng.uniform(-1, 1, size=(3, 3))
            value, x, y = zero_sum_solution(M)
            oracle, _, _ = support_enumeration_zero_sum(M)
            assert value == pytest.approx(oracle, abs=1e-7)
            # The returned strategies actually guarantee the value.
            assert np.max(x @ M) <= value + 1e-7
            assert np.min(M @ y) >= value - 1e-7

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 4),
           cols=st.integers(1, 4))
    def test_value_sandwich_property(self, seed, rows, cols):
        M = np.random.default_rng(seed).uniform(-2, 2, size=(rows, cols))
        value, x, y = zero_sum_solution(M)
        # Pure guarantees sandwich the value: the maximizer can secure the
        # best column floor, the minimizer can cap at the best row ceiling.
        assert M.min(axis=0).max() <= value + 1e-7
        assert M.max(axis=1).min() >= value - 1e-7
