"""Self-contained dense linear programming for the solver's small LPs.

The equilibrium-extension programs have at most a few hundred variables,
so a dense two-phase simplex with Bland's anti-cycling rule is plenty:
vertex solutions keep certificates crisp and the pivot sequence is fully
deterministic.  Interior-point machinery, sparsity and warm starts are
deliberately out of scope.

Conventions: we minimize ``c . v`` subject to ``A v >= b`` (row
multipliers ``>= 0``), ``E v = f`` (free multipliers), and optional box
bounds.  Variables are free unless bounds say otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-8        # primal feasibility residual accepted as optimal
GAP_TOL = 1e-7         # certified duality gap accepted as optimal
PIVOT_TOL = 1e-9       # entries below this never enter a pivot
PERTURBATION = 1e-10   # rhs nudge used by the degenerate-restart fallback


class LpFault(Exception):
    """The solver could not certify a solution on a well-posed program."""


@dataclass(frozen=True)
class LinearProgram:
    """minimize ``objective . v`` s.t. ``A v >= b``, ``E v = f``, bounds.

    ``bounds`` is an optional list with one ``(lower, upper)`` pair per
    variable; ``None`` on either side leaves that side unconstrained.
    """

    objective: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    E: np.ndarray | None = None
    f: np.ndarray | None = None
    bounds: tuple | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        object.__setattr__(self, "objective", c)
        m = c.size
        A = np.zeros((0, m)) if self.A is None else np.atleast_2d(
            np.asarray(self.A, dtype=float))
        b = np.zeros(0) if self.b is None else np.atleast_1d(
            np.asarray(self.b, dtype=float))
        E = np.zeros((0, m)) if self.E is None else np.atleast_2d(
            np.asarray(self.E, dtype=float))
        f = np.zeros(0) if self.f is None else np.atleast_1d(
            np.asarray(self.f, dtype=float))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "f", f)
        if A.shape != (b.size, m) or E.shape != (f.size, m):
            raise ValueError("inconsistent constraint dimensions")
        if self.bounds is not None and len(self.bounds) != m:
            raise ValueError("bounds must have one (lo, hi) pair per variable")
        for arr in (c, A, b, E, f):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficients must be finite")

    @property
    def n_vars(self):
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual optimum with a certified duality gap.

    ``dual`` stacks multipliers for the inequality rows (nonnegative) then
    the equality rows (free), in input order.  ``pivots`` records the
    simplex pivot sequence for determinism audits.
    """

    status: str                      # optimal | infeasible | unbounded
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    value: float = float("nan")
    duality_gap: float = float("nan")
    pivots: tuple = field(default=())

    def require_optimal(self):
        if self.status != "optimal":
            raise LpFault(f"expected an optimal solution, got {self.status}")
        return self


def solve_lp(lp):
    """Solve a :class:`LinearProgram` with a deterministic dense simplex.

    Infeasibility and unboundedness are reported through ``status``, never
    raised.  If a numerically degenerate pivot stalls the tableau, the
    solve restarts once from a deterministically perturbed right-hand side
    (perturbation ``1e-10 * (row + 1)``) and re-certifies against the
    original data.
    """
    try:
        return _solve_converted(lp, perturb=False)
    except _DegeneratePivot:
        pass
    try:
        return _solve_converted(lp, perturb=True)
    except _DegeneratePivot as exc:
        raise LpFault("simplex stalled on degenerate pivots even after "
                      "the perturbed restart") from exc


class _DegeneratePivot(Exception):
    pass


def _convert(lp, perturb):
    """Rewrite into min c.x, Ax = b, x >= 0 via splitting and surplus vars.

    Returns the standard-form data plus bookkeeping to map the solution
    and the row multipliers back to the caller's coordinates.
    """
    m = lp.n_vars
    ineq_rows = [(np.asarray(row, dtype=float), float(rhs))
                 for row, rhs in zip(lp.A, lp.b)]
    # Box bounds become ordinary inequality rows appended after the
    # caller's; their multipliers stay internal.
    n_user_ineq = len(ineq_rows)
    if lp.bounds is not None:
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                row = np.zeros(m)
                row[j] = 1.0
                ineq_rows.append((row, float(lo)))
            if hi is not None:
                row = np.zeros(m)
                row[j] = -1.0
                ineq_rows.append((row, -float(hi)))
    n_ineq = len(ineq_rows)
    n_eq = lp.E.shape[0]
    rows = n_ineq + n_eq
    # Columns: v+ (m), v- (m), surplus (one per inequality).
    cols = 2 * m + n_ineq
    A = np.zeros((rows, cols))
    b = np.zeros(rows)
    for r, (row, rhs) in enumerate(ineq_rows):
        A[r, :m] = row
        A[r, m:2 * m] = -row
        A[r, 2 * m + r] = -1.0
        b[r] = rhs
    for k in range(n_eq):
        r = n_ineq + k
        A[r, :m] = lp.E[k]
        A[r, m:2 * m] = -lp.E[k]
        b[r] = lp.f[k]
    if perturb:
        b = b + PERTURBATION * (1.0 + np.arange(rows))
    c = np.concatenate([lp.objective, -lp.objective, np.zeros(n_ineq)])
    # Flip rows so the phase-1 rhs is nonnegative; remember signs for duals.
    signs = np.where(b < 0.0, -1.0, 1.0)
    A = A * signs[:, None]
    b = b * signs
    return A, b, c, signs, n_user_ineq, n_ineq


def _solve_converted(lp, perturb):
    m = lp.n_vars
    A, b, c, signs, n_user_ineq, n_ineq = _convert(lp, perturb)
    rows, cols = A.shape
    pivots = []

    # Phase 1: artificial basis, minimize the sum of artificials.
    T = np.zeros((rows + 1, cols + rows + 1))
    T[:rows, :cols] = A
    T[:rows, cols:cols + rows] = np.eye(rows)
    T[:rows, -1] = b
    basis = list(range(cols, cols + rows))
    T[-1, :] = -T[:rows, :].sum(axis=0)  # reduced costs of min sum(artificials)
    T[-1, cols:cols + rows] = 0.0
    if _pivot_until_optimal(T, basis, stop_cols=cols, pivots=pivots):
        raise _DegeneratePivot  # phase 1 is bounded; this is numerical
    phase1 = -T[-1, -1]
    if phase1 > FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
        return LpSolution(status="infeasible", pivots=tuple(pivots))
    _drive_out_artificials(T, basis, cols, pivots)

    # Phase 2 on the original objective, artificial columns retired.
    keep = list(range(cols)) + [cols + rows]
    T2 = T[:, keep]
    T2[-1, :] = 0.0
    T2[-1, :cols] = c
    for r, var in enumerate(basis):
        if var < cols and abs(c[var]) > 0.0:
            T2[-1, :] -= c[var] * T2[r, :]
    unbounded = _pivot_until_optimal(T2, basis, stop_cols=cols, pivots=pivots)
    if unbounded:
        return LpSolution(status="unbounded", pivots=tuple(pivots))

    x = np.zeros(cols)
    for r, var in enumerate(basis):
        if var < cols:
            x[var] = T2[r, -1]
    primal = x[:m] - x[m:2 * m]
    value = float(lp.objective @ primal)

    # Row multipliers from the basis: y solves B^T y = c_B.
    B = A[:, [v for v in basis if v < cols]]
    if B.shape[1] != rows:
        raise _DegeneratePivot  # artificial stuck in the basis
    c_b = c[[v for v in basis if v < cols]]
    try:
        y = np.linalg.solve(B.T, c_b)
    except np.linalg.LinAlgError:
        raise _DegeneratePivot from None
    y = y * signs  # undo row flips
    dual_user = np.concatenate([y[:n_user_ineq], y[n_ineq:]])
    # Dual objective includes the internal bound rows.
    b_orig = np.concatenate(
        [np.array([rhs for _, rhs in _iter_ineq(lp)], dtype=float), lp.f])
    dual_value = float(y @ b_orig)
    gap = abs(value - dual_value)

    residual = _feasibility_residual(lp, primal)
    scale = 1.0 + float(np.abs(lp.objective).max(initial=0.0)) + abs(value)
    feas_allow = FEAS_TOL + (PERTURBATION * rows if perturb else 0.0)
    if residual > feas_allow or gap > GAP_TOL * scale:
        if not perturb:
            raise _DegeneratePivot
        raise LpFault(
            f"could not certify optimality: residual={residual:.3g}, "
            f"gap={gap:.3g}")
    return LpSolution(status="optimal", primal=primal, dual=dual_user,
                      value=value, duality_gap=gap, pivots=tuple(pivots))


def _iter_ineq(lp):
    """The inequality system including the internal bound rows."""
    for row, rhs in zip(lp.A, lp.b):
        yield row, float(rhs)
    if lp.bounds is not None:
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                row = np.zeros(lp.n_vars)
                row[j] = 1.0
                yield row, float(lo)
            if hi is not None:
                row = np.zeros(lp.n_vars)
                row[j] = -1.0
                yield row, -float(hi)


def _feasibility_residual(lp, v):
    worst = 0.0
    for row, rhs in _iter_ineq(lp):
        worst = max(worst, rhs - float(row @ v))
    for row, rhs in zip(lp.E, lp.f):
        worst = max(worst, abs(float(row @ v) - rhs))
    return worst


def _pivot_until_optimal(T, basis, stop_cols, pivots):
    """Deterministic pivoting; returns True when unbounded.

    Entering: the lowest-index column with negative reduced cost (Bland).
    Leaving: ratio-test minimizer; among (near-)ties, the numerically
    largest pivot element wins, then the lowest basic-variable index.
    Preferring big pivots keeps heavily degenerate tableaus from blowing
    up; the iteration guard plus the caller's perturbed restart covers
    the residual cycling risk that pure Bland would have excluded.
    """
    rows = T.shape[0] - 1
    guard = 200 * (rows + T.shape[1])
    blowup = 1e12 * max(1.0, float(np.abs(T).max()))
    for _ in range(guard):
        # Scanning Python floats is cheaper than indexing numpy scalars;
        # both are IEEE doubles, so every comparison is exact.
        enter = next((j for j, v in enumerate(T[-1, :stop_cols].tolist())
                      if v < -PIVOT_TOL), -1)
        if enter < 0:
            return False
        col = T[:rows, enter].tolist()
        rhs = T[:rows, -1].tolist()
        col_scale = max([0.0, *col])
        floor = max(PIVOT_TOL, 1e-7 * col_scale)
        best_ratio, leave = None, -1
        for r, a in enumerate(col):
            if a > floor:
                ratio = max(rhs[r], 0.0) / a
                better = (best_ratio is None or ratio < best_ratio - 1e-12)
                tie = (best_ratio is not None
                       and abs(ratio - best_ratio) <= 1e-12
                       and (a > col[leave] + 1e-12
                            or (abs(a - col[leave]) <= 1e-12
                                and basis[r] < basis[leave])))
                if better or tie:
                    best_ratio, leave = ratio, r
        if leave < 0:
            if col_scale > PIVOT_TOL:
                raise _DegeneratePivot  # only unstable pivots available
            return True
        pivots.append((enter, basis[leave]))
        T[leave, :] /= T[leave, enter]
        out = T[:, enter].copy()
        out[leave] = 0.0
        T -= np.outer(out, T[leave, :])
        basis[leave] = enter
        if float(np.abs(T).max()) > blowup:
            raise _DegeneratePivot
    raise _DegeneratePivot


def _drive_out_artificials(T, basis, cols, pivots):
    rows = T.shape[0] - 1
    for r in range(rows):
        if basis[r] < cols:
            continue
        pivot_col = -1
        for j in range(cols):
            if abs(T[r, j]) > PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col < 0:
            # Redundant row: neutralize it so it can never pivot again.
            T[r, :] = 0.0
            continue
        pivots.append((pivot_col, basis[r]))
        T[r, :] /= T[r, pivot_col]
        col = T[:, pivot_col].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r, :])
        basis[r] = pivot_col


def zero_sum_value(payoff_matrix):
    """Minimax value and optimal strategies of a two-player zero-sum game.

    The row player minimizes ``x^T M y`` and the column player maximizes
    it.  Returns ``(value, row_strategy, col_strategy)``.  Among optimal
    strategies, a second lexicographic pass prefers mass on low-index
    actions, so ties resolve deterministically toward the lowest index.
    This is the ``n = 1`` ground-truth oracle for the team solver.
    """
    M = np.atleast_2d(np.asarray(payoff_matrix, dtype=float))
    n_rows, n_cols = M.shape
    # Variables (u, x): minimize u s.t. u >= (x^T M)_j, sum x = 1, x >= 0.
    c = np.zeros(1 + n_rows)
    c[0] = 1.0
    A = np.hstack([np.ones((n_cols, 1)), -M.T])
    b = np.zeros(n_cols)
    E = np.hstack([np.zeros((1, 1)), np.ones((1, n_rows))])
    f = np.ones(1)
    bounds = [(None, None)] + [(0.0, None)] * n_rows
    sol = solve_lp(LinearProgram(c, A, b, E, f, bounds)).require_optimal()
    value = float(sol.value)
    # The true optimum stays feasible for any slack >= 0; this margin only
    # absorbs float noise in the refinement constraints.
    slack = 1e-9 * (1.0 + abs(value))
    # Row refinement: cheapest-index point of the near-optimal face.
    x_lp = LinearProgram(
        np.arange(n_rows, dtype=float),
        A=-M.T, b=np.full(n_cols, -(value + slack)),
        E=np.ones((1, n_rows)), f=np.ones(1),
        bounds=[(0.0, None)] * n_rows)
    x = _tidy_simplex(solve_lp(x_lp).require_optimal().primal)
    # Column refinement: M y >= value on every row keeps y optimal.
    y_lp = LinearProgram(
        np.arange(n_cols, dtype=float),
        A=M, b=np.full(n_rows, value - slack),
        E=np.ones((1, n_cols)), f=np.ones(1),
        bounds=[(0.0, None)] * n_cols)
    y = _tidy_simplex(solve_lp(y_lp).require_optimal().primal)
    return value, x, y


def _tidy_simplex(v):
    v = np.maximum(np.asarray(v, dtype=float), 0.0)
    total = float(v.sum())
    if total <= 0.0:
        return np.full(v.size, 1.0 / v.size)
    return v / total
