"""Self-contained dense linear programming for the solver's small LPs.

The equilibrium-extension programs have at most a few hundred variables,
so a dense two-phase simplex with Bland's anti-cycling rule is plenty:
vertex solutions keep certificates crisp and the pivot sequence is fully
deterministic.  Interior-point machinery, sparsity and warm starts are
deliberately out of scope.

Conventions: we minimize ``c . v`` subject to ``A v >= b`` (row
multipliers ``>= 0``), ``E v = f`` (free multipliers), and optional box
bounds.  Variables are free unless bounds say otherwise.

Standard form keeps one nonnegative column per sign-constrained variable
and splits only free ones; bounds become shifts, and only a box adds a
row.  Inequality rows with right-hand side ``<= 0`` start on their
surplus column, so artificials (and phase 1) cover only the other rows.
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
    """Rewrite into min c.x + const, A x = b, x >= 0 with a starting basis.

    Each variable becomes one nonnegative column: ``v = lo + x`` under a
    lower bound, ``v = hi - x`` under an upper bound only, and two adjacent
    columns ``x+ - x-`` when free.  A variable bounded on both sides adds
    the row ``x <= hi - lo``.  Every inequality row gets a surplus column;
    a row whose right-hand side is ``<= 0`` is negated so that column
    starts the basis.  The other rows, equalities included, are returned
    in ``art``: they start on artificials.

    Returns the standard-form data plus the bookkeeping that maps the
    solution and the row multipliers back to the caller's coordinates.
    """
    m = lp.n_vars
    lo, hi = _bound_arrays(lp)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)
    shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    free = np.flatnonzero(~has_lo & ~has_hi)
    box = np.flatnonzero(has_lo & has_hi)
    # v = shift + D x; a free variable's x- column sits right after x+.
    pos = np.arange(m) + np.searchsorted(free, np.arange(m))
    D = np.zeros((m, m + free.size))
    D[np.arange(m), pos] = sign
    D[free, pos[free] + 1] = -1.0
    n_x = D.shape[1]

    n_ineq = lp.A.shape[0] + box.size
    rhs = np.concatenate([lp.b - lp.A @ shift, lo[box] - hi[box],
                          lp.f - lp.E @ shift])
    rows, cols = rhs.size, n_x + n_ineq
    A = np.zeros((rows, cols))
    A[:lp.A.shape[0], :n_x] = lp.A @ D
    A[lp.A.shape[0] + np.arange(box.size), pos[box]] = -1.0
    A[n_ineq:, :n_x] = lp.E @ D
    A[:n_ineq, n_x:] = -np.eye(n_ineq)
    slack = (np.arange(rows) < n_ineq) & (rhs <= 0.0)
    signs = np.where(slack | (rhs < 0.0), -1.0, 1.0)
    A *= signs[:, None]
    b = rhs * signs
    if perturb:
        b = b + PERTURBATION * (1.0 + np.arange(rows))
    c = np.concatenate([lp.objective @ D, np.zeros(n_ineq)])
    return (A, b, c, float(lp.objective @ shift), rhs, signs,
            np.flatnonzero(~slack), lambda x: shift + D @ x[:n_x])


def _bound_arrays(lp):
    """Per-variable bounds as arrays, with +-inf for a missing side."""
    pairs = lp.bounds or [(None, None)] * lp.n_vars
    lo = np.array([-np.inf if l is None else l for l, _ in pairs], dtype=float)
    hi = np.array([np.inf if h is None else h for _, h in pairs], dtype=float)
    return lo, hi


def _solve_converted(lp, perturb):
    A, b, c, const, rhs, signs, art, primal_of = _convert(lp, perturb)
    rows, cols = A.shape
    n_user_ineq, n_ineq = lp.A.shape[0], rows - lp.E.shape[0]
    pivots = []

    # Phase 1: surplus columns start the basis of the negated rows and
    # artificials that of the rest; minimize the sum of artificials.
    T = np.zeros((rows + 1, cols + art.size + 1))
    T[:rows, :cols] = A
    T[art, cols + np.arange(art.size)] = 1.0
    T[:rows, -1] = b
    basis = [cols - n_ineq + r for r in range(rows)]
    for k, r in enumerate(art.tolist()):
        basis[r] = cols + k
    if art.size:
        T[-1, :] = -T[art, :].sum(axis=0)  # min sum(artificials)
        T[-1, cols:cols + art.size] = 0.0
        if _pivot_until_optimal(T, basis, stop_cols=cols, pivots=pivots):
            raise _DegeneratePivot  # phase 1 is bounded; this is numerical
        phase1 = -T[-1, -1]
        if phase1 > FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            return LpSolution(status="infeasible", pivots=tuple(pivots))
        _drive_out_artificials(T, basis, cols, pivots)

    # Phase 2 on the original objective, artificial columns retired.
    T2 = T[:, list(range(cols)) + [cols + art.size]]
    T2[-1, :] = 0.0
    T2[-1, :cols] = c
    for r, var in enumerate(basis):
        if var < cols and abs(c[var]) > 0.0:
            T2[-1, :] -= c[var] * T2[r, :]
    if _pivot_until_optimal(T2, basis, stop_cols=cols, pivots=pivots):
        return LpSolution(status="unbounded", pivots=tuple(pivots))

    if any(var >= cols for var in basis):
        raise _DegeneratePivot  # artificial stuck in the basis
    x = np.zeros(cols)
    x[basis] = T2[:rows, -1]
    primal = primal_of(x)
    value = float(lp.objective @ primal)

    # Row multipliers from the basis: y solves B^T y = c_B.
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        raise _DegeneratePivot from None
    y = y * signs  # undo row flips
    dual_user = np.concatenate([y[:n_user_ineq], y[n_ineq:]])
    # Dual objective on the unperturbed converted rows, bound rows included.
    dual_value = float(y @ rhs) + const
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


def _feasibility_residual(lp, v):
    lo, hi = _bound_arrays(lp)
    violations = [lp.b - lp.A @ v, np.abs(lp.E @ v - lp.f), lo - v, v - hi]
    return float(np.max(np.concatenate(violations), initial=0.0))


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
