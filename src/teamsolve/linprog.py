"""Self-contained dense linear programming for the solver's small LPs.

The equilibrium-extension programs have at most a few hundred variables,
so a dense two-phase simplex is plenty: vertex solutions keep certificates
crisp and the pivot sequence is fully deterministic.  Its ratio-test tie
rule gives up Bland's guarantee against cycling, so a phase that revisits
a basis stops and the solve restarts from a perturbed right-hand side.
Interior-point machinery, sparsity and warm starts are deliberately out of
scope.

Conventions: we minimize ``c . v`` subject to ``A v >= b`` (row
multipliers ``>= 0``), ``E v = f`` (free multipliers), and optional box
bounds.  Variables are free unless bounds say otherwise.

Standard form keeps one nonnegative column per sign-constrained variable
and splits only free ones; bounds become shifts, and only a box adds a
row.  Inequality rows with right-hand side ``<= 0`` start on their
surplus column, so artificials (and phase 1) cover only the other rows.

The part of that rewrite fixed by the bounds and the row counts (shifts,
column positions, box rows, surplus columns) is built once per
``(n_vars, bounds, rows)`` and cached read-only, since the solver's
callers solve thousands of programs that share a few dozen such shapes.
Every floating-point operation of a solve, and its order, is the same as
without the cache.
"""

from __future__ import annotations

import functools
import sys
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
    variable; ``None`` on either side leaves that side unconstrained.  It
    is stored as a tuple of ``(float | None, float | None)`` pairs, with a
    zero bound stored as ``+0.0``, so equal bounds are equal keys.
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
        if self.bounds is not None:
            if len(self.bounds) != m:
                raise ValueError(
                    "bounds must have one (lo, hi) pair per variable")
            object.__setattr__(self, "bounds", tuple(
                (_bound_value(lo), _bound_value(hi))
                for lo, hi in self.bounds))
        coefficients = np.concatenate([c, A.ravel(), b, E.ravel(), f])
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")

    @property
    def n_vars(self):
        return self.objective.size


def _bound_value(v):
    # -0.0 and 0.0 are one cache key, so store one of them: -0.0 + 0.0 is 0.0.
    return None if v is None else float(v) + 0.0


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
    # Overflowing programs are refused below anyway; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
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
    n_a, n_e = lp.A.shape[0], lp.E.shape[0]
    layout = _layout(lp.n_vars, lp.bounds, n_a, n_e)
    n_x, n_ineq = layout.n_x, layout.n_ineq
    rhs = np.concatenate([lp.b - lp.A @ layout.shift, layout.box_rhs,
                          lp.f - lp.E @ layout.shift])
    A = layout.frame.copy()
    A[:n_a, :n_x] = lp.A @ layout.D
    A[n_ineq:, :n_x] = lp.E @ layout.D
    signs, art = [], []
    for r, v in enumerate(rhs.tolist()):
        slack = r < n_ineq and v <= 0.0
        signs.append(-1.0 if slack or v < 0.0 else 1.0)
        if not slack:
            art.append(r)
    signs = np.array(signs)
    A *= signs[:, None]
    b = rhs * signs
    if perturb:
        b = b + PERTURBATION * (1.0 + np.arange(rhs.size))
    c = np.concatenate([lp.objective @ layout.D, np.zeros(n_ineq)])
    return (A, b, c, float(lp.objective @ layout.shift), rhs, signs, art,
            layout)


@dataclass(frozen=True)
class _Layout:
    """The part of the standard form fixed by the bounds and row counts.

    ``v = shift + D x`` over ``n_x`` columns; ``lo`` and ``hi`` hold +-inf
    for a missing side.  ``box_rhs`` is ``lo - hi`` for each variable
    bounded on both sides, the right-hand side of its row, and ``frame``
    the constraint matrix before the caller's rows are written in: the box
    rows and the surplus columns of the ``n_ineq`` inequality rows.
    """

    lo: np.ndarray
    hi: np.ndarray
    shift: np.ndarray
    D: np.ndarray
    box_rhs: np.ndarray
    frame: np.ndarray
    n_x: int
    n_ineq: int


@functools.lru_cache(maxsize=256)
def _layout(m, bounds, n_a, n_e):
    """The :class:`_Layout` of ``m`` variables under ``bounds`` (normalized,
    so hashable) with ``n_a`` inequality and ``n_e`` equality rows."""
    pairs = bounds or [(None, None)] * m
    lo = np.array([-np.inf if l is None else l for l, _ in pairs], dtype=float)
    hi = np.array([np.inf if h is None else h for _, h in pairs], dtype=float)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    sign = np.where(has_lo | ~has_hi, 1.0, -1.0)
    shift = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    free = np.flatnonzero(~has_lo & ~has_hi)
    box = np.flatnonzero(has_lo & has_hi)
    # A free variable's x- column sits right after its x+ column.
    pos = np.arange(m) + np.searchsorted(free, np.arange(m))
    D = np.zeros((m, m + free.size))
    D[np.arange(m), pos] = sign
    D[free, pos[free] + 1] = -1.0
    n_x, n_ineq = D.shape[1], n_a + box.size
    frame = np.zeros((n_ineq + n_e, n_x + n_ineq))
    frame[n_a + np.arange(box.size), pos[box]] = -1.0
    frame[:n_ineq, n_x:] = -np.eye(n_ineq)
    arrays = (lo, hi, shift, D, lo[box] - hi[box], frame)
    for arr in arrays:
        arr.setflags(write=False)
    return _Layout(*arrays, n_x, n_ineq)


def _solve_converted(lp, perturb):
    A, b, c, const, rhs, signs, art, layout = _convert(lp, perturb)
    rows, cols = A.shape
    n_art = len(art)
    n_user_ineq, n_ineq = lp.A.shape[0], rows - lp.E.shape[0]
    pivots = []

    # Phase 1: surplus columns start the basis of the negated rows and
    # artificials that of the rest; minimize the sum of artificials.
    T = np.zeros((rows + 1, cols + n_art + 1))
    T[:rows, :cols] = A
    T[:rows, -1] = b
    basis = [cols - n_ineq + r for r in range(rows)]
    for k, r in enumerate(art):
        T[r, cols + k] = 1.0
        basis[r] = cols + k
    if n_art:
        T[-1, :] = -T[art, :].sum(axis=0)  # min sum(artificials)
        T[-1, cols:cols + n_art] = 0.0
        if _pivot_until_optimal(T, basis, stop_cols=cols, pivots=pivots):
            raise _DegeneratePivot  # phase 1 is bounded; this is numerical
        phase1 = -T[-1, -1]
        if phase1 > FEAS_TOL * max(1.0, float(abs(b).max(initial=0.0))):
            return LpSolution(status="infeasible", pivots=tuple(pivots))
        _drive_out_artificials(T, basis, cols, pivots)
        T = np.concatenate([T[:, :cols], T[:, -1:]], axis=1)

    # Phase 2 on the original objective, artificial columns retired.
    T[-1, :] = 0.0
    T[-1, :cols] = c
    cost = c.tolist()
    for r, var in enumerate(basis):
        if var < cols and abs(cost[var]) > 0.0:
            T[-1, :] -= cost[var] * T[r, :]
    if _pivot_until_optimal(T, basis, stop_cols=cols, pivots=pivots):
        return LpSolution(status="unbounded", pivots=tuple(pivots))

    if any(var >= cols for var in basis):
        raise _DegeneratePivot  # artificial stuck in the basis
    x = np.zeros(cols)
    x[basis] = T[:rows, -1]
    primal = layout.shift + layout.D @ x[:layout.n_x]
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

    residual = _feasibility_residual(lp, primal, layout)
    scale = 1.0 + float(abs(lp.objective).max(initial=0.0)) + abs(value)
    feas_allow = FEAS_TOL + (PERTURBATION * rows if perturb else 0.0)
    # Written to fail on NaN as well: an overflowed tableau certifies
    # nothing.
    if not (residual <= feas_allow and gap <= GAP_TOL * scale):
        if not perturb:
            raise _DegeneratePivot
        raise LpFault(
            f"could not certify optimality: residual={residual:.3g}, "
            f"gap={gap:.3g}")
    return LpSolution(status="optimal", primal=primal, dual=dual_user,
                      value=value, duality_gap=gap, pivots=tuple(pivots))


def _feasibility_residual(lp, v, layout):
    violations = [lp.b - lp.A @ v, np.abs(lp.E @ v - lp.f), layout.lo - v,
                  v - layout.hi]
    return float(np.concatenate(violations).max(initial=0.0))


def _pivot_until_optimal(T, basis, stop_cols, pivots):
    """Deterministic pivoting; returns True when unbounded.

    Entering: the lowest-index column with negative reduced cost (Bland).
    Leaving: ratio-test minimizer; among (near-)ties, the numerically
    largest pivot element wins, then the lowest basic-variable index.
    Preferring big pivots keeps heavily degenerate tableaus from blowing
    up, at the price of Bland's guarantee against cycling.  A phase that
    has made ``rows + columns`` pivots therefore records the bases it
    visits and gives up on the first repeat; the iteration guard stays as
    a backstop, and the caller's perturbed restart takes over from both.
    """
    rows = T.shape[0] - 1
    watch = rows + T.shape[1]
    guard = 200 * watch
    # Capped at the largest float, so the guard also trips on inf and NaN.
    blowup = min(1e12 * max(1.0, float(np.abs(T).max())), sys.float_info.max)
    visited = set()
    for made in range(1, guard + 1):
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
        _pivot(T, basis, leave, enter, pivots)
        if not float(np.abs(T).max()) <= blowup:
            raise _DegeneratePivot
        if made >= watch:
            seen = tuple(sorted(basis))
            if seen in visited:
                raise _DegeneratePivot  # the pivot rule is cycling
            visited.add(seen)
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
        _pivot(T, basis, r, pivot_col, pivots)


def _pivot(T, basis, row, col, pivots):
    """Pivot ``T`` on ``(row, col)``: column ``col`` enters the basis in
    place of ``basis[row]``, and the pair is appended to ``pivots``."""
    pivots.append((col, basis[row]))
    T[row, :] /= T[row, col]
    out = T[:, col].copy()
    out[row] = 0.0
    T -= out[:, None] * T[row, :]
    basis[row] = col


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
