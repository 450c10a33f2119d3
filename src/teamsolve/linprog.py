"""Self-contained dense linear programming for the solver's small LPs.

The equilibrium-extension programs have at most a few hundred variables,
so a dense two-phase simplex is plenty: vertex solutions keep certificates
crisp and the pivot sequence is fully deterministic.  Its ratio-test tie
rule gives up Bland's guarantee against cycling, so a phase that revisits
a basis stops and the solve restarts from a perturbed right-hand side.
Interior-point machinery and sparsity are deliberately out of scope.

Warm starts follow a keep-repair-or-cold rule.  A program may offer a
starting basis, typically the final basis of the previous program of the
same shape.  The solver factors it once.  It keeps the basis if it is
optimal as it stands: its basic solution is nonnegative and no reduced
cost is below ``-PIVOT_TOL``; a kept basis costs no pivots.  It repairs a
basis that is dual feasible but primal infeasible by dual simplex pivots
(Lemke, 1954) and then phase 2, and one that is primal feasible but not
optimal by phase 2 alone.  Any other basis (wrong length, singular, or
neither primal nor dual feasible), and a repair that trips a guard, is
dropped, and the program is solved cold, bit for bit as without the
offer.  Every solve, kept, repaired or cold, passes the same
feasibility-residual and duality-gap certificate.

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
A caller whose programs share more than that (objective, equality rows,
bounds, all but some columns of the inequality rows, and which rows have
a right-hand side ``<= 0``) builds a :class:`_Template` once per shape,
and each of its programs then carries its standard form, written in
place of :func:`_convert`'s.  Either way the standard form is the same
to the last bit, signed zeros included, and so is every floating-point
operation of the simplex that follows.
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

    ``basis`` optionally offers a starting basis, the
    :attr:`LpSolution.basis` of an earlier program of the same shape.  It
    is a hint only: :func:`solve_lp` keeps it, repairs it or solves cold
    (module docstring).
    """

    objective: np.ndarray
    A: np.ndarray | None = None
    b: np.ndarray | None = None
    E: np.ndarray | None = None
    f: np.ndarray | None = None
    bounds: tuple | None = None
    basis: tuple | None = None
    # The standard form a _Template wrote for this program, or None.
    _form: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

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
        if self.basis is not None:
            object.__setattr__(self, "basis",
                               tuple(int(j) for j in self.basis))
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
    simplex pivot sequence for determinism audits.  ``basis`` is the final
    basis of an optimal solve, one standard-form column per row, to be
    offered back as :attr:`LinearProgram.basis`; ``warm`` says the
    solve started from the offered basis: kept as it stood when ``pivots``
    is empty, repaired otherwise.
    """

    status: str                      # optimal | infeasible | unbounded
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    value: float = float("nan")
    duality_gap: float = float("nan")
    pivots: tuple = field(default=())
    basis: tuple | None = None
    warm: bool = False

    def require_optimal(self):
        if self.status != "optimal":
            raise LpFault(f"expected an optimal solution, got {self.status}")
        return self


def solve_lp(lp):
    """Solve a :class:`LinearProgram` with a deterministic dense simplex.

    Infeasibility and unboundedness are reported through ``status``, never
    raised.  An offered ``lp.basis`` is kept, repaired or dropped (module
    docstring).  If a numerically degenerate pivot stalls the tableau, the
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


class _Template:
    """The standard form shared by every program of one shape.

    The programs are ``base`` with other coefficients in the columns
    ``vary`` (a slice) of its inequality rows and another right-hand side
    ``b`` that is ``<= 0`` on the same rows as ``base.b``.  ``base``'s
    bounds must shift no variable and leave those columns ``(0, None)``.
    Then ``A @ D`` writes each such coefficient ``a`` as ``a + 0.0`` (a
    sum of ``a`` and exact zeros), the row flips multiply it by the row's
    sign, and ``b - A @ shift`` is ``b``: so :meth:`program` writes only
    those columns and the right-hand side into ``_convert(base)``, and the
    result is :func:`_convert`'s to the last bit.  It checks only the new
    coefficients and right-hand side; ``base`` was checked when built.
    """

    def __init__(self, base, vary):
        A, _, c, const, rhs, signs, art, layout = _convert(base, False)
        block = layout.D[vary]
        first = int(block.argmax(axis=1)[0]) if block.size else 0
        if layout.shift.any() or not np.array_equal(
                block, np.eye(*block.shape, first)):
            raise ValueError("the varied columns must be (0, None) and "
                             "no variable may be shifted")
        n_a = base.A.shape[0]
        self.base, self.vary, self.n_a = base, vary, n_a
        self.columns = slice(first, first + block.shape[0])
        self.row_signs = signs[:n_a, None]
        self.fixed_rhs = rhs[n_a:]
        self.form = (A, c, const, signs, art, layout)
        for arr in (base.objective, base.A, base.b, base.E, base.f, A, c,
                    rhs, signs):
            arr.setflags(write=False)

    def program(self, coefficients, b, basis):
        """The :class:`LinearProgram` with ``coefficients`` in the varied
        columns and right-hand side ``b``, offered ``basis``, carrying its
        standard form."""
        b = np.asarray(b, dtype=float)
        if not (np.isfinite(coefficients).all() and np.isfinite(b).all()):
            raise ValueError("coefficients must be finite")
        base = self.base
        A_std, c, const, signs, art, layout = self.form
        A = base.A.copy()
        A[:, self.vary] = coefficients
        A_std = A_std.copy()
        A_std[:self.n_a, self.columns] = (coefficients + 0.0) * self.row_signs
        rhs = np.concatenate([b, self.fixed_rhs])
        lp = object.__new__(LinearProgram)
        for name, value in (
                ("objective", base.objective), ("A", A), ("b", b),
                ("E", base.E), ("f", base.f), ("bounds", base.bounds),
                ("basis", None if basis is None
                 else tuple(int(j) for j in basis)),
                ("_form", (A_std, rhs * signs, c, const, rhs, signs, art,
                           layout))):
            object.__setattr__(lp, name, value)
        return lp


def _standard_form(lp, perturb):
    """:func:`_convert` of ``lp``, or the standard form it carries."""
    if lp._form is None:
        return _convert(lp, perturb)
    if not perturb:
        return lp._form
    A, b, *rest = lp._form
    return (A, b + PERTURBATION * (1.0 + np.arange(b.size)), *rest)


def _solve_warm(lp, converted):
    """The solution from the offered ``lp.basis`` in the standard form
    ``converted``: read off it if it is optimal as it stands, pivoted from
    it if it is primal or dual feasible, else None (module docstring)."""
    A, b, c = converted[:3]
    rows, cols = A.shape
    basis = list(lp.basis)
    if (len(basis) != rows or len(set(basis)) != rows
            or not all(0 <= j < cols for j in basis)):
        return None
    B = A[:, basis]
    try:
        x_B = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
    except np.linalg.LinAlgError:
        return None
    # Written to fail on NaN as well.
    primal = x_B.min(initial=0.0) >= 0.0
    dual = (c - y @ A).min(initial=0.0) >= -PIVOT_TOL
    try:
        if primal and dual:
            return _certified(lp, converted, basis, x_B, y, perturb=False,
                              pivots=(), warm=True)
        if primal or dual:
            return _repaired(lp, converted, basis, B, x_B)
    except _DegeneratePivot:
        pass
    return None


def _repaired(lp, converted, basis, B, x_B):
    """Pivot from the offered ``basis``, with basis matrix ``B`` and basic
    values ``x_B``, to a certified optimum: dual simplex pivots while a
    basic value is negative, then phase 2.  Raises ``_DegeneratePivot``
    when a guard trips or either phase ends without an optimum."""
    A, _, c = converted[:3]
    rows, cols = A.shape
    T = np.empty((rows + 1, cols + 1))
    T[:rows, :cols] = np.linalg.solve(B, A)
    T[:rows, -1] = x_B
    T[-1, :cols] = c
    T[-1, -1] = 0.0
    T[-1, :] -= c[basis] @ T[:rows, :]
    if not np.isfinite(T).all():
        raise _DegeneratePivot
    pivots = []
    if x_B.min() < 0.0:
        _dual_pivot_until_feasible(T, basis, cols, pivots)
    if _pivot_until_optimal(T, basis, stop_cols=cols, pivots=pivots):
        raise _DegeneratePivot  # the cold solve reports unboundedness
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        raise _DegeneratePivot from None
    return _certified(lp, converted, basis, T[:rows, -1], y, perturb=False,
                      pivots=pivots, warm=True)


def _solve_converted(lp, perturb):
    converted = _standard_form(lp, perturb)
    if lp.basis is not None and not perturb:
        warm = _solve_warm(lp, converted)
        if warm is not None:
            return warm
    A, b, c, _, _, _, art, _ = converted
    rows, cols = A.shape
    n_art = len(art)
    n_ineq = rows - lp.E.shape[0]
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
    # Row multipliers from the basis: y solves B^T y = c_B.
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        raise _DegeneratePivot from None
    return _certified(lp, converted, basis, T[:rows, -1], y, perturb, pivots)


def _certified(lp, converted, basis, x_B, y, perturb, pivots, warm=False):
    """The optimal :class:`LpSolution` at ``basis``, with basic values
    ``x_B`` and standard-form row multipliers ``y``, once its residual and
    duality gap are certified; an uncertified unperturbed solve raises
    ``_DegeneratePivot``, a perturbed one ``LpFault``."""
    A, _, _, const, rhs, signs, _, layout = converted
    rows, cols = A.shape
    n_user_ineq, n_ineq = lp.A.shape[0], rows - lp.E.shape[0]
    x = np.zeros(cols)
    x[basis] = x_B
    primal = layout.shift + layout.D @ x[:layout.n_x]
    value = float(lp.objective @ primal)
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
                      value=value, duality_gap=gap, pivots=tuple(pivots),
                      basis=tuple(basis), warm=warm)


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
    up, at the price of Bland's guarantee against cycling, so the phase
    runs under :func:`_guarded`; the caller's perturbed restart takes over
    when it stops.
    """
    rows = T.shape[0] - 1
    budget, check = _guarded(T)
    for made in range(1, budget + 1):
        # The first column whose reduced cost is below -PIVOT_TOL; a
        # tableau without columns has none.
        entering = T[-1, :stop_cols] < -PIVOT_TOL
        enter = int(entering.argmax()) if stop_cols else 0
        if not stop_cols or not entering[enter]:
            return False
        # Scanning Python floats is cheaper than indexing numpy scalars;
        # both are IEEE doubles, so every comparison is exact.
        col = T[:rows, enter].tolist()
        rhs = T[:rows, -1].tolist()
        col_scale = max([0.0, *col])
        floor = max(PIVOT_TOL, 1e-7 * col_scale)
        best_ratio, leave = None, -1
        for r, a in enumerate(col):
            if a > floor:
                # ``max(b, 0.0)`` without the call: ``0.0`` only when
                # ``b < 0.0``, so ``-0.0`` (and NaN) pass through as before.
                b = rhs[r]
                ratio = (0.0 if b < 0.0 else b) / a
                # Better by more than 1e-12, or tied within it with a
                # larger pivot element, or tied on both with a lower
                # basic-variable index.
                if (best_ratio is None or ratio < best_ratio - 1e-12
                        or (abs(ratio - best_ratio) <= 1e-12
                            and (a > col[leave] + 1e-12
                                 or (abs(a - col[leave]) <= 1e-12
                                     and basis[r] < basis[leave])))):
                    best_ratio, leave = ratio, r
        if leave < 0:
            if col_scale > PIVOT_TOL:
                raise _DegeneratePivot  # only unstable pivots available
            return True
        _pivot(T, basis, leave, enter, pivots)
        check(basis, made)
    raise _DegeneratePivot


def _dual_pivot_until_feasible(T, basis, stop_cols, pivots):
    """Dual simplex pivots on a dual feasible ``T`` until no basic value
    is below ``-PIVOT_TOL``.

    Leaving: the row of the most negative basic value (the lowest row on
    ties).  Entering: among the columns whose entry in that row is below
    ``-max(PIVOT_TOL, 1e-7 * largest |negative entry|)``, the minimizer
    of reduced cost over minus the entry; among (near-)ties, the largest
    pivot magnitude wins, then the lowest column.  Runs under
    :func:`_guarded`, and raises ``_DegeneratePivot`` when no column can
    enter: the program is infeasible or only unstable pivots are left,
    and either way the cold solve decides.
    """
    rows = T.shape[0] - 1
    budget, check = _guarded(T)
    for made in range(1, budget + 1):
        leave = int(T[:rows, -1].argmin())
        if T[leave, -1] >= -PIVOT_TOL:
            return
        row = T[leave, :stop_cols].tolist()
        cost = T[-1, :stop_cols].tolist()
        floor = max(PIVOT_TOL, -1e-7 * min([0.0, *row]))
        best_ratio, enter = None, -1
        for j, a in enumerate(row):
            if a < -floor:
                d = cost[j]
                ratio = (0.0 if d < 0.0 else d) / -a
                if (best_ratio is None or ratio < best_ratio - 1e-12
                        or (abs(ratio - best_ratio) <= 1e-12
                            and a < row[enter] - 1e-12)):
                    best_ratio, enter = ratio, j
        if enter < 0:
            raise _DegeneratePivot
        _pivot(T, basis, leave, enter, pivots)
        check(basis, made)
    raise _DegeneratePivot


def _guarded(T):
    """``(budget, check)`` for one phase of pivots on ``T``.

    ``check(basis, made)``, called after each pivot, raises
    ``_DegeneratePivot`` once an entry of ``T`` exceeds ``1e12`` times
    its largest entry at the start or is not finite, and, from ``rows +
    columns`` pivots on, at the first basis the phase visits twice.  The
    phase raises it too once it has made ``budget`` pivots, a backstop.
    """
    watch = T.shape[0] - 1 + T.shape[1]
    # Capped at the largest float, so the guard also trips on inf and NaN.
    blowup = min(1e12 * max(1.0, float(np.abs(T).max())), sys.float_info.max)
    visited = set()

    def check(basis, made):
        if not float(np.abs(T).max()) <= blowup:
            raise _DegeneratePivot
        if made >= watch:
            seen = tuple(sorted(basis))
            if seen in visited:
                raise _DegeneratePivot  # the pivot rule is cycling
            visited.add(seen)

    return 200 * watch, check


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
