"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written with plain Python loops over
pure-profile enumerations, or with ``numpy.tensordot`` one axis at a
time (no shared contraction code with the package), so an oracle failure
and a library failure cannot have a common cause.
"""

import itertools
from fractions import Fraction

import numpy as np

from teamsolve.linprog import (
    FEAS_TOL,
    GAP_TOL,
    PERTURBATION,
    PIVOT_TOL,
    LpFault,
    LpSolution,
)


def exhaustive_expected_utility(tensor, team, adversary):
    """Sum over all pure profiles weighted by product probabilities."""
    tensor = np.asarray(tensor, dtype=float)
    total = 0.0
    sizes = tensor.shape[:-1]
    for a in itertools.product(*(range(k) for k in sizes)):
        pa = 1.0
        for i, ai in enumerate(a):
            pa *= float(team[i][ai])
        if pa == 0.0:
            continue
        for b in range(tensor.shape[-1]):
            pb = float(adversary[b])
            if pb != 0.0:
                total += pa * pb * float(tensor[a + (b,)])
    return total


def tensordot_contract(tensor, vectors, keep=()):
    """Contract every axis not in ``keep`` with its vector, one at a time.

    Axes go highest first, so the axes still to go keep their positions;
    the kept axes come out in increasing order.
    """
    out = np.asarray(tensor, dtype=float)
    for axis in range(out.ndim - 1, -1, -1):
        if axis not in keep:
            out = np.tensordot(out, vectors[axis], axes=([axis], [0]))
    return out


def einsum_contract(table, vectors, keep=()):
    """``games.contract`` as it was: one ``np.einsum`` on numbered sublists.

    A 2-D entry stacks strategies for its axis and its stacking axis
    (labelled ``ndim + axis``) leads the result; kept axes follow in
    increasing order.  The package's contraction must match it bitwise.
    """
    ndim = table.ndim
    operands = [table, list(range(ndim))]
    stacked = []
    for axis, vec in enumerate(vectors):
        if axis in keep:
            continue
        if vec.ndim == 2:
            stacked.append(ndim + axis)
            operands += [vec, [ndim + axis, axis]]
        else:
            operands += [vec, [axis]]
    operands.append(stacked + sorted(keep))
    return np.einsum(*operands)


# -- per-block polytensor kernels -------------------------------------------
#
# The polytensor kernels as they were before blocks were stacked into
# groups: one contraction per block (and per touched player), summed in
# block order from zero.  Each ``games.contract`` call is made with
# ``einsum_contract``, its bitwise twin, so no contraction code is shared.


def _block_operands(blk, team, adversary, pure):
    """A block's table, its vectors and the game axes they weight."""
    axes = blk.players
    table = blk.table
    vectors = [team[p] for p in blk.players]
    if blk.includes_adversary and pure:
        table = table[..., adversary]
    elif blk.includes_adversary:
        axes += (len(team),)
        vectors.append(adversary)
    return table, vectors, axes


def _block_term(operands, sizes, keep):
    """One block's term of :func:`reference_sum_blocks`, shaped to
    broadcast over the kept axes: axes the block does not touch have
    length one, since the block is constant along them."""
    table, vectors, axes = operands
    local = tuple(k for k, axis in enumerate(axes) if axis in keep)
    return einsum_contract(table, vectors, local).reshape(
        [sizes[axis] if axis in axes else 1 for axis in keep])


def reference_sum_blocks(game, team, adversary, keep):
    """``contract_game`` on a polytensor game, block by block, for any
    ``keep``: the twin of ``games._materialize`` (the payoff tensor and
    the two-team induced game), which must match it bitwise, and within
    1e-12 of ``contract_game``, which keeps at most one team axis."""
    pure = isinstance(adversary, (int, np.integer))
    sizes = game.action_sets + (game.adversary_actions,)
    out = np.zeros([sizes[axis] for axis in keep])
    for blk in game._blocks:
        out += _block_term(_block_operands(blk, team, adversary, pure),
                           sizes, keep)
    return out


def reference_sum_blocks_per_player(game, team, adversary, players,
                                    keep_adversary, with_total=False):
    """``contract_players`` on a polytensor game, block by block: each
    block contracted once with no team axis kept and once per listed
    player it touches.  With ``with_total`` also the block-order total of
    the no-team-axis terms (``extension_coefficients``)."""
    pure = isinstance(adversary, (int, np.integer))
    sizes = game.action_sets + (game.adversary_actions,)
    extra = (len(team),) if keep_adversary else ()
    starts = list(itertools.accumulate((sizes[i] for i in players),
                                       initial=0))
    rows = dict(zip(players, map(slice, starts, starts[1:])))
    stacked = np.zeros([starts[-1]] + [sizes[axis] for axis in extra])
    total = np.zeros([sizes[axis] for axis in extra]) if with_total else None
    addend = np.empty_like(stacked)
    for blk in game._blocks:
        operands = _block_operands(blk, team, adversary, pure)
        touched = [i for i in blk.players if i in rows]
        if with_total or len(touched) < len(rows):
            table, vectors, axes = operands
            reduced = einsum_contract(table, vectors, tuple(
                k for k, axis in enumerate(axes) if axis in extra))
            addend[...] = reduced
            if with_total:
                total += reduced
        for i in touched:
            addend[rows[i]] = _block_term(operands, sizes, (i,) + extra)
        stacked += addend
    entries = [stacked[rows[i]] for i in players]
    return (entries, total) if with_total else entries


def reference_fixed_tables(game, adversary):
    """``fix_adversary``'s block tables, one contraction per block with an
    adversary axis; the other blocks' tables as they are."""
    return [einsum_contract(blk.table,
                            (None,) * len(blk.players) + (adversary,),
                            tuple(range(len(blk.players))))
            if blk.includes_adversary else blk.table
            for blk in game._blocks]


def sort_threshold_projection(v):
    """Euclidean projection onto the simplex, vectorized in numpy.

    Sort descending, take the last rank ``k`` with ``k u_k > sum_{j<=k}
    u_j - 1`` and subtract that prefix's common shift; lengths 1 and 2
    use their closed forms.  The package projects on Python floats and
    must match this to the last bit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError("expected a 1-D vector")
    if v.size == 0:
        raise ValueError("expected a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("expected finite entries")
    n = v.size
    if n == 1:
        return np.ones(1)
    if n == 2:
        a = 0.5 * (v[0] - v[1] + 1.0)
        a = 0.0 if a < 0.0 else (1.0 if a > 1.0 else a)
        return np.array([a, 1.0 - a])
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    ranks = np.arange(1, n + 1)
    support = np.nonzero(u * ranks > cumulative)[0]
    rho = support[-1]
    shift = cumulative[rho] / (rho + 1.0)
    return np.maximum(v - shift, 0.0)


def finite_difference_gradient(tensor, team, adversary, player, step=1e-5):
    """Central finite differences of the multilinear extension."""
    out = np.zeros(len(team[player]))
    for a in range(len(team[player])):
        up = [np.array(x, dtype=float) for x in team]
        down = [np.array(x, dtype=float) for x in team]
        up[player][a] += step
        down[player][a] -= step
        f_up = exhaustive_expected_utility(tensor, up, adversary)
        f_down = exhaustive_expected_utility(tensor, down, adversary)
        out[a] = (f_up - f_down) / (2.0 * step)
    return out


def deviation_gaps(tensor, team, adversary):
    """Independent equilibrium certificate by pure-deviation enumeration."""
    tensor = np.asarray(tensor, dtype=float)
    value = exhaustive_expected_utility(tensor, team, adversary)
    n = len(team)
    gap_team = -np.inf
    for i in range(n):
        for a in range(tensor.shape[i]):
            dev = [np.array(x, dtype=float) for x in team]
            dev[i] = np.zeros(tensor.shape[i])
            dev[i][a] = 1.0
            gap_team = max(gap_team, value - exhaustive_expected_utility(
                tensor, dev, adversary))
    gap_adv = -np.inf
    for b in range(tensor.shape[-1]):
        pure = np.zeros(tensor.shape[-1])
        pure[b] = 1.0
        gap_adv = max(gap_adv, exhaustive_expected_utility(
            tensor, team, pure) - value)
    return gap_team, gap_adv


def two_team_deviation_gaps(tensor, n, minimizers, maximizers):
    """Pure-deviation certificate over both teams of a two-team game."""
    tensor = np.asarray(tensor, dtype=float)
    vecs = list(minimizers) + list(maximizers)

    def evaluate(vectors):
        total = 0.0
        for idx in itertools.product(*(range(k) for k in tensor.shape)):
            p = 1.0
            for pos, i in enumerate(idx):
                p *= float(vectors[pos][i])
                if p == 0.0:
                    break
            if p != 0.0:
                total += p * float(tensor[idx])
        return total

    value = evaluate(vecs)
    gap_min = -np.inf
    for i in range(n):
        for a in range(tensor.shape[i]):
            dev = [np.array(v, dtype=float) for v in vecs]
            dev[i] = np.zeros(tensor.shape[i])
            dev[i][a] = 1.0
            gap_min = max(gap_min, value - evaluate(dev))
    gap_max = -np.inf
    for j in range(n, tensor.ndim):
        for b in range(tensor.shape[j]):
            dev = [np.array(v, dtype=float) for v in vecs]
            dev[j] = np.zeros(tensor.shape[j])
            dev[j][b] = 1.0
            gap_max = max(gap_max, evaluate(dev) - value)
    return gap_min, gap_max


def support_enumeration_zero_sum(matrix, tol=1e-9):
    """Minimax value and optimal strategies of a zero-sum matrix game.

    Row player minimizes ``x^T M y``.  Checks every support pair, smallest
    first, for an equalizing mixed pair satisfying the equilibrium
    inequalities; pure saddle points are covered by singleton supports.
    Returns ``(value, row_strategy, col_strategy)`` of the first pair found.
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    n_rows, n_cols = M.shape
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                sol = _equalizer(M, rows, cols, tol)
                if sol is not None:
                    return sol
    raise AssertionError("no equilibrium found (impossible for finite games)")


def _equalizer(M, rows, cols, tol):
    k = len(rows)
    sub = M[np.ix_(rows, cols)]
    # Solve for x on `rows` equalizing columns in `cols`, and v.
    A = np.zeros((k + 1, k + 1))
    A[:k, :k] = sub.T
    A[:k, k] = -1.0
    A[k, :k] = 1.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    try:
        solution = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    x_s, v = solution[:k], solution[k]
    if np.any(x_s < -tol):
        return None
    B = np.zeros((k + 1, k + 1))
    B[:k, :k] = sub
    B[:k, k] = -1.0
    B[k, :k] = 1.0
    c = np.zeros(k + 1)
    c[k] = 1.0
    try:
        solution = np.linalg.solve(B, c)
    except np.linalg.LinAlgError:
        return None
    y_s, v2 = solution[:k], solution[k]
    if np.any(y_s < -tol) or abs(v - v2) > 1e-7:
        return None
    x = np.zeros(M.shape[0])
    y = np.zeros(M.shape[1])
    x[list(rows)] = np.maximum(x_s, 0.0)
    y[list(cols)] = np.maximum(y_s, 0.0)
    x /= x.sum()
    y /= y.sum()
    # Equilibrium inequalities: x guarantees <= v, y guarantees >= v.
    if np.max(x @ M) > v + 1e-7 or np.min(M @ y) < v - 1e-7:
        return None
    return v, x, y


def enumerate_lp_vertices(c, A, b, E, f, bounds):
    """Best basic feasible solution of min c.v, A v >= b, E v = f, bounds.

    Enumerates all choices of active constraints (inequalities at
    equality plus the equalities), solves the square system and keeps
    feasible points.  Exponential and only for tiny test programs.
    """
    c = np.asarray(c, dtype=float)
    m = c.size
    rows = [(np.asarray(row, dtype=float), float(rhs), False)
            for row, rhs in zip(A, b)]
    for row, rhs in zip(E, f):
        rows.append((np.asarray(row, dtype=float), float(rhs), True))
    if bounds is not None:
        for j, (lo, hi) in enumerate(bounds):
            if lo is not None:
                e = np.zeros(m)
                e[j] = 1.0
                rows.append((e, float(lo), False))
            if hi is not None:
                e = np.zeros(m)
                e[j] = -1.0
                rows.append((e, -float(hi), False))
    eq_idx = [i for i, r in enumerate(rows) if r[2]]
    ineq_idx = [i for i, r in enumerate(rows) if not r[2]]
    need = m - len(eq_idx)
    best = None
    best_v = None
    for combo in itertools.combinations(ineq_idx, max(need, 0)):
        active = list(eq_idx) + list(combo)
        if len(active) != m:
            continue
        mat = np.array([rows[i][0] for i in active])
        rhs = np.array([rows[i][1] for i in active])
        try:
            v = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        feasible = all(
            (abs(row @ v - rhs_val) <= 1e-8) if is_eq
            else (row @ v >= rhs_val - 1e-8)
            for row, rhs_val, is_eq in rows)
        if feasible:
            val = float(c @ v)
            if best is None or val < best:
                best, best_v = val, v
    return best, best_v


def grid_prox_minimum(tensor, center, ell, step=1e-3):
    """Exhaustive grid minimum of the prox objective, vectorized.

    Supports one or two team players whose simplex grids stay tractable
    at the given step (at most two free dimensions overall).
    """
    tensor = np.asarray(tensor, dtype=float)
    sizes = tensor.shape[:-1]
    grids = [simplex_grid_points(k, step) for k in sizes]
    if len(sizes) == 1:
        X = grids[0]
        payoff = X @ tensor  # (N, B)
        worst = payoff.max(axis=1)
        dist = ((X - np.asarray(center[0])[None, :]) ** 2).sum(axis=1)
        values = worst + ell * dist
        k = int(np.argmin(values))
        return float(values[k]), (X[k],)
    if len(sizes) == 2:
        X0, X1 = grids
        payoff = np.einsum("ia,jb,abz->ijz", X0, X1, tensor)
        worst = payoff.max(axis=2)
        d0 = ((X0 - np.asarray(center[0])[None, :]) ** 2).sum(axis=1)
        d1 = ((X1 - np.asarray(center[1])[None, :]) ** 2).sum(axis=1)
        values = worst + ell * (d0[:, None] + d1[None, :])
        i, j = np.unravel_index(int(np.argmin(values)), values.shape)
        return float(values[i, j]), (X0[i], X1[j])
    raise ValueError("grid oracle supports at most two team players")


def simplex_grid_points(size, step):
    """All simplex points with coordinates on a uniform 1/q grid."""
    q = max(1, round(1.0 / step))
    if size == 1:
        return np.ones((1, 1))
    if size == 2:
        p = np.arange(q + 1) / q
        return np.stack([p, 1.0 - p], axis=1)
    if size == 3:
        pts = []
        for i in range(q + 1):
            for j in range(q + 1 - i):
                pts.append((i / q, j / q, (q - i - j) / q))
        return np.asarray(pts)
    raise ValueError("grid supports at most 3 actions per player")


def reference_grid_argmin(tensor, q):
    """The grid minmax oracle's team strategy, scored on the full grid.

    Each player's grid lists the count vectors of
    ``itertools.combinations_with_replacement`` divided by ``q``; the
    whole product grid is contracted in one ``einsum`` (numbered
    sublists, each grid a stacked operand) and the first minimum of the
    worst case over the last axis, in C order, is returned as one vector
    per player.  ``minmax_oracle(method="grid")`` must pick it bitwise.
    """
    tensor = np.asarray(tensor, dtype=float)
    n = tensor.ndim - 1
    grids = [np.array([np.bincount(np.asarray(combo), minlength=k) / q
                       for combo in itertools.combinations_with_replacement(
                           range(k), q)])
             for k in tensor.shape[:-1]]
    worst = einsum_contract(tensor, (*grids, None), (n,)).max(axis=-1)
    point = np.unravel_index(int(np.argmin(worst)), worst.shape)
    return tuple(g[i] for g, i in zip(grids, point))


# -- reference exact-rational loading ---------------------------------------
#
# The game schema's rationals as they were read and generated before the
# loader divided integers directly: one ``Fraction`` per entry.  Documents
# and parsed tables must match these byte for byte.


def reference_dense_entries(entries, shape):
    """The table that ``[[indices], num, den]`` entries list, zero elsewhere.

    Entries are written in order, each as ``float(Fraction(num, den))``.
    """
    tensor = np.zeros(shape)
    for idx, num, den in entries:
        tensor[tuple(idx)] = float(Fraction(num, den))
    return tensor


def reference_rational(value):
    """``float`` of a JSON rational: ``[num, den]`` or a bare int."""
    if isinstance(value, (list, tuple)):
        return float(Fraction(value[0], value[1]))
    return float(Fraction(value))


def _reference_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(*value.as_integer_ratio())
    return Fraction(int(value[0]), int(value[1]))


def _reference_pair(frac):
    return [int(frac.numerator), int(frac.denominator)]


def reference_random_game_document(n, sizes, adversary_size, seed,
                                   value_range=(-1, 1)):
    """``random_game``'s document, one ``Fraction`` per entry.

    Each entry is ``lo + (hi - lo) * tick / 10^6`` for a seeded uniform
    tick; zero entries are left out and ``v_max`` is the largest
    ``|entry|`` over the whole tensor.
    """
    grid = 10 ** 6
    lo = _reference_fraction(value_range[0])
    hi = _reference_fraction(value_range[1])
    rng = np.random.default_rng(seed)
    shape = tuple(sizes) + (int(adversary_size),)
    ticks = rng.integers(0, grid + 1, size=shape)
    entries = []
    v_max = Fraction(0)
    for idx in np.ndindex(*shape):
        value = lo + (hi - lo) * Fraction(int(ticks[idx]), grid)
        if value != 0:
            entries.append([list(int(i) for i in idx),
                            *_reference_pair(value)])
        v_max = max(v_max, abs(value))
    return {
        "n": int(n),
        "actions": [int(k) for k in sizes],
        "adversary_actions": int(adversary_size),
        "payoff": {"kind": "dense", "entries": entries},
        "v_max": _reference_pair(v_max),
        "provenance": {"generator": "random", "seed": int(seed),
                       "value_range": [_reference_pair(lo),
                                       _reference_pair(hi)]},
    }


# -- reference simplex ------------------------------------------------------
#
# The dense two-phase simplex exactly as it stood before the solver cached
# its standard-form layout: every program re-parses its bounds, the phase-2
# tableau is a fancy-indexed copy and each pivot subtracts ``np.outer``.
# ``teamsolve.linprog.solve_lp`` must match it bit for bit (status, pivots,
# primal, dual, value, gap and fault text) wherever neither cycles.


def reference_solve_lp(lp):
    """``solve_lp`` as the reference simplex: same statuses, same restart."""
    try:
        return reference_solve_converted(lp, perturb=False)
    except _ReferenceStall:
        pass
    try:
        return reference_solve_converted(lp, perturb=True)
    except _ReferenceStall as exc:
        raise LpFault("simplex stalled on degenerate pivots even after "
                      "the perturbed restart") from exc


class _ReferenceStall(Exception):
    pass


def _reference_convert(lp, perturb):
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
    lo, hi = _reference_bounds(lp)
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


def _reference_bounds(lp):
    """Per-variable bounds as arrays, with +-inf for a missing side."""
    pairs = lp.bounds or [(None, None)] * lp.n_vars
    lo = np.array([-np.inf if l is None else l for l, _ in pairs], dtype=float)
    hi = np.array([np.inf if h is None else h for _, h in pairs], dtype=float)
    return lo, hi


def reference_solve_converted(lp, perturb):
    A, b, c, const, rhs, signs, art, primal_of = _reference_convert(lp, perturb)
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
        if _reference_pivot(T, basis, stop_cols=cols, pivots=pivots):
            raise _ReferenceStall  # phase 1 is bounded; this is numerical
        phase1 = -T[-1, -1]
        if phase1 > FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0))):
            return LpSolution(status="infeasible", pivots=tuple(pivots))
        _reference_drive_out(T, basis, cols, pivots)

    # Phase 2 on the original objective, artificial columns retired.
    T2 = T[:, list(range(cols)) + [cols + art.size]]
    T2[-1, :] = 0.0
    T2[-1, :cols] = c
    for r, var in enumerate(basis):
        if var < cols and abs(c[var]) > 0.0:
            T2[-1, :] -= c[var] * T2[r, :]
    if _reference_pivot(T2, basis, stop_cols=cols, pivots=pivots):
        return LpSolution(status="unbounded", pivots=tuple(pivots))

    if any(var >= cols for var in basis):
        raise _ReferenceStall  # artificial stuck in the basis
    x = np.zeros(cols)
    x[basis] = T2[:rows, -1]
    primal = primal_of(x)
    value = float(lp.objective @ primal)

    # Row multipliers from the basis: y solves B^T y = c_B.
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        raise _ReferenceStall from None
    y = y * signs  # undo row flips
    dual_user = np.concatenate([y[:n_user_ineq], y[n_ineq:]])
    # Dual objective on the unperturbed converted rows, bound rows included.
    dual_value = float(y @ rhs) + const
    gap = abs(value - dual_value)

    residual = _reference_residual(lp, primal)
    scale = 1.0 + float(np.abs(lp.objective).max(initial=0.0)) + abs(value)
    feas_allow = FEAS_TOL + (PERTURBATION * rows if perturb else 0.0)
    if residual > feas_allow or gap > GAP_TOL * scale:
        if not perturb:
            raise _ReferenceStall
        raise LpFault(
            f"could not certify optimality: residual={residual:.3g}, "
            f"gap={gap:.3g}")
    return LpSolution(status="optimal", primal=primal, dual=dual_user,
                      value=value, duality_gap=gap, pivots=tuple(pivots))


def _reference_residual(lp, v):
    lo, hi = _reference_bounds(lp)
    violations = [lp.b - lp.A @ v, np.abs(lp.E @ v - lp.f), lo - v, v - hi]
    return float(np.max(np.concatenate(violations), initial=0.0))


def _reference_pivot(T, basis, stop_cols, pivots):
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
                raise _ReferenceStall  # only unstable pivots available
            return True
        pivots.append((enter, basis[leave]))
        T[leave, :] /= T[leave, enter]
        out = T[:, enter].copy()
        out[leave] = 0.0
        T -= np.outer(out, T[leave, :])
        basis[leave] = enter
        if float(np.abs(T).max()) > blowup:
            raise _ReferenceStall
    raise _ReferenceStall


def _reference_drive_out(T, basis, cols, pivots):
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


def reference_simplex_grid(size, q):
    """The grid minmax oracle's per-player grid, built point by point from
    each ``combinations_with_replacement`` tuple's counts."""
    points = []
    for combo in itertools.combinations_with_replacement(range(size), q):
        points.append(np.bincount(np.asarray(combo), minlength=size) / q)
    return np.array(points)
