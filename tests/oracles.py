"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately written with plain Python loops over
pure-profile enumerations, or with ``numpy.tensordot`` one axis at a
time (no shared contraction code with the package), so an oracle failure
and a library failure cannot have a common cause.
"""

import itertools

import numpy as np


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


def sort_threshold_projection(v):
    """Euclidean projection onto the simplex, vectorized in numpy.

    Sort descending, take the last rank ``k`` with ``k u_k > sum_{j<=k}
    u_j - 1`` and subtract that prefix's common shift; lengths 1 and 2
    use their closed forms.  The package projects on Python floats and
    must match this to the last bit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
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
    """Minimax value of a zero-sum matrix game by support enumeration.

    Row player minimizes.  Checks every support pair for an equalizing
    mixed pair satisfying the equilibrium inequalities; pure saddle
    points are covered by singleton supports.
    """
    M = np.asarray(matrix, dtype=float)
    n_rows, n_cols = M.shape
    best = None
    for k in range(1, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), k):
            for cols in itertools.combinations(range(n_cols), k):
                sol = _equalizer(M, rows, cols, tol)
                if sol is not None:
                    return sol[0]
        if best is not None:
            return best
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
