"""Proximal points of the team's worst-case payoff and the run potential.

For a team strategy ``x``, the worst case ``phi(x) = max_y U(x, y)`` is
what gradient-descent-against-a-best-responder actually descends.  Its
proximal point anchored at ``x``,

    prox(x) = argmin_{x'} phi(x') + ell * ||x - x'||^2,

certifies near-stationarity through its distance from ``x``, and the
achieved objective value is the potential that strictly decreases along
solver iterations.  The quadratic makes the objective ``ell``-strongly
convex, so value-approximate minimizers are all this module ever needs.

The primal method is projected subgradient descent with the classic step
``2/(ell * (k+1))`` for strongly convex objectives (subgradients come
from the pure best response plus the quadratic's gradient), budgeted at
the rate-implied ``2 L^2 / (ell * tol)`` iterations.  Runs almost never
pay that budget: every call maintains a *computable* optimality
certificate.  Any mixed adversary candidate ``y`` yields a rigorous
lower bound on the prox value through the strong convexity of
``U(., y) + ell ||x - .||^2`` (a smooth inner problem that solves fast;
each inner solve contracts its fixed ``y`` out of the payoff once, into
a game whose adversary has that one action, and sweeps over it with the
same kernels as every other caller), cutting planes steer ``y`` globally,
and a Newton step equalizing the active payoffs pins the optimal
mixture superlinearly.  The run stops as soon as the requested value
tolerance is certified, and the final mixture, active set and Newton
Jacobian are returned so that the next call at a nearby center
certifies in a couple of inner solves.

Inner solves are the bulk of the work and their vectors have a few
entries each, so only their contractions use numpy: the Gauss-Seidel
step, the distances, the objective and the strong-convexity bound run on
lists of Python floats.  A warm call probes its remembered mixture once;
Newton starts from that probe's payoffs instead of solving again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import project_list, project_simplex
from .games import (
    _validate_mixed_team,
    analytic_bounds,
    contract_game,
    contract_players,
    fix_adversary,
)

DEFAULT_ITER_CAP = 100_000
_INNER_SWEEPS = 120
_KELLEY_ROUNDS = 12
_NEWTON_ROUNDS = 8
_MAX_CUTS = 32
_POLISH_TOL = 1e-15


@dataclass(frozen=True)
class _ProxMemory:
    """Dual-side state worth carrying to the next nearby prox call."""

    active: tuple
    jacobian: np.ndarray | None


@dataclass(frozen=True)
class ProximalResult:
    """An approximate proximal point together with its certificates.

    ``objective_value`` is the achieved value of ``phi(x') + ell ||x -
    x'||^2`` at ``prox_point``; ``tolerance`` is a certified bound on its
    distance from the true minimum; ``potential_g`` is the same achieved
    value, exposed under the name the run traces use.  ``reached`` says
    whether the requested tolerance was certified within the iteration
    budget; ``planned_iterations`` is the worst-case budget implied by
    the strongly-convex subgradient rate for the requested tolerance.
    ``lp_pivots`` totals the simplex pivots of the call's Kelley LPs, and
    ``kelley_faults`` counts the Kelley LPs that raised ``LpFault``; such
    a step is skipped, since only the probes supply bounds.
    ``inner_solves`` counts the inner minimizations the call ran, one per
    adversary mixture probed.
    """

    center: tuple
    prox_point: tuple
    objective_value: float
    tolerance: float
    potential_g: float
    reached: bool
    iterations: int
    planned_iterations: int
    adversary_mix: np.ndarray
    memory: _ProxMemory | None = None
    lp_pivots: int = 0
    kelley_faults: int = 0
    inner_solves: int = 0

    @property
    def prox_distance(self):
        return float(np.linalg.norm(_stack(self.center)
                                    - _stack(self.prox_point)))


@dataclass(frozen=True)
class StationarityReport:
    """Near-stationarity certified through the proximal distance.

    ``measure`` is the epsilon for which the queried point is certified
    epsilon-near stationary: twice ``ell`` times the proximal distance,
    plus the recorded ``slack`` induced by the prox solver's value
    tolerance.
    """

    measure: float
    prox_distance: float
    slack: float
    tolerance: float


def _stack(team):
    return np.concatenate([np.asarray(x, dtype=float) for x in team])


def _dist2(team_a, team_b):
    total = 0.0
    for a, b in zip(team_a, team_b):
        d = a - b
        total += float(d @ d)
    return total


def proximal_point(game, center, ell, tol, max_iters=None, warm_start=None):
    """Value-approximate minimizer of ``phi(x') + ell * ||center - x'||^2``.

    Parameters
    ----------
    ell : float
        Weak-convexity bound for ``phi`` (any upper bound is sound).
    tol : float
        Requested value suboptimality.  If the budget runs out first, the
        best iterate is returned with its certified bound and
        ``reached=False``.
    warm_start : ProximalResult, optional
        Previous result for a nearby center; reusing its prox point,
        mixture and Newton state typically certifies in a couple of
        inner solves.
    """
    if ell <= 0 or tol <= 0:
        raise ValueError("ell and tol must be positive")
    center = tuple(np.array(x, dtype=float)
                   for x in _validate_mixed_team(game, center))
    lipschitz = analytic_bounds(game).lipschitz
    planned = max(1, math.ceil(2.0 * lipschitz * lipschitz / (ell * tol)))
    cap = planned if max_iters is None else min(planned, int(max_iters))
    cap = min(cap, DEFAULT_ITER_CAP)

    def objective(team):
        vec = contract_game(game, team, None, (game.n,))
        b = int(np.argmax(vec))
        return float(vec[b]) + ell * _dist2(team, center), b

    best_val, best_b = objective(center)
    best_x = center
    y_dual = None
    memory = None
    if warm_start is not None:
        val_w, _ = objective(warm_start.prox_point)
        if val_w < best_val:
            best_val, best_x = val_w, warm_start.prox_point
        y_dual = np.asarray(warm_start.adversary_mix, dtype=float)
        memory = warm_start.memory
    if y_dual is None:
        y_dual = np.zeros(game.adversary_actions)
        y_dual[best_b] = 1.0

    counts = np.zeros(game.adversary_actions)
    certifier = _DualCertifier(game, center, ell, best_x, y_dual, memory)
    x = best_x
    k = 0
    next_check = 0
    while True:
        if k >= next_check or k >= cap:
            certifier.run(counts, tol, best_val)
            if certifier.best_feasible[1] < best_val:
                best_x, best_val = certifier.best_feasible
            if best_val - certifier.best_lb <= tol or k >= cap:
                break
            next_check = 8 if k == 0 else min(cap, 2 * k)
        val, b = objective(x)
        if val < best_val:
            best_val, best_x = val, x
        counts[b] += 1.0
        grads = contract_players(game, x, b)
        step = 2.0 / (ell * (k + 1))
        x = tuple(project_simplex(xi - step * (gi + 2.0 * ell * (xi - ci)))
                  for xi, gi, ci in zip(x, grads, center))
        k += 1

    gap = max(best_val - certifier.best_lb, 0.0)
    return ProximalResult(
        center=center,
        prox_point=tuple(np.array(v) for v in best_x),
        objective_value=best_val,
        tolerance=max(gap, 1e-15),
        potential_g=best_val,
        reached=gap <= tol,
        iterations=k,
        planned_iterations=planned,
        adversary_mix=certifier.best_y,
        memory=certifier.export_memory(),
        lp_pivots=certifier.lp_pivots,
        kelley_faults=certifier.kelley_faults,
        inner_solves=certifier.inner_solves,
    )


class _DualCertifier:
    """Certified lower bounds on the prox value.

    For any adversary mixture ``y``, ``m(y) = min_z U(z, y) + ell
    ||center - z||^2`` lower-bounds the prox value, and the inner minimum
    is smooth and strongly convex, so it solves fast and certifies its
    own accuracy.  Because the inner objective is *linear* in ``y``,
    every inner iterate ``z`` yields an exact affine majorant of ``m``:

        m(y') <= ell ||center - z||^2 + U_b-vector(z) . y'.

    Maximizing the accumulated cut model over the simplex (a tiny LP)
    steers ``y`` globally; Newton steps equalizing the active payoffs
    then pin the optimal mixture superlinearly, because the feasible
    side feels any dual error at first order through unequal active
    payoffs, which value-level cuts cannot resolve.
    """

    def __init__(self, game, center, ell, x_hint, y_hint, memory=None):
        self.game = game
        self.center = center
        self.ell = ell
        self.z = x_hint
        self.best_y = np.asarray(y_hint, dtype=float)
        self.best_lb = -math.inf
        self.best_feasible = (x_hint, math.inf)
        self.cut_intercepts = []
        self.cut_slopes = []
        self.memory = memory
        self.jac = None
        self.jac_active = None
        self.lp_pivots = 0
        self.kelley_faults = 0
        self.inner_solves = 0

    # -- bookkeeping ---------------------------------------------------

    def probe(self, y_cand, inner_tol):
        self.z, _, lb, dist2 = _inner_solve(self.game, self.center, self.ell,
                                            y_cand, self.z, inner_tol)
        self.inner_solves += 1
        vec_z = contract_game(self.game, self.z, None, (self.game.n,))
        intercept = self.ell * dist2
        feas = float(np.max(vec_z)) + intercept
        if feas < self.best_feasible[1]:
            self.best_feasible = (self.z, feas)
        if lb > self.best_lb:
            self.best_lb, self.best_y = lb, np.asarray(y_cand, dtype=float)
        duplicate = any(
            abs(intercept - c0) <= 1e-12
            and float(np.max(np.abs(vec_z - s0))) <= 1e-12
            for c0, s0 in zip(self.cut_intercepts[-4:], self.cut_slopes[-4:]))
        if not duplicate:
            self.cut_intercepts.append(intercept)
            self.cut_slopes.append(vec_z)
            if len(self.cut_intercepts) > _MAX_CUTS:
                del self.cut_intercepts[0]
                del self.cut_slopes[0]
        return vec_z

    def _done(self, tol, value_hint):
        feasible = min(self.best_feasible[1], value_hint)
        return feasible - self.best_lb <= tol

    def export_memory(self):
        active = tuple(int(b) for b in np.nonzero(self.best_y > 1e-9)[0])
        jac = None
        if self.jac is not None and self.jac_active == active:
            jac = self.jac
        return _ProxMemory(active=active, jacobian=jac)

    # -- the certification schedule -------------------------------------

    def run(self, counts, tol, value_hint):
        inner_tol = max(tol / 4.0, 1e-14)
        y_probed = self.best_y
        vec = self.probe(y_probed, _POLISH_TOL)
        if self._done(tol, value_hint):
            return
        # Warm path: a remembered active set plus Jacobian usually
        # certifies in one or two more inner solves.  Newton usually
        # starts at the mixture just probed, whose payoffs it reuses.
        if self.memory is not None and len(self.memory.active) >= 2:
            self._newton(list(self.memory.active), tol, value_hint,
                         jac=self.memory.jacobian, probed=(y_probed, vec))
            if self._done(tol, value_hint):
                return
        total = counts.sum()
        if total > 0:
            self.probe(counts / total, inner_tol)
            if self._done(tol, value_hint):
                return
        self._equalize(tol, value_hint)
        if self._done(tol, value_hint):
            return
        for _ in range(_KELLEY_ROUNDS):
            y_next, model_value = self.propose()
            if y_next is None or model_value <= self.best_lb + tol / 16.0:
                break  # dual solved to tolerance; cuts cannot help further
            self.probe(y_next, inner_tol)
            if self._done(tol, value_hint):
                return
        self._equalize(tol, value_hint)

    def propose(self):
        """Maximizer of the cut model over the simplex (Kelley step)."""
        # Looked up per call, so that replacing teamsolve.linprog.solve_lp
        # reaches the Kelley LPs only (extension binds its own at import).
        from .linprog import LinearProgram, LpFault, solve_lp

        n_b = self.game.adversary_actions
        n_cuts = len(self.cut_intercepts)
        cost = np.zeros(1 + n_b)
        cost[0] = -1.0
        rows = np.hstack([-np.ones((n_cuts, 1)), np.array(self.cut_slopes)])
        rhs = -np.asarray(self.cut_intercepts)
        eq = np.zeros((1, 1 + n_b))
        eq[0, 1:] = 1.0
        bounds = [(None, None)] + [(0.0, None)] * n_b
        try:
            sol = solve_lp(LinearProgram(cost, rows, rhs, eq, np.ones(1),
                                         bounds))
        except LpFault:
            self.kelley_faults += 1
            return None, math.inf  # model is advisory; probes stay rigorous
        self.lp_pivots += len(sol.pivots)
        if sol.status != "optimal":
            return None, math.inf
        y = np.maximum(sol.primal[1:], 0.0)
        return y / y.sum(), -float(sol.value)

    def _equalize(self, tol, value_hint):
        vec = self.probe(self.best_y, _POLISH_TOL)
        if self._done(tol, value_hint):
            return
        top = float(np.max(vec))
        margin = max(1e-5, 4.0 * (self.best_feasible[1] - self.best_lb))
        active = [b for b in range(vec.size)
                  if vec[b] >= top - margin or self.best_y[b] > 1e-9]
        while len(active) >= 2 and not self._done(tol, value_hint):
            if self._newton(active, tol, value_hint):
                return
            active.pop()  # drop the weakest member and retry

    def _newton(self, active, tol, value_hint, jac=None, probed=None):
        """Zero the active payoff differences as a function of the mixture.

        Newton on ``r(w) = [u_b(z*(y(w))) - u_last]`` with ``w`` the free
        weights of the active set; the Jacobian comes from forward
        differences when not supplied and is kept current by Broyden
        updates.  Every residual evaluation is a warm inner solve, except
        at a start mixture within 1e-15 of ``probed = (y, payoffs)``,
        whose payoff vector from :meth:`probe` is reused.  Returns True
        once converged or the active set provably cannot improve; False
        asks the caller to shrink the set.
        """
        k = len(active)
        if k < 2 or k > self.game.adversary_actions:
            return False
        rest = [b for b in range(self.game.adversary_actions)
                if b not in active]
        w = np.asarray(self.best_y, dtype=float)[active]
        total = w.sum()
        w = np.full(k, 1.0 / k) if total <= 0 else w / total

        def mixture(wv):
            y = np.zeros(self.game.adversary_actions)
            y[active] = wv
            return y

        def differences(vec):
            return vec[np.asarray(active[:-1])] - vec[active[-1]], vec

        def residual(wv):
            return differences(self.probe(mixture(wv), _POLISH_TOL))

        if probed is not None and float(np.max(np.abs(
                mixture(w) - probed[0]))) <= 1e-15:
            r0, vec0 = differences(probed[1])
        else:
            r0, vec0 = residual(w)
        if self._done(tol, value_hint):
            self._remember(active, jac)
            return True
        for _ in range(_NEWTON_ROUNDS):
            if rest and float(np.max(vec0[rest])) > float(vec0[active[-1]]) + 1e-9:
                return True  # active set wrong; the cut loop will widen it
            if jac is None:
                jac = self._fd_jacobian(residual, w, r0)
                if jac is None:
                    return False
            try:
                dw = np.linalg.solve(jac, -r0)
            except np.linalg.LinAlgError:
                jac = None
                return False
            step = np.concatenate([dw, [-dw.sum()]])
            limit = 1.0
            if np.min(w + step) < 0.0:
                shrinks = [w[i] / -step[i] for i in range(k) if step[i] < 0]
                limit = min(0.9 * min(shrinks), 1.0)
                if limit <= 1e-12:
                    return False
            w_new = w + limit * step
            w_new = np.maximum(w_new, 0.0)
            w_new /= w_new.sum()
            r1, vec1 = residual(w_new)
            if self._done(tol, value_hint):
                self._remember(active, jac)
                return True
            moved_free = _free(w_new - w)
            denom = float(moved_free @ moved_free)
            if denom > 0:  # Broyden rank-1 refresh from the actual move
                jac = jac + np.outer(r1 - r0 - jac @ moved_free,
                                     moved_free) / denom
            if float(np.max(np.abs(r1))) > 0.9 * float(np.max(np.abs(r0))):
                jac = None  # stalled; force a fresh finite-difference pass
            w, r0, vec0 = w_new, r1, vec1
        self._remember(active, jac)
        return self._done(tol, value_hint)

    def _fd_jacobian(self, residual, w, r0):
        k = w.size
        h = max(1e-7, 0.01 * float(np.max(np.abs(r0)) if r0.size else 0.0))
        jac = np.zeros((k - 1, k - 1))
        for j in range(k - 1):
            wj = w.copy()
            shift = min(h, wj[-1])  # keep the mixture on the simplex
            if shift <= 0:
                return None
            wj[j] += shift
            wj[-1] -= shift
            rj, _ = residual(wj)
            jac[:, j] = (rj - r0) / shift
        return jac

    def _remember(self, active, jac):
        if jac is not None:
            self.jac = jac
            self.jac_active = tuple(int(b) for b in active)


def _free(moved):
    return moved[:-1]


def _inner_min(game, center, ell, y, z0, inner_tol):
    """Minimize the smooth inner objective ``U(., y) + ell||center - .||^2``.

    Gauss-Seidel sweeps: each player's block subproblem is an exact
    projection ``z_i <- proj(center_i - g_i / (2 ell))``, so single-player
    games solve in one sweep.  After every sweep the strong-convexity
    model at the current gradient certifies a lower bound on the inner
    minimum (hence on the prox value); the sweep loop stops once it is
    within ``inner_tol``.  The mixture ``y`` is fixed for the whole call,
    so it is contracted out of the payoff once (:func:`fix_adversary`),
    and every sweep and gradient runs :func:`contract_game` and
    :func:`contract_players` on that game at its one adversary action,
    contracting team axes only.  The per-player vector math runs
    on Python floats (see :func:`_inner_solve`).  Returns ``(z, f_z,
    lb)`` with ``lb <= f_z``.
    """
    z, f_z, lb, _ = _inner_solve(game, center, ell, y, z0, inner_tol)
    return z, f_z, lb


def _inner_solve(game, center, ell, y, z0, inner_tol):
    """:func:`_inner_min`, also returning ``||z - center||^2``.

    The vectors have a few entries each, so everything but the
    contractions runs on lists of Python floats: the elementwise
    operations numpy would perform, in the same order, and sequential
    dot products, which round differently from BLAS.  :meth:`probe`
    takes its cut intercept from the returned distance.
    """
    n = game.n
    fixed = fix_adversary(game, y)
    cen = [c.tolist() for c in center]
    z = list(z0)
    zl = [zi.tolist() for zi in z]
    two_ell = 2.0 * ell
    half_ell = 0.5 * ell
    lb = -math.inf
    f_z = math.inf
    dist2 = math.inf
    for _ in range(_INNER_SWEEPS):
        for i in range(n):
            g_i = contract_game(fixed, z, 0, (i,)).tolist()
            zl[i] = project_list([c - g / two_ell
                                  for c, g in zip(cen[i], g_i)])
            z[i] = np.array(zl[i])
        # The last player's sweep gradient saw every other block at its
        # final value, so it is already the gradient at the new ``z``.
        grads = [g.tolist() for g in
                 contract_players(fixed, z, 0, players=range(n - 1))]
        grads.append(g_i)
        dist2 = 0.0
        for zi, ci in zip(zl, cen):
            d = [a - c for a, c in zip(zi, ci)]
            dist2 += _dot(d, d)
        f_z = _dot(zl[0], grads[0]) + ell * dist2
        quad = 0.0
        for zi, gi, ci in zip(zl, grads, cen):
            full = [g + two_ell * (a - c) for a, g, c in zip(zi, gi, ci)]
            trial = project_list([a - f / ell for a, f in zip(zi, full)])
            d = [t - a for t, a in zip(trial, zi)]
            quad += _dot(full, d) + half_ell * _dot(d, d)
        # Strong convexity: no feasible point beats this.  The model's
        # minimum is at most its value 0 at ``z``; a positive ``quad`` is
        # rounding, and would put the bound above the feasible ``f_z``.
        lb = f_z + min(quad, 0.0)
        if -quad <= inner_tol:
            break
    return tuple(z), f_z, lb, dist2


def _dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def potential_g(game, team, ell, tol):
    """The run potential: achieved prox objective value at ``team``.

    Sandwiched between the exact prox value and that value plus the
    certified tolerance, and never exceeds the worst-case payoff at
    ``team`` itself (the center is always a feasible candidate).
    """
    return proximal_point(game, team, ell, tol).potential_g


def stationarity(game, team, ell, tol):
    """Certified near-stationarity of ``team`` for its worst-case payoff.

    The returned measure is ``2 * ell * prox_distance`` plus an explicit
    slack for the prox solver's value tolerance (a value error ``tau`` on
    an ``ell``-strongly convex objective moves the minimizer by at most
    ``sqrt(2 tau / ell)``).
    """
    res = proximal_point(game, team, ell, tol)
    slack = 2.0 * math.sqrt(2.0 * res.tolerance * ell)
    measure = 2.0 * ell * res.prox_distance + slack
    return StationarityReport(measure=measure,
                              prox_distance=res.prox_distance,
                              slack=slack,
                              tolerance=res.tolerance)
