"""Proximal points of the team's worst-case payoff and the run potential.

For a team strategy ``x``, the worst case ``phi(x) = max_y U(x, y)`` is
what gradient-descent-against-a-best-responder actually descends.  Its
proximal point anchored at ``x``,

    prox(x) = argmin_{x'} phi(x') + ell * ||x - x'||^2,

certifies that ``x`` is nearly stationary through its distance from it;
the achieved objective value is the potential that strictly decreases
along solver iterations.  The quadratic makes the objective ``ell``-strongly
convex, so value-approximate minimizers are all this module ever needs.

Every call is certified from the dual side alone.  Any mixed adversary
candidate ``y`` yields a rigorous lower bound on the prox value through
the strong convexity of ``U(., y) + ell ||x - .||^2`` (a smooth inner
problem that solves fast; each inner solve contracts its fixed ``y`` out
of the payoff once, into a game whose adversary has that one action,
and sweeps over it with the same kernels as every other caller), and
each inner minimizer is itself a feasible candidate whose worst case
bounds the prox value from above.  Cutting planes steer ``y`` globally
(the Kelley model over the cuts is the guarantee program of
:mod:`teamsolve.extension`), and a Newton step equalizing the active
payoffs pins the optimal mixture superlinearly.  A call runs at most
``_DUAL_ROUNDS`` rounds of that schedule and stops as soon as the
requested value tolerance is certified; the final mixture, active set
and Newton Jacobian are returned so that the next call at a nearby
center certifies in a couple of inner solves.

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

from ._simplex import project_list
from .extension import _guarantee_program
from .games import (
    _validate_mixed_team,
    contract_game,
    contract_players,
    fix_adversary,
)
from .linprog import LpFault, solve_lp

_DUAL_ROUNDS = 2
_INNER_SWEEPS = 120
_KELLEY_ROUNDS = 12
_NEWTON_ROUNDS = 8
_MAX_CUTS = 32
_DUPLICATE_CUT = 1e-6
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
    x'||^2`` at ``prox_point``, the potential the run traces record;
    ``tolerance`` is a certified bound on its distance from the true
    minimum, never below 1e-15.  ``reached`` says whether that bound is
    at most the requested ``tol``, certified within ``_DUAL_ROUNDS``
    certifier rounds; ``iterations`` counts the rounds run.
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
    reached: bool
    iterations: int
    adversary_mix: np.ndarray
    memory: _ProxMemory
    lp_pivots: int
    kelley_faults: int
    inner_solves: int

    @property
    def prox_distance(self):
        return float(np.linalg.norm(_stack(self.center)
                                    - _stack(self.prox_point)))


def _stack(team):
    return np.concatenate([np.asarray(x, dtype=float) for x in team])


def _dist2(team_a, team_b):
    total = 0.0
    for a, b in zip(team_a, team_b):
        d = a - b
        total += float(d @ d)
    return total


def _checked_center(game, center, ell, tol):
    """Check ``ell`` and ``tol``, then validate ``center``."""
    if not (0 < ell < math.inf and 0 < tol < math.inf):
        raise ValueError("ell and tol must be positive and finite")
    return _validate_mixed_team(game, center)


def proximal_point(game, center, ell, tol):
    """Value-approximate minimizer of ``phi(x') + ell * ||center - x'||^2``,
    solved cold (solvers warm-start :func:`_proximal_point` instead).

    Parameters
    ----------
    ell : float
        Weak-convexity bound for ``phi`` (any upper bound is sound).
    tol : float
        Requested value suboptimality.  If ``_DUAL_ROUNDS`` certifier
        rounds end first, the best candidate is returned with its
        certified bound and ``reached=False``.
    """
    center = tuple(np.array(x, dtype=float)
                   for x in _checked_center(game, center, ell, tol))
    return _proximal_point(game, center, ell, tol, None)


def _proximal_point(game, center, ell, tol, warm_start):
    """:func:`proximal_point` at a checked ``center`` tuple it keeps;
    ``warm_start``, a result at a nearby center or None, lends its prox
    point, mixture and Newton state, which usually certify in a couple of
    inner solves."""

    def objective(team):
        vec = contract_game(game, team, None, (game.n,))
        b = int(np.argmax(vec))
        return float(vec[b]) + ell * _dist2(team, center), b

    best_val, best_b = objective(center)
    best_x = center
    y_dual = np.zeros(game.adversary_actions)
    y_dual[best_b] = 1.0
    memory = None
    if warm_start is not None:
        val_w, _ = objective(warm_start.prox_point)
        if val_w < best_val:
            best_val, best_x = val_w, warm_start.prox_point
        y_dual = np.asarray(warm_start.adversary_mix, dtype=float)
        memory = warm_start.memory

    certifier = _DualCertifier(game, center, ell, best_x, y_dual, memory)
    for rounds in range(1, _DUAL_ROUNDS + 1):
        certifier.run(tol, best_val)
        if certifier.best_feasible[1] < best_val:
            best_x, best_val = certifier.best_feasible
        if best_val - certifier.best_lb <= tol:
            break

    tolerance = max(best_val - certifier.best_lb, 1e-15)
    return ProximalResult(
        center=center,
        prox_point=tuple(np.array(v) for v in best_x),
        objective_value=best_val,
        tolerance=tolerance,
        reached=tolerance <= tol,
        iterations=rounds,
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

    def __init__(self, game, center, ell, x_hint, y_hint, memory):
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
        # Near-duplicate cuts leave the Kelley LP ill-conditioned; the model
        # only proposes mixtures, so dropping them keeps every bound sound.
        duplicate = any(
            abs(intercept - c0) <= _DUPLICATE_CUT
            and float(np.max(np.abs(vec_z - s0))) <= _DUPLICATE_CUT
            for c0, s0 in zip(self.cut_intercepts[-4:], self.cut_slopes[-4:]))
        if not duplicate:
            self.cut_intercepts.append(intercept)
            self.cut_slopes.append(vec_z)
            if len(self.cut_intercepts) > _MAX_CUTS:
                del self.cut_intercepts[0]
                del self.cut_slopes[0]
        return vec_z

    def _done(self, tol, value_hint):
        return min(self.best_feasible[1], value_hint) - self.best_lb <= tol

    def export_memory(self):
        active = tuple(int(b) for b in np.nonzero(self.best_y > 1e-9)[0])
        # ``_remember`` sets ``jac_active`` only with a Jacobian.
        jac = self.jac if self.jac_active == active else None
        return _ProxMemory(active=active, jacobian=jac)

    # -- the certification schedule -------------------------------------

    def run(self, tol, value_hint):
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
        """Maximizer of the cut model over the simplex (Kelley step): the
        guarantee program of the cuts' slopes and negated intercepts."""
        _, lp = _guarantee_program([np.array(self.cut_slopes)],
                                   self.game.adversary_actions,
                                   -np.asarray(self.cut_intercepts), None)
        try:
            sol = solve_lp(lp)
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
            moved_free = (w_new - w)[:-1]
            denom = float(moved_free @ moved_free)
            if denom > 0:  # Broyden rank-1 refresh from the actual move
                jac = jac + np.outer(r1 - r0 - jac @ moved_free,
                                     moved_free) / denom
            if float(np.max(np.abs(r1))) > 0.9 * float(np.max(np.abs(r0))):
                jac = None  # stalled; force a fresh finite-difference pass
            w, r0, vec0 = w_new, r1, vec1
        self._remember(active, jac)
        return self._done(tol, value_hint)

    @staticmethod
    def _fd_jacobian(residual, w, r0):
        k = w.size
        h = max(1e-7, 0.01 * float(np.max(np.abs(r0)) if r0.size else 0.0))
        jac = np.zeros((k - 1, k - 1))
        for j in range(k - 1):
            wj = w.copy()
            # Move mass from the last member to member j, or back when the
            # last has none; either keeps the mixture on the simplex.
            shift = min(h, wj[-1])
            if shift <= 0:
                shift = -min(h, wj[j])
                if shift == 0:
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


def _inner_solve(game, center, ell, y, z0, inner_tol):
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
    contracting team axes only.

    The vectors have a few entries each, so everything but the
    contractions runs on lists of Python floats: the elementwise
    operations numpy would perform, in the same order, and sequential
    dot products, which round differently from BLAS.  Returns ``(z, f_z,
    lb, dist2)`` with ``lb <= f_z`` and ``dist2 = ||z - center||^2``,
    from which :meth:`probe` takes its cut intercept.
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
