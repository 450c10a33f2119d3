"""Completing a team strategy into a full certified equilibrium profile.

Near-stationary team play can be extended to an approximate Nash profile
by handing the adversary the optimum of a small dual linear program whose
coefficients are the team's pure-deviation payoffs.  Nothing here trusts
the theory's hidden constants: every extension is re-certified by
brute-force deviation enumeration (:func:`ne_gap`) before being reported.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .games import (
    _validate_mixed_team,
    contract_game,
    contract_players,
    extension_coefficients,
)
from .linprog import LinearProgram, solve_lp

DUALITY_TOL = 1e-7


class DualityError(Exception):
    """An extension call violated its duality invariants."""


@dataclass(frozen=True, slots=True)
class NeCertificate:
    """Best unilateral pure-deviation benefits at a profile.

    ``gap_team`` is the largest payoff reduction any single team player
    can achieve; ``gap_adversary`` the largest payoff increase available
    to the adversary.  The profile is an ``epsilon``-Nash equilibrium iff
    ``gap <= epsilon``.
    """

    gap_team: float
    gap_adversary: float
    epsilon_claimed: float = math.nan

    @property
    def gap(self):
        return max(self.gap_team, self.gap_adversary)

    def is_epsilon_ne(self, epsilon=None):
        eps = self.epsilon_claimed if epsilon is None else epsilon
        return self.gap <= eps

    def to_dict(self):
        return {"gap_team": self.gap_team,
                "gap_adversary": self.gap_adversary,
                "gap": self.gap,
                "epsilon_claimed": self.epsilon_claimed}


@dataclass(frozen=True, slots=True)
class ExtensionAudit:
    """Duality bookkeeping recorded on every extension call.

    The extension dual's LP dual is the joint-deviation program: minimize
    a free ``U`` subject to ``U >= sum_i C_i^T x_i - sum_j W_j^T y_j`` at
    every pure last-maximizer action, every block a probability vector
    (see :func:`solve_extension_pair` for ``C_i`` and ``W_j``).  With
    ``scale = n - k`` (minimizers minus co-maximizers), the anchor profile
    is feasible at ``U = max_b scale * r_b``, where ``r`` are the anchor's
    response values.

    ``u_star = max_b r_b`` is the best-response value at the anchor,
    ``u_anchor = max_b scale * r_b`` the program's objective there,
    ``u_joint`` its objective at the point read from the extension dual's
    row multipliers (each player's block clamped at 0 and normalized), an
    upper bound on its optimum, and ``dual_total`` the dual optimum (sum
    of the per-player guarantees), a lower bound on the same optimum.
    ``margin = u_anchor - u_joint`` must be nonnegative and
    ``sd_residual = |dual_total - u_joint|`` must vanish, both up to
    ``1e-7``, so passing :meth:`check` certifies both bounds optimal.  All
    of these are finite at every scale.  For ``scale >= 1`` the program
    is ``min scale * u`` in disguise: ``u_anchor = scale * u_star`` and
    ``u_opt = u_joint / scale`` is the per-unit optimum, so ``margin =
    scale * (u_star - u_opt)``.  For ``scale <= 0`` there is no per-unit
    reading and ``u_opt`` is NaN; ``u_anchor`` is ``scale * min_b r_b``
    (0 at scale 0).  ``pivots`` is the extension LP's simplex pivot count.
    """

    u_star: float
    u_anchor: float
    u_joint: float
    dual_total: float
    scale: int
    pivots: int = 0

    @property
    def u_opt(self):
        return self.u_joint / self.scale if self.scale >= 1 else math.nan

    @property
    def margin(self):
        return self.u_anchor - self.u_joint

    @property
    def sd_residual(self):
        return abs(self.dual_total - self.u_joint)

    def check(self):
        if not self.margin >= -DUALITY_TOL:
            raise DualityError(
                f"feasibility chain violated: anchor objective "
                f"{self.u_anchor!r} < optimum {self.u_joint!r}")
        if not self.sd_residual <= DUALITY_TOL * max(1.0, abs(self.u_joint)):
            raise DualityError(
                f"strong duality violated: dual total {self.dual_total!r} "
                f"vs primal optimum {self.u_joint!r}")
        return self


def ne_gap(game, profile, epsilon_claimed=math.nan):
    """Certify a profile by enumerating all unilateral pure deviations.

    By multilinearity a best deviation is always pure, so the maxima are
    exact.
    """
    profile.validate(game)
    adv = contract_game(game, profile.team, None, (game.n,))
    return _deviation_gaps(game, profile.team, profile.adversary, adv, game.n,
                           epsilon_claimed)


def _deviation_gaps(game, team, y, adv, minimizers, epsilon_claimed):
    """:func:`ne_gap` unvalidated, given the adversary payoff vector
    ``adv`` of ``team``; team players from ``minimizers`` on gain, like
    the adversary, by raising the payoff."""
    value = float(adv @ y)
    devs = contract_players(game, team, y)
    gap_team = max(value - float(np.min(d)) for d in devs[:minimizers])
    gap_adversary = max(float(np.max(d)) - value
                        for d in (adv, *devs[minimizers:]))
    return NeCertificate(gap_team, gap_adversary, epsilon_claimed)


def vi_residual(game, profile):
    """Largest first-order improvement available over both strategy sets.

    Maximizing the gradient inner products over the feasible polytopes is
    a vertex problem, solved here in closed form.  The residual upper
    bounds both certificate gaps, so a point with residual below epsilon
    is an epsilon-equilibrium.
    """
    profile.validate(game)
    team, y = profile.team, profile.adversary
    team_part = 0.0
    for x, g in zip(team, contract_players(game, team, y)):
        team_part += float(x @ g) - float(np.min(g))
    adv = contract_game(game, team, None, (game.n,))
    adv_part = float(np.max(adv)) - float(adv @ y)
    return max(team_part, adv_part)


@functools.lru_cache(maxsize=64)
def _extension_frame(sizes, n_b):
    """The parts of an extension LP fixed by its block sizes and ``|B|``:
    block offsets, the guarantee columns, cost, zero right-hand side,
    equality row and right-hand side, and bounds."""
    n_g = len(sizes)
    starts = tuple(itertools.accumulate(sizes, initial=0))
    guarantees = np.zeros((starts[-1], n_g))
    for k in range(n_g):
        guarantees[starts[k]:starts[k + 1], k] = -1.0
    cost = np.concatenate([-np.ones(n_g), np.zeros(n_b)])  # solve_lp minimizes
    eq = np.concatenate([np.zeros(n_g), np.ones(n_b)])[None, :]
    arrays = (guarantees, cost, np.zeros(starts[-1]), eq, np.ones(1))
    for arr in arrays:
        arr.setflags(write=False)
    return starts, *arrays, ((None, None),) * n_g + ((0.0, None),) * n_b


def solve_extension_pair(minimizer_coeffs, maximizer_coeffs, response_values):
    """Solve the extension dual LP and audit it from its row multipliers.

    ``minimizer_coeffs`` lists one ``|A_i| x |B|`` matrix per team player
    (pure-deviation payoffs against each pure adversary action);
    ``maximizer_coeffs`` lists the analogous matrices for co-adversaries
    whose deviations must not gain (empty for a single adversary).
    ``response_values`` are the anchor profile's payoffs against each pure
    adversary action, whose maximum is the best-response value ``u_star``.

    The dual maximizes the per-player guarantee sum over adversary
    mixtures; its optimum ``y`` is returned together with the audit, which
    has already been checked.  One LP is solved: the multipliers of each
    player's rows, clamped at 0 and normalized, are that player's mixed
    strategy in the joint-deviation program, and ``u_joint`` is the
    program's objective at that point.
    """
    # Co-maximizer rows carry -W: their deviations count against the sum.
    blocks = list(minimizer_coeffs) + [-W for W in maximizer_coeffs]
    n_g, n_b = len(blocks), response_values.size
    starts, guarantees, cost, rhs, eq, f, bounds = _extension_frame(
        tuple(M.shape[0] for M in blocks), n_b)
    scale = len(minimizer_coeffs) - len(maximizer_coeffs)
    # Dual variables (g_1..g_K, y), one guarantee per block: maximize sum g
    # s.t. g_k <= M_k[a] . y on every row of every block.
    rows = np.empty((starts[-1], n_g + n_b))
    rows[:, :n_g] = guarantees
    rows[:, n_g:] = np.concatenate(blocks)
    dual_lp = LinearProgram(cost, rows, rhs, eq, f, bounds)
    dual_sol = solve_lp(dual_lp).require_optimal()
    y = np.maximum(dual_sol.primal[n_g:], 0.0)
    y = y / y.sum()

    # A zero block sum gives NaN, which check() rejects.
    weights = np.maximum(dual_sol.dual, 0.0)
    deviation = np.zeros(n_b)
    for k, M in enumerate(blocks):
        lam = weights[starts[k]:starts[k + 1]]
        deviation += M.T @ (lam / lam.sum())

    audit = ExtensionAudit(
        u_star=float(response_values.max()),
        u_anchor=float((scale * response_values).max()),
        u_joint=float(deviation.max()),
        dual_total=-float(dual_sol.value), scale=scale,
        pivots=len(dual_sol.pivots)).check()
    return y, audit


def extend_ne(game, team, with_audit=False):
    """Best adversary completion of a team strategy, via the dual LP.

    Always feasible by construction (the uniform adversary mixture is),
    so a non-optimal status is an internal solver fault.  When ``team``
    is near-stationary for its worst-case payoff, the returned pair is a
    near-equilibrium; quality should be read off :func:`ne_gap`, not
    assumed.
    """
    y, audit, _ = _extend(game, _validate_mixed_team(game, team), game.n)
    return (y, audit) if with_audit else y


def _extend(game, team, minimizers):
    """:func:`extend_ne` unvalidated, returning ``(y, audit, values)``
    with ``values`` the adversary payoff vector of ``team``, bitwise
    ``contract_game(game, team, None, (game.n,))``.  Team players from
    index ``minimizers`` on are co-maximizers."""
    coeffs, values = extension_coefficients(game, team)
    return (*solve_extension_pair(coeffs[:minimizers], coeffs[minimizers:],
                                  values), values)
