"""Completing a team strategy into a full certified equilibrium profile.

Near-stationary team play can be extended to an approximate Nash profile
by handing the adversary the optimum of a small dual linear program whose
coefficients are the team's pure-deviation payoffs.  Nothing here trusts
the theory's hidden constants: every extension is re-certified by
brute-force deviation enumeration (:func:`ne_gap`) before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import _validate_team, contract_game
from .linprog import LinearProgram, solve_lp

DUALITY_TOL = 1e-7


class DualityError(Exception):
    """An extension call violated its duality invariants."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    ``u_joint`` its optimum and ``dual_total`` the dual optimum (sum of
    the per-player multipliers).  ``margin = u_anchor - u_joint`` must be
    nonnegative and ``sd_residual = |dual_total - u_joint|`` must vanish,
    both up to ``1e-7``.  All of these are finite at every scale.  For
    ``scale >= 1`` the program is ``min scale * u`` in disguise:
    ``u_anchor = scale * u_star`` and ``u_opt = u_joint / scale`` is the
    per-unit optimum, so ``margin = scale * (u_star - u_opt)``.  For
    ``scale <= 0`` there is no per-unit reading and ``u_opt`` is NaN;
    ``u_anchor`` is ``scale * min_b r_b`` (0 at scale 0).
    """

    u_star: float
    u_anchor: float
    u_joint: float
    dual_total: float
    scale: int

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

    By multilinearity a best deviation is always pure, so the two maxima
    below are exact.
    """
    profile.validate(game)
    team, y = profile.team, profile.adversary
    adv = contract_game(game, team, None, (game.n,))
    value = float(adv @ y)
    gap_team = -math.inf
    for i in range(game.n):
        devs = contract_game(game, team, y, (i,))
        gap_team = max(gap_team, value - float(np.min(devs)))
    gap_adversary = float(np.max(adv)) - value
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
    for i in range(game.n):
        g = contract_game(game, team, y, (i,))
        team_part += float(team[i] @ g) - float(np.min(g))
    adv = contract_game(game, team, None, (game.n,))
    adv_part = float(np.max(adv)) - float(adv @ y)
    return max(team_part, adv_part)


def solve_extension_pair(minimizer_coeffs, maximizer_coeffs, response_values):
    """Solve the extension dual LP and audit it against its primal.

    ``minimizer_coeffs`` lists one ``|A_i| x |B|`` matrix per team player
    (pure-deviation payoffs against each pure adversary action);
    ``maximizer_coeffs`` lists the analogous matrices for co-adversaries
    whose deviations must not gain (empty for a single adversary).
    ``response_values`` are the anchor profile's payoffs against each pure
    adversary action, whose maximum is the best-response value ``u_star``.

    The dual maximizes the per-player guarantee sum over adversary
    mixtures; its optimum ``y`` is returned together with the audit, which
    has already been checked.
    """
    n_b = response_values.size
    n_min = len(minimizer_coeffs)
    n_max = len(maximizer_coeffs)
    scale = n_min - n_max
    # Dual variables (z_1..z_n, w_1..w_k, y): maximize sum z + sum w.
    n_vars = n_min + n_max + n_b
    cost = np.zeros(n_vars)
    cost[:n_min + n_max] = -1.0  # solve_lp minimizes
    rows = []
    rhs = []
    for i, C in enumerate(minimizer_coeffs):
        for a in range(C.shape[0]):
            row = np.zeros(n_vars)
            row[i] = -1.0
            row[n_min + n_max:] = C[a]
            rows.append(row)
            rhs.append(0.0)
    for j, W in enumerate(maximizer_coeffs):
        for bp in range(W.shape[0]):
            row = np.zeros(n_vars)
            row[n_min + j] = -1.0
            row[n_min + n_max:] = -W[bp]
            rows.append(row)
            rhs.append(0.0)
    eq = np.zeros((1, n_vars))
    eq[0, n_min + n_max:] = 1.0
    bounds = [(None, None)] * (n_min + n_max) + [(0.0, None)] * n_b
    dual_lp = LinearProgram(cost, np.array(rows), np.array(rhs), eq,
                            np.ones(1), bounds)
    dual_sol = solve_lp(dual_lp).require_optimal()
    y = np.maximum(dual_sol.primal[n_min + n_max:], 0.0)
    y = y / y.sum()
    dual_total = -float(dual_sol.value)

    audit = ExtensionAudit(
        u_star=float(np.max(response_values)),
        u_anchor=float(np.max(scale * response_values)),
        u_joint=_joint_deviation_optimum(minimizer_coeffs, maximizer_coeffs),
        dual_total=dual_total, scale=scale).check()
    return y, audit


def _joint_deviation_optimum(minimizer_coeffs, maximizer_coeffs):
    """Optimum of the primal program the extension dual certifies.

    Variables ``(U, x_1..x_n, y_1..y_k)``: minimize the free ``U`` subject
    to, for every pure adversary action, ``U`` covering the summed
    minimizer deviation payoffs minus the summed co-adversary ones, with
    every block a probability vector.  Every block's equality makes the
    program feasible and the adversary rows bound ``U`` below, so it is
    well posed at every scale.
    """
    sizes_min = [C.shape[0] for C in minimizer_coeffs]
    sizes_max = [W.shape[0] for W in maximizer_coeffs]
    n_b = (minimizer_coeffs[0].shape[1] if minimizer_coeffs
           else maximizer_coeffs[0].shape[1])
    n_vars = 1 + sum(sizes_min) + sum(sizes_max)
    cost = np.zeros(n_vars)
    cost[0] = 1.0
    rows = np.zeros((n_b, n_vars))
    rows[:, 0] = 1.0
    offset = 1
    for C, k in zip(minimizer_coeffs, sizes_min):
        rows[:, offset:offset + k] = -C.T
        offset += k
    for W, k in zip(maximizer_coeffs, sizes_max):
        rows[:, offset:offset + k] = W.T
        offset += k
    eqs = np.zeros((len(sizes_min) + len(sizes_max), n_vars))
    offset = 1
    for r, k in enumerate(sizes_min + sizes_max):
        eqs[r, offset:offset + k] = 1.0
        offset += k
    bounds = [(None, None)] + [(0.0, None)] * (n_vars - 1)
    lp = LinearProgram(cost, rows, np.zeros(n_b), eqs,
                       np.ones(len(sizes_min) + len(sizes_max)), bounds)
    return float(solve_lp(lp).require_optimal().value)


def extend_ne(game, team, with_audit=False):
    """Best adversary completion of a team strategy, via the dual LP.

    Always feasible by construction (the uniform adversary mixture is),
    so a non-optimal status is an internal solver fault.  When ``team``
    is near-stationary for its worst-case payoff, the returned pair is a
    near-equilibrium; quality should be read off :func:`ne_gap`, not
    assumed.
    """
    team = _validate_team(game, team)
    coeffs = [contract_game(game, team, None, (i, game.n))
              for i in range(game.n)]
    values = contract_game(game, team, None, (game.n,))
    y, audit = solve_extension_pair(coeffs, [], values)
    return (y, audit) if with_audit else y
