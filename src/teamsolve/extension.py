"""Completing a team strategy into a full certified equilibrium profile.

Near-stationary team play can be extended to an approximate Nash profile
by handing the adversary the optimum of a small dual linear program whose
coefficients are the team's pure-deviation payoffs.  Nothing here trusts
the theory's hidden constants: every extension is re-certified by
brute-force deviation enumeration (:func:`ne_gap`) before being reported.
That program is the guarantee program of :func:`_guarantee_program`, which
the Kelley model of :mod:`teamsolve.moreau` shares with one block of cuts.
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
from .linprog import LinearProgram, _Template, solve_lp

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
    (``C_i`` and ``W_j`` are pure-deviation payoff matrices, see
    :func:`_extend`).  With ``scale = n - k`` (minimizers minus
    co-maximizers), the anchor profile is feasible at ``U = max_b scale *
    r_b``, where ``r`` are the anchor's response values.

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
    is ``min scale * u`` in disguise and ``u_anchor = scale * u_star``;
    for ``scale <= 0``, ``u_anchor`` is ``scale * min_b r_b`` (0 at scale
    0).

    ``pivots`` is the extension LP's simplex pivot count and ``basis`` its
    final simplex basis, which a caller may offer to the next extension
    LP of the same shape.  ``warm`` is ``"kept"`` when such an offered
    basis was optimal as it stood (then ``pivots`` is 0), ``"repaired"``
    when the LP pivoted from it to the optimum (dual simplex and phase 2,
    no phase 1), ``"dropped"`` when the LP was solved cold despite an
    offer, and ``"none"`` when no basis was offered (see
    :mod:`teamsolve.linprog`).
    """

    u_star: float
    u_anchor: float
    u_joint: float
    dual_total: float
    scale: int
    pivots: int
    basis: tuple | None
    warm: str

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


@functools.lru_cache(maxsize=256)
def _guarantee_template(sizes, n_b, slack):
    """What a guarantee program's block sizes, ``|B|`` and right-hand side
    pattern fix: block offsets and the standard-form template of the
    programs whose right-hand side is ``<= 0`` on the rows that the bytes
    ``slack`` flag."""
    n_g = len(sizes)
    starts = tuple(itertools.accumulate(sizes, initial=0))
    rows = np.zeros((starts[-1], n_g + n_b))
    for k in range(n_g):
        rows[starts[k]:starts[k + 1], k] = -1.0
    cost = np.concatenate([-np.ones(n_g), np.zeros(n_b)])  # solve_lp minimizes
    eq = np.concatenate([np.zeros(n_g), np.ones(n_b)])[None, :]
    rhs = np.where(np.frombuffer(slack, dtype=bool), 0.0, 1.0)
    base = LinearProgram(cost, rows, rhs, eq, np.ones(1),
                         ((None, None),) * n_g + ((0.0, None),) * n_b)
    return starts, _Template(base, slice(n_g, None))


def _guarantee_program(blocks, n_b, rhs, basis):
    """``(starts, lp)``: block offsets and the LP ``max sum_k g_k`` over
    ``(g, y)`` s.t. ``g_k <= M_k[a] . y - rhs[a]`` on every stacked row
    ``a`` of each block ``M_k``, ``y`` a mixture; ``basis`` warm-starts.
    The LP carries its standard form, written from the template of its
    shape."""
    rhs = np.asarray(rhs, dtype=float)
    starts, template = _guarantee_template(
        tuple(M.shape[0] for M in blocks), n_b, (rhs <= 0.0).tobytes())
    return starts, template.program(np.concatenate(blocks), rhs, basis)


def extend_ne(game, team):
    """The adversary's best completion of a team strategy, via the dual
    LP, whose audit :func:`_extend` checks.

    Always feasible by construction (the uniform adversary mixture is),
    so a non-optimal status is an internal solver fault.  When ``team``
    is near-stationary for its worst-case payoff, the completed profile is
    a near-equilibrium; quality should be read off :func:`ne_gap`.
    """
    return _extend(game, _validate_mixed_team(game, team), game.n)[0]


def _extend(game, team, minimizers, basis=None):
    """:func:`extend_ne` unvalidated, returning ``(y, audit, values)``:
    the dual's optimum, its checked audit and the adversary payoff vector
    of ``team``, bitwise ``contract_game(game, team, None, (game.n,))``.

    The dual maximizes the guarantee sum over adversary mixtures.  Each
    team player's block ``C_i`` is its ``|A_i| x |B|`` pure-deviation
    payoff matrix; players from index ``minimizers`` on are co-maximizers,
    whose blocks ``W_j`` enter negated.  The multipliers of each block's
    rows, clamped at 0 and normalized, are that player's strategy in the
    joint-deviation program, and ``u_joint`` is its objective there.
    ``basis``, an earlier audit's, warm-starts the one LP."""
    coeffs, values = extension_coefficients(game, team)
    # Co-maximizer rows carry -W: their deviations count against the sum.
    blocks = coeffs[:minimizers] + [-W for W in coeffs[minimizers:]]
    n_g, n_b = len(blocks), values.size
    scale = 2 * minimizers - len(coeffs)
    starts, dual_lp = _guarantee_program(
        blocks, n_b, np.zeros(sum(M.shape[0] for M in blocks)), basis)
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
        u_star=float(values.max()),
        u_anchor=float((scale * values).max()),
        u_joint=float(deviation.max()),
        dual_total=-float(dual_sol.value), scale=scale,
        pivots=len(dual_sol.pivots), basis=dual_sol.basis,
        warm=("none" if basis is None else "dropped" if not dual_sol.warm
              else "repaired" if dual_sol.pivots else "kept")).check()
    return y, audit, values
