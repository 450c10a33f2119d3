"""Projected gradient descent against a best-responding adversary.

Each iteration certifies the current profile by brute-force deviation
enumeration, lets the adversary best-respond, takes a simultaneous
projected gradient step for every team player, and re-extends the team
strategy to a full profile through the dual LP.  The proximal potential
is recorded along the way so runs can be audited for strict decrease.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ._simplex import project_simplex
from .extension import _deviation_gaps, _extend
from .games import (
    MixedProfile,
    _validate_mixed_team,
    analytic_bounds,
    contract_game,
    contract_players,
    uniform_profile,
)
from .moreau import proximal_point

TRACE_VERSION = "teamsolve-trace-v1"
TRACE_COLUMNS = ("t", "potential_g", "ne_gap", "step_norm", "br_action")
# Where a solver's wall time goes: equilibrium checks (ne_gap), extension
# LPs, proximal-point calls, the gradient steps themselves and, in
# two_team.gd_mm, the minmax oracle (gradient_descent_max has no oracle,
# gd_mm no proximal point).
PHASES = ("certify", "extend", "oracle", "prox", "step")

# Documented budget constant: max_iters defaults to
# ceil(K_BUDGET * (2 V + 2 ell n) / epsilon^4), the potential's range over
# the worst-case decrease rate.
K_BUDGET = 1.0
_MAX_BACKOFFS = 60


@dataclass(frozen=True)
class GdConfig:
    """Solver knobs; everything unset falls back to a documented rule.

    ``eta`` defaults to :func:`default_eta` with the analytic bounds
    (conservative enough for the potential-decrease guarantee);
    ``max_iters`` to the potential-range budget above.  The prox
    tolerance is fixed at ``epsilon^4 / 64``.  ``check_every`` sets how
    often the potential is recorded (every iteration by default; ``0``
    disables it); the equilibrium check itself runs every iteration.
    ``seed`` only matters for ``init="dirichlet"``.
    """

    epsilon: float
    eta: float | None = None
    max_iters: int | None = None
    seed: int = 0
    check_every: int = 1
    init: str = "uniform"

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.eta is not None and not (self.eta > 0):
            raise ValueError("eta must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.check_every < 0:
            raise ValueError("check_every must be >= 0")
        if self.init not in ("uniform", "dirichlet"):
            raise ValueError("init must be 'uniform' or 'dirichlet'")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    t: int
    potential_g: float | None
    ne_gap: float
    step_norm: float
    br_action: int


@dataclass
class RunTrace:
    """Per-iteration audit trail of one solver run, and the loop skeleton
    that :func:`gradient_descent_max` and :func:`teamsolve.two_team.gd_mm`
    share: :meth:`extend`, :meth:`record` and :meth:`finish`.

    ``iterations`` holds one record per equilibrium check; the potential
    is present on every ``check_every``-th record.  ``extend_calls``
    counts the run's extension LPs and ``lp_pivots`` sums their simplex
    pivots; duality statistics aggregate over the same calls.
    ``prox_lp_pivots`` sums the pivots of the Kelley LPs inside every
    proximal-point call, backed-off ones included, and
    ``prox_kelley_faults`` counts those that raised ``LpFault``;
    ``prox_inner_solves`` sums the inner solves of the same calls.
    Monotonicity fields summarize the recorded potential decreases
    against the allowance ``2 * max_prox_tolerance + 1e-9``.  The
    ``final_*`` fields hold the returned profile, its certified gap and
    the step size in force at the end.  ``phase_s`` maps each of
    :data:`PHASES` to the wall seconds the run spent in it (a phase a
    solver lacks stays zero), left out of the bit-identical ``iterations``.
    """

    epsilon: float
    eta: float
    prox_tol: float
    iterations: list = field(default_factory=list)
    outcome: str = "budget_exhausted"
    final_profile: MixedProfile | None = None
    final_ne_gap: float | None = None
    extend_calls: int = 0
    lp_pivots: int = 0
    prox_lp_pivots: int = 0
    prox_kelley_faults: int = 0
    prox_inner_solves: int = 0
    max_sd_residual: float = 0.0
    min_duality_margin: float = math.inf
    max_prox_tolerance: float = 0.0
    eta_backoffs: int = 0
    final_eta: float | None = None
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    # The best record's (gap, profile, certificate) and the last iterate.
    _best: tuple = field(default=(math.inf, None, None), init=False)
    _point: np.ndarray | None = field(default=None, init=False)

    @property
    def potential_pairs(self):
        """Consecutive recorded potential values (earlier one non-terminal)."""
        recorded = [(r.t, r.potential_g) for r in self.iterations
                    if r.potential_g is not None]
        return [(a, b) for a, b in zip(recorded, recorded[1:])]

    @property
    def monotonicity_allowance(self):
        return 2.0 * max(self.prox_tol, self.max_prox_tolerance) + 1e-9

    def monotonicity_violations(self):
        allow = self.monotonicity_allowance
        return sum(1 for (_, ga), (_, gb) in self.potential_pairs
                   if gb - ga > allow)

    def median_decrease(self):
        drops = [ga - gb for (_, ga), (_, gb) in self.potential_pairs]
        return float(np.median(drops)) if drops else math.nan

    def record_extension(self, audit):
        """Count one checked extension call and fold in its audit."""
        self.extend_calls += 1
        self.lp_pivots += audit.pivots
        self.max_sd_residual = max(self.max_sd_residual, audit.sd_residual)
        self.min_duality_margin = min(self.min_duality_margin, audit.margin)

    def extend(self, game, team, minimizers):
        """Solve, time and record :func:`teamsolve.extension._extend` of an
        unvalidated team; returns ``(y, values)``, the adversary's mixture
        and the team's adversary payoff vector."""
        y, audit, values = self.timed("extend", _extend, game, team,
                                      minimizers)
        self.record_extension(audit)
        return y, values

    def prox(self, game, center, ell, tol, warm_start=None):
        """Time :func:`~teamsolve.moreau.proximal_point`; add its counters."""
        result = self.timed("prox", proximal_point, game, center, ell, tol,
                            warm_start=warm_start)
        self.prox_lp_pivots += result.lp_pivots
        self.prox_kelley_faults += result.kelley_faults
        self.prox_inner_solves += result.inner_solves
        return result

    def timed(self, phase, fn, *args, **kwargs):
        """Call ``fn`` and add its wall seconds to ``phase_s[phase]``."""
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phase_s[phase] += perf_counter() - began

    def record(self, profile, cert, point, br_action, potential_g=None):
        """Append one iteration's record, keep the best-gap ``profile``
        and return whether ``cert`` meets epsilon.  ``step_norm`` is the
        distance from the last ``point``, the iterate as one flat vector."""
        step_norm = (0.0 if self._point is None
                     else float(np.linalg.norm(point - self._point)))
        self._point = point
        self.iterations.append(IterationRecord(
            t=len(self.iterations), potential_g=potential_g,
            ne_gap=cert.gap, step_norm=step_norm, br_action=br_action))
        if cert.gap < self._best[0]:
            self._best = (cert.gap, profile, cert)
        return cert.gap <= self.epsilon

    def finish(self, profile=None, cert=None):
        """Converge on ``profile``, or without one exhaust the budget on the
        best record; returns ``(profile, cert, trace)``."""
        if profile is None:
            _, profile, cert = self._best
        else:
            self.outcome = "converged"
        self.final_profile = profile
        self.final_ne_gap = cert.gap
        return profile, cert, self

    def to_csv(self):
        buf = io.StringIO()
        buf.write(f"# {TRACE_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for r in self.iterations:
            pot = "" if r.potential_g is None else repr(r.potential_g)
            writer.writerow([r.t, pot, repr(r.ne_gap), repr(r.step_norm),
                             r.br_action])
        return buf.getvalue()

    def summary(self):
        return {
            "outcome": self.outcome,
            "iterations": len(self.iterations),
            "epsilon": self.epsilon,
            "eta": self.eta,
            "final_eta": self.final_eta,
            "eta_backoffs": self.eta_backoffs,
            "prox_tol": self.prox_tol,
            "max_prox_tolerance": self.max_prox_tolerance,
            "extend_calls": self.extend_calls,
            "lp_pivots": self.lp_pivots,
            "prox_lp_pivots": self.prox_lp_pivots,
            "prox_kelley_faults": self.prox_kelley_faults,
            "prox_inner_solves": self.prox_inner_solves,
            "max_sd_residual": self.max_sd_residual,
            "min_duality_margin": (None if math.isinf(self.min_duality_margin)
                                   else self.min_duality_margin),
            "monotonicity_violations": self.monotonicity_violations(),
            "median_potential_decrease": _none_if_nan(self.median_decrease()),
            "final_ne_gap": self.final_ne_gap,
            "phase_s": dict(self.phase_s),
        }


def _none_if_nan(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def default_eta(game, epsilon, movers=None):
    """``epsilon^2 * ell / (L^2 * movers)``: the potential-decrease argument

    trades a gain of order ``eta * ell^2 * d^2`` (``d`` the proximal
    distance) against a loss of order ``eta^2 * ell * L^2`` per step, so
    steps below ``2 ell d^2 / L^2`` make progress; this default
    instantiates that threshold at ``d ~ epsilon``, split across the
    simultaneous movers (the ``n`` team players unless ``movers`` is
    given).  Degenerate zero bounds (constant games) fall back to 1.
    """
    bounds = analytic_bounds(game)
    denom = bounds.lipschitz ** 2 * (game.n if movers is None else movers)
    return epsilon ** 2 * bounds.smoothness / denom if denom > 0 else 1.0


def default_max_iters(game, epsilon):
    potential_range = (2.0 * game.v_max
                       + 2.0 * analytic_bounds(game).smoothness * game.n)
    return max(1, math.ceil(K_BUDGET * max(potential_range, 1.0)
                            / epsilon ** 4))


def _certified_extension(game, team, trace):
    """Extend a candidate team strategy and certify it; None if over eps."""
    y, values = trace.extend(game, team, game.n)
    cert = trace.timed("certify", _deviation_gaps, game, team, y, values,
                       game.n, trace.epsilon)
    return (MixedProfile(team, y), cert) if cert.gap <= trace.epsilon else None


def _descent(game, team, values):
    """:func:`gd_step` on an unvalidated team with adversary payoff vector
    ``values``: the adversary's first best pure reply and the step map
    ``eta -> new team`` against it."""
    br_action = int(np.argmax(values))
    grads = contract_players(game, team, br_action)
    return br_action, lambda eta: tuple(project_simplex(x - eta * g)
                                        for x, g in zip(team, grads))


def gd_step(game, team, eta):
    """One simultaneous projected descent step against the best response.

    Every player moves along its own gradient evaluated at the adversary's
    pure best response to the *current* team profile (Jacobi update), then
    projects back to its simplex.  Returns ``(new_team, br_action)``.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    team = _validate_mixed_team(game, team)
    br_action, step = _descent(game, team,
                               contract_game(game, team, None, (game.n,)))
    return step(eta), br_action


def gradient_descent_max(game, config):
    """Run the descent loop until a certified epsilon-equilibrium.

    Returns ``(profile, certificate, trace)``.  The certificate is always
    the brute-force deviation check of the returned profile; ``converged``
    outcomes therefore carry a certified gap at most ``config.epsilon``.
    On budget exhaustion the best profile seen (by certified gap) is
    returned instead, flagged in ``trace.outcome``.  Iterates stay on the
    simplex by construction, so the loop validates nothing: it steps
    through :func:`gd_step`'s core and runs :class:`RunTrace`'s skeleton.

    Two safeguards shape the endgame.  The proximal point computed for
    the potential is also extended and certified (it is the
    near-stationary candidate the extension theory speaks about), which
    usually ends runs before raw-iterate oscillation sets in.  And a step
    whose recorded potential would *rise* by more than the prox tolerance
    is rejected and retaken with half the step size, so the recorded
    potential decreases by construction; backoffs are counted in the
    trace.
    """
    eta = (config.eta if config.eta is not None
           else default_eta(game, config.epsilon))
    max_iters = (config.max_iters if config.max_iters is not None
                 else default_max_iters(game, config.epsilon))
    prox_tol = config.epsilon ** 4 / 64.0
    ell = max(analytic_bounds(game).smoothness, 1e-12)

    if config.init == "dirichlet":
        rng = np.random.default_rng(config.seed)
        team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
    else:
        team = uniform_profile(game).team
    adversary = np.full(game.adversary_actions, 1.0 / game.adversary_actions)
    # Later iterates take this vector from their extension LP.
    values = contract_game(game, team, None, (game.n,))

    trace = RunTrace(epsilon=config.epsilon, eta=eta, prox_tol=prox_tol,
                     final_eta=eta)
    prox_state = None
    last_potential = None

    def prox_due(step_index):
        return config.check_every and step_index % config.check_every == 0

    if prox_due(0):
        prox_state = trace.prox(game, team, ell, prox_tol)

    for t in range(max_iters):
        profile = MixedProfile(team, adversary)
        cert = trace.timed("certify", _deviation_gaps, game, team, adversary,
                           values, game.n, config.epsilon)
        potential = None
        smoothed = None
        if prox_due(t):
            potential = prox_state.potential_g
            last_potential = potential
            trace.max_prox_tolerance = max(trace.max_prox_tolerance,
                                           prox_state.tolerance)
            near_end = cert.gap <= 2.0 * config.epsilon or t % 10 == 0
            if cert.gap > config.epsilon and near_end:
                smoothed = _certified_extension(game, prox_state.prox_point,
                                                trace)
        br_action, step = trace.timed("step", _descent, game, team, values)
        if trace.record(profile, cert, np.concatenate(team), br_action,
                        potential):
            return trace.finish(profile, cert)
        if smoothed is not None:
            return trace.finish(*smoothed)

        while True:
            new_team = trace.timed("step", step, eta)
            new_prox = None
            if prox_due(t + 1):
                new_prox = trace.prox(game, new_team, ell, prox_tol,
                                      warm_start=prox_state)
                rise = (new_prox.potential_g - last_potential
                        if last_potential is not None else -math.inf)
                if (rise > prox_tol and eta > 1e-12
                        and trace.eta_backoffs < _MAX_BACKOFFS):
                    eta *= 0.5
                    trace.eta_backoffs += 1
                    trace.final_eta = eta
                    continue
            break
        team = new_team
        if new_prox is not None:
            prox_state = new_prox
        adversary, values = trace.extend(game, team, game.n)

    return trace.finish()
