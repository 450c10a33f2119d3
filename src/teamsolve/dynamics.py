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
from .extension import extend_ne, ne_gap
from .games import (
    MixedProfile,
    adversary_best_response,
    analytic_bounds,
    contract_game,
    team_gradients,
    uniform_profile,
)
from .moreau import proximal_point

TRACE_VERSION = "teamsolve-trace-v1"
TRACE_COLUMNS = ("t", "potential_g", "ne_gap", "step_norm", "br_action")
# Where gradient_descent_max's wall time goes: equilibrium checks (ne_gap),
# extension LPs, proximal-point calls and the gradient steps themselves.
PHASES = ("certify", "extend", "prox", "step")

# Documented budget constant: max_iters defaults to
# ceil(K_BUDGET * (2 V + 2 ell n) / epsilon^4), the potential's range over
# the worst-case decrease rate.
K_BUDGET = 1.0
_MAX_BACKOFFS = 60


@dataclass(frozen=True)
class GdConfig:
    """Solver knobs; everything unset falls back to a documented rule.

    ``eta`` defaults to ``epsilon^2 / (ell * L^2 * n)`` with the analytic
    bounds (conservative enough for the potential-decrease guarantee);
    ``max_iters`` to the potential-range budget above; ``prox_tol`` to
    ``epsilon^4 / 64``.  ``check_every`` sets how often the potential is
    recorded (every iteration by default; ``0`` disables it); the
    equilibrium check itself runs every iteration.  ``seed`` only matters
    for ``init="dirichlet"``.
    """

    epsilon: float
    eta: float | None = None
    max_iters: int | None = None
    seed: int = 0
    check_every: int = 1
    prox_tol: float | None = None
    init: str = "uniform"
    bounds: object = None  # SmoothnessBounds override

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


@dataclass(frozen=True)
class IterationRecord:
    t: int
    potential_g: float | None
    ne_gap: float
    step_norm: float
    br_action: int


@dataclass
class RunTrace:
    """Per-iteration audit trail of one solver run.

    ``iterations`` holds one record per equilibrium check; the potential
    is present on every ``check_every``-th record.  ``extend_calls``
    counts the run's extension LPs and ``lp_pivots`` sums their simplex
    pivots; duality statistics aggregate over the same calls (see
    :meth:`record_extension`).  ``prox_lp_pivots`` sums the pivots of the
    Kelley LPs inside every proximal-point call, backed-off ones included,
    and ``prox_kelley_faults`` counts those that raised ``LpFault``;
    ``prox_inner_solves`` sums the inner solves of the same calls.
    Monotonicity fields summarize the recorded potential decreases
    against the allowance ``2 * max_prox_tolerance + 1e-9``.
    ``final_profile`` and ``final_ne_gap`` are the returned profile and
    its certified gap.  ``phase_s`` maps each of :data:`PHASES` to the
    wall seconds :func:`gradient_descent_max` spent in it (zero elsewhere);
    being timings, they are left out of the bit-identical ``iterations``.
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

    def record_prox(self, result):
        """Fold in the counters of one proximal-point call."""
        self.prox_lp_pivots += result.lp_pivots
        self.prox_kelley_faults += result.kelley_faults
        self.prox_inner_solves += result.inner_solves

    def timed(self, phase, fn, *args, **kwargs):
        """Call ``fn`` and add its wall seconds to ``phase_s[phase]``."""
        began = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.phase_s[phase] += perf_counter() - began

    def finish(self, outcome, profile, cert):
        """Record the outcome and the returned profile with its certificate.

        Returns ``(profile, cert, trace)``, the solvers' return value.
        """
        self.outcome = outcome
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


def default_eta(game, epsilon, bounds=None):
    """``epsilon^2 * ell / (L^2 * n)``: the potential-decrease argument

    trades a gain of order ``eta * ell^2 * d^2`` (``d`` the proximal
    distance) against a loss of order ``eta^2 * ell * L^2`` per step, so
    steps below ``2 ell d^2 / L^2`` make progress; this default
    instantiates that threshold at ``d ~ epsilon``, split across the
    ``n`` simultaneous movers.  Degenerate zero bounds (constant games)
    fall back to 1.
    """
    bounds = bounds or analytic_bounds(game)
    denom = bounds.lipschitz ** 2 * game.n
    return epsilon ** 2 * bounds.smoothness / denom if denom > 0 else 1.0


def default_max_iters(game, epsilon, bounds=None):
    bounds = bounds or analytic_bounds(game)
    potential_range = 2.0 * game.v_max + 2.0 * bounds.smoothness * game.n
    return max(1, math.ceil(K_BUDGET * max(potential_range, 1.0)
                            / epsilon ** 4))


def _certified_extension(game, team, epsilon, trace):
    """Extend a candidate team strategy and certify it; None if over eps."""
    y, audit = trace.timed("extend", extend_ne, game, team, with_audit=True)
    trace.record_extension(audit)
    candidate = MixedProfile(team, y)
    cert = trace.timed("certify", ne_gap, game, candidate,
                       epsilon_claimed=epsilon)
    if cert.gap <= epsilon:
        return candidate, cert
    return None


def gd_step(game, team, eta, bounds=None):
    """One simultaneous projected descent step against the best response.

    Every player moves along its own gradient evaluated at the adversary's
    pure best response to the *current* team profile (Jacobi update), then
    projects back to its simplex.  Returns ``(new_team, br_action)``.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    br_action, _ = adversary_best_response(game, team)
    grads = team_gradients(game, team, br_action)
    new_team = tuple(project_simplex(x - eta * g)
                     for x, g in zip(team, grads))
    return new_team, br_action


def gradient_descent_max(game, config):
    """Run the descent loop until a certified epsilon-equilibrium.

    Returns ``(profile, certificate, trace)``.  The certificate is always
    the brute-force deviation check of the returned profile; ``converged``
    outcomes therefore carry a certified gap at most ``config.epsilon``.
    On budget exhaustion the best profile seen (by certified gap) is
    returned instead, flagged in ``trace.outcome``.

    Two safeguards shape the endgame.  The proximal point computed for
    the potential is also extended and certified (it is the
    near-stationary candidate the extension theory speaks about), which
    usually ends runs before raw-iterate oscillation sets in.  And a step
    whose recorded potential would *rise* by more than the prox tolerance
    is rejected and retaken with half the step size, so the recorded
    potential decreases by construction; backoffs are counted in the
    trace.
    """
    bounds = config.bounds or analytic_bounds(game)
    eta = config.eta if config.eta is not None else default_eta(
        game, config.epsilon, bounds)
    max_iters = (config.max_iters if config.max_iters is not None
                 else default_max_iters(game, config.epsilon, bounds))
    prox_tol = (config.prox_tol if config.prox_tol is not None
                else config.epsilon ** 4 / 64.0)
    ell = max(bounds.smoothness, 1e-12)

    if config.init == "dirichlet":
        rng = np.random.default_rng(config.seed)
        team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
    else:
        team = uniform_profile(game).team
    adversary = np.full(game.adversary_actions, 1.0 / game.adversary_actions)

    trace = RunTrace(epsilon=config.epsilon, eta=eta, prox_tol=prox_tol)
    best = (math.inf, None, None)
    prox_state = None
    last_potential = None
    prev_team = team
    converged = False

    def prox_due(step_index):
        return config.check_every and step_index % config.check_every == 0

    if prox_due(0):
        prox_state = trace.timed("prox", proximal_point, game, team, ell,
                                 prox_tol)
        trace.record_prox(prox_state)

    t = 0
    while t < max_iters:
        profile = MixedProfile(team, adversary)
        cert = trace.timed("certify", ne_gap, game, profile,
                           epsilon_claimed=config.epsilon)
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
                                                config.epsilon, trace)
        step_norm = float(np.linalg.norm(
            np.concatenate(team) - np.concatenate(prev_team)))
        br_action = int(np.argmax(trace.timed(
            "step", contract_game, game, team, None, (game.n,))))
        trace.iterations.append(IterationRecord(
            t=t, potential_g=potential, ne_gap=cert.gap,
            step_norm=step_norm, br_action=br_action))
        if cert.gap < best[0]:
            best = (cert.gap, profile, cert)
        if cert.gap <= config.epsilon:
            converged = True
            break
        if smoothed is not None:
            profile, cert = smoothed
            converged = True
            break

        grads = trace.timed("step", lambda: [
            contract_game(game, team, br_action, (i,)) for i in range(game.n)])
        while True:
            new_team = trace.timed("step", lambda: tuple(
                project_simplex(x - eta * g) for x, g in zip(team, grads)))
            new_prox = None
            if prox_due(t + 1):
                new_prox = trace.timed("prox", proximal_point, game, new_team,
                                       ell, prox_tol, warm_start=prox_state)
                trace.record_prox(new_prox)
                rise = (new_prox.potential_g - last_potential
                        if last_potential is not None else -math.inf)
                if (rise > prox_tol and eta > 1e-12
                        and trace.eta_backoffs < _MAX_BACKOFFS):
                    eta *= 0.5
                    trace.eta_backoffs += 1
                    continue
            break
        prev_team = team
        team = new_team
        if new_prox is not None:
            prox_state = new_prox
        adversary, audit = trace.timed("extend", extend_ne, game, team,
                                       with_audit=True)
        trace.record_extension(audit)
        t += 1

    trace.final_eta = eta
    if converged:
        return trace.finish("converged", profile, cert)
    _, profile, cert = best
    return trace.finish("budget_exhausted", profile, cert)
