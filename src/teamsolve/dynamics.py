"""Projected gradient descent against a best-responding adversary.

Each iteration certifies the current profile by brute-force deviation
enumeration, lets the adversary best-respond, takes a simultaneous
projected gradient step for every team player, and re-extends the team
strategy to a full profile through the dual LP.  Every iteration also
records the proximal potential, the Moreau envelope of the team's worst
case, so runs can be audited for strict decrease.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ._simplex import project_simplex
from .extension import _deviation_gaps, _extend
from .games import (
    MixedProfile,
    analytic_bounds,
    contract_game,
    contract_players,
    uniform_profile,
)
from .moreau import _proximal_point

TRACE_VERSION = "teamsolve-trace-v1"
TRACE_COLUMNS = ("t", "potential_g", "ne_gap", "step_norm", "br_action")
# RunTrace keeps each record as this many floats: whether it carries a
# potential, the potential (0.0 if not), ne_gap, step_norm, br_action.
_RECORD_WIDTH = 5
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
# Iterations between candidate checks: GD extends and certifies its prox
# point, and two_team.gd_mm the average of its last oracle replies.
CANDIDATE_EVERY = 10


@dataclass(frozen=True)
class GdConfig:
    """Solver knobs; everything unset falls back to a documented default.

    ``eta`` defaults to :func:`default_eta` with the analytic bounds
    (conservative enough for the potential-decrease guarantee).  It is
    :func:`gradient_descent_max`'s first step, which only backs off, and
    :func:`teamsolve.two_team.gd_mm`'s co-maximizer step floor: that step
    grows fourfold while the oracle's minmax value does not fall, up to one
    that can cross a simplex, and halves back when it falls.
    ``max_iters`` to the potential-range budget above in
    :func:`gradient_descent_max`, but to the literal 200 in
    :func:`teamsolve.two_team.gd_mm`.  The prox tolerance is fixed at
    ``epsilon^4 / 64``.  Both solvers read every field.
    """

    epsilon: float
    eta: float | None = None
    max_iters: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        try:
            prox_tol = self.epsilon ** 4 / 64.0
        except OverflowError:
            raise ValueError("epsilon ** 4 overflows") from None
        if prox_tol == 0.0:
            raise ValueError("epsilon ** 4 / 64 underflows to 0")
        if self.eta is not None and not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    t: int
    potential_g: float | None
    ne_gap: float
    step_norm: float
    br_action: int


@dataclass(slots=True)
class RunTrace:
    """Per-iteration audit trail of one solver run, and the loop skeleton
    that :func:`gradient_descent_max` and :func:`teamsolve.two_team.gd_mm`
    share: :meth:`extend`, :meth:`record` and :meth:`finish`.

    ``iterations`` holds one record per equilibrium check; a GD record
    carries the potential, a ``gd_mm`` record does not.  The records are
    kept as one flat float array and rebuilt on each read, and
    :meth:`finish` drops the best-seen profile and the last iterate, so a
    finished trace keeps a few floats per iteration.  ``extend_calls``
    counts the run's extension LPs and ``lp_pivots`` sums their simplex
    pivots; ``lp_warm_kept``, ``lp_warm_repaired`` and ``lp_warm_dropped``
    count those offered a warm-start basis that kept it (no pivots),
    pivoted from it, or solved cold instead.
    Duality statistics aggregate over the same calls.
    ``prox_lp_pivots`` sums the pivots of the Kelley LPs inside every
    proximal-point call, backed-off ones included, and
    ``prox_kelley_faults`` counts those that raised ``LpFault``;
    ``prox_inner_solves`` sums the inner solves of the same calls, and
    ``prox_unreached`` counts those that ended without certifying their
    tolerance (``reached=False``).
    Monotonicity fields summarize the recorded potential decreases
    against the allowance ``2 * max_prox_tolerance + 1e-9``.  The
    ``final_*`` fields hold the returned profile, its certified gap and
    the step size in force at the end; ``eta`` is the initial step, and
    ``eta_backoffs`` counts the rejected steps that halved it.
    ``certified`` names the converged profile: ``"iterate"``, a candidate
    (GD's extended prox point ``"prox"``, ``gd_mm``'s averaged reply
    ``"average"``), or ``None`` when the budget ran out.  ``phase_s``
    maps each of :data:`PHASES` to the wall seconds the run spent in it (a
    phase a solver lacks stays zero), left out of the bit-identical
    ``iterations``.
    """

    epsilon: float
    eta: float
    prox_tol: float
    _records: array = field(default_factory=lambda: array("d"), init=False)
    outcome: str = field(default="budget_exhausted", init=False)
    certified: str | None = field(default=None, init=False)
    final_profile: MixedProfile | None = field(default=None, init=False)
    final_ne_gap: float | None = field(default=None, init=False)
    extend_calls: int = field(default=0, init=False)
    lp_pivots: int = field(default=0, init=False)
    lp_warm_kept: int = field(default=0, init=False)
    lp_warm_repaired: int = field(default=0, init=False)
    lp_warm_dropped: int = field(default=0, init=False)
    prox_lp_pivots: int = field(default=0, init=False)
    prox_kelley_faults: int = field(default=0, init=False)
    prox_inner_solves: int = field(default=0, init=False)
    prox_unreached: int = field(default=0, init=False)
    max_sd_residual: float = field(default=0.0, init=False)
    min_duality_margin: float = field(default=math.inf, init=False)
    max_prox_tolerance: float = field(default=0.0, init=False)
    eta_backoffs: int = field(default=0, init=False)
    final_eta: float | None = field(default=None, init=False)
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0),
                          init=False)
    # The best record's (gap, profile, certificate) and the last iterate,
    # both dropped by finish.
    _best: tuple | None = field(default=(math.inf, None, None), init=False)
    _point: np.ndarray | None = field(default=None, init=False)

    @property
    def iterations(self):
        """One :class:`IterationRecord` per equilibrium check, in order."""
        rows = zip(*[iter(self._records.tolist())] * _RECORD_WIDTH)
        return [IterationRecord(t=t, potential_g=pot if has else None,
                                ne_gap=gap, step_norm=step,
                                br_action=int(br))
                for t, (has, pot, gap, step, br) in enumerate(rows)]

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
        self.lp_warm_kept += audit.warm == "kept"
        self.lp_warm_repaired += audit.warm == "repaired"
        self.lp_warm_dropped += audit.warm == "dropped"
        self.max_sd_residual = max(self.max_sd_residual, audit.sd_residual)
        self.min_duality_margin = min(self.min_duality_margin, audit.margin)

    def extend(self, game, team, minimizers, basis=None):
        """Solve, time and record :func:`teamsolve.extension._extend` of an
        unvalidated team, its LP offered ``basis``; returns ``(y, values,
        basis)``, the adversary's mixture, the team's adversary payoff
        vector and the LP's final basis."""
        y, audit, values = self.timed("extend", _extend, game, team,
                                      minimizers, basis)
        self.record_extension(audit)
        return y, values, audit.basis

    def prox(self, game, center, ell, tol, warm_start=None):
        """Time and count :func:`~teamsolve.moreau._proximal_point`."""
        result = self.timed("prox", _proximal_point, game, center, ell, tol,
                            warm_start)
        self.prox_lp_pivots += result.lp_pivots
        self.prox_kelley_faults += result.kelley_faults
        self.prox_inner_solves += result.inner_solves
        self.prox_unreached += not result.reached
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
        self._records.extend((potential_g is not None,
                              0.0 if potential_g is None else potential_g,
                              cert.gap, step_norm, br_action))
        if cert.gap < self._best[0]:
            self._best = (cert.gap, profile, cert)
        if cert.gap > self.epsilon:
            return False
        self.certified = "iterate"
        return True

    def finish(self, profile=None, cert=None):
        """Converge on ``profile``, or without one exhaust the budget on the
        best record; returns ``(profile, cert, trace)``.  A solver that
        converges on a candidate rather than the iterate names it in
        ``certified`` first."""
        if profile is None:
            _, profile, cert = self._best
        else:
            self.outcome = "converged"
        self._best = self._point = None
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
            "certified": self.certified,
            "iterations": len(self.iterations),
            "epsilon": self.epsilon,
            "eta": self.eta,
            "final_eta": self.final_eta,
            "eta_backoffs": self.eta_backoffs,
            "prox_tol": _none_if_nan(self.prox_tol),
            "max_prox_tolerance": self.max_prox_tolerance,
            "extend_calls": self.extend_calls,
            "lp_pivots": self.lp_pivots,
            "lp_warm_kept": self.lp_warm_kept,
            "lp_warm_repaired": self.lp_warm_repaired,
            "lp_warm_dropped": self.lp_warm_dropped,
            "prox_lp_pivots": self.prox_lp_pivots,
            "prox_kelley_faults": self.prox_kelley_faults,
            "prox_inner_solves": self.prox_inner_solves,
            "prox_unreached": self.prox_unreached,
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
    """The default ``max_iters`` (see :data:`K_BUDGET`); ``ValueError``
    if ``epsilon ** 4`` is so small that the budget is not finite."""
    potential_range = (2.0 * game.v_max
                       + 2.0 * analytic_bounds(game).smoothness * game.n)
    quartic = epsilon ** 4
    try:
        return max(1, math.ceil(K_BUDGET * max(potential_range, 1.0)
                                / quartic))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"epsilon {epsilon!r} leaves no finite iteration "
                         f"budget; set max_iters") from None


def _certified_extension(trace, game, team, minimizers, basis):
    """Extend a candidate team strategy, its LP offered ``basis``, and
    certify it with ``minimizers`` as in :func:`_deviation_gaps`.  Returns
    ``(y, cert)``, or None if the gap is over epsilon; the LP's final basis
    is discarded."""
    y, values, _ = trace.extend(game, team, minimizers, basis)
    cert = trace.timed("certify", _deviation_gaps, game, team, y, values,
                       minimizers, trace.epsilon)
    return (y, cert) if cert.gap <= trace.epsilon else None


def _descent(game, team, values):
    """One simultaneous projected descent step against the best response.

    Reads the adversary's first best pure reply off its payoff vector
    ``values`` and returns it with the step map ``eta -> new team``: every
    player moves along its own gradient at that reply to the *current*
    team profile (Jacobi update), then projects back to its simplex.
    """
    br_action = int(np.argmax(values))
    grads = contract_players(game, team, br_action)
    return br_action, lambda eta: tuple(project_simplex(x - eta * g)
                                        for x, g in zip(team, grads))


def gradient_descent_max(game, config):
    """Run the descent loop until a certified epsilon-equilibrium.

    Returns ``(profile, certificate, trace)``.  The certificate is always
    the brute-force deviation check of the returned profile; ``converged``
    outcomes therefore carry a certified gap at most ``config.epsilon``.
    On budget exhaustion the best profile seen (by certified gap) is
    returned instead, flagged in ``trace.outcome``.  Iterates stay on the
    simplex by construction, so the loop validates nothing: it steps
    through :func:`_descent` and runs :class:`RunTrace`'s skeleton.
    Its extension LPs are solved cold: warm-started solves round
    differently, and that moves the trajectory ``TestTrajectoryPin`` pins.
    Warm starts for GD wait for the proximal-point outer loop.

    Two safeguards shape the endgame.  The proximal point computed for
    the potential is also extended and certified (it is the
    near-stationary candidate the extension theory speaks about) every
    :data:`CANDIDATE_EVERY` iterations and whenever the iterate's gap is
    within ``2 * epsilon``, which usually ends runs before raw-iterate
    oscillation sets in.  And a step
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

    team = uniform_profile(game).team
    adversary = np.full(game.adversary_actions, 1.0 / game.adversary_actions)
    # Later iterates take this vector from their extension LP.
    values = contract_game(game, team, None, (game.n,))

    trace = RunTrace(epsilon=config.epsilon, eta=eta, prox_tol=prox_tol)
    trace.final_eta = eta
    prox_state = trace.prox(game, team, ell, prox_tol)

    for t in range(max_iters):
        profile = MixedProfile(team, adversary)
        cert = trace.timed("certify", _deviation_gaps, game, team, adversary,
                           values, game.n, config.epsilon)
        trace.max_prox_tolerance = max(trace.max_prox_tolerance,
                                       prox_state.tolerance)
        smoothed = None
        near_end = (cert.gap <= 2.0 * config.epsilon
                    or t % CANDIDATE_EVERY == 0)
        if cert.gap > config.epsilon and near_end:
            smoothed = _certified_extension(trace, game, prox_state.prox_point,
                                            game.n, None)
        br_action, step = trace.timed("step", _descent, game, team, values)
        if trace.record(profile, cert, np.concatenate(team), br_action,
                        prox_state.objective_value):
            return trace.finish(profile, cert)
        if smoothed is not None:
            trace.certified = "prox"
            return trace.finish(MixedProfile(prox_state.prox_point,
                                             smoothed[0]), smoothed[1])

        while True:
            new_team = trace.timed("step", step, eta)
            new_prox = trace.prox(game, new_team, ell, prox_tol,
                                  warm_start=prox_state)
            rise = new_prox.objective_value - prox_state.objective_value
            if not (rise > prox_tol and eta > 1e-12
                    and trace.eta_backoffs < _MAX_BACKOFFS):
                break
            eta *= 0.5
            trace.eta_backoffs += 1
            trace.final_eta = eta
        team, prox_state = new_team, new_prox
        adversary, values, _ = trace.extend(game, team, game.n)

    return trace.finish()
