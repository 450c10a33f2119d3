"""Two-team zero-sum games: extension LPs and the GDmm loop, desk scale.

A team of ``n`` minimizers faces a team of ``m`` maximizers.  The payoff
is one single-adversary game, dense or polytensor, the *joint game*: its
team is the minimizers followed by the first ``m - 1`` maximizers (the
co-maximizers), its adversary the last maximizer.  Every evaluation runs
the single-adversary kernels on it.

Joint equilibria are computed by repeatedly solving the induced
single-adversary game against the last maximizer (the minmax oracle),
letting the other maximizers take projected ascent steps, and completing
the profile for the last maximizer through the multi-team extension dual
LP.  The ascent climbs the minmax value V(y_-m) = min_x max_{y_m} U, which
each oracle call reads at the current co-maximizer point, so its step
adapts on those readings: it grows fourfold while V does not fall, up to
the step at which one move can cross a simplex, and when V falls it halves
(never below the initial step) and the step is retaken from the last
accepted point against that point's reply, at no extra oracle call.
Where the minmax value has a kink the oracle's reply is not unique, and
the iterate can cycle between replies that no single one certifies; so
every ``CANDIDATE_EVERY`` iterations the average of the replies stepped
against since the last check is tried as well (the ergodic average of the
inner minimizers, as in Larsson, Patriksson & Stromberg, Math. Prog.
1999).
No convergence theorem backs this loop; every output is certified by
brute-force deviation enumeration over both teams, and failed runs
report their best-seen gap.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._simplex import project_simplex
from .dynamics import (
    CANDIDATE_EVERY,
    GdConfig,
    RunTrace,
    _certified_extension,
    default_eta,
    gradient_descent_max,
)
from .extension import (
    ExtensionAudit,
    _deviation_gaps,
    _extend,
)
from .games import (
    DimensionMismatchError,
    GameError,
    SchemaError,
    TeamGame,
    _checked_strategies,
    _freeze,
    _is_int,
    _materialize,
    analytic_bounds,
    contract,
    contract_game,
    contract_players,
    game_from_dict,
)

# The grid oracle's largest product grid.  Its screen holds one worst case
# per point and adversary action, so the cap bounds that array's memory
# (points x |B| x 8 B, 16 MB per adversary action); it also keeps the
# number of products in each worst case, at most the number of points, small
# enough for the screen's error bound (see _grid_argmin).
_GRID_POINT_CAP = 2_000_000

# gd_mm's co-maximizer step grows by this factor after each oracle value
# that did not fall.  Faster growth (x5 to x8, or a jump to the cap)
# certifies the bench draws in fewer iterations, but its warm-started LPs
# save fewer pivots; x3 leaves more draws unconverged.
_ETA_GROWTH = 4.0


class TwoTeamGame:
    """Zero-sum game between a minimizer team and a maximizer team.

    One payoff suffices: minimizers drive it down, maximizers up; ``tensor``
    has the minimizer axes, then the maximizer axes.  ``joint`` is the joint
    game (module docstring), with no ``document``; only
    :func:`two_team_from_dict` sets the two-team ``document``.  Immutable.
    """

    __slots__ = ("joint", "n", "m", "minimizer_actions", "maximizer_actions",
                 "v_max", "document")

    def __init__(self, tensor, n, m, v_max=None):
        if n < 1 or m < 1 or np.ndim(tensor) != n + m:
            raise GameError("tensor rank must equal total player count")
        self._view(TeamGame.dense(tensor, v_max=v_max), n, None)

    def _view(self, joint, n, document):
        sizes = joint.action_sets + (joint.adversary_actions,)
        self.joint, self.n, self.m = joint, n, len(sizes) - n
        self.minimizer_actions, self.maximizer_actions = sizes[:n], sizes[n:]
        self.v_max, self.document = joint.v_max, document

    @property
    def tensor(self):
        """The dense payoff tensor, materialized for a polytensor game."""
        return self.joint.payoff_tensor()

    def extendibility_hypothesis(self):
        """Whether ``n > m - 1``, the regime the extension theorem covers."""
        return self.n > self.m - 1

    def payoff(self, minimizer_actions, maximizer_actions):
        *co_maximizers, last = maximizer_actions
        return self.joint.payoff((*minimizer_actions, *co_maximizers), last)


@dataclass(frozen=True, slots=True)
class TwoTeamProfile:
    """Mixed strategies for both teams."""

    minimizers: tuple
    maximizers: tuple

    @staticmethod
    def of(minimizers, maximizers):
        return TwoTeamProfile(
            tuple(np.asarray(x, dtype=float) for x in minimizers),
            tuple(np.asarray(y, dtype=float) for y in maximizers))

    def validate(self, game):
        """Check every strategy's length and that it is a distribution.

        Raises :class:`~teamsolve.games.DimensionMismatchError`, whose
        ``player`` is the offender's payoff axis (minimizers first).
        """
        _checked_strategies(self.minimizers, game.minimizer_actions,
                            "minimizer", "minimizer", 0)
        _checked_strategies(self.maximizers, game.maximizer_actions,
                            "maximizer", "maximizer", game.n)
        return self


def ne_gap_two_team(game, profile, epsilon_claimed=math.nan):
    """Brute-force deviation certificate over both teams.

    ``gap_team`` covers the minimizers (payoff reduction available),
    ``gap_adversary`` the maximizers including the last one (payoff
    increase available).  The profile is validated first.
    """
    profile.validate(game)
    team = (*profile.minimizers, *profile.maximizers[:-1])
    adv = contract_game(game.joint, team, None, (game.joint.n,))
    return _deviation_gaps(game.joint, team, profile.maximizers[-1], adv,
                           game.n, epsilon_claimed)


def _induced(game, y_minus_m):
    """The team game seen by the minimizers and the last maximizer.

    Co-maximizer strategies ``y_minus_m`` are averaged out into a dense
    tensor (:func:`~teamsolve.games._materialize`, block by block on a
    polytensor joint game, whose dense tensor is never built); only their
    number is checked.  With ``m = 1`` this is the joint game itself, so
    downstream results agree bitwise with the single-adversary code path.
    """
    if len(y_minus_m) != game.m - 1:
        raise DimensionMismatchError(f"need {game.m - 1} co-maximizer "
                                     f"strategies, got {len(y_minus_m)}")
    if game.m == 1:
        return game.joint
    strategies = ((None,) * game.n
                  + tuple(np.asarray(y, dtype=float) for y in y_minus_m)
                  + (None,))
    tensor = _freeze(_materialize(game.joint, strategies))
    # The joint game's v_max bounds every average of its payoffs.
    return TeamGame(tensor.shape[:-1], tensor.shape[-1], game.v_max,
                    tensor=tensor)


@dataclass(frozen=True)
class MinmaxResult:
    """Approximate team-minmax pair for the induced adversarial game.

    ``adversary`` is the certified extension mixture of the induced game
    at ``team`` (``extend_ne(induced, team)``), with ``audit`` its checked
    duality audit; ``payoffs`` is the induced adversary payoff vector at
    ``team``, read off that extension, ``best_response`` its first argmax
    and ``value`` its maximum, the team's worst case.  At a team minmax
    point the last maximizer is indifferent among several pure replies,
    so the mixture, not a tie-broken pure action, is the reply that the
    co-maximizers' ascent must see.

    ``bracket`` is a certified interval containing the true minmax value
    when the grid strategy produced the result (via the Lipschitz cover
    radius); the nested strategy reports the achieved worst case with a
    NaN lower end (gradient descent certifies equilibria, not global
    optimality).
    """

    team: tuple
    adversary: np.ndarray
    value: float
    bracket: tuple
    best_response: int
    audit: ExtensionAudit
    payoffs: np.ndarray


@functools.lru_cache(maxsize=32)
def _simplex_grid(size, q):
    """All probability vectors on a 1/q grid of the (size-1)-simplex.

    Stars and bars: each point places ``size - 1`` bars in ``q + size - 1``
    slots, and its counts are the gaps between them.  The bars run in
    reverse so that the points follow
    ``itertools.combinations_with_replacement(range(size), q)``.  Cached
    and read-only: every oracle call at one grid step shares it.
    """
    slots = q + size - 1
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(slots), size - 1)), dtype=np.int64)
    bars = bars.reshape(math.comb(slots, size - 1), size - 1)[::-1]
    grid = (np.diff(bars, prepend=-1, append=slots) - 1) / q
    grid.setflags(write=False)
    return grid


def _grid_argmin(tensor, grids):
    """The first point, in C order over the product grid, with the least
    worst case ``max_b U(x, b)``, exactly as the full-grid ``contract``.

    A screen contracts one player axis at a time with ``np.tensordot``
    (a BLAS product per axis) and takes the max over the adversary.  With
    ``margin = 1e-9 * (1 + max|T|)``, every point whose screened worst
    case lies within ``2 * margin`` of the screen's minimum survives.  A
    worst case sums at most ``prod |A_i| <= _GRID_POINT_CAP`` products of
    grid probabilities (each distribution sums to one) and payoffs, so the
    screen and the full-grid ``contract`` each lie within about ``2e6 *
    2**-53 * max|T|`` of the exact value, far below ``margin``; the full
    grid's first argmin always survives, and a single survivor is that
    point.  Several survivors (near-ties: constant payoffs, a player the
    payoff ignores) fall back to the full-grid ``contract`` and the first
    ``np.argmin``, so ties break as that call breaks them.
    """
    screen = tensor
    for grid in grids:
        # Player axes leave from the front; grid axes join at the back.
        screen = np.tensordot(screen, grid, axes=([0], [1]))
    # screen is now (|B|, P_1, ..., P_n).
    worst = screen.max(axis=0)
    margin = 1e-9 * (1.0 + float(np.abs(tensor).max()))
    near = worst <= worst.min() + 2.0 * margin
    if np.count_nonzero(near) == 1:
        return np.unravel_index(int(np.argmax(near)), near.shape)
    worst = contract(tensor, (*grids, None), (len(grids),)).max(axis=-1)
    return np.unravel_index(int(np.argmin(worst)), worst.shape)


def _grid_q(game, grid_step):
    """The grid's ``q = round(1 / grid_step)`` on the minimizers, every
    induced game's team; a bad step raises ``ValueError``, a grid over the
    point cap ``GameError``."""
    if not (0 < grid_step < math.inf and 1.0 / grid_step < math.inf):
        raise ValueError("grid_step must be positive and finite")
    q = max(1, round(1.0 / grid_step))
    combos = math.prod(math.comb(q + k - 1, k - 1)
                       for k in game.minimizer_actions)
    if combos > _GRID_POINT_CAP:
        raise GameError(f"grid of {combos} points exceeds the cap "
                        f"{_GRID_POINT_CAP}; use method='nested' "
                        f"(--oracle nested)")
    return q


def minmax_oracle(game, y_minus_m, method="grid", grid_step=0.02,
                  inner_config=None, *, _basis=None):
    """Approximate ``min_x max_{y_m}`` for fixed co-maximizer play.

    ``method="grid"`` sweeps products of per-player simplex grids and
    returns the first grid point, in ``itertools.product`` order, of least
    worst case, as one full-grid contraction would pick it: a
    ``tensordot`` screen keeps the points within ``2e-9 * (1 + max|T|)``
    of its minimum, far above both computations' rounding error (about
    ``2e6 * 2**-53 * max|T|``), and only near-ties rescore the full grid
    (see :func:`_grid_argmin`).  Its certified value bracket is ``(value
    - L * r, value)``, with ``L`` the induced game's Lipschitz bound and
    ``r`` the grid's cover radius.  It refuses (with a capacity error)
    when the product grid exceeds the point cap, in which case
    ``method="nested"`` runs the single-adversary descent solver on the
    induced game instead, reporting the achieved worst case with a NaN
    lower end.  Either way the last maximizer's reply is the extension
    mixture of the induced game at the chosen team strategy (one
    extension LP per call), not a pure best response, and ``value`` is
    the worst case at that strategy.  Only the number of strategies in
    ``y_minus_m`` is checked.  The private ``_basis`` is :func:`gd_mm`'s
    warm start for that extension LP, the previous call's
    ``audit.basis``.
    """
    induced = _induced(game, y_minus_m)
    if method == "grid":
        q = _grid_q(game, grid_step)
        grids = [_simplex_grid(k, q) for k in induced.action_sets]
        point = _grid_argmin(induced.payoff_tensor(), grids)
        team = tuple(g[i].copy() for g, i in zip(grids, point))
        slack = analytic_bounds(induced).lipschitz * sum(
            grid_step * k / 2.0 for k in induced.action_sets)
    elif method == "nested":
        config = inner_config or GdConfig(epsilon=0.025)
        team = gradient_descent_max(induced, config)[0].team
        slack = math.nan
    else:
        raise ValueError("method must be 'grid' or 'nested'")
    adversary, audit, vec = _extend(induced, team, induced.n, _basis)
    b = int(np.argmax(vec))
    value = float(vec[b])
    return MinmaxResult(team=team, adversary=adversary, value=value,
                        bracket=(value - slack, value), best_response=b,
                        audit=audit, payoffs=vec)


def extend_ne_multi(game, x_star, y_minus_m):
    """Best last-maximizer completion of a two-team anchor profile.

    Builds the multi-team extension dual LP (guarantee variables for
    every minimizer and every co-maximizer, a mixture for the last
    maximizer) and returns the mixture.  Each call solves that one LP
    (:func:`teamsolve.extension._extend` on the joint game),
    reads a joint-deviation point from its row multipliers and asserts
    the feasibility chain from the anchor profile plus strong duality,
    exactly as in the single-adversary module, at every scale
    ``n - m + 1`` including outside the ``n > m - 1`` regime (see
    :class:`teamsolve.extension.ExtensionAudit`).  With ``m = 1`` this
    is :func:`teamsolve.extension.extend_ne` on the joint game and agrees
    with it bitwise.  The strategies are validated.
    """
    team = (_checked_strategies(x_star, game.minimizer_actions, "minimizer",
                                "minimizer", 0)
            + _checked_strategies(y_minus_m, game.maximizer_actions[:-1],
                                  "maximizer", "maximizer", game.n))
    return _extend(game.joint, team, game.n)[0]


def gd_mm(game, config, oracle_method="grid", grid_step=0.02):
    """GDmm: minmax oracle, co-maximizer ascent, dual-LP completion.

    Per iteration the minimizers jump to the oracle's (approximate)
    minmax reply to the co-maximizers, each co-maximizer takes one
    projected gradient ascent step against that reply and the oracle's
    extension mixture for the last maximizer, and the last maximizer is
    re-extended.  Each iteration thus solves two extension LPs, both
    counted in ``trace.extend_calls`` and ``trace.lp_pivots`` and both
    feeding its duality statistics; with ``m = 1`` the oracle's extension
    already completes the profile and is the only one.  Each LP is offered
    the final basis of the same LP in the previous iteration.  It keeps
    that basis when it is still optimal, at no pivots, repairs it by dual
    simplex or phase 2 pivots when it is dual or primal feasible, and
    otherwise solves cold (:mod:`teamsolve.linprog`);
    ``trace.lp_warm_kept``, ``trace.lp_warm_repaired`` and
    ``trace.lp_warm_dropped`` count the outcomes.  ``br_action``
    records the oracle's pure best response, and ``trace.phase_s`` the
    wall seconds spent in the oracle, the ascent (``step``), the
    re-extension (``extend``) and the certificate (``certify``).
    Stops at the first certified ``epsilon``-equilibrium (checked after
    the update, so the first check sees a fully formed profile).  With
    ``m = 1`` nothing moves between iterations, so the loop stops after
    its first, certified or not.

    The ascent step starts at ``eta0``, ``config.eta`` or the default
    :func:`~teamsolve.dynamics.default_eta` with the ``m - 1``
    co-maximizers as movers, and is capped at ``max(eta0, sqrt(2) / L)``,
    ``L`` the analytic Lipschitz bound, past which one move can cross a
    simplex.  From the second iteration on, the oracle's ``value`` is
    compared with the value at the last accepted co-maximizer point.  If
    it fell and the step is above ``eta0``, the step is halved (not below
    ``eta0``), ``trace.eta_backoffs`` counts one, and the iteration steps
    again from the accepted point against its stored reply, with no extra
    oracle call: its minimizers are that reply's.  Otherwise the point is
    accepted and the step grows by :data:`_ETA_GROWTH` (not above the
    cap).  ``trace.eta`` is ``eta0`` and ``trace.final_eta`` the step in
    force at the end; with ``m = 1`` nothing ascends and the step stays
    ``eta0``.

    The oracle's reply can alternate between minimizers that tie on the
    worst case, and then no iterate certifies.  So after every
    :data:`~teamsolve.dynamics.CANDIDATE_EVERY` iterations whose iterate
    did not certify, when there are co-maximizers, the mean of the
    minimizer replies stepped against in those iterations (a rejected
    step's stored reply, not the oracle's latest) is tried against the
    ascended co-maximizers: the joint game is extended there (one more
    LP, offered the re-extension's basis, whose own final basis is
    discarded) and certified, and the loop returns it if its gap is at
    most ``epsilon``; either way the sum starts again.  Every LP but the
    first two is offered a basis, so ``lp_warm_kept + lp_warm_repaired +
    lp_warm_dropped + 2 == extend_calls`` still holds.  The candidate is
    not recorded: the last ``IterationRecord`` is the iterate's even when
    the average is returned, and ``trace.certified`` says which of the two
    converged.
    Returns ``(profile, certificate, trace)`` with the budget-exhausted
    best-seen fallback, both through
    :class:`~teamsolve.dynamics.RunTrace`; the loop validates nothing but
    ``grid_step`` (see :func:`_grid_q`).
    """
    if not game.extendibility_hypothesis():
        warnings.warn(
            f"extension guarantee assumes n > m - 1 (here n={game.n}, "
            f"m={game.m}); running anyway", RuntimeWarning, stacklevel=2)
    eta0 = (config.eta if config.eta is not None
            else default_eta(game, config.epsilon, movers=max(game.m - 1, 1)))
    # Past this step one ascent move can cross a simplex (diameter sqrt 2);
    # without co-maximizers the step is never used and stays at eta0.
    lipschitz = analytic_bounds(game).lipschitz
    eta_cap = (max(eta0, math.sqrt(2.0) / lipschitz)
               if game.m > 1 and lipschitz > 0 else eta0)
    eta = eta0
    max_iters = config.max_iters if config.max_iters is not None else 200
    inner_config = GdConfig(epsilon=max(config.epsilon / 2.0, 1e-4))

    y = tuple(np.full(k, 1.0 / k) for k in game.maximizer_actions)
    trace = RunTrace(epsilon=config.epsilon, eta=eta0, prox_tol=math.nan)
    # The last final basis of the oracle's LP and of the re-extension's.
    oracle_basis = joint_basis = None
    # The last accepted co-maximizer point and the oracle's reply there.
    accepted = None
    # The minimizer replies stepped against since the last candidate check.
    replies = [0.0] * game.n
    for t in range(max_iters):
        oracle = trace.timed("oracle", minmax_oracle, game, y[:-1],
                             method=oracle_method, grid_step=grid_step,
                             inner_config=inner_config, _basis=oracle_basis)
        oracle_basis = oracle.audit.basis
        trace.record_extension(oracle.audit)
        if (accepted is not None and oracle.value < accepted[1].value
                and eta > eta0):
            # V fell: retake the accepted point's step at half the size.
            eta = max(eta / 2.0, eta0)
            trace.eta_backoffs += 1
        else:
            if accepted is not None:
                eta = min(_ETA_GROWTH * eta, eta_cap)
            accepted = (y[:-1], oracle)
        base, oracle = accepted
        x = oracle.team
        replies = [total + xi for total, xi in zip(replies, x)]
        # Against the oracle's mixture, not a tie-broken pure reply, which
        # flips between the last maximizer's indifferent actions.
        ascended = trace.timed("step", lambda: tuple(
            project_simplex(yj + eta * g) for yj, g in zip(
                base, contract_players(game.joint, (*x, *base),
                                       oracle.adversary,
                                       players=range(game.n,
                                                     game.joint.n)))))
        trace.final_eta = eta
        # With m = 1 the induced game is the joint game.
        y_m, values = oracle.adversary, oracle.payoffs
        if ascended:
            y_m, values, joint_basis = trace.extend(
                game.joint, (*x, *ascended), game.n, joint_basis)
        y = ascended + (y_m,)
        profile = TwoTeamProfile(x, y)
        cert = trace.timed("certify", _deviation_gaps, game.joint,
                           (*x, *ascended), y_m, values, game.n,
                           config.epsilon)
        point = np.concatenate([np.concatenate(x), np.concatenate(y)])
        if trace.record(profile, cert, point, oracle.best_response):
            return trace.finish(profile, cert)
        if not ascended:
            # With no co-maximizer nothing moves: every later iteration
            # would repeat this one.
            break
        if (t + 1) % CANDIDATE_EVERY == 0:
            mean = tuple(total / CANDIDATE_EVERY for total in replies)
            # The next re-extension keeps its own LP's basis.
            found = _certified_extension(trace, game.joint,
                                         (*mean, *ascended), game.n,
                                         joint_basis)
            if found is not None:
                trace.certified = "average"
                y_m, cert = found
                return trace.finish(TwoTeamProfile(mean, ascended + (y_m,)),
                                    cert)
            replies = [0.0] * game.n
    return trace.finish()


# -- JSON schema --------------------------------------------------------


def two_team_from_dict(doc):
    """Parse the two-team game schema.

    Extends the single-adversary schema with ``"teams": {"minimizers":
    n, "maximizers": m}``; ``adversary_actions`` becomes the list of the
    ``m`` maximizer action counts.  The payoff, dense or polytensor, is
    the joint game's, read by :func:`~teamsolve.games.game_from_dict`: a
    dense entry indexes the minimizers, then the maximizers; a block's
    ``players`` index the minimizers, then the co-maximizers (``n`` to
    ``n + m - 2``), and ``includes_adversary`` marks the last maximizer.
    """
    if not isinstance(doc, dict) or "teams" not in doc:
        raise SchemaError("two-team document needs a 'teams' field")
    teams = doc["teams"]
    if (not isinstance(teams, dict)
            or not _is_int(teams.get("minimizers"))
            or not _is_int(teams.get("maximizers"))):
        raise SchemaError("must hold integer minimizers/maximizers", "teams")
    n, m = teams["minimizers"], teams["maximizers"]
    if n < 1 or m < 1:
        raise SchemaError("team sizes must be positive", "teams")
    actions, b_actions = _action_counts(doc, n, m)
    joint = game_from_dict({
        "n": n + m - 1, "actions": actions + b_actions[:-1],
        "adversary_actions": b_actions[-1], "payoff": doc.get("payoff"),
        "v_max": doc.get("v_max")})
    # The source document is the two-team game's, not the joint game's.
    joint.document = None
    game = TwoTeamGame.__new__(TwoTeamGame)
    game._view(joint, n, doc)
    return game


def _action_counts(doc, n, m):
    """``doc``'s ``actions`` and ``adversary_actions`` as lists of ``n``
    and ``m`` positive counts (a bare count will do for ``m = 1``)."""
    actions = doc.get("actions")
    if (not isinstance(actions, list) or len(actions) != n
            or not all(_is_int(k) and k >= 1 for k in actions)):
        raise SchemaError(f"must list {n} positive action counts", "actions")
    b_actions = doc.get("adversary_actions")
    if _is_int(b_actions) and m == 1:
        b_actions = [b_actions]
    if (not isinstance(b_actions, list) or len(b_actions) != m
            or not all(_is_int(k) and k >= 1 for k in b_actions)):
        raise SchemaError(f"must list {m} positive action counts",
                          "adversary_actions")
    return actions, b_actions


def two_team_profile_to_dict(profile):
    return {"minimizers": [list(map(float, x)) for x in profile.minimizers],
            "maximizers": [list(map(float, y)) for y in profile.maximizers]}


def two_team_profile_from_dict(doc):
    if (not isinstance(doc, dict) or "minimizers" not in doc
            or "maximizers" not in doc):
        raise SchemaError("profile needs 'minimizers' and 'maximizers'")
    try:
        return TwoTeamProfile.of(doc["minimizers"], doc["maximizers"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed profile vectors: {exc}") from exc
