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
LP.  No convergence theorem backs this loop; every output is certified
by brute-force deviation enumeration over both teams, and failed runs
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
from .dynamics import GdConfig, RunTrace, default_eta, gradient_descent_max
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
    _check_strategy,
    _is_int,
    analytic_bounds,
    contract,
    contract_game,
    contract_players,
    game_from_dict,
)
from .moreau import stationarity

# The grid oracle's largest product grid.  Its screen holds one worst case
# per point and adversary action, so the cap bounds that array's memory
# (points x |B| x 8 B, 16 MB per adversary action); it also keeps the
# number of products in each worst case, at most the number of points, small
# enough for the screen's error bound (see _grid_argmin).
_GRID_POINT_CAP = 2_000_000
# stationarity_diagnostics: the prox-solver value tolerance behind both
# slacks, and the co-maximizer side's supergradient ascent steps.
_DIAGNOSTIC_TOL = 1e-6
_ASCENT_ROUNDS = 6


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


@dataclass(frozen=True)
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
        _checked(game, self.minimizers, 0, game.n)
        _checked(game, self.maximizers, game.n, game.m)
        return self


def _checked(game, vectors, first, count):
    """The ``count`` strategies of the payoff axes from ``first`` on, as
    float arrays, checked as :meth:`TwoTeamProfile.validate` documents."""
    if len(vectors) != count:
        who = "minimizer" if first < game.n else "maximizer"
        raise DimensionMismatchError(
            f"got {len(vectors)} {who} vectors, need {count}")
    sizes = game.minimizer_actions + game.maximizer_actions
    vectors = tuple(np.asarray(v, dtype=float) for v in vectors)
    for axis, x in enumerate(vectors, first):
        who = (f"minimizer {axis}" if axis < game.n
               else f"maximizer {axis - game.n}")
        _check_strategy(x, sizes[axis], who, player=axis)
    return vectors


@dataclass(frozen=True)
class TwoTeamStationarity:
    """Diagnostic stationarity measures at a two-team profile.

    ``x_measure`` certifies near-stationarity of the minimizer profile
    for the induced single-adversary game (holding the co-maximizers
    fixed); ``y_measure`` is the proximal-distance surrogate for the
    co-maximizers' side of the extension hypothesis, computed with the
    (approximate) minmax oracle inside the prox objective.  Both carry
    explicit slack terms; the y side is diagnostic only and never gates
    convergence.
    """

    x_measure: float
    x_slack: float
    y_measure: float
    y_slack: float


def expected_value(game, profile):
    """Expected payoff of mixed team profiles (full contraction)."""
    team = (*profile.minimizers, *profile.maximizers[:-1])
    return float(contract_game(game.joint, team, profile.maximizers[-1], ()))


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


def induced_single_adversary_game(game, y_minus_m):
    """The team game seen by the minimizers and the last maximizer.

    Co-maximizer strategies ``y_minus_m``, validated, are averaged out.
    With ``m = 1`` this is the joint game itself, so downstream results
    agree bitwise with the single-adversary code path.
    """
    return _induced(game, _checked(game, y_minus_m, game.n, game.m - 1))


def _induced(game, y_minus_m):
    """:func:`induced_single_adversary_game` on unvalidated strategies."""
    if len(y_minus_m) != game.m - 1:
        raise DimensionMismatchError(f"need {game.m - 1} co-maximizer "
                                     f"strategies, got {len(y_minus_m)}")
    if game.m == 1:
        return game.joint
    keep = tuple(range(game.n)) + (game.joint.n,)
    y_minus_m = tuple(np.asarray(y, dtype=float) for y in y_minus_m)
    tensor = contract_game(game.joint, (None,) * game.n + y_minus_m, None,
                           keep)
    return TeamGame.dense(tensor, v_max=game.v_max)


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
    method: str
    best_response: int
    audit: ExtensionAudit
    payoffs: np.ndarray


@functools.lru_cache(maxsize=32)
def _simplex_grid(size, q):
    """All probability vectors on a 1/q grid of the (size-1)-simplex.

    Cached and read-only: every oracle call at one grid step shares it.
    """
    points = []
    for combo in itertools.combinations_with_replacement(range(size), q):
        counts = np.bincount(np.asarray(combo), minlength=size)
        points.append(counts / q)
    grid = np.array(points)
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


def minmax_oracle(game, y_minus_m, method="grid", grid_step=0.02,
                  inner_config=None):
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
    ``y_minus_m`` is checked.
    """
    induced = _induced(game, y_minus_m)
    if method == "grid":
        q = max(1, round(1.0 / grid_step))
        combos = math.prod(math.comb(q + k - 1, k - 1)
                           for k in induced.action_sets)
        if combos > _GRID_POINT_CAP:
            raise GameError(
                f"grid of {combos} points exceeds the cap "
                f"{_GRID_POINT_CAP}; use method='nested'")
        grids = [_simplex_grid(k, q) for k in induced.action_sets]
        point = _grid_argmin(induced.payoff_tensor(), grids)
        team = tuple(g[i].copy() for g, i in zip(grids, point))
    elif method == "nested":
        config = inner_config or GdConfig(epsilon=0.025)
        team = gradient_descent_max(induced, config)[0].team
    else:
        raise ValueError("method must be 'grid' or 'nested'")
    adversary, audit, vec = _extend(induced, team, induced.n)
    b = int(np.argmax(vec))
    value = float(vec[b])
    if method == "grid":
        lipschitz = analytic_bounds(induced).lipschitz
        radius = sum(grid_step * k / 2.0 for k in induced.action_sets)
        bracket = (value - lipschitz * radius, value)
    else:
        bracket = (math.nan, value)
    return MinmaxResult(team=team, adversary=adversary, value=value,
                        bracket=bracket, method=method, best_response=b,
                        audit=audit, payoffs=vec)


def extend_ne_multi(game, x_star, y_minus_m, with_audit=False):
    """Best last-maximizer completion of a two-team anchor profile.

    Builds the multi-team extension dual LP (guarantee variables for
    every minimizer and every co-maximizer, a mixture for the last
    maximizer) and returns the mixture.  Each call solves that one LP,
    reads a joint-deviation point from its row multipliers and asserts
    the feasibility chain from the anchor profile plus strong duality,
    exactly as in the single-adversary module, at every scale
    ``n - m + 1`` including outside the ``n > m - 1`` regime (see
    :class:`teamsolve.extension.ExtensionAudit`).  With ``m = 1`` this
    is :func:`teamsolve.extension.extend_ne` on the joint game and agrees
    with it bitwise.  The strategies are validated.
    """
    team = (_checked(game, x_star, 0, game.n)
            + _checked(game, y_minus_m, game.n, game.m - 1))
    y_m, audit, _ = _extend(game.joint, team, game.n)
    return (y_m, audit) if with_audit else y_m


def gd_mm(game, config, oracle_method="grid", grid_step=0.02):
    """GDmm: minmax oracle, co-maximizer ascent, dual-LP completion.

    Per iteration the minimizers jump to the oracle's (approximate)
    minmax reply to the co-maximizers, each co-maximizer takes one
    projected gradient ascent step against that reply and the oracle's
    extension mixture for the last maximizer, and the last maximizer is
    re-extended.  Each iteration thus solves two extension LPs, both
    counted in ``trace.extend_calls`` and ``trace.lp_pivots`` and both
    feeding its duality statistics; with ``m = 1`` the oracle's extension
    already completes the profile and is the only one.  ``br_action``
    records the oracle's pure best response, and ``trace.phase_s`` the
    wall seconds spent in the oracle, the ascent (``step``), the
    re-extension (``extend``) and the certificate (``certify``).
    Stops at the first certified ``epsilon``-equilibrium (checked after
    the update, so the first check sees a fully formed profile).  Returns
    ``(profile, certificate, trace)`` with the budget-exhausted best-seen
    fallback, both through :class:`~teamsolve.dynamics.RunTrace`; the
    loop validates nothing.
    """
    if not game.extendibility_hypothesis():
        warnings.warn(
            f"extension guarantee assumes n > m - 1 (here n={game.n}, "
            f"m={game.m}); running anyway", RuntimeWarning, stacklevel=2)
    eta = (config.eta if config.eta is not None
           else default_eta(game, config.epsilon, movers=max(game.m - 1, 1)))
    max_iters = config.max_iters if config.max_iters is not None else 200

    y = tuple(np.full(k, 1.0 / k) for k in game.maximizer_actions)
    trace = RunTrace(epsilon=config.epsilon, eta=eta, prox_tol=math.nan)
    for _ in range(max_iters):
        oracle = trace.timed("oracle", minmax_oracle, game, y[:-1],
                             method=oracle_method, grid_step=grid_step,
                             inner_config=_inner_config(config))
        x = oracle.team
        ascended = trace.timed("step", lambda: tuple(
            project_simplex(yj + eta * g) for yj, g in zip(
                y[:-1], _maximizer_gradients(game, x, y[:-1],
                                             oracle.adversary))))
        trace.record_extension(oracle.audit)
        # With m = 1 the induced game is the joint game.
        y_m, values = oracle.adversary, oracle.payoffs
        if ascended:
            y_m, values = trace.extend(game.joint, (*x, *ascended), game.n)
        y = ascended + (y_m,)
        profile = TwoTeamProfile(x, y)
        cert = trace.timed("certify", _deviation_gaps, game.joint,
                           (*x, *ascended), y_m, values, game.n,
                           config.epsilon)
        point = np.concatenate([np.concatenate(x), np.concatenate(y)])
        if trace.record(profile, cert, point, oracle.best_response):
            return trace.finish(profile, cert)
    return trace.finish()


def _inner_config(config):
    return GdConfig(epsilon=max(config.epsilon / 2.0, 1e-4),
                    seed=config.seed)


def _maximizer_gradients(game, x, co_maximizers, y_m):
    """Gradients of the expected payoff in each co-maximizer's strategy.

    Evaluated, as in the update rule, at the fresh minimizer reply, the
    *previous* co-maximizer profile and the oracle's last-maximizer
    extension mixture ``y_m``.  With the minmax pair held fixed this is
    the direction in which the co-maximizers ascend the minmax value
    function; a tie-broken pure reply would flip between the maximizer's
    indifferent actions and point elsewhere.
    """
    return contract_players(game.joint, (*x, *co_maximizers), y_m,
                            players=range(game.n, game.joint.n))


def stationarity_diagnostics(game, profile, oracle_method="grid",
                             grid_step=0.02):
    """Approximate stationarity measures for both sides of a profile.

    The minimizer side is the certified single-adversary measure on the
    induced game.  The co-maximizer side maximizes the minmax value
    function minus a proximity term by a few supergradient ascent steps,
    with every value query answered by the (approximate) minmax oracle
    and each supergradient taken against the oracle's team reply and its
    extension mixture for the last maximizer; its slack records only the
    prox-solver contribution, since oracle error cannot be bounded
    rigorously at this scale.
    """
    ell = analytic_bounds(game).smoothness
    induced = induced_single_adversary_game(game, profile.maximizers[:-1])
    x_report = stationarity(induced, profile.minimizers,
                            max(analytic_bounds(induced).smoothness, 1e-9),
                            _DIAGNOSTIC_TOL)
    if game.m == 1:
        return TwoTeamStationarity(
            x_measure=x_report.measure, x_slack=x_report.slack,
            y_measure=0.0, y_slack=0.0)

    anchor = profile.maximizers[:-1]
    current = tuple(np.array(v) for v in anchor)
    best_point, best_val = current, -math.inf
    step = 1.0 / (2.0 * ell)
    for _ in range(_ASCENT_ROUNDS):
        oracle = minmax_oracle(game, current, method=oracle_method,
                               grid_step=grid_step)
        penalty = sum(float((c - a) @ (c - a))
                      for c, a in zip(current, anchor))
        value = oracle.value - ell * penalty
        if value > best_val:
            best_val, best_point = value, current
        grads = _maximizer_gradients(game, oracle.team, current,
                                     oracle.adversary)
        current = tuple(
            project_simplex(c + step * (g - 2.0 * ell * (c - a)))
            for c, g, a in zip(current, grads, anchor))
    distance = math.sqrt(sum(float((b - a) @ (b - a))
                             for b, a in zip(best_point, anchor)))
    slack = 2.0 * math.sqrt(2.0 * _DIAGNOSTIC_TOL * ell)
    return TwoTeamStationarity(
        x_measure=x_report.measure, x_slack=x_report.slack,
        y_measure=2.0 * ell * distance + slack, y_slack=slack)


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
    joint = game_from_dict({
        "n": n + m - 1, "actions": actions + b_actions[:-1],
        "adversary_actions": b_actions[-1], "payoff": doc.get("payoff"),
        "v_max": doc.get("v_max")})
    # The source document is the two-team game's, not the joint game's.
    joint.document = None
    game = TwoTeamGame.__new__(TwoTeamGame)
    game._view(joint, n, doc)
    return game


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
