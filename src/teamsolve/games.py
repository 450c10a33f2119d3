"""Normal-form adversarial team games and expected-utility machinery.

A team of ``n`` independently randomizing players shares a single payoff
``U`` which it tries to drive *down*, while one adversary picks actions to
drive it *up*.  Payoffs are stored either as one dense tensor (team axes
first, adversary axis last) or as a sum of small local tensors
("polytensor" form), which keeps expected utilities computable in time
polynomial in the description size even for many players.

Games are immutable after construction: payoff arrays are frozen, so a
``TeamGame`` can be shared freely across concurrent workers.  Every
operation in this module is a pure function of its inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass

import numpy as np


class GameError(Exception):
    """Base class for game construction and evaluation errors."""


class DimensionMismatchError(GameError):
    """A strategy vector does not match the game, naming the offender.

    ``player`` is the 0-based team player index, or ``None`` when the
    adversary vector is at fault.
    """

    def __init__(self, message, player=None):
        super().__init__(message)
        self.player = player


class SchemaError(GameError):
    """A game document violates the JSON schema; ``path`` locates the field."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


PROFILE_TOL = 1e-9

# Sampled pure profiles used to audit v_max on polytensor games, where an
# exhaustive sweep over joint profiles may be exponential.
_VMAX_SAMPLES = 10_000


def _is_int(value):
    """A JSON integer; ``True`` is an ``int`` to Python, not to the schema."""
    return type(value) is int


def _parse_rational(value, path):
    """Parse a JSON rational, ``[num, den]`` or a bare int, to a float.

    The float is ``num / den if num else 0.0``.  Python's int true
    division is correctly rounded, so this equals ``float(Fraction(num,
    den))`` bit for bit.  A zero numerator gives ``+0.0`` as ``Fraction``
    does (``0 / -5`` is ``-0.0``); a nonzero one keeps its sign even when
    the quotient underflows to zero.
    """
    if isinstance(value, (list, tuple)):
        if len(value) != 2 or not all(_is_int(v) for v in value):
            raise SchemaError("rational must be [numerator, denominator]", path)
        num, den = value
    elif _is_int(value):
        num, den = value, 1
    else:
        raise SchemaError(f"expected rational, got {type(value).__name__}", path)
    if den == 0:
        raise SchemaError("zero denominator", path)
    try:
        return num / den if num else 0.0
    except OverflowError:
        raise SchemaError("rational out of float range", path) from None


@dataclass(frozen=True)
class LocalBlock:
    """One local interaction of a polytensor game.

    ``players`` lists the 0-based team players the block touches (in
    increasing order); ``includes_adversary`` says whether the block's last
    axis ranges over adversary actions.  ``table`` has one axis per listed
    player followed by the adversary axis when present.
    """

    players: tuple[int, ...]
    includes_adversary: bool
    table: np.ndarray


def _freeze(arr):
    # ``np.ascontiguousarray`` would lift a 0-d constant table to 1-d.
    arr = np.asarray(arr, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


class TeamGame:
    """An adversarial team game with ``n`` team players and one adversary.

    Construct through :meth:`dense`, :meth:`polytensor` or
    :func:`game_from_dict`.  ``v_max`` bounds ``|U(a, b)|`` over all pure
    profiles.  The default (``max |T|``, or the sum of block maxima) is a
    proven bound; a declared one is audited at construction (exhaustively
    for dense games, on sampled profiles for polytensor games).
    """

    __slots__ = ("action_sets", "adversary_actions", "v_max", "_tensor",
                 "_blocks", "document")

    def __init__(self, action_sets, adversary_actions, v_max, tensor=None,
                 blocks=None, document=None):
        action_sets = tuple(int(k) for k in action_sets)
        if len(action_sets) < 1 or any(k < 1 for k in action_sets):
            raise GameError("need n >= 1 team players with >= 1 action each")
        if adversary_actions < 1:
            raise GameError("adversary needs >= 1 action")
        self.action_sets = action_sets
        self.adversary_actions = int(adversary_actions)
        self._tensor = tensor
        self._blocks = blocks
        self.document = document
        self.v_max = float(v_max) if v_max is not None else self._default_v_max()
        if not math.isfinite(self.v_max) or self.v_max < 0:
            raise GameError("v_max must be finite and nonnegative")
        if v_max is not None:
            self._audit_v_max()

    # -- constructors -------------------------------------------------

    @classmethod
    def dense(cls, tensor, v_max=None, document=None):
        """Build a game from a dense payoff tensor

        with shape ``(*action_sets, adversary_actions)``.
        """
        tensor = _freeze(tensor)
        if tensor.ndim < 2:
            raise GameError("dense tensor needs at least one team axis and "
                            "the adversary axis")
        return cls(tensor.shape[:-1], tensor.shape[-1], v_max, tensor=tensor,
                   document=document)

    @classmethod
    def polytensor(cls, action_sets, adversary_actions, blocks, v_max=None,
                   document=None):
        """Build a game whose payoff is the sum of the given local blocks."""
        action_sets = tuple(int(k) for k in action_sets)
        frozen = []
        for pos, blk in enumerate(blocks):
            players = tuple(sorted(int(p) for p in blk.players))
            if len(set(players)) != len(players):
                raise GameError(f"block {pos}: repeated player")
            if players and not (0 <= players[0] and players[-1] < len(action_sets)):
                raise GameError(f"block {pos}: player index out of range")
            expect = tuple(action_sets[p] for p in players)
            if blk.includes_adversary:
                expect = expect + (int(adversary_actions),)
            table = _freeze(blk.table)
            if table.shape != expect:
                raise GameError(
                    f"block {pos}: table shape {table.shape} != {expect}")
            frozen.append(LocalBlock(players, bool(blk.includes_adversary), table))
        return cls(action_sets, adversary_actions, v_max,
                   blocks=tuple(frozen), document=document)

    # -- basic structure ---------------------------------------------

    @property
    def n(self):
        return len(self.action_sets)

    @property
    def representation(self):
        """How the payoff is stored: ``"dense_tensor"`` or ``"polytensor"``."""
        return "dense_tensor" if self._tensor is not None else "polytensor"

    def payoff(self, team_actions, adversary_action):
        """Utility of one pure joint profile."""
        a = tuple(int(v) for v in team_actions)
        b = int(adversary_action)
        if self._tensor is not None:
            return float(self._tensor[a + (b,)])
        total = 0.0
        for blk in self._blocks:
            idx = tuple(a[p] for p in blk.players)
            if blk.includes_adversary:
                idx = idx + (b,)
            total += float(blk.table[idx]) if idx else float(blk.table)
        return total

    def payoff_tensor(self):
        """Materialize the full dense tensor (intended for small games)."""
        if self._tensor is not None:
            return self._tensor
        return contract_game(self, (None,) * self.n, None,
                             tuple(range(self.n + 1)))

    def _default_v_max(self):
        # The ndarray method skips np.max's Python wrapper; every
        # fix_adversary call computes this bound.
        if self._tensor is not None:
            return float(np.abs(self._tensor).max(initial=0.0))
        # Sum of per-block maxima is a valid (possibly loose) bound.
        return float(sum(np.abs(b.table).max(initial=0.0)
                         for b in self._blocks))

    def _audit_v_max(self):
        """Check a declared ``v_max``, raising ``GameError`` if it is low.

        Dense games are checked on every entry.  Polytensor games are
        checked on ``_VMAX_SAMPLES`` pure profiles drawn from
        ``default_rng(0)`` in one call; each row of the draw is one profile,
        the same one a per-action scalar draw would give.  Block values are
        summed in block order, so every sampled payoff equals
        :meth:`payoff` bit for bit, and the first violating sample is the
        one reported.
        """
        slack = 1e-12 * (1.0 + self.v_max)
        if self._tensor is not None:
            worst = self._default_v_max()
            if worst > self.v_max + slack:
                raise GameError(
                    f"payoff magnitude {worst} exceeds v_max {self.v_max}")
            return
        rng = np.random.default_rng(0)
        sizes = self.action_sets + (self.adversary_actions,)
        samples = rng.integers(0, sizes, size=(_VMAX_SAMPLES, len(sizes)))
        vals = np.zeros(_VMAX_SAMPLES)
        for blk in self._blocks:
            axes = blk.players + ((self.n,) if blk.includes_adversary else ())
            vals += blk.table[tuple(samples[:, ax] for ax in axes)]
        bad = np.flatnonzero(np.abs(vals) > self.v_max + slack)
        if bad.size:
            first = int(bad[0])
            profile = tuple(int(v) for v in samples[first])
            raise GameError(
                f"sampled payoff {float(vals[first])} at {profile} exceeds "
                f"v_max {self.v_max}")

    def pure_profiles(self):
        """Iterate over all pure joint profiles ``(a, b)``."""
        for a in itertools.product(*(range(k) for k in self.action_sets)):
            for b in range(self.adversary_actions):
                yield a, b


@dataclass(frozen=True)
class MixedProfile:
    """Per-player simplex vectors for the team plus one for the adversary."""

    team: tuple
    adversary: np.ndarray

    @staticmethod
    def of(team, adversary):
        return MixedProfile(tuple(np.asarray(x, dtype=float) for x in team),
                            np.asarray(adversary, dtype=float))

    def validate(self, game):
        _validate_mixed_team(game, self.team)
        _check_strategy(self.adversary, game.adversary_actions, "adversary")
        return self


def _check_strategy(x, size, who, player=None):
    if x.shape != (size,):
        raise DimensionMismatchError(
            f"{who}: strategy length {x.shape} does not match {size} "
            f"actions", player)
    _check_simplex(x, who, player)


def _check_simplex(x, who, player=None):
    # Python floats: on vectors this short numpy's per-call overhead
    # outweighs the arithmetic.  The sum runs left to right, as numpy's
    # does below eight entries.
    vals = x.tolist()
    if not all(map(math.isfinite, vals)):
        raise DimensionMismatchError(f"{who}: non-finite entries", player)
    if min(vals, default=0.0) < -PROFILE_TOL:
        raise DimensionMismatchError(f"{who}: negative probability", player)
    total = sum(vals, 0.0)
    if abs(total - 1.0) > PROFILE_TOL:
        raise DimensionMismatchError(f"{who}: probabilities sum to "
                                     f"{total!r}, not 1", player)


def uniform_profile(game):
    team = tuple(np.full(k, 1.0 / k) for k in game.action_sets)
    return MixedProfile(team, np.full(game.adversary_actions,
                                      1.0 / game.adversary_actions))


def dirichlet_profile(game, rng):
    """Dirichlet(1) (uniform-on-simplex) random profile."""
    team = tuple(rng.dirichlet(np.ones(k)) for k in game.action_sets)
    return MixedProfile(team, rng.dirichlet(np.ones(game.adversary_actions)))


def _validate_mixed_team(game, team):
    """Check every vector's length, then that each is a distribution."""
    team = tuple(np.asarray(x, dtype=float) for x in team)
    if len(team) != game.n:
        raise DimensionMismatchError(
            f"got {len(team)} team vectors for {game.n} players")
    for i, x in enumerate(team):
        if x.shape != (game.action_sets[i],):
            raise DimensionMismatchError(
                f"player {i}: strategy length {x.shape[0] if x.ndim == 1 else x.shape}"
                f" does not match {game.action_sets[i]} actions", player=i)
    for i, x in enumerate(team):
        _check_simplex(x, f"player {i}", player=i)
    return team


# -- expected utility and gradients ------------------------------------


def contract(table, vectors, keep=()):
    """Contract ``table`` with one strategy per axis, except the kept axes.

    ``vectors`` has one entry per axis of ``table``; entries on axes in
    ``keep`` (a tuple) are ignored (``None`` will do).  A 1-D entry weights its
    axis.  A 2-D entry stacks several strategies for its axis, one per
    row, and its stacking axis leads the result.  The kept axes follow in
    increasing order.  Axes are labelled by number, so no subscript
    alphabet caps the rank below numpy's own limit of 52 labels.  Every
    payoff evaluation reaches it through :func:`contract_game` or
    :func:`contract_players`.  The grid minmax oracle's ``tensordot``
    screen (``two_team._grid_argmin``) is the one other payoff
    contraction; it picks a grid point only where its error bound proves
    it the one this function's full-grid scores pick, and defers to those
    scores otherwise.

    The subscripts depend only on the table's rank, the kept axes and
    each operand's rank, so they are built once per such layout
    (:func:`_plan`) and handed straight to numpy's C ``einsum``, the call
    ``np.einsum`` itself makes without ``optimize``.  Results are bitwise
    equal to ``np.einsum`` on the numbered sublists, without its Python
    wrapper and dispatch.
    """
    ranks = tuple([None if axis in keep else vec.ndim
                   for axis, vec in enumerate(vectors)])
    spec, axes = _plan(table.ndim, keep, ranks)
    return _c_einsum(spec, table, *[vectors[axis] for axis in axes])


# numpy spells a numbered sublist label ``k`` as the ``k``-th of these.
_LABELS = string.ascii_uppercase + string.ascii_lowercase


@functools.lru_cache(maxsize=1024)
def _plan(ndim, keep, ranks):
    """The ``einsum`` subscripts of :func:`contract` for one layout.

    ``ranks`` holds each vector's ``ndim``, ``None`` on kept axes.
    Returns the subscript string and the axes whose vectors are its
    operands after the table.  Axis ``a`` is labelled ``a``, a stacking
    axis ``ndim + a``, spelled as numpy spells numbered sublists, so the
    string is the one ``np.einsum`` builds from them.
    """
    axes = tuple(axis for axis, rank in enumerate(ranks) if rank is not None)
    terms = [range(ndim)]
    stacked = []
    for axis in axes:
        if ranks[axis] == 2:
            stacked.append(ndim + axis)
            terms.append((ndim + axis, axis))
        else:
            terms.append((axis,))
    out = stacked + sorted(keep)
    if max([ndim - 1, *stacked]) >= len(_LABELS):
        raise ValueError("subscript is not within the valid range [0, 52)")
    spec = ",".join("".join(_LABELS[k] for k in term) for term in terms)
    return spec + "->" + "".join(_LABELS[k] for k in out), axes


def _find_c_einsum():
    """numpy's C ``einsum``, wherever this numpy keeps it; else ``np.einsum``."""
    try:
        from numpy._core.multiarray import c_einsum
    except ImportError:
        try:
            from numpy.core.multiarray import c_einsum
        except ImportError:
            c_einsum = np.einsum
    return c_einsum


_c_einsum = _find_c_einsum()


def contract_game(game, team, adversary, keep):
    """Expected payoff with every axis except ``keep`` averaged out.

    Axes ``0..n-1`` are the team players and axis ``n`` the adversary;
    ``keep`` lists the open axes in increasing order.  ``adversary`` is a
    mixed vector, a pure action index (which fixes the adversary axis), or
    ``None`` when axis ``n`` is kept.  Nothing is validated: the public
    kernels below check their inputs once, and internal callers pass
    strategies they built themselves.  A polytensor game's blocks are
    summed in block order, starting from zero; :func:`contract_players`
    keeps that order, so its per-player vectors equal this function's
    bitwise.  A game from :func:`fix_adversary` is evaluated here too,
    at its one adversary action ``0``.
    """
    if game._tensor is not None:
        if isinstance(adversary, (int, np.integer)):
            return contract(game._tensor[..., adversary], team, keep)
        return contract(game._tensor, (*team, adversary), keep)
    return _sum_blocks(game, team, adversary, keep)


def contract_players(game, team, adversary, keep_adversary=False,
                     players=None):
    """Each listed team player's vector at one profile, in one pass.

    Entry ``k`` is bitwise equal to ``contract_game(game, team, adversary,
    (i,) + ((game.n,) if keep_adversary else ()))`` for ``i = players[k]``;
    ``players`` defaults to every team player.  ``keep_adversary``
    requires ``adversary`` to be ``None``.  A dense game makes those
    per-player calls.  A polytensor game contracts each block once with no
    team axis kept, and again, with ``i`` kept, only for the players ``i``
    it touches: ``blocks + sum_i deg_i`` contractions instead of ``n *
    blocks``.  The block-order summation of :func:`contract_game` is kept
    (see :func:`_sum_blocks_per_player`), so every float addition is the
    one it makes.  Nothing is validated.
    """
    players = range(game.n) if players is None else players
    if game._tensor is not None:
        extra = (game.n,) if keep_adversary else ()
        return [contract_game(game, team, adversary, (i,) + extra)
                for i in players]
    return _sum_blocks_per_player(game, team, adversary, players,
                                  keep_adversary)


def _block_operands(blk, team, adversary, pure):
    """A block's table, its vectors and the game axes they weight."""
    axes = blk.players
    table = blk.table
    vectors = [team[p] for p in blk.players]
    if blk.includes_adversary and pure:
        table = table[..., adversary]
    elif blk.includes_adversary:
        axes += (len(team),)
        vectors.append(adversary)
    return table, vectors, axes


def _block_term(operands, sizes, keep):
    """One block's term of :func:`_sum_blocks`, shaped to broadcast over
    the kept axes: axes the block does not touch have length one, since
    the block is constant along them."""
    table, vectors, axes = operands
    local = tuple(k for k, axis in enumerate(axes) if axis in keep)
    return contract(table, vectors, local).reshape(
        [sizes[axis] if axis in axes else 1 for axis in keep])


def _sum_blocks(game, team, adversary, keep):
    """:func:`contract_game` summed block by block over local tables."""
    pure = isinstance(adversary, (int, np.integer))
    sizes = game.action_sets + (game.adversary_actions,)
    out = np.zeros([sizes[axis] for axis in keep])
    for blk in game._blocks:
        out += _block_term(_block_operands(blk, team, adversary, pure),
                           sizes, keep)
    return out


def _sum_blocks_per_player(game, team, adversary, players, keep_adversary,
                           with_total=False):
    """:func:`_sum_blocks` with ``keep = (i,)`` (and the adversary axis
    when ``keep_adversary``) for every ``i`` in ``players``, in one pass.

    The players' vectors are stacked in one array and summed block by
    block, from zero.  A block that misses player ``i`` adds the same
    value to every entry of ``i``'s vector: the block contracted with no
    team axis kept, computed once for every player it misses.  A block
    touching ``i`` is contracted with ``i`` kept.  Each entry therefore
    sees the float additions :func:`_sum_blocks` makes, in its order.
    The entries returned are consecutive views of the stacked array.
    With ``with_total`` every block's reduced value is computed and summed
    in block order too, and ``(entries, total)`` is returned; ``total`` is
    bitwise :func:`_sum_blocks` with no team axis kept.
    """
    pure = isinstance(adversary, (int, np.integer))
    sizes = game.action_sets + (game.adversary_actions,)
    extra = (len(team),) if keep_adversary else ()
    starts = list(itertools.accumulate((sizes[i] for i in players),
                                       initial=0))
    rows = dict(zip(players, map(slice, starts, starts[1:])))
    stacked = np.zeros([starts[-1]] + [sizes[axis] for axis in extra])
    total = np.zeros([sizes[axis] for axis in extra]) if with_total else None
    addend = np.empty_like(stacked)
    for blk in game._blocks:
        operands = _block_operands(blk, team, adversary, pure)
        touched = [i for i in blk.players if i in rows]
        if with_total or len(touched) < len(rows):
            table, vectors, axes = operands
            reduced = contract(table, vectors, tuple(
                k for k, axis in enumerate(axes) if axis in extra))
            addend[...] = reduced
            if with_total:
                total += reduced
        for i in touched:
            addend[rows[i]] = _block_term(operands, sizes, (i,) + extra)
        stacked += addend
    entries = [stacked[rows[i]] for i in players]
    return (entries, total) if with_total else entries


def extension_coefficients(game, team):
    """Every team player's ``|A_i| x |B|`` pure-deviation matrix and the
    adversary payoff vector at one team strategy, for the extension LP.

    Bitwise equal to ``contract_players(game, team, None, True)`` and
    ``contract_game(game, team, None, (game.n,))``.  A dense game makes
    those calls.  A polytensor game reads the vector off the per-player
    pass, as the block-order total of each block's reduced value, so a
    block that misses some team player is contracted once fewer.
    Nothing is validated.
    """
    if game._tensor is not None:
        return (contract_players(game, team, None, keep_adversary=True),
                contract_game(game, team, None, (game.n,)))
    return _sum_blocks_per_player(game, team, None, range(game.n), True,
                                  with_total=True)


def fix_adversary(game, adversary):
    """The game ``x -> U(x, y)`` at one fixed mixed ``y = adversary``: a
    :class:`TeamGame` whose adversary has one action, the mixture ``y``.

    A dense tensor is contracted on its adversary axis, kept with length
    one; a polytensor game's blocks with an adversary axis are contracted
    on it, the others reused as they are.  A caller that evaluates many
    team strategies against one mixture then contracts team axes only,
    e.g. ``contract_game(fixed, team, 0, keep)``; results agree with
    ``contract_game(game, team, y, keep)`` up to the order of float
    additions.  ``game`` is already validated, so the result is built
    directly and only the new tables are frozen.
    """
    def fixed(table, k):
        return _freeze(contract(table, (None,) * k + (adversary,),
                                tuple(range(k))))

    if game._tensor is not None:
        return TeamGame(game.action_sets, 1, None,
                        tensor=fixed(game._tensor, game.n)[..., None])
    blocks = tuple(
        LocalBlock(blk.players, False, fixed(blk.table, len(blk.players)))
        if blk.includes_adversary else blk for blk in game._blocks)
    return TeamGame(game.action_sets, 1, None, blocks=blocks)


def _check_player(game, player):
    if not 0 <= player < game.n:
        raise DimensionMismatchError(
            f"player index {player} out of range for {game.n} players",
            player=player)


def adversary_payoff_vector(game, team):
    """Expected team payoff against each pure adversary action.

    Returns the length-``|B|`` vector ``b -> U(x, b)``; these are exactly
    the per-action coefficients the extension LP consumes.
    """
    return contract_game(game, _validate_mixed_team(game, team), None,
                         (game.n,))


def expected_utility(game, profile):
    """``E_(a,b)~profile U(a, b)`` via per-factor marginalization."""
    profile.validate(game)
    vec = contract_game(game, profile.team, None, (game.n,))
    return float(vec @ profile.adversary)


def partial_gradient(game, profile, player):
    """Deviation payoffs of one team player.

    Component ``a`` equals ``E[U(a, a_-i, b)]`` with the other players and
    the adversary drawn from ``profile``; by multilinearity this is also
    the gradient of the expected utility in ``x_i``.
    """
    _check_player(game, player)
    profile.validate(game)
    return contract_game(game, profile.team, profile.adversary, (player,))


def deviation_payoff_matrix(game, team, player):
    """Payoffs of one player's pure deviations against pure adversary acts.

    Returns the ``|A_player| x |B|`` matrix whose ``(a, b)`` entry is the
    expected payoff when ``player`` commits to ``a``, the other team
    members play their mixed strategies, and the adversary plays ``b``.
    Row-averaging with ``x_player`` recovers ``adversary_payoff_vector``;
    these matrices are the extension LP's coefficients.
    """
    team = _validate_mixed_team(game, team)
    _check_player(game, player)
    return contract_game(game, team, None, (player, game.n))


def adversary_best_response(game, team):
    """Best pure adversary action against the team, ties to lowest index.

    Returns ``(action, value)`` with ``value = max_y U(x, y)``, attained at
    a pure action by linearity in ``y``.
    """
    vec = adversary_payoff_vector(game, team)
    action = int(np.argmax(vec))  # first maximizer == lowest index
    return action, float(vec[action])


def team_gradients(game, team, adversary):
    """All players' expected-utility gradients in one pass.

    ``adversary`` is either a pure action index or a mixed vector over the
    adversary's actions.  Component ``a`` of entry ``i`` is the expected
    payoff when player ``i`` commits to ``a``; dotting with ``x_i``
    recovers the expected utility, whichever ``i`` is used.
    """
    team = _validate_mixed_team(game, team)
    if np.isscalar(adversary) or isinstance(adversary, (int, np.integer)):
        adversary = int(adversary)
        if not 0 <= adversary < game.adversary_actions:
            raise DimensionMismatchError(
                f"adversary action {adversary} out of range")
    else:
        adversary = np.asarray(adversary, dtype=float)
        _check_strategy(adversary, game.adversary_actions, "adversary")
    return contract_players(game, team, adversary)


@dataclass(frozen=True)
class SmoothnessBounds:
    """Lipschitz/smoothness constants of the expected utility.

    ``lipschitz`` bounds ``|U(p) - U(p')| / ||p - p'||_2`` over mixed
    profile pairs; ``smoothness`` bounds the Lipschitz constant of the
    gradient.  ``source`` names where they came from; every solver uses
    the closed-form :func:`analytic_bounds`, so it is ``"analytic"``.
    """

    lipschitz: float
    smoothness: float
    source: str = "analytic"

    def __post_init__(self):
        if self.lipschitz < 0 or self.smoothness < 0:
            raise GameError("bounds must be nonnegative")


def analytic_bounds(game):
    """Closed-form conservative bounds from the payoff magnitude.

    ``L = V * sqrt(sum_i |A_i| + |B|)``; the smoothness constant uses the
    analogous per-coordinate argument and is deliberately an over-estimate
    (``V * (sum_i |A_i| + |B|)``), which only shrinks downstream step
    sizes.  A two-team game is bounded through its joint game, so the
    sizes are summed over every minimizer and maximizer action set.
    """
    game = getattr(game, "joint", game)
    size = sum(game.action_sets) + game.adversary_actions
    v = game.v_max
    return SmoothnessBounds(lipschitz=v * math.sqrt(size), smoothness=v * size)


# -- JSON schema --------------------------------------------------------


def game_from_dict(doc):
    """Parse the game JSON schema into a :class:`TeamGame`.

    Schema: ``{"n": int, "actions": [int], "adversary_actions": int,
    "payoff": {"kind": "dense", "entries": [[[a_1..a_n, b], num, den],
    ...]} | {"kind": "polytensor", "locals": [...]}, "v_max": [num, den]?}``
    with unlisted entries equal to zero.  Entries are exact rationals,
    converted to floats on load by one correctly rounded integer division,
    ``num / den if num else 0.0``: bit for bit ``float(Fraction(num,
    den))``, so ``[0, -5]`` loads as ``+0.0`` while a negative rational
    that underflows keeps its ``-0.0``.

    Raises :class:`SchemaError` naming the field when a count, index,
    ``players`` entry, numerator, denominator or ``v_max`` is not a JSON
    integer (``true``/``false`` included), when a rational is too large
    for a float ("rational out of float range"), and when an entry
    repeats the index of an earlier entry in the same list.
    """
    if not isinstance(doc, dict):
        raise SchemaError("game document must be an object")
    for key in ("n", "actions", "adversary_actions", "payoff"):
        if key not in doc:
            raise SchemaError("missing required field", key)
    n = doc["n"]
    actions = doc["actions"]
    if not _is_int(n) or n < 1:
        raise SchemaError("must be a positive integer", "n")
    if (not isinstance(actions, list) or len(actions) != n
            or not all(_is_int(k) and k >= 1 for k in actions)):
        raise SchemaError(f"must list {n} positive action counts", "actions")
    b_count = doc["adversary_actions"]
    if not _is_int(b_count) or b_count < 1:
        raise SchemaError("must be a positive integer", "adversary_actions")
    v_max = None
    if "v_max" in doc and doc["v_max"] is not None:
        v_max = _parse_rational(doc["v_max"], "v_max")
    payoff = doc["payoff"]
    if not isinstance(payoff, dict) or "kind" not in payoff:
        raise SchemaError("must be an object with a 'kind'", "payoff")
    kind = payoff["kind"]
    if kind == "dense":
        tensor = _parse_dense_entries(payoff.get("entries"),
                                      tuple(actions) + (b_count,),
                                      "payoff.entries")
        game = TeamGame.dense(tensor, v_max=v_max, document=doc)
    elif kind == "polytensor":
        blocks = _parse_locals(payoff.get("locals"), actions, b_count)
        game = TeamGame.polytensor(actions, b_count, blocks, v_max=v_max,
                                   document=doc)
    else:
        raise SchemaError(f"unknown kind {kind!r}", "payoff.kind")
    return game


def _parse_dense_entries(entries, shape, path):
    """The float table of ``shape`` that ``[[indices], num, den]`` entries
    list, zero elsewhere.

    Each value is converted as :func:`_parse_rational` does.  The
    table is filled by one flat-index assignment, which repeated indices
    would leave unordered, so they are rejected.
    """
    if not isinstance(entries, list):
        raise SchemaError("must be a list of [[indices], num, den]", path)
    ndim = len(shape)
    flat, values = [], []
    for pos, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], list) and len(entry[0]) == ndim):
            raise _entry_error(entry, shape, f"{path}[{pos}]")
        idx, num, den = entry
        at = 0
        for i, k in zip(idx, shape):
            if type(i) is not int or not 0 <= i < k:
                raise _entry_error(entry, shape, f"{path}[{pos}]")
            at = at * k + i
        if type(num) is not int or type(den) is not int or den == 0:
            raise _entry_error(entry, shape, f"{path}[{pos}]")
        try:
            values.append(num / den if num else 0.0)
        except OverflowError:
            raise SchemaError("rational out of float range",
                              f"{path}[{pos}]") from None
        flat.append(at)
    if len(set(flat)) != len(flat):
        seen = set()
        for pos, at in enumerate(flat):
            if at in seen:
                raise SchemaError("repeats the index of an earlier entry",
                                  f"{path}[{pos}]")
            seen.add(at)
    table = np.zeros(math.prod(shape))
    table[flat] = values
    return table.reshape(shape)


def _entry_error(entry, shape, here):
    """The :class:`SchemaError` for a dense entry found malformed."""
    if (not isinstance(entry, list) or len(entry) != 3
            or not isinstance(entry[0], list)):
        return SchemaError("entry must be [[indices], num, den]", here)
    idx, num, den = entry
    if len(idx) != len(shape):
        return SchemaError(f"needs {len(shape)} indices, got {len(idx)}", here)
    for axis, (i, k) in enumerate(zip(idx, shape)):
        if not _is_int(i):
            return SchemaError(f"index on axis {axis} must be an integer, "
                               f"got {type(i).__name__}", here)
        if not 0 <= i < k:
            return SchemaError(
                f"index {i} out of range [0, {k}) on axis {axis}", here)
    if not (_is_int(num) and _is_int(den)):
        return SchemaError("rational must be [numerator, denominator]", here)
    return SchemaError("zero denominator", here)


def _parse_locals(locals_, actions, b_count):
    if not isinstance(locals_, list) or not locals_:
        raise SchemaError("must be a nonempty list", "payoff.locals")
    blocks = []
    for pos, loc in enumerate(locals_):
        path = f"payoff.locals[{pos}]"
        if not isinstance(loc, dict):
            raise SchemaError("must be an object", path)
        players = loc.get("players")
        if (not isinstance(players, list)
                or not all(_is_int(p) and 0 <= p < len(actions)
                           for p in players)):
            raise SchemaError("players must list valid team indices",
                              f"{path}.players")
        players = tuple(sorted(players))
        with_adv = bool(loc.get("includes_adversary", False))
        shape = tuple(actions[p] for p in players)
        if with_adv:
            shape = shape + (b_count,)
        if not shape:
            raise SchemaError("block must touch at least one axis", path)
        table = _parse_dense_entries(loc.get("entries"), shape,
                                     f"{path}.entries")
        blocks.append(LocalBlock(players, with_adv, table))
    return blocks


def game_to_dict(game):
    """Serialize a game back to the JSON schema.

    Games loaded from a document round-trip exactly; games built from
    float arrays serialize entries via exact binary-float rationals.
    """
    if game.document is not None:
        return game.document
    tensor = game.payoff_tensor()
    entries = []
    for idx in np.ndindex(*tensor.shape):
        val = tensor[idx]
        if val != 0.0:
            # as_integer_ratio() is in lowest terms, denominator > 0.
            entries.append([list(int(i) for i in idx),
                            *float(val).as_integer_ratio()])
    return {
        "n": game.n,
        "actions": list(game.action_sets),
        "adversary_actions": game.adversary_actions,
        "payoff": {"kind": "dense", "entries": entries},
        "v_max": list(float(game.v_max).as_integer_ratio()),
    }


def profile_to_dict(profile):
    return {"team": [list(map(float, x)) for x in profile.team],
            "adversary": list(map(float, profile.adversary))}


def profile_from_dict(doc):
    if not isinstance(doc, dict) or "team" not in doc or "adversary" not in doc:
        raise SchemaError("profile needs 'team' and 'adversary' fields")
    try:
        return MixedProfile.of(doc["team"], doc["adversary"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed profile vectors: {exc}") from exc
