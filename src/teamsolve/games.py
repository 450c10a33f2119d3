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

    ``players`` lists the 0-based team players the block touches in
    strictly increasing order (:meth:`TeamGame.polytensor` rejects any
    other); ``includes_adversary`` says whether the block's last axis
    ranges over adversary actions.  ``table`` has one axis per listed
    player, in that order, followed by the adversary axis when present.
    """

    players: tuple[int, ...]
    includes_adversary: bool
    table: np.ndarray


def _freeze(arr):
    # ``np.ascontiguousarray`` would lift a 0-d constant table to 1-d.
    arr = np.asarray(arr, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


def _freeze_index(arr):
    arr.setflags(write=False)
    return arr


class _BlockGroup:
    """The blocks of a polytensor game that share an adversary flag and a
    table shape, stacked.

    Row ``j`` belongs to block ``order[j]`` of the game: ``table[j]`` is
    its table and ``players[j]`` the team players it touches.
    ``gather[k][j]`` indexes the actions of player ``players[j, k]`` in
    the team's strategies laid end to end (``np.concatenate(team)``).
    Every array is frozen.
    """

    __slots__ = ("order", "players", "includes_adversary", "table", "gather",
                 "_blocks")

    def __init__(self, order, players, includes_adversary, table, gather):
        self.order, self.players, self.table, self.gather = (
            order, players, table, gather)
        self.includes_adversary = includes_adversary
        self._blocks = None

    def blocks(self):
        """The group's :class:`LocalBlock` s, whose tables are views of
        ``table``; made on first use."""
        if self._blocks is None:
            self._blocks = tuple(
                LocalBlock(tuple(players), self.includes_adversary,
                           self.table[j, ...])
                for j, players in enumerate(self.players.tolist()))
        return self._blocks


def _group_blocks(blocks, action_sets):
    """``blocks`` stacked into :class:`_BlockGroup` s, one per adversary
    flag and table shape, in order of first appearance."""
    members = {}
    for pos, blk in enumerate(blocks):
        key = (blk.includes_adversary, blk.table.shape)
        members.setdefault(key, []).append(pos)
    starts = np.cumsum((0,) + action_sets)
    groups = []
    for (with_adversary, shape), order in members.items():
        arity = len(shape) - with_adversary
        players = np.array([blocks[j].players for j in order],
                           dtype=np.intp).reshape(len(order), arity)
        gather = tuple(_freeze_index(starts[players[:, k], None]
                                     + np.arange(shape[k]))
                       for k in range(arity))
        groups.append(_BlockGroup(
            _freeze_index(np.array(order, dtype=np.intp)),
            _freeze_index(players), with_adversary,
            _freeze(np.stack([blocks[j].table for j in order])), gather))
    return tuple(groups)


class TeamGame:
    """An adversarial team game with ``n`` team players and one adversary.

    Construct through :meth:`dense`, :meth:`polytensor` or
    :func:`game_from_dict`; ``TeamGame(...)`` stores its parts unchecked,
    for a game derived from a validated one.  A polytensor game keeps its
    blocks stacked in groups of one adversary flag and table shape, so
    every expected-payoff kernel contracts a whole group at once and sums
    in its own order, which agrees with the block-by-block sums to
    rounding; its :class:`LocalBlock` list is a view of those stacks, and
    a materialized payoff tensor is summed from it block by block.
    ``v_max`` bounds ``|U(a, b)|`` over all pure profiles.  The default
    (``max |T|``, or the sum of block maxima) is a proven bound; a
    declared one is audited at construction (exhaustively for dense
    games, on sampled profiles for polytensor games).
    """

    __slots__ = ("action_sets", "adversary_actions", "v_max", "_tensor",
                 "_groups", "_block_list", "document")

    def __init__(self, action_sets, adversary_actions, v_max, tensor=None,
                 groups=None, document=None):
        self.action_sets, self.adversary_actions, self.v_max = (
            action_sets, adversary_actions, v_max)
        self._tensor, self._groups, self.document = tensor, groups, document
        self._block_list = None

    @property
    def _blocks(self):
        """The local blocks in game order (``None`` for a dense game),
        assembled from the groups on first use."""
        if self._block_list is None and self._groups is not None:
            blocks = [None] * _block_count(self)
            for group in self._groups:
                for j, blk in zip(group.order.tolist(), group.blocks()):
                    blocks[j] = blk
            self._block_list = tuple(blocks)
        return self._block_list

    # -- constructors -------------------------------------------------

    @classmethod
    def _checked(cls, action_sets, adversary_actions, v_max, **parts):
        """The game of ``parts``, its action counts and ``v_max`` checked."""
        if len(action_sets) < 1 or any(k < 1 for k in action_sets):
            raise GameError("need n >= 1 team players with >= 1 action each")
        if adversary_actions < 1:
            raise GameError("adversary needs >= 1 action")
        game = cls(action_sets, int(adversary_actions), None, **parts)
        game.v_max = float(v_max) if v_max is not None else game._default_v_max()
        if not math.isfinite(game.v_max) or game.v_max < 0:
            raise GameError("v_max must be finite and nonnegative")
        if v_max is not None:
            game._audit_v_max()
        return game

    @classmethod
    def dense(cls, tensor, v_max=None, document=None):
        """Build a game from a dense payoff tensor

        with shape ``(*action_sets, adversary_actions)``.
        """
        tensor = _freeze(tensor)
        if tensor.ndim < 2:
            raise GameError("dense tensor needs at least one team axis and "
                            "the adversary axis")
        return cls._checked(tensor.shape[:-1], tensor.shape[-1], v_max,
                            tensor=tensor, document=document)

    @classmethod
    def polytensor(cls, action_sets, adversary_actions, blocks, v_max=None,
                   document=None):
        """Build a game whose payoff is the sum of the given local blocks."""
        action_sets = tuple(int(k) for k in action_sets)
        frozen = []
        for pos, blk in enumerate(blocks):
            players = tuple(int(p) for p in blk.players)
            if any(a >= b for a, b in zip(players, players[1:])):
                raise GameError(
                    f"block {pos}: players must be strictly increasing")
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
        return cls._checked(action_sets, adversary_actions, v_max,
                            groups=_group_blocks(frozen, action_sets),
                            document=document)

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
        """Materialize the full dense tensor (intended for small games).

        A polytensor game's tables are broadcast onto the grid and summed
        in block order from zero (:func:`_materialize`), which keeps the
        memory to the grid's own size.
        """
        if self._tensor is not None:
            return self._tensor
        return _materialize(self, (None,) * (self.n + 1))

    def _default_v_max(self):
        # The ndarray method skips np.max's Python wrapper.
        if self._tensor is not None:
            return float(np.abs(self._tensor).max(initial=0.0))
        # Sum of per-block maxima is a valid (possibly loose) bound,
        # summed in block order.
        maxima = np.empty(_block_count(self))
        for group in self._groups:
            maxima[group.order] = np.abs(group.table).reshape(
                len(group.order), -1).max(axis=1, initial=0.0)
        return float(sum(maxima.tolist()))

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
    return _checked_strategies(team, game.action_sets, "team", "player", 0)


def _checked_strategies(vectors, sizes, what, label, first):
    """``vectors`` as float arrays, after checking their number (naming the
    ``what`` vectors), then each one's length and simplex in turn: vector
    ``i`` of size ``sizes[i]`` is ``"{label} i"``, player ``first + i``."""
    vectors = tuple(np.asarray(x, dtype=float) for x in vectors)
    if len(vectors) != len(sizes):
        raise DimensionMismatchError(
            f"got {len(vectors)} {what} vectors, need {len(sizes)}")
    for i, (x, size) in enumerate(zip(vectors, sizes)):
        _check_strategy(x, size, f"{label} {i}", first + i)
    return vectors


# -- expected utility and gradients ------------------------------------


def contract(table, vectors, keep, batched=False):
    """Contract ``table`` with one strategy per axis, except the kept axes.

    ``vectors`` has one entry per axis of ``table``; entries on axes in
    ``keep`` (a tuple) are ignored (``None`` will do).  A 1-D entry weights its
    axis.  A 2-D entry stacks several strategies for its axis, one per
    row, and its stacking axis leads the result.  The kept axes follow in
    increasing order.  With ``batched``, axis 0 of ``table`` runs over a
    stack of tables and leads the result; ``vectors`` and ``keep`` name
    the other axes, counted from 0, and a 2-D entry holds one strategy per
    table.  Axes are labelled by number, so no subscript alphabet caps the
    rank below numpy's own limit of 52 labels.

    Every payoff evaluation reaches it: a dense game's once per call of
    :func:`contract_game` (once per player in :func:`contract_players`),
    a polytensor game's once per block group and kept position
    (:func:`_group_terms`), or once per block when a payoff tensor is
    materialized (:func:`_materialize`).  The grid minmax oracle's
    ``tensordot`` screen (``two_team._grid_argmin``) is the one other
    payoff contraction; it picks a grid point only where its error bound
    proves it the one this function's full-grid scores pick, and defers
    to those scores otherwise.

    The subscripts depend only on the table's rank, the kept axes and
    each operand's rank, so they are built once per such layout
    (:func:`_plan`) and handed straight to numpy's C ``einsum``, the call
    ``np.einsum`` itself makes without ``optimize``.  Unbatched results
    are bitwise equal to ``np.einsum`` on the numbered sublists, without
    its Python wrapper and dispatch.  Batched, table ``j`` of the result
    is the unbatched contraction of ``table[j]`` with its strategies up to
    the order of float additions.
    """
    ranks = tuple([None if axis in keep else vec.ndim
                   for axis, vec in enumerate(vectors)])
    spec, axes = _plan(table.ndim, keep, ranks, batched)
    return _c_einsum(spec, table, *[vectors[axis] for axis in axes])


# numpy spells a numbered sublist label ``k`` as the ``k``-th of these.
_LABELS = string.ascii_uppercase + string.ascii_lowercase


@functools.lru_cache(maxsize=1024)
def _plan(ndim, keep, ranks, batched):
    """The ``einsum`` subscripts of :func:`contract` for one layout.

    ``ranks`` holds each vector's ``ndim``, ``None`` on kept axes.
    Returns the subscript string and the axes whose vectors are its
    operands after the table.  Table axis ``a`` is labelled ``a``.
    Unbatched, a stacking axis is labelled ``ndim + a``, spelled as numpy
    spells numbered sublists, so the string is the one ``np.einsum``
    builds from them.  Batched, the batch axis has label 0 and leads the
    output, vector axis ``a`` is table axis ``a + 1``, and a 2-D vector
    carries the batch label.
    """
    lead = int(batched)
    axes = tuple(axis for axis, rank in enumerate(ranks) if rank is not None)
    terms = [range(ndim)]
    stacked = []
    for axis in axes:
        if ranks[axis] != 2:
            terms.append((axis + lead,))
        elif batched:
            terms.append((0, axis + lead))
        else:
            stacked.append(ndim + axis)
            terms.append((ndim + axis, axis))
    out = [0] * lead + stacked + [axis + lead for axis in sorted(keep)]
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
    entry points check their inputs once, and internal callers pass
    strategies they built themselves.  On a polytensor game, ``keep``
    holds at most one team axis, and the result is read off the
    per-player pass (:func:`_sum_blocks_per_player`): its total for no
    team axis, entry ``i`` for axis ``i``.  So this function,
    :func:`contract_players` and :func:`extension_coefficients` agree
    bitwise by construction, and differ from summing the blocks one at a
    time only in the order of float additions (the tests hold it within
    1e-12).  A polytensor ``keep`` with two or more team axes raises
    ``ValueError``; :func:`_materialize` keeps any number of axes.  A
    game from :func:`fix_adversary` is evaluated here too, at its one
    adversary action ``0``.
    """
    if game._tensor is not None:
        if isinstance(adversary, (int, np.integer)):
            return contract(game._tensor[..., adversary], team, keep)
        return contract(game._tensor, (*team, adversary), keep)
    keep_adversary = keep[-1:] == (game.n,)
    team_axes = keep[:-1] if keep_adversary else keep
    if len(team_axes) > 1:
        raise ValueError(f"a polytensor game keeps at most one team axis, "
                         f"not {team_axes}")
    entries, total = _sum_blocks_per_player(game, team, adversary, team_axes,
                                            keep_adversary)
    return entries[0] if team_axes else total


def _materialize(game, strategies):
    """The payoff tensor with every axis that has a strategy averaged out
    and every ``None`` axis kept, in order.

    ``strategies`` holds one mixed strategy or ``None`` per axis: the
    team's, then the adversary's.  A dense game makes one
    :func:`contract` call.  A polytensor game contracts each block's
    weighted axes on its own table, then adds the result, broadcast along
    the kept axes the block does not touch, to a zero tensor in block
    order; so the memory is the result's, never the full grid's.
    """
    keep = tuple(axis for axis, x in enumerate(strategies) if x is None)
    if game._tensor is not None:
        return contract(game._tensor, strategies, keep)
    sizes = game.action_sets + (game.adversary_actions,)
    out = np.zeros([sizes[axis] for axis in keep])
    for blk in game._blocks:
        axes = blk.players + ((game.n,) if blk.includes_adversary else ())
        vectors = [strategies[axis] for axis in axes]
        local = tuple(k for k, x in enumerate(vectors) if x is None)
        out += contract(blk.table, vectors, local).reshape(
            [sizes[axis] if axis in axes else 1 for axis in keep])
    return out


def contract_players(game, team, adversary, keep_adversary=False,
                     players=None):
    """Each listed team player's vector at one profile, in one pass.

    Entry ``k`` is ``contract_game(game, team, adversary, (i,) +
    ((game.n,) if keep_adversary else ()))`` for ``i = players[k]``;
    ``players`` defaults to every team player.  ``keep_adversary``
    requires ``adversary`` to be ``None``.  A dense game makes those
    per-player calls.  A polytensor game makes the one pass that
    :func:`contract_game` reads (:func:`_sum_blocks_per_player`), so the
    two agree bitwise by construction, with at most ``1 + arity`` batched
    contractions per block group, however many blocks and players there
    are.  Nothing is validated.
    """
    players = range(game.n) if players is None else players
    if game._tensor is not None:
        extra = (game.n,) if keep_adversary else ()
        return [contract_game(game, team, adversary, (i,) + extra)
                for i in players]
    return _sum_blocks_per_player(game, team, adversary, players,
                                  keep_adversary)[0]


def _block_count(game):
    return sum(len(group.order) for group in game._groups)


def _group_terms(group, strategies, adversary, positions):
    """The terms of every block of ``group``, in one batched
    :func:`contract`.

    ``strategies[k]`` holds, row by row, the strategy of each block's
    player at position ``k``.  Each table is weighted by them except at
    ``positions``, which are kept in increasing order.  Its adversary
    axis, if it has one, is taken as :func:`contract_game` takes
    ``adversary``: kept when ``None``, fixed when pure, weighted when
    mixed.
    """
    table = group.table
    vectors = [None if k in positions else strategies[k]
               for k in range(len(strategies))]
    if group.includes_adversary:
        if adversary is None:
            positions += (len(vectors),)
            vectors.append(None)
        elif isinstance(adversary, (int, np.integer)):
            table = table[..., adversary]
        else:
            vectors.append(adversary)
    return contract(table, vectors, positions, True)


def _sum_blocks_per_player(game, team, adversary, players, keep_adversary):
    """:func:`contract_game` with ``keep = (i,)`` for every ``i`` in
    ``players`` and with ``keep = ()``, each with the adversary axis too
    when ``keep_adversary``, in one pass; returns ``(entries, total)``.

    ``total`` sums every block's term with no team axis kept, one batched
    contraction per group.  A block differs from that term only on the
    entries of the players it touches: on player ``i`` at its position
    ``k`` it adds its term with ``k`` kept minus its term with none.
    Those corrections are scattered through the group's ``gather`` with
    ``np.add.at``, since one player can sit at the same position of
    several blocks.  The kept terms are made for every row of the group
    whichever players are listed, so a player's vector does not depend
    on which others were asked for; with none listed they are skipped.
    """
    flat = np.concatenate(team)
    width = (game.adversary_actions,) if keep_adversary else ()
    out = np.zeros((len(flat), math.prod(width)))
    total = np.zeros(out.shape[1])
    for group in game._groups:
        strategies = [flat[index] for index in group.gather]
        terms = _group_terms(group, strategies, adversary, ())
        terms = terms.reshape(len(terms), -1)
        total += terms.sum(axis=0)
        for k, index in enumerate(group.gather if players else ()):
            kept = _group_terms(group, strategies, adversary, (k,))
            np.add.at(out, index,
                      kept.reshape(index.shape + (-1,)) - terms[:, None])
    out += total
    out = out.reshape((-1,) + width)
    starts = list(itertools.accumulate(game.action_sets, initial=0))
    return ([out[starts[i]:starts[i + 1]] for i in players],
            total.reshape(width))


def extension_coefficients(game, team):
    """Every team player's ``|A_i| x |B|`` pure-deviation matrix and the
    adversary payoff vector at one team strategy, for the extension LP.

    Bitwise equal to ``contract_players(game, team, None, True)`` and
    ``contract_game(game, team, None, (game.n,))``.  A dense game makes
    those calls.  A polytensor game reads both off the one per-player
    pass they read, so it makes no contraction beyond
    :func:`contract_players`'s ``1 + arity`` per group.  Nothing is
    validated.
    """
    if game._tensor is not None:
        return (contract_players(game, team, None, keep_adversary=True),
                contract_game(game, team, None, (game.n,)))
    return _sum_blocks_per_player(game, team, None, range(game.n), True)


def fix_adversary(game, adversary):
    """The game ``x -> U(x, y)`` at one fixed mixed ``y = adversary``: a
    :class:`TeamGame` whose adversary has one action, the mixture ``y``.

    A dense tensor is contracted on its adversary axis, kept with length
    one.  A polytensor game's block groups with an adversary axis are
    contracted on it, one batched contraction per group, into new groups
    with the same players; the other groups are shared as they are, so
    nothing is stacked again.  A caller that evaluates many team
    strategies against one mixture then contracts team axes only, e.g.
    ``contract_game(fixed, team, 0, keep)``; results agree with
    ``contract_game(game, team, y, keep)`` up to the order of float
    additions.  ``game`` is already validated, so the result is built
    through the unchecked constructor and only the new tables are frozen.
    It inherits ``game.v_max``, a valid bound since ``|U(x, y)| <= max
    |U|``, so no bound is computed or audited.
    """
    def fixed(table, k, batched):
        return _freeze(contract(table, (None,) * k + (adversary,),
                                tuple(range(k)), batched))

    if game._tensor is not None:
        return TeamGame(game.action_sets, 1, game.v_max,
                        tensor=fixed(game._tensor, game.n, False)[..., None])
    groups = tuple(
        _BlockGroup(group.order, group.players, False,
                    fixed(group.table, len(group.gather), True), group.gather)
        if group.includes_adversary else group for group in game._groups)
    return TeamGame(game.action_sets, 1, game.v_max, groups=groups)


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
    for a float ("rational out of float range"), when an entry
    repeats the index of an earlier entry in the same list, when a block's
    ``players`` are not strictly increasing (its table's axes follow that
    list) and when ``includes_adversary`` is present but not a boolean.
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
        if any(a >= b for a, b in zip(players, players[1:])):
            raise SchemaError("players must be strictly increasing",
                              f"{path}.players")
        players = tuple(players)
        with_adv = loc.get("includes_adversary", False)
        if type(with_adv) is not bool:
            raise SchemaError("must be a boolean",
                              f"{path}.includes_adversary")
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
