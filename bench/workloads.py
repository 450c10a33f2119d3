"""The benchmark's workloads: seeded inputs, the public call, the output check.

Each workload turns a seed into a list of instances (``setup``), runs one
instance through ``teamsolve``'s public API (``run``) and judges the
returned output with the brute-force certifier (``check``).  ``teamsolve``
is passed in as a module and every entry point is looked up on it at call
time, so a traced run sees each call.

``solve`` and ``gdmm`` run a fixed panel of base games; the seed relabels
players and actions of every game.  Time to a certified solution varies
by orders of magnitude between independent random draws (0.003 s to 38 s
per GD solve at these shapes; coefficient of variation 0.8 to 2.3 over 20
to 60 draws per shape), and gdmm draws either stop at once, converge, or
exhaust their budget, so fresh draws could not make a run of a few dozen
seconds steady across seeds.  A relabeling hands the solver a different
tensor with the same equilibria; iteration counts and outcomes carry over
unchanged.  ``certify`` costs about the same on every input of a shape,
so it draws fresh games and strategies from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import oracle

# ``solve``: GD-max with the default config on dense random_game draws.
SOLVE_EPSILON = 0.05
# (shape, random_game seed): the first draws of each shape, in seed order.
SOLVE_PANEL = (((2, 2, 3), 0), ((2, 2, 3), 1), ((2, 2, 3), 2), ((2, 2, 3), 3),
               ((3, 3, 3, 4), 0))

# ``gdmm``: the six 2v2 draws of the two-team batch test (generator seed 9).
GDMM_EPSILON = 0.1
GDMM_GRID_STEP = 0.02
GDMM_BASE_SEED = 9
GDMM_GAMES = 6
GDMM_TEAMS = (2, 2)  # minimizers, maximizers; two actions each

# ``certify``: extend_ne then ne_gap on dense 4^4 x 6 and 12-player rings.
CERTIFY_DENSE = (4, 4, 4, 4, 6)
CERTIFY_RING_PLAYERS = 12
CERTIFY_RING_ADVERSARY = 3
# Six dense games to four rings keeps the median call inside the faster
# (dense) cluster and the 90th percentile inside the slower one, away from
# the gap between them; several games per kind average out their LP sizes.
CERTIFY_DENSE_GAMES = 6
CERTIFY_RING_GAMES = 4
CERTIFY_STRATEGIES_PER_GAME = 40

_RATIONAL_GRID = 10 ** 6


@dataclass
class Case:
    """One parsed game plus its dense tensor, materialized on first check."""

    game: object
    two_team: bool = False
    _tensor: np.ndarray | None = field(default=None, repr=False)

    def tensor(self):
        if self._tensor is None:
            self._tensor = np.asarray(
                self.game.tensor if self.two_team
                else self.game.payoff_tensor(), dtype=float)
        return self._tensor


@dataclass
class Instance:
    case: Case
    team: tuple | None = None


@dataclass
class Verdict:
    correct: bool
    verified: bool
    exhausted: bool = False


# -- relabeling -------------------------------------------------------------


def _relabel(entries, shape, groups, rng):
    """Permute players within each axis group and actions on every axis.

    ``entries`` are JSON payoff entries ``[[index...], num, den]``.
    Returns the relabeled entries and shape; new axis ``a`` holds old axis
    ``source[a]``, with its actions renamed by ``actions[source[a]]``.
    """
    source = list(range(len(shape)))
    for group in groups:
        for new, old in zip(group, rng.permutation(group)):
            source[new] = int(old)
    actions = [rng.permutation(k) for k in shape]
    relabeled = [[[int(actions[s][idx[s]]) for s in source], num, den]
                 for idx, num, den in entries]
    return relabeled, [shape[s] for s in source]


def _exact_entries(tensor):
    entries = []
    for idx in np.ndindex(*tensor.shape):
        if tensor[idx] != 0.0:
            frac = Fraction(*float(tensor[idx]).as_integer_ratio())
            entries.append([list(idx), frac.numerator, frac.denominator])
    return entries


def _round_trip(doc):
    return json.loads(json.dumps(doc))


# -- solve ------------------------------------------------------------------


def setup_solve(ts, seed):
    instances = []
    for k, (shape, base_seed) in enumerate(SOLVE_PANEL):
        n = len(shape) - 1
        base = ts.game_to_dict(ts.random_game(
            n, list(shape[:-1]), shape[-1], base_seed))
        rng = np.random.default_rng([seed, k])
        entries, new_shape = _relabel(base["payoff"]["entries"], shape,
                                      [list(range(n))], rng)
        doc = {"n": n, "actions": new_shape[:-1],
               "adversary_actions": new_shape[-1],
               "payoff": {"kind": "dense", "entries": entries},
               "v_max": base["v_max"],
               "provenance": {"generator": "random",
                              "seed": base_seed,
                              "relabel": [seed, k]}}
        instances.append(Instance(Case(ts.game_from_dict(_round_trip(doc)))))
    return instances


def run_solve(ts, inst):
    return ts.gradient_descent_max(inst.case.game,
                                   ts.GdConfig(epsilon=SOLVE_EPSILON))


def check_solve(inst, out):
    profile, cert, trace = out
    game = inst.case.game
    return _gap_verdict(inst.case, profile.team, [profile.adversary],
                        game.action_sets, [game.adversary_actions],
                        cert, trace, SOLVE_EPSILON)


def _gap_verdict(case, minimizers, maximizers, min_sizes, max_sizes, cert,
                 trace, epsilon):
    """Judge a solver's profile and certificate against the brute force."""
    for vectors, sizes in ((minimizers, min_sizes), (maximizers, max_sizes)):
        if len(vectors) != len(sizes) or not all(
                oracle.is_simplex(v, k) for v, k in zip(vectors, sizes)):
            return Verdict(False, False)
    gap = oracle.profile_gap(case.tensor(), minimizers, maximizers)
    correct = abs(gap - cert.gap) <= oracle.TOL
    converged = trace.outcome == "converged"
    return Verdict(correct,
                   correct and converged and gap <= epsilon + oracle.TOL,
                   exhausted=not converged)


# -- gdmm -------------------------------------------------------------------


def setup_gdmm(ts, seed):
    n, m = GDMM_TEAMS
    draws = np.random.default_rng(GDMM_BASE_SEED)
    shape = (2,) * (n + m)
    instances = []
    for k in range(GDMM_GAMES):
        base = draws.uniform(-1, 1, size=shape)
        rng = np.random.default_rng([seed, k])
        # The last maximizer is completed by the extension LP, so only the
        # minimizers and the co-maximizers trade places.
        entries, new_shape = _relabel(_exact_entries(base), shape,
                                      [list(range(n)),
                                       list(range(n, n + m - 1))], rng)
        doc = {"teams": {"minimizers": n, "maximizers": m},
               "actions": new_shape[:n], "adversary_actions": new_shape[n:],
               "payoff": {"kind": "dense", "entries": entries},
               "provenance": {"generator": "uniform", "seed": GDMM_BASE_SEED,
                              "draw": k, "relabel": [seed, k]}}
        game = ts.two_team_from_dict(_round_trip(doc))
        instances.append(Instance(Case(game, two_team=True)))
    return instances


def run_gdmm(ts, inst):
    return ts.gd_mm(inst.case.game, ts.GdConfig(epsilon=GDMM_EPSILON),
                    oracle_method="grid", grid_step=GDMM_GRID_STEP)


def check_gdmm(inst, out):
    profile, cert, trace = out
    game = inst.case.game
    return _gap_verdict(inst.case, profile.minimizers, profile.maximizers,
                        game.minimizer_actions, game.maximizer_actions,
                        cert, trace, GDMM_EPSILON)


# -- certify ----------------------------------------------------------------


def _ring_doc(rng, players, adversary):
    """Pairwise blocks (i, i+1 mod players), each with the adversary axis."""
    locals_ = []
    for i in range(players):
        pair = sorted((i, (i + 1) % players))
        ticks = rng.integers(0, _RATIONAL_GRID + 1, size=(2, 2, adversary))
        entries = []
        for idx in np.ndindex(*ticks.shape):
            value = Fraction(-1) + Fraction(2 * int(ticks[idx]),
                                            _RATIONAL_GRID)
            if value != 0:
                entries.append([list(idx), value.numerator,
                                value.denominator])
        locals_.append({"players": pair, "includes_adversary": True,
                        "entries": entries})
    return {"n": players, "actions": [2] * players,
            "adversary_actions": adversary,
            "payoff": {"kind": "polytensor", "locals": locals_}}


def setup_certify(ts, seed):
    rng = np.random.default_rng([seed, 1])
    cases = []
    for g in range(CERTIFY_DENSE_GAMES):
        dense = ts.game_to_dict(ts.random_game(
            len(CERTIFY_DENSE) - 1, list(CERTIFY_DENSE[:-1]),
            CERTIFY_DENSE[-1], seed * CERTIFY_DENSE_GAMES + g))
        cases.append(Case(ts.game_from_dict(_round_trip(dense))))
    for _ in range(CERTIFY_RING_GAMES):
        ring = _ring_doc(rng, CERTIFY_RING_PLAYERS, CERTIFY_RING_ADVERSARY)
        cases.append(Case(ts.game_from_dict(_round_trip(ring))))
    instances = []
    for case in cases:
        for _ in range(CERTIFY_STRATEGIES_PER_GAME):
            team = tuple(rng.dirichlet(np.ones(k))
                         for k in case.game.action_sets)
            instances.append(Instance(case, team))
    return instances


def run_certify(ts, inst):
    y = ts.extend_ne(inst.case.game, inst.team)
    return y, ts.ne_gap(inst.case.game, ts.MixedProfile(inst.team, y))


def check_certify(inst, out):
    y, cert = out
    if not oracle.is_simplex(y, inst.case.game.adversary_actions):
        return Verdict(False, False)
    gap = oracle.profile_gap(inst.case.tensor(), inst.team, [y])
    correct = abs(gap - cert.gap) <= oracle.TOL
    return Verdict(correct, correct)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "solve": Workload(setup_solve, run_solve, check_solve),
    "certify": Workload(setup_certify, run_certify, check_certify),
    "gdmm": Workload(setup_gdmm, run_gdmm, check_gdmm),
}
