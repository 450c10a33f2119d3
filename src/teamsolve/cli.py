"""Command-line interface: solve, verify, gen, prox and gdmm.

Exit codes are part of the contract: 0 success/certified, 1 input error,
2 budget exhausted (best profile still written), 3 verification failed.
All outputs are reproducible byte-for-byte under a fixed seed.  Set
``TEAMSOLVE_LOG`` to a level name (e.g. ``debug``) for diagnostics.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import (TRACE_COLUMNS, GdConfig, default_max_iters,
                       gradient_descent_max)
from .extension import ne_gap
from .games import (
    GameError,
    game_from_dict,
    profile_from_dict,
    profile_to_dict,
)
from .generators import (
    CongestionSpec,
    congestion_to_team_game,
    potential_spec_to_two_team,
    random_spec_to_game,
)
from .linprog import LpFault
from .moreau import _checked_center, proximal_point
from .two_team import (
    TwoTeamGame,
    _grid_q,
    gd_mm,
    ne_gap_two_team,
    two_team_from_dict,
    two_team_profile_from_dict,
    two_team_profile_to_dict,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_NOT_VERIFIED = 3

log = logging.getLogger("teamsolve")


class InputError(Exception):
    """CLI-level input problem; message is printed, exit code 1."""


def _on_path(path, method, *args, **kwargs):
    """``Path(path).method(*args, **kwargs)``; ``OSError`` is input error."""
    try:
        return getattr(Path(path), method)(*args, **kwargs)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _read_json(path):
    text = _on_path(path, "read_text")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at byte {exc.pos}: {exc.msg}") from exc


def _dumps(payload):  # strict JSON: NaN or infinity raises ValueError
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _write_json(path, payload):
    _on_path(path, "write_text", _dumps(payload) + "\n")


def _check_outputs(out, args):  # before a run, not after it
    sidecar = [f"{out}.trace.csv"] if args.format == "csv" else []
    for path in map(Path, [out, *sidecar]):
        if not path.parent.is_dir():
            raise InputError(f"{path}: no such directory")
        if path.is_dir():
            raise InputError(f"{path}: is a directory")


def _load_game(path, two_team=None):
    """Load a game file of either schema; ``two_team`` set to True or
    False refuses the other one."""
    doc = _read_json(path)
    is_two_team = isinstance(doc, dict) and "teams" in doc
    try:
        game = two_team_from_dict(doc) if is_two_team else game_from_dict(doc)
    except GameError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if two_team is not None and is_two_team != two_team:
        wanted = ("a two-team game (a 'teams' field)" if two_team else
                  "a single-adversary game; use gdmm for two-team games")
        raise InputError(f"{path}: expected {wanted}")
    return game


def _argument(check, *args, **kwargs):
    """Call a library argument check, never a solver loop, reporting its
    ``ValueError`` or ``GameError`` as an input error."""
    try:
        return check(*args, **kwargs)
    except (ValueError, GameError) as exc:
        raise InputError(str(exc)) from exc


def _write_result(out, profile_doc, cert, trace, args, embed_trace):
    """Write a run's JSON result, with its trace as a sidecar CSV under
    ``--format csv`` or, if ``embed_trace``, as JSON rows; returns the
    exit code."""
    payload = {"profile": profile_doc, "certificate": cert.to_dict(),
               "summary": trace.summary()}
    if args.format == "csv":
        _on_path(f"{out}.trace.csv", "write_text", trace.to_csv())
    elif embed_trace:
        payload["trace"] = [{c: getattr(r, c) for c in TRACE_COLUMNS}
                            for r in trace.iterations]
    _write_json(out, payload)
    log.info("%s: %s gap=%.6g", out, trace.outcome, cert.gap)
    return EXIT_OK if trace.outcome == "converged" else EXIT_BUDGET


def cmd_solve(args):
    if args.jobs < 1:
        raise InputError("--jobs must be >= 1")
    config = _argument(GdConfig, epsilon=args.epsilon, eta=args.eta,
                       max_iters=args.max_iters)
    for g in args.game:  # every input is checked before the first solve
        game = _load_game(g, two_team=False)
        if config.max_iters is None:
            _argument(default_max_iters, game, config.epsilon)
    if len(args.game) > 1:
        out_dir = Path(args.out)
        out_paths = [out_dir / (Path(g).stem + ".result.json")
                     for g in args.game]
        for i, out in enumerate(out_paths):
            if out in out_paths[:i]:
                raise InputError(f"{args.game[out_paths.index(out)]} and "
                                 f"{args.game[i]} would both write {out}")
        _on_path(out_dir, "mkdir", parents=True, exist_ok=True)
    else:
        out_paths = [Path(args.out)]
    for out in out_paths:
        _check_outputs(out, args)
    if len(args.game) == 1:  # solve the game the check loaded
        return _solve_game(game, out_paths[0], args, config)
    # A batch loads each game again just before its solve rather than
    # holding every game at once.
    jobs = [(g, out, args, config) for g, out in zip(args.game, out_paths)]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=args.jobs) as ex:
            return max(ex.map(_solve_worker, jobs))
    return max(map(_solve_worker, jobs))


def _solve_worker(job):
    """Load one game file and solve it; returns the exit code."""
    game_path, out, args, config = job
    return _solve_game(_load_game(game_path, two_team=False), out, args,
                       config)


def _solve_game(game, out, args, config):
    """Solve one loaded game and write its result; returns the exit code."""
    profile, cert, trace = gradient_descent_max(game, config)
    return _write_result(out, profile_to_dict(profile), cert, trace, args,
                         embed_trace=True)


def cmd_verify(args):
    if not 0 < args.epsilon < np.inf:
        raise InputError("epsilon must be positive and finite")
    game = _load_game(args.game)
    doc = _read_json(args.profile)
    try:
        if isinstance(game, TwoTeamGame):
            profile = two_team_profile_from_dict(doc)
            cert = ne_gap_two_team(game, profile,
                                   epsilon_claimed=args.epsilon)
        else:
            profile = profile_from_dict(doc)
            cert = ne_gap(game, profile, epsilon_claimed=args.epsilon)
    except GameError as exc:
        raise InputError(f"{args.profile}: {exc}") from exc
    print(_dumps(cert.to_dict()))
    return EXIT_OK if cert.gap <= args.epsilon else EXIT_NOT_VERIFIED


def cmd_gen(args):
    spec = _read_json(args.spec)
    try:
        if args.family == "random":
            game = random_spec_to_game(spec, args.seed)
        elif args.family == "congestion":
            game = congestion_to_team_game(CongestionSpec.from_dict(spec))
        else:
            game = potential_spec_to_two_team(spec, args.seed)
    except GameError as exc:
        raise InputError(f"{args.spec}: {exc}") from exc
    _write_json(args.out, game.document)
    log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_prox(args):
    game = _load_game(args.game, two_team=False)
    doc = _read_json(args.center)
    try:
        team = [np.asarray(x, dtype=float) for x in doc["team"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.center}: profile needs a 'team' field "
                         f"with one vector per player") from exc
    _argument(_checked_center, game, team, args.ell, args.tol)
    result = proximal_point(game, team, args.ell, args.tol)
    payload = {
        "center": [list(map(float, x)) for x in result.center],
        "prox_point": [list(map(float, x)) for x in result.prox_point],
        "objective_value": result.objective_value,
        "tolerance": result.tolerance,
        "reached": result.reached,
        "prox_distance": result.prox_distance,
        "iterations": result.iterations,
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        print(_dumps(payload))
    return EXIT_OK


def cmd_gdmm(args):
    config = _argument(GdConfig, epsilon=args.epsilon, eta=args.eta,
                       max_iters=args.max_iters)
    game = _load_game(args.game, two_team=True)
    _check_outputs(args.out, args)
    if args.oracle == "grid":
        _argument(_grid_q, game, args.grid_step)
    profile, cert, trace = gd_mm(game, config, oracle_method=args.oracle,
                                 grid_step=args.grid_step)
    return _write_result(args.out, two_team_profile_to_dict(profile), cert,
                         trace, args, embed_trace=False)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="teamsolve",
        description="Certified approximate equilibria for adversarial "
                    "team games.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the descent solver; every "
                           "iterate records its proximal potential")
    solve.add_argument("--game", action="append", required=True,
                       help="game JSON (repeat for a batch)")
    solve.add_argument("--epsilon", type=float, required=True)
    solve.add_argument("--eta", type=float, default=None)
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--out", required=True,
                       help="output path (directory for batches)")
    solve.add_argument("--format", choices=("json", "csv"), default="json",
                       help="trace format: embedded json or sidecar csv")
    solve.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for batch solves")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a profile")
    verify.add_argument("--game", required=True)
    verify.add_argument("--profile", required=True)
    verify.add_argument("--epsilon", type=float, required=True)
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a game file")
    gen.add_argument("family", choices=("random", "congestion", "potential"))
    gen.add_argument("--spec", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    prox = sub.add_parser("prox", help="approximate proximal point")
    prox.add_argument("--game", required=True)
    prox.add_argument("--center", required=True,
                      help="profile JSON; its team part is the center")
    prox.add_argument("--ell", type=float, required=True)
    prox.add_argument("--tol", type=float, required=True)
    prox.add_argument("--out", default=None)
    prox.set_defaults(func=cmd_prox)

    gdmm = sub.add_parser("gdmm", help="two-team solver")
    gdmm.add_argument("--game", required=True)
    gdmm.add_argument("--epsilon", type=float, required=True)
    gdmm.add_argument("--eta", type=float, default=None)
    gdmm.add_argument("--max-iters", type=int, default=None)
    gdmm.add_argument("--oracle", choices=("grid", "nested"),
                      default="grid")
    gdmm.add_argument("--grid-step", type=float, default=0.02)
    gdmm.add_argument("--out", required=True)
    gdmm.add_argument("--format", choices=("json", "csv"), default="json",
                      help="csv also writes the trace as a sidecar csv")
    gdmm.set_defaults(func=cmd_gdmm)
    return parser


def main(argv=None):
    level = os.environ.get("TEAMSOLVE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LpFault as exc:
        print(f"error: internal solver fault: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
