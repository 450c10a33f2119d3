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

from .dynamics import GdConfig, gradient_descent_max
from .extension import ne_gap
from .games import (
    GameError,
    SchemaError,
    game_from_dict,
    profile_from_dict,
    profile_to_dict,
)
from .generators import (
    CongestionSpec,
    congestion_to_team_game,
    potential_spec_to_two_team,
    random_game,
)
from .linprog import LpFault
from .moreau import proximal_point
from .two_team import (
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

SEED_HELP = ("no effect: descent starts from the uniform profile, so the "
             "output does not depend on the seed")


class InputError(Exception):
    """CLI-level input problem; message is printed, exit code 1."""


def _read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at byte {exc.pos}: {exc.msg}") from exc


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def _load_game_any(path):
    """Load either schema; returns ('team', game) or ('two_team', game)."""
    doc = _read_json(path)
    try:
        if isinstance(doc, dict) and "teams" in doc:
            return "two_team", two_team_from_dict(doc)
        return "team", game_from_dict(doc)
    except (SchemaError, GameError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _positive_epsilon(value):
    if not value > 0:
        raise InputError("epsilon must be positive")
    return value


def _solve_one(game_path, args):
    kind, game = _load_game_any(game_path)
    if kind != "team":
        raise InputError(f"{game_path}: solve expects a single-adversary "
                         f"game; use gdmm for two-team games")
    config = GdConfig(epsilon=args.epsilon, eta=args.eta,
                      max_iters=args.max_iters, seed=args.seed,
                      check_every=args.check_every)
    profile, cert, trace = gradient_descent_max(game, config)
    payload = {
        "profile": profile_to_dict(profile),
        "certificate": cert.to_dict(),
        "summary": trace.summary(),
    }
    return payload, trace, cert


def cmd_solve(args):
    games = args.game
    out_paths = []
    if len(games) > 1:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_paths = [out_dir / (Path(g).stem + ".result.json")
                     for g in games]
    else:
        out_paths = [Path(args.out)]

    worst_exit = EXIT_OK
    jobs = max(1, args.jobs)
    if jobs > 1 and len(games) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_solve_worker,
                                  [(g, args) for g in games]))
    else:
        results = [_solve_worker((g, args)) for g in games]
    for (payload, trace_csv, outcome, gap), out in zip(results, out_paths):
        _write_json(out, payload)
        if args.format == "csv":
            Path(str(out) + ".trace.csv").write_text(trace_csv)
        log.info("%s: %s gap=%.6g", out, outcome, gap)
        if outcome != "converged":
            worst_exit = max(worst_exit, EXIT_BUDGET)
    return worst_exit


def _solve_worker(job):
    game_path, args = job
    payload, trace, cert = _solve_one(game_path, args)
    if args.format == "json":
        payload["trace"] = [
            {"t": r.t, "potential_g": r.potential_g, "ne_gap": r.ne_gap,
             "step_norm": r.step_norm, "br_action": r.br_action}
            for r in trace.iterations]
    return payload, trace.to_csv(), trace.outcome, cert.gap


def cmd_verify(args):
    kind, game = _load_game_any(args.game)
    doc = _read_json(args.profile)
    try:
        if kind == "team":
            profile = profile_from_dict(doc)
            cert = ne_gap(game, profile, epsilon_claimed=args.epsilon)
        else:
            profile = two_team_profile_from_dict(doc)
            cert = ne_gap_two_team(game, profile,
                                   epsilon_claimed=args.epsilon)
    except (SchemaError, GameError) as exc:
        raise InputError(f"{args.profile}: {exc}") from exc
    print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if cert.gap <= args.epsilon else EXIT_NOT_VERIFIED


def cmd_gen(args):
    spec = _read_json(args.spec)
    try:
        if args.family == "random":
            for key in ("n", "actions", "adversary_actions"):
                if key not in spec:
                    raise SchemaError("missing required field", key)
            game = random_game(spec["n"], spec["actions"],
                               spec["adversary_actions"], seed=args.seed,
                               value_range=tuple(spec.get("value_range",
                                                          (-1, 1))))
            doc = game.document
        elif args.family == "congestion":
            game = congestion_to_team_game(CongestionSpec.from_dict(spec))
            doc = game.document
        else:
            game = potential_spec_to_two_team(spec, seed=args.seed)
            doc = game.document
    except (SchemaError, GameError) as exc:
        raise InputError(f"{args.spec}: {exc}") from exc
    _write_json(args.out, doc)
    log.info("wrote %s", args.out)
    return EXIT_OK


def cmd_prox(args):
    kind, game = _load_game_any(args.game)
    if kind != "team":
        raise InputError("prox expects a single-adversary game")
    doc = _read_json(args.center)
    try:
        team = [np.asarray(x, dtype=float) for x in doc["team"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{args.center}: profile needs a 'team' field "
                         f"with one vector per player") from exc
    if not args.tol > 0 or not args.ell > 0:
        raise InputError("ell and tol must be positive")
    try:
        result = proximal_point(game, team, args.ell, args.tol)
    except GameError as exc:
        raise InputError(str(exc)) from exc
    payload = {
        "center": [list(map(float, x)) for x in result.center],
        "prox_point": [list(map(float, x)) for x in result.prox_point],
        "objective_value": result.objective_value,
        "potential_g": result.potential_g,
        "tolerance": result.tolerance,
        "reached": result.reached,
        "prox_distance": result.prox_distance,
        "iterations": result.iterations,
        "planned_iterations": result.planned_iterations,
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_gdmm(args):
    kind, game = _load_game_any(args.game)
    if kind != "two_team":
        raise InputError("gdmm expects a two-team game (a 'teams' field)")
    config = GdConfig(epsilon=args.epsilon, eta=args.eta,
                      max_iters=args.max_iters, seed=args.seed)
    profile, cert, trace = gd_mm(game, config, oracle_method=args.oracle,
                                 grid_step=args.grid_step)
    payload = {
        "profile": two_team_profile_to_dict(profile),
        "certificate": cert.to_dict(),
        "summary": trace.summary(),
    }
    _write_json(args.out, payload)
    if args.format == "csv":
        Path(str(args.out) + ".trace.csv").write_text(trace.to_csv())
    return EXIT_OK if trace.outcome == "converged" else EXIT_BUDGET


def build_parser():
    parser = argparse.ArgumentParser(
        prog="teamsolve",
        description="Certified approximate equilibria for adversarial "
                    "team games.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the descent solver")
    solve.add_argument("--game", action="append", required=True,
                       help="game JSON (repeat for a batch)")
    solve.add_argument("--epsilon", type=float, required=True)
    solve.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    solve.add_argument("--eta", type=float, default=None)
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--check-every", type=int, default=1)
    solve.add_argument("--out", required=True,
                       help="output path (directory for batches)")
    solve.add_argument("--format", choices=("json", "csv"), default="json",
                       help="trace format: embedded json or sidecar csv")
    solve.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for batch solves")
    solve.set_defaults(func=cmd_solve, check_epsilon=True)

    verify = sub.add_parser("verify", help="certify a profile")
    verify.add_argument("--game", required=True)
    verify.add_argument("--profile", required=True)
    verify.add_argument("--epsilon", type=float, required=True)
    verify.set_defaults(func=cmd_verify, check_epsilon=True)

    gen = sub.add_parser("gen", help="generate a game file")
    gen.add_argument("family", choices=("random", "congestion", "potential"))
    gen.add_argument("--spec", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen, check_epsilon=False)

    prox = sub.add_parser("prox", help="approximate proximal point")
    prox.add_argument("--game", required=True)
    prox.add_argument("--center", required=True,
                      help="profile JSON; its team part is the center")
    prox.add_argument("--ell", type=float, required=True)
    prox.add_argument("--tol", type=float, required=True)
    prox.add_argument("--out", default=None)
    prox.set_defaults(func=cmd_prox, check_epsilon=False)

    gdmm = sub.add_parser("gdmm", help="two-team solver")
    gdmm.add_argument("--game", required=True)
    gdmm.add_argument("--epsilon", type=float, required=True)
    gdmm.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    gdmm.add_argument("--eta", type=float, default=None)
    gdmm.add_argument("--max-iters", type=int, default=None)
    gdmm.add_argument("--oracle", choices=("grid", "nested"),
                      default="grid")
    gdmm.add_argument("--grid-step", type=float, default=0.02)
    gdmm.add_argument("--out", required=True)
    gdmm.add_argument("--format", choices=("json", "csv"), default="json")
    gdmm.set_defaults(func=cmd_gdmm, check_epsilon=True)
    return parser


def main(argv=None):
    level = os.environ.get("TEAMSOLVE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "check_epsilon", False):
            _positive_epsilon(args.epsilon)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LpFault as exc:
        print(f"error: internal solver fault: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
