"""Run one workload of the teamsolve benchmark and print its metrics.

    python3 bench/run.py --workload solve --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --list

Run from the repository root; ``teamsolve`` is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics; the traced run also writes its spans
to ``.bench_out/``.  End-to-end times are in reference seconds, corrected
for the host's speed drift (see ``speed.py``); the ``# run`` line above
the result carries the raw wall seconds.  ``--list`` prints every metric
with its unit and direction, and for each per-layer metric the end-to-end
metric and the workloads it should move.

The run is single-process and closed-loop: one instance at a time, the
next one starting when the previous one has returned.  BLAS threading is
pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The seed claims are developed on, and the one kept back to confirm them.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_teamsolve():
    """Import ``teamsolve`` from this checkout's ``src/``, nowhere else."""
    package = ROOT / "src" / "teamsolve"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no teamsolve sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import teamsolve
    if Path(teamsolve.__file__).resolve().parent != package:
        raise SystemExit(f"error: teamsolve came from {teamsolve.__file__}")
    return teamsolve


def print_catalogue(spec):
    from harness import MOVES

    print(f"default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}, "
          f"{spec['run_seconds']} s per run")
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for m in spec["end_to_end"]:
        print(f"end_to_end {m['name']} [{m['unit']}] {m['better']} is "
              f"better, bound {m['bound']}")
    for m in spec["per_layer"]:
        moves, where = MOVES[m["name"]]
        print(f"per_layer {m['name']} [{m['unit']}] {m['better']} is "
              f"better; moves {moves} on {where}")


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list:
        print_catalogue(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not seconds > 0:
        parser.error("--seconds must be positive")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    ts = load_teamsolve()
    import numpy as np

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, tally, info, tracer = harness.per_layer(
            ts, workload, args.seed, seconds)
        wanted = spec["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics, tally, info = harness.end_to_end(
            ts, workload, args.seed, seconds)
        wanted = spec["end_to_end"]

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "threads": {v: os.environ[v] for v in THREAD_VARS}}
    print("# env " + json.dumps(env))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **info, "verified": tally["verified"],
        "budget_exhausted": tally["exhausted"],
        "incorrect": tally["incorrect"]}))
    print(json.dumps({
        "correct": tally["incorrect"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
