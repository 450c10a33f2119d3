"""Checks of the benchmark itself: inputs, counts, span accounting, certifier.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

ts = run.load_teamsolve()

import harness  # noqa: E402  (needs teamsolve on the path)
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Instances cheap enough to run twice: a trivial and a 737-step solve, the
# three quickest gdmm draws, and every 25th certify call.
SUBSETS = {"solve": [2, 3], "gdmm": [0, 1, 2],
           "certify": slice(None, None, 25)}

EXACT_COUNTS = ("dynamics.iterations", "linprog.pivots", "moreau.inner_iters",
                "two_team.oracle_calls", "extension.extend_calls")


def subset(name, seed):
    instances = WORKLOADS[name].setup(ts, seed)
    pick = SUBSETS[name]
    if isinstance(pick, slice):
        return instances[pick]
    return [instances[i] for i in pick]


def tensors(instances):
    return [inst.case.tensor() for inst in instances]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a, b = tensors(subset(name, 4)), tensors(subset(name, 4))
    c = tensors(subset(name, 5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(x.shape != z.shape or not np.array_equal(x, z)
               for x, z in zip(a, c))


@pytest.mark.parametrize("name", ["solve", "gdmm"])
def test_relabeling_keeps_the_payoff_multiset(name):
    for x, z in zip(tensors(subset(name, 4)), tensors(subset(name, 5))):
        assert np.array_equal(np.sort(x, axis=None), np.sort(z, axis=None))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_self_times_add_up(name):
    workload = WORKLOADS[name]
    metrics = []
    for _ in range(2):
        instances = subset(name, 7)
        done = harness.traced_pass(ts, workload, instances)
        assert harness.judge(workload, instances, done.outputs)["failed"] == 0
        _, self_s = done.tracer.by_label()
        assert math.isclose(sum(self_s.values()), done.wall, rel_tol=0.05)
        metrics.append(harness.layer_metrics(done.tracer, tracing.Tracer()))
    first, second = metrics
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    for key in first:
        if key.endswith("calls"):
            assert first[key] == second[key], key


def test_layers_seen_by_workload():
    seen = {}
    for name in WORKLOADS:
        done = harness.traced_pass(ts, WORKLOADS[name], subset(name, 0)[:2])
        seen[name] = harness.layer_metrics(done.tracer, tracing.Tracer())
    assert seen["solve"]["dynamics.iterations"] > 0
    assert seen["solve"]["moreau.calls"] > 0
    assert seen["solve"]["simplex.calls"] > 0
    assert seen["certify"]["extension.extend_calls"] == 2
    assert seen["certify"]["linprog.pivots"] > 0
    assert seen["certify"]["games.validate_calls"] > 0
    assert seen["gdmm"]["two_team.oracle_calls"] > 0
    assert seen["gdmm"]["two_team.iterations"] > 0


def test_tracing_restores_every_patched_name():
    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr, _, _ in tracing._patch_sites(ts)}
    with tracing.installed(tracing.Tracer(), ts):
        assert ts.extend_ne is not before[(id(ts), "extend_ne")]
    after = {(id(owner), attr): vars(owner)[attr]
             for owner, attr, _, _ in tracing._patch_sites(ts)}
    assert before == after


def test_oracle_agrees_with_ne_gap_on_random_profiles():
    rng = np.random.default_rng(3)
    for n, sizes, b in [(1, [3], 2), (2, [2, 3], 4), (3, [2, 2, 2], 3)]:
        game = ts.random_game(n, sizes, b, int(rng.integers(1000)))
        profile = ts.dirichlet_profile(game, rng)
        expect = ts.ne_gap(game, profile).gap
        got = oracle.profile_gap(game.payoff_tensor(), profile.team,
                                 [profile.adversary])
        assert abs(got - expect) <= 1e-12


def test_check_rejects_a_wrong_gap_or_profile():
    workload = WORKLOADS["certify"]
    inst = subset("certify", 0)[0]
    y, cert = workload.run(ts, inst)
    assert workload.check(inst, (y, cert)).correct
    off = ts.NeCertificate(cert.gap_team + 1e-6, cert.gap_adversary + 1e-6)
    assert not workload.check(inst, (y, off)).correct
    bad_y = np.roll(y, 1) if not np.allclose(y, y[0]) else y + 0.1
    assert not workload.check(inst, (bad_y, cert)).correct


@pytest.mark.parametrize("name", ["solve", "gdmm"])
def test_solver_check_rejects_a_wrong_gap_or_split(name):
    workload = WORKLOADS[name]
    inst = subset(name, 0)[0]  # a draw that is certified at once
    profile, cert, trace = workload.run(ts, inst)
    assert workload.check(inst, (profile, cert, trace)).verified
    off = ts.NeCertificate(cert.gap_team + 1e-6, cert.gap_adversary + 1e-6)
    assert not workload.check(inst, (profile, off, trace)).correct
    if name == "gdmm":
        moved = ts.TwoTeamProfile(profile.minimizers[:-1],
                                  profile.minimizers[-1:] + profile.maximizers)
        assert not workload.check(inst, (moved, cert, trace)).correct


def test_cli_prints_the_metrics_named_in_the_spec(capsys):
    spec = run.load_spec()
    assert run.main(["--workload", "certify", "--seed", "0",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert run.main(["--list"]) == 0
    listing = capsys.readouterr().out
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert f"{m['name']} [{m['unit']}]" in listing


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
