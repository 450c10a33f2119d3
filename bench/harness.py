"""Measuring loop, output judging and metric assembly for one workload run.

A pass runs every instance of the workload once, back to back, in this
single process.  An untraced run repeats passes while another fits in
the run's seconds and reports the end-to-end metrics, with times in
reference seconds (see ``speed``).  A traced run alternates an untraced
and a traced pass and reports per-layer metrics from the first traced
pass, whose counts are exact; its self times are raw seconds, so that
they add up to the traced pass's wall time.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import speed
import tracing

# Set-up is repeated at least this often and for at least this long;
# setup_s is the median repeat.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

# Per-layer metric -> (end-to-end metric, workloads) it should move.
MOVES = {
    "games.calls": ("wall_s", "certify, solve"),
    "games.self_s": ("wall_s", "certify, solve"),
    "games.validate_calls": ("wall_s", "certify, solve"),
    "games.validate_self_s": ("wall_s", "certify, solve"),
    "simplex.calls": ("wall_s", "solve"),
    "simplex.self_s": ("wall_s", "solve"),
    "linprog.calls": ("wall_s", "certify, then solve"),
    "linprog.self_s": ("wall_s", "certify, then solve"),
    "linprog.pivots": ("wall_s", "certify, then solve"),
    "extension.self_s": ("wall_s", "certify, solve, gdmm"),
    "extension.extend_calls": ("wall_s", "certify, solve"),
    "extension.extend_self_s": ("wall_s", "certify, solve"),
    "extension.ne_gap_calls": ("wall_s", "certify, solve"),
    "extension.ne_gap_self_s": ("wall_s", "certify, solve"),
    "moreau.calls": ("wall_s, instance_s_p50", "solve"),
    "moreau.self_s": ("wall_s, instance_s_p50", "solve"),
    "moreau.inner_iters": ("wall_s, instance_s_p50", "solve"),
    "moreau.reached_frac": ("wall_s, instance_s_p50", "solve"),
    "dynamics.iterations": ("wall_s", "solve"),
    "dynamics.backoffs": ("wall_s", "solve"),
    "dynamics.self_s": ("wall_s", "solve"),
    "two_team.self_s": ("wall_s, verified_frac", "gdmm"),
    "two_team.iterations": ("wall_s, verified_frac", "gdmm"),
    "two_team.oracle_calls": ("wall_s, verified_frac", "gdmm"),
    "two_team.oracle_self_s": ("wall_s, verified_frac", "gdmm"),
    "two_team.extend_multi_self_s": ("wall_s, verified_frac", "gdmm"),
    "two_team.ne_gap_self_s": ("wall_s, verified_frac", "gdmm"),
    "generators.self_s": ("setup_s", "every workload"),
    "bench.self_s": ("none: the benchmark's own time inside a traced pass",
                     "every workload"),
    "trace.wall_s": ("none: wall time of the traced pass", "every workload"),
    "trace.overhead_frac": ("none: traced over untraced wall_s, minus 1",
                            "every workload"),
}

# Metric name -> span label whose calls and self time it reports.
_FUNCTION_SPANS = {
    "games.validate": "games.MixedProfile.validate",
    "extension.extend": "extension.extend_ne",
    "extension.ne_gap": "extension.ne_gap",
    "two_team.oracle": "two_team.minmax_oracle",
    "two_team.extend_multi": "two_team.extend_ne_multi",
    "two_team.ne_gap": "two_team.ne_gap_two_team",
}


@dataclass
class Pass:
    began: float
    ended: float
    spans: list  # (start, end) of each instance
    outputs: list
    tracer: tracing.Tracer | None = None

    @property
    def wall(self):
        return self.ended - self.began


def run_pass(ts, workload, instances):
    """Run every instance once; errors the product names count as failures."""
    outputs, spans = [], []
    began = perf_counter()
    for inst in instances:
        t0 = perf_counter()
        try:
            out = workload.run(ts, inst)
        except (ts.LpFault, ts.DualityError, ts.GameError) as exc:
            out = exc
        spans.append((t0, perf_counter()))
        outputs.append(out)
    return Pass(began, perf_counter(), spans, outputs)


def traced_pass(ts, workload, instances):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, ts):
        began = perf_counter()
        with tracer.span(tracing.ROOT_LABEL):
            done = run_pass(ts, workload, instances)
        done.began, done.ended = began, perf_counter()
    done.tracer = tracer
    return done


def repeat_within(seconds, step):
    """Call ``step`` at least once, and again while another call fits."""
    results = []
    began = perf_counter()
    while True:
        results.append(step())
        elapsed = perf_counter() - began
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def judge(workload, instances, outputs):
    """Tally attempted, failed, verified and budget-exhausted instances."""
    tally = Counter()
    for inst, out in zip(instances, outputs):
        tally["attempted"] += 1
        if isinstance(out, Exception):
            tally["failed"] += 1
            continue
        verdict = workload.check(inst, out)
        tally["verified"] += verdict.verified
        tally["exhausted"] += verdict.exhausted
        if not verdict.correct:
            tally["failed"] += 1
            tally["incorrect"] += 1
    return tally


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ts, workload, seed, seconds):
    """Untraced run: ``(metrics, tally, info)``; times in reference seconds."""
    with speed.Speedometer() as meter:
        setups = []
        while (len(setups) < SETUP_REPEATS
               or setups[-1][1] - setups[0][0] < SETUP_MIN_S):
            t0 = perf_counter()
            instances = workload.setup(ts, seed)
            setups.append((t0, perf_counter()))
        passes = repeat_within(seconds,
                               lambda: run_pass(ts, workload, instances))
    tally = Counter()
    for p in passes:
        tally.update(judge(workload, instances, p.outputs))
    per_instance = [
        statistics.median(meter.reference_seconds(*p.spans[i]) for p in passes)
        for i in range(len(instances))]
    metrics = {
        "setup_s": statistics.median(meter.reference_seconds(*s)
                                     for s in setups),
        "wall_s": statistics.median(meter.reference_seconds(p.began, p.ended)
                                    for p in passes),
        "instance_s_p50": statistics.median(per_instance),
        "instance_s_p90": statistics.quantiles(
            per_instance, n=10, method="inclusive")[8],
        "verified_frac": tally["verified"] / tally["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(passes), "instances": len(instances),
            "setups": len(setups),
            "raw_wall_s": statistics.median(p.wall for p in passes),
            "probe_us": 1e6 * statistics.mean(meter.took)}
    return metrics, tally, info


def layer_metrics(tracer, setup_tracer):
    """Per-layer calls, self times and work counters of one traced pass."""
    calls, self_s = tracer.by_label()
    metrics = {}
    for layer in tracing.LAYERS.values():
        labels = [lb for lb in calls if lb.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(calls[lb] for lb in labels)
        metrics[f"{layer}.self_s"] = sum(self_s[lb] for lb in labels)
    for name, label in _FUNCTION_SPANS.items():
        metrics[f"{name}_calls"] = calls[label]
        metrics[f"{name}_self_s"] = self_s[label]
    for counter in ("linprog.pivots", "moreau.inner_iters",
                    "dynamics.iterations", "dynamics.backoffs",
                    "two_team.iterations"):
        metrics[counter] = tracer.counts[counter]
    prox_calls = calls["moreau.proximal_point"]
    metrics["moreau.reached_frac"] = (
        tracer.counts["moreau.reached"] / prox_calls if prox_calls else 0.0)
    metrics["bench.self_s"] = self_s[tracing.ROOT_LABEL]
    _, setup_self = setup_tracer.by_label()
    metrics["generators.self_s"] = sum(
        v for lb, v in setup_self.items() if lb.startswith("generators."))
    return metrics


def per_layer(ts, workload, seed, seconds):
    """Traced run: ``(metrics, tally, info, tracer)``."""
    setup_tracer = tracing.Tracer()
    with tracing.installed(setup_tracer, ts):
        with setup_tracer.span(tracing.ROOT_LABEL):
            instances = workload.setup(ts, seed)
    with speed.Speedometer() as meter:
        pairs = repeat_within(seconds, lambda: (
            run_pass(ts, workload, instances),
            traced_pass(ts, workload, instances)))
    tally = Counter()
    for plain, traced in pairs:
        tally.update(judge(workload, instances, plain.outputs))
        tally.update(judge(workload, instances, traced.outputs))
    first = pairs[0][1]
    metrics = layer_metrics(first.tracer, setup_tracer)
    metrics["trace.wall_s"] = first.wall
    plain_s, traced_s = (
        statistics.median(meter.reference_seconds(p.began, p.ended)
                          for p in side) for side in zip(*pairs))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    info = {"passes": len(pairs), "instances": len(instances)}
    return metrics, tally, info, first.tracer
