"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload clock --seed 0 --seconds 15 --trace 0

``--workload`` is one of ``clock``, ``hierarchy``, ``service``
(see ``BENCHMARK.json`` for why each was chosen).  A run performs a few
cold set-ups, then runs jobs back to back for ``--seconds`` seconds; each
job draws its own seed from a list derived from ``--seed``, and its
outputs are checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run also writes its spans as JSONL under
``.perfbench/traces/``.  The exit code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    OUT, SRC, Tracer, Workspace, closed_loop, compile_sources,
    adopt_orphans, peak_rss_mb, per_job, percentile, stop_children,
)

WORKLOAD_NAMES = ("clock", "hierarchy", "service")

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "interactions_per_s": "1/s",
    "replicas_per_s": "1/s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics and their units; every one is reported on every
#: workload (0 where the workload does not enter that layer).
PER_LAYER = {
    "core.build_s": "s",
    "compiled.compile_s": "s",
    "compiled.load_s": "s",
    "compiled.states": "count",
    "compiled.pairs": "count",
    "table.lazy_pairs": "count",
    "simulate.make_engine_s": "s",
    "engine.run_s": "s",
    "engine.kernel_s": "s",
    "engine.loop_s": "s",
    "engine.alias_build_s": "s",
    "engine.alias_refresh_s": "s",
    "engine.cell_draw_s": "s",
    "engine.outcome_split_s": "s",
    "engine.batches": "count",
    "engine.events": "count",
    "engine.fallbacks": "count",
    "engine.collision_events": "count",
    "engine.alias_rebuilds": "count",
    "engine.alias_patches": "count",
    "engine.stop_evals": "count",
    "engine.event_frac": "ratio",
    "engine.fallback_frac": "ratio",
    "engine.collision_frac": "ratio",
    "replicas.replica_s_sum": "s",
    "replicas.retries": "count",
    "replicas.failed": "count",
    "obs.manifest_bytes": "bytes",
    "obs.load_s": "s",
    "obs.replay_s": "s",
    "service.startup_s": "s",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.spawn_s": "s",
    "service.exec_s": "s",
    "service.finalize_s": "s",
    "service.refused": "count",
    "service.client_retries": "count",
    "service.store_bytes": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def job_seeds(seed: int, count: int = 100_000) -> list:
    """The fixed list of job seeds derived from the run's ``--seed``."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def layer_metrics(workload, results, tracer: Tracer) -> dict:
    """Every per-layer metric; jobs contribute only when traced."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(workload.setup_layers())
    keys = {key for r in results for key in r.layers}
    values.update({key: per_job(results, key) for key in keys if key in values})
    values.update({k: v for k, v in workload.layers.items() if k in values})
    values["engine.loop_s"] = values["engine.run_s"] - values["engine.kernel_s"]
    events = values["engine.events"]
    interactions = per_job(results, "engine.interactions")
    batches = values["engine.batches"] + values["engine.fallbacks"]
    values["engine.event_frac"] = events / interactions if interactions else 0.0
    values["engine.fallback_frac"] = values["engine.fallbacks"] / batches if batches else 0.0
    values["engine.collision_frac"] = (
        values["engine.collision_events"] / events if events else 0.0
    )
    traced = [r.latency for r in results if r.traced]
    untraced = [r.latency for r in results if not r.traced]
    if traced and untraced:
        values["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
    values["trace.coverage"] = tracer.coverage()
    values["trace.spans"] = float(len(tracer.spans))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no package sources at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated run still stops what it started (see the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    compile_sources()
    from jobs import WORKLOADS

    seeds = job_seeds(args.seed)
    tracer = Tracer()
    ws = Workspace()
    workload = WORKLOADS[args.workload](ws, tracer)
    try:
        setup_walls = [workload.setup() for _ in range(SETUP_REPS)]
        workload.prepare()
        # a traced run traces every other job and gives the untraced job
        # after it the same seed, so each pair does identical work and the
        # pair's difference is the tracing overhead
        results, elapsed = closed_loop(
            lambda k: workload.job(
                k, seeds[k // 2] if args.trace else seeds[k],
                traced=bool(args.trace) and k % 2 == 0,
            ),
            workload.clients,
            args.seconds,
        )
    finally:
        try:
            workload.close()
        finally:
            stop_children()
            ws.close()

    latencies = [r.latency for r in results]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if args.trace:
        metrics = layer_metrics(workload, results, tracer)
        units = PER_LAYER
        tracer.write(os.path.join(
            OUT, "traces", "{}-seed{}.jsonl".format(args.workload, args.seed)
        ))
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "interactions_per_s": sum(r.interactions for r in results) / elapsed,
            "replicas_per_s": sum(r.replicas for r in results) / elapsed,
            "jobs_per_s": len(results) / elapsed,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
    for r in results:
        for name, ok in r.checks.items():
            if not ok:
                print("check failed: {} ({})".format(name, args.workload),
                      file=sys.stderr)
    print("{} jobs in {:.2f}s, {} failed of {} attempted".format(
        len(results), elapsed, failed, attempted))
    for name, value in metrics.items():
        print("  {:<26} {:>16.6g} {}".format(name, value, units[name]))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
