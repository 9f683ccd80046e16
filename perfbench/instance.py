"""One workload instance in a fresh process: set up, run, summarize.

    python3 perfbench/instance.py --workload NAME --seed N \
        [--trace SPANS.json] [--inject KEY=SECONDS]

Prints one JSON line with ``setup_s``, ``run_s``, ``peak_rss_mb``,
``probe_s`` (see :func:`host_probe`) and the program's outcome.  With
``--trace`` the layer boundaries are wrapped (see layers.py), the line
also holds the per-layer metrics, and the spans are written to
``SPANS.json``.  ``--inject`` slows one boundary
by a fixed time per call, for the sensitivity check.

``run.py`` starts one process per instance, so that every instance pays
for its own imports and starts with cold caches, as ``repro run`` does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def host_probe() -> float:
    """Host seconds of a fixed pure-Python workload -- a heap, a dict and
    small objects, as the simulator's own work is -- that runs none of
    the program's code: the speed of the host at the moment (see
    ``run.at_reference_speed``)."""
    import heapq
    import random

    start = time.perf_counter()
    rng = random.Random(0)
    heap: list = []
    table: dict = {}
    for i in range(150_000):
        key = rng.random()
        heapq.heappush(heap, (key, i))
        table[i & 4095] = (key, str(i), [i])
        if len(heap) > 1024:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(recorder, testbed, run_s: float) -> dict[str, float]:
    """The per-layer metrics read from the boundaries and the testbed;
    taken as soon as the run ends, so nothing after it is counted."""
    from layers import BOUNDARIES, LAYERS

    calls = recorder.calls
    self_s = recorder.self_s
    work = recorder.work
    m: dict[str, float] = {}
    layer_s = recorder.layer_self_s()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
    for key in dict.fromkeys(b.key for b in BOUNDARIES):
        m[f"{key}.calls"] = calls.get(key, 0)
        m[f"{key}.self_s"] = self_s.get(key, 0.0)

    events = calls.get("sim.step", 0)
    m["sim.events"] = events
    m["sim.self_us_per_event"] = 1e6 * layer_s["sim"] / events if events else 0.0

    mmr = calls.get("netsim.max_min_rates", 0)
    m["netsim.max_min_rates.flows_per_call"] = (
        work.get("netsim.max_min_rates", 0.0) / mmr if mmr else 0.0
    )

    registry = testbed.registry
    m["monitoring.scrapes"] = testbed.sampler.scrapes

    m["transfer.resolve.granules"] = work.get("transfer.resolve", 0.0)
    m["transfer.queue.pops"] = calls.get("transfer.pop", 0)
    m["transfer.queue.acks"] = calls.get("transfer.ack", 0)
    m["transfer.retries"] = registry.counter_sum("transfer_retries_total")

    binds = registry.counter_sum("scheduler_binds_total")
    m["cluster.binds"] = binds
    m["cluster.preemptions"] = registry.counter_sum("scheduler_preemptions_total")
    m["cluster.filter_calls_per_bind"] = (
        calls.get("cluster.filter_node", 0) / binds if binds else 0.0
    )

    submits = calls.get("gateway.submit", 0)
    m["gateway.admit_ratio"] = (
        registry.counter_sum("gateway_admitted_total") / submits if submits else 0.0
    )

    for name in ("conv3d_forward_batch", "conv3d_backward_batch"):
        gflop = work.get(f"ml.{name}", 0.0) / 1e9
        seconds = self_s.get(f"ml.{name}", 0.0)
        m[f"ml.{name}.gflop"] = gflop
        m[f"ml.{name}.gflops"] = gflop / seconds if seconds else 0.0

    sim_layers = _sim_layers(testbed.tracer)
    for name in ("compute", "transfer", "scheduling", "queueing", "orchestration"):
        m[f"workflow.sim.{name}_s"] = sim_layers.get(name, 0.0)

    m["tracing.spans"] = len(testbed.tracer.spans)

    m["unattributed_s"] = run_s - sum(layer_s.values())
    m["trace.run_s"] = run_s
    return m


def outcome_metrics(outcome: dict) -> dict[str, float]:
    """The per-layer metrics read from the program's outcome."""
    latency = outcome["bind_latency"]
    return {
        "cluster.batch_bind_p50_sim_s": _percentile(latency.get("batch", []), 50),
        "cluster.batch_bind_p99_sim_s": _percentile(latency.get("batch", []), 99),
        "cluster.high_bind_p95_sim_s": _percentile(latency.get("high", []), 95),
        "ml.voxel_f1": outcome["voxel_f1"] or 0.0,
        "chaos.faults": outcome.get("chaos_faults", 0),
    }


def _sim_layers(tracer) -> dict[str, float]:
    """The program's own simulated-time partition of its workflow run."""
    from repro.tracing import analyze_run

    if not any(span.category == "workflow" for span in tracer.spans):
        return {}
    return dict(analyze_run(tracer).layers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="trace the run and write spans here")
    parser.add_argument("--inject", help="KEY=SECONDS: slow one boundary")
    args = parser.parse_args(argv)

    # Probe the host before the set-up and after the run, and take the
    # mean: neither probe is part of a timed region.
    probe_before = host_probe()
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.inject:
        key, _eq, seconds = args.inject.partition("=")
        layers.inject_delay(key, float(seconds))
    recorder = None
    if args.trace:
        recorder = layers.Recorder()
        layers.install(recorder)
    prepared = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    report = prepared.run()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        calls = dict(recorder.calls)
        per_layer = layer_metrics(recorder, prepared.testbed(), run_s)
    probe_s = (probe_before + host_probe()) / 2

    outcome = prepared.summarize(report)
    result = {
        "seed": args.seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe_s,
        "outcome": outcome,
    }
    if recorder is not None:
        result["layers"] = {**per_layer, **outcome_metrics(outcome)}
        result["calls"] = calls
        Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
        fields = ["key", "start", "end", "parent"]
        Path(args.trace).write_text(
            json.dumps({"fields": fields, "spans": recorder.spans})
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
