"""Whole-run benchmark of the simulator: three layer-isolating workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every instance (one ``WorkflowDriver.run``
or ``run_loadtest``) runs in its own process (instance.py).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it print every instance and, traced, where the host time went.

``--trace 0`` runs the workload's panel of program seeds (derived from
``--seed``) once, then repeats it while ``--seconds`` last.  Host times
are scaled to a reference host speed by a probe run next to each
instance (see :func:`at_reference_speed`), then taken as per-seed
medians averaged over the panel (``setup_s``: the median of every
instance); simulated times are means over the panel, so they are exact
for a given ``--seed``.

``--trace 1`` alternates untraced and traced instances of the panel's
first seed for ``--seconds``.  The traced output must equal the
untraced one, and every boundary must be called on its heavy workload.

Each instance's output is checked: steps failed, lost or hung workflows,
the checksum against pins.json where the seed is pinned, and the same
checksum whenever a seed repeats.  A failed check fails all of that
instance's operations and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import typing as _t
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: program seeds per run: enough instances that the pooled simulated
#: metrics vary little between values of ``--seed``, few enough that the
#: panel fits in a run of BENCHMARK.json's ``run_seconds``
PANEL = {"connect_paper_scale": 3, "overload_drill": 5, "connect_real_ml": 6}
#: distance between the program seeds of one panel
SEED_STRIDE = 1000
#: connect_real_ml draws its panel from these program seeds, all pinned:
#: half from those whose FFN training converges, half from those where it
#: diverges (pinned voxel_f1 below DIVERGED_F1), which take about twice
#: the host time.  A panel of N, N+1000, ... would mix the two at a share
#: that changes with ``--seed``, and its host time with it.
REAL_ML_POOL = (*range(1, 31), 42)
DIVERGED_F1 = 0.5
#: the layers expected to take most of the traced host time
PREDICTED = {
    "connect_paper_scale": ("netsim", "monitoring", "transfer"),
    "overload_drill": ("cluster",),
    "connect_real_ml": ("ml",),
}
#: the time of ``instance.host_probe`` at the reference host speed
#: that ``run_s`` and ``setup_s`` are reported at: about its time on the
#: 2-vCPU host this benchmark was built on, in its slower phases
PROBE_REF_S = 0.27
#: a run must end within this many seconds of host time; a panel takes
#: about ``run_seconds``, so a change that makes it ~5x slower still
#: reports its metrics
HARD_LIMIT_S = 170.0


def panel_seeds(workload: str, seed: int, pins: dict) -> list[int]:
    """The program seeds of ``--seed``'s panel; pooled ones from ``pins``."""
    size = PANEL[workload]
    if workload != "connect_real_ml":
        return [seed + SEED_STRIDE * i for i in range(size)]
    pool = {int(s): pin["voxel_f1"] for s, pin in pins[workload].items()}
    trained = sorted(s for s, f1 in pool.items() if f1 >= DIVERGED_F1)
    diverged = sorted(s for s, f1 in pool.items() if f1 < DIVERGED_F1)
    rng = random.Random(seed)
    return rng.sample(trained, size // 2) + rng.sample(diverged, size - size // 2)


def run_instance(
    workload: str, seed: int, deadline: float, trace: str = "", inject: str = ""
) -> dict:
    """One instance in a fresh process (see instance.py for ``trace`` and
    ``inject``); ``{"error": ...}`` if it fails."""
    cmd = [sys.executable, str(HERE / "instance.py"), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    if inject:
        cmd += ["--inject", inject]
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"seed": seed, "error": "\n".join(tail) or f"exit {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Checks every instance and counts operations attempted and failed."""

    def __init__(self, workload: str, pins: dict):
        self.pins = pins.get(workload, {})
        self.checksums: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: dict) -> bool:
        seed = result["seed"]
        if "error" in result:
            self.problems.append(f"seed {seed}: {result['error']}")
            return False
        outcome = result["outcome"]
        checksum = outcome["checksum"]
        problems = list(outcome["problems"])
        pin = self.pins.get(str(seed))
        if pin is not None and checksum != pin["checksum"]:
            problems.append(f"checksum {checksum} != pinned {pin['checksum']}")
        if pin is not None and outcome["voxel_f1"] != pin.get("voxel_f1"):
            problems.append(
                f"voxel_f1 {outcome['voxel_f1']} != pinned {pin.get('voxel_f1')}"
            )
        # Repeats of a seed, traced or not, must reproduce its first run.
        repeat = seed in self.checksums
        first = self.checksums.setdefault(seed, checksum)
        if checksum != first:
            problems.append(f"checksum {checksum} != {first} of the same seed")
        # A failed check fails every operation of the instance.
        result["failed"] = outcome["attempted"] if problems else outcome["failed"]
        # A seed's operations count once, however often it runs: how many
        # repeats fit in ``--seconds`` varies, the operations do not.  A
        # repeat that fails a check counts as well.
        if not repeat or problems:
            self.attempted += outcome["attempted"]
            self.failed += result["failed"]
        self.problems += [f"seed {seed}: {p}" for p in problems]
        return not problems


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def at_reference_speed(result: dict, key: str) -> float:
    """The instance's host time ``key`` at the reference host speed.

    The host's speed changes by up to 2x for minutes at a time, which no
    run of ``--seconds`` averages away; the host probe, run in the same
    process before the set-up and after the run, slows and speeds up
    with it.  The probe runs none of the program's code, so a change to
    the program moves the scaled time as much as the measured one."""
    return result[key] * PROBE_REF_S / result["probe_s"]


def panel_mean(results: list[dict], value: _t.Callable[[dict], float]) -> float:
    """Each seed's median of ``value``, averaged over the panel: the
    seeds differ in cost, and every seed weighs the same however often
    it ran."""
    by_seed: dict[int, list[float]] = {}
    for r in results:
        by_seed.setdefault(r["seed"], []).append(value(r))
    return statistics.fmean(median(values) for values in by_seed.values())


def end_to_end(results: list[dict], panel: list[dict]) -> dict:
    outcomes = [r["outcome"] for r in panel]

    def pooled(key: str) -> list[float]:
        return [value for o in outcomes for value in o[key]]

    return {
        "setup_s": median([at_reference_speed(r, "setup_s") for r in results]),
        "run_s": panel_mean(results, lambda r: at_reference_speed(r, "run_s")),
        "peak_rss_mb": panel_mean(results, lambda r: r["peak_rss_mb"]),
        "makespan_sim_s": statistics.fmean(o["makespan_sim_s"] for o in outcomes),
        "download_sim_s": statistics.fmean(pooled("download_sim_s")),
        "inference_sim_s": statistics.fmean(pooled("inference_sim_s")),
        "completed_frac": sum(o["completed"] for o in outcomes)
        / sum(o["submitted"] for o in outcomes),
        "succeeded_frac": 1.0
        - sum(r["failed"] for r in panel) / sum(o["attempted"] for o in outcomes),
    }


def _run_checked(
    kind: str, args, seed: int, checker: Checker, deadline: float, trace: str = ""
) -> dict | None:
    """One checked and printed instance; None if it did not complete."""
    result = run_instance(args.workload, seed, deadline, trace)
    ok = checker.check(result)
    print(_instance_line(kind, result, ok), flush=True)
    return None if "error" in result else result


def measure(args, seeds: list[int], checker: Checker, start: float) -> dict | None:
    """The untraced run: the panel, then repeats of it that end within
    ``--seconds`` if each takes as long as its seed's last instance."""
    deadline = start + HARD_LIMIT_S
    results: list[dict] = []
    took: dict[int, float] = {}
    while True:
        seed = seeds[len(results) % len(seeds)]
        elapsed = time.perf_counter() - start
        if len(results) >= len(seeds) and elapsed + took[seed] > args.seconds:
            break
        result = _run_checked("run", args, seed, checker, deadline)
        if result is None:
            return None
        took[seed] = time.perf_counter() - start - elapsed
        results.append(result)
    return end_to_end(results, results[: len(seeds)])


def measure_traced(
    args, seeds: list[int], checker: Checker, start: float
) -> dict | None:
    """The traced run: untraced/traced pairs of the panel's first seed,
    while a pair more ends within ``--seconds``."""
    import layers

    seed = seeds[0]
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    took = 0.0
    while not traced or time.perf_counter() - start + took <= args.seconds:
        begun = time.perf_counter()
        result = _run_checked("untraced", args, seed, checker, deadline)
        if result is None:
            return None
        plain.append(result)
        spans = f".perfbench/{args.workload}-seed{seed}-spans{len(traced)}.json"
        result = _run_checked("traced", args, seed, checker, deadline, spans)
        if result is None:
            return None
        traced.append(result)
        took = time.perf_counter() - begun

    per_layer = {
        name: median([r["layers"][name] for r in traced])
        for name in traced[0]["layers"]
    }
    per_layer["trace.overhead_frac"] = (
        median([at_reference_speed(r, "run_s") for r in traced])
        / median([at_reference_speed(r, "run_s") for r in plain])
        - 1
    )
    calls = traced[0]["calls"]
    for b in layers.BOUNDARIES:
        if args.workload in b.heavy and not calls.get(b.key):
            checker.problems.append(f"boundary {b.key} was never called")
    _print_partition(args.workload, per_layer)
    return per_layer


def _instance_line(kind: str, result: dict, ok: bool) -> str:
    if "error" in result:
        return f"{kind:9s} seed {result['seed']:>6d}  FAILED: {result['error']}"
    o = result["outcome"]
    return (
        f"{kind:9s} seed {result['seed']:>6d}  setup {result['setup_s']:6.3f} s"
        f"  run {result['run_s']:7.3f} s  probe {result['probe_s']:5.3f} s"
        f"  rss {result['peak_rss_mb']:6.1f} MB"
        f"  makespan {o['makespan_sim_s']:10.1f} sim s  {o['checksum']}"
        f"  {'ok' if ok else 'CHECK FAILED'}"
    )


def _print_partition(workload: str, per_layer: dict) -> None:
    import layers

    run_s = per_layer["trace.run_s"]
    shares = {layer: per_layer[f"{layer}.self_s"] for layer in layers.LAYERS}
    shares["unattributed"] = per_layer["unattributed_s"]
    overhead = per_layer["trace.overhead_frac"]
    print(f"traced run_s {run_s:.3f} s, overhead {overhead:+.1%}")
    for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:13s} {seconds:8.3f} s  {seconds / run_s:6.1%}")
    expected = PREDICTED[workload]
    top = sorted(layers.LAYERS, key=lambda layer: -shares[layer])[: len(expected)]
    verdict = "holds" if set(top) == set(expected) else "FAILS"
    print(f"  predicted dominant layers {', '.join(expected)}: {verdict}")


def host_record() -> dict:
    """The host and the dependencies the results were measured with."""
    import platform

    record = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for module in ("numpy", "networkx", "scipy"):
        try:
            record[module] = __import__(module).__version__
        except ImportError:
            record[module] = None
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PANEL))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the running instance.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec_path = ROOT / "BENCHMARK.json"
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file() or not spec_path.is_file():
        print(
            f"{ROOT} is not a checkout of the repository: run from its root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    print(f"host {json.dumps(host_record(), sort_keys=True)}", flush=True)
    start = time.perf_counter()
    checker = Checker(args.workload, pins)
    seeds = panel_seeds(args.workload, args.seed, pins)
    if args.trace:
        values = measure_traced(args, seeds, checker, start)
    else:
        values = measure(args, seeds, checker, start)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    if values is None:
        print("an instance failed; no result", file=sys.stderr)
        return 1
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
