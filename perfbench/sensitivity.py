"""The benchmark's own test: a deliberately slowed boundary must show.

    python3 perfbench/sensitivity.py

Injects a fixed busy-wait into every call of ``max_min_rates`` (the
netsim flow solver) from the benchmark's code, on small inputs, and
checks that

* the traced ``netsim.max_min_rates.self_s`` grows by at least 90% of
  calls x delay, so the slowdown lands in the layer that has it;
* ``run_s`` of a small CONNECT run, which solves flows all the time,
  grows by more than the ``run_s`` bound of BENCHMARK.json, so a
  slowed kernel fails the benchmark;
* ``run_s`` of a small overload drill, which hardly touches netsim,
  stays within that bound.

Untraced instances alternate slowed and plain, five times each; the
medians of ``run_s`` at the reference host speed, as run.py reports it,
are compared.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import ROOT, at_reference_speed, run_instance

TARGET = "netsim.max_min_rates"
#: busy-wait added to each call of the target
DELAY_S = 0.002
PAIRS = 5
#: (workload, uses the target)
WORKLOADS = (("connect_small", True), ("drill_small", False))


def instance(workload: str, delay: float, trace: bool = False) -> dict:
    inject = f"{TARGET}={delay}" if delay else ""
    spans = f".perfbench/sensitivity-{workload}.json" if trace else ""
    deadline = time.perf_counter() + 170
    result = run_instance(workload, 42, deadline, trace=spans, inject=inject)
    if "error" in result:
        raise SystemExit(f"{workload}: {result['error']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")
    failures = []

    base = instance("connect_small", 0.0, trace=True)["layers"]
    slow = instance("connect_small", DELAY_S, trace=True)["layers"]
    calls = slow[f"{TARGET}.calls"]
    grew = slow[f"{TARGET}.self_s"] - base[f"{TARGET}.self_s"]
    injected = calls * DELAY_S
    print(
        f"traced connect_small: {calls:.0f} calls x {DELAY_S * 1e3:g} ms"
        f" = {injected:.3f} s injected; {TARGET}.self_s grew {grew:.3f} s"
    )
    if grew < 0.9 * injected:
        failures.append(f"{TARGET}.self_s grew {grew:.3f} s < 90% of {injected:.3f} s")

    for workload, uses in WORKLOADS:
        runs: dict[bool, list[float]] = {False: [], True: []}
        for i in range(PAIRS):
            for slowed in (i % 2 == 0, i % 2 == 1):
                result = instance(workload, DELAY_S if slowed else 0.0)
                runs[slowed].append(at_reference_speed(result, "run_s"))
        plain = statistics.median(runs[False])
        ratio = statistics.median(runs[True]) / plain
        print(
            f"{workload}: run_s plain {plain:.3f} s, slowed x{ratio:.3f}"
            f" (bound {bound:g}, {'uses' if uses else 'bypasses'} {TARGET})"
        )
        if uses and ratio <= 1 + bound:
            failures.append(f"{workload} run_s x{ratio:.3f} is within the bound")
        if not uses and abs(ratio - 1) > bound:
            failures.append(f"{workload} run_s x{ratio:.3f} is outside the bound")

    for failure in failures:
        print(f"FAILED: {failure}")
    print("sensitivity check", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
