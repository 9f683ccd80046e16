"""Write pins.json: the expected output of every pinned program seed.

    python3 perfbench/pin.py

Runs, one instance each, the panels of ``--seed 42`` (the default) and
``--seed 7`` (held out: not used while a change is written) of every
workload but ``connect_real_ml``, and every seed of ``connect_real_ml``'s
pool (which its panels are drawn from); records each instance's
checksum, and ``voxel_f1`` where the workload trains the real model.
Re-pin only for a change that is meant to alter the program's output,
and say so in that change.
"""

from __future__ import annotations

import json
import time

from run import HERE, PANEL, REAL_ML_POOL, panel_seeds, run_instance

PINNED_SEEDS = (42, 7)


def main() -> int:
    pins: dict[str, dict[str, dict]] = {}
    for workload in sorted(PANEL):
        if workload == "connect_real_ml":
            seeds = list(REAL_ML_POOL)
        else:
            seeds = [s for seed in PINNED_SEEDS for s in panel_seeds(workload, seed, {})]
        pins[workload] = {}
        for program_seed in seeds:
            deadline = time.perf_counter() + 170
            result = run_instance(workload, program_seed, deadline)
            if "error" in result:
                raise SystemExit(f"{workload} {program_seed}: {result['error']}")
            outcome = result["outcome"]
            pin = {"checksum": outcome["checksum"]}
            if outcome["voxel_f1"] is not None:
                pin["voxel_f1"] = outcome["voxel_f1"]
            pins[workload][str(program_seed)] = pin
            print(workload, program_seed, pin, flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
