"""The three whole-program workloads the benchmark runs.

Each workload is split the same way: ``prepare(seed)`` is the set-up
counted as ``setup_s`` (building the testbed and workflow, or the drill
config) and returns a :class:`Prepared` whose ``run`` is the timed
region (``WorkflowDriver.run`` or ``run_loadtest``) and whose
``summarize`` turns the program's outputs into a JSON-able outcome
outside the timed region.

Why these three: each puts most of the simulator's host time into a
different layer (see README.md), so a later change to one layer moves
``run_s`` on one workload and leaves the others as the control that
bypasses it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import typing as _t


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Prepared:
    run: _t.Callable[[], object]
    #: report -> JSON-able outcome: checksum, operation counts, sim times,
    #: and the ``problems`` that make the instance's output incorrect
    summarize: _t.Callable[[object], dict]
    #: the testbed the run used, for the traced run's counters
    testbed: _t.Callable[[], object]


def _bind_latency(registry) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for series in registry.all_series("scheduler_bind_latency_seconds"):
        label = dict(series.labels).get("class", "")
        out.setdefault(label, []).extend(series.values)
    return out


def spans_digest(tracer) -> str:
    """Order-independent digest of the program's span list.

    The order and ids of spans that end at the same simulated instant
    vary from process to process (the program iterates id-hashed sets),
    so each span is digested with its parent's name in place of ids."""
    names = {span.span_id: span.name for span in tracer.spans}
    rows = []
    for span in tracer.spans:
        row = span.to_dict()
        row["parent"] = names.get(row.pop("parent_id"))
        row.pop("span_id")
        rows.append(json.dumps(row, sort_keys=True))
    return digest(sorted(rows))


# -- CONNECT ------------------------------------------------------------------


def _prepare_connect(seed: int, scale: float, real_ml: bool) -> Prepared:
    from repro.testbed import build_nautilus_testbed
    from repro.workflow import WorkflowDriver, build_connect_workflow

    testbed = build_nautilus_testbed(seed=seed, scale=scale)
    workflow = build_connect_workflow(testbed, real_ml=real_ml)
    driver = WorkflowDriver(testbed)

    def run():
        return driver.run(workflow)

    def summarize(report) -> dict:
        inference = report.step("inference")
        failed = sum(1 for step in report.steps if not step.succeeded)
        f1 = inference.artifacts.get("voxel_f1")
        return {
            # CONNECT runs without chaos: no step of it may fail
            "problems": [f"{failed} steps failed"] if failed else [],
            "checksum": digest(
                {"report": report.to_dict(), "spans": spans_digest(testbed.tracer)}
            ),
            "attempted": len(report.steps),
            "failed": failed,
            "submitted": 1,
            "completed": int(report.succeeded),
            "makespan_sim_s": report.total_duration_s,
            "download_sim_s": [report.step("download").duration_s],
            "inference_sim_s": [inference.duration_s],
            "bind_latency": _bind_latency(testbed.registry),
            "voxel_f1": None if f1 is None else float(f1),
        }

    return Prepared(run=run, summarize=summarize, testbed=lambda: testbed)


def prepare_connect_paper_scale(seed: int) -> Prepared:
    """The paper's 112,249 granules, analytic ML (netsim/monitoring heavy)."""
    return _prepare_connect(seed, scale=1.0, real_ml=False)


def prepare_connect_real_ml(seed: int) -> Prepared:
    """1% of the archive with the real NumPy FFN (ml heavy)."""
    return _prepare_connect(seed, scale=0.01, real_ml=True)


# -- overload drill -----------------------------------------------------------


_DRILL_POD = re.compile(r"^(.+)-([a-z]+)-s\d+-r\d+-a\d+$")


def _stage_times(cluster, workflows: set[str]) -> dict[str, list[float]]:
    """Per completed workflow and stage: first pod created -> last pod
    finished.  Drill pods are named
    ``<workflow>-<stage>-s<shard>-r<retry>-a<attempt>``."""
    windows: dict[tuple[str, str], list[float]] = {}
    for pod in cluster.pods.values():
        match = _DRILL_POD.match(pod.meta.name)
        if match is None or pod.finish_time is None:
            continue
        wf, stage = match.groups()
        if wf not in workflows:
            continue
        window = windows.setdefault(
            (wf, stage), [pod.meta.creation_time, pod.finish_time]
        )
        window[0] = min(window[0], pod.meta.creation_time)
        window[1] = max(window[1], pod.finish_time)
    out: dict[str, list[float]] = {}
    for (_wf, stage), (start, end) in sorted(windows.items()):
        out.setdefault(stage, []).append(end - start)
    return out


def _prepare_drill(seed: int, **overrides) -> Prepared:
    import repro.loadgen as loadgen

    config = loadgen.LoadgenConfig(seed=seed, **overrides)
    captured: list = []
    build = loadgen.build_nautilus_testbed

    def capturing_build(*args, **kwargs):
        testbed = build(*args, **kwargs)
        captured.append(testbed)
        return testbed

    def run():
        # The drill builds its own testbed; keep a handle on it so stage
        # times and bind latencies can be read after the run.
        loadgen.build_nautilus_testbed = capturing_build
        try:
            return loadgen.run_loadtest(config)
        finally:
            loadgen.build_nautilus_testbed = build

    def summarize(report) -> dict:
        testbed = captured[-1]
        completed = {
            o.workflow for o in report.outcomes if o.outcome == "completed"
        }
        stages = _stage_times(testbed.cluster, completed)
        submitted = config.expected_workflows()
        failed = sum(1 for o in report.outcomes if o.outcome == "failed")
        unfinished = report.lost + report.hung
        return {
            # A workflow whose stage ran out of retries under chaos is a
            # failed operation, but an outcome the drill models (and the
            # checksum pins); a lost or hung one is a defect.
            "problems": (
                [f"{report.lost} workflows lost, {report.hung} hung"]
                if unfinished
                else []
            ),
            "checksum": report.checksum()[:16],
            "attempted": submitted,
            "failed": failed + unfinished,
            "submitted": submitted,
            "completed": len(completed),
            "makespan_sim_s": report.makespan_s,
            "download_sim_s": stages.get("download", []),
            "inference_sim_s": stages.get("infer", []),
            "bind_latency": _bind_latency(testbed.registry),
            "voxel_f1": None,
            "chaos_faults": report.chaos_failures,
        }

    return Prepared(run=run, summarize=summarize, testbed=lambda: captured[-1])


def prepare_overload_drill(seed: int) -> Prepared:
    """50 tenants x 4 workflows on 4 GPU nodes under chaos (cluster heavy)."""
    return _prepare_drill(seed)


WORKLOADS: dict[str, _t.Callable[[int], Prepared]] = {
    "connect_paper_scale": prepare_connect_paper_scale,
    "overload_drill": prepare_overload_drill,
    "connect_real_ml": prepare_connect_real_ml,
    # small inputs for the sensitivity check (sensitivity.py)
    "connect_small": lambda seed: _prepare_connect(seed, scale=0.05, real_ml=False),
    "drill_small": lambda seed: _prepare_drill(seed, n_tenants=10),
}
