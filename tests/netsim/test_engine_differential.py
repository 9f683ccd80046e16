"""Whole-run differential tests of the flow engine's fast paths.

:class:`ScanningFlowSimulator` restores the engine the fast paths
replaced: the per-flow oracle solver, and every rate sum a scan over all
flows per resource.  A CONNECT run on it and on the real engine must
agree exactly — report, spans and every registry series.  The runs are
compared with each other rather than with a golden hash, because
``sum()`` rounds differently from Python 3.12 on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testbed as testbed_module
from repro.netsim.flows import CapacityResource, Flow, FlowSimulator
from repro.sim import Environment
from repro.testbed import build_nautilus_testbed
from repro.tracing import write_chrome_trace
from repro.workflow import WorkflowDriver, build_connect_workflow
from tests.netsim.test_solver_oracle import oracle_max_min_rates


class ScanningFlowSimulator(FlowSimulator):
    """The flow engine before path grouping and one-pass rate sums."""

    def _recompute(self) -> None:
        rates = oracle_max_min_rates(list(self._flows))
        touched = set()
        for flow in self._flows:
            flow.rate = rates[flow]
            touched |= set(flow.resources)
        for res in touched:
            res.allocated_rate = sum(
                f.rate for f in self._flows if res in f.resources
            )

    def _rate_sums(self, resources):
        return {
            res: sum(f.rate for f in self._flows if res in f.resources)
            for res in resources
        }


def _engine_trajectory(engine, caps, flows, blocked_at):
    """Start ``flows`` (start time, resource indices, bytes) on a fresh
    engine, block one resource mid-run, and record every resource's
    sampled and allocated rate once a second."""
    env = Environment()
    sim = engine(env)
    resources = [CapacityResource(f"r{i}", c) for i, c in enumerate(caps)]
    samples = []

    def starter(start, path, nbytes):
        yield env.timeout(start)
        sim.transfer([resources[i] for i in path], nbytes, name=f"f{start}")

    def fault():
        yield env.timeout(blocked_at)
        resources[0].blocked = True
        sim.recompute()
        yield env.timeout(3.0)
        resources[0].blocked = False
        sim.recompute()

    def sampler():
        while True:
            rates = sim.sample_rates(resources)
            samples.append(
                (env.now, rates, [res.allocated_rate for res in resources])
            )
            yield env.timeout(1.0)

    for start, path, nbytes in flows:
        env.process(starter(start, path, nbytes))
    env.process(fault())
    env.process(sampler())
    env.run(until=60.0)
    return samples, sim.completed_count


@st.composite
def _workloads(draw):
    caps = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=5,
        )
    )
    index = st.integers(min_value=0, max_value=len(caps) - 1)
    flows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.lists(index, min_size=1, max_size=4),
                st.floats(min_value=1.0, max_value=2e4, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    blocked_at = draw(st.floats(min_value=0.5, max_value=30.0))
    return caps, flows, blocked_at


@settings(max_examples=60, deadline=None)
@given(_workloads())
def test_engine_rates_identical_to_scanning_engine(workload):
    """Staggered flows with distinct rates on shared resources (so the
    order of each rate sum matters), repeated resources, and a link
    failure and restore."""
    fast = _engine_trajectory(FlowSimulator, *workload)
    reference = _engine_trajectory(ScanningFlowSimulator, *workload)
    assert fast == reference


def _run_connect(monkeypatch, scale: float, engine: type[FlowSimulator]):
    monkeypatch.setattr(testbed_module, "FlowSimulator", engine)
    tb = build_nautilus_testbed(seed=42, scale=scale)
    assert type(tb.flowsim) is engine
    report = WorkflowDriver(tb).run(build_connect_workflow(tb, real_ml=False))
    assert report.succeeded
    series = [
        (ts.name, ts.labels, ts.times, ts.values)
        for name in tb.registry.names()
        for ts in tb.registry.all_series(name)
    ]
    spans = [span.to_dict() for span in tb.tracer.finished_spans()]
    return report.to_dict(), spans, series


@pytest.mark.parametrize("scale", [0.002, 0.01])
def test_connect_identical_to_scanning_engine(monkeypatch, scale):
    fast = _run_connect(monkeypatch, scale, FlowSimulator)
    reference = _run_connect(monkeypatch, scale, ScanningFlowSimulator)
    fast_report, fast_spans, fast_series = fast
    ref_report, ref_spans, ref_series = reference
    assert fast_report == ref_report
    assert fast_spans == ref_spans
    assert [s[:2] for s in fast_series] == [s[:2] for s in ref_series]
    for got, want in zip(fast_series, ref_series):
        assert got == want, got[:2]
    # The runs exercised the engine: many flows, concurrent ones.
    assert sum(span["category"] == "transfer" for span in fast_spans) > 100


def _traced_connect_trace(path) -> bytes:
    tb = build_nautilus_testbed(seed=42, scale=0.002)
    workflow = build_connect_workflow(tb, n_workers=4, n_gpus=8, real_ml=False)
    assert WorkflowDriver(tb).run(workflow).succeeded
    return write_chrome_trace(tb.tracer.finished_spans(), path).read_bytes()


def test_trace_bytes_do_not_depend_on_memory_layout(tmp_path):
    """Flows finishing at the same instant fire in start order, not in
    an order set by where their objects happen to be allocated."""
    first = _traced_connect_trace(tmp_path / "first.json")
    # Punch holes in the heap where the next run's flows will live, so
    # its objects land at different addresses than the first run's.
    junk = [Flow("junk", (), 1.0, event=None, start_time=0.0) for _ in range(5000)]
    del junk[::3]
    padding = [object() for _ in range(777)]
    second = _traced_connect_trace(tmp_path / "second.json")
    del junk, padding
    assert first == second
