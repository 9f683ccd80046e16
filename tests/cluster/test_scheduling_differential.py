"""Differential test of the scheduling pass's per-pass infeasibility memo.

:class:`RescanningCluster` keeps the pass as it was before the memo:
every queued pod runs the full filter over freshly listed ready nodes,
and every pod with priority > 0 that found no node runs the full
preemption plan.  Generated clusters run on it and on :class:`Cluster`
must agree exactly: bind sequence, event log, pod outcomes and every
``scheduler_*`` registry series.  Both passes evict through
``Cluster._preempt``, so the comparison isolates the memo.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeSpec, PodPhase
from repro.cluster.quantity import GiB
from repro.cluster.scheduler import FilterResult, Scheduler, SchedulingStrategy
from repro.monitoring.metrics import MetricRegistry
from repro.sim import Environment
from tests.cluster.conftest import sleeper_spec


class RescanningCluster(Cluster):
    """The scheduling pass without the infeasibility memo."""

    def _scheduling_pass(self, _event: object = None) -> None:
        self._kick_scheduled = False
        if self._requeue_pending and self._unschedulable:
            self._pending.extend(self._unschedulable)
            self._unschedulable.clear()
        self._requeue_pending = False
        if not self._pending:
            return
        queue = self.scheduler.order_queue(
            self._pending,
            usage={name: ns.used for name, ns in self.namespaces.items()},
            capacity=self.total_capacity(),
            weights={name: ns.weight for name, ns in self.namespaces.items()},
        )
        self._pending = []
        for pod in queue:
            if pod.is_terminal:
                continue
            node = self.scheduler.select(pod, self.ready_nodes())
            if node is None:
                if pod.spec.priority > 0:
                    plan = self.scheduler.preemption_plan(pod, self.ready_nodes())
                    if plan is not None:
                        self._preempt(pod, *plan)
                self._unschedulable.append(pod)
                continue
            node.allocate(pod)
            pod.node_name = node.spec.name
            self._record_bind(pod)
            self._pod_span_open(pod, "scheduling", node=node.spec.name)
            self.record_event(
                "Pod",
                pod.meta.name,
                "Scheduled",
                f"bound to {node.spec.name}",
                namespace=pod.meta.namespace,
            )
            pod._process = self.env.process(
                self._run_pod(pod, node), name=f"kubelet:{pod.meta.name}"
            )
        if self.metrics is not None:
            self.metrics.set_gauge(
                "scheduler_pending_pods",
                len(self._pending) + len(self._unschedulable),
            )


class CoLocatingScheduler(Scheduler):
    """A pod labelled ``colocate=<app>`` only fits a node already running
    a pod labelled ``app=<app>``.  The filter reads a pod field outside
    the base placement key, so the key is extended with it; a bind can
    make such a key feasible again."""

    def filter_node(self, pod, node):
        want = pod.meta.labels.get("colocate")
        if want is not None and not any(
            p.meta.labels.get("app") == want for p in node.pods.values()
        ):
            return FilterResult(node, False, f"no {want} pod to join")
        return super().filter_node(pod, node)

    def placement_key(self, pod):
        return (super().placement_key(pod), pod.meta.labels.get("colocate"))


@dataclasses.dataclass(frozen=True)
class NodePlan:
    cpu: float
    memory_gib: int
    gpus: int
    zone: str
    tainted: bool
    #: "ready", "cordoned" or "failed" at time 0
    state: str
    #: when a cordoned/failed node comes back (None: never)
    restore_at: float | None


@dataclasses.dataclass(frozen=True)
class PodPlan:
    arrival: float
    duration: float
    cpu: float
    memory_gib: int
    gpu: int
    priority: int
    namespace: str
    zone_selector: bool
    tolerates: bool
    app: str | None
    colocate: str | None


_nodes = st.builds(
    NodePlan,
    cpu=st.sampled_from([1.0, 2.0, 3.0]),
    memory_gib=st.sampled_from([2, 4, 8]),
    gpus=st.sampled_from([0, 1, 2]),
    zone=st.sampled_from(["a", "b"]),
    tainted=st.booleans(),
    state=st.sampled_from(["ready", "ready", "cordoned", "failed"]),
    restore_at=st.sampled_from([None, 5.0, 20.0, 60.0]),
)
_pods = st.builds(
    PodPlan,
    arrival=st.sampled_from([0.0, 0.0, 1.0, 5.0, 12.0, 30.0]),
    duration=st.sampled_from([3.0, 10.0, 25.0, 60.0]),
    cpu=st.sampled_from([0.5, 1.0, 2.0]),
    memory_gib=st.sampled_from([1, 2]),
    gpu=st.sampled_from([0, 0, 1]),
    priority=st.sampled_from([0, 10, 100]),
    namespace=st.sampled_from(["t1", "t2"]),
    zone_selector=st.booleans(),
    tolerates=st.booleans(),
    app=st.sampled_from([None, None, "x"]),
    colocate=st.sampled_from([None, None, "x"]),
)
_schedulers = st.sampled_from(["spread", "bin-pack", "colocate"])


def _run(cluster_cls, scheduler: str, nodes, pods, horizon: float = 400.0):
    env = Environment()
    if scheduler == "colocate":
        policy = CoLocatingScheduler()
    else:
        policy = Scheduler(SchedulingStrategy(scheduler))
    cluster = cluster_cls(env, scheduler=policy)
    cluster.metrics = MetricRegistry(env)
    cluster.create_namespace("t1")
    cluster.create_namespace("t2", weight=2.0)
    for i, plan in enumerate(nodes):
        name = f"n{i}"
        cluster.add_node(
            NodeSpec(
                name=name,
                cpu=plan.cpu,
                memory=plan.memory_gib * GiB,
                gpus=plan.gpus,
                labels={"zone": plan.zone},
                taints={"dedicated": "true"} if plan.tainted else {},
            )
        )
        if plan.state == "cordoned":
            cluster.cordon(name)
        elif plan.state == "failed":
            cluster.fail_node(name)

    def restore(name: str, plan: NodePlan):
        yield env.timeout(plan.restore_at)
        if plan.state == "cordoned":
            cluster.uncordon(name)
        else:
            cluster.recover_node(name)

    for i, plan in enumerate(nodes):
        if plan.state != "ready" and plan.restore_at is not None:
            env.process(restore(f"n{i}", plan))

    def submit():
        # Pods arriving at the same instant are created in one step, so
        # they share a scheduling pass.
        now = 0.0
        for i, plan in sorted(enumerate(pods), key=lambda ip: ip[1].arrival):
            if plan.arrival > now:
                yield env.timeout(plan.arrival - now)
                now = plan.arrival
            labels = {}
            if plan.app is not None:
                labels["app"] = plan.app
            if plan.colocate is not None:
                labels["colocate"] = plan.colocate
            cluster.create_pod(
                f"p{i}",
                sleeper_spec(
                    duration=plan.duration,
                    cpu=plan.cpu,
                    memory=plan.memory_gib * GiB,
                    gpu=plan.gpu,
                    priority=plan.priority,
                    node_selector={"zone": "a"} if plan.zone_selector else {},
                    tolerations={"dedicated"} if plan.tolerates else set(),
                ),
                namespace=plan.namespace,
                labels=labels,
            )

    env.process(submit())
    env.run(until=horizon)
    series = {
        (name, ts.labels): (list(ts.times), list(ts.values))
        for name in cluster.metrics.names()
        if name.startswith("scheduler_")
        for ts in cluster.metrics.all_series(name)
    }
    outcomes = [
        (
            pod.meta.namespace,
            pod.meta.name,
            pod.phase,
            pod.node_name,
            pod.termination_reason,
            pod.start_time,
            pod.finish_time,
        )
        for pod in cluster.list_pods()
    ]
    return cluster.events, series, outcomes


def _assert_same(scheduler: str, nodes, pods) -> list:
    events, series, outcomes = _run(Cluster, scheduler, nodes, pods)
    want_events, want_series, want_outcomes = _run(
        RescanningCluster, scheduler, nodes, pods
    )
    binds = [(e.time, e.name, e.message) for e in events if e.reason == "Scheduled"]
    want_binds = [
        (e.time, e.name, e.message) for e in want_events if e.reason == "Scheduled"
    ]
    assert binds == want_binds
    assert events == want_events
    assert series == want_series
    assert outcomes == want_outcomes
    return outcomes


@settings(max_examples=150, deadline=None)
@given(
    scheduler=_schedulers,
    nodes=st.lists(_nodes, min_size=1, max_size=4),
    pods=st.lists(_pods, min_size=4, max_size=30),
)
def test_memoised_pass_matches_rescanning_pass(scheduler, nodes, pods):
    _assert_same(scheduler, nodes, pods)


_ready = NodePlan(4.0, 8, 0, "a", False, "ready", None)


def _pod(**fields) -> PodPlan:
    base = PodPlan(0.0, 10.0, 1.0, 1, 0, 0, "t1", False, False, None, None)
    return dataclasses.replace(base, **fields)


def test_bind_reopens_a_hopeless_key():
    """``a`` finds no pod to join, ``b`` binds one, and ``c`` (``a``'s
    key) joins it in the same pass: the memo must forget ``a`` at the
    bind."""
    pods = [_pod(colocate="x"), _pod(app="x"), _pod(colocate="x")]
    outcomes = _assert_same("colocate", [_ready], pods)
    phases = {name: (phase, node) for _ns, name, phase, node, *_ in outcomes}
    assert phases["p2"] == (PodPhase.SUCCEEDED, "n0")


def test_repeated_hopeless_pods_all_park():
    """Ten identical pods that fit nowhere all stay pending, while a
    smaller pod queued after them still binds."""
    pods = [_pod(cpu=2.0, gpu=1) for _ in range(10)] + [_pod()]
    outcomes = _assert_same("spread", [_ready], pods)
    phases = [phase for _ns, _name, phase, *_ in outcomes]
    assert phases.count(PodPhase.PENDING) == 10
    assert phases.count(PodPhase.SUCCEEDED) == 1
