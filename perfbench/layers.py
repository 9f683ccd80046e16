"""Host-time accounting per layer, for the benchmark's traced run.

:func:`install` wraps the public functions in :data:`BOUNDARIES` from
outside the program: class methods on their class, module functions at
every ``repro`` module that holds a reference (so ``from ... import``
lookup sites are wrapped too).  Each wrapper counts calls and self time,
which is its host duration minus the wrapped calls made inside it, so
the self times of all boundaries partition the traced run.

Process resumptions (``Process._step``) are charged to the layer whose
module defined the innermost running generator.  Without that, every
line of model code that an event runs would be charged to the event
kernel; with it, ``sim`` keeps the kernel and plain event callbacks.

The hottest boundaries (``Environment.step``, ``Process._step``,
``MetricRegistry.set_gauge``, ``Scheduler.filter_node``: 40k to 260k
calls a run) and the program's own ``Tracer.start``/``finish`` keep
only a count and a self-time sum.  Every other call is also recorded as
a span ``[key, start, end, parent]`` in memory, for writing out when
the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import sys
import time
import typing as _t

#: the layers measured, as named by their module under ``repro``
LAYERS = (
    "sim",
    "netsim",
    "transfer",
    "storage",
    "cluster",
    "gateway",
    "monitoring",
    "ml",
    "data",
    "workflow",
    "loadgen",
    "tracing",
)

#: ``repro`` modules charged to a layer other than their own name
_MODULE_LAYER = {"chaos": "loadgen"}


def _conv_flop(x, w, *_args, **_kwargs) -> float:
    """Multiply-adds of a same-padded conv of ``x`` (N,C,D,H,W) with
    ``w`` (O,C,k,k,k), counted as two operations each."""
    n, c, d, h, wd = x.shape
    return 2.0 * n * w.shape[0] * c * w.shape[2] ** 3 * d * h * wd


def _conv_backward_flop(x, w, grad_y, *_args, **_kwargs) -> float:
    # The weight gradient's contraction; the input gradient is a forward
    # conv, counted (and timed) under conv3d_forward_batch.
    return _conv_flop(x, w)


@dataclasses.dataclass(frozen=True)
class Boundary:
    #: metric prefix, ``<layer>.<name>``
    key: str
    #: ``module:Class.method`` or ``module:function``
    target: str
    #: workloads on which the boundary must be called (its liveness check)
    heavy: tuple[str, ...]
    #: count and self time only, no span per call
    hot: bool = False
    #: the wrapped call's arguments -> units of work (flows, granules, flop)
    work: _t.Callable[..., float] | None = None


PAPER = ("connect_paper_scale",)
DRILL = ("overload_drill",)
REAL_ML = ("connect_real_ml",)
CONNECT = PAPER + REAL_ML
ALL = CONNECT + DRILL

_SCHEDULER = "repro.cluster.scheduler:Scheduler."
BOUNDARIES = (
    Boundary("sim.step", "repro.sim.environment:Environment.step", ALL, hot=True),
    Boundary(
        "netsim.max_min_rates",
        "repro.netsim.flows:max_min_rates",
        PAPER,
        work=lambda flows: len(flows),
    ),
    Boundary(
        "netsim.sample_rates", "repro.netsim.flows:FlowSimulator.sample_rates", PAPER
    ),
    Boundary("netsim.transfer", "repro.netsim.flows:FlowSimulator.transfer", PAPER),
    Boundary("netsim.route", "repro.netsim.topology:Topology.route", PAPER),
    Boundary(
        "monitoring.set_gauge",
        "repro.monitoring.metrics:MetricRegistry.set_gauge",
        PAPER,
        hot=True,
    ),
    Boundary(
        "transfer.resolve",
        "repro.transfer.thredds:ThreddsServer.resolve",
        PAPER,
        work=lambda self, *a, **k: 1,
    ),
    Boundary(
        "transfer.resolve",
        "repro.transfer.thredds:ThreddsServer.resolve_many",
        PAPER,
        work=lambda self, indices, *a, **k: len(indices),
    ),
    Boundary("transfer.pop", "repro.transfer.queue:RedisQueue.pop", ()),
    Boundary("transfer.pop", "repro.transfer.queue:RedisQueue.try_pop", PAPER),
    Boundary("transfer.ack", "repro.transfer.queue:RedisQueue.ack", PAPER),
    Boundary("storage.put", "repro.storage.objects:CephCluster.put", CONNECT),
    Boundary("storage.get", "repro.storage.objects:CephCluster.get", CONNECT),
    Boundary("cluster.filter_node", _SCHEDULER + "filter_node", DRILL, hot=True),
    Boundary("cluster.select", _SCHEDULER + "select", DRILL),
    Boundary("cluster.order_queue", _SCHEDULER + "order_queue", DRILL),
    Boundary("cluster.preemption_plan", _SCHEDULER + "preemption_plan", DRILL),
    Boundary("cluster.create_pod", "repro.cluster.cluster:Cluster.create_pod", DRILL),
    Boundary("gateway.submit", "repro.gateway.gateway:AdmissionGateway.submit", DRILL),
    Boundary(
        "ml.conv3d_forward_batch",
        "repro.ml.conv3d:conv3d_forward_batch",
        REAL_ML,
        work=_conv_flop,
    ),
    Boundary(
        "ml.conv3d_backward_batch",
        "repro.ml.conv3d:conv3d_backward_batch",
        REAL_ML,
        work=_conv_backward_flop,
    ),
    Boundary("ml.train", "repro.ml.training:FFNTrainer.train", REAL_ML),
    Boundary(
        "ml.distributed_segment",
        "repro.ml.distributed_inference:distributed_segment",
        REAL_ML,
    ),
    Boundary("ml.flood_fill", "repro.ml.inference:flood_fill", REAL_ML),
    Boundary("data.volume", "repro.data.merra:MerraGenerator.ivt_volume", REAL_ML),
    Boundary("data.volume", "repro.data.merra:MerraGenerator.label_volume", REAL_ML),
    Boundary("workflow.run", "repro.workflow.driver:WorkflowDriver.run", CONNECT),
    Boundary("tracing.start", "repro.tracing.span:Tracer.start", ALL, hot=True),
    Boundary("tracing.finish", "repro.tracing.span:Tracer.finish", ALL, hot=True),
    Boundary("loadgen.run_loadtest", "repro.loadgen:run_loadtest", DRILL),
)


def layer_of_file(filename: str) -> str | None:
    """The layer of a ``repro`` source file, or None outside the layers."""
    names = re.findall(r"/repro/(\w+)", filename.replace("\\", "/"))
    name = _MODULE_LAYER.get(names[-1], names[-1]) if names else None
    return name if name in LAYERS else None


class Recorder:
    """Call counts, self times, work units and spans per boundary key."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.work: dict[str, float] = {}
        #: ``[key, start, end, parent index or -1]``
        self.spans: list[list] = []
        # child time of each open wrapped call; [0] is outside them all
        self._children = [0.0]
        self._open_spans = [-1]
        self._proc_keys: dict[object, str] = {}

    def wrap(self, key, fn, hot: bool = False, work=None):
        """``fn`` timed under ``key`` (a string, or a function of the
        call's arguments that returns one)."""
        children = self._children
        open_spans = self._open_spans
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        fixed_key = key if isinstance(key, str) else None

        def timed(*args, **kwargs):
            k = fixed_key or key(*args)
            if work is not None:
                self.work[k] = self.work.get(k, 0.0) + work(*args, **kwargs)
            if not hot:
                index = len(spans)
                spans.append([k, 0.0, 0.0, open_spans[-1]])
                open_spans.append(index)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = children.pop()
                children[-1] += duration
                calls[k] = calls.get(k, 0) + 1
                self_s[k] = self_s.get(k, 0.0) + duration - child
                if not hot:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", "timed")
        return timed

    def proc_key(self, process, _trigger=None) -> str:
        """``<layer>.proc`` for the innermost generator a process resumes."""
        gen = process.generator
        while getattr(gen, "gi_yieldfrom", None) is not None and hasattr(
            gen.gi_yieldfrom, "gi_code"
        ):
            gen = gen.gi_yieldfrom
        code = getattr(gen, "gi_code", None)
        key = self._proc_keys.get(code)
        if key is None:
            layer = layer_of_file(code.co_filename) if code else None
            key = f"{layer}.proc" if layer else "unattributed.proc"
            self._proc_keys[code] = key
        return key

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over its boundaries."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            layer = key.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out


def _patch(target: str, make: _t.Callable) -> None:
    """Replace ``module:qualname`` with ``make(original)`` where it is
    looked up: on its class, or in every loaded ``repro`` module."""
    module, _colon, qualname = target.partition(":")
    mod = importlib.import_module(module)
    owner_name, _dot, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        setattr(owner, attr, make(vars(owner)[attr]))
        return
    original = getattr(mod, attr)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for field, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, field, wrapped)


def import_layers() -> None:
    """Import every module that holds a boundary, so that its lookup
    sites exist before they are patched."""
    for boundary in BOUNDARIES:
        importlib.import_module(boundary.target.partition(":")[0])
    importlib.import_module("repro.sim.process")


def install(recorder: Recorder) -> None:
    """Wrap every boundary, and process resumption, with ``recorder``."""
    import_layers()
    for b in BOUNDARIES:
        _patch(
            b.target, lambda fn, b=b: recorder.wrap(b.key, fn, hot=b.hot, work=b.work)
        )
    _patch(
        "repro.sim.process:Process._step",
        lambda fn: recorder.wrap(recorder.proc_key, fn, hot=True),
    )


def inject_delay(key: str, seconds: float) -> None:
    """Make every call of the boundary ``key`` busy-wait ``seconds``
    first: the fixed slowdown of the benchmark's sensitivity check."""
    import_layers()
    targets = [b for b in BOUNDARIES if b.key == key]
    if not targets:
        raise ValueError(f"no boundary {key!r}")

    def make(fn):
        def slowed(*args, **kwargs):
            until = time.perf_counter() + seconds
            while time.perf_counter() < until:
                pass
            return fn(*args, **kwargs)

        slowed.__wrapped__ = fn
        return slowed

    for b in targets:
        _patch(b.target, make)
