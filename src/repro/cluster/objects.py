"""Shared API-object plumbing: metadata, resource requirements, events."""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.cluster.quantity import parse_cpu, parse_memory

__all__ = ["ObjectMeta", "ResourceRequirements", "ClusterEvent", "GPU_RESOURCE"]

#: Extended-resource name for GPUs, as exposed by the device plugin (§II-A).
GPU_RESOURCE = "nvidia.com/gpu"

_uid_counter = itertools.count(1)


def _new_uid() -> str:
    return f"uid-{next(_uid_counter):08d}"


@dataclasses.dataclass
class ObjectMeta:
    """Name/namespace/labels identity shared by every API object."""

    name: str
    namespace: str = "default"
    labels: dict[str, str] = dataclasses.field(default_factory=dict)
    annotations: dict[str, str] = dataclasses.field(default_factory=dict)
    uid: str = dataclasses.field(default_factory=_new_uid)
    creation_time: float | None = None

    def matches(self, selector: _t.Mapping[str, str]) -> bool:
        """Label-selector match: every selector pair must be present."""
        return all(self.labels.get(k) == v for k, v in selector.items())

    @property
    def key(self) -> tuple[str, str]:
        """(namespace, name) — the unique key within an object kind."""
        return (self.namespace, self.name)


class ResourceRequirements:
    """Per-container compute requests (cpu cores, memory bytes, GPUs).

    Mirrors the ``resources.requests`` stanza of a Kubernetes container.
    Accepts Kubernetes quantity strings:

    >>> r = ResourceRequirements(cpu="500m", memory="2Gi", gpu=1)
    >>> r.cpu
    0.5
    """

    __slots__ = ("cpu", "memory", "gpu", "ephemeral_storage")

    def __init__(
        self,
        cpu: "float | str" = 0.0,
        memory: "int | str" = 0,
        gpu: int = 0,
        ephemeral_storage: "int | str" = 0,
    ):
        self.cpu = parse_cpu(cpu)
        self.memory = parse_memory(memory)
        if gpu < 0 or gpu != int(gpu):
            raise ValueError(f"gpu request must be a non-negative int: {gpu!r}")
        self.gpu = int(gpu)
        self.ephemeral_storage = parse_memory(ephemeral_storage)

    @classmethod
    def _from_numbers(
        cls, cpu: float, memory: int, gpu: int, ephemeral_storage: int
    ) -> "ResourceRequirements":
        """Build from numbers that already have the attribute types (float
        cores, int bytes and GPUs), such as sums of existing requests.

        Skips quantity parsing but keeps its rounding of byte counts
        through float, so the result equals
        ``ResourceRequirements(cpu, memory, gpu, ephemeral_storage)``.  A
        negative value goes through ``__init__``, which raises its usual
        error.
        """
        if cpu < 0 or memory < 0 or gpu < 0 or ephemeral_storage < 0:
            return cls(cpu, memory, gpu, ephemeral_storage)
        self = object.__new__(cls)
        self.cpu = cpu
        self.memory = int(float(memory))
        self.gpu = gpu
        self.ephemeral_storage = int(float(ephemeral_storage))
        return self

    def __add__(self, other: "ResourceRequirements") -> "ResourceRequirements":
        return ResourceRequirements._from_numbers(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.gpu + other.gpu,
            self.ephemeral_storage + other.ephemeral_storage,
        )

    def fits_within(self, other: "ResourceRequirements") -> bool:
        """True if this request fits inside ``other`` (free capacity)."""
        return (
            self.cpu <= other.cpu + 1e-9
            and self.memory <= other.memory
            and self.gpu <= other.gpu
            and self.ephemeral_storage <= other.ephemeral_storage
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ResourceRequirements) and (
            self.cpu,
            self.memory,
            self.gpu,
            self.ephemeral_storage,
        ) == (other.cpu, other.memory, other.gpu, other.ephemeral_storage)

    def __repr__(self) -> str:
        return (
            f"ResourceRequirements(cpu={self.cpu}, memory={self.memory}, "
            f"gpu={self.gpu})"
        )


@dataclasses.dataclass(frozen=True)
class ClusterEvent:
    """A timestamped control-plane event (the ``kubectl get events`` analog).

    The monitoring layer and tests use these to assert orchestration
    behaviour (scheduling decisions, restarts, node failures).
    """

    time: float
    kind: str  # e.g. "Pod", "Job", "Node"
    name: str
    reason: str  # e.g. "Scheduled", "Started", "Failed", "NodeLost"
    message: str = ""
    namespace: str = "default"

    def __str__(self) -> str:
        return (
            f"[{self.time:10.1f}s] {self.kind}/{self.namespace}/{self.name}: "
            f"{self.reason} — {self.message}"
        )
