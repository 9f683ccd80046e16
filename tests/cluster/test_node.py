"""Unit tests for nodes, FIONA specs, and resource accounting."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    Node,
    NodeSpec,
    ObjectMeta,
    Pod,
    ResourceRequirements,
    fiona8_node_spec,
    fiona_node_spec,
)
from repro.cluster.quantity import GiB
from repro.errors import ClusterError, InvalidQuantityError
from tests.cluster.conftest import sleeper_spec


def make_pod(name="p", **kwargs):
    return Pod(ObjectMeta(name=name), sleeper_spec(**kwargs))


class TestFionaSpecs:
    def test_basic_fiona_matches_paper(self):
        """Paper §II: dual 12-core CPUs, 96 GB RAM, 1 TB SSD, two 10GbE."""
        spec = fiona_node_spec("dtn-01")
        assert spec.cpu == 24
        assert spec.memory == 96 * GiB
        assert spec.gpus == 0
        assert spec.local_storage == 1024**4
        assert spec.nics_gbps == (10.0, 10.0)

    def test_fiona8_has_eight_gpus(self):
        """Paper §II: FIONA8 machines contain eight game GPUs each."""
        spec = fiona8_node_spec("fiona8-01")
        assert spec.gpus == 8
        assert spec.gpu_model == "nvidia-1080ti"

    def test_site_label_propagates(self):
        node = Node(fiona_node_spec("n", site="UCI"))
        assert node.meta.labels["site"] == "UCI"


class TestNodeAccounting:
    def test_free_equals_capacity_initially(self):
        node = Node(fiona8_node_spec("n"))
        assert node.free.cpu == 24
        assert node.free.gpu == 8

    def test_allocate_reduces_free(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4, memory="8Gi", gpu=2)
        node.allocate(pod)
        assert node.free.cpu == 20
        assert node.free.gpu == 6
        assert node.free.memory == (96 - 8) * GiB

    def test_release_restores_free(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4, gpu=2)
        node.allocate(pod)
        node.release(pod)
        assert node.free.cpu == 24
        assert node.free.gpu == 8
        assert node.pods == {}

    def test_release_is_idempotent(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(cpu=4)
        node.allocate(pod)
        node.release(pod)
        node.release(pod)
        assert node.free.cpu == 24

    def test_overcommit_rejected(self):
        node = Node(fiona_node_spec("n"))
        with pytest.raises(ClusterError):
            node.allocate(make_pod(cpu=25))

    def test_free_after_within_tolerance_cpu_overshoot(self):
        # fits_within allows 1e-9 cores over; 0.2 + 0.1 > 0.3 in floats.
        node = Node(NodeSpec(name="n", cpu=0.3, memory=GiB))
        node.allocate(make_pod("a", cpu=0.2, memory=0))
        node.allocate(make_pod("b", cpu=0.1, memory=0))
        assert node.free.cpu == 0.0

    def test_gpu_overcommit_rejected(self):
        node = Node(fiona8_node_spec("n"))
        node.allocate(make_pod("a", gpu=8))
        with pytest.raises(ClusterError):
            node.allocate(make_pod("b", gpu=1))


class TestDevicePlugin:
    def test_gpu_devices_assigned_on_allocate(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(gpu=3)
        node.allocate(pod)
        assert len(pod.assigned_gpus) == 3
        assert all(g.startswith("n/gpu") for g in pod.assigned_gpus)
        assert node.gpu_in_use() == 3

    def test_devices_freed_on_release(self):
        node = Node(fiona8_node_spec("n"))
        pod = make_pod(gpu=8)
        node.allocate(pod)
        node.release(pod)
        assert node.gpu_in_use() == 0

    def test_distinct_devices_per_pod(self):
        node = Node(fiona8_node_spec("n"))
        a, b = make_pod("a", gpu=4), make_pod("b", gpu=4)
        node.allocate(a)
        node.allocate(b)
        assert set(a.assigned_gpus).isdisjoint(b.assigned_gpus)

    def test_extended_resources_advertised(self):
        gpu_node = Node(fiona8_node_spec("g"))
        cpu_node = Node(fiona_node_spec("c"))
        assert gpu_node.extended_resources() == {"nvidia.com/gpu": 8}
        assert cpu_node.extended_resources() == {}


class TestResourceRequirements:
    def test_add(self):
        total = ResourceRequirements(cpu=1, memory=100, gpu=1) + ResourceRequirements(
            cpu="500m", memory=50
        )
        assert total.cpu == 1.5
        assert total.memory == 150
        assert total.gpu == 1

    def test_fits_within(self):
        big = ResourceRequirements(cpu=8, memory=1000, gpu=2)
        small = ResourceRequirements(cpu=2, memory=500)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_negative_gpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequirements(gpu=-1)

    def test_fractional_gpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceRequirements(gpu=0.5)


_cpus = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_bytes = st.integers(min_value=0, max_value=2**60)
_gpus = st.integers(min_value=0, max_value=64)


class TestParseFreeArithmetic:
    """Sums and node free capacity skip quantity parsing; the results must
    equal what the parsing constructor builds from the same numbers."""

    @given(_cpus, _bytes, _gpus, _bytes, _cpus, _bytes, _gpus, _bytes)
    def test_sum_equals_parsed(self, c1, m1, g1, e1, c2, m2, g2, e2):
        a = ResourceRequirements(c1, m1, g1, e1)
        b = ResourceRequirements(c2, m2, g2, e2)
        total = a + b
        parsed = ResourceRequirements(c1 + c2, m1 + m2, g1 + g2, e1 + e2)
        assert total == parsed
        assert type(total.cpu) is float and type(total.memory) is int
        assert type(total.gpu) is int and type(total.ephemeral_storage) is int

    @given(st.lists(st.tuples(_cpus, _bytes, _gpus), min_size=1, max_size=4))
    def test_total_request_equals_parsed_sum(self, requests):
        spec = sleeper_spec()
        spec.containers = [
            dataclasses.replace(
                spec.containers[0],
                name=f"c{i}",
                resources=ResourceRequirements(cpu=c, memory=m, gpu=g),
            )
            for i, (c, m, g) in enumerate(requests)
        ]
        parsed = ResourceRequirements()
        for cpu, mem, gpu in requests:
            parsed = ResourceRequirements(
                parsed.cpu + cpu, parsed.memory + mem, parsed.gpu + gpu
            )
        assert spec.total_request() == parsed

    def test_free_equals_parsed(self):
        node = Node(fiona8_node_spec("n"))
        node.allocate(make_pod(cpu="1500m", memory="3Gi", gpu=2))
        cap, used = node.capacity, node.allocated
        assert node.free == ResourceRequirements(
            cap.cpu - used.cpu,
            cap.memory - used.memory,
            cap.gpu - used.gpu,
            cap.ephemeral_storage - used.ephemeral_storage,
        )

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ((-0.5, 0, 0, 0), InvalidQuantityError, "negative CPU quantity: -0.5"),
            ((0.0, -1, 0, 0), InvalidQuantityError, "negative memory quantity: -1"),
            ((0.0, 0, -1, 0), ValueError, "non-negative int: -1"),
            ((0.0, 0, 0, -2), InvalidQuantityError, "negative memory quantity: -2"),
        ],
    )
    def test_negative_values_raise_as_parsed(self, fields, error, message):
        with pytest.raises(error, match=message):
            ResourceRequirements(*fields)
        with pytest.raises(error, match=message):
            ResourceRequirements._from_numbers(*fields)
