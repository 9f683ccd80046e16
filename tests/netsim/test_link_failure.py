"""Tests for link failure and routing convergence on the PRP."""

import pytest

from repro.errors import NetworkError, NoRouteError
from repro.netsim import FlowSimulator, Topology, build_prp_topology
from repro.sim import Environment


@pytest.fixture
def ring():
    """A 4-site ring: two disjoint paths between any pair."""
    t = Topology()
    for name in "ABCD":
        t.add_site(name)
    t.add_link("A", "B", 10.0, latency_s=0.001)
    t.add_link("B", "C", 10.0, latency_s=0.001)
    t.add_link("C", "D", 10.0, latency_s=0.001)
    t.add_link("D", "A", 10.0, latency_s=0.001)
    return t


class TestFailRestore:
    def test_reroute_around_failed_link(self, ring):
        direct = ring.route("A", "B")
        assert len(direct) == 1
        ring.fail_link("A", "B")
        detour = ring.route("A", "B")
        assert len(detour) == 3  # A-D-C-B
        assert all(link.up for link in detour)

    def test_restore_returns_shortest_path(self, ring):
        ring.fail_link("A", "B")
        ring.restore_link("A", "B")
        assert len(ring.route("A", "B")) == 1

    def test_partition_raises_no_route(self, ring):
        ring.fail_link("A", "B")
        ring.fail_link("D", "A")
        with pytest.raises(NoRouteError):
            ring.route("A", "C")

    def test_unknown_link_rejected(self, ring):
        with pytest.raises(NetworkError):
            ring.fail_link("A", "C")

    def test_fail_restore_idempotent(self, ring):
        ring.fail_link("A", "B")
        ring.fail_link("A", "B")
        ring.restore_link("A", "B")
        ring.restore_link("A", "B")
        assert len(ring.route("A", "B")) == 1

    def test_transfer_over_detour_completes(self, ring):
        env = Environment()
        ring.attach_host("ha", "A")
        ring.attach_host("hb", "B")
        ring.fail_link("A", "B")
        sim = FlowSimulator(env)
        done = sim.transfer(
            ring.path_resources("ha", "hb"),
            1e9,
            latency_s=ring.path_latency("ha", "hb"),
        )
        env.run(until=done)
        assert sim.completed_count == 1

    def test_prp_core_ring_survives_single_cut(self):
        """The CENIC core ring keeps every center pair connected after
        any single core-link failure."""
        topo = build_prp_topology()
        topo.fail_link("UCSD", "SDSC")
        assert topo.route("UCSD", "SDSC")  # the long way around the ring
        topo.restore_link("UCSD", "SDSC")

    def test_detour_latency_is_higher(self, ring):
        direct = ring.path_latency("A", "B")
        ring.fail_link("A", "B")
        assert ring.path_latency("A", "B") > direct


class TestRouteMemo:
    """Routes are memoised; every graph change must invalidate them."""

    def test_memoised_route_avoids_failed_link(self, ring):
        direct = ring.route("A", "B")  # fills the memo
        ab = ring.get_link("A", "B")
        assert direct == [ab]
        ring.fail_link("A", "B")
        detour = ring.route("A", "B")
        assert ab not in detour
        assert len(detour) == 3

    def test_restored_link_is_used_again(self, ring):
        ring.fail_link("A", "B")
        assert len(ring.route("A", "B")) == 3  # memoises the detour
        ring.restore_link("A", "B")
        assert ring.route("A", "B") == [ring.get_link("A", "B")]

    def test_partition_raises_then_heals(self, ring):
        before = ring.route("A", "C")
        ring.fail_link("A", "B")
        ring.fail_link("D", "A")
        with pytest.raises(NoRouteError):
            ring.route("A", "C")
        assert not ring.reachable("A", "C")
        ring.restore_link("D", "A")
        healed = ring.route("A", "C")
        assert [link.key for link in healed] == [
            frozenset("AD"),
            frozenset("DC"),
        ]
        ring.restore_link("A", "B")
        assert len(ring.route("A", "C")) == len(before) == 2

    def test_new_link_and_host_invalidate(self, ring):
        assert len(ring.route("A", "C")) == 2
        ring.add_link("A", "C", 10.0, latency_s=0.0005)
        assert ring.route("A", "C") == [ring.get_link("A", "C")]
        ring.add_site("E")
        ring.add_link("E", "C", 10.0, latency_s=0.001)
        ring.attach_host("he", "E")
        assert [link.key for link in ring.route("he", "A")] == [
            frozenset(("he", "E")),
            frozenset("EC"),
            frozenset("CA"),
        ]

    def test_returned_list_is_a_copy(self, ring):
        first = ring.route("A", "C")
        first.clear()
        first.append(ring.get_link("A", "B"))
        again = ring.route("A", "C")
        assert len(again) == 2
        assert again is not ring.route("A", "C")
