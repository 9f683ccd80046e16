"""Route search against a brute-force oracle, and the pinned PRP routes.

The oracle enumerates every simple path over the up links and takes the
minimum under the documented order: total latency, then hop count, then
the sequence of node names.  Latencies are multiples of 1/1024 s, so
every sum is exact and ties are common, which exercises the tie rule.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NoRouteError
from repro.netsim import Topology
from repro.testbed import build_nautilus_testbed


def oracle_route(topo: Topology, src: str, dst: str) -> tuple[str, ...] | None:
    """The least (latency, hops, names) simple path, or None if none."""
    neighbours: dict[str, list[str]] = {}
    for link in topo.links.values():
        if link.up:
            neighbours.setdefault(link.a, []).append(link.b)
            neighbours.setdefault(link.b, []).append(link.a)
    best = None

    def walk(path: tuple[str, ...]) -> None:
        nonlocal best
        if path[-1] == dst:
            hops = [topo.get_link(u, v) for u, v in zip(path, path[1:])]
            latency = 0.0
            for link in hops:
                latency += link.latency_s
            key = (latency, len(hops), path)
            if best is None or key < best:
                best = key
            return
        for nxt in neighbours.get(path[-1], ()):
            if nxt not in path:
                walk(path + (nxt,))

    walk((src,))
    return None if best is None else best[2]


def route_nodes(topo: Topology, src: str, links) -> tuple[str, ...]:
    """Walk a route's links from ``src``; fails unless they chain."""
    nodes = [src]
    for link in links:
        assert link.up, f"route uses down link {link.a}-{link.b}"
        assert nodes[-1] in (link.a, link.b), "route links do not chain"
        nodes.append(link.b if link.a == nodes[-1] else link.a)
    return tuple(nodes)


@st.composite
def topologies(draw):
    n_sites = draw(st.integers(min_value=2, max_value=7))
    sites = [f"S{i}" for i in range(n_sites)]
    pairs = list(itertools.combinations(sites, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    latencies = draw(
        st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    n_hosts = draw(st.integers(min_value=0, max_value=2))
    homes = draw(
        st.lists(st.sampled_from(sites), min_size=n_hosts, max_size=n_hosts)
    )
    toggles = draw(st.lists(st.integers(min_value=0, max_value=11), max_size=6))
    topo = Topology()
    for site in reversed(sites):  # insertion order must not matter
        topo.add_site(site)
    for (a, b), lat in zip(chosen, latencies):
        topo.add_link(a, b, 10.0, latency_s=lat / 1024)
    for i, home in enumerate(homes):
        topo.attach_host(f"h{i}", home)
    return topo, chosen, toggles


def check_all_pairs(topo: Topology) -> None:
    nodes = sorted(set(topo.sites) | set(topo.hosts))
    for src, dst in itertools.permutations(nodes, 2):
        want = oracle_route(topo, src, dst)
        if want is None:
            with pytest.raises(NoRouteError):
                topo.route(src, dst)
            assert not topo.reachable(src, dst)
            continue
        links = topo.route(src, dst)
        got = route_nodes(topo, src, links)
        assert got[-1] == dst
        assert got == want, (src, dst)
        latency = 0.0
        for link in links:
            latency += link.latency_s
        assert topo.path_latency(src, dst) == latency


@settings(max_examples=60, deadline=None)
@given(topologies())
def test_route_is_least_latency_path_under_fail_and_restore(case):
    topo, chosen, toggles = case
    check_all_pairs(topo)
    for index in toggles:
        if index >= len(chosen):
            continue
        a, b = chosen[index]
        if topo.get_link(a, b).up:
            topo.fail_link(a, b)
        else:
            topo.restore_link(a, b)
        check_all_pairs(topo)


def test_unknown_endpoints_raise_no_route():
    topo = Topology()
    topo.add_site("A")
    topo.add_site("B")
    topo.add_link("A", "B", 10.0)
    for src, dst in (("A", "ghost"), ("ghost", "A"), ("ghost", "phantom")):
        with pytest.raises(NoRouteError):
            topo.route(src, dst)


def test_equal_latency_tie_goes_to_fewer_hops_then_names():
    topo = Topology()
    for site in ("A", "B", "C", "D", "E"):
        topo.add_site(site)
    topo.add_link("A", "D", 10.0, latency_s=0.5)  # one hop, latency 0.5
    topo.add_link("A", "C", 10.0, latency_s=0.25)  # two hops, latency 0.5
    topo.add_link("C", "D", 10.0, latency_s=0.25)
    assert route_nodes(topo, "A", topo.route("A", "D")) == ("A", "D")
    topo.fail_link("A", "D")
    topo.add_link("A", "B", 10.0, latency_s=0.25)  # ties A-C-D by name
    topo.add_link("B", "D", 10.0, latency_s=0.25)
    assert route_nodes(topo, "A", topo.route("A", "D")) == ("A", "B", "D")
    assert route_nodes(topo, "D", topo.route("D", "A")) == ("D", "B", "A")


def route_table(topo: Topology) -> list[str]:
    """Every ordered pair's route, with no cut and under each WAN cut."""
    nodes = sorted(set(topo.sites) | set(topo.hosts))
    lines = []
    for cut in [None, *topo.wan_links()]:
        if cut is not None:
            topo.fail_link(cut.a, cut.b)
        label = "none" if cut is None else f"{cut.a}-{cut.b}"
        for src, dst in itertools.permutations(nodes, 2):
            try:
                route = topo.route(src, dst)
                hops = ",".join(f"{link.a}-{link.b}" for link in route)
            except NoRouteError:
                hops = "-"
            lines.append(f"{label}|{src}>{dst}:{hops}")
        if cut is not None:
            topo.restore_link(cut.a, cut.b)
    return lines


#: sha256 of :func:`route_table` on the testbed topology, computed with
#: the third-party router the in-tree search replaced: any route change
#: fails the test
PINNED_ROUTE_TABLE = (
    "0f98aace7af275e1b15156aca85ca60233ac142d91f984049f6ed433663155d0"
)


def test_testbed_route_table_is_pinned():
    topo = build_nautilus_testbed(seed=42, scale=0.001).topology
    assert len(topo.sites) + len(topo.hosts) == 40
    assert len(topo.links) == 40
    lines = route_table(topo)
    assert len(lines) == 22 * 40 * 39
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_ROUTE_TABLE
