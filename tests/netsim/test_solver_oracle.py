"""Exact differential tests for the path-grouped max-min solver.

:func:`oracle_max_min_rates` is the per-flow progressive filling the
path-grouped :func:`~repro.netsim.flows.max_min_rates` replaced.  It
lives only here: the production solver must give *bit-identical* rates,
so every comparison is ``==``, never ``approx``.
"""

from __future__ import annotations

import typing as _t

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.flows import CapacityResource, Flow, max_min_rates


def oracle_max_min_rates(flows: _t.Sequence[Flow]) -> dict[Flow, float]:
    """Per-flow progressive filling: the reference for max_min_rates."""
    rates: dict[Flow, float] = {}
    active: set[Flow] = set()
    for flow in flows:
        if any(res.blocked for res in flow.resources):
            rates[flow] = 0.0
        elif flow.resources:
            active.add(flow)
            rates[flow] = 0.0
        else:
            rates[flow] = float("inf")

    cap_left: dict[CapacityResource, float] = {}
    users: dict[CapacityResource, set[Flow]] = {}
    for flow in active:
        for res in flow.resources:
            cap_left.setdefault(res, res.capacity)
            users.setdefault(res, set()).add(flow)

    while active:
        inc = min(
            cap_left[res] / len(members)
            for res, members in users.items()
            if members
        )
        for flow in active:
            rates[flow] += inc
        saturated: list[CapacityResource] = []
        for res, members in users.items():
            if not members:
                continue
            cap_left[res] -= inc * len(members)
            if cap_left[res] <= 1e-9 * res.capacity:
                saturated.append(res)
        if not saturated:
            break
        frozen: set[Flow] = set()
        for res in saturated:
            frozen |= users[res]
        for flow in frozen & active:
            active.discard(flow)
            for res in flow.resources:
                users[res].discard(flow)
    return rates


def _flow(resources) -> Flow:
    return Flow("f", resources, 1e9, event=None, start_time=0.0)


def _assert_identical(flows: list[Flow]) -> None:
    got = max_min_rates(flows)
    want = oracle_max_min_rates(flows)
    assert list(got) == flows
    for flow in flows:
        assert got[flow] == want[flow], (flow.resources, got[flow], want[flow])


# Capacities spanning many orders of magnitude, so increments and
# residuals round differently from one resource to the next.
_capacities = st.one_of(
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False),
    st.sampled_from([1.0, 3.0, 7.0, 1e9 / 8, 1.25e9, 2e8]),
)


@st.composite
def _networks(draw):
    """Resources, and flows over them: shared paths (one tuple reused by
    several flows), resources repeated within a path, empty paths, and a
    sequence of blocked/unblocked toggles (link fail/restore)."""
    caps = draw(st.lists(_capacities, min_size=1, max_size=8))
    resources = [CapacityResource(f"r{i}", c) for i, c in enumerate(caps)]
    index = st.integers(min_value=0, max_value=len(resources) - 1)
    paths = draw(
        st.lists(st.lists(index, min_size=0, max_size=6), min_size=1, max_size=8)
    )
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(paths) - 1),
            min_size=1,
            max_size=40,
        )
    )
    flows = [_flow([resources[i] for i in paths[p]]) for p in assignment]
    toggles = draw(st.lists(index, max_size=6))
    return resources, flows, toggles


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(_networks())
    def test_rates_bit_identical_through_fail_restore(self, network):
        resources, flows, toggles = network
        _assert_identical(flows)
        for i in toggles:  # fail or restore one resource at a time
            resources[i].blocked = not resources[i].blocked
            _assert_identical(flows)

    @settings(max_examples=100, deadline=None)
    @given(_networks(), st.randoms(use_true_random=False))
    def test_rates_do_not_depend_on_flow_order(self, network, rnd):
        _resources, flows, _toggles = network
        shuffled = list(flows)
        rnd.shuffle(shuffled)
        assert max_min_rates(flows) == max_min_rates(shuffled)

    def test_flows_on_one_path_get_identical_rates(self):
        a = CapacityResource("a", 10.0)
        b = CapacityResource("b", 3.0)
        shared = [_flow([a, b]) for _ in range(3)]
        alone = _flow([a])
        rates = max_min_rates([*shared, alone])
        assert len({rates[f] for f in shared}) == 1
        _assert_identical([*shared, alone])

    def test_repeated_resource_counts_once_per_flow(self):
        link = CapacityResource("l", 90.0)
        looped = _flow([link, link])
        plain = _flow([link])
        rates = max_min_rates([looped, plain])
        assert rates[looped] == rates[plain] == 45.0
        _assert_identical([looped, plain])

    def test_blocked_and_empty_paths(self):
        up = CapacityResource("up", 10.0)
        down = CapacityResource("down", 10.0)
        down.blocked = True
        stalled = _flow([up, down])
        local = _flow([])
        free = _flow([up])
        rates = max_min_rates([stalled, local, free])
        assert rates == {stalled: 0.0, local: float("inf"), free: 10.0}
        _assert_identical([stalled, local, free])

    def test_no_flows(self):
        assert max_min_rates([]) == {}
