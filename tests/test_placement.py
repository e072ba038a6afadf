"""Best-fit-decreasing placement and its power-increase cost."""

import math
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings, strategies as st

from dcsim import (HostSnapshot, PlacementPlan, PlacementRequest, VmRequest,
                   default_paper_scenario, initial_placement, mbfd, power_increase,
                   reallocate, step)
from dcsim import placement


def snap(id=0, cap=1000.0, on=True, demand=0.0, ram=8192.0, storage=1024.0,
         p_max=250.0, k=0.7):
    return HostSnapshot(id=id, mips_capacity=cap, p_max_watts=p_max,
                        idle_fraction=k, powered_on=on, cpu_demand_mips=demand,
                        ram_free_mb=ram, storage_free_gb=storage)


def vm(id=0, demand=100.0, ram=128.0, storage=1.0):
    return VmRequest(id=id, demand_mips=demand, ram_mb=ram, storage_gb=storage)


def test_power_increase_on_host_is_slope_only():
    # linear model: increase on a running host is (1-k)*p_max*d/cap
    host = snap(cap=1000.0, demand=300.0)
    assert power_increase(host, 100.0) == pytest.approx(75.0 * 100.0 / 1000.0)


def test_power_increase_off_host_includes_idle():
    host = snap(cap=1000.0, on=False)
    assert power_increase(host, 100.0) == pytest.approx(175.0 + 7.5)


def test_power_increase_clamps_at_full_utilization():
    host = snap(cap=1000.0, demand=950.0)
    full = power_increase(host, 500.0)
    assert full == pytest.approx(75.0 * 50.0 / 1000.0)


def test_power_increase_rejects_negative_demand():
    with pytest.raises(ValueError):
        power_increase(snap(), -1.0)


def test_mbfd_prefers_running_host_over_activation():
    hosts = [snap(id=0, on=True), snap(id=1, on=False)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0)], hosts=hosts))
    assert plan.assignments == {0: 0}


def test_mbfd_activates_when_no_running_host_fits():
    hosts = [snap(id=0, on=True, demand=950.0), snap(id=1, on=False)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0, demand=100.0)], hosts=hosts))
    assert plan.assignments == {0: 1}


def test_mbfd_prefers_larger_capacity_for_smaller_slope():
    # same demand costs less power on the higher-MIPS host
    hosts = [snap(id=0, cap=1000.0), snap(id=1, cap=3000.0)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0, demand=300.0)], hosts=hosts))
    assert plan.assignments == {0: 1}


def test_mbfd_places_by_decreasing_demand():
    seen = []
    hosts = [snap(id=0, cap=10000.0)]
    vms = [vm(id=0, demand=100.0), vm(id=1, demand=300.0), vm(id=2, demand=200.0)]
    plan = mbfd(PlacementRequest(vms=vms, hosts=hosts))
    assert set(plan.assignments) == {0, 1, 2}
    # order is observable through a capacity that only admits a prefix
    tight = [snap(id=0, cap=1000.0)]
    plan = mbfd(PlacementRequest(vms=vms, hosts=tight, upper_threshold=0.5))
    assert plan.assignments == {1: 0, 2: 0}
    assert plan.unplaced == {0}


def test_mbfd_ties_break_by_ascending_host_id():
    hosts = [snap(id=7), snap(id=3)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0)], hosts=hosts))
    assert plan.assignments == {0: 3}


def test_mbfd_respects_upper_threshold():
    hosts = [snap(id=0, cap=1000.0)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0, demand=600.0)], hosts=hosts,
                                 upper_threshold=0.5))
    assert plan.unplaced == {0}


def test_mbfd_respects_ram_and_storage():
    hosts = [snap(id=0, ram=64.0), snap(id=1, storage=0.5)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0, ram=128.0, storage=1.0)], hosts=hosts))
    assert plan.unplaced == {0}
    assert plan.assignments == {}


def test_mbfd_excluded_hosts_never_receive():
    hosts = [snap(id=0), snap(id=1)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0)], hosts=hosts,
                                 excluded_hosts=frozenset({0})))
    assert plan.assignments == {0: 1}


def test_mbfd_allow_power_on_false_skips_off_hosts():
    hosts = [snap(id=0, on=False), snap(id=1, on=False)]
    plan = mbfd(PlacementRequest(vms=[vm(id=0)], hosts=hosts,
                                 allow_power_on=False))
    assert plan.unplaced == {0}


def test_mbfd_commits_sequentially():
    # second VM must see the first one's demand
    hosts = [snap(id=0, cap=1000.0), snap(id=1, cap=1000.0)]
    vms = [vm(id=0, demand=600.0), vm(id=1, demand=600.0)]
    plan = mbfd(PlacementRequest(vms=vms, hosts=hosts))
    assert set(plan.assignments.values()) == {0, 1}


def test_mbfd_does_not_mutate_caller_snapshots():
    hosts = [snap(id=0, on=False)]
    mbfd(PlacementRequest(vms=[vm(id=0)], hosts=hosts))
    assert hosts[0].powered_on is False
    assert hosts[0].cpu_demand_mips == 0.0


def test_request_rejects_bad_threshold():
    with pytest.raises(ValueError):
        PlacementRequest(vms=[], hosts=[], upper_threshold=0.0)


hosts_strategy = st.lists(
    st.tuples(st.sampled_from([1000.0, 2000.0, 3000.0]), st.booleans()),
    min_size=1, max_size=4)
vms_strategy = st.lists(
    st.sampled_from([250.0, 500.0, 750.0, 1000.0]), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(hosts_strategy, vms_strategy, st.sampled_from([0.5, 0.7, 0.9, 1.0]))
def test_mbfd_never_exceeds_threshold_or_resources(host_params, demands, upper):
    hosts = [snap(id=i, cap=cap, on=on) for i, (cap, on) in enumerate(host_params)]
    vms = [vm(id=i, demand=d) for i, d in enumerate(demands)]
    plan = mbfd(PlacementRequest(vms=vms, hosts=hosts, upper_threshold=upper))
    load = {}
    for vm_id, host_id in plan.assignments.items():
        load[host_id] = load.get(host_id, 0.0) + demands[vm_id]
    for host in hosts:
        if host.id in load:
            assert load[host.id] <= upper * host.mips_capacity + 1e-9
    assert set(plan.assignments) | plan.unplaced == set(range(len(vms)))


def reference_mbfd(req: PlacementRequest) -> PlacementPlan:
    """The plain linear scan ``mbfd`` must match: hosts in id order, the
    cost from ``power_increase``, and a strictly smaller cost to win."""
    hosts = sorted((replace(h) for h in req.hosts), key=lambda h: h.id)
    assignments, unplaced = {}, set()
    for v in sorted(req.vms, key=lambda v: (-v.demand_mips, v.id)):
        best = best_delta = None
        for h in hosts:
            if (h.id in req.excluded_hosts or not (h.powered_on or req.allow_power_on)
                    or v.ram_mb > h.ram_free_mb or v.storage_gb > h.storage_free_gb
                    or h.cpu_demand_mips + v.demand_mips > req.upper_threshold * h.mips_capacity):
                continue
            delta = power_increase(h, v.demand_mips)
            if best is None or delta < best_delta:
                best, best_delta = h, delta
        if best is None:
            unplaced.add(v.id)
            continue
        assignments[v.id] = best.id
        best.powered_on = True
        best.cpu_demand_mips += v.demand_mips
        best.ram_free_mb -= v.ram_mb
        best.storage_free_gb -= v.storage_gb
    return PlacementPlan(assignments=assignments, unplaced=unplaced)


# A mixed fleet: a few host classes (so identical untouched hosts are
# common and the group-head rule is exercised), each host on or off,
# with a fractional load when on and RAM or storage that may bind.
host_class = st.tuples(st.sampled_from([1000.0, 2000.0, 3000.0, 2660.0]),
                       st.sampled_from([250.0, 135.0, 117.5]),
                       st.sampled_from([0.7, 0.5, 0.0, 1.0]))
host_state = st.tuples(st.booleans(),
                       st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                       st.sampled_from([8192.0, 512.0, 256.0]),
                       st.sampled_from([1024.0, 3.0, 1.5]))
vm_params = st.tuples(st.one_of(st.sampled_from([250.0, 500.0, 750.0, 1000.0]),
                                st.floats(0.0, 1000.0)),
                      st.sampled_from([128.0, 256.0]),
                      st.sampled_from([1.0, 2.0]))


@st.composite
def placement_requests(draw):
    classes = draw(st.lists(host_class, min_size=1, max_size=3))
    n_hosts = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n_hosts)))
    hosts = []
    for hid in ids:
        cap, p_max, k = draw(st.sampled_from(classes))
        on, load, ram, storage = draw(st.one_of(st.just((False, 0.0, 8192.0, 1024.0)),
                                                host_state))
        hosts.append(snap(id=hid, cap=cap, on=on, demand=load * cap if on else 0.0,
                          ram=ram, storage=storage, p_max=p_max, k=k))
    vms = [vm(id=i, demand=d, ram=ram, storage=storage)
           for i, (d, ram, storage) in enumerate(draw(st.lists(vm_params, max_size=25)))]
    excluded = frozenset(draw(st.lists(st.sampled_from(range(n_hosts)), max_size=2)))
    return PlacementRequest(vms=vms, hosts=hosts,
                            upper_threshold=draw(st.sampled_from([1.0, 0.9, 0.7, 0.5])),
                            allow_power_on=draw(st.booleans()),
                            excluded_hosts=excluded)


@settings(max_examples=400, deadline=None)
@given(placement_requests())
def test_mbfd_matches_reference_scan(req):
    expected = reference_mbfd(req)
    plan = mbfd(req)
    assert plan.assignments == expected.assignments
    assert plan.unplaced == expected.unplaced


def test_mbfd_matches_reference_on_identical_idle_hosts():
    # many untouched copies of two classes: each VM sees one head per class
    hosts = [snap(id=i, cap=(1000.0, 3000.0)[i % 2], on=i < 4) for i in range(20)]
    vms = [vm(id=i, demand=(250.0, 500.0, 750.0, 1000.0, 433.9)[i % 5]) for i in range(40)]
    req = PlacementRequest(vms=vms, hosts=hosts, upper_threshold=0.8)
    assert mbfd(req) == reference_mbfd(req)


# Three host classes that differ in capacity, peak power and idle fraction.
MIXED_CLASSES = ((1000.0, 250.0, 0.7), (2000.0, 135.0, 0.5), (3000.0, 117.5, 0.0))


def mixed(id, on=True, demand=0.0, ram=8192.0, cls=None):
    cap, p_max, k = MIXED_CLASSES[id % 3 if cls is None else cls]
    return snap(id=id, cap=cap, on=on, demand=demand, ram=ram, p_max=p_max, k=k)


def non_round_vms(n, ram=128.0):
    return [vm(id=i, demand=37.5 + (i * 211.37) % 962.5, ram=ram) for i in range(n)]


def _excluded_group_head():
    # the lowest id of each class is excluded, so the next one heads its group
    hosts = [mixed(i, on=i < 6) for i in range(15)]
    return PlacementRequest(vms=non_round_vms(30), hosts=hosts, upper_threshold=0.9,
                            excluded_hosts=frozenset({0, 1, 2, 6}))


def _off_hosts_interleaved_with_on_hosts():
    # one class, on and off by turns; off hosts may not be powered on
    hosts = [mixed(i, on=i % 2 == 0, cls=1) for i in range(12)]
    hosts += [mixed(i, on=i % 3 == 0) for i in range(12, 18)]
    return PlacementRequest(vms=non_round_vms(20), hosts=hosts, upper_threshold=0.8,
                            allow_power_on=False)


def _reverse_id_order():
    hosts = [mixed(i, on=i % 4 == 0) for i in range(16)][::-1]
    return PlacementRequest(vms=non_round_vms(35), hosts=hosts, upper_threshold=0.7)


def _groups_differing_only_in_power_state():
    hosts = [mixed(i, on=(i // 3) % 2 == 0) for i in range(18)]
    return PlacementRequest(vms=non_round_vms(40), hosts=hosts)


def _groups_differing_only_in_free_ram():
    # every third host of a class has room for one 1 GB VM only
    hosts = [mixed(i, ram=1500.0 if (i // 3) % 3 == 0 else 8192.0) for i in range(18)]
    return PlacementRequest(vms=non_round_vms(30, ram=1024.0), hosts=hosts, upper_threshold=0.9)


def _signed_zero_demands_in_one_group():
    hosts = [mixed(i, demand=-0.0 if i % 2 else 0.0, cls=i // 2 % 2) for i in range(12)]
    vms = non_round_vms(25) + [vm(id=25, demand=0.0), vm(id=26, demand=-0.0)]
    return PlacementRequest(vms=vms, hosts=hosts, upper_threshold=0.6)


@pytest.mark.parametrize("build", [
    _excluded_group_head, _off_hosts_interleaved_with_on_hosts, _reverse_id_order,
    _groups_differing_only_in_power_state, _groups_differing_only_in_free_ram,
    _signed_zero_demands_in_one_group])
def test_mbfd_matches_reference_on_grouped_hosts(build):
    req = build()
    assert mbfd(req) == reference_mbfd(req)


def test_mbfd_builds_one_record_per_state_and_per_receiving_host(monkeypatch):
    # ST's repack twenty frames into a default ST50 run: the 100-host fleet
    # stripped of residents, some hosts on and some off, and the fractional
    # demands of the VMs still running
    scenario = default_paper_scenario("ST", upper_threshold=0.5)
    state = initial_placement(scenario)
    for _ in range(20):
        step(state, scenario)
    req = PlacementRequest(
        vms=[vm(id=v, demand=s.demand_mips, ram=s.spec.ram_mb, storage=s.spec.storage_gb)
             for v, s in state.active.items()],
        hosts=[HostSnapshot(h.spec.id, h.spec.mips_capacity, h.spec.p_max_watts,
                            h.spec.idle_fraction, h.powered_on, 0.0, h.spec.ram_mb,
                            h.spec.storage_gb) for h in state.hosts],
        upper_threshold=0.5)
    assert len(req.hosts) == 100 and 0 < sum(h.powered_on for h in req.hosts) < 100
    checked = []
    check = placement.check_power_curve

    def counted(p_max, k):
        checked.append((p_max, k))
        check(p_max, k)

    # each group's curve is checked once, as its record is derived
    monkeypatch.setattr(placement, "check_power_curve", counted)
    plan = mbfd(req)
    states = {astuple(replace(h, id=0)) for h in req.hosts}
    receivers = set(plan.assignments.values())
    assert len(checked) <= len(states) + len(receivers) < len(req.hosts)
    assert plan == reference_mbfd(req)
    # ST's own pass builds its records the same way, and places alike
    del checked[:]
    moves = reallocate(scenario.policy, state.hosts, state.active, state.rng).moves
    assert len(checked) <= len(states) + len(receivers)
    assert {v: dst for v, _, dst in moves} == {
        v: dst for v, dst in plan.assignments.items() if dst != state.vms[v].host_id}


@pytest.mark.parametrize("host, demand", [
    (dict(p_max=0.0), 100.0),
    (dict(k=1.5), 100.0),
    (dict(demand=-500.0), 100.0),
    (dict(), -1.0),
    (dict(demand=math.nan), 100.0),
    (dict(ram=math.nan), 100.0),
    (dict(storage=math.nan), 100.0),
    (dict(on=False, demand=math.nan), 100.0),
])
def test_mbfd_raises_where_the_reference_raises(host, demand):
    req = PlacementRequest(vms=[vm(id=0, demand=demand)], hosts=[snap(id=0, **host)])
    with pytest.raises(ValueError):
        reference_mbfd(req)
    with pytest.raises(ValueError):
        mbfd(req)


@pytest.mark.parametrize("hosts", [
    [HostSnapshot(0, 1000.0, 250.0, 0.7, True, math.nan, 8192.0, 1024.0)],
    [HostSnapshot(1, 1000.0, 250.0, 0.7, True, 0.0, math.nan, 1024.0)],
    [HostSnapshot(0, 1000.0, 250.0, 0.7, True, math.nan, 8192.0, 1024.0),
     HostSnapshot(1, 1000.0, 250.0, 0.7, True, 0.0, math.nan, 1024.0)],
])
def test_a_nan_in_a_usable_snapshot_is_rejected(hosts):
    # min(1.0, nan) is 1.0, and a NaN free RAM is never exceeded
    with pytest.raises(ValueError):
        mbfd(PlacementRequest(vms=[vm(id=0, demand=100.0)], hosts=hosts))
    for h in hosts:
        with pytest.raises(ValueError):
            power_increase(h, 100.0)
    # an excluded host is not usable, so its state is not read
    plan = mbfd(PlacementRequest(vms=[vm(id=0, demand=100.0)], hosts=hosts + [snap(id=2)],
                                 excluded_hosts=frozenset(h.id for h in hosts)))
    assert plan.assignments == {0: 2}
