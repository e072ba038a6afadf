"""Reallocation policies: VM selection rules and migration planning."""

import copy
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dcsim import placement, policies
from dcsim.model import HostSpec, HostState, MigrationPlan, VmSpec, VmState, add_up
from dcsim.placement import HostSnapshot, PlacementRequest, VmRequest, mbfd
from dcsim.policies import (PolicyConfig, _record, reallocate,
                            select_vms_hpg, select_vms_mm, select_vms_rc,
                            underloaded_hosts)
from dcsim.workload import SeededRng
from test_placement import reference_mbfd


def make_host(id=0, cap=1000.0, residents=(), on=True):
    spec = HostSpec(id=id, mips_capacity=cap, ram_mb=8192.0, storage_gb=1024.0,
                    p_max_watts=250.0, idle_fraction=0.7)
    return HostState(spec=spec, powered_on=on, resident_vms=list(residents))


def make_vms(demands, requested=None):
    vms = {}
    for i, d in enumerate(demands):
        req = requested[i] if requested else max(d, 1.0)
        spec = VmSpec(id=i, requested_mips=req, ram_mb=128.0, storage_gb=1.0,
                      total_work_mi=150000.0)
        vms[i] = VmState(spec=spec, host_id=0, demand_mips=d,
                         remaining_work_mi=1000.0)
    return vms


def test_policy_config_validation():
    PolicyConfig("MM", 0.3, 0.7)
    PolicyConfig("ST", upper_threshold=0.5)
    PolicyConfig("NPA")
    with pytest.raises(ValueError):
        PolicyConfig("MM", 0.7, 0.3)
    with pytest.raises(ValueError):
        PolicyConfig("NPA", 0.3, 0.7)
    with pytest.raises(ValueError):
        PolicyConfig("ST")
    with pytest.raises(ValueError):
        PolicyConfig("LRU", 0.3, 0.7)


def test_host_utilization():
    # the pass's record sums a host's residents once: 200 + 300 of 1000 is 0.5
    vms = make_vms([200.0, 300.0])
    host = make_host(cap=1000.0, residents=[0, 1])
    record = _record(host, host.resident_vms, vms, 0.7)
    pos, hid, cap, limit, idle_w, dyn_w, cpu, ram, storage, p, group = record
    assert (pos, hid, cap, limit, group) == (0, 0, 1000.0, 700.0, None)
    assert cpu / cap == pytest.approx(0.5)
    assert ram == pytest.approx(8192.0 - 2 * 128.0)
    assert storage == pytest.approx(1024.0 - 2 * 1.0)
    # 0.7 * 250 W idle, plus 0.3 * 250 W at half load
    assert (idle_w, dyn_w, p) == pytest.approx((175.0, 75.0, 212.5))
    # a relieved host is summed without its picks
    assert _record(host, [1], vms, 0.7)[6:9] == [300.0, 8192.0 - 128.0, 1024.0 - 1.0]


def test_underloaded_hosts_strictly_below_threshold():
    vms = make_vms([300.0, 100.0, 200.0, 300.0])
    at = make_host(id=0, cap=1000.0, residents=[0])       # exactly 0.3
    below = make_host(id=1, cap=1000.0, residents=[1])    # 0.1
    off = make_host(id=2, on=False)
    empty = make_host(id=3)
    pair = make_host(id=4, cap=1000.0, residents=[2, 3])  # 200 + 300 of 1000: 0.5
    hosts = [pair, at, below, off, empty]
    loads = {h.spec.id: _record(h, h.resident_vms, vms, 1.0)[6] for h in hosts}
    assert underloaded_hosts(hosts, loads, 0.3) == [1]
    # emptiest first; the pair sums to 0.5
    assert underloaded_hosts(hosts, loads, 0.5) == [1, 0]
    assert underloaded_hosts(hosts, loads, 0.6) == [1, 0, 4]


def relieved(host, vms, picked, upper):
    remaining = sum(vms[v].demand_mips for v in host.resident_vms
                    if v not in picked)
    return remaining <= upper * host.spec.mips_capacity + 1e-9


def test_mm_prefers_single_covering_vm():
    # excess 150: the smallest VM larger than the excess wins over pairs
    vms = make_vms([100.0, 120.0, 200.0, 430.0])
    host = make_host(cap=1000.0, residents=[0, 1, 2, 3])
    assert select_vms_mm(host, vms, 0.7) == [2]


def test_mm_takes_largest_when_none_covers():
    vms = make_vms([300.0, 350.0, 350.0])
    host = make_host(cap=1000.0, residents=[0, 1, 2])
    picked = select_vms_mm(host, vms, 0.3)
    assert relieved(host, vms, picked, 0.3)
    assert picked[0] == 1  # largest first, earlier id wins ties


def test_mm_noop_when_under_threshold():
    vms = make_vms([100.0])
    host = make_host(cap=1000.0, residents=[0])
    assert select_vms_mm(host, vms, 0.7) == []


def test_hpg_orders_by_demand_to_requested_ratio():
    vms = make_vms([500.0, 200.0, 300.0], requested=[1000.0, 250.0, 1000.0])
    # ratios: 0.5, 0.8, 0.3 -> order 2, 0, 1; excess 200 needs only VM 2
    host = make_host(cap=1000.0, residents=[0, 1, 2])
    picked = select_vms_hpg(host, vms, 0.8)
    assert picked == [2]
    assert relieved(host, vms, picked, 0.8)


def test_rc_is_deterministic_under_a_seed_and_relieves():
    vms = make_vms([300.0, 300.0, 300.0])
    host = make_host(cap=1000.0, residents=[0, 1, 2])
    first = select_vms_rc(host, vms, 0.3, SeededRng(5))
    assert first == select_vms_rc(host, vms, 0.3, SeededRng(5))
    assert relieved(host, vms, first, 0.3)


def brute_force_min_selection(demands, excess):
    if excess <= 0:
        return 0
    ids = range(len(demands))
    for size in range(1, len(demands) + 1):
        for combo in itertools.combinations(ids, size):
            if sum(demands[i] for i in combo) >= excess:
                return size
    return len(demands)


def test_mm_minimum_cardinality_oracle():
    """500 random overloaded hosts: greedy matches exhaustive minimum."""
    rng = SeededRng(2024)
    mismatches = 0
    for _ in range(500):
        n = 1 + rng.randbelow(12)
        demands = [25.0 * (1 + rng.randbelow(40)) for _ in range(n)]
        cap = 1000.0 + 500.0 * rng.randbelow(5)
        upper = 0.3 + 0.1 * rng.randbelow(6)
        vms = make_vms(demands)
        host = make_host(cap=cap, residents=list(range(n)))
        picked = select_vms_mm(host, vms, upper)
        assert relieved(host, vms, picked, upper)
        excess = sum(demands) - upper * cap
        if len(picked) != brute_force_min_selection(demands, excess):
            mismatches += 1
    assert mismatches == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=10),
       st.sampled_from([0.3, 0.5, 0.7, 0.9]),
       st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=10, max_size=10))
# loads where subtracting picks one at a time from a float excess leaves a
# rounding residue above zero, so MM used to pick a fifth VM where four suffice
@example([500.0, 500.0, 548.7026477123579, 548.7026477123579, 500.0], 0.5, [0.0] * 10)
@example([500.0, 500.0, 501.70264771235793, 547.7026477123579, 547.0], 0.5, [0.0] * 10)
# exactly at the threshold: the excess is 0.0, so nothing is picked
@example([300.0, 400.0], 0.7, [0.0] * 10)
def test_all_selectors_relieve_the_host(demands, upper, headroom):
    # each VM requests its demand plus its own headroom
    vms = make_vms(demands, requested=[d + h for d, h in zip(demands, headroom)])
    host = make_host(cap=1000.0, residents=list(range(len(demands))))
    limit = upper * host.spec.mips_capacity

    def excess(taken):  # exact, in rationals
        return sum(Fraction(d) for v, d in enumerate(demands) if v not in taken) - Fraction(limit)

    mm = select_vms_mm(host, vms, upper)
    hpg = select_vms_hpg(host, vms, upper)
    rng = SeededRng(1)
    draws = []
    randbelow = rng.randbelow
    rng.randbelow = lambda n: draws.append(n) or randbelow(n)
    rc = select_vms_rc(host, vms, upper, rng)
    for picked in (mm, hpg, rc):
        assert len(picked) == len(set(picked))
        assert set(picked) <= set(host.resident_vms)
        # each pick was made while the host was still over, and the last one relieved it
        assert all(excess(picked[:i]) > 0 for i in range(len(picked)))
        assert excess(picked) <= 0
    ratio_order = sorted(host.resident_vms,
                         key=lambda v: (vms[v].demand_mips / vms[v].spec.requested_mips, v))
    assert hpg == ratio_order[:len(hpg)]
    assert len(draws) == len(rc)
    # MM minimizes the count, so it never selects more than the others
    assert len(mm) <= len(hpg)
    assert len(mm) <= len(rc)


def two_host_fixture():
    """Host 0 overloaded at 0.85, host 1 at 0.2 (underloaded), host 2 off."""
    vms = make_vms([500.0, 350.0, 200.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0, 1]),
             make_host(id=1, cap=1000.0, residents=[2]),
             make_host(id=2, cap=1000.0, on=False)]
    vms[2].host_id = 1
    return hosts, vms


def test_reallocate_static_policies_never_move():
    hosts, vms = two_host_fixture()
    for kind in ("NPA", "DVFS"):
        plan = reallocate(PolicyConfig(kind), hosts, vms, SeededRng(1))
        assert plan.moves == []


def test_reallocate_never_targets_current_host():
    hosts, vms = two_host_fixture()
    for config in (PolicyConfig("ST", upper_threshold=0.7),
                   PolicyConfig("MM", 0.3, 0.7),
                   PolicyConfig("HPG", 0.3, 0.7),
                   PolicyConfig("RC", 0.3, 0.7)):
        plan = reallocate(config, hosts, vms, SeededRng(1))
        for vm_id, src, dst in plan.moves:
            assert src == vms[vm_id].host_id
            assert dst != src


def test_two_threshold_relieves_overloaded_host():
    hosts, vms = two_host_fixture()
    plan = reallocate(PolicyConfig("MM", 0.1, 0.7), hosts, vms, SeededRng(1))
    moved = {v: dst for v, _, dst in plan.moves}
    # host 0 is at 0.85; MM moves its smallest covering VM to host 1
    assert moved == {1: 1}


def test_two_threshold_evacuates_underloaded_host():
    vms = make_vms([100.0, 600.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0]),
             make_host(id=1, cap=1000.0, residents=[1])]
    vms[1].host_id = 1
    plan = reallocate(PolicyConfig("MM", 0.3, 0.9), hosts, vms, SeededRng(1))
    assert plan.moves == [(0, 0, 1)]


def test_two_threshold_never_powers_hosts_on():
    # the only possible destination is off, so nothing can move
    vms = make_vms([100.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0]),
             make_host(id=1, cap=1000.0, on=False)]
    plan = reallocate(PolicyConfig("MM", 0.3, 0.7), hosts, vms, SeededRng(1))
    assert plan.moves == []


def test_evacuation_is_all_or_nothing():
    # host 0's pair fits nowhere together; a partial move would strand it
    vms = make_vms([200.0, 200.0, 500.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0, 1]),
             make_host(id=1, cap=1000.0, residents=[2])]
    vms[2].host_id = 1
    plan = reallocate(PolicyConfig("MM", 0.5, 0.6), hosts, vms, SeededRng(1))
    moved = {v for v, _, _ in plan.moves}
    assert moved in (set(), {0, 1})


def test_relieved_host_is_not_evacuated():
    # host 0 is over 0.9 by its one VM; once MM picks it the host would read
    # empty, but the underloaded set is taken before relief, so the VM moves
    # once, to the lowest-id of the two equal targets
    vms = make_vms([950.0, 1000.0, 1000.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0]),
             make_host(id=1, cap=3000.0, residents=[1]),
             make_host(id=2, cap=3000.0, residents=[2])]
    vms[1].host_id, vms[2].host_id = 1, 2
    plan = reallocate(PolicyConfig("MM", 0.3, 0.9), hosts, vms, SeededRng(1))
    assert plan.moves == [(0, 0, 1)]


def test_underloaded_hosts_can_merge():
    # both hosts are under 0.5; the emptier one moves into the fuller one
    vms = make_vms([100.0, 300.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0]),
             make_host(id=1, cap=1000.0, residents=[1])]
    vms[1].host_id = 1
    plan = reallocate(PolicyConfig("MM", 0.5, 0.9), hosts, vms, SeededRng(1))
    assert plan.moves == [(0, 0, 1)]


def test_st_plan_applies_to_the_fresh_packing():
    # diff/apply round-trip: applying the plan reproduces the placement
    # a from-scratch packing of the same snapshot would give
    vms = make_vms([400.0, 250.0, 600.0, 150.0])
    hosts = [make_host(id=0, cap=1000.0, residents=[0, 1]),
             make_host(id=1, cap=2000.0, residents=[2, 3])]
    vms[2].host_id = 1
    vms[3].host_id = 1
    plan = reallocate(PolicyConfig("ST", upper_threshold=0.9), hosts, vms,
                      SeededRng(1))
    applied = {v: state.host_id for v, state in vms.items()}
    for v, _, dst in plan.moves:
        applied[v] = dst
    snapshots = [HostSnapshot(h.spec.id, h.spec.mips_capacity, h.spec.p_max_watts,
                              h.spec.idle_fraction, h.powered_on, 0.0, h.spec.ram_mb,
                              h.spec.storage_gb) for h in hosts]
    requests = [VmRequest(id=v, demand_mips=s.demand_mips, ram_mb=128.0,
                          storage_gb=1.0) for v, s in vms.items()]
    scratch = mbfd(PlacementRequest(vms=requests, hosts=snapshots,
                                    upper_threshold=0.9))
    assert applied == scratch.assignments


def test_st_repacks_onto_fewest_hosts():
    # three half-empty hosts consolidate under a 100% threshold
    vms = make_vms([300.0, 300.0, 300.0])
    hosts = [make_host(id=0, cap=3000.0, residents=[0]),
             make_host(id=1, cap=3000.0, residents=[1]),
             make_host(id=2, cap=3000.0, residents=[2])]
    vms[1].host_id = 1
    vms[2].host_id = 2
    plan = reallocate(PolicyConfig("ST", upper_threshold=1.0), hosts, vms,
                      SeededRng(1))
    destinations = {dst for _, _, dst in plan.moves}
    assert len(destinations) == 1


def moves_of(assignments, vms):
    return MigrationPlan(moves=[(v, vms[v].host_id, dst) for v, dst in sorted(assignments.items())
                                if dst != vms[v].host_id])


def request(vms, vm_ids):
    return [VmRequest(id=v, demand_mips=vms[v].demand_mips, ram_mb=vms[v].spec.ram_mb,
                      storage_gb=vms[v].spec.storage_gb) for v in vm_ids]


# ST's repack as one call of ``place`` on PlacementRequest views: every active
# VM against the fleet stripped of residents, in its current power states.
def reference_st(config, hosts, vms, place=mbfd):
    snapshots = [HostSnapshot(h.spec.id, h.spec.mips_capacity, h.spec.p_max_watts,
                              h.spec.idle_fraction, h.powered_on, 0.0, h.spec.ram_mb,
                              h.spec.storage_gb) for h in hosts]
    plan = place(PlacementRequest(vms=request(vms, vms), hosts=snapshots,
                                  upper_threshold=config.upper_threshold))
    return moves_of(plan.assignments, vms)


# The two-threshold pass as it was before it kept one load view: every
# decision re-sums the host's residents, and each placement is one call of
# ``place`` on PlacementRequest views.  ``reallocate`` must give the same
# plan, bit for bit.
def reference_two_threshold(config, hosts, vms, rng, place=mbfd):
    # every sum is left to right, in resident order, as on CPython 3.10 and 3.11
    def utilization(h):
        return add_up(vms[v].demand_mips for v in h.resident_vms) / h.spec.mips_capacity

    def snapshot(h, skip):
        resident = [v for v in h.resident_vms if v not in skip]
        return HostSnapshot(
            id=h.spec.id, mips_capacity=h.spec.mips_capacity, p_max_watts=h.spec.p_max_watts,
            idle_fraction=h.spec.idle_fraction, powered_on=h.powered_on,
            cpu_demand_mips=add_up(vms[v].demand_mips for v in resident),
            ram_free_mb=h.spec.ram_mb - add_up(vms[v].spec.ram_mb for v in resident),
            storage_free_gb=h.spec.storage_gb - add_up(vms[v].spec.storage_gb for v in resident))

    def commit(plan):
        for v, hid in plan.assignments.items():
            s = snap_by_id[hid]
            s.powered_on = True
            s.cpu_demand_mips += vms[v].demand_mips
            s.ram_free_mb -= vms[v].spec.ram_mb
            s.storage_free_gb -= vms[v].spec.storage_gb

    upper, lower = config.upper_threshold, config.lower_threshold
    over_selected = []
    for h in sorted(hosts, key=lambda h: h.spec.id):
        if h.powered_on and h.resident_vms and utilization(h) > upper:
            if config.kind == "MM":
                over_selected.extend(select_vms_mm(h, vms, upper))
            elif config.kind == "HPG":
                over_selected.extend(select_vms_hpg(h, vms, upper))
            else:
                over_selected.extend(select_vms_rc(h, vms, upper, rng))
    under = [h.spec.id for h in hosts
             if h.powered_on and h.resident_vms and utilization(h) < lower]
    by_id = {h.spec.id: h for h in hosts}
    moves = {}
    skip = set(over_selected)
    snapshots = [snapshot(h, skip) for h in hosts]
    snap_by_id = {s.id: s for s in snapshots}
    if over_selected:
        plan = place(PlacementRequest(vms=request(vms, over_selected), hosts=snapshots,
                                      upper_threshold=upper, allow_power_on=False))
        commit(plan)
        moves.update(plan.assignments)
    evacuated = set()
    for hid in sorted(under, key=lambda hid: (utilization(by_id[hid]), hid)):
        snap = snap_by_id[hid]
        if snap.cpu_demand_mips / snap.mips_capacity >= lower:
            continue
        plan = place(PlacementRequest(vms=request(vms, by_id[hid].resident_vms),
                                      hosts=snapshots, upper_threshold=upper,
                                      allow_power_on=False,
                                      excluded_hosts=frozenset(evacuated | {hid})))
        if plan.unplaced:
            continue
        commit(plan)
        moves.update(plan.assignments)
        evacuated.add(hid)
    return moves_of(moves, vms)


THRESHOLD_PAIRS = [(0.3, 0.7), (0.4, 0.8), (0.5, 0.9), (0.17, 0.63)]


@st.composite
def two_threshold_fleets(draw, min_hosts=1, max_hosts=8):
    """A mixed fleet with fractional loads, some hosts pinned near a threshold."""
    lower, upper = draw(st.sampled_from(THRESHOLD_PAIRS))
    hosts, vms = [], {}
    for hid in range(draw(st.integers(min_hosts, max_hosts))):
        cap = draw(st.sampled_from([997.3, 1000.0, 2113.7, 3000.0]))
        spec = HostSpec(id=hid, mips_capacity=cap, storage_gb=1024.0,
                        ram_mb=draw(st.sampled_from([4096.0, 6143.5, 8192.0])),
                        p_max_watts=draw(st.floats(90.0, 400.0)),
                        idle_fraction=draw(st.floats(0.3, 0.85)))
        on = hid == 0 or draw(st.integers(0, 3)) > 0
        n = draw(st.integers(0, 5)) if on else 0
        # up to 0.9 of capacity, so a host can drop below the lower threshold
        # once relief's picks leave it
        demands = [draw(st.floats(0.0, 0.9 * spec.mips_capacity)) for _ in range(n)]
        if demands and draw(st.booleans()):
            # land the host's sum on a threshold, or an ulp-scale step off it
            target = draw(st.sampled_from([lower, upper])) * spec.mips_capacity
            target += draw(st.sampled_from([-1e-9, 0.0, 1e-9, -1.0, 1.0]))
            demands[-1] = max(0.0, target - sum(demands[:-1]))
        residents = []
        for d in demands:
            vid = len(vms)
            requested = draw(st.sampled_from([250.0, 500.0, 750.0, 1000.0, 1999.3]))
            vm_spec = VmSpec(id=vid, requested_mips=max(requested, d), ram_mb=draw(
                st.sampled_from([256.0, 512.0, 1024.0, 1536.0])), storage_gb=2.5,
                total_work_mi=150000.0)
            vms[vid] = VmState(spec=vm_spec, host_id=hid, demand_mips=d,
                               remaining_work_mi=1000.0)
            residents.append(vid)
        hosts.append(HostState(spec=spec, powered_on=on, resident_vms=residents))
    return lower, upper, hosts, vms


@settings(max_examples=300, deadline=None)
@given(two_threshold_fleets(), st.sampled_from(["MM", "HPG", "RC"]), st.integers(0, 2**32))
def test_two_threshold_matches_the_resumming_reference(fleet, kind, seed):
    lower, upper, hosts, vms = fleet
    config = PolicyConfig(kind, lower, upper)
    expected = reference_two_threshold(config, hosts, vms, SeededRng(seed))
    assert reallocate(config, hosts, vms, SeededRng(seed)) == expected


def explicit_fleet(lower, upper, hosts):
    """A powered-on fleet from (capacity, peak W, idle fraction, [(demand, RAM MB), ...])."""
    fleet, vms = [], {}
    for hid, (cap, p_max, k, residents) in enumerate(hosts):
        spec = HostSpec(id=hid, mips_capacity=cap, ram_mb=8192.0, storage_gb=1024.0,
                        p_max_watts=p_max, idle_fraction=k)
        for demand, ram in residents:
            vid = len(vms)
            vms[vid] = VmState(spec=VmSpec(id=vid, requested_mips=max(demand, 1000.0), ram_mb=ram,
                                           storage_gb=2.5, total_work_mi=150000.0),
                               host_id=hid, demand_mips=demand, remaining_work_mi=1000.0)
        fleet.append(HostState(spec=spec, resident_vms=list(range(len(vms) - len(residents),
                                                                   len(vms)))))
    return lower, upper, fleet, vms


# Host 0's evacuation places its first VM on host 2, then fails on its
# 7500 MB VM; host 1's VM fits on host 2 only once the first placement is undone.
FAILED_EVACUATION_THEN_A_FIT = explicit_fleet(0.3, 0.9, [
    (1000.0, 250.0, 0.7, [(100.37, 512.0), (50.21, 7500.0)]),
    (1000.0, 250.0, 0.7, [(250.73, 1024.0)]),
    (2000.0, 250.0, 0.6, [(1500.11, 1024.0)])])
# Hosts 2 and 3 are alike, so host 2 wins their tie.  Host 0's failed
# evacuation first lands 74.24 MIPS on host 2; 985.83 + 74.24 - 74.24 is not
# 985.83 in float, and from that load host 1's VM would cost more on host 2.
FAILED_EVACUATION_THEN_A_TIE = explicit_fleet(0.3, 0.7, [
    (1000.0, 250.0, 0.7, [(74.24, 256.0), (50.5, 7000.0)]),
    (1000.0, 250.0, 0.7, [(128.56, 2048.0)]),
    (3000.0, 250.0, 0.7, [(985.83, 2048.0)]),
    (3000.0, 250.0, 0.7, [(985.83, 2048.0)])])
# Host 0 is evacuated onto host 2; host 1's VM would fit only on host 0.
EVACUATED_HOST_THEN_NO_FIT = explicit_fleet(0.3, 0.9, [
    (3000.0, 250.0, 0.7, [(600.45, 512.0)]),
    (1000.0, 250.0, 0.7, [(250.37, 512.0)]),
    (2000.0, 250.0, 0.6, [(1000.29, 512.0)])])


def unchecked(spec, **fields):
    """``replace(spec, **fields)`` without the checks of the spec's constructor."""
    spec = copy.copy(spec)
    for name, value in fields.items():
        object.__setattr__(spec, name, value)
    return spec


@settings(max_examples=200, deadline=None)
@given(two_threshold_fleets(min_hosts=3, max_hosts=12),
       st.sampled_from(["ST", "MM", "HPG", "RC"]), st.integers(0, 2**32),
       st.sampled_from([None] * 6 + ["nan capacity", "nan RAM", "negative demand"]))
@example(FAILED_EVACUATION_THEN_A_FIT, "MM", 0, None)
@example(FAILED_EVACUATION_THEN_A_TIE, "HPG", 0, None)
@example(EVACUATED_HOST_THEN_NO_FIT, "RC", 0, None)
def test_each_pass_places_as_mbfd_and_the_reference_scan_on_its_views(fleet, kind, seed, fault):
    """ST's repack, relief and every evacuation place on records built once per
    pass; each must decide as ``mbfd``, and the linear ``reference_mbfd``, do
    on the PlacementRequest views of the hosts at that point of the pass."""
    lower, upper, hosts, vms = fleet
    if kind == "ST":
        config = PolicyConfig("ST", upper_threshold=upper)
    else:
        config = PolicyConfig(kind, lower, upper)

    def reference(place):
        if kind == "ST":
            return reference_st(config, hosts, vms, place)
        return reference_two_threshold(config, hosts, vms, SeededRng(seed), place)

    if fault is None:
        assert (reallocate(config, hosts, vms, SeededRng(seed))
                == reference(mbfd) == reference(reference_mbfd))
        return
    # a state that ``mbfd`` rejects raises wherever a placement could use it;
    # the specs refuse a NaN themselves, so it is set past their checks
    if fault == "nan capacity":
        hosts[0].spec = unchecked(hosts[0].spec, mips_capacity=math.nan)
    elif vms:
        vm = vms[len(vms) // 2]
        if fault == "nan RAM":
            vm.spec = unchecked(vm.spec, ram_mb=math.nan)
        else:
            vm.demand_mips = -1.0
    try:
        expected = reference(mbfd)
    except ValueError:
        with pytest.raises(ValueError):
            reallocate(config, hosts, vms, SeededRng(seed))
    else:
        assert reallocate(config, hosts, vms, SeededRng(seed)) == expected


@pytest.mark.parametrize("kind", ["MM", "HPG", "RC"])
def test_two_threshold_placements_see_only_powered_on_hosts(kind, monkeypatch):
    """Relief and evacuation never power a host on, so MBFD is offered only on hosts."""
    # host 0 is over 0.7, host 2 under 0.3, and the larger host 4 takes both
    # relief's pick and host 2's evacuee, as it adds the least power per MIPS
    vms = make_vms([500.0, 450.0, 100.0, 1000.0])
    hosts = [make_host(id=0, residents=[0, 1]),
             make_host(id=1, on=False),
             make_host(id=2, residents=[2]),
             make_host(id=3, on=False),
             make_host(id=4, cap=3000.0, residents=[3])]
    for v, hid in ((2, 2), (3, 4)):
        vms[v].host_id = hid
    offered = []
    place = placement.place

    def recording_place(candidates, vms, saved=None):
        # a record's power now is 0.0 when its host is off
        offered.append([(r[1], r[9] > 0.0) for r in candidates])
        return place(candidates, vms, saved)

    monkeypatch.setattr(policies, "place", recording_place)
    plan = reallocate(PolicyConfig(kind, 0.3, 0.7), hosts, vms, SeededRng(3))
    assert [(src, dst) for _, src, dst in plan.moves] == [(0, 4), (2, 4)]
    # relief, then host 2's evacuation, which leaves host 2 out
    assert offered == [[(0, True), (2, True), (4, True)], [(0, True), (4, True)]]
