"""Allocation policies: static baselines and dynamic reallocation heuristics.

NPA and DVFS never adapt at run time.  ST recomputes a full placement of
all active VMs every frame under a single upper utilization threshold.
The two-threshold policies (MM, HPG, RC) migrate a selection of VMs off
hosts above the upper threshold and evacuate hosts below the lower
threshold so they can be switched off; they differ only in how VMs are
picked from an overloaded host:

    MM  - fewest VMs whose removal gets the host back under the threshold
    HPG - VMs using the smallest share of their requested CPU first
    RC  - uniformly random VMs until the host is under the threshold
"""

from .model import STATIC_KINDS, HostState, MigrationPlan, PolicyConfig
from .placement import HostSnapshot, PlacementRequest, VmRequest, mbfd


def host_utilization(host: HostState, vms) -> float:
    total = sum(vms[vm_id].demand_mips for vm_id in host.resident_vms)
    return total / host.spec.mips_capacity


def underloaded_hosts(hosts, vms, lower_threshold: float) -> list:
    """Powered-on, non-empty hosts strictly below the lower threshold."""
    return [h.spec.id for h in hosts
            if h.powered_on and h.resident_vms
            and host_utilization(h, vms) < lower_threshold]


def select_vms_mm(host: HostState, vms, upper_threshold: float) -> list:
    """Minimum-cardinality selection restoring u <= upper.

    Repeatedly take the smallest resident whose demand strictly exceeds
    the remaining excess, or the largest resident if none does.  The
    loop invariant (one VM per step, finishing as soon as a single VM
    can cover the excess) makes the selection minimal in count.
    """
    cap = host.spec.mips_capacity
    working = sorted(((vms[v].demand_mips, v) for v in host.resident_vms),
                     key=lambda t: (t[0], t[1]))
    excess = sum(d for d, _ in working) - upper_threshold * cap
    picked = []
    while excess > 0 and working:
        over = [t for t in working if t[0] > excess]
        if over:
            choice = min(over, key=lambda t: (t[0], t[1]))
        else:
            choice = max(working, key=lambda t: (t[0], -t[1]))
        working.remove(choice)
        excess -= choice[0]
        picked.append(choice[1])
    return picked


def select_vms_hpg(host: HostState, vms, upper_threshold: float) -> list:
    """Select VMs with the lowest demand/requested ratio until u <= upper."""
    cap = host.spec.mips_capacity
    order = sorted(host.resident_vms,
                   key=lambda v: (vms[v].demand_mips / vms[v].spec.requested_mips, v))
    excess = sum(vms[v].demand_mips for v in host.resident_vms) - upper_threshold * cap
    picked = []
    for v in order:
        if excess <= 0:
            break
        picked.append(v)
        excess -= vms[v].demand_mips
    return picked


def select_vms_rc(host: HostState, vms, upper_threshold: float, rng) -> list:
    """Select uniformly random VMs without replacement until u <= upper."""
    cap = host.spec.mips_capacity
    working = sorted(host.resident_vms)
    excess = sum(vms[v].demand_mips for v in working) - upper_threshold * cap
    picked = []
    while excess > 0 and working:
        v = working.pop(rng.randbelow(len(working)))
        excess -= vms[v].demand_mips
        picked.append(v)
    return picked


def _snapshot(host: HostState, vms, skip) -> HostSnapshot:
    resident = [v for v in host.resident_vms if v not in skip]
    return HostSnapshot.from_state(
        host,
        cpu_demand_mips=sum(vms[v].demand_mips for v in resident),
        ram_used_mb=sum(vms[v].spec.ram_mb for v in resident),
        storage_used_gb=sum(vms[v].spec.storage_gb for v in resident))


def _request(vm_ids, vms) -> list:
    return [VmRequest(id=v, demand_mips=vms[v].demand_mips,
                      ram_mb=vms[v].spec.ram_mb, storage_gb=vms[v].spec.storage_gb)
            for v in vm_ids]


def reallocate(config: PolicyConfig, hosts, vms, rng) -> MigrationPlan:
    """Compute this frame's migrations for the configured policy.

    ``hosts`` is the current fleet state, ``vms`` maps vm id -> VmState
    for every active VM.  The returned plan never moves a VM to the host
    it already occupies.
    """
    if config.kind in STATIC_KINDS:
        return MigrationPlan(moves=[])
    if config.kind == "ST":
        return _reallocate_st(config, hosts, vms)
    return _reallocate_two_threshold(config, hosts, vms, rng)


def _reallocate_st(config, hosts, vms):
    # Full per-frame repacking: place every active VM against the fleet
    # stripped of residents, keeping current power states so activation
    # of off hosts stays penalized.
    snapshots = [HostSnapshot.from_state(h, 0.0, 0.0, 0.0) for h in hosts]
    plan = mbfd(PlacementRequest(vms=_request(vms.keys(), vms), hosts=snapshots,
                                 upper_threshold=config.upper_threshold))
    moves = [(v, vms[v].host_id, dst) for v, dst in plan.assignments.items()
             if dst != vms[v].host_id]
    moves.sort()
    return MigrationPlan(moves=moves)


def _commit(snap_by_id, plan, vms):
    for v, hid in plan.assignments.items():
        s = snap_by_id[hid]
        s.powered_on = True
        s.cpu_demand_mips += vms[v].demand_mips
        s.ram_free_mb -= vms[v].spec.ram_mb
        s.storage_free_gb -= vms[v].spec.storage_gb


def _reallocate_two_threshold(config, hosts, vms, rng):
    selector = {"MM": select_vms_mm, "HPG": select_vms_hpg}.get(config.kind)
    over_selected = []
    for h in sorted(hosts, key=lambda h: h.spec.id):
        if not h.powered_on or not h.resident_vms:
            continue
        if host_utilization(h, vms) > config.upper_threshold:
            if selector is not None:
                over_selected.extend(selector(h, vms, config.upper_threshold))
            else:
                over_selected.extend(select_vms_rc(h, vms, config.upper_threshold, rng))
    under = underloaded_hosts(hosts, vms, config.lower_threshold)
    by_id = {h.spec.id: h for h in hosts}
    moves = {}

    # Over-threshold relief first: one MBFD pass over all selected VMs.
    # Relief never powers hosts on: activating a host costs its full
    # idle draw, which dwarfs the marginal gain of relieving a breach,
    # and a freshly activated near-empty host would immediately fall
    # below the lower threshold and bounce back.  Underloaded hosts stay
    # eligible as targets; spill landing on one lifts it toward the
    # lower threshold and cancels its evacuation.
    skip = set(over_selected)
    snapshots = [_snapshot(h, vms, skip) for h in hosts]
    snap_by_id = {s.id: s for s in snapshots}
    if over_selected:
        plan = mbfd(PlacementRequest(vms=_request(over_selected, vms),
                                     hosts=snapshots,
                                     upper_threshold=config.upper_threshold,
                                     allow_power_on=False))
        _commit(snap_by_id, plan, vms)
        moves.update(plan.assignments)

    # Evacuate underloaded hosts one at a time, emptiest first, so two
    # underloaded hosts can merge (the fuller one absorbs the emptier)
    # instead of blocking each other as destinations.  An evacuation is
    # all-or-nothing: a partial one would leave the host on and idle.
    # The host being evacuated is excluded from its own placement and
    # from every later one, so its snapshot keeps its load throughout.
    order = sorted(under, key=lambda hid: (host_utilization(by_id[hid], vms), hid))
    evacuated = set()
    for hid in order:
        snap = snap_by_id[hid]
        # an earlier evacuation may have landed here; if the host is no
        # longer underloaded it stays on and keeps its VMs
        if snap.cpu_demand_mips / snap.mips_capacity >= config.lower_threshold:
            continue
        # never power a host on to absorb an evacuation: swapping the
        # load onto a fresh host saves nothing and churns migrations
        plan = mbfd(PlacementRequest(vms=_request(by_id[hid].resident_vms, vms),
                                     hosts=snapshots,
                                     upper_threshold=config.upper_threshold,
                                     allow_power_on=False,
                                     excluded_hosts=frozenset(evacuated | {hid})))
        if plan.unplaced:
            continue
        _commit(snap_by_id, plan, vms)
        moves.update(plan.assignments)
        evacuated.add(hid)

    plan_moves = [(v, vms[v].host_id, dst) for v, dst in sorted(moves.items())
                  if dst != vms[v].host_id]
    return MigrationPlan(moves=plan_moves)
