"""Allocation policies: static baselines and dynamic reallocation heuristics.

NPA and DVFS never adapt at run time.  ST recomputes a full placement of
all active VMs every frame under a single upper utilization threshold.
The two-threshold policies (MM, HPG, RC) migrate a selection of VMs off
hosts above the upper threshold and evacuate hosts below the lower
threshold so they can be switched off.  They share one selection loop,
which takes VMs off an overloaded host one at a time while the exact sum
of the demands left exceeds ``upper * capacity``, and differ only in
which VM it takes next:

    MM  - fewest VMs whose removal gets the host back under the threshold
    HPG - VMs using the smallest share of their requested CPU first
    RC  - uniformly random VMs until the host is under the threshold
"""

import math

from .model import STATIC_KINDS, HostState, MigrationPlan, PolicyConfig
from .placement import HostSnapshot, PlacementRequest, VmRequest, mbfd, stripped


def underloaded_hosts(hosts, view, lower_threshold: float) -> list:
    """Ids of powered-on, non-empty hosts strictly below the lower threshold, emptiest first.

    A host's load is the CPU demand of its snapshot in ``view``, which is
    indexed by host id (``view[h.spec.id]``) and holds at least the
    powered-on hosts.
    """
    loads = sorted((view[h.spec.id].cpu_demand_mips / h.spec.mips_capacity, h.spec.id)
                   for h in hosts if h.powered_on and h.resident_vms)
    return [hid for u, hid in loads if u < lower_threshold]


def _over(demands, limit) -> float:
    """``sum(demands) - limit``, correctly rounded, so its sign is exact in any order."""
    return math.fsum([*demands, -limit])


def _select(host: HostState, vms, upper_threshold: float, pick) -> list:
    """The VMs ``pick`` takes off ``host``, one at a time, until u <= upper.

    Before each pick the excess of the residents not yet taken over
    ``upper * capacity`` is recomputed exactly (``_over``), and the
    selection stops as soon as it is <= 0.  ``pick(working, excess)`` is
    given those residents, in id order, and the excess, and returns the
    one to take next.
    """
    limit = upper_threshold * host.spec.mips_capacity
    working = sorted(host.resident_vms)
    picked = []
    while working:
        excess = _over([vms[v].demand_mips for v in working], limit)
        if excess <= 0:
            break
        v = pick(working, excess)
        working.remove(v)
        picked.append(v)
    return picked


def select_vms_mm(host: HostState, vms, upper_threshold: float) -> list:
    """Minimum-cardinality selection restoring u <= upper.

    Repeatedly take the smallest resident whose demand strictly exceeds
    the remaining excess, or the largest resident if none does.  The
    loop invariant (one VM per step, finishing as soon as a single VM
    can cover the excess) makes the selection minimal in count.  The
    excess is recomputed exactly from the residents left at each step.
    """
    def pick(working, excess):
        over = [v for v in working if vms[v].demand_mips > excess]
        if over:
            return min(over, key=lambda v: (vms[v].demand_mips, v))
        return max(working, key=lambda v: (vms[v].demand_mips, -v))
    return _select(host, vms, upper_threshold, pick)


def select_vms_hpg(host: HostState, vms, upper_threshold: float) -> list:
    """Select VMs with the lowest demand/requested ratio until u <= upper."""
    return _select(host, vms, upper_threshold, lambda working, excess: min(
        working, key=lambda v: (vms[v].demand_mips / vms[v].spec.requested_mips, v)))


def select_vms_rc(host: HostState, vms, upper_threshold: float, rng) -> list:
    """Select uniformly random VMs without replacement until u <= upper."""
    return _select(host, vms, upper_threshold,
                   lambda working, excess: working[rng.randbelow(len(working))])


def _snapshot(host: HostState, resident, vms) -> HostSnapshot:
    # three sums in one pass, each left to right in resident order, as
    # ``model.add_up`` would give them
    cpu = ram = storage = 0.0
    for v in resident:
        vm = vms[v]
        cpu += vm.demand_mips
        ram += vm.spec.ram_mb
        storage += vm.spec.storage_gb
    spec = host.spec
    return HostSnapshot(spec.id, spec.mips_capacity, spec.p_max_watts, spec.idle_fraction,
                        host.powered_on, cpu, spec.ram_mb - ram, spec.storage_gb - storage)


def _request(vm_states) -> list:
    """One VmRequest per (vm id, VmState) pair, in order."""
    return [VmRequest(v, vm.demand_mips, vm.spec.ram_mb, vm.spec.storage_gb)
            for v, vm in vm_states]


def _plan(assignments, vms) -> MigrationPlan:
    """A move for each VM that ``assignments`` sends off its own host, in VM id order."""
    return MigrationPlan(moves=[(v, vms[v].host_id, dst) for v, dst in sorted(assignments.items())
                                if dst != vms[v].host_id])


def reallocate(config: PolicyConfig, hosts, vms, rng) -> MigrationPlan:
    """Compute this frame's migrations for the configured policy.

    ``hosts`` is the current fleet state, with ``hosts[i]`` of id ``i``
    (as in a ``Scenario``); ``vms`` maps vm id -> VmState for every
    active VM.  The returned plan never moves a VM to the host
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
    plan = mbfd(PlacementRequest(vms=_request(vms.items()), hosts=stripped(hosts),
                                 upper_threshold=config.upper_threshold))
    return _plan(plan.assignments, vms)


def _commit(view, plan, vms, moves):
    moves.update(plan.assignments)
    # every host in the view is on, so a placement changes no power state
    for v, hid in plan.assignments.items():
        s = view[hid]
        s.cpu_demand_mips += vms[v].demand_mips
        s.ram_free_mb -= vms[v].spec.ram_mb
        s.storage_free_gb -= vms[v].spec.storage_gb


def _reallocate_two_threshold(config, hosts, vms, rng):
    # The pass's load view, host id -> snapshot in fleet order, of the
    # powered-on hosts only: each host's residents summed once, in resident
    # order.  An off host carries no load, so it is never over or under a
    # threshold, and no placement below may power it on.  Every decision
    # below reads the view, and each committed placement updates it in place.
    view = {h.spec.id: _snapshot(h, h.resident_vms, vms) for h in hosts if h.powered_on}
    under = underloaded_hosts(hosts, view, config.lower_threshold)
    select = {"MM": select_vms_mm, "HPG": select_vms_hpg,
              "RC": lambda h, vms, upper: select_vms_rc(h, vms, upper, rng)}[config.kind]
    over_selected = []
    # an empty host carries no load, so it is never over the threshold
    for hid, s in view.items():
        if s.cpu_demand_mips / s.mips_capacity > config.upper_threshold:
            h = hosts[hid]
            picked = select(h, vms, config.upper_threshold)
            # the host as relief sees it: its picks are leaving
            view[hid] = _snapshot(h, [v for v in h.resident_vms if v not in picked], vms)
            over_selected += picked
    moves = {}

    def place(vm_ids, excluded=frozenset()):
        return mbfd(PlacementRequest(vms=_request((v, vms[v]) for v in vm_ids),
                                     hosts=list(view.values()),
                                     upper_threshold=config.upper_threshold,
                                     allow_power_on=False, excluded_hosts=excluded))

    # Over-threshold relief first: one MBFD pass over all selected VMs.
    # Relief never powers hosts on: activating a host costs its full
    # idle draw, which dwarfs the marginal gain of relieving a breach,
    # and a freshly activated near-empty host would immediately fall
    # below the lower threshold and bounce back.  Underloaded hosts stay
    # eligible as targets; spill landing on one lifts it toward the
    # lower threshold and cancels its evacuation.
    if over_selected:
        _commit(view, place(over_selected), vms, moves)

    # Evacuate underloaded hosts one at a time, emptiest first, so two
    # underloaded hosts can merge (the fuller one absorbs the emptier)
    # instead of blocking each other as destinations.  An evacuation is
    # all-or-nothing: a partial one would leave the host on and idle.
    # The host being evacuated is excluded from its own placement and
    # from every later one, so its snapshot keeps its load throughout.
    evacuated = set()
    for hid in under:
        snap = view[hid]
        # an earlier placement may have landed here; if the host is no
        # longer underloaded it stays on and keeps its VMs
        if snap.cpu_demand_mips / snap.mips_capacity >= config.lower_threshold:
            continue
        # never power a host on to absorb an evacuation: swapping the
        # load onto a fresh host saves nothing and churns migrations
        plan = place(hosts[hid].resident_vms, frozenset(evacuated | {hid}))
        if plan.unplaced:
            continue
        _commit(view, plan, vms, moves)
        evacuated.add(hid)

    return _plan(moves, vms)
