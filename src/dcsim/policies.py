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

A pass builds each host's state, as ``placement.Candidates`` takes it, and
places, reads utilizations and evacuates through one ``Candidates``; the
placement records are ``placement``'s own.
"""

import math

from .model import STATIC_KINDS, HostSpec, HostState, MigrationPlan, PolicyConfig
from .placement import Candidates
# no longer called here; kept bound for the benchmark's tracer until ROADMAP item 13
from .placement import mbfd  # noqa: F401


def underloaded_hosts(hosts, loads, lower_threshold: float) -> list:
    """Ids of powered-on, non-empty hosts strictly below the lower threshold, emptiest first.

    A host's load is ``loads[h.spec.id]``, its CPU demand in MIPS;
    ``loads`` holds at least the powered-on hosts.
    """
    utilizations = sorted((loads[h.spec.id] / h.spec.mips_capacity, h.spec.id)
                          for h in hosts if h.powered_on and h.resident_vms)
    return [hid for u, hid in utilizations if u < lower_threshold]


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


def _state(s: HostSpec, resident, vms) -> tuple:
    """A powered-on host's state, as ``Candidates`` takes it: spec ``s``, holding ``resident``."""
    # three sums in one pass, each left to right in resident order, as
    # ``model.add_up`` would give them
    cpu = ram = storage = 0.0
    for v in resident:
        vm = vms[v]
        cpu += vm.demand_mips
        ram += vm.spec.ram_mb
        storage += vm.spec.storage_gb
    return (s.mips_capacity, s.p_max_watts, s.idle_fraction, True, cpu, s.ram_mb - ram,
            s.storage_gb - storage)


def _requests(vm_ids, vms) -> list:
    """(id, demand, RAM, storage) of each VM in ``vm_ids``, as ``Candidates.place`` takes them."""
    return [(v, vms[v].demand_mips, vms[v].spec.ram_mb, vms[v].spec.storage_gb) for v in vm_ids]


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

    A pass builds its ``placement.Candidates`` straight from ``hosts`` and
    ``vms``, once, and every placement of the pass runs on them.  Each
    decides as ``mbfd`` would on a ``PlacementRequest`` of the hosts at
    that point of the pass, and raises the ValueError it would raise.
    """
    if config.kind in STATIC_KINDS:
        return MigrationPlan(moves=[])
    if config.kind == "ST":
        return _reallocate_st(config, hosts, vms)
    return _reallocate_two_threshold(config, hosts, vms, rng)


def _reallocate_st(config, hosts, vms):
    """Full per-frame repacking: every active VM placed anew on the fleet.

    The fleet is stripped of its residents, keeping current power states so
    that activating an off host stays penalized.  Hosts alike in spec and
    power state share one record (``Candidates``' groups).
    """
    states = ((s.id, (s.mips_capacity, s.p_max_watts, s.idle_fraction, h.powered_on,
                      0.0, s.ram_mb, s.storage_gb)) for h in hosts for s in (h.spec,))
    return _plan(Candidates(states, config.upper_threshold).place(_requests(vms, vms))[0], vms)


def _reallocate_two_threshold(config, hosts, vms, rng):
    """Relief of the hosts over the upper threshold, then evacuation of those under the lower.

    The pass sums each powered-on host's residents once, in resident order,
    into its state, and builds one candidate per powered-on host, by host id
    in fleet order.  An off host carries no load, so it is never over or
    under a threshold, and no placement may power it on.  Relief and each
    evacuation place into the candidates, which commit each placement.
    """
    upper = config.upper_threshold
    states = {h.spec.id: _state(h.spec, h.resident_vms, vms) for h in hosts if h.powered_on}
    under = underloaded_hosts(hosts, {hid: state[4] for hid, state in states.items()},
                              config.lower_threshold)
    select = {"MM": select_vms_mm, "HPG": select_vms_hpg,
              "RC": lambda h, vms, upper: select_vms_rc(h, vms, upper, rng)}[config.kind]
    over_selected = []
    # an empty host carries no load, so it is never over the threshold
    for hid, (cap, *_, cpu, _, _) in states.items():
        if cpu / cap > upper:
            h = hosts[hid]
            picked = select(h, vms, upper)
            # the host as relief sees it: its picks are leaving
            states[hid] = _state(h.spec, [v for v in h.resident_vms if v not in picked], vms)
            over_selected += picked
    candidates = Candidates(states.items(), upper, group=False)
    moves = {}

    # Over-threshold relief first: one MBFD pass over all selected VMs.
    # Relief never powers hosts on: activating a host costs its full
    # idle draw, which dwarfs the marginal gain of relieving a breach,
    # and a freshly activated near-empty host would immediately fall
    # below the lower threshold and bounce back.  Underloaded hosts stay
    # eligible as targets; spill landing on one lifts it toward the
    # lower threshold and cancels its evacuation.
    if over_selected:
        moves.update(candidates.place(_requests(over_selected, vms))[0])

    # Evacuate underloaded hosts one at a time, emptiest first, so two
    # underloaded hosts can merge (the fuller one absorbs the emptier)
    # instead of blocking each other as destinations.  An evacuation is
    # all-or-nothing: a partial one would leave the host on and idle.  An
    # evacuated host takes no VM of any later placement, and never powering
    # a host on to absorb an evacuation keeps the load off fresh hosts,
    # which would save nothing and churn migrations.
    for hid in under:
        # an earlier placement may have landed here; if the host is no
        # longer underloaded it stays on and keeps its VMs
        if candidates.utilization(hid) < config.lower_threshold:
            moves.update(candidates.evacuate(hid, _requests(hosts[hid].resident_vms, vms)))

    return _plan(moves, vms)
