"""Power-aware best-fit-decreasing placement.

VMs are sorted by decreasing CPU demand and each is committed to the
feasible host whose power draw grows the least.  Activating an off host
costs its full idle power, so consolidation onto already-running,
power-efficient hosts falls out of the cost function.
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .model import PlacementPlan, check_power_curve
from .power import power


@dataclass(slots=True)
class VmRequest:
    id: int
    demand_mips: float
    ram_mb: float
    storage_gb: float


@dataclass(slots=True)
class HostSnapshot:
    id: int
    mips_capacity: float
    p_max_watts: float
    idle_fraction: float
    powered_on: bool
    cpu_demand_mips: float
    ram_free_mb: float
    storage_free_gb: float


# A snapshot's whole state but its id: hosts equal in it get equal records
# in ``mbfd``.
_state = attrgetter("mips_capacity", "p_max_watts", "idle_fraction", "powered_on",
                    "cpu_demand_mips", "ram_free_mb", "storage_free_gb")


def stripped(hosts) -> list:
    """Snapshots of ``hosts`` with every resident removed, in order.

    Each keeps its host's power state, and has no CPU demand and all of its
    RAM and storage free.
    """
    return [HostSnapshot(s.id, s.mips_capacity, s.p_max_watts, s.idle_fraction,
                         h.powered_on, 0.0, s.ram_mb, s.storage_gb)
            for h in hosts for s in (h.spec,)]


@dataclass
class PlacementRequest:
    vms: list
    hosts: list
    upper_threshold: float = 1.0
    allow_power_on: bool = True
    # hosts that may not receive any VM (e.g. sources being evacuated)
    excluded_hosts: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not 0.0 < self.upper_threshold <= 1.0:
            raise ValueError("upper_threshold must be in (0, 1]")


def power_increase(host: HostSnapshot, vm_demand_mips: float) -> float:
    """Growth in power draw if a VM demanding ``vm_demand_mips`` lands on ``host``.

    For an off host this includes the full idle component, which
    penalizes activation.  Raises ValueError for a negative demand, an
    invalid power curve, or a host with a negative or NaN utilization or a
    NaN free RAM or storage.
    """
    if vm_demand_mips < 0:
        raise ValueError("vm_demand_mips must be non-negative")
    check_power_curve(host.p_max_watts, host.idle_fraction)
    # checked as mbfd checks a host's state
    u_before = host.cpu_demand_mips / host.mips_capacity
    if not u_before >= 0.0:
        raise ValueError("utilization must be in [0, 1]")
    if host.ram_free_mb != host.ram_free_mb or host.storage_free_gb != host.storage_free_gb:
        raise ValueError("free RAM and storage must not be NaN")
    u_after = min(1.0, (host.cpu_demand_mips + vm_demand_mips) / host.mips_capacity)
    if not host.powered_on:
        return power(host, u_after)
    return power(host, u_after) - power(host, min(1.0, u_before))


def mbfd(req: PlacementRequest) -> PlacementPlan:
    """Place the requested VMs, minimizing each step's power increase.

    Placements commit sequentially: every decision updates the host
    state seen by the VMs placed after it.  Ties on power increase
    break by ascending host id; VMs with equal demand process in
    ascending id order.  The caller's snapshots are not mutated.

    The increase is computed as ``P(after) - P(before)`` with the same
    float operations as ``power_increase``.  The usable hosts are grouped
    by their whole snapshot state (every field but the id) before anything
    is derived from it.  Each group's state is checked and derived once,
    into a record for its lowest-id host; the others wait in id order,
    since an equal state gives an equal increase and the lower id wins the
    tie.  When a group's scanned host takes a VM, the next one waiting
    gets a record copied from the group's derived state.  So a call builds
    one record per distinct state and one per host that receives a VM.
    Raises ValueError for a negative VM demand or for a usable host with
    an invalid power curve, a negative or NaN utilization, or a NaN free
    RAM or storage.
    """
    upper, excluded, allow_power_on = req.upper_threshold, req.excluded_hosts, req.allow_power_on
    # Per-host records:
    # [position in id order, id, capacity, cpu limit, idle W, dynamic W at
    #  full load, cpu demand, free RAM, free storage, power now (0.0 when
    #  off), the group's (derived state, queue of (position, id) of its hosts
    #  still waiting) or None when none waits]
    # ``candidates`` stays sorted by position, so its strict-< scan picks
    # what a scan over every host would.
    candidates = []
    heads = {}  # snapshot state -> the record of its group's lowest-id host
    for pos, h in enumerate(sorted(req.hosts, key=attrgetter("id"))):
        if h.id in excluded or not (h.powered_on or allow_power_on):
            continue
        state = _state(h)
        head = heads.get(state)
        if head is not None:
            if head[10] is None:
                head[10] = (tuple(head[2:10]), deque())
            head[10][1].append((pos, h.id))
            continue
        cap, p_max, k, on, cpu, ram, storage = state
        check_power_curve(p_max, k)
        # read before clamping, since min(1.0, nan) is 1.0; a NaN free RAM
        # or storage would never be exceeded
        u = cpu / cap
        if not u >= 0.0:
            raise ValueError("utilization must be in [0, 1]")
        if ram != ram or storage != storage:
            raise ValueError("free RAM and storage must not be NaN")
        if u > 1.0:
            u = 1.0
        idle_w, dyn_w = k * p_max, (1.0 - k) * p_max
        # x - 0.0 == x, so an off host's increase is its whole draw after
        heads[state] = record = [pos, h.id, cap, upper * cap, idle_w, dyn_w, cpu, ram, storage,
                                 idle_w + dyn_w * u if on else 0.0, None]
        candidates.append(record)

    assignments = {}
    unplaced = set()
    for vm in sorted(req.vms, key=lambda vm: (-vm.demand_mips, vm.id)):
        d, ram, storage = vm.demand_mips, vm.ram_mb, vm.storage_gb
        if d < 0:
            raise ValueError("vm_demand_mips must be non-negative")
        best = None
        for r in candidates:
            load = r[6] + d
            if load <= r[3] and not (ram > r[7] or storage > r[8]):
                u = load / r[2]
                p = r[4] + r[5] * (u if u < 1.0 else 1.0)  # min(1.0, u)
                delta = p - r[9]
                if best is None or delta < best_delta:
                    best, best_delta, best_load, best_p = r, delta, load, p
        if best is None:
            unplaced.add(vm.id)
            continue
        assignments[vm.id] = best[1]
        best[6] = best_load
        best[7] -= ram
        best[8] -= storage
        best[9] = best_p
        group = best[10]
        if group is not None:
            # the group's next host takes over as its scanned one
            derived, waiting = group
            insort(candidates, [*waiting.popleft(), *derived, group if waiting else None])
            best[10] = None
    return PlacementPlan(assignments=assignments, unplaced=unplaced)
