"""Power-aware best-fit-decreasing placement.

VMs are sorted by decreasing CPU demand and each is committed to the
feasible host whose power draw grows the least.  Activating an off host
costs its full idle power, so consolidation onto already-running,
power-efficient hosts falls out of the cost function.
"""

from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter

from .model import HostState, PlacementPlan, check_power_curve
from .power import power


@dataclass
class VmRequest:
    id: int
    demand_mips: float
    ram_mb: float
    storage_gb: float


@dataclass
class HostSnapshot:
    id: int
    mips_capacity: float
    p_max_watts: float
    idle_fraction: float
    powered_on: bool
    cpu_demand_mips: float
    ram_free_mb: float
    storage_free_gb: float

    @classmethod
    def from_state(cls, host: HostState, cpu_demand_mips, ram_used_mb, storage_used_gb):
        return cls(id=host.spec.id,
                   mips_capacity=host.spec.mips_capacity,
                   p_max_watts=host.spec.p_max_watts,
                   idle_fraction=host.spec.idle_fraction,
                   powered_on=host.powered_on,
                   cpu_demand_mips=cpu_demand_mips,
                   ram_free_mb=host.spec.ram_mb - ram_used_mb,
                   storage_free_gb=host.spec.storage_gb - storage_used_gb)


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
    penalizes activation.
    """
    if vm_demand_mips < 0:
        raise ValueError("vm_demand_mips must be non-negative")
    check_power_curve(host.p_max_watts, host.idle_fraction)
    u_after = min(1.0, (host.cpu_demand_mips + vm_demand_mips) / host.mips_capacity)
    if not host.powered_on:
        return power(host, u_after)
    u_before = min(1.0, host.cpu_demand_mips / host.mips_capacity)
    return power(host, u_after) - power(host, u_before)


def mbfd(req: PlacementRequest) -> PlacementPlan:
    """Place the requested VMs, minimizing each step's power increase.

    Placements commit sequentially: every decision updates the host
    state seen by the VMs placed after it.  Ties on power increase
    break by ascending host id; VMs with equal demand process in
    ascending id order.  The caller's snapshots are not mutated.

    The increase is computed as ``P(after) - P(before)`` with the same
    float operations as ``power_increase``.  Hosts that have not yet
    received a VM and share every field but their id form a group; only
    the group's lowest-id host is scanned, since an equal state gives an
    equal increase and the lower id wins the tie.  Raises ValueError for
    a negative VM demand or for a usable host with an invalid power
    curve or a utilization outside [0, 1].
    """
    upper, excluded, allow_power_on = req.upper_threshold, req.excluded_hosts, req.allow_power_on
    # Per-host records, in id order:
    # [position, id, capacity, cpu limit, idle W, dynamic W at full load,
    #  cpu demand, free RAM, free storage, power now (0.0 when off),
    #  next untouched host with an identical record or None]
    # ``candidates`` stays sorted by position, so its strict-< scan picks
    # what a scan over every host would.
    candidates = []
    tails = {}
    for pos, h in enumerate(sorted(req.hosts, key=attrgetter("id"))):
        if h.id in excluded or not (h.powered_on or allow_power_on):
            continue
        cap, p_max, k, cpu = h.mips_capacity, h.p_max_watts, h.idle_fraction, h.cpu_demand_mips
        check_power_curve(p_max, k)
        u = min(1.0, cpu / cap)
        if not 0.0 <= u <= 1.0:
            raise ValueError("utilization must be in [0, 1]")
        idle_w, dyn_w = k * p_max, (1.0 - k) * p_max
        # x - 0.0 == x, so an off host's increase is its whole draw after
        key = (cap, upper * cap, idle_w, dyn_w, cpu, h.ram_free_mb, h.storage_free_gb,
               idle_w + dyn_w * u if h.powered_on else 0.0)
        record = [pos, h.id, *key, None]
        tail = tails.get(key)
        if tail is None:
            candidates.append(record)
        else:
            tail[10] = record
        tails[key] = record

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
        if best[10] is not None:
            # the group's next host takes over as its scanned head
            insort(candidates, best[10])
            best[10] = None
    return PlacementPlan(assignments=assignments, unplaced=unplaced)
