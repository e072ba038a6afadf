"""Power-aware best-fit-decreasing placement.

VMs are sorted by decreasing CPU demand and each is committed to the
feasible host whose power draw grows the least.  Activating an off host
costs its full idle power, so consolidation onto already-running,
power-efficient hosts falls out of the cost function.

A placement runs on ``Candidates``: the hosts it may use, as per-host
records that only this module reads.  ``Candidates.place`` runs the scan
over them and commits each placement into them.  ``mbfd`` builds them
from a ``PlacementRequest`` of snapshots; the policy passes build them
from host states, once per pass, and place, read utilizations and
evacuate hosts through them.
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .model import PlacementPlan, check_power_curve, power


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
# a VmRequest as ``Candidates.place`` takes it
_id, _request = attrgetter("id"), attrgetter("id", "demand_mips", "ram_mb", "storage_gb")


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


class Candidates:
    """The hosts a placement may use, as MBFD records scanned in id order.

    Built from (host id, state) pairs in ascending id order, each state
    being the fields ``_state`` reads, under a CPU limit of ``upper`` of
    each host's capacity, ``upper`` in (0, 1].  With ``group``, hosts equal
    in state form a group, whose power curve is checked and whose record
    is derived once, for its lowest-id host; the others wait in id order,
    since an equal state gives an equal increase and the lower id wins the
    tie.  When a group's scanned host takes a VM in ``place``, the next
    one waiting gets a record copied from the group's derived state.
    Without ``group``, each host gets its own record, which ``utilization``
    and ``evacuate`` find by id; they serve only such a build.  Raises
    ValueError for an invalid power curve of a group.

    A record is [id, capacity, cpu limit, idle W, dynamic W at full load,
    cpu demand, free RAM, free storage, power now (0.0 when off), group],
    the group being (derived state, queue of ids of the hosts still
    waiting) or None when none waits.  No other module reads one.
    """

    def __init__(self, hosts, upper: float, group: bool = True):
        self.records = []
        self._by_id = {}
        heads = {}  # state -> the record of its group's lowest-id host
        for hid, state in hosts:
            if group and (head := heads.get(state)) is not None:
                if head[9] is None:
                    head[9] = (tuple(head[1:9]), deque())
                head[9][1].append(hid)
                continue
            cap, p_max, k, on, cpu, ram, storage = state
            idle_w, dyn_w = k * p_max, (1.0 - k) * p_max
            # x - 0.0 == x, so an off host's increase is its whole draw after
            self._by_id[hid] = record = [hid, cap, upper * cap, idle_w, dyn_w, cpu, ram, storage,
                                         idle_w + dyn_w * min(1.0, cpu / cap) if on else 0.0, None]
            self.records.append(record)
            if group:
                check_power_curve(p_max, k)
                heads[state] = record

    def utilization(self, hid: int) -> float:
        """Host ``hid``'s CPU demand over its capacity, unclamped."""
        r = self._by_id[hid]
        return r[5] / r[1]

    def place(self, vms):
        """Place ``vms`` on the candidates, each where power grows the least.

        ``vms`` gives (id, demand, RAM, storage) in any order; they are
        placed by decreasing demand, equal demands in ascending id order.
        The records are scanned in id order, so the strict-< test picks the
        lowest id among equal increases.  Each placement is committed into
        its record, so the VMs placed after it see it.  Returns
        (assignments, unplaced).  Raises ValueError, before placing
        anything, for a record with a negative or NaN utilization or a NaN
        free RAM or storage, and for a negative VM demand.
        """
        candidates = self.records
        for r in candidates:
            # read unclamped, since min(1.0, nan) is 1.0; a NaN free RAM or
            # storage would never be exceeded
            if not r[5] / r[1] >= 0.0 or r[6] != r[6] or r[7] != r[7]:
                raise ValueError("utilization must be in [0, 1], free RAM and storage not NaN")
        assignments = {}
        unplaced = set()
        for vid, d, ram, storage in sorted(vms, key=lambda vm: (-vm[1], vm[0])):
            if d < 0:
                raise ValueError("vm_demand_mips must be non-negative")
            best = None
            for r in candidates:
                load = r[5] + d
                if load <= r[2] and not (ram > r[6] or storage > r[7]):
                    # load <= upper * cap <= cap in floats for upper in (0, 1],
                    # so load / cap <= 1.0 and min(1.0, load / cap) never clamps
                    p = r[3] + r[4] * (load / r[1])
                    delta = p - r[8]
                    if best is None or delta < best_delta:
                        best, best_delta, best_load, best_p = r, delta, load, p
            if best is None:
                unplaced.add(vid)
                continue
            assignments[vid] = best[0]
            best[5] = best_load
            best[6] -= ram
            best[7] -= storage
            best[8] = best_p
            group, best[9] = best[9], None
            if group is not None:
                # the group's next host takes over as its scanned one
                derived, waiting = group
                insort(candidates, [waiting.popleft(), *derived, group if waiting else None])
        return assignments, unplaced

    def evacuate(self, hid: int, vms):
        """Place ``vms`` off host ``hid`` on the other candidates, all of them or none.

        The host leaves the candidates.  When every VM is placed, it stays
        out and the assignments are returned.  Otherwise every other
        record gets back the load, free RAM, free storage and power it had
        before, the host returns, and an empty dict is returned.
        """
        host = self._by_id[hid]
        self.records.remove(host)
        saved = [(r, r[5:9]) for r in self.records]
        assignments, unplaced = self.place(vms)
        if unplaced:
            for r, fields in saved:
                r[5:9] = fields
            insort(self.records, host)
        return {} if unplaced else assignments


def mbfd(req: PlacementRequest) -> PlacementPlan:
    """Place the requested VMs, minimizing each step's power increase.

    Placements commit sequentially: every decision updates the host
    state seen by the VMs placed after it.  Ties on power increase
    break by ascending host id; VMs with equal demand process in
    ascending id order.  The caller's snapshots are not mutated.

    The increase is computed as ``P(after) - P(before)`` with the same
    float operations as ``power_increase``.  The usable hosts become
    ``Candidates``, grouped by their whole snapshot state (every field but
    the id), which place the VMs.  So a call builds one record per
    distinct state and one per host that receives a VM.  Raises ValueError
    for a negative VM demand or for a usable host with an invalid power
    curve, a negative or NaN utilization, or a NaN free RAM or storage.
    """
    usable = ((h.id, _state(h)) for h in sorted(req.hosts, key=_id)
              if h.id not in req.excluded_hosts and (h.powered_on or req.allow_power_on))
    assignments, unplaced = Candidates(usable, req.upper_threshold).place(map(_request, req.vms))
    return PlacementPlan(assignments=assignments, unplaced=unplaced)
