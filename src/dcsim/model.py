"""Domain types shared by the simulator modules, and the linear host power model.

All types validate their invariants at construction time and raise
ValueError on violation.  HostState and VmState are the only mutable
types; they are mutated exclusively by the engine.

A host draws P(u) = k * P_max + (1 - k) * P_max * u at CPU utilization u in
[0, 1]: an idle fraction k of its peak power plus a part proportional to u.
Energy is the rectangle-rule integral of P over time, exact because
utilization is piecewise-constant per frame.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

POLICY_KINDS = ("NPA", "DVFS", "ST", "MM", "HPG", "RC")
# NPA and DVFS take no thresholds and never migrate; ST takes an upper
# threshold only; the two-threshold kinds take both.
STATIC_KINDS = ("NPA", "DVFS")
TWO_THRESHOLD_KINDS = ("MM", "HPG", "RC")

HOST_MIPS_CLASSES = (1000.0, 2000.0, 3000.0)
VM_MIPS_CLASSES = (250.0, 500.0, 750.0, 1000.0)


def add_up(values) -> float:
    """Sum floats left to right, rounding after each term.

    This is what ``sum()`` gives on CPython 3.10 and 3.11.  From 3.12
    ``sum()`` of floats is compensated, so its last bits, and the threshold
    tests and ties that read them, would differ by interpreter.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def check_power_curve(p_max_watts, idle_fraction):
    """Raise ValueError unless (P_max, k) define a valid linear power curve."""
    if not 0 < p_max_watts < math.inf:
        raise ValueError("p_max_watts must be positive and finite")
    if not 0.0 <= idle_fraction <= 1.0:
        raise ValueError("idle_fraction must be in [0, 1]")


def power(spec, u: float) -> float:
    """Power draw in watts of ``spec`` (a HostSpec or HostSnapshot) at CPU utilization ``u``."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("utilization must be in [0, 1]")
    k = spec.idle_fraction
    return k * spec.p_max_watts + (1.0 - k) * spec.p_max_watts * u


def accumulate(total_wh: float, p_watts: float, dt_seconds: float) -> float:
    """Return ``total_wh`` plus ``p_watts`` drawn for ``dt_seconds``, in Wh."""
    if p_watts < 0:
        raise ValueError("power must be non-negative")
    if dt_seconds < 0:
        raise ValueError("duration must be non-negative")
    return total_wh + p_watts * dt_seconds / 3600.0


@dataclass(frozen=True)
class HostSpec:
    id: int
    mips_capacity: float
    ram_mb: float
    storage_gb: float
    p_max_watts: float
    idle_fraction: float

    def __post_init__(self):
        for name in ("mips_capacity", "ram_mb", "storage_gb"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        check_power_curve(self.p_max_watts, self.idle_fraction)


@dataclass(frozen=True)
class VmSpec:
    id: int
    requested_mips: float
    ram_mb: float
    storage_gb: float
    total_work_mi: float

    def __post_init__(self):
        for name in ("requested_mips", "total_work_mi"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        # a negative size would free room on its host
        for name in ("ram_mb", "storage_gb"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError("%s must be non-negative and finite" % name)


@dataclass
class HostState:
    spec: HostSpec
    powered_on: bool = True
    resident_vms: list = field(default_factory=list)

    def __post_init__(self):
        if not self.powered_on and self.resident_vms:
            raise ValueError("a powered-off host cannot have resident VMs")
        if len(set(self.resident_vms)) != len(self.resident_vms):
            raise ValueError("duplicate VM id in resident_vms")


def host_power(host: HostState, load: float) -> float:
    """Power draw of ``host`` at a CPU ``load`` in MIPS.

    The engine gives the sum of the resident VMs' demands, added left to right
    (``add_up``).  A powered-off host draws nothing; an oversubscribed one is
    clamped to 100% utilization, as a CPU cannot be more than fully busy.
    """
    if not host.powered_on:
        return 0.0
    u = min(1.0, load / host.spec.mips_capacity)
    return power(host.spec, u)


@dataclass
class VmState:
    spec: VmSpec
    host_id: Optional[int] = None
    demand_mips: float = 0.0
    # a VM is finished exactly when no work is left
    remaining_work_mi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.demand_mips <= self.spec.requested_mips:
            raise ValueError("demand_mips must be in [0, requested_mips]")
        if not 0.0 <= self.remaining_work_mi <= self.spec.total_work_mi:
            raise ValueError("remaining_work_mi must be in [0, total_work_mi]")
        if self.remaining_work_mi == 0.0 and self.host_id is not None:
            raise ValueError("a finished VM cannot be placed")


@dataclass
class PlacementPlan:
    """Outcome of a placement pass: assigned VMs and the leftovers."""

    assignments: dict  # vm id -> host id
    unplaced: set      # vm ids with no feasible host

    def __post_init__(self):
        if self.unplaced & set(self.assignments):
            raise ValueError("assignments and unplaced must be disjoint")


@dataclass
class MigrationPlan:
    """List of (vm id, source host id, destination host id) moves."""

    moves: list

    def __post_init__(self):
        seen = set()
        for vm_id, src, dst in self.moves:
            if vm_id in seen:
                raise ValueError("a VM appears twice in the migration plan")
            seen.add(vm_id)
            if src == dst:
                raise ValueError("source and destination must differ")


@dataclass
class FrameMetrics:
    frame_index: int
    energy_wh: float
    violation_events: int
    measurements: int
    shortfall_sum: float
    migrations: int

    def __post_init__(self):
        if min(self.violation_events, self.measurements, self.migrations) < 0:
            raise ValueError("counts must be non-negative")
        if self.violation_events > self.measurements:
            raise ValueError("violation_events cannot exceed measurements")
        if not (math.isfinite(self.energy_wh) and self.energy_wh >= 0):
            raise ValueError("energy_wh must be finite and non-negative")
        if not 0.0 <= self.shortfall_sum <= self.violation_events:
            raise ValueError("shortfall_sum must be in [0, violation_events]")


@dataclass
class RunMetrics:
    energy_kwh: float
    sla_violation_pct: float
    migration_count: int
    avg_sla_pct: float
    sim_duration_s: float

    def __post_init__(self):
        if self.energy_kwh < 0:
            raise ValueError("energy_kwh must be non-negative")
        if not 0.0 <= self.sla_violation_pct <= 100.0:
            raise ValueError("sla_violation_pct must be in [0, 100]")
        if not 0.0 <= self.avg_sla_pct <= 100.0:
            raise ValueError("avg_sla_pct must be in [0, 100]")


@dataclass(frozen=True)
class PolicyConfig:
    """A policy kind and its utilization thresholds, as fractions of capacity."""

    kind: str
    lower_threshold: Optional[float] = None
    upper_threshold: Optional[float] = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError("unknown policy %r" % (self.kind,))
        if self.kind in TWO_THRESHOLD_KINDS:
            if self.lower_threshold is None or self.upper_threshold is None:
                raise ValueError("%s requires lower and upper thresholds" % self.kind)
            if not 0.0 <= self.lower_threshold < self.upper_threshold <= 1.0:
                raise ValueError("need 0 <= lower < upper <= 1")
        elif self.kind in STATIC_KINDS:
            if self.lower_threshold is not None or self.upper_threshold is not None:
                raise ValueError("%s takes no thresholds" % self.kind)
        elif self.lower_threshold is not None:
            raise ValueError("ST takes no lower threshold")
        elif self.upper_threshold is None or not 0.0 < self.upper_threshold <= 1.0:
            raise ValueError("ST requires an upper threshold in (0, 1]")


@dataclass(frozen=True)
class Scenario:
    """A fleet, its policy and its run settings.

    Ids are positions: ``hosts[i].id == i`` and ``vms[i].id == i``, so
    the simulator indexes hosts by id; there is at least one of each.
    """

    hosts: tuple
    vms: tuple
    policy: PolicyConfig
    frame_seconds: float = 30.0
    seed: int = 42
    runs: int = 10

    def __post_init__(self):
        for name, specs in (("host", self.hosts), ("VM", self.vms)):
            if not specs:
                raise ValueError("a scenario needs at least one %s" % name)
            if any(s.id != i for i, s in enumerate(specs)):
                raise ValueError("%s ids must be their positions 0, 1, 2, ..." % name)
        if not isinstance(self.policy, PolicyConfig):
            raise ValueError("policy must be a PolicyConfig")
        if not (math.isfinite(self.frame_seconds) and self.frame_seconds > 0):
            raise ValueError("frame_seconds must be positive and finite")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


def default_paper_scenario(policy="NPA", lower_threshold=None, upper_threshold=None,
                           frame_seconds=30.0, seed=42, runs=10,
                           n_hosts=100, n_vms=290):
    """Build the default evaluation fleet: 100 heterogeneous hosts and 290 VMs.

    Host CPU classes (1000/2000/3000 MIPS) and VM CPU classes
    (250/500/750/1000 MIPS) are assigned round-robin by index, giving a
    deterministic, approximately uniform mix.
    """
    hosts = tuple(
        HostSpec(id=i,
                 mips_capacity=HOST_MIPS_CLASSES[i % len(HOST_MIPS_CLASSES)],
                 ram_mb=8192.0, storage_gb=1024.0,
                 p_max_watts=250.0, idle_fraction=0.7)
        for i in range(n_hosts)
    )
    vms = tuple(
        VmSpec(id=i,
               requested_mips=VM_MIPS_CLASSES[i % len(VM_MIPS_CLASSES)],
               ram_mb=128.0, storage_gb=1.0,
               total_work_mi=150000.0)
        for i in range(n_vms)
    )
    return Scenario(hosts=hosts, vms=vms,
                    policy=PolicyConfig(policy, lower_threshold, upper_threshold),
                    frame_seconds=frame_seconds, seed=seed, runs=runs)
