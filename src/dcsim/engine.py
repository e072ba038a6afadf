"""Frame-driven simulation loop.

A placed run is one ``SimulationState``: its scenario, its hosts and VMs,
its workload trace, whose seed is the run's only seed, and the per-frame
constants computed from the scenario when the state is built.

Each frame steps over the run's frame layout: its residents host by host
in resident order, their VM states and requested MIPS, and one span per
host with residents.  The layout is derived from the hosts' resident
lists, which change only when a VM finishes or a migration plan moves one,
so it is kept between frames and rebuilt on the first frame after such a
change (``SimulationState``).  Each frame asks the run's workload trace
(``workload.WorkloadTrace``, the one seam through which utilizations
enter) for every resident in one call, in layout order.  Then it goes once
over the spans, in fleet order: for each host with VMs it sums their
demands once, shares the host's MIPS proportionally when they exceed it
and records SLA measurements.  Then it goes once over the residents, in
the same order, and advances each VM's work (finished VMs leave the
fleet).  Then the frame's energy is charged host by host from those loads:
a loaded host's linear power at its load, inline, and each run's constant
draws (NPA's peak, an empty host's idle) from terms computed once per run.
Last the policy is invoked, its migration plan applied and host power
states adjusted.  SLA and energy are therefore charged against the
placement in force during the frame, and the policy reacts to the loads it
just observed.  Static runs (NPA, DVFS) placed alike on one workload trace
share that pass, each charged on its own meter.  A run that cannot end is
stopped before its first frame (``run_lockstep``).
"""

import math
from dataclasses import dataclass, field, replace
from operator import mul

from .model import (STATIC_KINDS, FrameMetrics, HostState, PlacementPlan, RunMetrics,
                    Scenario, VmState)
from .placement import HostSnapshot, PlacementRequest, VmRequest, mbfd
from . import policies
from .workload import SeededRng, WorkloadTrace
# no longer called here; kept bound for the benchmark's tracer until ROADMAP item 13
from .model import accumulate, host_power  # noqa: F401
from .workload import walk_utilization  # noqa: F401


class InfeasibleScenarioError(RuntimeError):
    """The VM fleet cannot be placed at requested capacity."""


# Frames one run may take before it is stopped.  The benchmark's workloads
# take at most a few hundred (about 400 on 5 s frames), so only a frame far
# too short for the fleet's work comes near it.
MAX_FRAMES = 100_000
_FRAME_LIMIT = "the run reached its limit of %d frames with %d VM(s) unfinished; use longer frames"


class StalledRunError(ValueError):
    """The run cannot end: no VM's work can change in a frame, or it reached MAX_FRAMES."""


@dataclass
class SimulationState:
    """A placed run: its scenario, host and VM states, workload trace and meters.

    A run is made from the four facts it cannot derive: its scenario, its
    host and VM states, as placed, and its workload trace, made for as many
    VMs as the fleet has (else ``ValueError``).  The rest is derived when
    the state is built: ``rng`` under the trace's seed, ``active`` from the
    VMs that are placed, ``frame_index``, ``energy_wh`` and ``frames`` at
    zero, and the per-frame constants of the scenario.

    ``layout`` is the frame layout that ``step`` steps over (``_layout``),
    derived from the hosts' resident lists: None until ``step`` builds it,
    and dropped by ``step`` when a VM finishes or a migration plan with
    moves is applied.  So between steps only ``step`` may change a placed
    run's ``resident_vms``; code that moves a VM between steps must set
    ``layout`` to None.  A static run that shares another's pass
    (``run_lockstep``) is stepped through that run's layout.
    """

    scenario: Scenario  # the run's seed is its trace's, not the scenario's
    hosts: list  # hosts[i] has id i, as in the Scenario
    vms: list  # vms[i] has id i: every VM of the fleet, finished ones included
    trace: WorkloadTrace
    rng: SeededRng = field(init=False)  # under the seed of ``trace``
    # vm id -> VmState for every VM with work left; a VM leaves when it finishes
    active: dict = field(init=False)
    frame_index: int = field(init=False)
    energy_wh: float = field(init=False)
    frames: list = field(init=False)
    constant: tuple = field(init=False)  # the run's per-frame constants (``_constant``)
    layout: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trace.n_vms != len(self.vms):
            raise ValueError("a fleet of %d VMs cannot share a workload trace of %d VMs"
                             % (len(self.vms), self.trace.n_vms))
        self.rng = SeededRng(self.trace.seed)
        self.active = {vm.spec.id: vm for vm in self.vms if vm.host_id is not None}
        self.frame_index, self.energy_wh, self.frames = 0, 0.0, []
        self.constant = _constant(self.scenario)


def place_fleet(scenario: Scenario) -> PlacementPlan:
    """The fleet's placement at requested capacity (100% utilization assumed).

    Placement starts from an all-off fleet so the activation penalty
    packs VMs onto as few, as power-efficient hosts as possible.  The plan
    reads only the scenario's hosts and VMs, not its policy or seed, so
    scenarios that differ in nothing else share it.  Raises
    ``InfeasibleScenarioError`` when a VM fits on no host.
    """
    hosts = [HostSnapshot(h.id, h.mips_capacity, h.p_max_watts, h.idle_fraction, False, 0.0,
                          h.ram_mb, h.storage_gb) for h in scenario.hosts]
    requests = [VmRequest(v.id, v.requested_mips, v.ram_mb, v.storage_gb)
                for v in scenario.vms]
    plan = mbfd(PlacementRequest(vms=requests, hosts=hosts, upper_threshold=1.0))
    if plan.unplaced:
        raise InfeasibleScenarioError(
            "cannot place %d VM(s) at requested capacity" % len(plan.unplaced))
    return plan


def placed_state(scenario: Scenario, plan: PlacementPlan, trace=None) -> SimulationState:
    """A run's state at frame 0, its fleet placed as ``plan`` (from ``place_fleet``) says.

    Hosts that receive no VMs are powered on under NPA and stay off under
    every other policy.  Each call builds host and VM states of its own.

    ``trace`` is the run's ``WorkloadTrace``, by default a fresh one under
    the scenario's seed; its seed is the run's.  Runs of one fleet that
    ``run_lockstep`` steps together may share one.  Raises ``ValueError``
    for a plan that does not place exactly the fleet's VMs ``0..n-1``, each
    on one of its hosts, and for a trace made for another number of VMs.
    """
    assignments, n_vms = plan.assignments, len(scenario.vms)
    if (assignments.keys() != set(range(n_vms))
            or not set(assignments.values()) <= set(range(len(scenario.hosts)))):
        raise ValueError("the plan does not place this fleet of %d VMs on %d hosts"
                         % (n_vms, len(scenario.hosts)))
    hosts = [HostState(spec=h, powered_on=False) for h in scenario.hosts]
    vms = []
    for v in scenario.vms:
        hid = assignments[v.id]
        hosts[hid].resident_vms.append(v.id)
        vms.append(VmState(spec=v, host_id=hid, demand_mips=v.requested_mips,
                           remaining_work_mi=v.total_work_mi))
    for host in hosts:
        host.powered_on = scenario.policy.kind == "NPA" or bool(host.resident_vms)
    trace = WorkloadTrace(scenario.seed, n_vms) if trace is None else trace
    return SimulationState(scenario, hosts, vms, trace)


def initial_placement(scenario: Scenario, trace=None) -> SimulationState:
    """Place the fleet and return the run's state at frame 0.

    This is ``placed_state`` of the scenario's ``place_fleet`` plan.
    """
    return placed_state(scenario, place_fleet(scenario), trace)


def share_mips(host: HostState, demands, load: float) -> list:
    """Allocate host capacity to a list of demands, scaling proportionally on overload.

    ``load`` is the sum of the demands; the engine adds them left to right
    (``model.add_up``).  When it fits, ``demands`` itself is returned, not a
    copy; otherwise a new list in the same order.
    """
    capacity = host.spec.mips_capacity
    if load <= capacity:
        return demands
    scale = capacity / load
    return [d * scale for d in demands]


def _constant(scenario):
    """(draws, coefficients, requested MIPS) of a run of ``scenario``.

    In fleet order, each host's constant draw per frame in Wh (under NPA its
    peak draw, which it is charged whatever its load; otherwise its idle
    draw, which it is charged while on and empty), and its ``k * p_max``,
    ``(1.0 - k) * p_max`` and MIPS capacity; then each VM's requested MIPS,
    by VM id.
    """
    npa, dt = scenario.policy.kind == "NPA", scenario.frame_seconds
    draws = [(s.p_max_watts if npa else s.idle_fraction * s.p_max_watts) * dt / 3600.0
             for s in scenario.hosts]
    coefficients = [(s.idle_fraction * s.p_max_watts, (1.0 - s.idle_fraction) * s.p_max_watts,
                     s.mips_capacity) for s in scenario.hosts]
    return draws, coefficients, [v.requested_mips for v in scenario.vms]


def _layout(state):
    """The frame layout of ``state``'s hosts as they stand.

    That is, host by host in resident order, the residents' ids, their VM
    states and their requested MIPS, and one ``(host id, start, end, MIPS
    capacity)`` span per host with residents, in fleet order: the host's
    residents are ``[start:end]`` of the three lists.
    """
    ids, spans = [], []
    for host in state.hosts:
        if host.resident_vms:
            start = len(ids)
            ids += host.resident_vms
            spans.append((host.spec.id, start, len(ids), host.spec.mips_capacity))
    return (ids, list(map(state.vms.__getitem__, ids)),
            list(map(state.constant[2].__getitem__, ids)), spans)


def _charge(run, loads):
    """Charge ``run`` its fleet's energy for one frame; returns the frame's energy.

    ``loads`` holds each host's CPU load in MIPS, in fleet order, or None for
    a host with no residents.  Each host's draw is added in fleet order.
    Under NPA that is its peak term, whatever its load.  Otherwise a host
    that is off adds nothing, an empty one that is on its idle term, and a
    loaded one ``(k * p_max + (1.0 - k) * p_max * min(1.0, load /
    capacity)) * dt / 3600.0``, for frames of ``dt`` s, the operations of
    ``host_power`` and ``accumulate`` spelled out inline (``u if u < 1.0
    else 1.0`` is ``min(1.0, u)``, NaN included).  Every term is ``p * dt /
    3600.0``, as ``accumulate`` forms it, and the terms are added one by
    one onto the run's total, so the float sum keeps its order and bits; the
    energy returned is the new total less the old.
    """
    draws, coefficients, _ = run.constant
    before = total_wh = run.energy_wh
    dt = run.scenario.frame_seconds
    if run.scenario.policy.kind == "NPA":
        for wh in draws:
            total_wh += wh
    else:
        for host, load, wh, terms in zip(run.hosts, loads, draws, coefficients):
            if not host.powered_on:
                continue
            if load is None:
                total_wh += wh
            else:
                idle, span, capacity = terms
                u = load / capacity
                total_wh += (idle + span * (u if u < 1.0 else 1.0)) * dt / 3600.0
    run.energy_wh = total_wh
    return total_wh - before


def step(state: SimulationState, sharing=()):
    """Advance the simulation by one frame; returns the frame's metrics.

    The step goes over the run's frame layout (``_layout``), built here
    when ``state.layout`` is None and dropped when a VM finishes or a plan
    with moves is applied.  The whole fleet's residents, in layout order,
    take their utilizations at the frame from one
    ``state.trace.utilizations`` call, and each host takes its slice; a run
    sharing the trace may have drawn them already.  The trace raises
    ``RuntimeError`` when runs sharing it fall out of lockstep.  Each VM's
    demand is its utilization times its requested MIPS, in that order, as a
    C-level map.

    Each span's demands are summed once, left to right from 0.0, as
    ``model.add_up`` sums them; that load goes to the energy charge
    (``_charge``) and, only when it exceeds the host's capacity (when
    ``load <= capacity`` fails, NaN included, as in ``share_mips``), to
    ``share_mips``.  A host with no residents has no span and is not
    shared; its draw, like every NPA host's, is the run's constant term,
    computed when its state was built.  Then one loop over the residents,
    in the same order, advances their work.

    ``sharing`` lists the states of static runs that hold this run's VM
    states and host resident lists, as ``run_lockstep`` arranges; this
    run must be static too.  The one pass steps them all.  Each keeps its
    own hosts' power states, energy meter and FrameMetrics, and its own
    frame index, which advances with this run's.
    """
    runs = [state, *sharing]
    if sharing and any(run.scenario.policy.kind not in STATIC_KINDS for run in runs):
        raise ValueError("only static runs can share a frame pass")
    scenario, dt = state.scenario, state.scenario.frame_seconds
    frame = state.frame_index
    active = state.active
    measurements = len(active)
    violations = 0
    shortfall_sum = 0.0

    # 1. utilization from the trace, the whole fleet's residents in one
    # batch, in layout order: a reflected random walk over keyed uniform
    # draws, so the trace for (seed, vm, frame) is policy-independent
    if state.layout is None:
        state.layout = _layout(state)
    ids, fleet, requested, spans = state.layout
    fleet_demands = list(map(mul, state.trace.utilizations(ids, frame), requested))

    # 2. proportional sharing of each host's summed demand, which is also the
    # load that energy is charged from, so an oversubscribed host is exactly
    # at full load; SLA accounting, host by host in resident order, where a
    # share falls short
    fleet_alloc = fleet_demands
    loads = [None] * len(state.hosts)  # each host's load in MIPS, None when empty
    for host_id, start, end, capacity in spans:
        demands = fleet_demands[start:end]
        load = 0.0  # model.add_up, inline
        for d in demands:
            load += d
        loads[host_id] = load
        if not load <= capacity:
            alloc = share_mips(state.hosts[host_id], demands, load)
            for d, a in zip(demands, alloc):
                if a < d:
                    violations += 1
                    shortfall_sum += (d - a) / d
            if fleet_alloc is fleet_demands:
                fleet_alloc = fleet_demands[:]
            fleet_alloc[start:end] = alloc

    # 3. work, in the same order; finished VMs leave their hosts.  A VM whose
    # share covers its remaining work finishes with exactly 0.0 left; any
    # other keeps ``left - work``, which is above zero.
    for vm, d, a in zip(fleet, fleet_demands, fleet_alloc):
        vm.demand_mips = d
        work, left = a * dt, vm.remaining_work_mi
        if work < left:
            vm.remaining_work_mi = left - work
        else:
            vm.remaining_work_mi = 0.0
            vm_id = vm.spec.id
            state.hosts[vm.host_id].resident_vms.remove(vm_id)
            vm.host_id = None
            vm.demand_mips = 0.0
            del active[vm_id]
            state.layout = None

    # 4. each run's energy, from the loads and the power states in force
    # during the frame
    frame_wh = [_charge(run, loads) for run in runs]

    # 5. policy reallocation, applied atomically
    plan = policies.reallocate(scenario.policy, state.hosts, active, state.rng)
    for v, src, dst in plan.moves:
        state.layout = None
        state.hosts[src].resident_vms.remove(v)
        target = state.hosts[dst]
        target.powered_on = True
        target.resident_vms.append(v)
        active[v].host_id = dst

    # 6. power management: a host that empties out is switched off.  NPA and
    # DVFS perform no consolidation at run time, so under them it stays on
    # (NPA at peak power by definition, DVFS at idle).
    if scenario.policy.kind not in STATIC_KINDS:
        for host in state.hosts:
            if host.powered_on and not host.resident_vms:
                host.powered_on = False

    for run, wh in zip(runs, frame_wh):
        run.frame_index += 1
        run.frames.append(FrameMetrics(
            frame_index=frame, energy_wh=wh, violation_events=violations,
            measurements=measurements, shortfall_sum=shortfall_sum,
            migrations=len(plan.moves)))
    return state.frames[-1]


def simulate(scenario: Scenario, seed=None):
    """Run to completion under ``seed``, by default the scenario's; returns
    (final state, aggregated RunMetrics)."""
    trace = None if seed is None else WorkloadTrace(seed, len(scenario.vms))
    state = initial_placement(scenario, trace)
    return state, run_lockstep([state])[0]


def run_lockstep(states):
    """Step placed runs' states side by side until each ends.

    Every run steps frame ``f`` before any steps ``f + 1``, so runs that
    share a ``WorkloadTrace`` draw each (vm, frame) once.  Static runs (NPA
    and DVFS) on one trace, whose scenarios are equal apart from the policy
    and whose VMs stand alike, step as one: the first of them holds the VM
    states for all, and each frame one pass samples, shares, counts SLA
    events, advances work and retires VMs for all of them, while each keeps
    its own power states and energy.  Returns each run's RunMetrics, in
    order; they equal those of independent runs.

    Raises ``StalledRunError`` before the first frame when some VM cannot
    finish in the frames left, ``F``: that the run cannot end when no VM's
    work could change in a frame even at its requested MIPS, and otherwise
    that it would reach MAX_FRAMES.  A VM's share never exceeds its
    requested MIPS ``r``, so it needs at least ``W / (r * dt)`` frames for
    its remaining work ``W``, and one whose ``r * dt`` rounds to 0.0 never
    advances.  Rounding cannot rescue it: each frame's ``left - work`` errs
    by at most ``2**-53 * W``, so a VM that does finish in ``F`` frames has
    a computed ratio of at most ``F * (1 + F * 2**-52)``, within
    ``F * (1 + 1e-9)`` for any ``F <= MAX_FRAMES``.  A VM whose work a
    frame at its requested MIPS leaves unchanged has a ratio of at least
    ``2**52``, so once the check passes every VM can advance, and still can
    as its work shrinks; a frame in which every VM happens to idle is no
    stall.  A run that still reaches MAX_FRAMES, its VMs idling, raises
    then.
    """
    for state in states:
        frames = (MAX_FRAMES - state.frame_index) * (1 + 1e-9)
        dt, vms = state.scenario.frame_seconds, state.active.values()
        rates = [vm.spec.requested_mips * dt for vm in vms]
        stuck = sum(not r or vm.remaining_work_mi / r > frames for vm, r in zip(vms, rates))
        if stuck and any(vm.remaining_work_mi - r < vm.remaining_work_mi
                         for vm, r in zip(vms, rates)):
            raise StalledRunError(_FRAME_LIMIT % (MAX_FRAMES, stuck))
        if stuck:
            raise StalledRunError("frame %d advanced no VM's remaining work; the run "
                                  "cannot end" % state.frame_index)
    passes = []  # (the run that holds the VM states, the runs that share its pass)
    for state in states:
        if not state.active:
            continue
        for lead, sharing in passes:
            if _alike(lead, state):
                _share_vms(lead, state)
                sharing.append(state)
                break
        else:
            passes.append((state, []))
    while passes:
        for state, sharing in passes:
            if state.frame_index == MAX_FRAMES:
                raise StalledRunError(_FRAME_LIMIT % (MAX_FRAMES, len(state.active)))
            step(state, sharing=sharing)
        passes = [p for p in passes if p[0].active]
    return [_run_metrics(state) for state in states]


def _alike(a, b):
    """True when the run of state ``b`` can share the frame pass of ``a``.

    Both must be static, on one trace and at one frame, with scenarios equal
    apart from the policy, the same residents on each host and the same work
    left on each VM.
    """
    return (a.scenario.policy.kind in STATIC_KINDS and b.scenario.policy.kind in STATIC_KINDS
            and a.trace is b.trace and a.frame_index == b.frame_index
            and replace(b.scenario, policy=a.scenario.policy) == a.scenario
            and [h.resident_vms for h in a.hosts] == [h.resident_vms for h in b.hosts]
            and [v.remaining_work_mi for v in a.vms] == [v.remaining_work_mi for v in b.vms])


def _share_vms(lead, state):
    """Point ``state`` at the VM states and resident lists of ``lead``."""
    state.vms, state.active, state.layout = lead.vms, lead.active, None
    for host, lead_host in zip(state.hosts, lead.hosts):
        host.resident_vms = lead_host.resident_vms


def _run_metrics(state):
    violations = sum(f.violation_events for f in state.frames)
    measurements = sum(f.measurements for f in state.frames)
    shortfall = math.fsum(f.shortfall_sum for f in state.frames)
    return RunMetrics(
        energy_kwh=state.energy_wh / 1000.0,
        sla_violation_pct=100.0 * violations / measurements if measurements else 0.0,
        migration_count=sum(f.migrations for f in state.frames),
        avg_sla_pct=100.0 * shortfall / violations if violations else 0.0,
        sim_duration_s=state.frame_index * state.scenario.frame_seconds)
