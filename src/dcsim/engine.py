"""Frame-driven simulation loop.

Each frame asks the run's workload trace (``workload.WorkloadTrace``, the
one seam through which utilizations enter) for every resident of the
fleet in one call, host by host in resident order.  Then it goes once
over the hosts in fleet order: for each host with VMs it sums their
demands once, shares the host's MIPS proportionally and records SLA
measurements.  Then it goes once over the residents, in the same order,
and advances each VM's work (finished VMs leave the fleet).  Then the
frame's energy is charged host by host from those loads: a loaded host's
linear power at its load, inline, and each run's constant draws (NPA's
peak, an empty host's idle) from terms computed once per run.  Last the
policy is invoked, its migration plan applied and host power states
adjusted.  SLA and energy are therefore charged against the placement in
force during the frame, and the policy reacts to the loads it just
observed.  Static runs (NPA, DVFS) placed alike on one workload trace
share that pass, each charged on its own meter.  A run that cannot end
is stopped before its first frame (``run_lockstep``).
"""

import math
from dataclasses import dataclass, field, replace
from operator import mul

from .model import (POLICY_KINDS, STATIC_KINDS, FrameMetrics, HostState, PlacementPlan,
                    RunMetrics, Scenario, VmState, add_up)
from .power import power
from .placement import HostSnapshot, PlacementRequest, VmRequest, mbfd
from . import policies
from .workload import SeededRng, WorkloadTrace
# no longer called here; kept bound for the benchmark's tracer until ROADMAP item 13
from .power import accumulate, host_power  # noqa: F401
from .workload import walk_utilization  # noqa: F401

# Policies that switch a host off once it empties out.  NPA and DVFS
# perform no consolidation at run time, so under them a host that empties
# out stays on (NPA at peak power by definition, DVFS at idle).
CONSOLIDATING = tuple(k for k in POLICY_KINDS if k not in STATIC_KINDS)


class InfeasibleScenarioError(RuntimeError):
    """The VM fleet cannot be placed at requested capacity."""


# Frames one run may take before it is stopped.  The benchmark's workloads
# take at most a few hundred (about 400 on 5 s frames), so only a frame far
# too short for the fleet's work comes near it.
MAX_FRAMES = 100_000


class StalledRunError(ValueError):
    """The run cannot end: no VM's work can change in a frame, or it reached MAX_FRAMES."""


@dataclass
class SimulationState:
    frame_index: int
    hosts: list  # hosts[i] has id i, as in the Scenario
    vms: list  # vms[i] has id i: every VM of the fleet, finished ones included
    rng: SeededRng
    trace: WorkloadTrace  # under the seed of ``rng``
    # vm id -> VmState for every VM with work left; a VM leaves when it finishes
    active: dict = field(default_factory=dict)
    energy_wh: float = 0.0
    frames: list = field(default_factory=list)
    # the run's per-frame constants (``_constant``), set when it is first stepped
    constant: tuple = None


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


def placed_state(scenario: Scenario, plan: PlacementPlan, seed=None,
                 trace=None) -> SimulationState:
    """A run's state at frame 0, its fleet placed as ``plan`` (from ``place_fleet``) says.

    Hosts that receive no VMs are powered on under NPA and stay off under
    every other policy.  Each call builds host and VM states of its own.

    ``trace`` is the run's ``WorkloadTrace``, by default a fresh one under
    the run's seed; runs under that seed that ``run_lockstep`` steps
    together may share one.  Raises ``ValueError`` for a trace of another
    seed, whose draws would not be this run's, and for a trace placed
    under a fleet of another size, whose draws this run would discard.
    """
    hosts = [HostState(spec=h, powered_on=False) for h in scenario.hosts]
    vms = []
    for v in scenario.vms:
        hid = plan.assignments[v.id]
        hosts[hid].resident_vms.append(v.id)
        vms.append(VmState(spec=v, host_id=hid, demand_mips=v.requested_mips,
                           remaining_work_mi=v.total_work_mi))
    npa = scenario.policy.kind == "NPA"
    for host in hosts:
        host.powered_on = npa or bool(host.resident_vms)
    rng = SeededRng(scenario.seed if seed is None else seed)
    trace = WorkloadTrace(rng.seed) if trace is None else trace
    if trace.seed != rng.seed:
        raise ValueError("a run of seed %d cannot share a workload trace of seed %d"
                         % (rng.seed, trace.seed))
    if trace.fleet_size not in (None, len(vms)):
        raise ValueError("a fleet of %d VMs cannot share a workload trace of %d VMs"
                         % (len(vms), trace.fleet_size))
    trace.fleet_size = len(vms)
    return SimulationState(frame_index=0, hosts=hosts, vms=vms, rng=rng, trace=trace,
                           active={vm.spec.id: vm for vm in vms})


def initial_placement(scenario: Scenario, seed=None, trace=None) -> SimulationState:
    """Place the fleet and return the run's state at frame 0.

    This is ``placed_state`` of the scenario's ``place_fleet`` plan.
    """
    return placed_state(scenario, place_fleet(scenario), seed=seed, trace=trace)


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


def _constant(hosts, scenario):
    """(NPA or not, frame seconds, draws, coefficients, requested MIPS).

    In fleet order, each host's constant draw per frame in Wh (under NPA its
    peak draw, which it is charged whatever its load; otherwise its idle
    draw, which it is charged while on and empty), and its ``k * p_max``,
    ``(1.0 - k) * p_max`` and MIPS capacity; then each VM's requested MIPS,
    by VM id.
    """
    npa, dt = scenario.policy.kind == "NPA", scenario.frame_seconds
    specs = [h.spec for h in hosts]
    draws = [(s.p_max_watts if npa else power(s, 0.0)) * dt / 3600.0 for s in specs]
    coefficients = [(s.idle_fraction * s.p_max_watts, (1.0 - s.idle_fraction) * s.p_max_watts,
                     s.mips_capacity) for s in specs]
    return npa, dt, draws, coefficients, [v.requested_mips for v in scenario.vms]


def _charge(total_wh, hosts, loads, constant, dt):
    """Return ``total_wh`` plus the fleet's energy for one frame of ``dt`` s.

    ``loads`` holds each host's CPU load in MIPS, in fleet order, or None for
    a host with no residents; ``constant`` is the run's ``_constant``.  Each
    host's draw is added in fleet order.  Under NPA that is its peak term,
    whatever its load.  Otherwise a host that is off adds nothing, an empty
    one that is on its idle term, and a loaded one ``(k * p_max + (1.0 - k)
    * p_max * min(1.0, load / capacity)) * dt / 3600.0``, the operations of
    ``host_power`` and ``accumulate`` spelled out inline (``u if u < 1.0
    else 1.0`` is ``min(1.0, u)``, NaN included).  Every term is ``p * dt /
    3600.0``, as ``accumulate`` forms it, and the terms are added one by
    one, so the float sum keeps its order and bits.
    """
    npa, _, draws, coefficients, _ = constant
    if npa:
        for wh in draws:
            total_wh += wh
        return total_wh
    for host, load, wh, terms in zip(hosts, loads, draws, coefficients):
        if not host.powered_on:
            continue
        if load is None:
            total_wh += wh
        else:
            idle, span, capacity = terms
            u = load / capacity
            total_wh += (idle + span * (u if u < 1.0 else 1.0)) * dt / 3600.0
    return total_wh


def step(state: SimulationState, scenario: Scenario, sharing=()):
    """Advance the simulation by one frame; returns the frame's metrics.

    The whole fleet's residents, host by host in resident order, take their
    utilizations at the frame from one ``state.trace.utilizations`` call,
    and each host takes its slice; a run sharing the trace may have drawn
    them already.  The trace raises ``RuntimeError`` when runs sharing it
    fall out of lockstep.  Each VM's demand is its utilization times its
    requested MIPS, in that order, as a C-level map.

    Each host with VMs has its demands summed once, left to right; that
    load goes to ``share_mips`` and to the energy charge (``_charge``).  A
    host with no residents is not shared, and its draw, like every NPA
    host's, is the run's constant term, computed once per run.  Then one
    loop over the residents, in the same order, advances their work.

    ``sharing`` lists static (state, scenario) runs that hold this run's
    VM states and host resident lists, as ``run_lockstep`` arranges; this
    run must be static too.  The one pass steps them all.  Each keeps its
    own hosts' power states, energy meter and FrameMetrics, and its own
    frame index, which advances with this run's.
    """
    runs = [(state, scenario), *sharing]
    if sharing and any(sc.policy.kind not in STATIC_KINDS for _, sc in runs):
        raise ValueError("only static runs can share a frame pass")
    dt = scenario.frame_seconds
    for run, run_scenario in runs:
        if run.constant is None or run.constant[:2] != (run_scenario.policy.kind == "NPA", dt):
            run.constant = _constant(run.hosts, run_scenario)
    frame = state.frame_index
    active = state.active
    measurements = len(active)
    violations = 0
    shortfall_sum = 0.0

    # 1. utilization from the trace, the whole fleet's residents in one
    # batch, host by host in resident order: a reflected random walk over
    # keyed uniform draws, so the trace for (seed, vm, frame) is
    # policy-independent
    ids = [vm_id for host in state.hosts for vm_id in host.resident_vms]
    utilizations = state.trace.utilizations(ids, frame, len(state.vms))
    fleet = list(map(state.vms.__getitem__, ids))
    fleet_demands = list(map(mul, utilizations, map(state.constant[4].__getitem__, ids)))

    # 2. proportional sharing of each host's summed demand, which is also the
    # load that energy is charged from, so an oversubscribed host is exactly
    # at full load; SLA accounting, host by host in resident order, where a
    # share falls short
    fleet_alloc = fleet_demands
    loads = []  # each host's load in MIPS, or None when it has no residents
    end = 0
    for host in state.hosts:
        if not host.resident_vms:
            loads.append(None)
            continue
        start, end = end, end + len(host.resident_vms)
        demands = fleet_demands[start:end]
        load = add_up(demands)
        loads.append(load)
        alloc = share_mips(host, demands, load)
        if alloc is not demands:
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

    # 4. each run's energy, from the loads and the power states in force
    # during the frame
    frame_wh = []
    for run, _ in runs:
        before = run.energy_wh
        run.energy_wh = _charge(before, run.hosts, loads, run.constant, dt)
        frame_wh.append(run.energy_wh - before)

    # 5. policy reallocation, applied atomically
    plan = policies.reallocate(scenario.policy, state.hosts, active, state.rng)
    for v, src, dst in plan.moves:
        if src is not None:
            state.hosts[src].resident_vms.remove(v)
        target = state.hosts[dst]
        target.powered_on = True
        target.resident_vms.append(v)
        active[v].host_id = dst

    # 6. power management
    if scenario.policy.kind in CONSOLIDATING:
        for host in state.hosts:
            if host.powered_on and not host.resident_vms:
                host.powered_on = False

    for (run, _), wh in zip(runs, frame_wh):
        run.frame_index += 1
        run.frames.append(FrameMetrics(
            frame_index=frame, energy_wh=wh, violation_events=violations,
            measurements=measurements, shortfall_sum=shortfall_sum,
            migrations=len(plan.moves)))
    return state.frames[-1]


def simulate(scenario: Scenario, seed=None):
    """Run to completion; returns (final state, aggregated RunMetrics)."""
    state = initial_placement(scenario, seed=seed)
    return state, run_lockstep([(state, scenario)])[0]


def run_lockstep(runs):
    """Step placed (state, scenario) runs side by side until each ends.

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
    for state, scenario in runs:
        frames = (MAX_FRAMES - state.frame_index) * (1 + 1e-9)
        dt, vms = scenario.frame_seconds, state.active.values()
        rates = [vm.spec.requested_mips * dt for vm in vms]
        stuck = sum(not r or vm.remaining_work_mi / r > frames for vm, r in zip(vms, rates))
        if stuck and any(vm.remaining_work_mi - r < vm.remaining_work_mi
                         for vm, r in zip(vms, rates)):
            raise StalledRunError("the run reached its limit of %d frames with %d VM(s) "
                                  "unfinished; use longer frames" % (MAX_FRAMES, stuck))
        if stuck:
            raise StalledRunError("frame %d advanced no VM's remaining work; the run "
                                  "cannot end" % state.frame_index)
    passes = []  # (the run that holds the VM states, the runs that share its pass)
    for run in runs:
        if not run[0].active:
            continue
        for lead, sharing in passes:
            if _alike(lead, run):
                _share_vms(lead[0], run[0])
                sharing.append(run)
                break
        else:
            passes.append((run, []))
    while passes:
        for (state, scenario), sharing in passes:
            if state.frame_index == MAX_FRAMES:
                raise StalledRunError("the run reached its limit of %d frames with %d VM(s) "
                                      "unfinished; use longer frames"
                                      % (MAX_FRAMES, len(state.active)))
            step(state, scenario, sharing=sharing)
        passes = [p for p in passes if p[0][0].active]
    return [_run_metrics(state, scenario) for state, scenario in runs]


def _alike(lead, run):
    """True when ``run`` can share the frame pass of ``lead``.

    Both must be static, on one trace and at one frame, with scenarios equal
    apart from the policy, the same residents on each host and the same work
    left on each VM.
    """
    (a, a_scenario), (b, b_scenario) = lead, run
    return (a_scenario.policy.kind in STATIC_KINDS and b_scenario.policy.kind in STATIC_KINDS
            and a.trace is b.trace and a.frame_index == b.frame_index
            and replace(b_scenario, policy=a_scenario.policy) == a_scenario
            and [h.resident_vms for h in a.hosts] == [h.resident_vms for h in b.hosts]
            and [v.remaining_work_mi for v in a.vms] == [v.remaining_work_mi for v in b.vms])


def _share_vms(lead, state):
    """Point ``state`` at the VM states and resident lists of ``lead``."""
    state.vms, state.active = lead.vms, lead.active
    for host, lead_host in zip(state.hosts, lead.hosts):
        host.resident_vms = lead_host.resident_vms


def _run_metrics(state, scenario):
    violations = sum(f.violation_events for f in state.frames)
    measurements = sum(f.measurements for f in state.frames)
    shortfall = math.fsum(f.shortfall_sum for f in state.frames)
    return RunMetrics(
        energy_kwh=state.energy_wh / 1000.0,
        sla_violation_pct=100.0 * violations / measurements if measurements else 0.0,
        migration_count=sum(f.migrations for f in state.frames),
        avg_sla_pct=100.0 * shortfall / violations if violations else 0.0,
        sim_duration_s=state.frame_index * scenario.frame_seconds)
