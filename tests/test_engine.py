"""Simulation loop: placement, sharing, energy, work, determinism."""

import importlib
import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import pytest

from dcsim import engine
from dcsim import (InfeasibleScenarioError, SimulationState, StalledRunError, WorkloadTrace,
                   default_paper_scenario, initial_placement, placed_state, power, share_mips,
                   simulate, step)
from dcsim.model import HostSpec, HostState, PolicyConfig, Scenario, VmSpec, VmState
from dcsim.power import accumulate
from dcsim.workload import SeededRng, child_rng


def small_scenario(policy="DVFS", n_hosts=2, vm_mips=(250.0,), frame=60.0,
                   host_cap=1000.0, work=150000.0, **kw):
    hosts = tuple(HostSpec(id=i, mips_capacity=host_cap, ram_mb=8192.0,
                           storage_gb=1024.0, p_max_watts=250.0,
                           idle_fraction=0.7)
                  for i in range(n_hosts))
    vms = tuple(VmSpec(id=i, requested_mips=m, ram_mb=128.0, storage_gb=1.0,
                       total_work_mi=work)
                for i, m in enumerate(vm_mips))
    return Scenario(hosts=hosts, vms=vms, policy=PolicyConfig(policy),
                    frame_seconds=frame, **kw)


def pinned(u):
    return lambda vm_id, frame: u


class SampledTrace(WorkloadTrace):
    """A workload trace whose utilizations ``sampler(vm_id, frame)`` gives, called
    once per VM asked for, in the order asked."""

    def __init__(self, seed, sampler):
        super().__init__(seed)
        self.sampler = sampler

    def utilizations(self, vm_ids, frame, fleet_size):
        return [self.sampler(vm_id, frame) for vm_id in vm_ids]


def sampled(sc, sampler):
    """``sc`` placed, at frame 0, on a trace that ``sampler`` gives."""
    return initial_placement(sc, trace=SampledTrace(sc.seed, sampler))


def simulate_sampled(sc, sampler):
    """``simulate(sc)`` on a trace that ``sampler`` gives."""
    state = sampled(sc, sampler)
    return state, engine.run_lockstep([(state, sc)])[0]


def host_1000():
    from dcsim.model import HostState
    spec = HostSpec(id=0, mips_capacity=1000.0, ram_mb=8192.0,
                    storage_gb=1024.0, p_max_watts=250.0, idle_fraction=0.7)
    return HostState(spec=spec)


def test_share_mips_no_scaling_under_capacity():
    demands = [300.0, 400.0]
    alloc = share_mips(host_1000(), demands, 700.0)
    assert alloc == [300.0, 400.0]
    assert alloc is demands  # nothing is scaled, so nothing is copied


def test_share_mips_scales_proportionally_on_overload():
    alloc = share_mips(host_1000(), [600.0, 900.0], 1500.0)
    assert alloc[0] == pytest.approx(400.0)
    assert alloc[1] == pytest.approx(600.0)
    assert sum(alloc) == pytest.approx(1000.0)


def test_initial_placement_uses_requested_capacity():
    sc = small_scenario(vm_mips=(600.0, 600.0))
    state = initial_placement(sc)
    hosts = {vm.host_id for vm in state.vms}
    assert len(hosts) == 2  # 600 + 600 exceeds one 1000-MIPS host


def test_initial_placement_raises_when_infeasible():
    sc = small_scenario(n_hosts=1, vm_mips=(600.0, 600.0))
    with pytest.raises(InfeasibleScenarioError):
        initial_placement(sc)


def test_initial_placement_power_states_by_policy():
    managed = default_paper_scenario(policy="DVFS")
    state = initial_placement(managed)
    used = {vm.host_id for vm in state.vms}
    for host in state.hosts:
        assert host.powered_on == (host.spec.id in used)

    npa = default_paper_scenario(policy="NPA")
    state = initial_placement(npa)
    assert all(host.powered_on for host in state.hosts)


def test_single_vm_dvfs_frame_energy_and_duration():
    # 250-MIPS VM pinned at 100% on a 1000-MIPS host: P(0.25) = 193.75 W,
    # one 60 s frame is 3.2291... Wh, and 150000 MI take exactly 600 s
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    state, metrics = simulate_sampled(sc, pinned(1.0))
    assert metrics.sim_duration_s == pytest.approx(600.0)
    assert state.frames[0].energy_wh == pytest.approx(193.75 * 60.0 / 3600.0)
    assert metrics.energy_kwh == pytest.approx(10 * 193.75 * 60.0 / 3600.0 / 1000.0)


def test_single_vm_npa_draws_peak_power():
    sc = small_scenario(policy="NPA", n_hosts=1, vm_mips=(250.0,))
    state, metrics = simulate_sampled(sc, pinned(1.0))
    assert state.frames[0].energy_wh == pytest.approx(250.0 * 60.0 / 3600.0)


def test_npa_energy_equals_fleet_peak_times_duration():
    sc = default_paper_scenario(policy="NPA")
    _, metrics = run_one(sc)
    expected = sum(h.p_max_watts for h in sc.hosts) * metrics.sim_duration_s / 3.6e6
    assert math.isclose(metrics.energy_kwh, expected, rel_tol=1e-9)


def run_one(sc, run_index=0):
    return simulate(sc, seed=child_rng(sc.seed, run_index).seed)


def test_npa_and_dvfs_share_placement_and_duration():
    npa = default_paper_scenario(policy="NPA")
    dvfs = default_paper_scenario(policy="DVFS")
    _, m_npa = run_one(npa)
    _, m_dvfs = run_one(dvfs)
    assert m_npa.sim_duration_s == m_dvfs.sim_duration_s
    assert m_npa.migration_count == 0
    assert m_dvfs.migration_count == 0
    assert m_npa.energy_kwh >= m_dvfs.energy_kwh


def test_npa_dominates_dvfs_frame_by_frame():
    npa = default_paper_scenario(policy="NPA", n_hosts=20, n_vms=58)
    dvfs = default_paper_scenario(policy="DVFS", n_hosts=20, n_vms=58)
    state_n, _ = simulate(npa, seed=child_rng(42, 0).seed)
    state_d, _ = simulate(dvfs, seed=child_rng(42, 0).seed)
    assert len(state_n.frames) == len(state_d.frames)
    for fn, fd in zip(state_n.frames, state_d.frames):
        assert fn.energy_wh >= fd.energy_wh


def test_work_conservation_small():
    sc = small_scenario(policy="DVFS", vm_mips=(250.0, 500.0, 750.0))
    state, _ = simulate(sc)
    executed = sum(vm.spec.total_work_mi - vm.remaining_work_mi
                   for vm in state.vms)
    assert executed == 3 * 150000.0
    assert all(vm.remaining_work_mi == 0.0 for vm in state.vms)


def test_completed_vms_leave_their_hosts():
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    state, _ = simulate_sampled(sc, pinned(1.0))
    assert state.vms[0].host_id is None
    assert state.vms[0].demand_mips == 0.0
    assert all(not h.resident_vms for h in state.hosts)


@pytest.mark.parametrize("left,finished", [
        (15000.0, True),  # the frame's share, 250 MIPS x 60 s, is exactly the work left
        (math.nextafter(15000.0, math.inf), False)])  # the share is one ulp short of it
def test_a_vm_finishes_when_its_share_covers_its_work(left, finished):
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,), frame=60.0)
    state = sampled(sc, pinned(1.0))
    vm = state.vms[0]
    vm.remaining_work_mi = left
    step(state, sc)
    if finished:
        assert vm.remaining_work_mi == 0.0 and math.copysign(1.0, vm.remaining_work_mi) == 1.0
        assert vm.host_id is None and not state.active and not state.hosts[0].resident_vms
    else:
        assert vm.remaining_work_mi == left - 15000.0 > 0.0
        assert state.active == {0: vm} and state.hosts[0].resident_vms == [0]


def assert_consistent(state):
    placed = {}
    for host in state.hosts:
        if host.resident_vms:
            assert host.powered_on
        for v in host.resident_vms:
            assert v not in placed
            placed[v] = host.spec.id
    for vm in state.vms:
        if vm.spec.id in state.active:
            assert state.active[vm.spec.id] is vm
            assert vm.remaining_work_mi > 0.0
            assert placed[vm.spec.id] == vm.host_id
        else:
            assert vm.remaining_work_mi == 0.0
            assert vm.host_id is None
    assert placed.keys() == state.active.keys()


@pytest.mark.parametrize("policy,lo,hi", [
    ("NPA", None, None), ("DVFS", None, None), ("ST", None, 0.5),
    ("MM", 0.3, 0.7), ("HPG", 0.3, 0.7), ("RC", 0.3, 0.7),
])
def test_placement_consistency_every_frame(policy, lo, hi):
    sc = default_paper_scenario(policy=policy, lower_threshold=lo,
                                upper_threshold=hi, n_hosts=20, n_vms=58)
    state = initial_placement(sc)
    assert_consistent(state)
    while state.active:
        step(state, sc)
        assert_consistent(state)


def test_sla_accounting_on_oversubscription():
    # both VMs pinned at 100% on one 1000-MIPS host: each gets 500 of 600
    sc = small_scenario(policy="DVFS", n_hosts=2, vm_mips=(600.0, 600.0),
                        work=30000.0)
    state = sampled(sc, pinned(1.0))
    # force both onto host 0 to create the overload
    state.hosts[0].resident_vms = [0, 1]
    state.hosts[1].powered_on = False
    state.hosts[1].resident_vms = []
    for vm in state.vms:
        vm.host_id = 0
    metrics = step(state, sc)
    assert metrics.violation_events == 2
    assert metrics.measurements == 2
    # shortfall is (600-500)/600 per VM
    assert metrics.shortfall_sum == pytest.approx(2 * 100.0 / 600.0)


def test_oversubscribed_host_draws_exactly_peak_power():
    # 250.1 + 1999.3 + 1000.0 MIPS on a 1000-MIPS host: the scaled shares
    # re-sum to just under 1000, which once drew 247.29999999999998 W
    spec = HostSpec(id=0, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                    p_max_watts=247.3, idle_fraction=0.61)
    vm_specs = [VmSpec(id=i, requested_mips=m, ram_mb=128.0, storage_gb=1.0,
                       total_work_mi=150000.0) for i, m in enumerate((250.1, 1999.3, 1000.0))]
    vms = [VmState(spec=v, host_id=0, remaining_work_mi=v.total_work_mi) for v in vm_specs]
    sc = Scenario(hosts=(spec,), vms=tuple(vm_specs), policy=PolicyConfig("DVFS"),
                  frame_seconds=60.0)
    state = SimulationState(frame_index=0, hosts=[HostState(spec=spec, resident_vms=[0, 1, 2])],
                            vms=vms, rng=SeededRng(1), trace=SampledTrace(1, pinned(1.0)),
                            active={v.spec.id: v for v in vms})
    metrics = step(state, sc)
    assert metrics.violation_events == 3
    assert metrics.energy_wh == power(spec, 1.0) * 60.0 / 3600.0


def two_odd_hosts(policy, work_mi, second_on, u):
    """One VM of 250.1 MIPS on host 0 and an empty host 1, both 247.3 W with idle 0.61;
    the VM's utilization is ``u`` in every frame."""
    specs = tuple(HostSpec(id=i, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                           p_max_watts=247.3, idle_fraction=0.61) for i in range(2))
    vm_spec = VmSpec(id=0, requested_mips=250.1, ram_mb=128.0, storage_gb=1.0,
                     total_work_mi=work_mi)
    vm = VmState(spec=vm_spec, host_id=0, remaining_work_mi=work_mi)
    hosts = [HostState(spec=specs[0], resident_vms=[0]),
             HostState(spec=specs[1], powered_on=second_on)]
    sc = Scenario(hosts=specs, vms=(vm_spec,), policy=PolicyConfig(policy),
                  frame_seconds=60.0)
    return SimulationState(frame_index=0, hosts=hosts, vms=[vm], rng=SeededRng(1),
                           trace=SampledTrace(1, pinned(u)), active={0: vm}, energy_wh=0.1), sc


def test_empty_dvfs_hosts_draw_idle_when_on_and_nothing_when_off():
    # host 0's only VM finishes in frame 0; host 1 is off throughout
    state, sc = two_odd_hosts("DVFS", 15000.0, second_on=False, u=1.0)
    step(state, sc)
    assert not state.active and state.hosts[0].powered_on
    before = state.energy_wh
    step(state, sc)
    assert state.energy_wh == before + power(sc.hosts[0], 0.0) * 60.0 / 3600.0
    assert state.frames[-1].energy_wh == state.energy_wh - before


def test_empty_npa_host_draws_peak_power():
    state, sc = two_odd_hosts("NPA", 150000.0, second_on=True, u=0.5)
    step(state, sc)
    assert state.energy_wh == 0.1 + 247.3 * 60.0 / 3600.0 + 247.3 * 60.0 / 3600.0


def test_empty_hosts_are_neither_shared_nor_powered(monkeypatch):
    shared = []

    def spy(host, demands, load):
        shared.append(host.spec.id)
        return share_mips(host, demands, load)
    monkeypatch.setattr(engine, "share_mips", spy)
    # one VM on host 0; hosts 1 to 3 are empty, host 1 is on and 2 and 3 are off
    sc = small_scenario(policy="DVFS", n_hosts=4, vm_mips=(250.0,))
    state = sampled(sc, pinned(1.0))
    state.hosts[1].powered_on = True
    assert [h.powered_on for h in state.hosts] == [True, True, False, False]
    step(state, sc)
    assert shared == [0]
    # host 0 at its load, then host 1's idle draw, and nothing for hosts 2 and 3
    spec = sc.hosts[0]
    expected = accumulate(accumulate(0.0, power(spec, 250.0 / 1000.0), 60.0),
                          power(spec, 0.0), 60.0)
    assert state.frames[0].energy_wh == state.energy_wh == expected


def test_frame_that_advances_no_work_stops_the_run(monkeypatch):
    # a VM idling every frame could still run at its requested MIPS, so no
    # frame is a stall of its own; the frame limit ends the run
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    monkeypatch.setattr(engine, "MAX_FRAMES", 12)
    state = sampled(sc, pinned(0.0))
    with pytest.raises(StalledRunError, match="limit of 12 frames with 1 VM"):
        engine.run_lockstep([(state, sc)])
    assert state.frame_index == 12 and state.vms[0].remaining_work_mi == 150000.0


def test_a_frame_that_advances_nothing_after_one_that_did_stops_the_run(monkeypatch):
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    monkeypatch.setattr(engine, "MAX_FRAMES", 12)
    with pytest.raises(StalledRunError, match="limit of 12 frames with 1 VM"):
        simulate_sampled(sc, lambda vm_id, frame: 1.0 if frame == 0 else 0.0)


def test_a_vm_finishing_at_exactly_zero_is_progress(monkeypatch):
    # VM 0 does its whole 15000 MI in frame 0 (250 MIPS for 60 s) and
    # finishes with exactly 0.0 left while VM 1 idles; from frame 1 only the
    # idle VM is left, and the run goes on to its frame limit
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0, 250.0), work=15000.0)
    monkeypatch.setattr(engine, "MAX_FRAMES", 12)
    state = sampled(sc, lambda vm_id, frame: float(vm_id == 0))
    with pytest.raises(StalledRunError, match="limit of 12 frames with 1 VM"):
        engine.run_lockstep([(state, sc)])
    assert state.frame_index == 12
    assert state.vms[0].remaining_work_mi == 0.0 and list(state.active) == [1]


def test_a_shared_static_pass_stalls_as_a_run_of_its_own(monkeypatch):
    def sampler(vm_id, frame):
        return 1.0 if frame < 2 else 0.0
    sc = small_scenario(policy="DVFS", n_hosts=2, vm_mips=(250.0, 500.0))
    monkeypatch.setattr(engine, "MAX_FRAMES", 12)
    with pytest.raises(StalledRunError) as alone:
        simulate_sampled(sc, sampler)
    trace = SampledTrace(sc.seed, sampler)
    scenarios = [replace(sc, policy=PolicyConfig(kind)) for kind in ("NPA", "DVFS")]
    runs = [(initial_placement(s, trace=trace), s) for s in scenarios]
    with pytest.raises(StalledRunError) as shared:
        engine.run_lockstep(runs)
    assert runs[1][0].active is runs[0][0].active  # the two runs made one pass
    assert str(shared.value) == str(alone.value) == (
        "the run reached its limit of 12 frames with 2 VM(s) unfinished; use longer frames")
    assert [state.frame_index for state, _ in runs] == [12, 12]


def test_a_frame_in_which_every_vm_idles_is_not_a_stall():
    # under run seed 0 the keyed draw of VM 0 at frame 0 is exactly 0.0, so
    # frame 0 advances nothing; the VM can still run, and the run completes
    hosts = tuple(HostSpec(id=i, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                           p_max_watts=250.0, idle_fraction=0.7) for i in range(3))
    vms = (VmSpec(id=0, requested_mips=237.5, ram_mb=128.0, storage_gb=1.0,
                  total_work_mi=150000.0),)
    sc = Scenario(hosts=hosts, vms=vms, policy=PolicyConfig("DVFS"), seed=0)
    state = initial_placement(sc)
    step(state, sc)
    assert state.vms[0].remaining_work_mi == 150000.0
    state, metrics = simulate(sc)
    assert not state.active and state.vms[0].remaining_work_mi == 0.0
    assert metrics.sim_duration_s == state.frame_index * sc.frame_seconds > 0


def test_run_stops_at_the_frame_limit(monkeypatch):
    # at full load the VM needs exactly 10 frames of 60 s
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    monkeypatch.setattr(engine, "MAX_FRAMES", 10)
    assert simulate_sampled(sc, pinned(1.0))[0].frame_index == 10
    monkeypatch.setattr(engine, "MAX_FRAMES", 9)
    with pytest.raises(StalledRunError, match="limit of 9 frames with 1 VM"):
        simulate_sampled(sc, pinned(1.0))


def test_run_that_cannot_finish_stops_before_its_first_frame(monkeypatch):
    # at full load the VM needs exactly 10 frames of 60 s, so with 9 allowed
    # nothing is sampled
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    monkeypatch.setattr(engine, "MAX_FRAMES", 9)
    frames = []
    with pytest.raises(StalledRunError, match="limit of 9 frames with 1 VM"):
        simulate_sampled(sc, lambda vm_id, frame: frames.append(frame) or 1.0)
    assert frames == []
    # a VM just over 10 frames' work is within the rounding margin, so the
    # run is stopped at the limit, not before
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,), work=150000.0 * (1 + 1e-10))
    monkeypatch.setattr(engine, "MAX_FRAMES", 10)
    with pytest.raises(StalledRunError, match="limit of 10 frames with 1 VM"):
        simulate_sampled(sc, lambda vm_id, frame: frames.append(frame) or 1.0)
    assert frames == list(range(10))


def test_a_vm_whose_frame_rounds_to_no_work_stops_the_run_before_its_first_frame():
    # 1e-200 MIPS for 1e-200 s underflows to 0.0 MI per frame: the frame bound
    # once divided by it.  Alone, the VM leaves a run that cannot end; beside
    # a VM that can advance, one that the frame limit stops.
    hosts = (HostSpec(id=0, mips_capacity=1e201, ram_mb=8192.0, storage_gb=1024.0,
                      p_max_watts=250.0, idle_fraction=0.7),)
    slow, fast = (VmSpec(id=i, requested_mips=m, ram_mb=128.0, storage_gb=1.0, total_work_mi=1.0)
                  for i, m in enumerate((1e-200, 1e200)))
    frames = []
    for vms, message in (((slow,), "frame 0 advanced no VM's remaining work; the run cannot end"),
                         ((slow, fast),
                          "the run reached its limit of 100000 frames with 1 VM(s) unfinished; "
                          "use longer frames")):
        sc = Scenario(hosts=hosts, vms=vms, policy=PolicyConfig("DVFS"), frame_seconds=1e-200)
        assert vms[0].requested_mips * sc.frame_seconds == 0.0
        with pytest.raises(StalledRunError) as stop:
            simulate_sampled(sc, lambda vm_id, frame: frames.append(frame) or 1.0)
        assert str(stop.value) == message and frames == []


def test_runs_sharing_a_trace_must_step_in_lockstep():
    sc = small_scenario(policy="DVFS", n_hosts=2, vm_mips=(250.0, 500.0))
    trace = WorkloadTrace(sc.seed)
    ahead, behind = (initial_placement(sc, trace=trace) for _ in range(2))
    step(ahead, sc)
    step(behind, sc)
    step(ahead, sc)
    step(ahead, sc)
    with pytest.raises(RuntimeError, match="run at frame 1 shares a workload trace at frame 2"):
        step(behind, sc)


def test_only_static_runs_share_a_frame_pass():
    trace = WorkloadTrace(42)
    mm = replace(small_scenario(), policy=PolicyConfig("MM", 0.3, 0.7))
    dvfs = small_scenario(policy="DVFS")
    runs = [(initial_placement(sc, trace=trace), sc) for sc in (mm, dvfs)]
    for lead, other in (runs, runs[::-1]):
        with pytest.raises(ValueError, match="only static runs can share a frame pass"):
            step(*lead, sharing=[other])


def test_simulation_is_deterministic():
    sc = default_paper_scenario(policy="MM", lower_threshold=0.3,
                                upper_threshold=0.7, n_hosts=30, n_vms=87)
    a = simulate(sc, seed=child_rng(sc.seed, 0).seed)[1]
    b = simulate(sc, seed=child_rng(sc.seed, 0).seed)[1]
    assert a == b


def test_runs_differ_across_child_seeds():
    sc = default_paper_scenario(policy="ST", upper_threshold=0.5,
                                n_hosts=30, n_vms=87)
    a = simulate(sc, seed=child_rng(sc.seed, 0).seed)[1]
    b = simulate(sc, seed=child_rng(sc.seed, 1).seed)[1]
    assert a != b


class CountingRng(SeededRng):
    """A SeededRng that counts its keyed and its sequential draws."""

    keyed = sequential = 0

    def next_u64(self):
        self.sequential += 1
        return super().next_u64()

    def keyed_u01(self, *keys):
        self.keyed += 1
        return super().keyed_u01(*keys)


class CountingTrace(WorkloadTrace):
    """A WorkloadTrace that counts the keyed draws it makes: every VM asked for on
    the first call at a frame, later each that ``current`` holds as None."""

    keyed = 0

    def utilizations(self, vm_ids, frame, fleet_size):
        fresh = self.frame != frame or len(self.current) != fleet_size
        self.keyed += sum(1 for v in vm_ids if fresh or self.current[v] is None)
        return super().utilizations(vm_ids, frame, fleet_size)


def run_counting_draws(sc):
    state = initial_placement(sc)
    state.rng = CountingRng(state.rng.seed)  # the same, still unused, stream
    state.trace = CountingTrace(state.rng.seed)  # the same, still unused, trace
    while state.active:
        step(state, sc)
    return state


def test_one_keyed_draw_per_active_vm_per_frame():
    state = run_counting_draws(default_paper_scenario(policy="DVFS", n_hosts=20, n_vms=58))
    assert state.rng.keyed + state.trace.keyed == sum(f.measurements for f in state.frames)
    assert state.rng.sequential == 0


def test_rc_consumes_extra_draws_only_when_selecting():
    state = run_counting_draws(default_paper_scenario(
        policy="RC", lower_threshold=0.3, upper_threshold=0.7, n_hosts=20, n_vms=58))
    assert state.rng.keyed + state.trace.keyed == sum(f.measurements for f in state.frames)
    assert state.rng.sequential > 0


def test_a_run_refuses_a_trace_of_another_seed():
    # sharing it would hand the run another seed's workload
    sc = small_scenario(vm_mips=(250.0, 500.0))
    plan = engine.place_fleet(sc)
    with pytest.raises(ValueError, match="run of seed 7 cannot share a workload trace of seed 8"):
        placed_state(sc, plan, seed=7, trace=WorkloadTrace(8))
    with pytest.raises(ValueError, match="run of seed 42 cannot share"):
        initial_placement(sc, trace=WorkloadTrace(child_rng(42, 0).seed))
    trace = WorkloadTrace(7)
    assert placed_state(sc, plan, seed=7, trace=trace).trace is trace
    assert placed_state(sc, plan, seed=7).trace.seed == 7


def test_runs_on_fleets_of_two_sizes_cannot_share_a_trace():
    # the second run would turn the trace over to its own fleet at frame 0,
    # and the first would then walk from the second's draws
    trace = WorkloadTrace(42)
    dvfs = default_paper_scenario("DVFS", n_hosts=10, n_vms=29)
    mm = default_paper_scenario("MM", 0.3, 0.7, n_hosts=10, n_vms=20)
    state = placed_state(dvfs, engine.place_fleet(dvfs), trace=trace)
    with pytest.raises(ValueError, match="of 20 VMs cannot share a workload trace of 29 VMs"):
        placed_state(mm, engine.place_fleet(mm), trace=trace)
    # nothing was drawn, and the first run goes on alone
    assert trace.current == [] and engine.run_lockstep([(state, dvfs)]) == [simulate(dvfs)[1]]


def test_sampler_is_called_host_by_host_in_resident_order():
    sc = default_paper_scenario(policy="MM", lower_threshold=0.3, upper_threshold=0.7,
                                n_hosts=12, n_vms=36)
    calls = []
    state = sampled(sc, lambda v, f: calls.append((v, f)) or (v * 37 + f) % 100 / 100)
    for _ in range(5):
        expected = [(v, state.frame_index) for h in state.hosts for v in h.resident_vms]
        calls.clear()
        step(state, sc)
        assert calls == expected


def test_every_binding_the_benchmark_traces_resolves():
    # perfbench/tracing.py wraps each (module, attribute path) of TRACED; one
    # that dcsim no longer binds is otherwise seen only in the traced pass
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module, attr_path, _ in tracing.TRACED:
        owner = importlib.import_module(module)
        for attr in attr_path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append("%s.%s" % (module, attr_path))
    assert tracing.TRACED and missing == []


def test_frame_clock_advances_by_frame_seconds():
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,), frame=30.0)
    state = sampled(sc, pinned(1.0))
    step(state, sc)
    assert state.frame_index == 1


def test_zero_utilization_frames_make_no_progress():
    sc = small_scenario(policy="DVFS", n_hosts=1, vm_mips=(250.0,))
    state = sampled(sc, pinned(0.0))
    step(state, sc)
    assert state.vms[0].remaining_work_mi == 150000.0
    # an idle powered-on host still draws idle power
    assert state.frames[0].energy_wh == pytest.approx(175.0 * 60.0 / 3600.0)
