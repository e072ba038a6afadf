"""Committed report bytes that a change to the simulator must reproduce.

The first two golden CSVs were written by the command lines below before
the placement kernel was rewritten for speed, so byte equality shows that
a speed-up changed no statistic.  The third, a config file with a
``[sweep]`` grid plus command line overrides, was written by the commit
before the one that made the command line build its Scenario in a single
step, so it pins that refactor too.  The fourth runs a mixed fleet (hosts
that differ in peak power, idle fraction and RAM; VMs with non-round
MIPS, RAM and storage) through the library; it was written by the commit
before the one that folded the engine's per-frame host and VM passes into
one.  The fifth, the static rows on 5 s frames, was written by the commit
before the one that made static rows on one trace share a frame pass.
A change that alters results on
purpose (such as the exact tie rule for placement in ROADMAP item 1)
regenerates them with the same command lines and says so.

The mixed fleet also checks that the rows of a run index, which run in
lockstep on one shared workload trace, equal independent runs, and that
static rows sharing one frame pass keep every bit of their own energy.
``tools/check_goldens.py`` runs the byte-comparing cases under other
interpreters.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dcsim.cli import ExperimentSpec, emit_report, main, run_experiment
from dcsim import engine
from dcsim.engine import WorkloadTrace, initial_placement, run_lockstep, simulate
from dcsim.model import HostSpec, PolicyConfig, RunMetrics, Scenario, VmSpec
from dcsim.workload import SeededRng, child_rng

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    # the paper's seven-row experiment, as the benchmark's paper-default runs it
    ("paper_default_runs2_seed42.csv", ["--runs", "2", "--seed", "42"]),
    # the two-threshold policies, whose relief and evacuation passes call MBFD
    ("two_threshold_30_70_hosts30_seed42.csv",
     ["--policy", "MM", "--policy", "HPG", "--policy", "RC", "--lower", "30", "--upper", "70",
      "--hosts", "30", "--vms", "87", "--runs", "2", "--seed", "42"]),
    # config-file policies and [sweep] expansion, with flags over the config scalars
    ("sweep_mixed_runs2_hosts40_seed42.csv",
     ["--config", str(GOLDEN / "sweep_mixed.cfg"), "--runs", "2", "--hosts", "40",
      "--vms", "116", "--seed", "42"]),
    # the static rows on 5 s frames, as the benchmark's static-fine runs them
    ("static_fine_runs2_seed42.csv",
     ["--policy", "NPA", "--policy", "DVFS", "--frame-seconds", "5", "--runs", "2",
      "--seed", "42"]),
]


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_bytes(tmp_path, name, args):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _mixed_fleet():
    """12 hosts and 36 VMs, each attribute cycling through its own classes."""
    hosts = tuple(HostSpec(id=i, mips_capacity=(1000.0, 2000.0, 3000.0)[i % 3],
                           ram_mb=(4096.0, 8192.0, 6144.5)[i % 3], storage_gb=1024.0,
                           p_max_watts=(171.3, 250.0, 312.7, 198.4)[i % 4],
                           idle_fraction=(0.55, 0.7, 0.63)[i % 3])
                  for i in range(12))
    vms = tuple(VmSpec(id=i, requested_mips=(237.5, 512.3, 761.9, 998.1)[i % 4],
                       ram_mb=(128.0, 256.5, 512.0)[i % 3], storage_gb=(1.0, 2.5)[i % 2],
                       total_work_mi=150000.0)
                for i in range(36))
    return Scenario(hosts=hosts, vms=vms, policy=PolicyConfig("NPA"), seed=42, runs=3)


# one row of every policy kind
MIXED_ROWS = ([PolicyConfig("NPA"), PolicyConfig("DVFS"), PolicyConfig("ST", upper_threshold=0.55)]
              + [PolicyConfig(kind, 0.3, 0.7) for kind in ("MM", "HPG", "RC")])


def test_mixed_fleet_report_matches_golden_bytes():
    spec = ExperimentSpec(scenario=_mixed_fleet(), policies=MIXED_ROWS)
    assert emit_report(spec, run_experiment(spec)) == (
        GOLDEN / "mixed_fleet_runs3_seed42.csv").read_bytes()


# Each kind's run of the mixed fleet at seed 42, recorded before empty hosts
# were charged without ``share_mips`` and ``host_power``: the goldens round
# to six places, so only the exact sum can show a change in its last bit.
MIXED_EXACT = {
    "NPA": ("0x1.dddae147ae138p+10", RunMetrics(
        energy_kwh=1.9114199999999963, sla_violation_pct=0.0, migration_count=0,
        avg_sla_pct=0.0, sim_duration_s=2460.0)),
    "DVFS": ("0x1.3d5d639ab1bedp+10", RunMetrics(
        energy_kwh=1.2694592043624682, sla_violation_pct=0.0, migration_count=0,
        avg_sla_pct=0.0, sim_duration_s=2460.0)),
    "ST": ("0x1.debdb7464e7f6p+7", RunMetrics(
        energy_kwh=0.2393705388995001, sla_violation_pct=0.0, migration_count=375,
        avg_sla_pct=0.0, sim_duration_s=2460.0)),
    "MM": ("0x1.c1e5ebc11ba65p+7", RunMetrics(
        energy_kwh=0.2249490642877819, sla_violation_pct=1.6348773841961852,
        migration_count=40, avg_sla_pct=4.274989328917844, sim_duration_s=2460.0)),
    "HPG": ("0x1.e559ee1a96484p+7", RunMetrics(
        energy_kwh=0.24267564471325398, sla_violation_pct=0.8181818181818182,
        migration_count=73, avg_sla_pct=7.083575629287187, sim_duration_s=2460.0)),
    "RC": ("0x1.b6770fe55dae4p+7", RunMetrics(
        energy_kwh=0.21923254315155566, sla_violation_pct=1.2727272727272727,
        migration_count=47, avg_sla_pct=2.7779113393983756, sim_duration_s=2460.0)),
}


@pytest.mark.parametrize("row", MIXED_ROWS, ids=[row.kind for row in MIXED_ROWS])
def test_mixed_fleet_energy_keeps_its_bits(row):
    state, metrics = simulate(replace(_mixed_fleet(), policy=row))
    energy_hex, expected = MIXED_EXACT[row.kind]
    assert state.energy_wh.hex() == energy_hex
    assert metrics == expected


def _assert_rows_equal_independent_runs(scenario, rows):
    runs = run_experiment(ExperimentSpec(scenario=scenario, policies=rows))
    assert len(runs) == len(rows)
    for policy, row_runs in zip(rows, runs):
        independent = [simulate(replace(scenario, policy=policy),
                                seed=child_rng(scenario.seed, i).seed)[1]
                       for i in range(scenario.runs)]
        assert row_runs == independent, policy


def test_rows_sharing_a_trace_equal_independent_runs():
    # the rows of a run index share one workload trace; RC's row also
    # shows that its sequential draws are untouched by the sharing
    _assert_rows_equal_independent_runs(_mixed_fleet(), MIXED_ROWS)


NPA, DVFS, ST, MM, HPG, RC = MIXED_ROWS
ROW_SETS = {
    "interleaved": [ST, DVFS, MM, NPA, DVFS],
    "npa-first": [NPA, MM, DVFS],
    "one-static": [MM, NPA, RC],
}


@pytest.mark.parametrize("rows", ROW_SETS.values(), ids=ROW_SETS.keys())
def test_static_rows_sharing_a_pass_equal_independent_runs(rows):
    # two thirds of the VMs, so that DVFS keeps four hosts off and NPA none
    scenario = replace(_mixed_fleet(), vms=_mixed_fleet().vms[:24])
    _assert_rows_equal_independent_runs(scenario, rows)
    # the same rows through run_lockstep, state by state
    seed = child_rng(scenario.seed, 1).seed
    trace = WorkloadTrace(seed, len(scenario.vms))
    states = [initial_placement(replace(scenario, policy=row), trace) for row in rows]
    for state, metrics in zip(states, run_lockstep(states)):
        sc = state.scenario
        alone, expected = simulate(sc, seed=seed)
        assert state.energy_wh.hex() == alone.energy_wh.hex(), sc.policy
        assert state.frame_index == alone.frame_index
        assert state.frames == alone.frames
        assert metrics == expected
        # a run that shared a pass ends with every VM finished, as its own does
        assert not state.active and not any(h.resident_vms for h in state.hosts)
        assert [vm.remaining_work_mi for vm in state.vms] == [0.0] * len(alone.vms)


def test_static_runs_share_a_pass_only_when_placed_alike():
    # a VM with other work left, frames of another length, a VM on another
    # host, another trace
    scenario = _mixed_fleet()
    dvfs, n_vms = replace(scenario, policy=DVFS), len(scenario.vms)
    trace = WorkloadTrace(scenario.seed, n_vms)
    states = [initial_placement(sc, trace)
              for sc in (dvfs, dvfs, replace(scenario, policy=NPA, frame_seconds=45.0), dvfs)]
    states[1].vms[5].remaining_work_mi = 100000.0
    moved = states[3]
    src = next(h for h in moved.hosts if len(h.resident_vms) > 1)
    dst = next(h for h in moved.hosts
               if h.powered_on and h.spec.p_max_watts != src.spec.p_max_watts)
    vm_id = src.resident_vms.pop()
    dst.resident_vms.append(vm_id)
    moved.vms[vm_id].host_id = dst.spec.id
    states.append(initial_placement(dvfs, WorkloadTrace(7, n_vms)))
    alone = []
    for state in states:
        copy = initial_placement(state.scenario, WorkloadTrace(state.trace.seed, n_vms))
        for host, placed in zip(copy.hosts, state.hosts):
            host.resident_vms = list(placed.resident_vms)
        for vm, placed in zip(copy.vms, state.vms):
            vm.host_id, vm.remaining_work_mi = placed.host_id, placed.remaining_work_mi
        alone.append((run_lockstep([copy])[0], copy.energy_wh.hex(), copy.frames))
    assert [(m, state.energy_wh.hex(), state.frames)
            for state, m in zip(states, run_lockstep(states))] == alone


def test_static_rows_make_one_host_pass(monkeypatch):
    # a frame's pass over the hosts asks the trace for their residents once
    calls = []
    utilizations = WorkloadTrace.utilizations
    monkeypatch.setattr(WorkloadTrace, "utilizations",
                        lambda *args: calls.append(1) or utilizations(*args))

    def host_passes(rows):
        calls.clear()
        run_experiment(ExperimentSpec(scenario=_mixed_fleet(), policies=rows))
        return len(calls)

    dvfs, mm = host_passes([DVFS]), host_passes([MM])
    assert dvfs > 0 and mm > 0
    assert host_passes([NPA, DVFS]) == dvfs
    assert host_passes([DVFS, MM, NPA, DVFS]) == dvfs + mm


def test_each_vm_frame_is_drawn_once_per_run_index(monkeypatch):
    # a draw is a keyed_u01 call or a VM that WorkloadTrace.utilizations must
    # draw: any on the first call at a frame, later one that the trace's
    # ``current`` holds as None
    draws = []
    keyed_u01, utilizations = SeededRng.keyed_u01, WorkloadTrace.utilizations

    def counting(rng, *keys):
        draws.append((rng.seed,) + keys)
        return keyed_u01(rng, *keys)

    def counting_utilizations(trace, vm_ids, frame):
        fresh = trace.frame != frame
        draws.extend((trace.seed, v, frame) for v in vm_ids
                     if fresh or trace.current[v] is None)
        return utilizations(trace, vm_ids, frame)

    monkeypatch.setattr(SeededRng, "keyed_u01", counting)
    monkeypatch.setattr(WorkloadTrace, "utilizations", counting_utilizations)
    scenario = _mixed_fleet()
    run_experiment(ExperimentSpec(scenario=scenario, policies=MIXED_ROWS))
    assert len(draws) == len(set(draws))
    assert {seed for seed, _, _ in draws} == {child_rng(scenario.seed, i).seed
                                             for i in range(scenario.runs)}


def test_golden_matrix_script_reports_an_interpreter_that_cannot_run(tmp_path):
    # the byte checks themselves are the in-process tests above
    script = Path(__file__).resolve().parents[1] / "tools" / "check_goldens.py"
    missing = str(tmp_path / "python3.99")
    proc = subprocess.run([sys.executable, str(script), missing], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout.startswith("%s: could not run: " % missing)
    assert proc.stderr == "no interpreter could run\n"
