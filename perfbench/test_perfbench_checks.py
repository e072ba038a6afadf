"""The benchmark's checks pass on dcsim's real output and flag broken output."""

import math

import pytest

import checks
import tracing
from checks import HostView, PlacementCall, RunRecord, VmView
from workloads import Workload

import dcsim
import dcsim.engine
from dcsim.cli import main as dcsim_main

TINY = Workload(name="tiny",
                cli_args=("--policy", "NPA", "--policy", "MM", "--lower", "30", "--upper", "70",
                          "--hosts", "10", "--vms", "29", "--runs", "3"),
                rows=(("NPA", None, None), ("MM", 0.3, 0.7)),
                runs=3, hosts=10, vms=29, frame_seconds=30.0)


def host(id, cap, load=0.0, on=True, ram=8192.0):
    return HostView(id=id, mips_capacity=cap, p_max_watts=250.0, idle_fraction=0.7,
                    powered_on=on, cpu_demand_mips=load, ram_free_mb=ram, storage_free_gb=1024.0)


def vm(id, demand):
    return VmView(id=id, demand_mips=demand, ram_mb=128.0, storage_gb=1.0)


def call(vms, hosts, assignments, unplaced=(), upper=1.0, allow_power_on=True, excluded=()):
    return PlacementCall(vms=tuple(vms), hosts=tuple(hosts), upper_threshold=upper,
                         allow_power_on=allow_power_on, excluded_hosts=frozenset(excluded),
                         assignments=assignments, unplaced=frozenset(unplaced))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The tiny workload's report and the traced-pass records of each run."""
    out = tmp_path_factory.mktemp("tiny") / "report.csv"
    assert dcsim_main(TINY.argv(7, out)) == 0
    runs_per_row = []
    for kind, lower, upper in TINY.rows:
        scenario = dcsim.default_paper_scenario(policy=kind, lower_threshold=lower,
                                                upper_threshold=upper, seed=7, runs=3,
                                                n_hosts=10, n_vms=29)
        records = []
        for i in range(TINY.runs):
            state, m = dcsim.engine.simulate(scenario, seed=dcsim.child_rng(7, i).seed)
            records.append(RunRecord(m.energy_kwh, m.sla_violation_pct, m.migration_count,
                                     m.avg_sla_pct, m.sim_duration_s,
                                     math.fsum(v.spec.total_work_mi - v.remaining_work_mi
                                               for v in state.vms)))
        runs_per_row.append(records)
    fleet = checks.Fleet.of(dcsim.default_paper_scenario(n_hosts=10, n_vms=29))
    return out.read_bytes(), runs_per_row, fleet


def test_real_report_and_runs_pass(tiny_run):
    report, runs_per_row, fleet = tiny_run
    rows, problems = checks.parse_report(report, TINY, 7)
    assert problems == []
    assert checks.check_report(rows, fleet) == []
    assert checks.check_report_matches_runs(rows, runs_per_row) == []
    for (kind, _, _), records in zip(TINY.rows, runs_per_row):
        for record in records:
            assert checks.check_run(kind, record, fleet) == []


def test_swapped_mean_is_flagged(tiny_run):
    report, runs_per_row, _ = tiny_run
    rows, _ = checks.parse_report(report, TINY, 7)
    rows[0]["energy_kwh_mean"], rows[1]["energy_kwh_mean"] = (rows[1]["energy_kwh_mean"],
                                                              rows[0]["energy_kwh_mean"])
    problems = checks.check_report_matches_runs(rows, runs_per_row)
    assert len(problems) == 2 and all("energy_kwh_mean" in p for p in problems)


def test_std_off_in_last_printed_place_is_flagged(tiny_run):
    report, runs_per_row, _ = tiny_run
    rows, _ = checks.parse_report(report, TINY, 7)
    rows[1]["migrations_std"] = "%.6f" % (float(rows[1]["migrations_std"]) + 2e-6)
    assert checks.check_report_matches_runs(rows, runs_per_row) != []


def test_wrong_seed_row_or_header_is_flagged(tiny_run):
    report, _, _ = tiny_run
    assert checks.parse_report(report, TINY, 8)[1] != []
    text = report.decode()
    assert checks.parse_report(text.replace("NPA", "DVFS").encode(), TINY, 7)[1] != []
    assert checks.parse_report(text.replace("energy_kwh_mean", "energy").encode(), TINY, 7)[1]
    lines = text.splitlines(keepends=True)
    assert checks.parse_report("".join(lines[:-1]).encode(), TINY, 7)[1] != []


def test_report_energy_out_of_bounds_is_flagged(tiny_run):
    report, _, fleet = tiny_run
    rows, _ = checks.parse_report(report, TINY, 7)
    npa = dict(rows[0], energy_kwh_mean="%.6f" % (float(rows[0]["energy_kwh_mean"]) * 0.99))
    assert any("NPA mean energy" in p for p in checks.check_report([npa], fleet))
    mm = dict(rows[1], energy_kwh_mean="0.000001")
    assert any("outside" in p for p in checks.check_report([mm], fleet))
    static = dict(rows[0], migrations_mean="1")
    assert any("migrated" in p for p in checks.check_report([static], fleet))


def test_one_lost_mi_is_flagged(tiny_run):
    _, runs_per_row, fleet = tiny_run
    record = runs_per_row[1][0]
    lost = RunRecord(**dict(vars(record), executed_mi=record.executed_mi - 1.0))
    assert any("executed" in p for p in checks.check_run("MM", lost, fleet))


def test_npa_energy_and_static_migrations_are_flagged(tiny_run):
    _, runs_per_row, fleet = tiny_run
    npa = runs_per_row[0][0]
    assert checks.check_run("NPA", RunRecord(**dict(vars(npa), energy_kwh=npa.energy_kwh
                                                    * (1 + 1e-8))), fleet) != []
    assert checks.check_run("NPA", RunRecord(**dict(vars(npa), migration_count=1)), fleet) != []


def test_placement_on_costlier_feasible_host_is_flagged():
    # slope 0.075 W/MIPS on the 1000-MIPS host, 0.025 on the 3000-MIPS host
    hosts = [host(0, 1000.0, load=100.0), host(1, 3000.0, load=100.0)]
    assert checks.check_placement(call([vm(0, 250.0)], hosts, {0: 1})) == []
    problems = checks.check_placement(call([vm(0, 250.0)], hosts, {0: 0}))
    assert len(problems) == 1 and "adds" in problems[0]


def test_ties_pass_under_any_rule():
    # equal slopes: both running hosts add exactly 18.75 W
    hosts = [host(0, 1000.0, load=433.9), host(1, 1000.0, load=120.7)]
    for dest in (0, 1):
        assert checks.check_placement(call([vm(0, 250.0)], hosts, {0: dest})) == []


@pytest.mark.parametrize("kwargs,assignments", [
    (dict(upper=0.5), {0: 0}),                   # 300 + 250 > 0.5 x 1000
    (dict(excluded=(1,)), {0: 1}),
    (dict(allow_power_on=False), {0: 2}),        # host 2 is off
])
def test_infeasible_assignment_is_flagged(kwargs, assignments):
    hosts = [host(0, 1000.0, load=300.0), host(1, 2000.0, load=300.0), host(2, 3000.0, on=False)]
    problems = checks.check_placement(call([vm(0, 250.0)], hosts, assignments, **kwargs))
    assert any("infeasible" in p for p in problems)


def test_ram_is_respected_and_commits_carry_over():
    hosts = [host(0, 3000.0, ram=200.0), host(1, 1000.0)]
    # the first VM takes host 0's RAM, so the second must go to host 1
    assert checks.check_placement(call([vm(0, 500.0), vm(1, 400.0)], hosts, {0: 0, 1: 1})) == []
    assert checks.check_placement(call([vm(0, 500.0), vm(1, 400.0)], hosts, {0: 0, 1: 0})) != []


def test_unplaced_vm_with_a_feasible_host_is_flagged():
    hosts = [host(0, 1000.0)]
    assert checks.check_placement(call([vm(0, 250.0)], hosts, {}, unplaced=(0,))) != []
    assert checks.check_placement(call([vm(0, 250.0)], hosts, {0: 0}, unplaced=(0,))) != []
    full = [host(0, 1000.0, load=900.0)]
    assert checks.check_placement(call([vm(0, 250.0)], full, {}, unplaced=(0,))) == []


def test_real_mbfd_passes_on_a_mixed_fleet():
    rng = dcsim.SeededRng(11)
    for _ in range(30):
        snaps = [dcsim.HostSnapshot(id=i, mips_capacity=1000.0 * (1 + rng.randbelow(3)),
                                    p_max_watts=200.0 + 100.0 * rng.next_u01(),
                                    idle_fraction=0.5 + 0.3 * rng.next_u01(),
                                    powered_on=rng.randbelow(3) > 0,
                                    cpu_demand_mips=0.0, ram_free_mb=8192.0,
                                    storage_free_gb=1024.0)
                 for i in range(8)]
        for s in snaps:
            if s.powered_on:
                s.cpu_demand_mips = 0.6 * s.mips_capacity * rng.next_u01()
        reqs = [dcsim.VmRequest(id=i, demand_mips=1000.0 * rng.next_u01(), ram_mb=128.0,
                                storage_gb=1.0) for i in range(1 + rng.randbelow(12))]
        upper = 0.6 + 0.4 * rng.next_u01()
        plan = dcsim.mbfd(dcsim.PlacementRequest(vms=reqs, hosts=snaps, upper_threshold=upper))
        observed = call([vm_view(r) for r in reqs], [host_view(s) for s in snaps],
                        dict(plan.assignments), plan.unplaced, upper=upper)
        assert checks.check_placement(observed, max_checked_vms=100) == []


def vm_view(r):
    return VmView(r.id, r.demand_mips, r.ram_mb, r.storage_gb)


def host_view(s):
    return HostView(s.id, s.mips_capacity, s.p_max_watts, s.idle_fraction, s.powered_on,
                    s.cpu_demand_mips, s.ram_free_mb, s.storage_free_gb)


def test_mm_selection_oracle():
    # excess 1200 - 700 = 500: the single 600 suffices
    assert checks.check_mm_selection([100.0, 500.0, 600.0], 1000.0, 0.7, [600.0]) == []
    assert checks.check_mm_selection([100.0, 500.0, 600.0], 1000.0, 0.7, [100.0, 500.0]) != []
    assert checks.check_mm_selection([100.0, 500.0, 600.0], 1000.0, 0.7, [100.0]) != []


def test_self_time_is_duration_minus_children(monkeypatch):
    clock = iter(range(0, 1000, 10))
    monkeypatch.setattr(tracing, "_now", lambda: next(clock))
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None, leaf=True)
    inner = tracer.wrap("inner", lambda: leaf(), leaf=False)
    outer = tracer.wrap("outer", lambda: (inner(), leaf()), leaf=False)
    outer()
    # clock reads: outer 0, inner 10, leaf 20-30, inner 40, leaf 50-60, outer 70
    assert tracer.totals == {"leaf": [2, 20, 20], "inner": [1, 30, 20], "outer": [1, 70, 30]}
    assert tracer.spans == [("outer", 0, 70, -1), ("inner", 10, 40, 0)]


def test_missing_function_is_named_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", (
        ("engine.step", "dcsim.engine", "step", False),
        ("power.accumulate", "dcsim.engine", "no_such_function", True)))
    original = dcsim.engine.step
    tracer = tracing.Tracer()
    restore, missing = tracing.instrument(tracer)
    try:
        assert missing == ["dcsim.engine.no_such_function"]
        assert dcsim.engine.step is not original
        assert set(tracer.totals) == {"engine.step"}
    finally:
        restore()
    assert dcsim.engine.step is original
