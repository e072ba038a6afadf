"""Domain type validation and the default evaluation fleet."""

import pytest

from dcsim.model import (HOST_MIPS_CLASSES, VM_MIPS_CLASSES, FrameMetrics,
                         HostSpec, HostState, MigrationPlan, PlacementPlan,
                         PolicyConfig, RunMetrics, Scenario, VmSpec, VmState,
                         add_up, default_paper_scenario)


def host_spec(**kw):
    base = dict(id=0, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                p_max_watts=250.0, idle_fraction=0.7)
    base.update(kw)
    return HostSpec(**base)


def vm_spec(**kw):
    base = dict(id=0, requested_mips=250.0, ram_mb=128.0, storage_gb=1.0,
                total_work_mi=150000.0)
    base.update(kw)
    return VmSpec(**base)


@pytest.mark.parametrize("field,value", [
    ("mips_capacity", 0.0), ("ram_mb", -1.0), ("storage_gb", 0.0),
    ("p_max_watts", 0.0), ("idle_fraction", 1.5),
])
def test_host_spec_validation(field, value):
    with pytest.raises(ValueError):
        host_spec(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("requested_mips", 0.0), ("total_work_mi", -1.0),
])
def test_vm_spec_validation(field, value):
    with pytest.raises(ValueError):
        vm_spec(**{field: value})


# NaN and inf once passed every ``<= 0`` check: a VM of NaN RAM was placed
# as if it needed none
NON_FINITE = pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])


@NON_FINITE
@pytest.mark.parametrize("field", ["mips_capacity", "ram_mb", "storage_gb", "p_max_watts"])
def test_host_spec_rejects_a_non_finite_size(field, value):
    with pytest.raises(ValueError, match="%s.* finite" % field):
        host_spec(**{field: value})


@NON_FINITE
@pytest.mark.parametrize("field", ["requested_mips", "total_work_mi", "ram_mb", "storage_gb"])
def test_vm_spec_rejects_a_non_finite_size(field, value):
    with pytest.raises(ValueError, match="%s.* finite" % field):
        vm_spec(**{field: value})


@pytest.mark.parametrize("field", ["ram_mb", "storage_gb"])
def test_vm_spec_rejects_a_negative_size(field):
    with pytest.raises(ValueError, match="%s must be non-negative" % field):
        vm_spec(**{field: -5000.0})
    # a VM may need no RAM or storage at all
    assert getattr(vm_spec(**{field: 0.0}), field) == 0.0


def test_add_up_rounds_after_each_term_left_to_right():
    # a compensated or exact sum gives 2.0; rounding after each term loses both 1.0s
    assert add_up([1e16, 1.0, 1.0, -1e16]) == 0.0
    assert add_up([1e16, -1e16, 1.0, 1.0]) == 2.0
    assert add_up(iter([])) == 0.0 and isinstance(add_up([]), float)


def test_host_state_off_host_cannot_hold_vms():
    with pytest.raises(ValueError):
        HostState(spec=host_spec(), powered_on=False, resident_vms=[1])


def test_host_state_rejects_duplicate_residents():
    with pytest.raises(ValueError):
        HostState(spec=host_spec(), resident_vms=[1, 1])


def test_vm_state_demand_bounded_by_request():
    with pytest.raises(ValueError):
        VmState(spec=vm_spec(), demand_mips=300.0, remaining_work_mi=1.0)


def test_vm_state_completed_cannot_be_placed():
    with pytest.raises(ValueError, match="finished VM cannot be placed"):
        VmState(spec=vm_spec(), host_id=3, remaining_work_mi=0.0)


def test_placement_plan_disjointness():
    with pytest.raises(ValueError):
        PlacementPlan(assignments={1: 0}, unplaced={1})


def test_migration_plan_rejects_duplicate_vm():
    with pytest.raises(ValueError):
        MigrationPlan(moves=[(1, 0, 2), (1, 2, 3)])


def test_migration_plan_rejects_no_op_move():
    with pytest.raises(ValueError):
        MigrationPlan(moves=[(1, 2, 2)])


def test_frame_metrics_violations_bounded_by_measurements():
    with pytest.raises(ValueError):
        FrameMetrics(frame_index=0, energy_wh=1.0, violation_events=3,
                     measurements=2, shortfall_sum=0.0, migrations=0)


def test_frame_metrics_shortfall_bounded_by_violations():
    with pytest.raises(ValueError):
        FrameMetrics(frame_index=0, energy_wh=1.0, violation_events=1,
                     measurements=2, shortfall_sum=1.5, migrations=0)


def test_run_metrics_percent_ranges():
    with pytest.raises(ValueError):
        RunMetrics(energy_kwh=1.0, sla_violation_pct=101.0, migration_count=0,
                   avg_sla_pct=0.0, sim_duration_s=1.0)


def _mk_scenario(policy="NPA", lower_threshold=None, upper_threshold=None, **kw):
    return Scenario(hosts=(host_spec(),), vms=(vm_spec(),),
                    policy=PolicyConfig(policy, lower_threshold, upper_threshold), **kw)


def test_scenario_two_threshold_policies_require_both_thresholds():
    with pytest.raises(ValueError):
        _mk_scenario(policy="MM", upper_threshold=0.7)
    with pytest.raises(ValueError):
        _mk_scenario(policy="HPG", lower_threshold=0.3)


def test_scenario_threshold_ordering():
    with pytest.raises(ValueError):
        _mk_scenario(policy="MM", lower_threshold=0.7, upper_threshold=0.3)


def test_scenario_st_requires_upper_only():
    _mk_scenario(policy="ST", upper_threshold=0.5)
    with pytest.raises(ValueError):
        _mk_scenario(policy="ST")
    with pytest.raises(ValueError, match="ST takes no lower threshold"):
        _mk_scenario(policy="ST", lower_threshold=0.3, upper_threshold=0.5)


@pytest.mark.parametrize("policy", ["NPA", "DVFS"])
def test_scenario_static_policies_take_no_thresholds(policy):
    _mk_scenario(policy=policy)
    with pytest.raises(ValueError, match="takes no thresholds"):
        _mk_scenario(policy=policy, lower_threshold=0.3, upper_threshold=0.7)
    with pytest.raises(ValueError, match="takes no thresholds"):
        _mk_scenario(policy=policy, upper_threshold=0.5)


def test_scenario_rejects_unknown_policy():
    with pytest.raises(ValueError):
        _mk_scenario(policy="FIFO")


def test_scenario_rejects_bad_frame_and_runs():
    with pytest.raises(ValueError):
        _mk_scenario(frame_seconds=0.0)
    with pytest.raises(ValueError):
        _mk_scenario(runs=0)


@pytest.mark.parametrize("frame_seconds", [float("nan"), float("inf"), -float("inf")])
def test_scenario_rejects_non_finite_frame(frame_seconds):
    with pytest.raises(ValueError, match="finite"):
        _mk_scenario(frame_seconds=frame_seconds)


@pytest.mark.parametrize("hosts,vms,message", [
    ((), (vm_spec(),), "at least one host"),
    ((host_spec(),), (), "at least one VM"),
    # two hosts sharing id 0 once put both VMs on one host
    ((host_spec(), host_spec()), (vm_spec(id=0), vm_spec(id=1)), "host ids"),
    ((host_spec(id=1), host_spec(id=0)), (vm_spec(),), "host ids"),
    ((host_spec(),), (vm_spec(id=1), vm_spec(id=0)), "VM ids"),
    ((host_spec(),), (vm_spec(id=0), vm_spec(id=2)), "VM ids"),
])
def test_scenario_ids_are_positions_and_fleet_is_not_empty(hosts, vms, message):
    with pytest.raises(ValueError, match=message):
        Scenario(hosts=hosts, vms=vms, policy=PolicyConfig("DVFS"))


def test_default_fleet_shape():
    sc = default_paper_scenario()
    assert len(sc.hosts) == 100
    assert len(sc.vms) == 290
    assert sc.runs == 10
    assert sc.seed == 42


def test_default_host_classes_round_robin():
    sc = default_paper_scenario()
    for i, h in enumerate(sc.hosts):
        assert h.mips_capacity == HOST_MIPS_CLASSES[i % 3]
        assert h.ram_mb == 8192.0
        assert h.storage_gb == 1024.0
        assert h.p_max_watts == 250.0
        assert h.idle_fraction == 0.7


def test_default_vm_classes_round_robin():
    sc = default_paper_scenario()
    for i, v in enumerate(sc.vms):
        assert v.requested_mips == VM_MIPS_CLASSES[i % 4]
        assert v.ram_mb == 128.0
        assert v.storage_gb == 1.0
        assert v.total_work_mi == 150000.0


def test_default_fleet_capacity_exceeds_requested():
    # 290 VMs at full request must be placeable on the 100 hosts
    sc = default_paper_scenario()
    assert sum(v.requested_mips for v in sc.vms) <= \
        sum(h.mips_capacity for h in sc.hosts)
