"""Acceptance criteria for the consolidation simulator.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success) and asserts the criterion.  The scenario-level criteria
share one cached table of 10 child-seeded runs per policy configuration
on the default 100-host / 290-VM fleet.
"""

import itertools
import math
import statistics

import pytest

from dcsim import (HostSnapshot, PlacementRequest, VmRequest,
                   default_paper_scenario, mbfd, power, simulate)
from dcsim.model import HostSpec, HostState, VmSpec, VmState
from dcsim.policies import select_vms_mm
from dcsim.workload import SeededRng, child_rng

CONFIGS = {
    "NPA": ("NPA", None, None),
    "DVFS": ("DVFS", None, None),
    "ST50": ("ST", None, 0.5),
    "ST60": ("ST", None, 0.6),
    "MM37": ("MM", 0.3, 0.7),
    "MM48": ("MM", 0.4, 0.8),
    "MM59": ("MM", 0.5, 0.9),
    "HPG37": ("HPG", 0.3, 0.7),
    "RC37": ("RC", 0.3, 0.7),
}


def check(num, description, ok):
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", description))
    assert ok, "criterion %d failed: %s" % (num, description)


@pytest.fixture(scope="module")
def table():
    """name -> (list of RunMetrics, list of executed MI), 10 runs each."""
    results = {}
    for name, (policy, lo, hi) in CONFIGS.items():
        sc = default_paper_scenario(policy=policy, lower_threshold=lo,
                                    upper_threshold=hi)
        metrics, executed = [], []
        for i in range(sc.runs):
            state, m = simulate(sc, seed=child_rng(sc.seed, i).seed)
            metrics.append(m)
            executed.append(sum(vm.spec.total_work_mi - vm.remaining_work_mi
                                for vm in state.vms))
        results[name] = (metrics, executed)
    return results


def mean_energy(table, name):
    return statistics.fmean(m.energy_kwh for m in table[name][0])


def mean_sla(table, name):
    return statistics.fmean(m.sla_violation_pct for m in table[name][0])


def mean_migrations(table, name):
    return statistics.fmean(m.migration_count for m in table[name][0])


def test_criterion_01_power_model_exactness():
    params = HostSpec(id=0, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                      p_max_watts=250.0, idle_fraction=0.7)
    exact = power(params, 0.0) == 175.0 and power(params, 1.0) == 250.0
    p0, p1 = power(params, 0.0), power(params, 1.0)
    affine = all(
        math.isclose(power(params, i / 1000.0), p0 + (p1 - p0) * i / 1000.0,
                     rel_tol=1e-12)
        for i in range(1001))
    check(1, "power(0)=175 W, power(1)=250 W, affine on 1001-point grid",
          exact and affine)


def test_criterion_02_npa_analytic_oracle():
    ok = True
    for n_hosts, n_vms, seed in ((100, 290, 42), (10, 29, 7), (40, 116, 9)):
        sc = default_paper_scenario(policy="NPA", n_hosts=n_hosts, n_vms=n_vms,
                                    seed=seed)
        _, m = simulate(sc, seed=child_rng(seed, 0).seed)
        expected_kwh = (sum(h.p_max_watts for h in sc.hosts)
                        * m.sim_duration_s / 3.6e6)
        ok = ok and math.isclose(m.energy_kwh, expected_kwh, rel_tol=1e-9)
    check(2, "NPA energy = fleet peak power x duration (rel err < 1e-9)", ok)


def test_criterion_03_energy_ordering(table):
    energies = [mean_energy(table, n) for n in ("NPA", "DVFS", "ST50", "MM37")]
    ok = all(a > b for a, b in zip(energies, energies[1:]))
    check(3, "mean energy NPA > DVFS > ST50 > MM 30-70 "
             "(%.2f > %.2f > %.2f > %.2f kWh)" % tuple(energies), ok)


def test_criterion_04_savings_magnitudes(table):
    npa = mean_energy(table, "NPA")
    saving = {n: 100.0 * (1.0 - mean_energy(table, n) / npa)
              for n in ("DVFS", "ST50", "MM37")}
    ok = (40.0 <= saving["DVFS"] <= 60.0 and saving["ST50"] >= 65.0
          and saving["MM37"] >= 75.0)
    check(4, "savings vs NPA: DVFS %.1f%% in [40,60], ST50 %.1f%% >= 65, "
             "MM 30-70 %.1f%% >= 75"
             % (saving["DVFS"], saving["ST50"], saving["MM37"]), ok)


def test_criterion_05_migration_ratio(table):
    st = mean_migrations(table, "ST50")
    worst = max(mean_migrations(table, n) for n in ("MM37", "MM48", "MM59"))
    check(5, "max MM migrations %.0f < 0.1 x ST50 migrations %.0f" % (worst, st),
          worst < 0.1 * st)


def test_criterion_06_threshold_monotonicity(table):
    st_ok = (mean_energy(table, "ST60") < mean_energy(table, "ST50")
             and mean_sla(table, "ST60") > mean_sla(table, "ST50"))
    mm_ok = (mean_energy(table, "MM59") < mean_energy(table, "MM37")
             and mean_sla(table, "MM59") > mean_sla(table, "MM37"))
    check(6, "raising thresholds lowers energy and raises SLA% "
             "(ST 50->60, MM 30-70 -> 50-90)", st_ok and mm_ok)


def test_criterion_07_two_threshold_equivalence(table):
    names = ("MM37", "HPG37", "RC37")
    energies = [mean_energy(table, n) for n in names]
    slas = [mean_sla(table, n) for n in names]
    close = (max(energies) - min(energies) <= 0.1 * min(energies)
             and max(slas) - min(slas) <= 2.0)
    fewest = (mean_migrations(table, "MM37") <= mean_migrations(table, "HPG37")
              and mean_migrations(table, "MM37") <= mean_migrations(table, "RC37"))
    check(7, "MM/HPG/RC at 30-70: energies within 10%, SLA within 2 pp, "
             "MM migrates least", close and fewest)


def oracle_greedy_min_power_increase(vms, hosts, upper):
    """Reference MBFD: per-VM exhaustive min power-increase search."""
    load = {h.id: h.cpu_demand_mips for h in hosts}
    ram = {h.id: h.ram_free_mb for h in hosts}
    sto = {h.id: h.storage_free_gb for h in hosts}
    on = {h.id: h.powered_on for h in hosts}
    choice = {}
    for vm in sorted(vms, key=lambda v: (-v.demand_mips, v.id)):
        best, best_delta = None, None
        for h in sorted(hosts, key=lambda h: h.id):
            if vm.ram_mb > ram[h.id] or vm.storage_gb > sto[h.id]:
                continue
            if load[h.id] + vm.demand_mips > upper * h.mips_capacity:
                continue
            slope = (1.0 - h.idle_fraction) * h.p_max_watts / h.mips_capacity
            delta = slope * vm.demand_mips
            if not on[h.id]:
                delta = (h.idle_fraction * h.p_max_watts
                         + slope * (load[h.id] + vm.demand_mips))
            if best is None or delta < best_delta:
                best, best_delta = h.id, delta
        if best is not None:
            choice[vm.id] = best
            load[best] += vm.demand_mips
            ram[best] -= vm.ram_mb
            sto[best] -= vm.storage_gb
            on[best] = True
    return choice


def test_criterion_08_mbfd_oracle_equivalence():
    rng = SeededRng(777)
    mismatches = 0
    for _ in range(200):
        hosts = [HostSnapshot(id=i,
                              mips_capacity=1000.0 * (1 + rng.randbelow(3)),
                              p_max_watts=250.0, idle_fraction=0.7,
                              powered_on=rng.randbelow(2) == 0,
                              cpu_demand_mips=100.0 * rng.randbelow(6),
                              ram_free_mb=8192.0, storage_free_gb=1024.0)
                 for i in range(4)]
        vms = [VmRequest(id=i, demand_mips=250.0 * (1 + rng.randbelow(4)),
                         ram_mb=128.0, storage_gb=1.0)
               for i in range(1 + rng.randbelow(8))]
        upper = (0.5, 0.7, 0.9, 1.0)[rng.randbelow(4)]
        plan = mbfd(PlacementRequest(vms=vms, hosts=hosts, upper_threshold=upper))
        expected = oracle_greedy_min_power_increase(vms, hosts, upper)
        if plan.assignments != expected:
            mismatches += 1
    check(8, "MBFD matches exhaustive min power-increase choice on 200 "
             "random instances", mismatches == 0)


def brute_force_min_cardinality(demands, excess):
    if excess <= 0:
        return 0
    for size in range(1, len(demands) + 1):
        for combo in itertools.combinations(demands, size):
            if sum(combo) >= excess:
                return size
    return len(demands)


def test_criterion_09_mm_minimality_oracle():
    rng = SeededRng(888)
    mismatches = 0
    for _ in range(500):
        n = 1 + rng.randbelow(12)
        demands = [25.0 * (1 + rng.randbelow(40)) for _ in range(n)]
        cap = 1000.0 + 500.0 * rng.randbelow(5)
        upper = 0.3 + 0.1 * rng.randbelow(6)
        spec = HostSpec(id=0, mips_capacity=cap, ram_mb=8192.0,
                        storage_gb=1024.0, p_max_watts=250.0, idle_fraction=0.7)
        host = HostState(spec=spec, resident_vms=list(range(n)))
        vms = {i: VmState(spec=VmSpec(id=i, requested_mips=d, ram_mb=128.0,
                                      storage_gb=1.0, total_work_mi=150000.0),
                          host_id=0, demand_mips=d, remaining_work_mi=1.0)
               for i, d in enumerate(demands)}
        picked = select_vms_mm(host, vms, upper)
        minimum = brute_force_min_cardinality(demands, sum(demands) - upper * cap)
        if len(picked) != minimum:
            mismatches += 1
    check(9, "MM selection is minimum-cardinality on 500 random overloaded "
             "hosts", mismatches == 0)


def test_criterion_10_zero_violation_baselines(table):
    ok = all(m.sla_violation_pct == 0.0
             for name in ("NPA", "DVFS") for m in table[name][0])
    check(10, "NPA and DVFS report zero SLA violations in every run", ok)


def test_criterion_11_byte_identical_csv(tmp_path):
    from dcsim.cli import main
    args = ["--policy", "MM", "--lower", "30", "--upper", "70",
            "--policy", "ST", "--upper", "70",
            "--hosts", "30", "--vms", "87", "--runs", "3", "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    check(11, "repeated experiment invocations produce byte-identical CSV",
          a.read_bytes() == b.read_bytes())


def test_criterion_12_work_conservation(table):
    total = 290 * 150000.0
    ok = all(executed == total
             for _, executed_runs in table.values()
             for executed in executed_runs)
    check(12, "every run executes exactly 290 x 150000 MI", ok)
