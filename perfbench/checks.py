"""Correctness checks on the outputs of a benchmark run.

Every check rests on a property the simulation method must have, or on a
computation made apart from dcsim, never on a stored copy of an earlier
output.  Each function returns a list of problems; an empty list passes.
"""

import csv
import io
import itertools
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

CSV_COLUMNS = ["policy", "lower_pct", "upper_pct",
               "energy_kwh_mean", "energy_kwh_std",
               "sla_pct_mean", "sla_pct_std",
               "migrations_mean", "migrations_std",
               "avg_sla_pct_mean", "duration_s_mean",
               "seed", "runs", "frame_seconds"]
STATIC = ("NPA", "DVFS")
# the CSV prints six decimals; a printed value is within half a unit of
# the last place of the exact one (the slack covers binary rounding)
PRINTED = 0.5e-6 * (1 + 1e-6)
J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class Fleet:
    peak_w: float       # fleet peak power, W
    min_slope: float    # least dynamic power per MIPS of any host, W/MIPS
    work_mi: float      # total work of all VMs, MI

    @classmethod
    def of(cls, scenario):
        return cls(peak_w=math.fsum(h.p_max_watts for h in scenario.hosts),
                   min_slope=min((1.0 - h.idle_fraction) * h.p_max_watts / h.mips_capacity
                                 for h in scenario.hosts),
                   work_mi=math.fsum(v.total_work_mi for v in scenario.vms))


@dataclass
class RunRecord:
    """What one simulated run produced: its RunMetrics and its executed work."""

    energy_kwh: float
    sla_violation_pct: float
    migration_count: int
    avg_sla_pct: float
    sim_duration_s: float
    executed_mi: float


def _pct(cell):
    return None if cell == "" else float(cell) / 100.0


def _same_threshold(cell, expected):
    got = _pct(cell)
    if expected is None or got is None:
        return got is expected
    return abs(got - expected) < 1e-9


def parse_report(data, workload, seed):
    """Parse the CSV report; return (rows as dicts, problems)."""
    try:
        table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [], ["report is not CSV: %s" % exc]
    if not table or table[0] != CSV_COLUMNS:
        return [], ["report header is %r" % (table[0] if table else None)]
    rows = [dict(zip(CSV_COLUMNS, r)) for r in table[1:]]
    if len(rows) != len(workload.rows) or any(len(r) != len(CSV_COLUMNS) for r in table[1:]):
        return [], ["report has %d rows of widths %s, expected %d rows"
                    % (len(rows), [len(r) for r in table[1:]], len(workload.rows))]
    problems = []
    for row, (kind, lower, upper) in zip(rows, workload.rows):
        where = "row %s %s-%s" % (kind, lower, upper)
        if row["policy"] != kind or not (_same_threshold(row["lower_pct"], lower)
                                         and _same_threshold(row["upper_pct"], upper)):
            problems.append("%s: got policy %s %r-%r" % (where, row["policy"],
                                                         row["lower_pct"], row["upper_pct"]))
        if (row["seed"], row["runs"]) != (str(seed), str(workload.runs)):
            problems.append("%s: seed/runs %s/%s" % (where, row["seed"], row["runs"]))
        if float(row["frame_seconds"]) != workload.frame_seconds:
            problems.append("%s: frame_seconds %s" % (where, row["frame_seconds"]))
    return rows, problems


def check_report(rows, fleet):
    """Properties every report row must have, checked at printed precision."""
    problems = []
    for row in rows:
        where = "row %s %s-%s" % (row["policy"], row["lower_pct"], row["upper_pct"])
        energy, duration = float(row["energy_kwh_mean"]), float(row["duration_s_mean"])
        lowest = fleet.min_slope * fleet.work_mi / J_PER_KWH
        highest = fleet.peak_w * duration / J_PER_KWH
        if not lowest - PRINTED <= energy <= highest + 2 * PRINTED:
            problems.append("%s: mean energy %r kWh outside [%r, %r]"
                            % (where, energy, lowest, highest))
        if row["policy"] == "NPA" and abs(energy - highest) > 2 * PRINTED:
            problems.append("%s: NPA mean energy %r kWh, fleet peak x duration gives %r"
                            % (where, energy, highest))
        if row["policy"] in STATIC:
            if any(row[c] != "" for c in ("sla_pct_mean", "sla_pct_std", "avg_sla_pct_mean")):
                problems.append("%s: a static policy reports SLA figures" % where)
            if float(row["migrations_mean"]) != 0 or float(row["migrations_std"]) != 0:
                problems.append("%s: a static policy migrated" % where)
    return problems


def check_report_matches_runs(rows, runs_per_row):
    """Every mean and std in the report equals the one computed from the runs."""
    problems = []
    fields = (("energy_kwh", "energy_kwh_mean", "energy_kwh_std"),
              ("sla_violation_pct", "sla_pct_mean", "sla_pct_std"),
              ("migration_count", "migrations_mean", "migrations_std"),
              ("avg_sla_pct", "avg_sla_pct_mean", None),
              ("sim_duration_s", "duration_s_mean", None))
    for row, runs in zip(rows, runs_per_row):
        where = "row %s %s-%s" % (row["policy"], row["lower_pct"], row["upper_pct"])
        for attr, mean_col, std_col in fields:
            values = [float(getattr(r, attr)) for r in runs]
            for col, expected in ((mean_col, statistics.fmean(values)),
                                  (std_col, statistics.stdev(values) if len(values) > 1 else 0.0)):
                if col is None or row[col] == "":
                    continue
                if abs(float(row[col]) - expected) > PRINTED:
                    problems.append("%s: %s is %s, the runs give %r"
                                    % (where, col, row[col], expected))
    return problems


def check_run(policy, run, fleet):
    """Conservation and energy bounds that hold in every simulated run."""
    problems = []
    if run.executed_mi != fleet.work_mi:
        problems.append("%s run executed %r MI of %r" % (policy, run.executed_mi, fleet.work_mi))
    highest = fleet.peak_w * run.sim_duration_s / J_PER_KWH
    lowest = fleet.min_slope * run.executed_mi / J_PER_KWH
    if not lowest * (1 - 1e-12) <= run.energy_kwh <= highest * (1 + 1e-12):
        problems.append("%s run energy %r kWh outside [%r, %r]"
                        % (policy, run.energy_kwh, lowest, highest))
    if policy == "NPA" and abs(run.energy_kwh - highest) > 1e-9 * highest:
        problems.append("NPA run energy %r kWh, fleet peak x duration gives %r"
                        % (run.energy_kwh, highest))
    if policy in STATIC and (run.sla_violation_pct != 0 or run.migration_count != 0):
        problems.append("%s run has SLA violations %r%% and %d migrations"
                        % (policy, run.sla_violation_pct, run.migration_count))
    return problems


@dataclass(frozen=True)
class HostView:
    id: int
    mips_capacity: float
    p_max_watts: float
    idle_fraction: float
    powered_on: bool
    cpu_demand_mips: float
    ram_free_mb: float
    storage_free_gb: float


@dataclass(frozen=True)
class VmView:
    id: int
    demand_mips: float
    ram_mb: float
    storage_gb: float


@dataclass(frozen=True)
class PlacementCall:
    """One placement request and its outcome, copied when the call returned."""

    vms: tuple
    hosts: tuple
    upper_threshold: float
    allow_power_on: bool
    excluded_hosts: frozenset
    assignments: dict
    unplaced: frozenset


def _exact_power(host, load_mips):
    # P(u) = k Pmax + (1 - k) Pmax u, u clamped to 1, in exact arithmetic
    p_max, k = Fraction(host.p_max_watts), Fraction(host.idle_fraction)
    u = min(Fraction(1), load_mips / Fraction(host.mips_capacity))
    return k * p_max + (1 - k) * p_max * u


def exact_power_increase(host, on, load_mips, demand_mips):
    """Growth in power draw, exact, if ``demand_mips`` joins ``load_mips`` on ``host``."""
    load, demand = Fraction(load_mips), Fraction(demand_mips)
    after = _exact_power(host, load + demand)
    return after - _exact_power(host, load) if on else after


def check_placement(call, max_checked_vms=40):
    """Feasibility and least power increase of a placement, for any tie rule.

    VMs are replayed in the documented order (decreasing demand, then id),
    committing each assignment before the next VM.  At most
    ``max_checked_vms`` VMs, spread evenly over the order, are checked
    against every host: the chosen host must be feasible, and its exact
    power increase within 1e-9 W of the least over feasible hosts; an
    unplaced VM must have had no feasible host.
    """
    problems = []
    requested = {vm.id for vm in call.vms}
    if set(call.assignments) & call.unplaced or set(call.assignments) | call.unplaced != requested:
        problems.append("placed %s and unplaced %s do not partition the request %s"
                        % (sorted(call.assignments), sorted(call.unplaced), sorted(requested)))
        return problems
    state = {h.id: [h.powered_on, h.cpu_demand_mips, h.ram_free_mb, h.storage_free_gb]
             for h in call.hosts}
    by_id = {h.id: h for h in call.hosts}
    order = sorted(call.vms, key=lambda vm: (-vm.demand_mips, vm.id))
    stride = max(1, math.ceil(len(order) / max_checked_vms))

    def feasible(h, vm):
        on, load, ram, storage = state[h.id]
        return (h.id not in call.excluded_hosts
                and (on or call.allow_power_on)
                and vm.ram_mb <= ram and vm.storage_gb <= storage
                and load + vm.demand_mips <= call.upper_threshold * h.mips_capacity)

    for index, vm in enumerate(order):
        dest = call.assignments.get(vm.id)
        if index % stride == 0:
            costs = {h.id: exact_power_increase(h, state[h.id][0], state[h.id][1], vm.demand_mips)
                     for h in call.hosts if feasible(h, vm)}
            if dest is None and costs:
                problems.append("VM %d left unplaced with %d feasible hosts" % (vm.id, len(costs)))
            elif dest is not None and dest not in costs:
                problems.append("VM %d placed on infeasible host %r" % (vm.id, dest))
            elif dest is not None and costs[dest] - min(costs.values()) > Fraction(1, 10**9):
                problems.append("VM %d on host %d adds %.12f W; host %d adds %.12f W"
                                % (vm.id, dest, costs[dest],
                                   min(costs, key=costs.get), min(costs.values())))
        if dest is not None:
            if dest not in by_id:
                problems.append("VM %d placed on unknown host %r" % (vm.id, dest))
                continue
            s = state[dest]
            s[0] = True
            s[1] += vm.demand_mips
            s[2] -= vm.ram_mb
            s[3] -= vm.storage_gb
    return problems


def check_mm_selection(demands, capacity, upper, picked):
    """MM picks the fewest VMs whose removal brings the host to u <= upper.

    ``picked`` holds the demands of the selected VMs.  The minimum count is
    found by brute force over subsets, in exact arithmetic.
    """
    excess = sum(map(Fraction, demands)) - Fraction(upper) * Fraction(capacity)
    if sum(map(Fraction, picked)) < excess:
        return ["MM picked %r from %r, which leaves the host above %r" % (picked, demands, upper)]
    fewest = next((k for k in range(len(demands) + 1)
                   if any(sum(map(Fraction, combo)) >= excess
                          for combo in itertools.combinations(demands, k))), len(demands))
    if len(picked) != fewest:
        return ["MM picked %d VMs from %r, %d suffice" % (len(picked), demands, fewest)]
    return []
