"""dcsim's benchmark: time experiments through the command line, check their outputs.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a dcsim checkout; dcsim is imported from its ``src``.

With ``--trace 0`` each round runs ``dcsim.cli.main`` on the workload's
arguments in a fresh interpreter, and rounds repeat until ``--seconds``
have passed (at least MIN_ROUNDS).  ``speed.py`` samples the speed of the
CPUs the rounds run on meanwhile, and each time is scaled to a fixed
speed.  The end-to-end metrics are medians of the scaled times over the
rounds; ``setup_s`` is the median of several fresh-interpreter set-ups.

With ``--trace 1`` one untraced round writes the report, then every
(row, run) of the workload is simulated in this process with
``dcsim.engine.simulate`` under the child seeds the CLI uses, with spans
around the calls into each layer.  The per-layer metrics come from those
spans, and the report is checked against the traced runs.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (simulated runs) and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
from tracing import Tracer, instrument
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170
# a run makes at least MIN_ROUNDS rounds, so that its median can drop a slow one
MIN_ROUNDS, SETUPS_PER_ROUND = 3, 5
# MM selections on hosts with at most this many residents are checked by brute force
MM_ORACLE_MAX_RESIDENTS, MM_ORACLE_SAMPLES = 10, 300


class BenchError(RuntimeError):
    """A measurement could not be taken."""


def worker(*args):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd[1:]), proc.returncode,
                                              proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def scale(seconds, pass_s):
    """``seconds`` as they would read where a probe pass takes ``speed.PASS_REF_S``."""
    return seconds * speed.PASS_REF_S / pass_s


def run_cli(workload, seed):
    """One timed round of the CLI; returns (timings, report bytes or None)."""
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / ("%s-seed%d.csv" % (workload.name, seed))
    csv_path.unlink(missing_ok=True)
    timing = worker("cli", workload.name, seed, csv_path)
    report = csv_path.read_bytes() if timing["exit_code"] == 0 else None
    return timing, report


def fleet_of(workload, seed):
    import dcsim
    return checks.Fleet.of(dcsim.default_paper_scenario(
        frame_seconds=workload.frame_seconds, seed=seed,
        n_hosts=workload.hosts, n_vms=workload.vms))


def report_problems(workload, seed, report):
    if report is None:
        return ["dcsim exited with an error, no report"]
    rows, problems = checks.parse_report(report, workload, seed)
    return problems + checks.check_report(rows, fleet_of(workload, seed))


def measure(workload, seed, seconds):
    """Untraced rounds, each followed by set-ups; returns (problems, attempted, failed, values).

    Rounds repeat until ``seconds`` have passed, and at least MIN_ROUNDS
    times.
    """
    sims = len(workload.rows) * workload.runs
    rounds, setups, reports, problems = [], [], set(), []
    OUT.mkdir(exist_ok=True)
    with speed.Sampler(OUT / ("%s-seed%d-speed.txt" % (workload.name, seed))) as sampler:
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            timing, report = run_cli(workload, seed)
            rounds.append(timing)
            if report is None:
                problems.append("round %d: dcsim exited %d" % (len(rounds), timing["exit_code"]))
                break
            reports.add(report)
            setups += [worker("setup", workload.name, seed) for _ in range(SETUPS_PER_ROUND)]
    failed = sims * sum(1 for r in rounds if r["exit_code"] != 0)
    if len(reports) > 1:
        problems.append("%d rounds gave %d different reports" % (len(rounds), len(reports)))
    for report in reports:
        problems += report_problems(workload, seed, report)
        print("report_sha256 %s %s" % (workload.name, hashlib.sha256(report).hexdigest()))
    values = {}
    if not failed:
        for m in rounds + setups:
            m["pass_s"] = sampler.pass_s(m["start"], m["end"])
        if any(m["pass_s"] is None for m in rounds + setups):
            raise BenchError("the speed sampler took no sample during a measurement")
        values = {name: statistics.median(scale(m[name], m["pass_s"]) for m in rounds)
                  for name in ("wall_s", "cpu_s")}
        values["setup_s"] = statistics.median(scale(m["setup_s"], m["pass_s"]) for m in setups)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
        print("%s seed %d: %d rounds of %d runs, %d set-ups, %d speed samples" % (
            workload.name, seed, len(rounds), sims, len(setups), len(sampler.samples)))
        print("  wall_s per round as measured: %s" % " ".join("%.3f" % r["wall_s"] for r in rounds))
        print("  probe pass per round, ms:     %s" % " ".join(
            "%.3f" % (1e3 * r["pass_s"]) for r in rounds))
        print("  medians as measured: wall_s %.4f, cpu_s %.4f, setup_s %.4f" % (
            statistics.median(r["wall_s"] for r in rounds),
            statistics.median(r["cpu_s"] for r in rounds),
            statistics.median(m["setup_s"] for m in setups)))
    return problems, len(rounds) * sims, failed, values


class Observations:
    """Counts and oracle samples gathered from traced calls."""

    def __init__(self):
        self.mbfd_calls = 0
        self.vms_requested = 0
        self.vms_placed = 0
        self.moves = 0
        self.placements = []
        self.mm_selections = []

    def observers(self):
        return {"dcsim.engine.mbfd": self.on_mbfd,
                "dcsim.policies.mbfd": self.on_mbfd,
                "dcsim.policies.reallocate": self.on_reallocate,
                "dcsim.policies.select_vms_mm": self.on_select_mm}

    def on_mbfd(self, args, plan):
        req = args[0]
        n = self.mbfd_calls
        self.mbfd_calls += 1
        self.vms_requested += len(req.vms)
        self.vms_placed += len(plan.assignments)
        if n & (n - 1) == 0:  # calls 0, 1, 2, 4, 8, ...: spread over the whole pass
            self.placements.append(checks.PlacementCall(
                vms=tuple(checks.VmView(v.id, v.demand_mips, v.ram_mb, v.storage_gb)
                          for v in req.vms),
                hosts=tuple(checks.HostView(h.id, h.mips_capacity, h.p_max_watts,
                                            h.idle_fraction, h.powered_on, h.cpu_demand_mips,
                                            h.ram_free_mb, h.storage_free_gb)
                            for h in req.hosts),
                upper_threshold=req.upper_threshold, allow_power_on=req.allow_power_on,
                excluded_hosts=frozenset(req.excluded_hosts),
                assignments=dict(plan.assignments), unplaced=frozenset(plan.unplaced)))

    def on_reallocate(self, args, plan):
        self.moves += len(plan.moves)

    def on_select_mm(self, args, picked):
        host, vms, upper = args[:3]
        if (len(host.resident_vms) <= MM_ORACLE_MAX_RESIDENTS
                and len(self.mm_selections) < MM_ORACLE_SAMPLES):
            self.mm_selections.append(([vms[v].demand_mips for v in host.resident_vms],
                                       host.spec.mips_capacity, upper,
                                       [vms[v].demand_mips for v in picked]))


def traced_pass(workload, seed):
    """Simulate every (row, run) of the workload with the traced layers wrapped."""
    import dcsim
    import dcsim.engine
    tracer, obs = Tracer(), Observations()
    restore, missing = instrument(tracer, obs.observers())
    for path in missing:
        print("not traced, no longer in dcsim: %s" % path, file=sys.stderr)
    runs_per_row, problems = [], []
    attempted = failed = vm_frames = 0
    try:
        for kind, lower, upper in workload.rows:
            scenario = dcsim.default_paper_scenario(
                policy=kind, lower_threshold=lower, upper_threshold=upper,
                frame_seconds=workload.frame_seconds, seed=seed, runs=workload.runs,
                n_hosts=workload.hosts, n_vms=workload.vms)
            records = []
            for i in range(workload.runs):
                attempted += 1
                try:
                    state, m = dcsim.engine.simulate(scenario, seed=dcsim.child_rng(seed, i).seed)
                except Exception:  # count the run as failed and go on with the rest
                    failed += 1
                    problems.append("%s run %d raised:\n%s" % (kind, i, traceback.format_exc()))
                    continue
                vm_frames += sum(f.measurements for f in state.frames)
                records.append(checks.RunRecord(
                    energy_kwh=m.energy_kwh, sla_violation_pct=m.sla_violation_pct,
                    migration_count=m.migration_count, avg_sla_pct=m.avg_sla_pct,
                    sim_duration_s=m.sim_duration_s,
                    executed_mi=math.fsum(vm.spec.total_work_mi - vm.remaining_work_mi
                                          for vm in state.vms)))
            runs_per_row.append(records)
    finally:
        restore()
    return tracer, obs, runs_per_row, problems, attempted, failed, vm_frames


def trace(workload, seed):
    """Untraced report, traced pass and every check; returns as ``measure`` does."""
    timing, report = run_cli(workload, seed)
    problems = report_problems(workload, seed, report)
    tracer, obs, runs_per_row, run_problems, attempted, failed, vm_frames = \
        traced_pass(workload, seed)
    problems += run_problems
    fleet = fleet_of(workload, seed)
    if report is not None:
        print("report_sha256 %s %s" % (workload.name, hashlib.sha256(report).hexdigest()))
        rows, _ = checks.parse_report(report, workload, seed)
        if not failed:
            problems += checks.check_report_matches_runs(rows, runs_per_row)
    for (kind, _, _), records in zip(workload.rows, runs_per_row):
        for record in records:
            problems += checks.check_run(kind, record, fleet)
    for call in obs.placements:
        problems += checks.check_placement(call)
    for selection in obs.mm_selections:
        problems += checks.check_mm_selection(*selection)

    values = {}
    for name, (calls, _, self_ns) in tracer.totals.items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_ns / 1e9
    if "placement.mbfd" in tracer.totals:
        values["placement.mbfd.vms_requested"] = obs.vms_requested
        if obs.vms_requested:
            values["placement.mbfd.placed_ratio"] = obs.vms_placed / obs.vms_requested
    if "policies.reallocate" in tracer.totals:
        values["policies.reallocate.moves"] = obs.moves
    if "engine.simulate" in tracer.totals:
        values["trace.wall_s"] = tracer.totals["engine.simulate"][1] / 1e9
    values["trace.vm_frames"] = vm_frames

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("%s-seed%d-spans.jsonl" % (workload.name, seed))
    tracer.write_spans(spans_path)
    print("%s seed %d: %d traced runs, %d spans in %s; checked %d placements, %d MM selections"
          % (workload.name, seed, attempted, len(tracer.spans), spans_path.relative_to(ROOT),
             len(obs.placements), len(obs.mm_selections)))
    if "trace.wall_s" in values:
        print("tracing overhead: traced %.3f s, untraced wall_s %.3f s (%+.1f%%)"
              % (values["trace.wall_s"], timing["wall_s"],
                 100.0 * (values["trace.wall_s"] / timing["wall_s"] - 1.0)))
    return problems, attempted, failed, values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dcsim" / "__init__.py").is_file():
        print("error: no dcsim sources at %s; run from a dcsim checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        if args.trace:
            problems, attempted, failed, values = trace(WORKLOADS[name], args.seed)
        else:
            problems, attempted, failed, values = measure(WORKLOADS[name], args.seed, args.seconds)
        for problem in problems:
            print("CHECK FAILED: %s" % problem)
        metrics = {}
        for m in wanted:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            else:
                print("metric %s is absent" % m["name"], file=sys.stderr)
        for metric, v in metrics.items():
            print("  %-36s %14.6f %s" % (metric, v["value"], v["unit"]))
        all_correct = all_correct and not problems
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
