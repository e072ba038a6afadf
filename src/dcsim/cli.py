"""Experiment harness: config parsing, repeated seeded runs, CSV/table reports.

Config files are flat ``key = value`` text with ``[policy]`` sections,
e.g.::

    seed = 42
    runs = 10
    frame_seconds = 30

    [policy]
    kind = MM
    lower = 0.3
    upper = 0.7

Thresholds in config files are fractions; the --lower/--upper command
line flags take percentages.  An empty config reproduces the default
seven-row experiment (NPA, DVFS, ST 50/60%, MM 30-70/40-80/50-90%).
An optional ``[sweep]`` section with ``pairs = 0.3:0.7, 0.4:0.8``
expands every threshold-taking policy given without thresholds across
the grid (ST uses the upper value of each pair).  The expansion happens
at parse time, so ``spec.policies`` holds one validated row per report
row.
"""

import argparse
import csv
import io
import statistics
import sys
from dataclasses import dataclass, replace
from decimal import Decimal

from .engine import InfeasibleScenarioError, place_fleet, placed_state, run_lockstep
from .model import (POLICY_KINDS, STATIC_KINDS, TWO_THRESHOLD_KINDS, PolicyConfig,
                    Scenario, default_paper_scenario)
from .workload import WorkloadTrace, child_rng

DEFAULT_POLICIES = (
    PolicyConfig("NPA"),
    PolicyConfig("DVFS"),
    PolicyConfig("ST", upper_threshold=0.5),
    PolicyConfig("ST", upper_threshold=0.6),
    PolicyConfig("MM", 0.3, 0.7),
    PolicyConfig("MM", 0.4, 0.8),
    PolicyConfig("MM", 0.5, 0.9),
)

# The report's statistics over a row's runs, in column order: (CSV column
# stem, RunMetrics field, has a std column, blank for static policies).
REPORT_STATS = (("energy_kwh", "energy_kwh", True, False),
                ("sla_pct", "sla_violation_pct", True, True),
                ("migrations", "migration_count", True, False),
                ("avg_sla_pct", "avg_sla_pct", False, True),
                ("duration_s", "sim_duration_s", False, False))

CSV_COLUMNS = (["policy", "lower_pct", "upper_pct"]
               + [stem + suffix for stem, _, has_std, _ in REPORT_STATS
                  for suffix in (("_mean", "_std") if has_std else ("_mean",))]
               + ["seed", "runs", "frame_seconds"])


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


@dataclass
class ExperimentSpec:
    scenario: Scenario
    policies: list  # one PolicyConfig per report row
    output_path: str = None

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("at least one policy is required")


@dataclass
class ReportRow:
    policy: PolicyConfig
    runs: list  # the row's RunMetrics, in run order


@dataclass
class Report:
    rows: list
    scenario: Scenario  # supplies the seed, runs and frame_seconds cells


# Top-level config keys, each also a flag of the same name that overrides it:
# key -> (type, flag help).
_SCALAR_KEYS = {"seed": (int, "master RNG seed"),
                "runs": (int, "repetitions per row"),
                "frame_seconds": (float, "frame length in seconds"),
                "hosts": (int, "number of hosts in the fleet"),
                "vms": (int, "number of VMs in the fleet"),
                "out": (str, "output path (default: stdout)")}
_POLICY_KEYS = {"kind": str, "lower": float, "upper": float}


def parse_config(text: str) -> ExperimentSpec:
    """Parse the documented config format into a validated ExperimentSpec."""
    return _build_spec(*_read_config(text))


def _read_config(text):
    """Parse config text into (scalars by key, validated policy rows)."""
    scalars = {}
    policy_sections = []
    sweep_pairs = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name == "policy":
                policy_sections.append({})
                section = policy_sections[-1]
            elif name == "sweep":
                section = "sweep"
            else:
                raise ConfigError("line %d: unknown section [%s]" % (lineno, name))
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            if key not in _SCALAR_KEYS:
                raise ConfigError("line %d: unknown key %r" % (lineno, key))
            try:
                scalars[key] = _SCALAR_KEYS[key][0](value)
            except ValueError:
                raise ConfigError("line %d: bad value for %r" % (lineno, key))
        elif section == "sweep":
            if key != "pairs":
                raise ConfigError("line %d: unknown sweep key %r" % (lineno, key))
            try:
                for pair in value.split(","):
                    lo, _, hi = pair.strip().partition(":")
                    sweep_pairs.append((float(lo), float(hi)))
            except ValueError:
                raise ConfigError("line %d: bad threshold pair" % lineno)
        else:
            if key not in _POLICY_KEYS:
                raise ConfigError("line %d: unknown policy key %r" % (lineno, key))
            try:
                section[key] = _POLICY_KEYS[key](value)
            except ValueError:
                raise ConfigError("line %d: bad value for %r" % (lineno, key))

    # [sweep] may follow the [policy] sections, so expand only now
    policies = []
    for sec in policy_sections:
        if "kind" not in sec:
            raise ConfigError("[policy] section missing 'kind'")
        kind, lower, upper = sec["kind"], sec.get("lower"), sec.get("upper")
        grid = [(lower, upper)]
        if sweep_pairs and lower is None and upper is None and kind not in STATIC_KINDS:
            grid = [_thresholds(kind, lo, hi) for lo, hi in sorted(sweep_pairs)]
        try:
            policies += [PolicyConfig(kind, lo, hi) for lo, hi in grid]
        except ValueError as exc:
            raise ConfigError(str(exc))
    return scalars, policies


def _thresholds(kind, lower, upper):
    """(lower, upper) as a row of ``kind`` takes them, None for one it does not take."""
    return (lower if kind in TWO_THRESHOLD_KINDS else None,
            upper if kind not in STATIC_KINDS else None)


def _build_spec(scalars, policies) -> ExperimentSpec:
    """Build the one Scenario; no policy rows means the default experiment."""
    scenario = default_paper_scenario(
        frame_seconds=scalars.get("frame_seconds", 30.0),
        seed=scalars.get("seed", 42),
        runs=scalars.get("runs", 10),
        n_hosts=scalars.get("hosts", 100),
        n_vms=scalars.get("vms", 290))
    return ExperimentSpec(scenario=scenario, policies=policies or list(DEFAULT_POLICIES),
                          output_path=scalars.get("out"))


def run_experiment(spec: ExperimentSpec) -> Report:
    """Execute every (policy, thresholds) row over `runs` child-seeded runs.

    The fleet is placed once: the plan reads only the fleet, which every
    row shares.  The run index is the outer loop.  Run ``i`` of every row
    starts from that plan, on host and VM states of its own, and the rows
    then run in lockstep on one shared workload trace under
    ``child_rng(seed, i)``; the static rows (NPA, DVFS), placed alike,
    share one frame pass and each keep their own energy.  The results equal
    independent ``simulate`` calls under the same seeds.
    """
    base = spec.scenario
    rows = [ReportRow(policy=p, runs=[]) for p in spec.policies]
    scenarios = [replace(base, policy=p) for p in spec.policies]
    try:
        plan = place_fleet(base)
    except InfeasibleScenarioError as exc:
        raise InfeasibleScenarioError("%s (policy row %s)" % (exc, spec.policies[0].kind))
    for i in range(base.runs):
        seed = child_rng(base.seed, i).seed
        trace = WorkloadTrace(seed, len(base.vms))
        states = [placed_state(scenario, plan, trace) for scenario in scenarios]
        for row, metrics in zip(rows, run_lockstep(states)):
            row.runs.append(metrics)
    return Report(rows=rows, scenario=base)


def _fmt(value):
    if value is None:
        return ""
    return ("%.6f" % value).rstrip("0").rstrip(".") or "0"


def _pct(fraction):
    # the stored fraction times 100 in exact decimal: 0.3 prints 30, and
    # no threshold the policy accepts prints as 0 or rounds up to 100
    if fraction is None:
        return ""
    return format((Decimal(repr(fraction)) * 100).normalize(), "f")


def _row_cells(row: ReportRow, scenario: Scenario):
    p = row.policy
    cells = [p.kind, _pct(p.lower_threshold), _pct(p.upper_threshold)]
    for _, field, has_std, static_blank in REPORT_STATS:
        values = [float(getattr(r, field)) for r in row.runs]
        stats = [statistics.fmean(values)]
        if has_std:
            stats.append(statistics.stdev(values) if len(values) > 1 else 0.0)
        cells += ["" if static_blank and p.kind in STATIC_KINDS else _fmt(v) for v in stats]
    return cells + [str(scenario.seed), str(scenario.runs), _fmt(scenario.frame_seconds)]


def emit_report(report: Report, format="csv") -> bytes:
    """Render the report as RFC-4180 CSV or an aligned text table."""
    table = [CSV_COLUMNS] + [_row_cells(r, report.scenario) for r in report.rows]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerows(table)
        return buf.getvalue().encode("utf-8")
    if format == "table":
        widths = [max(len(row[i]) for row in table) for i in range(len(CSV_COLUMNS))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                 for row in table]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError("unknown format %r" % (format,))


class _Parser(argparse.ArgumentParser):
    # validation failures exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(prog="dcsim",
                     description="Energy-aware VM consolidation experiments")
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--policy", action="append",
                        help="policy to run (repeatable): " + ", ".join(POLICY_KINDS))
    parser.add_argument("--lower", type=float, help="lower threshold, percent")
    parser.add_argument("--upper", type=float, help="upper threshold, percent")
    parser.add_argument("--format", choices=["csv", "table"], default="csv")
    for key, (kind, help_text) in _SCALAR_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    scalars, policies = _read_config(text)
    # each flag overrides the config scalar of the same name
    for key in _SCALAR_KEYS:
        if getattr(args, key) is not None:
            scalars[key] = getattr(args, key)
    lower = None if args.lower is None else args.lower / 100.0
    upper = None if args.upper is None else args.upper / 100.0
    if args.policy:
        try:
            policies = [PolicyConfig(kind, *_thresholds(kind, lower, upper))
                        for kind in args.policy]
        except ValueError as exc:
            raise ConfigError(str(exc))
    # the flags apply only to --policy rows; a flag no row takes is an error
    kinds = args.policy or []
    if lower is not None and not any(k in TWO_THRESHOLD_KINDS for k in kinds):
        raise ConfigError("--lower needs a --policy of %s" % ", ".join(TWO_THRESHOLD_KINDS))
    if upper is not None and all(k in STATIC_KINDS for k in kinds):
        raise ConfigError("--upper needs a --policy other than %s" % ", ".join(STATIC_KINDS))
    return _build_spec(scalars, policies)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        payload = emit_report(run_experiment(spec), format=args.format)
        if spec.output_path:
            with open(spec.output_path, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (ValueError, OSError) as exc:  # a ConfigError, or an unreadable or unwritable file
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except InfeasibleScenarioError as exc:
        print("infeasible scenario: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
