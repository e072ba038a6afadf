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
the grid (ST uses the upper value of each pair); ``pairs`` lines add up.
The expansion happens at parse time, so ``spec.policies`` holds one
validated row per report row.

Config sections and ``--policy`` flags become rows through one builder,
``_rows``.  ``run_experiment`` returns each row's ``RunMetrics``, and
``emit_report`` renders them beside the spec's rows and scenario.
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


# Top-level config keys, each also a flag of the same name that overrides it:
# key -> (type, the default_paper_scenario parameter it sets, flag help).
_SCALAR_KEYS = {"seed": (int, "seed", "master RNG seed"),
                "runs": (int, "runs", "repetitions per row"),
                "frame_seconds": (float, "frame_seconds", "frame length in seconds"),
                "hosts": (int, "n_hosts", "number of hosts in the fleet"),
                "vms": (int, "n_vms", "number of VMs in the fleet"),
                "out": (str, None, "output path (default: stdout)")}


def _pairs(value):
    """``lo:hi, lo:hi, ...`` as a list of (lower, upper) floats."""
    return [(float(lo), float(hi))
            for lo, _, hi in (pair.strip().partition(":") for pair in value.split(","))]


# Each config section, None for the top level: (key -> converter, the
# error for an unknown key, the error for a value the converter rejects).
_SECTIONS = {None: ({key: convert for key, (convert, _, _) in _SCALAR_KEYS.items()},
                    "unknown key {!r}", "bad value for {!r}"),
             "policy": ({"kind": str, "lower": float, "upper": float},
                        "unknown policy key {!r}", "bad value for {!r}"),
             "sweep": ({"pairs": _pairs}, "unknown sweep key {!r}", "bad threshold pair")}


def parse_config(text: str) -> ExperimentSpec:
    """Parse the documented config format into a validated ExperimentSpec."""
    scalars, sections, pairs = _read_config(text)
    return _build_spec(scalars, _rows(sections, pairs))


def _read_config(text):
    """Parse config text into (scalars by key, policy sections, sweep pairs).

    Each policy section is a dict of its keys; the pairs of every
    ``pairs`` line of every ``[sweep]`` section are listed in file order.
    """
    sections = [(None, [])]  # (name, [(key, converted value), ...]), in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError("line %d: unknown section [%s]" % (lineno, name))
            sections.append((name, []))
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        name, items = sections[-1]
        converters, unknown, bad = _SECTIONS[name]
        if key not in converters:
            raise ConfigError("line %d: %s" % (lineno, unknown.format(key)))
        try:
            items.append((key, converters[key](value)))
        except ValueError:
            raise ConfigError("line %d: %s" % (lineno, bad.format(key)))
    return (dict(sections[0][1]),
            [dict(items) for name, items in sections if name == "policy"],
            [pair for name, items in sections if name == "sweep" for _, pairs in items
             for pair in pairs])


def _rows(sections, pairs):
    """One validated PolicyConfig per report row, in section order.

    A section maps ``kind`` and any of ``lower`` and ``upper`` to their
    values.  One that takes thresholds and gives neither becomes one row
    per sweep pair, in sorted pair order (ST takes the upper value).
    """
    rows = []
    for section in sections:
        if "kind" not in section:
            raise ConfigError("[policy] section missing 'kind'")
        kind, grid = section["kind"], [section]
        if pairs and section.keys() == {"kind"} and kind not in STATIC_KINDS:
            grid = [_thresholds(kind, lo, hi) for lo, hi in sorted(pairs)]
        try:
            rows += [PolicyConfig(kind, s.get("lower"), s.get("upper")) for s in grid]
        except ValueError as exc:
            raise ConfigError(str(exc))
    return rows


def _thresholds(kind, lower, upper):
    """A ``kind`` row's section from (lower, upper): None for a threshold it does not take."""
    return {"kind": kind, "lower": lower if kind in TWO_THRESHOLD_KINDS else None,
            "upper": upper if kind not in STATIC_KINDS else None}


def _build_spec(scalars, policies) -> ExperimentSpec:
    """Build the one Scenario; no policy rows means the default experiment.

    Only the scalars given reach ``default_paper_scenario``, so its
    signature holds every default.
    """
    scenario = default_paper_scenario(**{param: scalars[key] for key, (_, param, _)
                                         in _SCALAR_KEYS.items() if param and key in scalars})
    return ExperimentSpec(scenario=scenario, policies=policies or list(DEFAULT_POLICIES),
                          output_path=scalars.get("out"))


def run_experiment(spec: ExperimentSpec) -> list:
    """Execute every (policy, thresholds) row over `runs` child-seeded runs.

    Returns one list of RunMetrics per row of ``spec.policies``, in run order.

    The fleet is placed once: the plan reads only the fleet, which every
    row shares.  The run index is the outer loop.  Run ``i`` of every row
    starts from that plan, on host and VM states of its own, and the rows
    then run in lockstep on one shared workload trace under
    ``child_rng(seed, i)``; the static rows (NPA, DVFS), placed alike,
    share one frame pass and each keep their own energy.  The results equal
    independent ``simulate`` calls under the same seeds.
    """
    base = spec.scenario
    runs = [[] for _ in spec.policies]
    scenarios = [replace(base, policy=p) for p in spec.policies]
    try:
        plan = place_fleet(base)
    except InfeasibleScenarioError as exc:
        raise InfeasibleScenarioError("%s (policy row %s)" % (exc, spec.policies[0].kind))
    for i in range(base.runs):
        seed = child_rng(base.seed, i).seed
        trace = WorkloadTrace(seed, len(base.vms))
        states = [placed_state(scenario, plan, trace) for scenario in scenarios]
        for row, metrics in zip(runs, run_lockstep(states)):
            row.append(metrics)
    return runs


def _fmt(value):
    return ("%.6f" % value).rstrip("0").rstrip(".") or "0"


def _pct(fraction):
    # the stored fraction times 100 in exact decimal: 0.3 prints 30, and
    # no threshold the policy accepts prints as 0 or rounds up to 100
    if fraction is None:
        return ""
    return format((Decimal(repr(fraction)) * 100).normalize(), "f")


def _row_cells(p: PolicyConfig, runs, scenario: Scenario):
    cells = [p.kind, _pct(p.lower_threshold), _pct(p.upper_threshold)]
    for _, field, has_std, static_blank in REPORT_STATS:
        values = [float(getattr(r, field)) for r in runs]
        stats = [statistics.fmean(values)]
        if has_std:
            stats.append(statistics.stdev(values) if len(values) > 1 else 0.0)
        cells += ["" if static_blank and p.kind in STATIC_KINDS else _fmt(v) for v in stats]
    return cells + [str(scenario.seed), str(scenario.runs), _fmt(scenario.frame_seconds)]


def emit_report(spec: ExperimentSpec, runs, format="csv") -> bytes:
    """Render ``spec``'s rows as RFC-4180 CSV or an aligned text table.

    ``runs`` holds each row's RunMetrics, as ``run_experiment`` returns them.
    """
    table = [CSV_COLUMNS] + [_row_cells(p, r, spec.scenario)
                             for p, r in zip(spec.policies, runs)]
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
    for key, (kind, _, help_text) in _SCALAR_KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    return parser


def _spec_from_args(args) -> ExperimentSpec:
    text = ""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    scalars, sections, pairs = _read_config(text)
    policies = _rows(sections, pairs)  # checked even when --policy replaces them
    # each flag overrides the config scalar of the same name
    for key in _SCALAR_KEYS:
        if getattr(args, key) is not None:
            scalars[key] = getattr(args, key)
    lower = None if args.lower is None else args.lower / 100.0
    upper = None if args.upper is None else args.upper / 100.0
    if args.policy:
        policies = _rows([_thresholds(kind, lower, upper) for kind in args.policy], [])
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
        payload = emit_report(spec, run_experiment(spec), format=args.format)
        if spec.output_path is not None:
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
