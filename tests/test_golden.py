"""Committed report bytes that a change to the simulator must reproduce.

The first two golden CSVs were written by the command lines below before
the placement kernel was rewritten for speed, so byte equality shows that
a speed-up changed no statistic.  The third, a config file with a
``[sweep]`` grid plus command line overrides, was written by the commit
before the one that made the command line build its Scenario in a single
step, so it pins that refactor too.  A change that alters results on
purpose (such as the exact tie rule for placement in ROADMAP item 1)
regenerates them with the same command lines and says so.
"""

from pathlib import Path

import pytest

from dcsim.cli import main

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
]


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden_bytes(tmp_path, name, args):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
