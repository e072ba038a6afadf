"""Invariants that every run keeps after every frame, on small mixed fleets.

Each generated experiment is one to four policy rows of any kinds on one
shared workload trace, placed and stepped as the command line does
(``place_fleet``, ``placed_state``, ``run_lockstep``).  It must end in
each row's ``RunMetrics`` or in a clean ``ValueError``,
``InfeasibleScenarioError`` or ``StalledRunError``, and after every
``step`` each run stepped must hold:

- its host and VM states agree (``test_engine.assert_consistent``);
- its frame layout, when it has one, is the one its hosts give now;
- the frame's SLA violations are at most its measurements;
- under MM, HPG and RC, no host that was off is on;
- under ST, MM, HPG and RC, no powered-on host is empty.

That a host's residents fit its RAM and storage is not among them: a
policy pass can still overfill a host (see ``CHANGES.md``).

Last, a falsified property must be reported as a failure beside the tests
after it, not end the session.
"""

import subprocess
import sys
import textwrap
from dataclasses import replace
from operator import is_
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings, strategies as st

from dcsim import engine
from dcsim import (HostSpec, InfeasibleScenarioError, PolicyConfig, RunMetrics, Scenario,
                   StalledRunError, VmSpec, WorkloadTrace, place_fleet, placed_state,
                   run_lockstep)
from dcsim.model import STATIC_KINDS, TWO_THRESHOLD_KINDS
from test_engine import assert_consistent

_unit = st.floats(0.0, 1.0)
_hosts = st.lists(st.tuples(st.floats(500.0, 4000.0), st.floats(1024.0, 8192.0),
                            st.floats(4.0, 64.0), st.floats(50.0, 500.0), _unit),
                  min_size=1, max_size=8)
_vms = st.lists(st.tuples(st.floats(50.0, 1000.0),
                          st.one_of(st.just(0.0), st.floats(0.0, 1024.0)),
                          st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                          st.floats(500.0, 30000.0)),
                min_size=1, max_size=12)
_pairs = st.tuples(_unit, _unit).filter(lambda p: p[0] != p[1]).map(sorted)
_rows = st.lists(st.one_of(
    st.sampled_from([PolicyConfig("NPA"), PolicyConfig("DVFS")]),
    st.builds(lambda hi: PolicyConfig("ST", upper_threshold=hi),
              st.floats(0.0, 1.0, exclude_min=True)),
    st.builds(lambda kind, pair: PolicyConfig(kind, *pair),
              st.sampled_from(TWO_THRESHOLD_KINDS), _pairs)), min_size=1, max_size=4)

_step = engine.step


def _checked_step(state, sharing=()):
    runs = [state, *sharing]
    was_on = [[h.powered_on for h in run.hosts] for run in runs]
    frame = _step(state, sharing)
    for run, before in zip(runs, was_on):
        assert_consistent(run)
        if run.layout is not None:
            ids, fleet, requested, spans = run.layout
            rebuilt = engine._layout(run)
            assert (ids, requested, spans) == (rebuilt[0], rebuilt[2], rebuilt[3])
            assert len(fleet) == len(rebuilt[1]) and all(map(is_, fleet, rebuilt[1]))
        assert run.frames[-1].violation_events <= run.frames[-1].measurements
        kind = run.scenario.policy.kind
        if kind in TWO_THRESHOLD_KINDS:
            assert all(on or not h.powered_on for h, on in zip(run.hosts, before))
        if kind not in STATIC_KINDS:
            assert all(h.resident_vms for h in run.hosts if h.powered_on)
    return frame


@settings(max_examples=200, deadline=None)
@given(_hosts, _vms, _rows, st.sampled_from([5.0, 30.0, 60.0]), st.integers(0, 2 ** 64 - 1))
def test_every_run_keeps_its_invariants_after_every_step(hosts, vms, rows, frame_seconds,
                                                         seed):
    base = Scenario(hosts=tuple(HostSpec(i, *h) for i, h in enumerate(hosts)),
                    vms=tuple(VmSpec(i, *v) for i, v in enumerate(vms)),
                    policy=rows[0], frame_seconds=frame_seconds, seed=seed, runs=1)
    try:
        plan = place_fleet(base)
        trace = WorkloadTrace(seed, len(vms))
        states = [placed_state(replace(base, policy=p), plan, trace) for p in rows]
        for state in states:
            assert_consistent(state)
        with mock.patch.object(engine, "step", _checked_step), \
                mock.patch.object(engine, "MAX_FRAMES", 60):
            metrics = run_lockstep(states)
    except (ValueError, InfeasibleScenarioError, StalledRunError) as exc:
        event(type(exc).__name__)
        return
    event("RunMetrics, %s" % ("migrated" if any(m.migration_count for m in metrics)
                              else "no migration"))
    assert len(metrics) == len(rows)
    assert all(isinstance(m, RunMetrics) for m in metrics)


def test_a_falsified_property_is_reported_beside_the_tests_after_it(tmp_path):
    # under this project's warning filters, in a session of its own
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_falsified(x):
            assert x < 5


        def test_passes():
            pass
        """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "-c", str(config), "--rootdir", str(tmp_path), "test_child.py"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout.splitlines()[-1]
