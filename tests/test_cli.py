"""Config parsing, report rendering, and the command line interface."""

import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from dcsim.cli import (CSV_COLUMNS, ConfigError, DEFAULT_POLICIES, ExperimentSpec,
                       _spec_from_args, build_parser, emit_report, main, parse_config,
                       run_experiment)
from dcsim import cli, engine
from dcsim.engine import MAX_FRAMES
from dcsim.model import PolicyConfig


def test_empty_config_gives_default_experiment():
    spec = parse_config("")
    assert list(spec.policies) == list(DEFAULT_POLICIES)
    assert len(spec.scenario.hosts) == 100
    assert len(spec.scenario.vms) == 290
    assert spec.scenario.seed == 42
    assert spec.scenario.runs == 10


def test_config_scalars_and_policy_sections():
    spec = parse_config("""
        seed = 7
        runs = 3
        frame_seconds = 120
        hosts = 10
        vms = 20

        [policy]
        kind = MM
        lower = 0.3
        upper = 0.7

        [policy]
        kind = NPA
    """)
    assert spec.scenario.seed == 7
    assert spec.scenario.runs == 3
    assert spec.scenario.frame_seconds == 120.0
    assert len(spec.scenario.hosts) == 10
    assert len(spec.scenario.vms) == 20
    assert spec.policies == [PolicyConfig("MM", 0.3, 0.7), PolicyConfig("NPA")]


def test_config_comments_and_blank_lines():
    spec = parse_config("# a comment\n\nseed = 9  # trailing\n")
    assert spec.scenario.seed == 9


@pytest.mark.parametrize("text,fragment", [
    ("bogus = 1", "unknown key"),
    ("seed = x", "bad value"),
    ("[nonsense]", "unknown section"),
    ("seed", "expected key = value"),
    ("[policy]\nlower = 0.3", "missing 'kind'"),
    ("[policy]\nkind = MM\nlower = 0.9\nupper = 0.1", "lower < upper"),
    ("[policy]\nkind = ST\nlower = 0.3\nupper = 0.5", "ST takes no lower threshold"),
    ("[sweep]\nstep = 2", "unknown sweep key"),
    ("[sweep]\npairs = 0.3-0.7", "bad threshold pair"),
])
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


@pytest.mark.parametrize("text", ["hosts = 0", "vms = 0", "vms = -3"])
def test_config_rejects_an_empty_fleet(text):
    # Scenario owns the fleet rule, so the message carries no config line number
    with pytest.raises(ValueError, match="a scenario needs at least one (host|VM)$"):
        parse_config(text)


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("seed = 1\nruns = 2\nbogus = 3\n")


def test_sweep_expands_threshold_grid():
    policies = "[policy]\nkind = MM\n[policy]\nkind = ST\n[policy]\nkind = NPA\n"
    sweep = "[sweep]\npairs = 0.4:0.8, 0.3:0.7\n"
    expected = [PolicyConfig("MM", 0.3, 0.7), PolicyConfig("MM", 0.4, 0.8),
                PolicyConfig("ST", upper_threshold=0.7),
                PolicyConfig("ST", upper_threshold=0.8), PolicyConfig("NPA")]
    assert parse_config(policies + sweep).policies == expected
    # a [sweep] before the [policy] sections expands them all the same
    assert parse_config(sweep + policies).policies == expected


def test_policy_without_thresholds_or_grid_is_an_error():
    with pytest.raises(ConfigError, match="thresholds"):
        parse_config("[policy]\nkind = MM\n")


def tiny_config(runs=2):
    return ("seed = 42\nruns = %d\nhosts = 12\nvms = 24\nframe_seconds = 30\n"
            "[policy]\nkind = DVFS\n[policy]\nkind = MM\nlower = 0.3\nupper = 0.7\n"
            % runs)


def test_report_has_exact_csv_columns():
    report = run_experiment(parse_config(tiny_config()))
    payload = emit_report(report, format="csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][0] == "DVFS"
    assert rows[2][0] == "MM"
    assert rows[2][1] == "30"   # thresholds render as percentages
    assert rows[2][2] == "70"


def test_csv_uses_crlf_line_endings():
    report = run_experiment(parse_config(tiny_config()))
    assert b"\r\n" in emit_report(report, format="csv")


def test_static_policies_render_blank_sla_cells():
    report = run_experiment(parse_config(tiny_config()))
    payload = emit_report(report, format="csv").decode("utf-8")
    rows = list(csv.reader(io.StringIO(payload)))
    header = {name: i for i, name in enumerate(rows[0])}
    dvfs = rows[1]
    assert dvfs[header["sla_pct_mean"]] == ""
    assert dvfs[header["avg_sla_pct_mean"]] == ""


def test_table_format_aligns_same_cells():
    report = run_experiment(parse_config(tiny_config()))
    table = emit_report(report, format="table").decode("utf-8")
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("policy")


def test_empty_report_renders_header_only():
    from dcsim.cli import Report
    payload = emit_report(Report(rows=[], scenario=None), format="csv")
    assert payload.decode("utf-8").strip().split(",") == CSV_COLUMNS


def test_emit_report_rejects_unknown_format():
    report = run_experiment(parse_config(tiny_config()))
    with pytest.raises(ValueError):
        emit_report(report, format="yaml")


def test_main_writes_csv_to_stdout(capsys):
    rc = main(["--policy", "DVFS", "--hosts", "12", "--vms", "24", "--runs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("policy,")


def test_main_writes_output_file(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(["--policy", "DVFS", "--hosts", "12", "--vms", "24",
               "--runs", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes().startswith(b"policy,")


def test_main_is_byte_identical_across_invocations(tmp_path):
    args = ["--policy", "MM", "--lower", "30", "--upper", "70",
            "--hosts", "12", "--vms", "24", "--runs", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flag_thresholds_are_percentages(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--policy", "ST", "--upper", "50", "--hosts", "12",
               "--vms", "24", "--runs", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[1][2] == "50"



@pytest.mark.parametrize("flags, cells", [
    (["--policy", "ST", "--upper", "0.01"], ["ST", "", "0.01"]),
    (["--policy", "ST", "--upper", "50.04"], ["ST", "", "50.04"]),
    (["--policy", "MM", "--lower", "0.5", "--upper", "70.25"], ["MM", "0.5", "70.25"]),
    # the stored fraction is 9.999999999999999e-10, printed exactly
    (["--policy", "ST", "--upper", "1e-7"], ["ST", "", "0.00000009999999999999999"]),
    (["--policy", "ST", "--upper", "99.9999999"], ["ST", "", "99.9999999"]),
])
def test_threshold_cells_keep_their_precision(tmp_path, flags, cells):
    # a threshold rounded to a fixed number of places could print as a
    # value the policy rejects (0) or one it did not run (100)
    out = tmp_path / "r.csv"
    assert main(flags + ["--hosts", "5", "--vms", "5", "--runs", "1", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[1][:3] == cells

def test_policy_flag_repeats(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--policy", "NPA", "--policy", "DVFS", "--hosts", "12",
               "--vms", "24", "--runs", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert [r[0] for r in rows[1:]] == ["NPA", "DVFS"]


def test_threshold_flags_apply_to_the_policies_that_take_them(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--policy", "NPA", "--policy", "MM", "--lower", "30", "--upper", "70",
               "--hosts", "12", "--vms", "24", "--runs", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert [r[:3] for r in rows[1:]] == [["NPA", "", ""], ["MM", "30", "70"]]


@pytest.mark.parametrize("flags", [
    ["--upper", "50"],
    ["--lower", "30"],
    ["--policy", "NPA", "--policy", "DVFS", "--upper", "50"],
    ["--policy", "ST", "--lower", "30", "--upper", "50"],
])
def test_threshold_flag_no_policy_takes_exits_1(capsys, flags):
    assert main(flags + ["--hosts", "12", "--vms", "24", "--runs", "1"]) == 1
    assert "needs a --policy" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["NPA", "DVFS"])
def test_overflowing_frame_energy_exits_1(capsys, policy):
    # 1e306 s frames overflow the frame energy to inf; a later frame's
    # energy would be inf - inf = nan
    rc = main(["--policy", policy, "--frame-seconds", "1e306", "--runs", "2",
               "--hosts", "12", "--vms", "24"])
    assert rc == 1
    assert "energy_wh must be finite" in capsys.readouterr().err


def test_validation_error_exits_1(capsys):
    rc = main(["--policy", "MM", "--hosts", "12", "--vms", "24"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_policy_exits_1(capsys):
    rc = main(["--policy", "BOGUS"])
    assert rc == 1


def test_bad_flag_value_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "notanumber"])
    assert exc.value.code == 1


def test_out_of_memory_exits_1(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError
    monkeypatch.setattr(cli, "run_experiment", exhausted)
    assert main(["--policy", "DVFS", "--runs", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


def test_infeasible_scenario_exits_2(capsys):
    rc = main(["--policy", "NPA", "--hosts", "1", "--vms", "24", "--runs", "1"])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_infeasible_first_row_is_named_when_rows_share_runs(capsys):
    # the rows of a run index run back to back, and the first row fails first
    rc = main(["--policy", "DVFS", "--policy", "NPA", "--hosts", "1", "--vms", "24",
               "--runs", "2"])
    assert rc == 2
    assert capsys.readouterr().err == ("infeasible scenario: cannot place 23 VM(s) at "
                                       "requested capacity (policy row DVFS)\n")


def test_experiment_places_the_fleet_once(monkeypatch):
    # placement reads only the fleet, which the default 7 rows x 2 runs share;
    # each run still starts from host and VM states of its own
    calls = []
    placed = []
    mbfd, run_lockstep = engine.mbfd, cli.run_lockstep

    def counted(req):
        calls.append(req)
        return mbfd(req)

    def recorded(runs):
        # as placed, before static rows join one pass
        placed.append([(state, scenario, [*state.hosts, *state.vms],
                        [list(h.resident_vms) for h in state.hosts],
                        [h.powered_on for h in state.hosts]) for state, scenario in runs])
        return run_lockstep(runs)

    monkeypatch.setattr(engine, "mbfd", counted)
    monkeypatch.setattr(cli, "run_lockstep", recorded)
    run_experiment(parse_config("runs = 2\n"))
    assert len(calls) == 1
    assert len(placed) == 2 and all(len(runs) == 7 for runs in placed)
    objects = [o for runs in placed for _, _, states, *_ in runs for o in states]
    assert len({id(o) for o in objects}) == len(objects) == 2 * 7 * (100 + 290)
    for i, runs in enumerate(placed):
        for state, scenario, _, residents, powered in runs:
            alone = engine.initial_placement(scenario, seed=state.rng.seed)
            assert state.rng.seed == cli.child_rng(scenario.seed, i).seed
            assert residents == [h.resident_vms for h in alone.hosts]
            assert powered == [h.powered_on for h in alone.hosts]


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(tiny_config())
    out = tmp_path / "r.csv"
    rc = main(["--config", str(cfg), "--runs", "1", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    header = {name: i for i, name in enumerate(rows[0])}
    assert rows[1][header["runs"]] == "1"


@pytest.mark.parametrize("flags", [["--vms", "0"], ["--hosts", "0"], ["--hosts", "-1"]])
def test_empty_fleet_flag_exits_1(capsys, flags):
    assert main(["--policy", "NPA", "--runs", "1"] + flags) == 1
    what = "VM" if flags[0] == "--vms" else "host"
    assert capsys.readouterr().err == "error: a scenario needs at least one %s\n" % what


def test_empty_fleet_in_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("vms = 0\n")
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: a scenario needs at least one VM\n"


@pytest.mark.parametrize("where", ["nonexistent.cfg", "."])
def test_unreadable_config_file_exits_1(tmp_path, capsys, where):
    cfg = tmp_path / where
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


@pytest.mark.parametrize("where", ["missing/dir/x.csv", "."])
def test_unwritable_out_path_exits_1(tmp_path, capsys, where):
    out = tmp_path / where
    assert main(["--policy", "NPA", "--runs", "1", "--hosts", "2", "--vms", "2",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""


def run_child(*args, text=True, **env):
    """Run the command line in a child process, so a hang fails by timeout.

    ``env`` adds environment variables; ``text=False`` keeps the output bytes.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env)
    return subprocess.run([sys.executable, "-m", "dcsim.cli", *args],
                          capture_output=True, text=text, env=env, timeout=60)


def test_report_bytes_do_not_depend_on_the_hash_seed():
    # set and string-hash order changes with PYTHONHASHSEED; a report that
    # followed it would differ from one interpreter to the next
    args = ("--policy", "DVFS", "--policy", "ST", "--policy", "RC", "--lower", "30",
            "--upper", "70", "--hosts", "12", "--vms", "36", "--runs", "2")
    first, second = (run_child(*args, text=False, PYTHONHASHSEED=seed)
                     for seed in ("0", "12345"))
    assert (first.returncode, second.returncode) == (0, 0)
    assert first.stdout.count(b"\r\n") == 4
    assert first.stdout == second.stdout


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_frame_seconds_exits_1(value):
    # a NaN frame once made the simulation loop run forever
    proc = run_child("--policy", "MM", "--lower", "30", "--upper", "70", "--runs", "2",
                     "--hosts", "12", "--vms", "24", "--frame-seconds", value)
    assert proc.returncode == 1
    assert "frame_seconds must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_frame_too_short_to_advance_work_exits_1():
    # each 1e-300 s frame executes about 1e-297 MI, which the remaining
    # 150000 MI absorb in float: the run once never ended
    proc = run_child("--policy", "NPA", "--frame-seconds", "1e-300", "--runs", "1",
                     "--hosts", "1", "--vms", "1")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: frame 0 advanced no VM's remaining work; the run cannot end"]


def test_run_past_the_frame_limit_exits_1():
    # each 1e-4 s frame advances the work a little, but the run would need
    # millions of frames: it once ran for minutes
    proc = run_child("--policy", "NPA", "--hosts", "1", "--vms", "1", "--runs", "1",
                     "--frame-seconds", "1e-4")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: the run reached its limit of %d frames with 1 VM(s) unfinished; use longer "
        "frames" % MAX_FRAMES]


# The command line over generated config text and flags.  Parsing must end
# in a spec, a ValueError (ConfigError included) or argparse's exit 1; the
# whole command, run in-process under a small MAX_FRAMES so that it also
# simulates what it parses, must exit 0, 1 or 2 without a traceback.  Values
# are at most three characters, so no generated fleet has more than 999
# hosts or VMs.
_values = st.one_of(
    st.text(alphabet="0123456789.-+e_:, naifx", max_size=3),
    st.sampled_from(["0", "-1", "1", "42", "30", "0.3", "0.7", "1e9", "nan", "inf",
                     "MM", "ST", "NPA", "HPG", "0.3:0.7, 0.4:0.8", "x.csv"]))
_keys = st.sampled_from(["seed", "runs", "frame_seconds", "hosts", "vms", "out",
                         "kind", "lower", "upper", "pairs", "bogus", ""])
_config_lines = st.one_of(
    st.sampled_from(["[policy]", "[sweep]", "[nonsense]", "# comment", "", "seed"]),
    st.builds(lambda k, v: "%s = %s" % (k, v), _keys, _values))
_flags = st.lists(st.one_of(
    st.tuples(st.sampled_from(["--policy"]),
              st.sampled_from(["NPA", "DVFS", "ST", "MM", "HPG", "RC", "BOGUS"])),
    st.tuples(st.sampled_from(["--lower", "--upper", "--seed", "--runs", "--frame-seconds",
                               "--hosts", "--vms", "--out", "--format"]), _values),
    st.tuples(st.sampled_from(["--bogus", "--runs", "--policy"]))), max_size=6)


def _parse_outcome(parse):
    try:
        spec = parse()
    except ValueError:
        return "error"
    except SystemExit as exc:
        assert exc.code == 1
        return "exit 1"
    assert isinstance(spec, ExperimentSpec) and spec.policies and spec.scenario.vms
    return "spec"


def _exit_code(argv):
    """The exit code of ``main(argv)``, run in-process with its output captured."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None)
@given(st.lists(_config_lines, max_size=8), _flags, st.booleans())
def test_front_end_ends_in_a_spec_or_a_clean_error(lines, flags, with_config):
    text = "\n".join(lines)
    event("parse_config: " + _parse_outcome(lambda: parse_config(text)))
    argv = [arg for flag in flags for arg in flag]
    with tempfile.TemporaryDirectory() as tmp:
        if with_config:
            cfg = Path(tmp) / "exp.cfg"
            cfg.write_text(text, encoding="utf-8")
            argv = ["--config", str(cfg)] + argv
        event("flags: " + _parse_outcome(
            lambda: _spec_from_args(build_parser().parse_args(argv))))
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative --out lands here
        try:
            with mock.patch.object(engine, "MAX_FRAMES", 3):
                code = _exit_code(argv)
        finally:
            os.chdir(cwd)
    event("main: exit %s" % code)
    assert code in (0, 1, 2)
