"""The tools: A/B timing (``tools/ab_time.py``) and line counts (``tools/count_lines.py``)."""

import importlib.util
import re
import shutil
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["--", "--policy", "DVFS", "--hosts", "3", "--vms", "4", "--runs", "1"]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ab_time():
    return _tool("ab_time")


def _count(source):
    return _tool("count_lines").count(source)


def ratio_line(line):
    """(median, lower quartile, upper quartile, wins, rounds) of the ratio line."""
    match = re.fullmatch(r"median ratio (\S+) \(change / parent\), quartiles (\S+) to (\S+), "
                         r"change faster in (\d+) of (\d+) rounds", line)
    assert match, line
    return tuple(map(float, match.groups()))


def gain_line(line):
    """(verdict, wins, rounds, wins needed, median gap, "more" or "no more", parent's spread)
    of the last line."""
    match = re.fullmatch(r"gain rule (holds|fails): change faster in (\d+) of (\d+) rounds "
                         r"\((\d+) needed\); parent's median less change's is (\S+) s, "
                         r"(more|no more) than the parent's quartile spread of (\S+) s", line)
    assert match, line
    verdict, wins, rounds, needed, gap, more, spread = match.groups()
    return verdict, int(wins), int(rounds), int(needed), float(gap), more, float(spread)


def test_ab_time_times_two_checkouts_that_agree(capsys):
    assert _ab_time().main([str(ROOT), "--rounds", "2"] + ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    median, q1, q3, wins, rounds = ratio_line(lines[-2])
    assert q1 <= median <= q3 and wins <= rounds == 2
    assert gain_line(lines[-1])[1:4] == (wins, 2, 2)


def test_ab_time_prints_the_quartiles_of_the_ratio(capsys, monkeypatch):
    module = _ab_time()
    # each call's CPU time as this fake reports it: parent, then change, by round
    times = iter([1.0, 0.5, 0.6, 1.0, 1.0, 0.9, 0.8, 1.0, 1.0, 1.0])
    monkeypatch.setattr(module, "run", lambda cli, argv: (next(times), 0, b"report"))
    assert module.main([str(ROOT), "--rounds", "5"] + ARGS) == 0
    # rounds alternate which side goes first; the ratios are 0.5, 0.6, 0.9, 0.8, 1.0
    *_, ratios, gain = capsys.readouterr().out.splitlines()
    assert ratio_line(ratios) == (0.8, 0.6, 0.9, 4, 5)
    # the parent's times are all 1.0, but 4 of 5 rounds fall short of nine tenths
    assert gain_line(gain) == ("fails", 4, 5, 5, 0.2, "more", 0.0)
    times = iter([2.0, 1.5])
    assert module.main([str(ROOT), "--rounds", "1"] + ARGS) == 0
    *_, ratios, gain = capsys.readouterr().out.splitlines()
    assert ratio_line(ratios) == (0.75, 0.75, 0.75, 1, 1)
    assert gain_line(gain) == ("holds", 1, 1, 1, 0.5, "more", 0.0)


def test_ab_time_prints_whether_the_gain_rule_holds(capsys, monkeypatch):
    module = _ab_time()
    parent = [1.0, 1.2] * 5  # median 1.1, quartiles 1.0 and 1.2
    cases = [
        # faster in every round, but the medians only 0.05 s apart
        ([p - 0.05 for p in parent], ("fails", 10, 10, 9, 0.05, "no more", 0.2)),
        # 0.4 s apart, but faster in 8 rounds of 10
        ([0.7] * 8 + [1.3] * 2, ("fails", 8, 10, 9, 0.4, "more", 0.2)),
        ([0.7] * 9 + [1.3], ("holds", 9, 10, 9, 0.4, "more", 0.2)),
    ]
    for change, expected in cases:
        # each side's times in round order, whichever side goes first
        times = {"dcsim_parent.cli": iter(parent), "dcsim_change.cli": iter(change)}
        monkeypatch.setattr(module, "run",
                            lambda cli, argv: (next(times[cli.__name__]), 0, b"report"))
        assert module.main([str(ROOT), "--rounds", "10"] + ARGS) == 0
        assert gain_line(capsys.readouterr().out.splitlines()[-1]) == expected


def test_ab_time_refuses_to_time_reports_that_differ(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "dcsim" / "cli.py"
    cli.write_text(cli.read_text().replace('"%.6f" % value', '"%.5f" % value'))
    assert _ab_time().main([str(tmp_path), "--rounds", "2"] + ARGS) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "the two reports differ; nothing is timed\n"


def test_count_lines_skips_docstrings_comments_and_blank_lines():
    source = textwrap.dedent('''\
        """A module docstring
        over two lines."""

        # a comment
        import math


        class A:
            """A one-line class docstring."""

            def f(self):
                """A method docstring

                over three lines."""
                # an indented comment
                return 1  # a trailing comment


        async def g():
            """An async docstring."""
            return math.pi
        ''')
    # import, class, def, return, async def and return
    assert _count(source) == (21, 6)


def test_count_lines_counts_a_string_that_is_no_docstring():
    source = textwrap.dedent('''\
        x = 1
        """Not a docstring: the module's first statement is x = 1."""


        def f():
            y = 2
            """Nor this: f's first statement is y = 2."""
            return y
        ''')
    assert _count(source) == (8, 6)


def test_count_lines_counts_newlines_as_wc_does():
    # ``wc -l`` counts newline characters, so an unterminated last line adds none
    assert _count("x = 1\ny = 2") == (1, 2)
    assert _count("x = 1\n\n\n") == (3, 1)
    assert _count("") == (0, 0)
