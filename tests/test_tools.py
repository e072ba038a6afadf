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
    """(median, lower quartile, upper quartile, wins, rounds) of the last line."""
    match = re.fullmatch(r"median ratio (\S+) \(change / parent\), quartiles (\S+) to (\S+), "
                         r"change faster in (\d+) of (\d+) rounds", line)
    assert match, line
    return tuple(map(float, match.groups()))


def test_ab_time_times_two_checkouts_that_agree(capsys):
    assert _ab_time().main([str(ROOT), "--rounds", "2"] + ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    median, q1, q3, wins, rounds = ratio_line(lines[-1])
    assert q1 <= median <= q3 and wins <= rounds == 2


def test_ab_time_prints_the_quartiles_of_the_ratio(capsys, monkeypatch):
    module = _ab_time()
    # each call's CPU time as this fake reports it: parent, then change, by round
    times = iter([1.0, 0.5, 0.6, 1.0, 1.0, 0.9, 0.8, 1.0, 1.0, 1.0])
    monkeypatch.setattr(module, "run", lambda cli, argv: (next(times), 0, b"report"))
    assert module.main([str(ROOT), "--rounds", "5"] + ARGS) == 0
    # rounds alternate which side goes first; the ratios are 0.5, 0.6, 0.9, 0.8, 1.0
    assert ratio_line(capsys.readouterr().out.splitlines()[-1]) == (0.8, 0.6, 0.9, 4, 5)
    times = iter([2.0, 1.5])
    assert module.main([str(ROOT), "--rounds", "1"] + ARGS) == 0
    assert ratio_line(capsys.readouterr().out.splitlines()[-1]) == (0.75, 0.75, 0.75, 1, 1)


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
