"""The A/B timing tool, ``tools/ab_time.py``."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARGS = ["--", "--policy", "DVFS", "--hosts", "3", "--vms", "4", "--runs", "1"]


def _ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_time_times_two_checkouts_that_agree(capsys):
    assert _ab_time().main([str(ROOT), "--rounds", "2"] + ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1].startswith("median ratio ")
    assert lines[-1].endswith(" of 2 rounds")


def test_ab_time_refuses_to_time_reports_that_differ(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "dcsim" / "cli.py"
    cli.write_text(cli.read_text().replace('"%.6f" % value', '"%.5f" % value'))
    assert _ab_time().main([str(tmp_path), "--rounds", "2"] + ARGS) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "the two reports differ; nothing is timed\n"
