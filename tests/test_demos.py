"""Every demo script and every ``python`` block of the README runs to completion
against the current library."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dcsim.cli import ExperimentSpec, _spec_from_args, build_parser, parse_config
from dcsim.model import PolicyConfig

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _python_blocks():
    """(line of the opening fence, code) of each README ``python`` block.

    A block's test id is its ``## `` section and its ordinal there, such as
    ``Library-1``, so editing another section renames no test.
    """
    blocks, seen = [], Counter()
    for m in re.finditer(r"^```python\n(.*?)^```$", README, re.M | re.S):
        section = (["README"] + re.findall(r"^## (.+)$", README[:m.start()], re.M))[-1]
        seen[section] += 1
        blocks.append(pytest.param(README.count("\n", 0, m.start()) + 1, m.group(1),
                                   id="%s-%d" % (section, seen[section])))
    return blocks


BLOCKS = _python_blocks()
# the plain blocks of the README's "## Command line" section
COMMAND_LINE = re.findall(r"^```\n(.*?)^```$",
                          README.split("## Command line\n", 1)[1].split("\n## ", 1)[0],
                          re.M | re.S)
# each line of the example block, whose lines are all ``dcsim --...`` commands
EXAMPLES = [line for block in COMMAND_LINE
            if all(line.startswith("dcsim --") for line in block.splitlines())
            for line in block.splitlines()]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("line, code", BLOCKS)
def test_readme_python_block_runs(line, code):
    # the offset keeps a traceback's line numbers those of the README
    exec(compile("\n" * line + code, str(ROOT / "README.md"), "exec"), {})


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_command_line_example_parses(line):
    spec = _spec_from_args(build_parser().parse_args(line.split()[1:]))
    assert isinstance(spec, ExperimentSpec) and spec.policies


def test_readme_config_block_gives_its_rows():
    assert EXAMPLES  # the section's example block is found, so no case is silently dropped
    config, = [block for block in COMMAND_LINE if "[sweep]" in block]
    spec = parse_config(config)
    assert spec.policies == ([PolicyConfig("MM", lo, hi)
                              for lo, hi in ((0.3, 0.7), (0.4, 0.8), (0.5, 0.9))]
                             + [PolicyConfig("ST", upper_threshold=hi) for hi in (0.7, 0.8, 0.9)])


def test_readme_layout_names_every_module():
    layout = README.split("### Layout\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `dcsim\.(\w+)`", layout, re.M)
    modules = [p.stem for p in (ROOT / "src" / "dcsim").glob("*.py") if p.stem != "__init__"]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(modules)
