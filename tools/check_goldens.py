"""Check the committed golden report bytes under several Python interpreters.

    python3 tools/check_goldens.py [INTERPRETER ...]

Runs the byte-comparing cases of ``tests/test_golden.py`` (its command
lines and the mixed fleet) under each interpreter given, or else under
each ``python3.10`` to ``python3.19`` found on PATH, and prints ``match``
or ``differ`` for each case and interpreter.  Only the standard library is
needed: where an interpreter has no pytest, a stub stands in for the
``pytest`` names the test module uses when it is imported.

Exits 0 when every case matches under every interpreter that could run,
1 when a case differs or fails, and 2 when no interpreter could run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300

# Run in each interpreter with the checkout's root as its one argument;
# prints {"version": ..., "results": {case: outcome}} as one JSON line.
CHILD = r"""
import json, sys, tempfile, types
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "tests")]
try:
    import pytest
except ImportError:
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda f: f)
    sys.modules["pytest"] = stub
import test_golden


def outcome(check):
    try:
        check()
    except AssertionError:
        return "differ"
    except Exception as exc:
        return "error: %s: %s" % (type(exc).__name__, exc)
    return "match"


results = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, args in test_golden.CASES:
        results[name] = outcome(
            lambda: test_golden.test_report_matches_golden_bytes(Path(tmp), name, args))
results["mixed fleet"] = outcome(test_golden.test_mixed_fleet_report_matches_golden_bytes)
print(json.dumps({"version": sys.version.split()[0], "results": results}))
"""


def interpreters(argv):
    if argv:
        return argv
    return [path for path in (shutil.which("python3.%d" % minor) for minor in range(10, 20))
            if path]


def check(interpreter):
    """Return (version, {case: outcome}), or (None, why it could not run)."""
    try:
        proc = subprocess.run([interpreter, "-c", CHILD, str(ROOT)], capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, str(exc)
    if proc.returncode != 0 or not proc.stdout.strip():
        lines = proc.stderr.strip().splitlines() or ["exited %d" % proc.returncode]
        return None, " ... ".join(dict.fromkeys((lines[0], lines[-1])))
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["version"], result["results"]


def main(argv):
    ran = failed = 0
    for interpreter in interpreters(argv):
        version, results = check(interpreter)
        if version is None:
            print("%s: could not run: %s" % (interpreter, results))
            continue
        ran += 1
        for case, outcome in results.items():
            print("%s (%s)  %-40s %s" % (interpreter, version, case, outcome))
            failed += outcome != "match"
    if not ran:
        print("no interpreter could run", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
