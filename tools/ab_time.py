"""Time this checkout's dcsim against another's, in one process, in alternation.

    python3 tools/ab_time.py PARENT_CHECKOUT [--rounds N] -- DCSIM_ARGS ...

Imports ``PARENT_CHECKOUT/src/dcsim`` and this checkout's ``src/dcsim``
under two package names, then calls each one's ``cli.main(DCSIM_ARGS)``
in turn, ``--rounds`` times each (default 10), alternating which goes
first.  Each call is timed in CPU time of this process, with its report
captured instead of printed.  It refuses to time, and exits 1, when the
two checkouts' reports differ or a call does not return 0.  Otherwise it
prints each round's times and, last, the median ratio (this checkout over
the parent), the ratio's quartiles (the spread that a median is compared
with) and the rounds in which this checkout was faster.

Both sides share one interpreter, so a CPU whose speed changes between
fresh interpreters, as a shared vCPU's may, moves both alike.  Only the
standard library is needed.
"""

import argparse
import gc
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(checkout: Path, name: str):
    """``checkout``'s ``src/dcsim`` package, imported as ``name``; its ``cli`` module."""
    package = checkout / "src" / "dcsim"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a checkout loaded earlier under this name
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def run(cli, argv):
    """(CPU seconds, exit code, report bytes) of one ``cli.main(argv)`` call."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    gc.collect()
    try:
        start = time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # the argument parser's exit
            code = exc.code
        elapsed = time.process_time() - start
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    return elapsed, code, out.buffer.getvalue() + err.getvalue().encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=10)
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        parser.error("give dcsim's arguments after --")
    split = argv.index("--")
    args, dcsim_args = parser.parse_args(argv[:split]), argv[split + 1:]
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = {"parent": load(args.parent.resolve(), "dcsim_parent"),
             "change": load(ROOT, "dcsim_change")}
    times = {"parent": [], "change": []}
    for i in range(args.rounds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        reports = {}
        for side in order:
            elapsed, code, reports[side] = run(sides[side], dcsim_args)
            if code != 0:
                print("the %s's dcsim exited %d:\n%s" % (side, code, reports[side].decode()),
                      file=sys.stderr)
                return 1
            times[side].append(elapsed)
        if reports["parent"] != reports["change"]:
            print("the two reports differ; nothing is timed", file=sys.stderr)
            return 1
        print("round %d: parent %.3f s, change %.3f s"
              % (i + 1, times["parent"][-1], times["change"][-1]))
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    # one round has no spread: its quartiles are its ratio
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1
                 else ratios * 3)
    print("median ratio %.3f (change / parent), quartiles %.3f to %.3f, change faster in %d "
          "of %d rounds" % (statistics.median(ratios), q1, q3, wins, args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
