"""Time this checkout's dcsim against another's, in one process, in alternation.

    python3 tools/ab_time.py PARENT_CHECKOUT [--rounds N] -- DCSIM_ARGS ...

Imports ``PARENT_CHECKOUT/src/dcsim`` and this checkout's ``src/dcsim``
under two package names, then calls each one's ``cli.main(DCSIM_ARGS)``
in turn, ``--rounds`` times each (default 10), alternating which goes
first.  Each call is timed in CPU time of this process, with its report
captured instead of printed.  It refuses to time, and exits 1, when the
two checkouts' reports differ or a call does not return 0.  Otherwise it
prints each round's times, then the median ratio (this checkout over the
parent), the ratio's quartiles and the rounds in which this checkout was
faster, and last whether the gain rule holds: this checkout faster in at
least nine tenths of the rounds (ties count for neither side), and its
median time below the parent's by more than the distance between the
quartiles of the parent's own times.

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
    parent, change = times["parent"], times["change"]
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(c < p for p, c in zip(parent, change))
    print("median ratio %.3f (change / parent), quartiles %.3f to %.3f, change faster in %d "
          "of %d rounds" % (statistics.median(ratios), *quartiles(ratios), wins, args.rounds))
    # the gain rule: faster in nine tenths of the rounds, rounded up, and the
    # medians further apart than the parent's own quartiles
    needed = -(-9 * args.rounds // 10)
    q1, q3 = quartiles(parent)
    gap = statistics.median(parent) - statistics.median(change)
    print("gain rule %s: change faster in %d of %d rounds (%d needed); parent's median less "
          "change's is %.3f s, %s than the parent's quartile spread of %.3f s"
          % ("holds" if wins >= needed and gap > q3 - q1 else "fails", wins, args.rounds,
             needed, gap, "more" if gap > q3 - q1 else "no more", q3 - q1))
    return 0


def quartiles(values):
    """The lower and upper quartiles of ``values``; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


if __name__ == "__main__":
    sys.exit(main())
