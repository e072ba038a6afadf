"""One timed measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py cli WORKLOAD SEED OUT_CSV
        Times ``dcsim.cli.main`` on the workload's arguments, writing the
        report to OUT_CSV: wall time, CPU time (user + system, including
        reaped child processes), peak resident memory and the exit code.

    python3 perfbench/worker.py setup WORKLOAD SEED
        Times importing dcsim, building the workload's scenario and one
        ``dcsim.initial_placement``.

Both also give the monotonic clock's reading at the start and end of the
timed part, so that the samples of ``speed.py`` can be matched to it.
dcsim is imported from the ``src`` directory beside this one, never from
an installed copy.
"""

import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_dcsim():
    sys.path.insert(0, str(SRC))
    import dcsim
    if not Path(dcsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError("dcsim was imported from %s, not from %s" % (dcsim.__file__, SRC))
    return dcsim


def _cpu_s():
    # user + system time of this process and of the children it has reaped
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def time_cli(workload, seed, out_path):
    _import_dcsim()
    from dcsim.cli import main
    argv = workload.argv(seed, out_path)
    cpu0 = _cpu_s()
    start = time.monotonic()
    t0 = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"exit_code": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_kb / 1024.0,
            "start": start, "end": time.monotonic()}


def time_setup(workload, seed):
    start = time.monotonic()
    t0 = time.perf_counter()
    dcsim = _import_dcsim()
    policy, lower, upper = workload.rows[0]
    scenario = dcsim.default_paper_scenario(
        policy=policy, lower_threshold=lower, upper_threshold=upper,
        frame_seconds=workload.frame_seconds, seed=seed, runs=workload.runs,
        n_hosts=workload.hosts, n_vms=workload.vms)
    dcsim.initial_placement(scenario)
    return {"setup_s": time.perf_counter() - t0, "start": start, "end": time.monotonic()}


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "cli":
        result = time_cli(workload, seed, argv[3])
    elif mode == "setup":
        result = time_setup(workload, seed)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
