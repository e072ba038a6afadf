"""Sample how fast the CPUs running the benchmark's workers are, while they run.

    python3 perfbench/speed.py ROOT_PID OUT_FILE

The 2-vCPU virtual machines this benchmark was built on change speed by up
to 2x, each vCPU on its own, in phases of a second to minutes; wall and
CPU time both follow.  So while a run measures, this sampler wakes every
``PERIOD_S`` seconds, moves itself onto the CPU of a running descendant of
ROOT_PID (taking turns when several run), times one ``probe_pass`` there
and appends ``<monotonic start> <seconds> <cpu>`` to OUT_FILE.  It stops on
SIGTERM, or when ROOT_PID, its parent, is gone.  Each measured interval is then scaled by the mean pass time of
the samples taken in it, to seconds at the speed where a pass takes
``PASS_REF_S``.

``probe_pass`` does what dcsim spends its time on, in miniature and without
importing dcsim: splitmix64-keyed draws, dataclass snapshots and a
best-fit-decreasing placement that picks the host whose power grows least.
It never changes, so a change to dcsim moves the scaled times and not the
yardstick.  The sampler takes about ``PASS_REF_S / PERIOD_S`` of the CPU
it samples.
"""

import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

PERIOD_S = 0.1
# nominal seconds of one probe pass; scaled times are seconds at this speed
PASS_REF_S = 0.002
# samples up to this long before or after an interval also count for it
PAD_S = 0.5
STOP_TIMEOUT_S = 10

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_HOSTS, _VMS = 40, 60


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _u01(*keys):
    h = _mix64(42)
    for k in keys:
        h = _mix64(h ^ ((k * _GOLDEN) & _MASK64))
    return (h >> 11) * (2.0 ** -53)


@dataclass
class _Host:
    id: int
    mips: float
    powered_on: bool
    load: float
    ram_free: float


def _power_increase(host, demand):
    after = min(1.0, (host.load + demand) / host.mips)
    if not host.powered_on:
        return 175.0 + 75.0 * after
    return 75.0 * after - 75.0 * min(1.0, host.load / host.mips)


def probe_pass():
    """Place _VMS keyed VMs on _HOSTS hosts; returns the summed power increase."""
    hosts = sorted((replace(_Host(i, 1000.0 * (1 + i % 3), False, 0.0, 8192.0))
                    for i in range(_HOSTS)), key=lambda h: h.id)
    vms = sorted(((v, 250.0 * (1 + v % 4) * _u01(v)) for v in range(_VMS)),
                 key=lambda x: (-x[1], x[0]))
    total = 0.0
    for _, demand in vms:
        best = best_delta = None
        for host in hosts:
            if host.load + demand > 0.9 * host.mips or host.ram_free < 128.0:
                continue
            delta = _power_increase(host, demand)
            if best is None or delta < best_delta:
                best, best_delta = host, delta
        if best is not None:
            best.powered_on = True
            best.load += demand
            best.ram_free -= 128.0
            total += best_delta
    return total


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (FileNotFoundError, ProcessLookupError):  # the process has just ended
        return ""


def _running_cpus(root, skip):
    """CPUs of the descendants of ``root`` (not ``skip``) that are running now."""
    cpus, todo = set(), [root]
    while todo:
        pid = todo.pop()
        for tid in _read_tids(pid):
            todo += [int(c) for c in _read("/proc/%d/task/%s/children" % (pid, tid)).split()
                     if int(c) != skip]
        if pid != root:
            stat = _read("/proc/%d/stat" % pid)
            fields = stat[stat.rfind(")") + 2:].split()
            if len(fields) > 36 and fields[0] == "R":
                cpus.add(int(fields[36]))
    return sorted(cpus)


def _read_tids(pid):
    try:
        return os.listdir("/proc/%d/task" % pid)
    except FileNotFoundError:
        return []


def sample(root, out):
    """Sample until SIGTERM or until ``root`` is gone; see the module docstring."""
    gc.disable()  # a collection inside a pass would be timed as a slow CPU
    turn = 0
    while os.getppid() == root:  # stop if the benchmark is gone
        time.sleep(PERIOD_S)
        cpus = _running_cpus(root, os.getpid())
        if not cpus:
            continue
        cpu = cpus[turn % len(cpus)]
        turn += 1
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the CPU left this process's set
            continue
        t0 = time.monotonic()
        probe_pass()
        out.write("%.6f %.9f %d\n" % (t0, time.monotonic() - t0, cpu))
        out.flush()


class Sampler:
    """Runs ``speed.py`` beside the calling process for the length of a ``with`` block."""

    def __init__(self, path):
        self.path = Path(path)
        self.samples = []   # (monotonic start, pass seconds)

    def __enter__(self):
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(os.getpid()), str(self.path)],
            stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self.path.exists():
            for line in self.path.read_text(encoding="ascii").splitlines():
                fields = line.split()
                if len(fields) == 3:
                    self.samples.append((float(fields[0]), float(fields[1])))
        return False

    def pass_s(self, start, end):
        """Mean pass time of the samples taken in [start, end], padded by PAD_S; None if none."""
        times = [d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S]
        return statistics.fmean(times) if times else None


def main(argv):
    root, path = int(argv[0]), argv[1]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "w", encoding="ascii") as out:
        sample(root, out)


if __name__ == "__main__":
    main(sys.argv[1:])
