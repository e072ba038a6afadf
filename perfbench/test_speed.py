"""The speed sampler finds the CPU a worker runs on and averages the right samples."""

import os
import subprocess
import sys
import time

import pytest

import speed


def test_pass_s_averages_the_padded_interval():
    sampler = speed.Sampler(os.devnull)
    sampler.samples = [(9.0, 0.010), (10.0 - speed.PAD_S, 0.002), (11.0, 0.004),
                       (12.0 + speed.PAD_S, 0.006), (13.0, 0.010)]
    assert sampler.pass_s(10.0, 12.0) == pytest.approx(0.004)
    assert sampler.pass_s(20.0, 21.0) is None


def test_probe_pass_is_deterministic():
    assert speed.probe_pass() == speed.probe_pass() > 0.0


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_running_cpus_follows_a_busy_child_and_skips_one():
    busy = [sys.executable, "-c", "import time\nt = time.monotonic() + 20\n"
            "while time.monotonic() < t: pass"]
    child = subprocess.Popen(busy)
    try:
        deadline = time.monotonic() + 10.0
        cpus = []
        while not cpus and time.monotonic() < deadline:
            cpus = speed._running_cpus(os.getpid(), skip=-1)
        assert cpus and set(cpus) <= os.sched_getaffinity(0)
        assert speed._running_cpus(os.getpid(), skip=child.pid) == []
    finally:
        child.kill()
        child.wait(timeout=10)
