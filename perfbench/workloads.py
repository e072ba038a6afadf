"""The benchmark's workloads: the dcsim command lines it times and what they hold.

Every workload runs on the fleet built by ``dcsim.default_paper_scenario``:
hosts of 1000/2000/3000 MIPS assigned round-robin, each with 8192 MB RAM,
1024 GB storage, 250 W peak and a 0.7 idle fraction; VMs of
250/500/750/1000 MIPS round-robin, each with 128 MB RAM, 1 GB storage
and 150000 MI of work.  The master seed is appended as ``--seed``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # dcsim command-line arguments, without --seed and --out
    cli_args: tuple
    # report rows in order: (policy, lower fraction or None, upper fraction or None)
    rows: tuple
    runs: int
    hosts: int
    vms: int
    frame_seconds: float

    def argv(self, seed, out_path):
        return list(self.cli_args) + ["--seed", str(seed), "--out", str(out_path)]


DEFAULT_ROWS = (("NPA", None, None), ("DVFS", None, None),
                ("ST", None, 0.5), ("ST", None, 0.6),
                ("MM", 0.3, 0.7), ("MM", 0.4, 0.8), ("MM", 0.5, 0.9))

WORKLOADS = {w.name: w for w in (
    # The paper's seven-row experiment on the default fleet.  Most of its
    # time is the ST rows' full MBFD repack; it is the only multi-row
    # workload, so parallel scheduling of runs shows here.  Two runs per row
    # instead of the default ten keep a round short, so that one benchmark
    # run holds several rounds.
    Workload(name="paper-default", cli_args=("--runs", "2"), rows=DEFAULT_ROWS,
             runs=2, hosts=100, vms=290, frame_seconds=30.0),
    # Static policies on fine 5 s frames: many frames, no migrations, and
    # placement only at the start, so the frame loop, workload sampling and
    # power accounting dominate.  A placement or policy change should not
    # move this workload.
    Workload(name="static-fine",
             cli_args=("--policy", "NPA", "--policy", "DVFS", "--frame-seconds", "5"),
             rows=(("NPA", None, None), ("DVFS", None, None)),
             runs=10, hosts=100, vms=290, frame_seconds=5.0),
)}
