"""Keyed workload sampling: identical traces across policies.

Every VM's utilization is a pure function of (seed, vm id, frame), a
reflected random walk over keyed uniform draws, which a run's
``WorkloadTrace`` draws frame by frame. Two consequences worth seeing:

 1. the trace does not depend on what any policy does, so policy
    comparisons are pointwise fair;
 2. the marginal distribution stays uniform at every frame, while
    consecutive frames stay close (real workloads do not teleport).
"""

from dcsim.workload import DEFAULT_UTIL_STEP, WorkloadTrace

SEED, VM, N = 42, 7, 2000

# one trace, made for a fleet of N VMs and stepped frame by frame, draws every VM
trace = WorkloadTrace(SEED, N)
frames = [trace.utilizations(range(N), f) for f in range(20)]
walk = [values[VM] for values in frames]

print("Utilization trace of VM %d under seed %d (step %g):" % (VM, SEED, DEFAULT_UTIL_STEP))
for frame, u in enumerate(walk):
    bar = "#" * int(40 * u)
    print("  frame %2d  %.3f  %s" % (frame, u, bar))

jumps = [abs(b - a) for a, b in zip(walk, walk[1:])]
print()
print("Largest frame-to-frame jump: %.3f (never exceeds the step)" % max(jumps))

print("Mean utilization across %d VMs at frame 10: %.3f (uniform -> 0.5)"
      % (N, sum(frames[10]) / N))
