"""The energy / SLA trade-off as consolidation thresholds rise.

Sweeps the MM policy across widening threshold bands on a reduced
fleet. Higher bands pack hosts tighter: energy falls because fewer
hosts run, while SLA violations rise because tightly packed hosts have
less headroom for demand spikes.
"""

import statistics

from dcsim import default_paper_scenario, simulate
from dcsim.workload import child_rng

BANDS = [(0.3, 0.7), (0.4, 0.8), (0.5, 0.9)]

print("%-10s %12s %10s %12s" % ("band", "energy kWh", "SLA %", "migrations"))
for lo, hi in BANDS:
    sc = default_paper_scenario(policy="MM", lower_threshold=lo,
                                upper_threshold=hi, n_hosts=30, n_vms=87,
                                runs=3)
    results = [simulate(sc, seed=child_rng(sc.seed, i).seed)[1] for i in range(sc.runs)]
    print("%3.0f-%.0f%%   %12.3f %10.2f %12.0f"
          % (100 * lo, 100 * hi,
             statistics.fmean(r.energy_kwh for r in results),
             statistics.fmean(r.sla_violation_pct for r in results),
             statistics.fmean(r.migration_count for r in results)))

print()
print("Pick a band by how much SLA risk the workload tolerates; there is")
print("no free lunch past the point where hosts start saturating.")
