"""Walk through the linear host power model and energy accounting.

A host draws a fixed idle fraction of its peak power plus a component
proportional to CPU utilization. Energy integrates that draw over time
with an exact rectangle rule, since utilization is held constant within
a frame.
"""

from dcsim import HostSpec, accumulate, power

params = HostSpec(id=0, mips_capacity=1000.0, ram_mb=8192.0, storage_gb=1024.0,
                  p_max_watts=250.0, idle_fraction=0.7)

print("Power curve for a 250 W host with a 70% idle fraction:")
for u in (0.0, 0.25, 0.5, 0.75, 1.0):
    print("  utilization %4.0f%%  ->  %6.2f W" % (100 * u, power(params, u)))

print()
print("An idle host still burns %.0f W, so the biggest savings come from"
      % power(params, 0.0))
print("switching hosts off entirely, not from lowering their load.")

print()
print("Energy for one hour split between idle and full load:")
total_wh = accumulate(0.0, power(params, 0.0), 1800.0)
total_wh = accumulate(total_wh, power(params, 1.0), 1800.0)
print("  30 min at 175 W + 30 min at 250 W = %.1f Wh" % total_wh)
