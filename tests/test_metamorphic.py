"""Whole-run relations between scaled runs: units of MIPS, watts and time.

Every decision the simulator makes reads a utilization, a ratio or a
comparison of loads or of power increases, so none depends on the unit of
MIPS, of watts or of time.  A power-of-two factor changes no rounding on
these small fleets, so each relation is exact:

- every MIPS figure (host capacity, VM requested MIPS and work) times
  ``2**k`` leaves every metric as it was;
- every peak power times ``2**k`` scales the energy by ``2**k`` and leaves
  the rest;
- the frame length and the work times ``2**k`` scale the energy and the
  duration by ``2**k`` and leave the rest.

Each relation is checked for every policy kind on generated mixed fleets.
A run that ends in an error must end in the same error when scaled.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dcsim.engine import InfeasibleScenarioError, StalledRunError, simulate
from dcsim.model import HostSpec, PolicyConfig, Scenario, VmSpec

KINDS = {"NPA": PolicyConfig("NPA"), "DVFS": PolicyConfig("DVFS"),
         "ST": PolicyConfig("ST", upper_threshold=0.55),
         **{kind: PolicyConfig(kind, 0.3, 0.7) for kind in ("MM", "HPG", "RC")}}


@st.composite
def fleets(draw):
    """3 to 12 hosts and up to twice as many VMs, of mixed classes, and a seed."""
    hosts = tuple(HostSpec(id=i, mips_capacity=draw(st.sampled_from((1000.0, 2000.0, 3000.0))),
                           ram_mb=draw(st.sampled_from((4096.0, 8192.0))), storage_gb=1024.0,
                           p_max_watts=draw(st.sampled_from((171.3, 250.0, 312.7))),
                           idle_fraction=draw(st.sampled_from((0.55, 0.7, 0.63))))
                  for i in range(draw(st.integers(3, 12))))
    vms = tuple(VmSpec(id=i, requested_mips=draw(st.sampled_from((237.5, 512.3, 761.9, 998.1))),
                       ram_mb=draw(st.sampled_from((128.0, 256.5, 512.0))), storage_gb=1.0,
                       total_work_mi=draw(st.sampled_from((30000.0, 90000.0, 150000.0))))
                for i in range(draw(st.integers(1, 2 * len(hosts)))))
    return Scenario(hosts=hosts, vms=vms, policy=PolicyConfig("NPA"),
                    seed=draw(st.integers(0, 2 ** 64 - 1)), frame_seconds=60.0)


def scale_mips(sc, f):
    return replace(sc, hosts=tuple(replace(h, mips_capacity=h.mips_capacity * f)
                                   for h in sc.hosts),
                   vms=tuple(replace(v, requested_mips=v.requested_mips * f,
                                     total_work_mi=v.total_work_mi * f) for v in sc.vms))


def scale_power(sc, f):
    return replace(sc, hosts=tuple(replace(h, p_max_watts=h.p_max_watts * f) for h in sc.hosts))


def scale_time(sc, f):
    return replace(sc, frame_seconds=sc.frame_seconds * f,
                   vms=tuple(replace(v, total_work_mi=v.total_work_mi * f) for v in sc.vms))


# relation -> (scaling, energy's factor, duration's factor), for a factor f
RELATIONS = {"mips": (scale_mips, lambda f: 1.0, lambda f: 1.0),
             "power": (scale_power, lambda f: f, lambda f: 1.0),
             "time": (scale_time, lambda f: f, lambda f: f)}


def run(sc):
    """The run's metrics, or the error it ends in."""
    try:
        return simulate(sc)[1]
    except (InfeasibleScenarioError, StalledRunError) as exc:
        return repr(exc)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=6, deadline=None)
@given(fleet=fleets(), k=st.integers(-4, 4))
def test_a_power_of_two_scaling_scales_the_run_exactly(relation, kind, fleet, k):
    scale, energy_factor, duration_factor = RELATIONS[relation]
    f = 2.0 ** k
    sc = replace(fleet, policy=KINDS[kind])
    base, scaled = run(sc), run(scale(sc, f))
    if isinstance(base, str):
        assert scaled == base
    else:
        assert scaled == replace(base, energy_kwh=base.energy_kwh * energy_factor(f),
                                 sim_duration_s=base.sim_duration_s * duration_factor(f))
