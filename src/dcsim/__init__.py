"""Deterministic simulator of energy-aware VM consolidation in a data center.

The imports below are the package's public names, each listed once.  The
per-host helpers that a run calls inside ``step`` and ``reallocate`` (the
VM selectors, ``underloaded_hosts`` and ``share_mips``) are not among them;
they live in ``dcsim.policies`` and ``dcsim.engine``.
"""

__version__ = "0.1.0"

from .model import (HostSpec, VmSpec, HostState, VmState, PlacementPlan,
                    MigrationPlan, FrameMetrics, RunMetrics, PolicyConfig, Scenario,
                    default_paper_scenario, power, accumulate, host_power)
from .placement import PlacementRequest, HostSnapshot, VmRequest, power_increase, mbfd
from .policies import reallocate
from .engine import (SimulationState, InfeasibleScenarioError, StalledRunError,
                     initial_placement, place_fleet, placed_state, step, simulate,
                     run_lockstep)
from .workload import SeededRng, WorkloadTrace, child_rng
