"""Deterministic simulator of energy-aware VM consolidation in a data center."""

__version__ = "0.1.0"

from .model import (HostSpec, VmSpec, HostState, VmState, PlacementPlan,
                    MigrationPlan, FrameMetrics, RunMetrics, PolicyConfig, Scenario,
                    default_paper_scenario)
from .power import power, accumulate, host_power
from .placement import PlacementRequest, HostSnapshot, VmRequest, power_increase, mbfd
from .policies import (reallocate, select_vms_mm, select_vms_hpg, select_vms_rc,
                       underloaded_hosts)
from .engine import (SimulationState, InfeasibleScenarioError, StalledRunError,
                     initial_placement, place_fleet, placed_state, share_mips, step, simulate,
                     run_lockstep)
from .workload import SeededRng, WorkloadTrace, child_rng

__all__ = [
    "HostSpec", "VmSpec", "HostState", "VmState", "PlacementPlan",
    "MigrationPlan", "FrameMetrics", "RunMetrics", "PolicyConfig", "Scenario",
    "default_paper_scenario",
    "power", "accumulate", "host_power",
    "PlacementRequest", "HostSnapshot", "VmRequest", "power_increase", "mbfd",
    "reallocate", "select_vms_mm", "select_vms_hpg",
    "select_vms_rc", "underloaded_hosts",
    "SimulationState", "WorkloadTrace", "InfeasibleScenarioError", "StalledRunError",
    "initial_placement", "place_fleet", "placed_state", "share_mips", "step", "simulate",
    "run_lockstep",
    "SeededRng", "child_rng",
]
