"""Green-energy-aware job scheduling over an SDN control plane.

The package has two execution modes that share one scheduling core:

- protocol mode (`controller`, `netsim`): a deterministic discrete-event
  simulation of switches, a controller, reporting data-center agents and
  clients, faithful to packet-in handling and flow-rule timeouts;
- fast mode (`experiment`): year-scale replay of the scheduling policies
  against hourly energy profiles, for sweeps over per-job energy and load.
"""

__version__ = "0.1.0"

from .energy import EnergyProfile, HOURS_PER_YEAR, build_profile, parse_nsrdb_csv, pv_output, synth_profile
from .errors import GraspError, ParseError, ValidationError
from .experiment import YearReport, run_year, sweep_k, sweep_load
from .model import ControllerConfig, NodeId, Topology, load_config, load_topology
from .scheduler import Decision, SchedulerState, green_aware_decide, reset_hour, round_robin_decide

__all__ = [
    "__version__",
    "EnergyProfile",
    "HOURS_PER_YEAR",
    "build_profile",
    "parse_nsrdb_csv",
    "pv_output",
    "synth_profile",
    "GraspError",
    "ParseError",
    "ValidationError",
    "YearReport",
    "run_year",
    "sweep_k",
    "sweep_load",
    "ControllerConfig",
    "NodeId",
    "Topology",
    "load_config",
    "load_topology",
    "Decision",
    "SchedulerState",
    "green_aware_decide",
    "reset_hour",
    "round_robin_decide",
]
