"""Green-energy-aware job scheduling over an SDN control plane.

Each placement policy is stated once, in plain Python, in `scheduler`:
one `(dc_index, score)` decision per job.  The package has two execution
modes built on it:

- protocol mode (`controller`, `netsim`): a deterministic discrete-event
  simulation of switches, a controller, reporting data-center agents and
  clients, faithful to packet-in handling and flow-rule timeouts; the
  controller calls the scheduler once per client request;
- fast mode (`experiment`): year-scale replay of the scheduling policies
  against hourly energy profiles, for sweeps over per-job energy and load;
  its array kernels (`_kernels`) place a year at once and are tested
  against a job-by-job replay of the scheduler.
"""

__version__ = "0.1.0"

from .energy import EnergyProfile, HOURS_PER_YEAR, build_profile, parse_nsrdb_csv, pv_output, synth_profile
from .errors import GraspError, ParseError, ValidationError
from .experiment import YearReport, run_year, sweep_k, sweep_load
from .model import ControllerConfig, NodeId, Topology, load_config, load_topology
from .scheduler import SchedulerState, green_aware_decide, reset_hour, round_robin_decide

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
    "SchedulerState",
    "green_aware_decide",
    "reset_hour",
    "round_robin_decide",
]
