"""Distributed road-intersection coordination simulator.

Vehicles negotiate crossing priorities through a consensus-based auction
over a simulated V2V network, then each solves a collision-avoiding
receding-horizon control problem against the higher-priority vehicles'
broadcast trajectories.
"""

from .auction import BidParams, compute_bid, run_cbaam
from .dynamics import AgentParams, AgentState, DiscreteModel, discretize, step
from .geometry import (
    OrientedBox,
    SafetyMargins,
    area_overlap,
    bounding_box,
    safety_region,
)
from .mpc import (
    PenaltyConfig,
    PredictedTrajectory,
    SolverReport,
    box_solve,
    initial_broadcast,
    solve_ocp,
)
from .network import Topology, cbaam_time_bound, graph_ell
from .orchestrator import SimulationLog, TimingReport, export_logs, run_simulation
from .paths import (
    IntersectionGeometry,
    PathSample,
    PathSpec,
    RegionBounds,
    RouteSpec,
    build_path,
    compute_regions,
    region_of,
    sample_path,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario, use_case_1, use_case_2

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
