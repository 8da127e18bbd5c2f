"""Simulation loop: auction, conflict assembly, parallel solves, plant update.

Per step: apply scheduled events, auction priorities among vehicles still
ahead of their critical-region exit, assemble conflict sets, solve every
vehicle's control problem against the previous step's broadcasts, advance
the plant, then record this step's broadcasts for the next one. The run is
deterministic for a fixed config regardless of worker count.
"""

from __future__ import annotations

import csv
import logging
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .auction import PriorityAssignment, compute_bid, higher_priority_crossing_set, run_cbaam
from .dynamics import AgentState, discretize, step
from .geometry import (
    AgentView,
    SafetyMargins,
    area_overlap,
    bounding_box,
    box_distance,
    conflict_sets,
    paths_conflict,
    safety_region,
)
from .mpc import (
    NeighborForecast,
    OcpParameter,
    PredictedTrajectory,
    initial_broadcast,
    solve_ocp,
)
from .network import LatencyModel, cbaam_time_bound, graph_ell
from .paths import PathClampWarning, build_path, compute_regions, region_of, sample_path
from .scenario import ScenarioConfig

log = logging.getLogger(__name__)


@dataclass
class TrajectoryRow:
    step: int
    time_s: float
    agent: int
    s_m: float
    v_mps: float
    ax_mps2: float
    u_mps2: float
    x_g_m: float
    y_g_m: float
    psi_rad: float
    region: str
    ay_mps2: float
    atot_mps2: float
    min_pair_dist_m: float
    exact_overlap_m2: float


@dataclass
class PriorityRow:
    step: int
    time_s: float
    agent: int
    bid: float
    rank: int
    emergency_flag: bool
    auction_iterations: int


@dataclass
class TimingRow:
    step: int
    cbaam_bound_ms: float
    max_mpc_ms: float
    total_ms: float
    within_budget: bool


@dataclass
class SimulationLog:
    trajectory: list[TrajectoryRow] = field(default_factory=list)
    priorities: list[PriorityRow] = field(default_factory=list)
    speed_clamps: list[tuple[int, int, float]] = field(default_factory=list)  # (step, agent, v)
    solver_violation_histories: list[tuple[float, ...]] = field(default_factory=list)

    @property
    def overlap_violations(self) -> int:
        return sum(1 for row in self.trajectory if row.exact_overlap_m2 > 0.0)


@dataclass
class TimingReport:
    rows: list[TimingRow] = field(default_factory=list)


@dataclass
class _AgentRuntime:
    agent_id: int
    config: "AgentConfig"
    path: "PathSpec"
    bounds: "RegionBounds"
    model: "DiscreteModel"
    state: AgentState
    emergency: bool = False
    broadcast: PredictedTrajectory | None = None
    warm: np.ndarray | None = None
    applied_u: float = 0.0


def apply_event(runtime: _AgentRuntime, event) -> None:
    """Emergency events latch the flag; reapplication is a no-op."""
    if event.kind == "emergency_on":
        runtime.emergency = True


def _shift_warm(u: np.ndarray) -> np.ndarray:
    return np.concatenate([u[1:], u[-1:]])


def _build_runtimes(cfg: ScenarioConfig) -> dict[int, _AgentRuntime]:
    out: dict[int, _AgentRuntime] = {}
    for agent in cfg.agents:
        path = build_path(agent.route)
        bounds = compute_regions(path, cfg.geometry, agent.params.v_max, agent.params.a_x_min)
        s0 = cfg.initial_s(agent)
        state = AgentState(0.0, agent.initial_speed, s0)
        out[agent.agent_id] = _AgentRuntime(
            agent_id=agent.agent_id,
            config=agent,
            path=path,
            bounds=bounds,
            model=discretize(agent.params.t_ax, cfg.t_s),
            state=state,
            broadcast=initial_broadcast(state, path, cfg.horizon, cfg.t_s),
        )
    return out


def _conflict_matrix(cfg: ScenarioConfig, rts: dict[int, _AgentRuntime]) -> dict[tuple[int, int], bool]:
    ids = sorted(rts)
    out: dict[tuple[int, int], bool] = {}
    for i in ids:
        for l in ids:
            if i == l:
                continue
            key = (min(i, l), max(i, l))
            if key in out:
                continue
            out[key] = paths_conflict(
                rts[i].path,
                rts[i].bounds,
                rts[l].path,
                rts[l].bounds,
                rts[i].config.params.width,
                rts[l].config.params.width,
                cfg.geometry.cr_half_width,
            )
    return out


def _forecast_of(rt: _AgentRuntime) -> NeighborForecast:
    bc = rt.broadcast
    return NeighborForecast(
        rt.agent_id,
        bc.x_g,
        bc.y_g,
        bc.psi,
        bc.v,
        rt.config.params.length,
        rt.config.params.width,
    )


def _pair_metrics(
    rts: dict[int, _AgentRuntime], i: int, partners: frozenset[int], margins: SafetyMargins
) -> tuple[float, float]:
    """Exact clearance and overlap metrics for agent i at the current step.

    The safety-region-vs-bounding-box quantities are evaluated against the
    agents i currently holds avoidance constraints toward (that is the
    direction the scheme enforces); the returned overlap additionally
    includes the raw footprint overlap against every other agent, so any
    physical contact shows up regardless of priority direction.
    """
    me = rts[i]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PathClampWarning)
        my_sample = sample_path(me.path, min(me.state.s, me.path.total_length))
    my_box = bounding_box(my_sample, me.config.params.length, me.config.params.width)
    min_dist = math.inf
    max_overlap = 0.0
    for l, other in rts.items():
        if l == i:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PathClampWarning)
            other_sample = sample_path(other.path, min(other.state.s, other.path.total_length))
        other_box = bounding_box(other_sample, other.config.params.length, other.config.params.width)
        max_overlap = max(max_overlap, area_overlap(my_box, other_box))
        if l in partners:
            region = safety_region(
                my_sample, me.config.params, other_sample, other.state.v, me.state.v, margins
            )
            min_dist = min(min_dist, box_distance(region, other_box))
            max_overlap = max(max_overlap, area_overlap(region, other_box))
    return min_dist, max_overlap


def run_simulation(
    cfg: ScenarioConfig,
    workers: int = 1,
    pre_solve_hook=None,
) -> tuple[SimulationLog, TimingReport]:
    """Execute the configured number of steps; see the module docstring.

    Control problems at step k read only broadcasts recorded at step k-1
    (step 0 reads the constant-speed bootstrap forecasts); `pre_solve_hook`
    receives (step, runtimes, next_broadcasts) before the solves, which the
    tests use to prove that property.
    """
    rts = _build_runtimes(cfg)
    ids = sorted(rts)
    conflict_lookup = _conflict_matrix(cfg, rts)

    def paths_do_conflict(i: int, l: int) -> bool:
        return conflict_lookup[(min(i, l), max(i, l))]

    latency = LatencyModel()
    events_by_step: dict[int, list] = {}
    for ev in cfg.events:
        events_by_step.setdefault(int(round(ev.time_s / cfg.t_s)), []).append(ev)

    sim_log = SimulationLog()
    timing = TimingReport()
    # (schedule entry, participants) -> (topology, ell)
    topo_cache: dict[tuple, tuple["Topology", int]] = {}

    for k in range(cfg.steps):
        t_now = k * cfg.t_s
        for ev in events_by_step.get(k, []):
            apply_event(rts[ev.agent], ev)

        participants = [i for i in ids if rts[i].state.s <= rts[i].bounds.s_cr_out]
        bids = {
            i: compute_bid(
                rts[i].state.s,
                rts[i].state.v,
                rts[i].bounds.s_bsr_in,
                cfg.bid_params,
                rts[i].emergency,
            )
            for i in participants
        }
        assignment: PriorityAssignment | None = None
        iterations = 0
        ell = 1
        if participants:
            sched_idx = sum(1 for from_step, _ in sorted(cfg.topology_schedule) if k >= from_step)
            key = (sched_idx, frozenset(participants))
            if key not in topo_cache:
                topo = cfg.topology_among(k, participants)
                topo_cache[key] = (topo, graph_ell(topo))
            topo, ell = topo_cache[key]
            assignment, iterations = run_cbaam(bids, topo)

        views = {
            i: AgentView(rts[i].state, rts[i].path, rts[i].bounds, rts[i].config.params)
            for i in ids
        }
        states_map = {i: rts[i].state for i in ids}
        regions_map = {i: rts[i].bounds for i in ids}

        solve_list = []
        partners: dict[int, frozenset[int]] = {i: frozenset() for i in ids}
        for i in ids:
            if rts[i].state.s > rts[i].bounds.s_icr_out:
                continue  # left the control region: open-loop speed hold
            cross = set()
            if assignment is not None and i in assignment.hp_sets:
                cross = higher_priority_crossing_set(
                    assignment, i, states_map, regions_map, paths_do_conflict
                )
            sets_i = conflict_sets(i, views, cross)
            partners[i] = sets_i.combined
            neighbors = tuple(_forecast_of(rts[l]) for l in sorted(sets_i.combined))
            solve_list.append((i, neighbors))

        next_broadcasts: dict[int, PredictedTrajectory] = {}
        if pre_solve_hook is not None:
            pre_solve_hook(k, rts, next_broadcasts)

        def run_one(item):
            i, neighbors = item
            rt = rts[i]
            z = OcpParameter(rt.state, neighbors)
            warm = _shift_warm(rt.warm) if rt.warm is not None else None
            try:
                return i, solve_ocp(
                    z,
                    rt.model,
                    rt.config.params,
                    rt.path,
                    rt.bounds,
                    cfg.penalty,
                    cfg.margins,
                    cfg.horizon,
                    warm,
                )
            except ValueError as exc:
                raise RuntimeError(
                    f"solver produced a non-finite result for agent {i} at step {k}: "
                    f"state={rt.state}"
                ) from exc

        if workers > 1 and len(solve_list) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = dict(pool.map(run_one, solve_list))
        else:
            results = dict(map(run_one, solve_list))

        max_mpc_ms = 0.0
        for i, (seq, traj, report) in sorted(results.items()):
            rts[i].warm = seq.u
            rts[i].applied_u = float(seq.u[0])
            next_broadcasts[i] = traj
            max_mpc_ms = max(max_mpc_ms, report.wall_ms)
            sim_log.solver_violation_histories.append(report.violation_history)
            if not report.converged:
                log.warning(
                    "step %d agent %d: penalty loop left violation %.3g",
                    k, i, report.max_violation,
                )

        # log rows reflect the state at step k together with the input applied at k
        for i in ids:
            rt = rts[i]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PathClampWarning)
                sample = sample_path(rt.path, min(rt.state.s, rt.path.total_length))
            a_y = sample.kappa * rt.state.v**2
            if i not in results:
                rt.applied_u = 0.0
            min_dist, overlap = _pair_metrics(rts, i, partners[i], cfg.margins)
            sim_log.trajectory.append(
                TrajectoryRow(
                    step=k,
                    time_s=t_now,
                    agent=i,
                    s_m=rt.state.s,
                    v_mps=rt.state.v,
                    ax_mps2=rt.state.a_x,
                    u_mps2=rt.applied_u,
                    x_g_m=sample.x_g,
                    y_g_m=sample.y_g,
                    psi_rad=sample.psi,
                    region=region_of(rt.bounds, rt.state.s),
                    ay_mps2=a_y,
                    atot_mps2=math.hypot(rt.state.a_x, a_y),
                    min_pair_dist_m=min_dist,
                    exact_overlap_m2=overlap,
                )
            )
            sim_log.priorities.append(
                PriorityRow(
                    step=k,
                    time_s=t_now,
                    agent=i,
                    bid=bids.get(i, 0.0),
                    rank=assignment.rank(i) if assignment is not None and i in participants else 0,
                    emergency_flag=rt.emergency,
                    auction_iterations=iterations,
                )
            )

        for i in ids:
            rt = rts[i]
            try:
                nxt = step(rt.model, rt.state, rt.applied_u)
                if nxt.v < 0.0:
                    sim_log.speed_clamps.append((k, i, nxt.v))
                    log.info("step %d agent %d: speed %.3g clamped to 0", k, i, nxt.v)
                    nxt = AgentState(nxt.a_x, 0.0, nxt.s)
            except ValueError as exc:
                raise RuntimeError(
                    f"non-finite state for agent {i} at step {k}: "
                    f"previous state={rt.state}, applied u={rt.applied_u}"
                ) from exc
            rt.state = nxt

        # commit broadcasts from this step's own solves, never from the
        # externally visible buffer (a test hook may have poisoned it)
        for i in ids:
            if i in results:
                rts[i].broadcast = results[i][1]
            else:
                # outside the control region: broadcast a constant-speed hold
                rts[i].broadcast = initial_broadcast(rts[i].state, rts[i].path, cfg.horizon, cfg.t_s)

        n_part = len(participants)
        bound_ms = cbaam_time_bound(n_part, ell, latency) if n_part else 0.0
        total_ms = bound_ms + max_mpc_ms
        timing.rows.append(
            TimingRow(
                step=k,
                cbaam_bound_ms=bound_ms,
                max_mpc_ms=max_mpc_ms,
                total_ms=total_ms,
                within_budget=total_ms <= 1000.0 * cfg.t_s,
            )
        )

    return sim_log, timing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".9g")
    return str(value)


def export_logs(sim_log: SimulationLog, timing: TimingReport, out_dir: str | Path) -> list[Path]:
    """Write trajectory.csv, priorities.csv and timing.csv into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    headers = {
        "trajectory.csv": (
            "step,time_s,agent,s_m,v_mps,ax_mps2,u_mps2,x_g_m,y_g_m,psi_rad,region,"
            "ay_mps2,atot_mps2,min_pair_dist_m,exact_overlap_m2"
        ),
        "priorities.csv": "step,time_s,agent,bid,rank,emergency_flag,auction_iterations",
        "timing.csv": "step,cbaam_bound_ms,max_mpc_ms,total_ms,within_budget",
    }
    rows = {
        "trajectory.csv": [
            (
                r.step, r.time_s, r.agent, r.s_m, r.v_mps, r.ax_mps2, r.u_mps2,
                r.x_g_m, r.y_g_m, r.psi_rad, r.region, r.ay_mps2, r.atot_mps2,
                r.min_pair_dist_m, r.exact_overlap_m2,
            )
            for r in sim_log.trajectory
        ],
        "priorities.csv": [
            (r.step, r.time_s, r.agent, r.bid, r.rank, r.emergency_flag, r.auction_iterations)
            for r in sim_log.priorities
        ],
        "timing.csv": [
            (r.step, r.cbaam_bound_ms, r.max_mpc_ms, r.total_ms, r.within_budget)
            for r in timing.rows
        ],
    }
    for name in headers:
        target = out / name
        try:
            with open(target, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(headers[name].split(","))
                for row in rows[name]:
                    writer.writerow([_fmt(v) for v in row])
        except OSError as exc:
            raise OSError(f"failed writing {target}: {exc}") from exc
        written.append(target)
    return written
