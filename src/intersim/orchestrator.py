"""Simulation loop: auction, conflict assembly, sequential solves, plant update.

Per step: apply scheduled events, auction priorities among vehicles still
ahead of their critical-region exit, take one snapshot of every vehicle
(state, path pose and footprint, read by the conflict sets, the pair
metrics and the log rows), hand each controlled vehicle's higher-priority
set to `geometry.conflict_sets`, solve every vehicle's control problem in
id order against the previous step's broadcasts, advance the plant, then
record this step's broadcasts for the next one. The run is deterministic
for a fixed config.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .auction import compute_bid, run_cbaam
from .dynamics import AgentState, discretize, step
from .geometry import (
    AgentView,
    SafetyMargins,
    area_overlap,
    box_distance,
    conflict_sets,
    paths_conflict,
    safety_region,
)
from .mpc import PredictedTrajectory, initial_broadcast, solve_ocp
from .network import cbaam_time_bound, graph_ell
from .paths import build_path, compute_regions, region_of, sample_path
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
    closed_form_solves: int = 0  # solves whose warm candidate took the closed form
    # unconverged solves by the family of their largest violation (box, gap,
    # ay, atot, v_lo, v_hi or hinge)
    unconverged_families: Counter = field(default_factory=Counter)

    @property
    def overlap_violations(self) -> int:
        return sum(1 for row in self.trajectory if row.exact_overlap_m2 > 0.0)


@dataclass
class TimingReport:
    rows: list[TimingRow] = field(default_factory=list)


@dataclass
class _AgentRuntime:
    config: "AgentConfig"
    path: "PathSpec"
    bounds: "RegionBounds"
    model: "DiscreteModel"
    state: AgentState
    emergency: bool = False
    broadcast: PredictedTrajectory | None = None
    warm: np.ndarray | None = None


def _shift_warm(u: np.ndarray) -> np.ndarray:
    return np.concatenate([u[1:], u[-1:]])


def _build_runtimes(cfg: ScenarioConfig) -> dict[int, _AgentRuntime]:
    out: dict[int, _AgentRuntime] = {}
    for agent in cfg.agents:
        path = build_path(agent.route)
        bounds = compute_regions(path, cfg.geometry, agent.params.v_max, agent.params.a_x_min)
        s0, _ = agent.start
        state = AgentState(0.0, agent.initial_speed, s0)
        out[agent.agent_id] = _AgentRuntime(
            config=agent,
            path=path,
            bounds=bounds,
            model=discretize(agent.params.t_ax, cfg.t_s),
            state=state,
            broadcast=initial_broadcast(state, path, agent.params, cfg.horizon, cfg.t_s),
        )
    return out


def _crossing_sets(cfg: ScenarioConfig, rts: dict[int, _AgentRuntime]) -> dict[int, frozenset[int]]:
    """Per vehicle, the vehicles whose route corridor meets its own (see paths_conflict)."""
    ids = sorted(rts)
    # number each distinct corridor by first appearance and test a pair of
    # corridors in that order: the paths_conflict cache then answers both
    # orders, so every unordered pair of routes is tested once
    corridors: dict[tuple, int] = {}
    rank = {
        i: corridors.setdefault((rts[i].path, rts[i].bounds, rts[i].config.params.width), len(corridors))
        for i in ids
    }
    crossing: dict[int, set[int]] = {i: set() for i in ids}
    for n, i in enumerate(ids):
        for l in ids[n + 1:]:
            a, b = (i, l) if rank[i] <= rank[l] else (l, i)
            if paths_conflict(
                rts[a].path,
                rts[a].bounds,
                rts[b].path,
                rts[b].bounds,
                rts[a].config.params.width,
                rts[b].config.params.width,
                cfg.geometry.cr_half_width,
            ):
                crossing[i].add(l)
                crossing[l].add(i)
    return {i: frozenset(c) for i, c in crossing.items()}


def _pair_metrics(
    views: dict[int, AgentView], i: int, partners: frozenset[int], margins: SafetyMargins
) -> tuple[float, float]:
    """Exact clearance and overlap metrics for agent i at the current step.

    The safety-region-vs-bounding-box quantities are evaluated against the
    agents i currently holds avoidance constraints toward (that is the
    direction the scheme enforces); the returned overlap additionally
    includes the raw footprint overlap against every other agent, so any
    physical contact shows up regardless of priority direction.
    """
    me = views[i]
    min_dist = math.inf
    max_overlap = 0.0
    for l, other in views.items():
        if l == i:
            continue
        max_overlap = max(max_overlap, area_overlap(me.box, other.box))
        if l in partners:
            region = safety_region(me.pose, me.params, other.pose, other.state.v, me.state.v, margins)
            dist = box_distance(region, other.box)
            min_dist = min(min_dist, dist)
            # a positive clearance means box_distance found no overlap
            if dist == 0.0:
                max_overlap = max(max_overlap, area_overlap(region, other.box))
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

    The solves run one after another in one process: they are Python-bound,
    so threads could not overlap them. `workers` accepts only 1 and remains
    because `benchmarks/run.py` passes `workers=1`.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    rts = _build_runtimes(cfg)
    ids = sorted(rts)
    crossing = _crossing_sets(cfg, rts)

    # an event applies from the first step at or after its time; the guard
    # keeps a time on a step boundary on that step where the quotient rounds
    # up, as 0.14 s / 0.02 s = 7.000000000000001 does
    events_by_step: dict[int, list] = {}
    for ev in cfg.events:
        events_by_step.setdefault(math.ceil(ev.time_s / cfg.t_s - 1e-9), []).append(ev)

    sim_log = SimulationLog()
    timing = TimingReport()

    for k in range(cfg.steps):
        t_now = k * cfg.t_s
        # `emergency_on`, the one kind the loader accepts, latches the flag
        for ev in events_by_step.get(k, []):
            rts[ev.agent].emergency = True

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
        order: tuple[int, ...] = ()
        iterations = 0
        ell = 1
        if participants:
            topo = cfg.topology_among(k, participants)
            ell = graph_ell(topo)
            order, iterations = run_cbaam(bids, topo)
        place = {agent: pos for pos, agent in enumerate(order)}  # 0 = highest priority

        views: dict[int, AgentView] = {}
        for i in ids:
            rt = rts[i]
            pose = sample_path(rt.path, rt.state.s)
            views[i] = AgentView(rt.state, rt.path, rt.bounds, rt.config.params, pose)

        solve_list = []
        partners: dict[int, frozenset[int]] = {i: frozenset() for i in ids}
        for i in ids:
            if rts[i].state.s > rts[i].bounds.s_icr_out:
                continue  # left the control region: open-loop speed hold
            higher = frozenset(order[: place.get(i, 0)])
            partners[i] = conflict_sets(i, views, higher, crossing[i])
            solve_list.append((i, tuple(rts[l].broadcast for l in sorted(partners[i]))))

        next_broadcasts: dict[int, PredictedTrajectory] = {}
        if pre_solve_hook is not None:
            pre_solve_hook(k, rts, next_broadcasts)

        solved: dict[int, PredictedTrajectory] = {}
        max_mpc_ms = 0.0
        for i, neighbours in solve_list:
            rt = rts[i]
            warm = _shift_warm(rt.warm) if rt.warm is not None else None
            try:
                u, broadcast, report = solve_ocp(
                    rt.state,
                    neighbours,
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
                raise RuntimeError(f"solve failed for agent {i} at step {k}: {exc}") from exc
            rt.warm = u
            solved[i] = broadcast
            next_broadcasts[i] = broadcast
            max_mpc_ms = max(max_mpc_ms, report.wall_ms)
            sim_log.solver_violation_histories.append(report.violation_history)
            sim_log.closed_form_solves += report.closed_form
            if not report.converged:
                sim_log.unconverged_families[report.worst_family.split()[0]] += 1
                log.warning(
                    "step %d agent %d: penalty loop left violation %.3g (%s at horizon step %d)",
                    k, i, report.max_violation, report.worst_family, report.worst_step,
                )

        # per vehicle: the log row (the state at step k with the input applied
        # at k), the plant step, then the broadcast from this step's own solve,
        # never from the hook-visible buffer (a test hook may have poisoned it)
        for i in ids:
            rt = rts[i]
            pose = views[i].pose
            a_y = pose.kappa * rt.state.v**2
            u_applied = float(rt.warm[0]) if i in solved else 0.0
            min_dist, overlap = _pair_metrics(views, i, partners[i], cfg.margins)
            sim_log.trajectory.append(
                TrajectoryRow(
                    step=k,
                    time_s=t_now,
                    agent=i,
                    s_m=rt.state.s,
                    v_mps=rt.state.v,
                    ax_mps2=rt.state.a_x,
                    u_mps2=u_applied,
                    x_g_m=pose.x_g,
                    y_g_m=pose.y_g,
                    psi_rad=pose.psi,
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
                    rank=place[i] + 1 if i in place else 0,
                    emergency_flag=rt.emergency,
                    auction_iterations=iterations,
                )
            )
            try:
                nxt = step(rt.model, rt.state, u_applied)
                if nxt.v < 0.0:
                    sim_log.speed_clamps.append((k, i, nxt.v))
                    log.info("step %d agent %d: speed %.3g clamped to 0", k, i, nxt.v)
                    nxt = AgentState(nxt.a_x, 0.0, nxt.s)
            except ValueError as exc:
                raise RuntimeError(
                    f"non-finite state for agent {i} at step {k}: "
                    f"previous state={rt.state}, applied u={u_applied}"
                ) from exc
            rt.state = nxt
            if i in solved:
                rt.broadcast = solved[i]
            else:  # outside the control region: a constant-speed hold
                rt.broadcast = initial_broadcast(nxt, rt.path, rt.config.params, cfg.horizon, cfg.t_s)

        n_part = len(participants)
        bound_ms = cbaam_time_bound(n_part, ell) if n_part else 0.0
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

    tables = {
        "trajectory.csv": (TrajectoryRow, sim_log.trajectory),
        "priorities.csv": (PriorityRow, sim_log.priorities),
        "timing.csv": (TimingRow, timing.rows),
    }
    for name, (row_type, rows) in tables.items():
        columns = [f.name for f in fields(row_type)]
        target = out / name
        try:
            with open(target, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                for row in rows:
                    writer.writerow([_fmt(getattr(row, c)) for c in columns])
        except OSError as exc:
            raise OSError(f"failed writing {target}: {exc}") from exc
        written.append(target)
    return written
