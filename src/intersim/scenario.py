"""Scenario files: schema, validation, and the two built-in presets.

A scenario is a single JSON document in SI units. Every check failure
reports the offending field path so config errors are quick to locate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .auction import BidParams
from .dynamics import AgentParams
from .geometry import SafetyMargins
from .mpc import PenaltyConfig
from .network import Topology
from .paths import IntersectionGeometry, RouteSpec, build_path, project_onto_path

PRESETS = ("use_case_1", "use_case_2")
_MAX_POSITION_ERROR = 0.1


class ScenarioError(ValueError):
    """Scenario document failed validation; message carries the field path."""


@dataclass(frozen=True)
class EventSpec:
    time_s: float
    agent: int
    kind: str = "emergency_on"

    def __post_init__(self):
        if self.kind != "emergency_on":
            raise ScenarioError(f"events[].kind: unknown kind {self.kind!r}")
        if self.time_s < 0:
            raise ScenarioError("events[].time_s: must be >= 0")


@dataclass(frozen=True)
class AgentConfig:
    agent_id: int
    route: RouteSpec
    initial_position: tuple[float, float]
    initial_speed: float
    params: AgentParams

    def __post_init__(self):
        if self.agent_id < 1:
            raise ScenarioError("agents[].id: must be a positive integer")
        if self.initial_speed < 0:
            raise ScenarioError("agents[].initial_speed: must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    t_s: float
    horizon: int
    steps: int
    agents: tuple[AgentConfig, ...]
    geometry: IntersectionGeometry = IntersectionGeometry()
    bid_params: BidParams = BidParams()
    margins: SafetyMargins = SafetyMargins()
    penalty: PenaltyConfig = PenaltyConfig()
    topology: str | tuple[tuple[int, int], ...] = "complete"
    # optional overrides: (from_step, topology spec), applied in step order
    topology_schedule: tuple[tuple[int, str | tuple[tuple[int, int], ...]], ...] = ()
    events: tuple[EventSpec, ...] = ()

    def __post_init__(self):
        if self.t_s <= 0:
            raise ScenarioError("sampling_time_s: must be > 0")
        if self.horizon < 1:
            raise ScenarioError("horizon: must be >= 1")
        if self.steps < 1:
            raise ScenarioError("steps: must be >= 1")
        if not self.agents:
            raise ScenarioError("agents: list must not be empty")
        ids = [a.agent_id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ScenarioError("agents[].id: ids must be unique")
        for ev in self.events:
            if ev.agent not in ids:
                raise ScenarioError(f"events[].agent: unknown agent {ev.agent}")
        try:
            self.bid_params.check_separation(max(a.params.v_max for a in self.agents))
        except ValueError as exc:
            raise ScenarioError(f"bid_params: {exc}") from exc
        for pos, a in enumerate(self.agents):
            path = build_path(a.route)
            _, dist = project_onto_path(path, *a.initial_position)
            if dist > _MAX_POSITION_ERROR:
                raise ScenarioError(
                    f"agents[{pos}].initial_position: {dist:.3f} m off the route path"
                )

    def _build(self, spec) -> Topology:
        ids = [a.agent_id for a in self.agents]
        if spec == "complete":
            return Topology.complete(ids)
        if spec == "ring":
            return Topology.ring(ids)
        return Topology(frozenset(ids), frozenset(tuple(arc) for arc in spec))

    def build_topology(self) -> Topology:
        return self._build(self.topology)

    def topology_at(self, step: int) -> Topology:
        """Topology over all agents for a given step, honoring any scheduled overrides."""
        return self.topology_among(step, [a.agent_id for a in self.agents])

    def topology_among(self, step: int, participants) -> Topology:
        """Topology among the given agents for a given step.

        Named topologies are built over exactly these agents, so a ring
        closes up again when a member leaves; an explicit arc list keeps the
        arcs among them.
        """
        spec = self.topology
        for from_step, override in sorted(self.topology_schedule):
            if step >= from_step:
                spec = override
        if spec == "complete":
            return Topology.complete(participants)
        if spec == "ring":
            return Topology.ring(participants)
        return self._build(spec).induced(participants)

    def initial_s(self, agent: AgentConfig) -> float:
        s0, _ = project_onto_path(build_path(agent.route), *agent.initial_position)
        return s0


def _default_params() -> AgentParams:
    return AgentParams(
        t_ax=0.3,
        a_x_min=-7.0,
        a_x_max=4.0,
        v_max=15.0,
        a_y_max=3.5,
        a_tot_max=7.0,
        length=5.0,
        width=2.0,
        q=1.0,
        q_n=1.0,
        r=20.0,
        v_ref=14.0,
    )


def use_case_1() -> ScenarioConfig:
    """Four vehicles, one per arm, negotiating priorities with no events."""
    routes = {
        1: (RouteSpec("N", "S"), (-2.0, 82.0)),
        2: (RouteSpec("W", "N"), (-84.0, -2.0)),
        3: (RouteSpec("E", "W"), (81.0, 2.0)),
        4: (RouteSpec("S", "N"), (2.0, -84.0)),
    }
    agents = tuple(
        AgentConfig(i, route, pos, 14.0, _default_params()) for i, (route, pos) in routes.items()
    )
    return ScenarioConfig(t_s=0.1, horizon=50, steps=250, agents=agents)


def use_case_2() -> ScenarioConfig:
    """Same as use_case_1, but agent 2 turns into an emergency vehicle at 0.5 s."""
    base = use_case_1()
    return ScenarioConfig(
        t_s=base.t_s,
        horizon=base.horizon,
        steps=base.steps,
        agents=base.agents,
        geometry=base.geometry,
        bid_params=base.bid_params,
        margins=base.margins,
        penalty=base.penalty,
        topology=base.topology,
        events=(EventSpec(0.5, 2),),
    )


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}{key}: missing required field")
    return mapping[key]


def _parse_agent(doc: dict, pos: int) -> AgentConfig:
    ctx = f"agents[{pos}]."
    try:
        route_doc = _require(doc, "route", ctx)
        exit_length = route_doc.get("exit_length_m")
        route = RouteSpec(
            entry=_require(route_doc, "entry", ctx + "route."),
            exit=_require(route_doc, "exit", ctx + "route."),
            lane_offset=float(route_doc.get("lane_offset_m", 2.0)),
            turn_radius=float(route_doc.get("turn_radius_m", 8.0)),
            approach_length=float(route_doc.get("approach_length_m", 84.0)),
            exit_length=None if exit_length is None else float(exit_length),
        )
        p = doc.get("params", {})
        defaults = _default_params()
        params = AgentParams(
            t_ax=float(p.get("t_ax_s", defaults.t_ax)),
            a_x_min=float(p.get("a_x_min", defaults.a_x_min)),
            a_x_max=float(p.get("a_x_max", defaults.a_x_max)),
            v_max=float(p.get("v_max", defaults.v_max)),
            a_y_max=float(p.get("a_y_max", defaults.a_y_max)),
            a_tot_max=float(p.get("a_tot_max", defaults.a_tot_max)),
            length=float(p.get("length_m", defaults.length)),
            width=float(p.get("width_m", defaults.width)),
            q=float(p.get("q", defaults.q)),
            q_n=float(p.get("q_n", defaults.q_n)),
            r=float(p.get("r", defaults.r)),
            v_ref=float(p.get("v_ref_mps", defaults.v_ref)),
        )
        position = tuple(float(c) for c in _require(doc, "initial_position_m", ctx))
        if len(position) != 2:
            raise ScenarioError(ctx + "initial_position_m: needs exactly two coordinates")
        return AgentConfig(
            agent_id=int(_require(doc, "id", ctx)),
            route=route,
            initial_position=position,  # type: ignore[arg-type]
            initial_speed=float(doc.get("initial_speed_mps", 0.0)),
            params=params,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{ctx}{exc}") from exc


def _parse_document(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ScenarioError("document root must be an object")
    agents_doc = _require(doc, "agents", "")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents: must be a non-empty list")
    agents = tuple(_parse_agent(a, k) for k, a in enumerate(agents_doc))

    geom_doc = doc.get("geometry", {})
    geometry = IntersectionGeometry(
        cr_half_width=float(geom_doc.get("cr_half_width_m", 6.0)),
        icr_radius=float(geom_doc.get("icr_radius_m", 70.0)),
        brake_margin=float(geom_doc.get("brake_margin_m", 2.0)),
        stop_setback=float(geom_doc.get("stop_setback_m", 1.0)),
    )
    bid_doc = doc.get("bid_params", {})
    bid = BidParams(
        alpha1=float(bid_doc.get("alpha1", 0.1)),
        alpha2=float(bid_doc.get("alpha2", 5.0)),
        alpha3=float(bid_doc.get("alpha3", 0.1)),
        alpha4=float(bid_doc.get("alpha4", 1.0)),
        alpha5=float(bid_doc.get("alpha5", 7.0)),
        emergency_bid=float(bid_doc.get("emergency_bid", 1e6)),
    )
    m_doc = doc.get("safety_margins", {})
    margins = SafetyMargins(
        long=float(m_doc.get("long_m", 1.5)),
        lat=float(m_doc.get("lat_m", 0.25)),
        headway=float(m_doc.get("headway_s", 0.5)),
        sharpness=float(m_doc.get("smooth_sharpness", 4.0)),
    )
    pen_doc = doc.get("penalty", {})
    penalty = PenaltyConfig(
        initial_weight=float(pen_doc.get("initial_weight", 10.0)),
        multiplier=float(pen_doc.get("multiplier", 5.0)),
        max_outer_iterations=int(pen_doc.get("max_outer_iterations", 6)),
        constraint_tolerance=float(pen_doc.get("constraint_tolerance", 1e-2)),
        inner_tolerance=float(pen_doc.get("inner_tolerance", 1e-4)),
        lbfgs_memory=int(pen_doc.get("lbfgs_memory", 10)),
        max_inner_iterations=int(pen_doc.get("max_inner_iterations", 500)),
    )
    def parse_topology(spec, ctx):
        if isinstance(spec, list):
            return tuple((int(i), int(j)) for i, j in spec)
        if spec not in ("complete", "ring"):
            raise ScenarioError(f"{ctx}: must be 'complete', 'ring' or an arc list")
        return spec

    topology = parse_topology(doc.get("topology", "complete"), "topology")
    schedule = tuple(
        (int(entry.get("from_step", 0)), parse_topology(entry.get("topology", "complete"), "topology_schedule[].topology"))
        for entry in doc.get("topology_schedule", [])
    )
    events = tuple(
        EventSpec(float(e.get("time_s", 0.0)), int(_require(e, "agent", "events[].")), e.get("kind", "emergency_on"))
        for e in doc.get("events", [])
    )
    try:
        return ScenarioConfig(
            t_s=float(_require(doc, "sampling_time_s", "")),
            horizon=int(_require(doc, "horizon", "")),
            steps=int(doc.get("steps", 250)),
            agents=agents,
            geometry=geometry,
            bid_params=bid,
            margins=margins,
            penalty=penalty,
            topology=topology,
            topology_schedule=schedule,
            events=events,
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def load_scenario(source: str | Path | dict) -> ScenarioConfig:
    """Load a preset name, JSON file path, JSON text, or parsed dict."""
    if isinstance(source, dict):
        return _parse_document(source)
    if isinstance(source, Path):
        return _parse_document(json.loads(source.read_text()))
    if source == "use_case_1":
        return use_case_1()
    if source == "use_case_2":
        return use_case_2()
    # JSON text first: text longer than the OS file-name limit would make
    # the file test below raise
    text = source.strip()
    if text.startswith("{"):
        try:
            return _parse_document(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
    candidate = Path(source)
    if candidate.exists():
        return _parse_document(json.loads(candidate.read_text()))
    raise ScenarioError(f"unknown scenario source {source!r} (not a preset, file, or JSON)")
