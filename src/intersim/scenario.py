"""Scenario files: schema, validation, and the two built-in presets.

A scenario is a single JSON document in SI units. Every check failure
reports the offending field path so config errors are quick to locate.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .auction import BidParams
from .dynamics import AgentParams
from .geometry import MAX_CR_HALF_WIDTH, SafetyMargins
from .mpc import MAX_HORIZON, STATE_LIMIT, PenaltyConfig
from .network import Topology, is_strongly_connected
from .paths import IntersectionGeometry, RouteSpec, build_path, compute_regions, project_onto_path

NAMED_TOPOLOGIES = ("complete", "ring")
_MAX_POSITION_ERROR = 0.1


class ScenarioError(ValueError):
    """Scenario document failed validation; message carries the field path."""


@dataclass(frozen=True)
class EventSpec:
    """One scheduled event; ScenarioConfig checks it, at its list index."""

    time_s: float
    agent: int
    kind: str = "emergency_on"


@dataclass(frozen=True)
class AgentConfig:
    """One vehicle; ScenarioConfig checks it, at its list index."""

    agent_id: int
    route: RouteSpec
    initial_position: tuple[float, float]
    initial_speed: float
    params: AgentParams

    @cached_property
    def start(self) -> tuple[float, float]:
        """(s, distance): the initial position projected onto the route's
        path, once for the load-time check and the run's initial state."""
        return project_onto_path(build_path(self.route), *self.initial_position)


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
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ScenarioError(f"horizon: must lie in [1, {MAX_HORIZON}]")
        if self.steps < 1:
            raise ScenarioError("steps: must be >= 1")
        # the solver takes states within STATE_LIMIT and inputs within the
        # acceleration limits, which the agent loop below holds within it too:
        # over a horizon of at most STATE_LIMIT seconds its predicted states
        # then stay below STATE_LIMIT**3, whose penalty terms are finite
        if self.t_s * self.horizon > STATE_LIMIT:
            raise ScenarioError(
                f"sampling_time_s: the horizon spans {self.t_s * self.horizon:g} s, over {STATE_LIMIT:g}"
            )
        if self.geometry.cr_half_width > MAX_CR_HALF_WIDTH:
            raise ScenarioError(f"geometry.cr_half_width_m: must not exceed {MAX_CR_HALF_WIDTH:g}")
        # the stop line is a path coordinate, which the solver compares with states
        if self.geometry.stop_setback > STATE_LIMIT:
            raise ScenarioError(f"geometry.stop_setback_m: must not exceed {STATE_LIMIT:g}")
        if not self.agents:
            raise ScenarioError("agents: list must not be empty")
        ids: dict[int, int] = {}  # agent id -> list index
        for pos, a in enumerate(self.agents):
            if a.agent_id < 1:
                raise ScenarioError(f"agents[{pos}].id: must be a positive integer")
            if a.agent_id in ids:
                raise ScenarioError(
                    f"agents[{pos}].id: {a.agent_id} is already the id of agents[{ids[a.agent_id]}]"
                )
            if not 0 <= a.initial_speed <= STATE_LIMIT:
                raise ScenarioError(
                    f"agents[{pos}].initial_speed_mps: must lie in [0, {STATE_LIMIT:g}]"
                )
            # a drivetrain lag, size or reference speed beyond it overflowed
            # the first steps' arithmetic, as the acceleration limits did
            for name, key in _PARAM_KEYS.items():
                if abs(getattr(a.params, name)) > STATE_LIMIT:
                    raise ScenarioError(
                        f"agents[{pos}].params.{key}: |{key}| must not exceed {STATE_LIMIT:g}"
                    )
            ids[a.agent_id] = pos
        for k, ev in enumerate(self.events):
            if ev.kind != "emergency_on":
                raise ScenarioError(f"events[{k}].kind: unknown kind {ev.kind!r}")
            if ev.time_s < 0:
                raise ScenarioError(f"events[{k}].time_s: must be >= 0")
            if ev.agent not in ids:
                raise ScenarioError(f"events[{k}].agent: unknown agent {ev.agent}")
        try:
            self.bid_params.check_separation(max(a.params.v_max for a in self.agents))
        except ValueError as exc:
            raise ScenarioError(f"bid_params: {exc}") from exc
        specs = [("topology", self.topology)] + [
            (f"topology_schedule[{k}].topology", spec)
            for k, (_, spec) in enumerate(self.topology_schedule)
        ]
        for where, spec in specs:
            if spec in NAMED_TOPOLOGIES:
                continue
            try:
                topo = Topology(frozenset(ids), frozenset(spec))
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            if not is_strongly_connected(topo):
                raise ScenarioError(f"{where}: arcs must connect every agent to every other")
        reach = 0.0  # the longest stretch from a brake-safe region entry to its critical-region exit
        for pos, a in enumerate(self.agents):
            # the run's set-up reads these regions from the same cache
            try:
                bounds = compute_regions(
                    build_path(a.route), self.geometry, a.params.v_max, a.params.a_x_min
                )
            except ValueError as exc:
                raise ScenarioError(f"agents[{pos}].route: {exc}") from exc
            reach = max(reach, bounds.s_cr_out - bounds.s_bsr_in)
            _, dist = a.start
            if dist > _MAX_POSITION_ERROR:
                raise ScenarioError(
                    f"agents[{pos}].initial_position: {dist:.3g} m off the route path"
                )
        # an agent bids until it leaves the critical region
        top = self.bid_params.alpha5 + self.bid_params.alpha3 * reach
        if not self.bid_params.emergency_bid > top:
            raise ScenarioError(
                f"bid_params.emergency_bid: {self.bid_params.emergency_bid:g} does not exceed the "
                f"largest inside bid alpha5 + alpha3*(s_cr_out - s_bsr_in) = {top:g}"
            )

    def topology_among(self, step: int, participants) -> Topology:
        """Topology among the given agents for a given step.

        Named topologies are built over exactly these agents, so a ring
        closes up again when a member leaves. An explicit arc list is
        returned whole, as checked at load: agents that left the auction
        stay in it as relays.
        """
        spec = self.topology
        for from_step, override in sorted(self.topology_schedule, key=lambda entry: entry[0]):
            if step >= from_step:
                spec = override
        if spec == "complete":
            return Topology.complete(participants)
        if spec == "ring":
            return Topology.ring(participants)
        return Topology(frozenset(a.agent_id for a in self.agents), frozenset(spec))


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
    return replace(use_case_1(), events=(EventSpec(0.5, 2),))


# preset name -> builder, read by load_scenario
PRESETS = {"use_case_1": use_case_1, "use_case_2": use_case_2}


_REQUIRED = object()

# dataclass field -> document key of the numeric fields read from each section
_ROUTE_KEYS = {
    "lane_offset": "lane_offset_m",
    "turn_radius": "turn_radius_m",
    "approach_length": "approach_length_m",
    "exit_length": "exit_length_m",
}
_PARAM_KEYS = {
    "t_ax": "t_ax_s", "a_x_min": "a_x_min", "a_x_max": "a_x_max", "v_max": "v_max",
    "a_y_max": "a_y_max", "a_tot_max": "a_tot_max", "length": "length_m", "width": "width_m",
    "q": "q", "q_n": "q_n", "r": "r", "v_ref": "v_ref_mps",
}
_GEOMETRY_KEYS = {
    "cr_half_width": "cr_half_width_m", "icr_radius": "icr_radius_m",
    "brake_margin": "brake_margin_m", "stop_setback": "stop_setback_m",
}
_BID_KEYS = {name: name for name in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha5", "emergency_bid")}
_MARGIN_KEYS = {"long": "long_m", "lat": "lat_m", "headway": "headway_s"}
_PENALTY_KEYS = {"constraint_tolerance": "constraint_tolerance"}
# the keys of the objects that are not sections: every other key is an error
_ROOT_KEYS = ("sampling_time_s", "horizon", "steps", "agents", "geometry", "bid_params", "safety_margins",
              "penalty", "topology", "topology_schedule", "events")
_AGENT_KEYS = ("id", "route", "initial_position_m", "initial_speed_mps", "params")
_SCHEDULE_KEYS = ("from_step", "topology")
_EVENT_KEYS = ("time_s", "agent", "kind")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: must be an object")
    return value


def _known(mapping: dict, keys, ctx: str) -> None:
    """Reject the first key of `mapping` not among `keys`: it is misspelt or misplaced."""
    for key in mapping:
        if key not in keys:
            raise ScenarioError(f"{ctx}{key}: unknown field")


def _list(doc: dict, key: str) -> list:
    """The optional list field doc[key], empty when absent."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{key}: must be a list")
    return value


def _require(mapping: dict, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}{key}: missing required field")
    return mapping[key]


def _number(value, where: str, integer: bool = False):
    """The one reader of scenario numbers: a finite float, or an int where
    `integer` is set. Only a JSON number is a number: a boolean or a string
    is not. Anything else is a ScenarioError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{where}: must be finite, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: must be finite, got {value!r}")
    if not integer:
        return number
    if not number.is_integer():
        raise ScenarioError(f"{where}: must be an integer, got {value!r}")
    return int(number)


def _field(mapping: dict, key: str, ctx: str, default=_REQUIRED, integer: bool = False):
    """Numeric field `key` of `mapping`; an absent field takes the default."""
    if default is not _REQUIRED and key not in mapping:
        return default
    return _number(_require(mapping, key, ctx), ctx + key, integer)


def _checked(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its validation error reported at `where`."""
    try:
        return build(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _section(doc: dict, key: str, ctx: str, defaults, keys: dict[str, str], other: tuple[str, ...] = ()):
    """`defaults` (a dataclass) with the numeric fields of doc[key] read in.
    The section may hold only those fields and the `other` keys, read by the
    caller."""
    where = ctx + key
    sub = _object(doc.get(key, {}), where)
    _known(sub, (*other, *keys.values()), where + ".")
    values = {}
    for name, doc_key in keys.items():
        values[name] = _field(sub, doc_key, where + ".", getattr(defaults, name))
    return _checked(where, replace, defaults, **values)


def parse_topology(spec, where: str) -> str | tuple[tuple[int, int], ...]:
    """The one reader of topologies (scenario, schedule and CLI override):
    "complete", "ring", or a list of [i, j] arcs, i transmitting to j.
    ScenarioConfig checks the arcs against its agents."""
    if isinstance(spec, str) and spec in NAMED_TOPOLOGIES:
        return spec
    if not isinstance(spec, (list, tuple)):
        raise ScenarioError(f"{where}: must be 'complete', 'ring' or an arc list")
    arcs = []
    for k, arc in enumerate(spec):
        if not isinstance(arc, (list, tuple)) or len(arc) != 2:
            raise ScenarioError(f"{where}[{k}]: an arc is a pair [i, j] of agent ids, got {arc!r}")
        arcs.append(tuple(_number(node, f"{where}[{k}]", integer=True) for node in arc))
    return tuple(arcs)


def _parse_agent(doc: dict, pos: int) -> AgentConfig:
    ctx = f"agents[{pos}]."
    _object(doc, f"agents[{pos}]")
    _known(doc, _AGENT_KEYS, ctx)
    route_doc = _object(_require(doc, "route", ctx), ctx + "route")
    entry = _require(route_doc, "entry", ctx + "route.")
    exit_ = _require(route_doc, "exit", ctx + "route.")
    arms = _checked(ctx + "route", RouteSpec, entry, exit_)
    route = _section(doc, "route", ctx, arms, _ROUTE_KEYS, ("entry", "exit"))
    position = _require(doc, "initial_position_m", ctx)
    if not isinstance(position, (list, tuple)) or len(position) != 2:
        raise ScenarioError(ctx + "initial_position_m: needs exactly two coordinates")
    return AgentConfig(
        agent_id=_field(doc, "id", ctx, integer=True),
        route=route,
        initial_position=tuple(
            _number(c, f"{ctx}initial_position_m[{k}]") for k, c in enumerate(position)
        ),  # type: ignore[arg-type]
        initial_speed=_field(doc, "initial_speed_mps", ctx, 0.0),
        params=_section(doc, "params", ctx, _default_params(), _PARAM_KEYS),
    )


def _parse_document(doc: dict) -> ScenarioConfig:
    _object(doc, "document root")
    _known(doc, _ROOT_KEYS, "")
    agents_doc = _require(doc, "agents", "")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents: must be a non-empty list")
    agents = tuple(_parse_agent(a, k) for k, a in enumerate(agents_doc))
    schedule = []
    for k, entry in enumerate(_list(doc, "topology_schedule")):
        ctx = f"topology_schedule[{k}]."
        _object(entry, ctx[:-1])
        _known(entry, _SCHEDULE_KEYS, ctx)
        from_step = _field(entry, "from_step", ctx, 0, integer=True)
        schedule.append((from_step, parse_topology(entry.get("topology", "complete"), ctx + "topology")))
    events = []
    for k, entry in enumerate(_list(doc, "events")):
        ctx = f"events[{k}]."
        _object(entry, ctx[:-1])
        _known(entry, _EVENT_KEYS, ctx)
        time_s = _field(entry, "time_s", ctx, 0.0)
        events.append(EventSpec(time_s, _field(entry, "agent", ctx, integer=True), entry.get("kind", "emergency_on")))
    return _checked(
        "scenario",
        ScenarioConfig,
        t_s=_field(doc, "sampling_time_s", ""),
        horizon=_field(doc, "horizon", "", integer=True),
        steps=_field(doc, "steps", "", 250, integer=True),
        agents=agents,
        geometry=_section(doc, "geometry", "", IntersectionGeometry(), _GEOMETRY_KEYS),
        bid_params=_section(doc, "bid_params", "", BidParams(), _BID_KEYS),
        margins=_section(doc, "safety_margins", "", SafetyMargins(), _MARGIN_KEYS),
        penalty=_section(doc, "penalty", "", PenaltyConfig(), _PENALTY_KEYS),
        topology=parse_topology(doc.get("topology", "complete"), "topology"),
        topology_schedule=tuple(schedule),
        events=tuple(events),
    )


def read_text(path: Path) -> str:
    """The UTF-8 text of a scenario or topology file; text that is not UTF-8
    is a ScenarioError naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_json(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return _parse_document(doc)


def load_scenario(source: str | Path | dict) -> ScenarioConfig:
    """Load a preset name, JSON file path, JSON text, or parsed dict."""
    if isinstance(source, dict):
        return _parse_document(source)
    if isinstance(source, Path):
        return _parse_json(read_text(source))
    if source in PRESETS:
        return PRESETS[source]()
    # JSON text first: text longer than the OS file-name limit would make
    # the file test below raise
    text = source.strip()
    if text.startswith("{"):
        return _parse_json(text)
    candidate = Path(source)
    if candidate.exists():
        return _parse_json(read_text(candidate))
    raise ScenarioError(f"unknown scenario source {source!r} (not a preset, file, or JSON)")
