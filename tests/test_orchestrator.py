"""Scenario loading, simulation-loop, and export tests on small runs."""

import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from intersim.network import Topology
from intersim.orchestrator import export_logs, run_simulation
from intersim.scenario import (
    EventSpec,
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    use_case_1,
    use_case_2,
)


def small_cfg(steps=25, agents=(1, 3)):
    base = use_case_1()
    keep = tuple(a for a in base.agents if a.agent_id in agents)
    return replace(base, steps=steps, agents=keep)


# -- load_scenario -----------------------------------------------------------------


def test_preset_use_case_1_values():
    cfg = load_scenario("use_case_1")
    assert len(cfg.agents) == 4
    assert cfg.t_s == 0.1 and cfg.horizon == 50
    by_id = {a.agent_id: a for a in cfg.agents}
    assert by_id[1].initial_position == (-2.0, 82.0)
    assert by_id[2].initial_position == (-84.0, -2.0)
    assert by_id[3].initial_position == (81.0, 2.0)
    assert by_id[4].initial_position == (2.0, -84.0)
    for a in cfg.agents:
        p = a.params
        assert a.initial_speed == 14.0 and p.v_ref == 14.0
        assert p.v_max == 15.0 and p.t_ax == 0.3
        assert (p.a_x_min, p.a_x_max) == (-7.0, 4.0)
        assert (p.a_y_max, p.a_tot_max) == (3.5, 7.0)
        assert (p.length, p.width) == (5.0, 2.0)
        assert (p.q, p.q_n, p.r) == (1.0, 1.0, 20.0)
    assert cfg.events == ()


def test_preset_use_case_2_adds_emergency_event():
    cfg = load_scenario("use_case_2")
    assert len(cfg.events) == 1
    ev = cfg.events[0]
    assert (ev.time_s, ev.agent, ev.kind) == (0.5, 2, "emergency_on")


def test_empty_agent_list_rejected():
    with pytest.raises(ScenarioError):
        load_scenario({"sampling_time_s": 0.1, "horizon": 50, "agents": []})


def test_json_roundtrip_and_field_errors(tmp_path):
    doc = {
        "sampling_time_s": 0.1,
        "horizon": 50,
        "steps": 30,
        "agents": [
            {
                "id": 1,
                "route": {"entry": "N", "exit": "S"},
                "initial_position_m": [-2.0, 82.0],
                "initial_speed_mps": 14.0,
            }
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cfg = load_scenario(path)
    assert cfg.steps == 30

    bad = dict(doc)
    bad["agents"] = [dict(doc["agents"][0], initial_position_m=[-9.0, 82.0])]
    with pytest.raises(ScenarioError, match="initial_position"):
        load_scenario(bad)

    bad2 = dict(doc)
    bad2["agents"] = [{k: v for k, v in doc["agents"][0].items() if k != "route"}]
    with pytest.raises(ScenarioError, match="route"):
        load_scenario(bad2)


# Agent 2 starts inside the critical region and leaves the auction after step 0.
THREE_AGENT_RING = {
    "sampling_time_s": 0.1,
    "horizon": 50,
    "steps": 4,
    "topology": "ring",
    "agents": [
        {"id": 1, "route": {"entry": "N", "exit": "S"},
         "initial_position_m": [-2.0, 82.0], "initial_speed_mps": 14.0},
        {"id": 2, "route": {"entry": "W", "exit": "E"},
         "initial_position_m": [5.5, -2.0], "initial_speed_mps": 14.0},
        {"id": 3, "route": {"entry": "E", "exit": "W"},
         "initial_position_m": [81.0, 2.0], "initial_speed_mps": 14.0},
    ],
}


def test_json_text_longer_than_a_file_name():
    text = json.dumps(THREE_AGENT_RING)
    assert len(text) > 255
    cfg = load_scenario(text)
    assert [a.agent_id for a in cfg.agents] == [1, 2, 3]
    assert cfg.topology == "ring" and cfg.steps == 4


TWO_AGENTS = {
    "sampling_time_s": 0.1,
    "horizon": 50,
    "steps": 3,
    "agents": [
        {"id": 1, "route": {"entry": "N", "exit": "S"},
         "initial_position_m": [-2.0, 82.0], "initial_speed_mps": 14.0},
        {"id": 2, "route": {"entry": "E", "exit": "W"},
         "initial_position_m": [81.0, 2.0], "initial_speed_mps": 14.0},
    ],
}
BAD_ARC_LISTS = [
    ([[1, 99]], "unknown node"),
    ([[1, 1]], "self-loop"),
    ([[1, 2]], "connect every agent"),
    ([[1]], "an arc is a pair"),
]


@pytest.mark.parametrize("arcs, why", BAD_ARC_LISTS)
def test_arc_list_topology_is_checked_at_load(arcs, why):
    with pytest.raises(ScenarioError, match=rf"^topology\S*: .*{why}"):
        load_scenario(dict(TWO_AGENTS, topology=arcs))
    scheduled = dict(TWO_AGENTS, topology_schedule=[
        {"from_step": 1, "topology": [[1, 2], [2, 1]]},
        {"from_step": 2, "topology": arcs},
    ])
    with pytest.raises(ScenarioError, match=rf"^topology_schedule\[1\]\.topology\S*: .*{why}"):
        load_scenario(scheduled)


def test_valid_arc_list_runs():
    cfg = load_scenario(dict(TWO_AGENTS, topology=[[1, 2], [2, 1]]))
    assert cfg.topology == ((1, 2), (2, 1))
    _, timing = run_simulation(cfg)
    assert [r.cbaam_bound_ms for r in timing.rows] == pytest.approx([6.0, 6.0, 6.0])


def spoil(doc, where, value):
    """A deep copy of doc with the field at the dotted path `where` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, leaf = where.replace("[", ".").replace("]", "").split(".")
    target = doc
    for key in parents:
        target = target[int(key)] if key.isdigit() else target.setdefault(key, {})
    if leaf.isdigit():
        target[int(leaf)] = value
    else:
        target[leaf] = value
    return doc


NUMERIC_FIELDS = [
    "agents[0].initial_speed_mps",
    "agents[1].initial_position_m[0]",
    "agents[0].route.turn_radius_m",
    "agents[1].params.v_max",
    "geometry.cr_half_width_m",
    "safety_margins.headway_s",
    "bid_params.alpha1",
    "penalty.constraint_tolerance",
    "sampling_time_s",
    "horizon",
    "steps",
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", NUMERIC_FIELDS)
def test_non_finite_number_is_rejected_at_load(where, value):
    doc = spoil(TWO_AGENTS, where, value)
    with pytest.raises(ScenarioError, match=re.escape(where) + ": must be finite"):
        load_scenario(doc)
    with pytest.raises(ScenarioError, match=re.escape(where) + ": must be finite"):
        load_scenario(json.dumps(doc))  # Python's json writes and reads NaN and Infinity


def test_huge_finite_position_is_rejected_with_a_finite_distance():
    # finite, but its square overflows a float
    doc = spoil(TWO_AGENTS, "agents[0].initial_position_m", [1e200, 82.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
    found = re.fullmatch(r"agents\[0\]\.initial_position: (\S+) m off the route path", str(err.value))
    assert found and math.isfinite(float(found.group(1)))
    assert len(str(err.value)) < 80


# each of these loaded as a number: a boolean as 0 or 1, a numeric string as
# its value ("sampling_time_s": true as 1 s steps, "id": true as agent 1)
NON_NUMBERS = [
    ("sampling_time_s", True, "sampling_time_s", "True"),
    ("horizon", "50", "horizon", "'50'"),
    ("agents[0].id", True, "agents[0].id", "True"),
    ("topology", [["1", 2], [2, 1]], "topology[0]", "'1'"),
    ("agents[0].initial_position_m", ["-2", "82"], "agents[0].initial_position_m[0]", "'-2'"),
]


@pytest.mark.parametrize(
    "field, value, where, got", NON_NUMBERS,
    ids=["bool step", "string horizon", "bool id", "string arc", "string position"],
)
def test_only_json_numbers_are_numbers(field, value, where, got, capsys):
    doc = spoil(TWO_AGENTS, field, value)
    message = rf"{re.escape(where)}: expected a number, got {re.escape(got)}"
    with pytest.raises(ScenarioError, match=rf"^{message}$"):
        load_scenario(doc)
    from intersim.cli import main

    assert main(["check", "--scenario", json.dumps(doc)]) == 1
    assert re.fullmatch(rf"scenario error: {message}\n", capsys.readouterr().err)


def test_scenario_field_errors_name_their_path():
    with pytest.raises(ScenarioError, match=r"^horizon: must be an integer"):
        load_scenario(dict(TWO_AGENTS, horizon=50.5))
    with pytest.raises(ScenarioError, match=r"^penalty: constraint_tolerance must be > 0$"):
        load_scenario(spoil(TWO_AGENTS, "penalty.constraint_tolerance", 0.0))
    with pytest.raises(ScenarioError, match=r"^agents\[1\]\.params: t_ax must be > 0"):
        load_scenario(spoil(TWO_AGENTS, "agents[1].params.t_ax_s", -1))
    with pytest.raises(ScenarioError, match=r"^events\[0\]\.agent: missing"):
        load_scenario(dict(TWO_AGENTS, events=[{"time_s": 0.5}]))
    with pytest.raises(ScenarioError, match=r"^agents\[1\]: must be an object"):
        load_scenario(dict(TWO_AGENTS, agents=[TWO_AGENTS["agents"][0], 2]))
    with pytest.raises(ScenarioError, match=r"^agents\[0\]\.route: must be an object"):
        load_scenario(spoil(TWO_AGENTS, "agents[0].route", "N-S"))


LISTED_ERRORS = [
    (dict(TWO_AGENTS, events=[{"time_s": 0.5, "agent": 1}, {"time_s": 1.0, "agent": 2, "kind": "brake"}]),
     r"events\[1\]\.kind: unknown kind 'brake'"),
    (dict(TWO_AGENTS, events=[{"time_s": 0.5, "agent": 1}, {"time_s": -1.0, "agent": 2}]),
     r"events\[1\]\.time_s: must be >= 0"),
    (dict(TWO_AGENTS, events=[{"time_s": 0.5, "agent": 1}, {"time_s": 0.5, "agent": 9}]),
     r"events\[1\]\.agent: unknown agent 9"),
    (spoil(TWO_AGENTS, "agents[1].id", 1), r"agents\[1\]\.id: 1 is already the id of agents\[0\]"),
    (spoil(TWO_AGENTS, "agents[1].id", 0), r"agents\[1\]\.id: must be a positive integer"),
    (spoil(TWO_AGENTS, "agents[1].initial_speed_mps", -1.0),
     r"agents\[1\]\.initial_speed_mps: must lie in \[0, 1e\+06\]"),
]


@pytest.mark.parametrize(
    "doc, message", LISTED_ERRORS,
    ids=["event kind", "event time", "event agent", "repeated id", "id below 1", "negative speed"],
)
def test_list_entry_errors_name_their_index(doc, message):
    with pytest.raises(ScenarioError, match=rf"^{message}$"):
        load_scenario(doc)


UNKNOWN_KEYS = [
    (spoil(TWO_AGENTS, "safety_margin", {"long_m": 2.0}), "safety_margin"),
    (spoil(TWO_AGENTS, "agents[0].initial_speed", 9.0), r"agents\[0\]\.initial_speed"),
    (spoil(TWO_AGENTS, "agents[1].route.lane_ofset_m", 1.0), r"agents\[1\]\.route\.lane_ofset_m"),
    (spoil(TWO_AGENTS, "agents[0].params.vmax", 12.0), r"agents\[0\]\.params\.vmax"),
    (spoil(TWO_AGENTS, "geometry.cr_half_width", 5.0), r"geometry\.cr_half_width"),
    (spoil(TWO_AGENTS, "bid_params.alpha6", 1.0), r"bid_params\.alpha6"),
    (spoil(TWO_AGENTS, "safety_margins.long", 2.0), r"safety_margins\.long"),
    (spoil(TWO_AGENTS, "penalty.max_iterations", 9), r"penalty\.max_iterations"),
    # solver settings that are constants of the program, not scenario fields
    (spoil(TWO_AGENTS, "penalty.multiplier", 5.0), r"penalty\.multiplier"),
    (spoil(TWO_AGENTS, "safety_margins.smooth_sharpness", 4.0), r"safety_margins\.smooth_sharpness"),
    (dict(TWO_AGENTS, events=[{"time_s": 0.5, "agent": 1}, {"time": 0.5, "agent": 2}]), r"events\[1\]\.time"),
    (dict(TWO_AGENTS, topology_schedule=[{"from_step": 1, "topolgy": "ring"}]),
     r"topology_schedule\[0\]\.topolgy"),
]


@pytest.mark.parametrize(
    "doc, where", UNKNOWN_KEYS,
    ids=["root", "agent", "route", "params", "geometry", "bid_params", "safety_margins", "penalty",
         "penalty setting", "sharpness", "event", "schedule entry"],
)
def test_unknown_key_is_rejected_at_its_path(doc, where):
    """A key the loader does not read is a misspelt or misplaced one: each
    object that the loader reads rejects it, naming its field path."""
    with pytest.raises(ScenarioError, match=rf"^{where}: unknown field$"):
        load_scenario(doc)
    with pytest.raises(ScenarioError, match=rf"^{where}: unknown field$"):
        load_scenario(json.dumps(doc))


def test_readme_scenario_example_loads():
    """README's schema example, its first JSON block, is a document the loader accepts, key for key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = load_scenario(re.search(r"```json\n(.*?)```", readme, flags=re.S).group(1))
    assert [a.agent_id for a in cfg.agents] == [1, 2]
    assert (cfg.t_s, cfg.horizon, cfg.steps) == (0.1, 50, 250)
    assert cfg.topology_schedule == ((50, "ring"),)
    assert cfg.events == (EventSpec(0.5, 2, "emergency_on"),)
    assert cfg.agents[0].params == use_case_1().agents[0].params


NOT_UTF8 = b"\xff\xfe{\x00}\x00"  # a UTF-16 byte-order mark and "{}"


def test_file_that_is_not_utf8_is_a_scenario_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    for source in (bad, str(bad)):
        with pytest.raises(ScenarioError, match=rf"^{re.escape(str(bad))}: not UTF-8 text"):
            load_scenario(source)


def test_cli_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    from intersim.cli import main

    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    good = tmp_path / "two.json"
    good.write_text(json.dumps(TWO_AGENTS))
    runs = (
        ["check", "--scenario", str(bad)],
        ["simulate", "--scenario", str(good), "--out", str(tmp_path / "out"), "--topology", str(bad)],
    )
    for argv in runs:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"scenario error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
    assert not (tmp_path / "out").exists()


def test_duplicate_ids_rejected():
    base = use_case_1()
    dup = (base.agents[0], base.agents[0])
    with pytest.raises(ScenarioError):
        replace(base, agents=dup)


def test_unknown_event_agent_rejected():
    base = use_case_2()
    bad_event = replace(base.events[0], agent=99)
    with pytest.raises(ScenarioError):
        replace(base, events=(bad_event,))


def test_bid_separation_enforced_at_load():
    from intersim.auction import BidParams

    base = use_case_1()
    with pytest.raises(ScenarioError):
        replace(base, bid_params=BidParams(alpha5=5.0))
    # alpha3*alpha4 = 20 takes the inside bid alpha4 short of the brake-safe
    # region entry to 7 - 20 = -13: this pair loaded, then stopped mid-run
    # on a bid that is not positive
    doc = {
        "sampling_time_s": 0.1,
        "horizon": 50,
        "steps": 40,
        "bid_params": {"alpha3": 10, "alpha4": 2},
        "agents": [
            {"id": 1, "route": {"entry": "N", "exit": "S"},
             "initial_position_m": [-2.0, 40.0], "initial_speed_mps": 14.0},
            {"id": 2, "route": {"entry": "W", "exit": "N"},
             "initial_position_m": [-84.0, -2.0], "initial_speed_mps": 14.0},
        ],
    }
    with pytest.raises(ScenarioError, match=r"^bid_params: .* alpha5 - alpha3\*alpha4=-13.0 <= "):
        load_scenario(doc)


def test_emergency_bid_must_exceed_every_inside_bid():
    """An agent bids alpha5 + alpha3*(s - s_bsr_in) until it leaves the
    critical region. With alpha5 = 999,990 and alpha3 = 1 that passes the
    default emergency bid of 1e6, and use_case_2 ranked its emergency
    vehicle second from step 49."""
    from intersim.auction import BidParams
    from intersim.paths import build_path, compute_regions

    base = use_case_2()
    reach = max(
        r.s_cr_out - r.s_bsr_in
        for r in (compute_regions(build_path(a.route), base.geometry, a.params.v_max, a.params.a_x_min)
                  for a in base.agents)
    )
    top = 999_990.0 + 1.0 * reach
    with pytest.raises(ScenarioError, match=r"^bid_params\.emergency_bid: 1e\+06 does not exceed"):
        replace(base, bid_params=BidParams(alpha3=1.0, alpha5=999_990.0))
    with pytest.raises(ScenarioError, match=r"^bid_params\.emergency_bid: "):
        replace(base, bid_params=BidParams(alpha3=1.0, alpha5=999_990.0, emergency_bid=top))
    replace(base, bid_params=BidParams(alpha3=1.0, alpha5=999_990.0, emergency_bid=top + 1.0))


# N->S from (-2, 82) and W->N from (-84, -2), both at 14 m/s
CROSSING_PAIR = spoil(
    spoil(TWO_AGENTS, "agents[1].route", {"entry": "W", "exit": "N"}), "agents[1].initial_position_m", [-84.0, -2.0]
)
# fields whose huge values once loaded and then crashed the first steps: the
# first three are swept at every decade, the others at every tenth
SOLVER_RANGE_FIELDS = ["sampling_time_s", "initial_speed_mps", "params.a_tot_max"]
TENTH_DECADE_FIELDS = ["params.t_ax_s", "params.length_m", "params.width_m", "params.v_ref_mps",
                       "geometry.stop_setback_m"]


def with_value(doc, field, value):
    """doc with `field` set to `value`: on every agent for an agent field,
    or else at its place from the root."""
    if field.startswith(("sampling_time_s", "geometry.")):
        return spoil(doc, field, value)
    for pos in range(len(doc["agents"])):
        doc = spoil(doc, f"agents[{pos}].{field}", value)
    return doc


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("params.a_tot_max", 1e200, r"agents\[0\]\.params\.a_tot_max: \|a_tot_max\| must not exceed 1e\+06"),
        ("sampling_time_s", 1e160, r"sampling_time_s: the horizon spans 5e\+161 s, over 1e\+06"),
        ("initial_speed_mps", 1.1e6, r"agents\[0\]\.initial_speed_mps: must lie in \[0, 1e\+06\]"),
        ("params.a_x_max", 1e200, r"agents\[0\]\.params\.a_x_max: \|a_x_max\| must not exceed 1e\+06"),
        ("params.t_ax_s", 1e160, r"agents\[0\]\.params\.t_ax_s: \|t_ax_s\| must not exceed 1e\+06"),
        ("params.length_m", 1e160, r"agents\[0\]\.params\.length_m: \|length_m\| must not exceed 1e\+06"),
        ("params.width_m", 1e160, r"agents\[0\]\.params\.width_m: \|width_m\| must not exceed 1e\+06"),
        ("params.v_ref_mps", 1e160, r"agents\[0\]\.params\.v_ref_mps: \|v_ref_mps\| must not exceed 1e\+06"),
        ("geometry.stop_setback_m", 1e80, r"geometry\.stop_setback_m: must not exceed 1e\+06"),
    ],
    ids=["a_tot_max", "sampling_time_s", "initial_speed_mps", "a_x_max", "t_ax_s", "length_m", "width_m",
         "v_ref_mps", "stop_setback_m"],
)
def test_values_beyond_the_solver_state_limit_fail_at_load(field, value, message, capsys):
    # the first three loaded and passed `check`, then failed at step 0: an
    # OverflowError in the total-acceleration term, a non-finite input, a
    # state out of range; a full-throttle start at a_x_max = 1e200 overflows
    # the penalty terms; the last five passed `check` and then overflowed
    # the discretization, the footprints, the tracking cost or the stop line
    doc = with_value(CROSSING_PAIR, field, value)
    with pytest.raises(ScenarioError, match=rf"^{message}$"):
        load_scenario(doc)
    from intersim.cli import main

    assert main(["check", "--scenario", json.dumps(doc)]) == 1
    assert re.fullmatch(rf"scenario error: {message}\n", capsys.readouterr().err)


@pytest.mark.parametrize(
    "field, stride",
    [pytest.param(field, 1, id=field) for field in SOLVER_RANGE_FIELDS]
    + [pytest.param(field, 10, id=field) for field in TENTH_DECADE_FIELDS],
)
def test_every_decade_is_rejected_at_load_or_runs(field, stride):
    """10**e for every `stride`-th e in [-300, 300]: rejected at load, or
    three steps run without an exception (or a warning, which the suite
    makes an error)."""
    outcomes = set()
    for exponent in range(-300, 301, stride):
        try:
            cfg = load_scenario(with_value(CROSSING_PAIR, field, 10.0**exponent))
        except ScenarioError:
            outcomes.add("rejected")
            continue
        log, _ = run_simulation(cfg)
        assert len(log.trajectory) == 3 * len(cfg.agents), exponent
        outcomes.add("ran")
    assert outcomes == {"rejected", "ran"}


TOO_LONG = r"the path is [0-9.e+]+ m long, over 10000 m"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"horizon": 10_000}, r"horizon: must lie in \[1, 1000\]"),
        ({"agents[0].route.approach_length_m": 1e7}, rf"agents\[0\]\.route: {TOO_LONG}"),
        ({"agents[0].route.exit_length_m": 1e7}, rf"agents\[0\]\.route: {TOO_LONG}"),
        # on the left turn, the offset lengthens both straights
        ({"agents[1].route.lane_offset_m": 1e7}, rf"agents\[1\]\.route: {TOO_LONG}"),
        (
            {"geometry.cr_half_width_m": 1000, "geometry.icr_radius_m": 2000,
             "agents[0].route.approach_length_m": 3000, "agents[1].route.approach_length_m": 3000},
            r"geometry\.cr_half_width_m: must not exceed 100",
        ),
    ],
    ids=["horizon", "approach_length_m", "exit_length_m", "lane_offset_m", "cr_half_width_m"],
)
def test_sizes_beyond_the_memory_budget_fail_at_load(changes, message, capsys):
    """Each document would have the set-up or a solve build an array of
    gigabytes, so it is only loaded here, never run."""
    doc = CROSSING_PAIR
    for field, value in changes.items():
        doc = spoil(doc, field, value)
    with pytest.raises(ScenarioError, match=rf"^{message}$"):
        load_scenario(doc)
    from intersim.cli import main

    assert main(["check", "--scenario", json.dumps(doc)]) == 1
    assert re.fullmatch(rf"scenario error: {message}\n", capsys.readouterr().err)


def brake_at_a_crawl(step, rts, next_broadcasts):
    """At step 1, put agent 1 past its control region, braking hard at 5 cm/s."""
    from intersim.dynamics import AgentState

    if step == 1:
        rts[1].state = AgentState(-7.0, 0.05, rts[1].bounds.s_icr_out + 1.0)


def test_plant_clamps_a_negative_speed_to_zero(monkeypatch, tmp_path, capsys):
    import intersim.cli as cli

    cfg = load_scenario(CROSSING_PAIR)
    log, _ = run_simulation(cfg, pre_solve_hook=brake_at_a_crawl)
    # the lag keeps a_x negative for a step after the speed is clamped, so it clamps twice
    assert [(k, i) for k, i, _ in log.speed_clamps] == [(1, 1), (2, 1)]
    assert all(v < 0.0 for _, _, v in log.speed_clamps)
    row = next(r for r in log.trajectory if (r.step, r.agent) == (2, 1))
    assert row.v_mps == 0.0
    monkeypatch.setattr(cli, "run_simulation", lambda cfg: run_simulation(cfg, pre_solve_hook=brake_at_a_crawl))
    cli.main(["simulate", "--scenario", json.dumps(CROSSING_PAIR), "--out", str(tmp_path)])
    assert "speed clamps: 2\n" in capsys.readouterr().out


def test_two_emergency_vehicles_with_equal_large_bids_run(tmp_path, capsys):
    """Both vehicles bid emergency_bid = 1e12 from step 0, a tie far above
    any id-sized nudge: `check` accepts the document, so it must run, and
    the lower id ranks first."""
    from intersim.cli import main

    doc = dict(CROSSING_PAIR, events=[{"time_s": 0.0, "agent": 1}, {"time_s": 0.0, "agent": 2}])
    doc = spoil(doc, "bid_params.emergency_bid", 1e12)
    assert main(["check", "--scenario", json.dumps(doc)]) == 0
    assert main(["simulate", "--scenario", json.dumps(doc), "--out", str(tmp_path)]) == 0
    assert "steps=3 agents=2 overlap_violations=0\n" in capsys.readouterr().out
    rows = (tmp_path / "priorities.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 * 2
    for row in rows:
        step, _, agent, bid, rank, emergency, _ = row.split(",")
        assert (bid, rank, emergency) == ("1e+12", agent, "true"), row


@pytest.mark.parametrize("field", ["events", "topology_schedule"])
@pytest.mark.parametrize(
    "value", [5, None, "ring", {"time_s": 0.5, "agent": 2}], ids=["int", "null", "string", "object"]
)
def test_event_and_schedule_fields_must_be_lists(field, value, capsys):
    from intersim.cli import main

    doc = dict(TWO_AGENTS, **{field: value})
    with pytest.raises(ScenarioError, match=rf"^{field}: must be a list$"):
        load_scenario(doc)
    assert main(["check", "--scenario", json.dumps(doc)]) == 1
    assert capsys.readouterr().err == f"scenario error: {field}: must be a list\n"


@pytest.mark.parametrize(
    "route,position,why",
    [
        ({"approach_length_m": 5}, [2.0, -4.0], "path starts inside the critical region"),
        ({"exit_length_m": 3}, [2.0, -60.0], "path ends inside the critical region"),
        # the brake-safe region would begin before the path does
        ({"approach_length_m": 10}, [2.0, -10.0], "region bounds out of order"),
    ],
)
def test_route_regions_are_checked_at_load(route, position, why, capsys):
    from intersim.cli import main

    doc = spoil(TWO_AGENTS, "agents[0].route", {"entry": "S", "exit": "N", **route})
    doc["agents"][0]["initial_position_m"] = position
    with pytest.raises(ScenarioError, match=r"^agents\[0\]\.route: " + why):
        load_scenario(doc)
    assert main(["check", "--scenario", json.dumps(doc)]) == 1
    assert capsys.readouterr().err == f"scenario error: agents[0].route: {why}\n"


def clear_program_caches():
    """Empty every functools cache of intersim, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name == "intersim" or name.startswith("intersim."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


# right turns, two vehicles queued per arm: 8 vehicles on 4 routes
QUEUE = {
    "sampling_time_s": 0.1,
    "horizon": 50,
    "steps": 1,
    "agents": [
        {"id": 1 + row * 4 + k, "route": {"entry": entry, "exit": exit_},
         "initial_position_m": [ux * dist if ux else lane, uy * dist if uy else lane],
         "initial_speed_mps": 8.0}
        for row, dist in enumerate((60.0, 75.0))
        for k, (entry, exit_, ux, uy, lane) in enumerate(
            [("N", "W", 0.0, 1.0, -2.0), ("S", "E", 0.0, -1.0, 2.0),
             ("W", "S", -1.0, 0.0, -2.0), ("E", "N", 1.0, 0.0, 2.0)]
        )
    ],
}


class SetUpDone(Exception):
    pass


def test_setup_builds_each_route_once():
    import intersim.orchestrator as orch
    from intersim.paths import compute_regions

    def set_up():
        """Load QUEUE and run it up to the first solve; the runtimes."""
        runtimes = []

        def stop(k, rts, nxt):
            runtimes.append(rts)
            raise SetUpDone

        with pytest.raises(SetUpDone):
            run_simulation(load_scenario(QUEUE), pre_solve_hook=stop)
        return runtimes[0]

    clear_program_caches()
    rts = set_up()
    # the load check and the set-up compute each route's regions once
    # between them: one cache miss per route
    assert compute_regions.cache_info().misses == 4
    for i in range(1, 5):
        assert rts[i].path is rts[i + 4].path and rts[i].bounds is rts[i + 4].bounds
    # of the 28 vehicle pairs, each unordered pair of routes, a route with
    # itself included, is tested once
    info = orch.paths_conflict.cache_info()
    assert (info.misses, info.hits) == (4 + 6, 28 - 10)

    set_up()
    assert compute_regions.cache_info().misses == 4
    clear_program_caches()
    set_up()
    assert compute_regions.cache_info().misses == 4


# -- run_simulation ----------------------------------------------------------------


def test_small_run_shapes_and_activity():
    cfg = small_cfg()
    log, timing = run_simulation(cfg)
    assert len(log.trajectory) == cfg.steps * len(cfg.agents)
    assert len(log.priorities) == cfg.steps * len(cfg.agents)
    assert len(timing.rows) == cfg.steps
    ranks = sorted(r.rank for r in log.priorities if r.step == 0)
    assert ranks == [1, 2]


def test_priority_ranks_form_permutation_each_step():
    cfg = small_cfg(steps=8, agents=(1, 2, 3, 4))
    log, _ = run_simulation(cfg)
    for k in range(cfg.steps):
        active = [p.rank for p in log.priorities if p.step == k and p.rank > 0]
        assert sorted(active) == list(range(1, len(active) + 1))


def test_emergency_event_applied_at_step_five():
    cfg = replace(use_case_2(), steps=8)
    log, _ = run_simulation(cfg)
    for p in log.priorities:
        if p.agent == 2:
            assert p.emergency_flag is (p.step >= 5)
            if p.step >= 5:
                assert p.rank == 1
                assert p.bid == cfg.bid_params.emergency_bid


@pytest.mark.parametrize(
    "t_s,time_s,first", [(0.1, 0.44, 5), (0.1, 0.05, 1), (0.1, 0.3, 3), (0.1, 0.5, 5), (0.02, 0.14, 7)]
)
def test_event_applies_from_the_first_step_at_or_after_its_time(t_s, time_s, first):
    cfg = replace(small_cfg(steps=first + 1), t_s=t_s, events=(EventSpec(time_s, 1),))
    log, _ = run_simulation(cfg)
    flagged = [p.step for p in log.priorities if p.agent == 1 and p.emergency_flag]
    assert flagged == [first]


@pytest.mark.parametrize("time_s", [0.5, 1.5])
def test_late_emergency_call_crosses_first_without_contact(time_s):
    """use_case_1 with agent 1 (N->S) an emergency vehicle from 0.5 s or
    1.5 s, for the 70 steps that include agent 1's critical-region exit.
    Agent 3 (E->W), which must then yield, used to hold its solves far
    above violation 1 at full throttle past v_max, and the two footprints
    touched (0.968 and 0.287 m^2, at 16.12 and 15.67 m/s); braking starts
    now free it. No two footprints overlap at any step, no speed exceeds
    v_max + tol, and agent 1 is the first out of the critical region."""
    from intersim.geometry import OrientedBox, area_overlap

    cfg = replace(use_case_1(), steps=70, events=(EventSpec(time_s, 1),))
    log, _ = run_simulation(cfg)
    params = {a.agent_id: a.params for a in cfg.agents}

    def footprint(row):
        p = params[row.agent]
        return OrientedBox(row.x_g_m, row.y_g_m, row.psi_rad, p.length / 2.0, p.width / 2.0)

    by_step: dict[int, list] = {}
    for row in log.trajectory:
        by_step.setdefault(row.step, []).append(row)
    contact = max(
        area_overlap(footprint(a), footprint(b))
        for rows in by_step.values()
        for k, a in enumerate(rows)
        for b in rows[k + 1:]
    )
    assert contact == 0.0
    tol = cfg.penalty.constraint_tolerance
    assert all(row.v_mps <= params[row.agent].v_max + tol for row in log.trajectory)
    out: dict[int, float] = {}
    for row in log.trajectory:
        if row.region == "past":
            out.setdefault(row.agent, row.time_s)
    assert 1 in out and all(out[1] < t for agent, t in out.items() if agent != 1)


def test_no_events_no_flags():
    cfg = small_cfg(steps=6)
    log, _ = run_simulation(cfg)
    assert not any(p.emergency_flag for p in log.priorities)


def test_timing_rows_use_participant_count():
    cfg = small_cfg(steps=5, agents=(1, 2, 3, 4))
    _, timing = run_simulation(cfg)
    assert timing.rows[0].cbaam_bound_ms == pytest.approx(4 * 1 * 3.0)
    for row in timing.rows:
        assert row.total_ms >= row.max_mpc_ms >= 0.0


def test_determinism_across_runs():
    cfg = small_cfg(steps=10, agents=(1, 2, 3, 4))
    log_a, _ = run_simulation(cfg)
    log_b, _ = run_simulation(cfg)
    assert log_a.trajectory == log_b.trajectory
    assert log_a.priorities == log_b.priorities


def test_only_one_worker_is_accepted():
    with pytest.raises(ValueError, match="workers"):
        run_simulation(small_cfg(steps=1), workers=2)


def test_each_pose_is_sampled_once_per_step(monkeypatch):
    """The step's snapshot samples every vehicle's pose; nothing samples it again."""
    import intersim.geometry as geom
    import intersim.orchestrator as orch
    from intersim.paths import sample_path

    calls = []

    def spy(path, s):
        calls.append(s)
        return sample_path(path, s)

    monkeypatch.setattr(orch, "sample_path", spy)
    monkeypatch.setattr(geom, "sample_path", spy, raising=False)
    at_hook = []
    cfg = small_cfg(steps=3, agents=(1, 2, 3, 4))
    run_simulation(cfg, pre_solve_hook=lambda k, rts, nxt: at_hook.append(len(calls)))
    assert at_hook == [4, 8, 12]
    assert len(calls) == 12


def test_information_pattern_ignores_current_step_broadcasts():
    """Poisoning the in-flight broadcast buffer must not change the run."""
    cfg = small_cfg(steps=8, agents=(1, 2, 3, 4))
    clean, _ = run_simulation(cfg)

    from intersim.mpc import initial_broadcast
    import intersim.orchestrator as orch

    def poison(step, rts, next_broadcasts):
        for i, rt in rts.items():
            fake = initial_broadcast(rt.state, rt.path, rt.config.params, cfg.horizon, cfg.t_s)
            # garbage poses
            next_broadcasts[i] = replace(fake, x_g=fake.x_g + 1e6, y_g=fake.y_g - 1e6)

    poisoned, _ = run_simulation(cfg, pre_solve_hook=poison)
    assert clean.trajectory == poisoned.trajectory


def test_solves_receive_only_broadcasts_committed_at_the_previous_step(monkeypatch):
    """Every neighbour trajectory a solve at step k receives is, by identity,
    a broadcast committed at step k-1 by another vehicle: what that vehicle's
    solve at k-1 returned, or its constant-speed hold. Never the solver's own,
    and never one returned at step k."""
    import intersim.orchestrator as orch

    # two right-turn lanes of two vehicles: each follower holds its leader's track
    lanes = (("N", "W", (-2.0, 1.0)), ("S", "E", (2.0, -1.0)))
    cfg = load_scenario({
        "sampling_time_s": 0.1, "horizon": 50, "steps": 6, "topology": "complete",
        "agents": [
            {"id": 2 * n + j + 1, "route": {"entry": entry, "exit": exit},
             "initial_position_m": [x, sign * (60.0 + 15.0 * j)], "initial_speed_mps": 8.0}
            for n, (entry, exit, (x, sign)) in enumerate(lanes) for j in range(2)
        ],
    })
    committed: list[dict] = []  # per step: agent -> broadcast at the hook
    states: list[dict] = []  # per step: agent -> state object at the hook
    returned: list[dict] = []  # per step: agent -> broadcast its solve returned
    received = []  # (step, agent, neighbours) per solve
    original = orch.solve_ocp

    def hook(step, rts, next_broadcasts):
        assert step == len(committed)
        committed.append({i: rt.broadcast for i, rt in rts.items()})
        states.append({i: rt.state for i, rt in rts.items()})
        returned.append({})

    def solve(state, neighbours, *args, **kwargs):
        k = len(committed) - 1
        (agent,) = [i for i, st in states[k].items() if st is state]
        received.append((k, agent, neighbours))
        result = original(state, neighbours, *args, **kwargs)
        returned[k][agent] = result[1]
        return result

    monkeypatch.setattr(orch, "solve_ocp", solve)
    run_simulation(cfg, pre_solve_hook=hook)
    assert len(committed) == cfg.steps
    for k in range(1, cfg.steps):
        for i, broadcast in returned[k - 1].items():
            assert committed[k][i] is broadcast
    for k, agent, neighbours in received:
        for nb in neighbours:
            assert any(nb is committed[k][l] for l in committed[k] if l != agent)
            assert nb is not committed[k][agent]
            assert all(nb is not b for b in returned[k].values())
    assert sum(len(nbs) for k, _, nbs in received if k >= 1) >= 10


def test_non_finite_state_aborts_with_context():
    from intersim.dynamics import AgentState

    cfg = small_cfg(steps=6, agents=(1,))

    def corrupt(step, rts, next_broadcasts):
        if step == 2:
            # large enough that the plant update overflows to infinity
            rts[1].state = AgentState(0.0, 8.9e307, 1.0e308)

    # rejected at the solver boundary, before any numpy overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="agent 1 at step"):
            run_simulation(cfg, pre_solve_hook=corrupt)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_refused_state_is_reported_with_its_cause():
    from intersim.dynamics import AgentState

    cfg = small_cfg(steps=6, agents=(1,))

    def corrupt(step, rts, next_broadcasts):
        if step == 2:
            rts[1].state = AgentState(0.0, 1e200, rts[1].state.s)  # finite, but v**2 overflows

    with pytest.raises(RuntimeError) as info:
        run_simulation(cfg, pre_solve_hook=corrupt)
    message = str(info.value)
    assert "agent 1 at step 2" in message and "out of range" in message
    assert "non-finite result" not in message


def test_speed_stays_nonnegative_and_progress_monotone():
    cfg = small_cfg(steps=25, agents=(1, 3))
    log, _ = run_simulation(cfg)
    history = {}
    for r in log.trajectory:
        assert r.v_mps >= 0.0
        history.setdefault(r.agent, []).append(r.s_m)
    for sequence in history.values():
        assert all(b >= a - 1e-12 for a, b in zip(sequence, sequence[1:]))


def test_topology_variants_and_schedule():
    cfg = small_cfg(steps=4, agents=(1, 2, 3, 4))
    ring_cfg = replace(cfg, topology="ring")
    log, timing = run_simulation(ring_cfg)
    # directed 4-ring: ell = 3, so the agreement bound is 4*3*3 ms
    assert timing.rows[0].cbaam_bound_ms == pytest.approx(36.0)

    sched_cfg = replace(cfg, topology_schedule=((2, "ring"),))
    log2, timing2 = run_simulation(sched_cfg)
    assert timing2.rows[0].cbaam_bound_ms == pytest.approx(12.0)
    assert timing2.rows[3].cbaam_bound_ms == pytest.approx(36.0)

    doc = {
        "sampling_time_s": 0.1,
        "horizon": 50,
        "agents": [
            {"id": 1, "route": {"entry": "N", "exit": "S"},
             "initial_position_m": [-2.0, 82.0]},
            {"id": 2, "route": {"entry": "E", "exit": "W"},
             "initial_position_m": [81.0, 2.0]},
        ],
        "topology": [[1, 2], [2, 1]],
        "topology_schedule": [{"from_step": 5, "topology": "complete"}],
    }
    cfg3 = load_scenario(doc)
    assert cfg3.topology_among(0, [1, 2]).arcs == frozenset({(1, 2), (2, 1)})
    assert cfg3.topology_among(5, [1, 2]) == Topology.complete([1, 2])


def test_ring_closes_up_when_an_agent_leaves():
    cfg = load_scenario(THREE_AGENT_RING)
    assert cfg.topology_among(0, [1, 2, 3]) == Topology.ring([1, 2, 3])
    log, timing = run_simulation(cfg)
    ranked = {(p.step, p.agent) for p in log.priorities if p.rank > 0}
    assert (0, 2) in ranked and (1, 2) not in ranked
    # 3-ring at step 0 (ell = 2), then the 2-ring of agents 1 and 3 (ell = 1)
    assert [r.cbaam_bound_ms for r in timing.rows] == pytest.approx([18.0, 6.0, 6.0, 6.0])


def test_arc_list_keeps_agents_that_left_as_relays():
    cfg = load_scenario(dict(THREE_AGENT_RING, topology=[[1, 2], [2, 3], [3, 1]]))
    assert cfg.topology_among(1, [1, 3]) == Topology.ring([1, 2, 3])
    log, timing = run_simulation(cfg)
    ranked = {(p.step, p.agent) for p in log.priorities if p.rank > 0}
    assert (0, 2) in ranked and (1, 2) not in ranked
    # agent 2 relays from step 1 on, so the 3-ring's ell = 2 stays
    assert [r.cbaam_bound_ms for r in timing.rows] == pytest.approx([18.0, 12.0, 12.0, 12.0])


def test_penalty_violation_mostly_monotone_across_outer_iterations():
    cfg = small_cfg(steps=20, agents=(1, 2, 3, 4))
    log, _ = run_simulation(cfg)
    histories = [h for h in log.solver_violation_histories if len(h) > 1]
    assert histories, "expected some multi-iteration penalty loops"
    monotone = sum(
        1 for h in histories if all(b <= a + 1e-12 for a, b in zip(h, h[1:]))
    )
    total = len(log.solver_violation_histories)
    single = total - len(histories)
    assert (monotone + single) / total >= 0.95


# -- export_logs -----------------------------------------------------------------


def test_export_row_counts_and_headers(tmp_path):
    cfg = small_cfg(steps=10)
    log, timing = run_simulation(cfg)
    files = export_logs(log, timing, tmp_path)
    names = {f.name for f in files}
    assert names == {"trajectory.csv", "priorities.csv", "timing.csv"}
    traj_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj_lines[0] == (
        "step,time_s,agent,s_m,v_mps,ax_mps2,u_mps2,x_g_m,y_g_m,psi_rad,region,"
        "ay_mps2,atot_mps2,min_pair_dist_m,exact_overlap_m2"
    )
    assert len(traj_lines) == 1 + 10 * 2
    pri_lines = (tmp_path / "priorities.csv").read_text().splitlines()
    assert pri_lines[0] == "step,time_s,agent,bid,rank,emergency_flag,auction_iterations"
    timing_lines = (tmp_path / "timing.csv").read_text().splitlines()
    assert timing_lines[0] == "step,cbaam_bound_ms,max_mpc_ms,total_ms,within_budget"
    assert len(timing_lines) == 1 + 10


def test_export_bytes_deterministic_for_same_run(tmp_path):
    cfg = small_cfg(steps=8)
    log, timing = run_simulation(cfg)
    export_logs(log, timing, tmp_path / "a")
    export_logs(log, timing, tmp_path / "b")
    for name in ("trajectory.csv", "priorities.csv", "timing.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_rerun_identical_simulation_csvs(tmp_path):
    cfg = small_cfg(steps=8)
    for sub in ("x", "y"):
        log, timing = run_simulation(cfg)
        export_logs(log, timing, tmp_path / sub)
    for name in ("trajectory.csv", "priorities.csv"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_export_failure_reports_path(tmp_path):
    cfg = small_cfg(steps=2)
    log, timing = run_simulation(cfg)
    target = tmp_path / "blocked"
    target.mkdir()
    (target / "trajectory.csv").mkdir()  # collide with the output file
    with pytest.raises(OSError, match="trajectory.csv"):
        export_logs(log, timing, target)


@pytest.mark.parametrize("blocker", ["file in the way", "directory named like an output file"])
def test_cli_reports_an_output_error_in_one_line(tmp_path, capsys, monkeypatch, blocker):
    """`simulate` reports an --out it cannot write as one line and exit code
    1, without a traceback: a file standing in the way of the output
    directory is found before the run starts; a directory that takes an
    output file's name (test_export_failure_reports_path's collision), when
    the run's logs are written."""
    import intersim.cli as cli

    runs = []
    monkeypatch.setattr(cli, "run_simulation", lambda cfg, run=cli.run_simulation: runs.append(cfg) or run(cfg))
    if blocker == "file in the way":
        (tmp_path / "f").write_text("")
        out, named = tmp_path / "f" / "out", str(tmp_path / "f" / "out")
    else:
        out, named = tmp_path / "blocked", "trajectory.csv"
        (out / "trajectory.csv").mkdir(parents=True)
    code = cli.main(["simulate", "--scenario", "use_case_1", "--steps", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("output error: ") and named in line
    assert len(runs) == (blocker != "file in the way")


# -- CLI ----------------------------------------------------------------------------


def test_cli_check_and_simulate(tmp_path, capsys):
    from intersim.cli import main

    assert main(["check", "--scenario", "use_case_1"]) == 0
    out = capsys.readouterr().out
    assert "4 agents" in out

    doc = {
        "sampling_time_s": 0.1,
        "horizon": 50,
        "steps": 5,
        "agents": [
            {"id": 1, "route": {"entry": "N", "exit": "S"},
             "initial_position_m": [-2.0, 82.0], "initial_speed_mps": 14.0},
            {"id": 2, "route": {"entry": "E", "exit": "W"},
             "initial_position_m": [81.0, 2.0], "initial_speed_mps": 14.0},
        ],
    }
    scenario_file = tmp_path / "tiny.json"
    scenario_file.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "logs")])
    assert code == 0
    assert (tmp_path / "logs" / "trajectory.csv").exists()
    summary = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"total_ms p50=(\d+\.\d) p95=(\d+\.\d); steps over the 100 ms budget: (\d+) of 5; "
        r"unconverged solves: 0 of 10; exact solves: (\d+)",
        summary,
    )
    assert match, summary
    # the run's exact tally, counted from the reports: over these 5 steps
    # neither vehicle holds a track and both stay on their straight
    # approaches, so the exact QP settles all 10 solves
    import intersim.orchestrator as orch

    settled = []
    original = orch.solve_ocp

    def solve(*args, **kwargs):
        result = original(*args, **kwargs)
        settled.append(result[2].settled_by)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orch, "solve_ocp", solve)
        exact = run_simulation(load_scenario(doc))[0].exact_solves
    assert int(match[4]) == exact == settled.count("exact") == 10
    rows = (tmp_path / "logs" / "timing.csv").read_text().splitlines()[1:]
    total_ms = [float(row.split(",")[3]) for row in rows]
    assert float(match[1]) == pytest.approx(np.median(total_ms), abs=0.051)
    assert float(match[2]) == pytest.approx(np.percentile(total_ms, 95), abs=0.051)
    assert int(match[3]) == sum(row.endswith(",false") for row in rows)

    assert main(["check", "--scenario", "nonsense_preset"]) == 1

    with pytest.raises(SystemExit):
        main(["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "w"),
              "--workers", "2"])
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_cli_topology_file_goes_through_the_scenario_checks(tmp_path, capsys):
    from intersim.cli import main

    scenario_file = tmp_path / "two.json"
    scenario_file.write_text(json.dumps(TWO_AGENTS))
    arcs_file = tmp_path / "arcs.json"
    for arcs in ([[1, 99]], [[1, 2]], [[1]]):
        arcs_file.write_text(json.dumps(arcs))
        args = ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "bad"),
                "--topology", str(arcs_file)]
        assert main(args) == 1
        assert "scenario error: " in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()

    arcs_file.write_text(json.dumps([[1, 2], [2, 1]]))
    args = ["simulate", "--scenario", str(scenario_file), "--out", str(tmp_path / "ok"),
            "--topology", str(arcs_file), "--steps", "2"]
    assert main(args) == 0
    assert (tmp_path / "ok" / "timing.csv").read_text().count("\n") == 3
