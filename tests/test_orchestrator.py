"""Scenario loading, simulation-loop, and export tests on small runs."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from intersim.network import Topology
from intersim.orchestrator import export_logs, run_simulation
from intersim.scenario import (
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


def test_determinism_across_runs_and_workers():
    cfg = small_cfg(steps=10, agents=(1, 2, 3, 4))
    log_a, _ = run_simulation(cfg, workers=1)
    log_b, _ = run_simulation(cfg, workers=3)
    assert log_a.trajectory == log_b.trajectory
    assert log_a.priorities == log_b.priorities


def test_information_pattern_ignores_current_step_broadcasts():
    """Poisoning the in-flight broadcast buffer must not change the run."""
    cfg = small_cfg(steps=8, agents=(1, 2, 3, 4))
    clean, _ = run_simulation(cfg)

    from intersim.mpc import initial_broadcast
    import intersim.orchestrator as orch

    def poison(step, rts, next_broadcasts):
        for i, rt in rts.items():
            fake = initial_broadcast(rt.state, rt.path, cfg.horizon, cfg.t_s)
            fake.x_g = fake.x_g + 1e6  # garbage poses
            fake.y_g = fake.y_g - 1e6
            next_broadcasts[i] = fake

    poisoned, _ = run_simulation(cfg, pre_solve_hook=poison)
    assert clean.trajectory == poisoned.trajectory


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
    assert cfg3.build_topology().arcs == frozenset({(1, 2), (2, 1)})
    assert cfg3.topology_at(5).arcs == cfg3._build("complete").arcs


def test_ring_closes_up_when_an_agent_leaves():
    cfg = load_scenario(THREE_AGENT_RING)
    assert cfg.topology_at(0) == Topology.ring([1, 2, 3])
    log, timing = run_simulation(cfg)
    ranked = {(p.step, p.agent) for p in log.priorities if p.rank > 0}
    assert (0, 2) in ranked and (1, 2) not in ranked
    # 3-ring at step 0 (ell = 2), then the 2-ring of agents 1 and 3 (ell = 1)
    assert [r.cbaam_bound_ms for r in timing.rows] == pytest.approx([18.0, 6.0, 6.0, 6.0])


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

    assert main(["check", "--scenario", "nonsense_preset"]) == 1
