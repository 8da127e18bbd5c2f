"""Acceptance suite: one test per release criterion, with a PASS line each.

The two full scenario presets are expensive, so their runs are shared
session-scoped fixtures. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time
from collections import Counter
from dataclasses import replace

import golden_environment
import numpy as np
import pytest

import intersim as xs
from intersim.auction import run_cbaam
from intersim.cli import _summary
from intersim.dynamics import discretize
from intersim.mpc import INNER_TOLERANCE, OcpProblem, PredictedTrajectory, box_solve
from intersim.network import Topology, graph_ell
from intersim.orchestrator import export_logs, run_simulation


GOLDEN = golden_environment.GOLDEN


def report(num: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="session")
def uc1():
    cfg = xs.load_scenario("use_case_1")
    log, timing = run_simulation(cfg, workers=1)
    return cfg, log, timing


@pytest.fixture(scope="session")
def uc1_rerun():
    cfg = xs.load_scenario("use_case_1")
    log, timing = run_simulation(cfg)
    return cfg, log, timing


@pytest.fixture(scope="session")
def uc2():
    cfg = xs.load_scenario("use_case_2")
    log, timing = run_simulation(cfg, workers=1)
    return cfg, log, timing


def test_criterion_1_auction_oracle_equivalence_and_bound():
    rng = np.random.default_rng(20240901)
    t0 = time.perf_counter()
    trials = 0
    while trials < 200:
        n = int(rng.integers(2, 11))
        nodes = list(range(1, n + 1))
        order = list(nodes)
        rng.shuffle(order)
        arcs = {(order[k], order[(k + 1) % n]) for k in range(n)}
        for i in nodes:
            for j in nodes:
                if i != j and rng.random() < 0.25:
                    arcs.add((i, j))
        topo = Topology(frozenset(nodes), frozenset(arcs))
        values = rng.uniform(0.1, 100.0, n)
        if trials % 2:  # bids on a coarse grid, so that equal bids occur
            values = np.ceil(values / 10.0)
        bids = {i: float(b) for i, b in zip(nodes, values)}
        order, iters = run_cbaam(bids, topo)
        assert list(order) == sorted(bids, key=lambda a: (-bids[a], a))
        assert iters <= n * graph_ell(topo)
        trials += 1
    elapsed = time.perf_counter() - t0
    report(1, f"auction equals descending-sort oracle within n*ell on 200 digraphs ({elapsed:.1f}s)", elapsed < 10.0)


def test_criterion_2_exact_zoh_discretization():
    # reference pair
    m = discretize(0.3, 0.1)
    ok = abs(m.a_d[0, 0] - math.exp(-1.0 / 3.0)) <= 1e-9

    def series(t_ax, t_s, terms=30):
        a = np.array([[-1.0 / t_ax, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        b = np.array([1.0 / t_ax, 0, 0])
        a_d = np.zeros((3, 3))
        b_int = np.zeros((3, 3))
        term = np.eye(3)
        for k in range(terms + 1):
            a_d += term * t_s**k / math.factorial(k)
            b_int += term * t_s ** (k + 1) / math.factorial(k + 1)
            term = term @ a
        return a_d, b_int @ b

    # ranges keep t_s/t_ax <= 3 so the truncated series itself is 1e-12 accurate
    rng = np.random.default_rng(7)
    for _ in range(100):
        t_ax = float(rng.uniform(0.1, 1.0))
        t_s = float(rng.uniform(0.0, 0.3))
        got = discretize(t_ax, t_s)
        a_ref, b_ref = series(t_ax, t_s)
        ok = ok and np.max(np.abs(got.a_d - a_ref)) <= 1e-9
        ok = ok and np.max(np.abs(got.b_d - b_ref)) <= 1e-9
    report(2, "closed-form hold matches 30-term series oracle to 1e-9 on 100 random pairs", ok)


@pytest.mark.slow
def test_criterion_3_use_case_1_safety(uc1):
    _, log, _ = uc1
    overlap_ok = all(r.exact_overlap_m2 == 0.0 for r in log.trajectory)
    dist_ok = all(r.min_pair_dist_m >= 0.0 for r in log.trajectory)
    rows_ok = len(log.trajectory) == 250 * 4
    report(
        3,
        "use_case_1: zero exact overlap area and nonnegative safety distance at all 250 steps",
        overlap_ok and dist_ok and rows_ok,
    )


@pytest.mark.slow
def test_criterion_4_use_case_1_constraint_satisfaction(uc1):
    _, log, _ = uc1
    rows = log.trajectory
    u_ok = all(-7.0 <= r.u_mps2 <= 4.0 for r in rows)
    v_ok = all(-0.0 <= r.v_mps <= 15.0 + 1e-2 for r in rows)
    ay_ok = all(abs(r.ay_mps2) <= 3.5 + 1e-2 for r in rows)
    atot_ok = all(r.atot_mps2 <= 7.0 + 1e-2 for r in rows)
    report(
        4,
        "use_case_1: u in [-7,4] exactly, v in [0,15]+1e-2, |a_y|<=3.5+1e-2, a_tot<=7+1e-2",
        u_ok and v_ok and ay_ok and atot_ok,
    )


@pytest.mark.slow
def test_use_case_1_unconverged_solves_by_family(uc1):
    """The CLI summary splits the unconverged solves by the family of their
    largest violation (SimulationLog.unconverged_families), which counts
    exactly the solves the summary calls unconverged: on use_case_1 all 19
    of 550 end on a box track."""
    cfg, log, timing = uc1
    tol = cfg.penalty.constraint_tolerance
    unconverged = sum(min(history) > tol for history in log.solver_violation_histories)
    assert sum(log.unconverged_families.values()) == unconverged
    assert log.unconverged_families == Counter(box=19)
    assert "; unconverged solves: 19 of 550 (box 19); " in _summary(cfg, log, timing)


def _rank_table(log):
    table = {}
    for p in log.priorities:
        if p.rank > 0:
            table.setdefault(p.step, {})[p.agent] = p.rank
    return table


@pytest.mark.slow
def test_criterion_5_priority_freeze_after_all_in_brake_safe_region(uc1):
    _, log, _ = uc1
    regions = {}
    for r in log.trajectory:
        regions.setdefault(r.step, {})[r.agent] = r.region
    ranks = _rank_table(log)
    freeze = None
    for k in sorted(ranks):
        active = ranks[k].keys()
        if active and all(regions[k][a] in ("bsr", "cr") for a in active):
            freeze = k
            break
    ok = freeze is not None
    changes = 0
    if ok:
        steps = sorted(k for k in ranks if k >= freeze)
        for k1, k2 in zip(steps, steps[1:]):
            both = sorted(set(ranks[k1]) & set(ranks[k2]))
            for x in both:
                for y in both:
                    if (ranks[k1][x] < ranks[k1][y]) != (ranks[k2][x] < ranks[k2][y]):
                        changes += 1
        ok = changes == 0
    report(
        5,
        f"use_case_1: relative priority order frozen from step {freeze} (first step with all "
        f"active agents in their brake-safe region) onward",
        ok,
    )


@pytest.mark.slow
def test_criterion_6_emergency_override(uc2):
    cfg, log, _ = uc2
    bad_ranks = [
        p
        for p in log.priorities
        if p.agent == 2 and p.time_s >= 0.5 and p.rank not in (0, 1)
    ]
    overlap_ok = all(r.exact_overlap_m2 == 0.0 for r in log.trajectory)
    overlap_ok = overlap_ok and all(r.min_pair_dist_m >= 0.0 for r in log.trajectory)
    # reported, not asserted: whether the decoupling of priority and crossing
    # order shows up with these safety-region defaults
    enter = {}
    for r in log.trajectory:
        if r.region == "cr" and r.agent not in enter:
            enter[r.agent] = r.time_s
    decoupled = enter.get(3, math.inf) < enter.get(2, math.inf)
    print(f"\n  note: agent 3 enters the critical region before agent 2: {decoupled} (CR entries {enter})")
    report(
        6,
        "use_case_2: agent 2 holds rank 1 from t=0.5s onward and the run stays collision-free",
        not bad_ranks and overlap_ok,
    )


def test_criterion_7_gradient_check_with_active_terms():
    params = xs.AgentParams(0.3, -7.0, 4.0, 15.0, 3.5, 7.0, 5.0, 2.0, 1.0, 1.0, 20.0, 14.0)
    model = discretize(0.3, 0.1)
    margins = xs.SafetyMargins()
    rng = np.random.default_rng(17)
    worst = 0.0
    preview_seen = 0
    ca_seen = 0
    for trial in range(20):
        route = xs.RouteSpec("W", "N") if trial % 2 else xs.RouteSpec("N", "S")
        path = xs.build_path(route)
        bounds = xs.compute_regions(path, xs.IntersectionGeometry(), 15.0, -7.0)
        t = np.arange(51) * 0.1
        neighbors = ()
        if trial % 3:
            neighbors = (
                PredictedTrajectory(
                    81.0 - rng.uniform(0, 15) - 14.0 * t,
                    np.full(51, 2.0),
                    np.full(51, math.pi),
                    np.full(51, 14.0),
                    5.0,
                    2.0,
                ),
            )
        state = xs.AgentState(rng.uniform(-0.5, 0.5), rng.uniform(8.0, 14.0), rng.uniform(30.0, 70.0))
        prob = OcpProblem(model, params, path, bounds, margins, state, neighbors, 50)
        u0 = np.clip(rng.normal(0.0, 0.5, 50), -7, 4)
        u_mid, _, _ = box_solve(lambda w: prob.value_and_grad(w, 10.0), -7.0, 4.0, u0, INNER_TOLERANCE, 40)
        u = np.clip(u_mid + rng.normal(0.0, 0.05, 50), -7, 4)
        stack = prob.residual_stack(u)[0]
        if stack[-1] > 0:
            preview_seen += 1
        if neighbors and np.max(stack[200:250]) > 1e-6:
            ca_seen += 1
        grad = prob.value_and_grad(u, 10.0)[1]()
        h = 1e-6
        fd = np.array(
            [
                (prob.value_and_grad(u + h * e, 10.0)[0] - prob.value_and_grad(u - h * e, 10.0)[0])
                / (2 * h)
                for e in np.eye(50)
            ]
        )
        worst = max(worst, float(np.max(np.abs(fd - grad) / np.maximum(1.0, np.abs(fd)))))
    print(f"\n  note: worst relative gradient error {worst:.2e}; "
          f"{preview_seen} instances with active preview, {ca_seen} with active avoidance terms")
    report(
        7,
        "analytic penalty gradient matches central differences within 1e-5 on 20 instances",
        worst < 1e-5 and preview_seen > 0 and ca_seen > 0,
    )


@pytest.mark.slow
def test_criterion_8_timing_report(uc1):
    _, _, timing = uc1
    first = timing.rows[0]
    exact_bound = first.cbaam_bound_ms == 12.0  # 4 participants, complete graph, 3 ms hops
    medians = float(np.median([r.max_mpc_ms for r in timing.rows]))
    all_nonneg = all(r.total_ms >= 0 and r.max_mpc_ms >= 0 for r in timing.rows)
    print(f"\n  note: median per-step worst-agent solve time {medians:.1f} ms "
          f"(soft target 100 ms; not a hard gate)")
    report(
        8,
        "timing: agreement bound is exactly 12 ms for 4 agents on a complete graph; "
        "per-step solve walltime reported",
        exact_bound and all_nonneg and len(timing.rows) == 250,
    )


@pytest.mark.slow
def test_criterion_9_byte_identical_exports(uc1, uc1_rerun, tmp_path):
    _, log_a, timing_a = uc1
    _, log_b, timing_b = uc1_rerun
    export_logs(log_a, timing_a, tmp_path / "a")
    export_logs(log_b, timing_b, tmp_path / "b")
    same = True
    for name in ("trajectory.csv", "priorities.csv"):
        same = same and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # timing.csv contains measured wall-clock columns; its simulated columns
    # must still agree exactly
    bounds_a = [(r.step, r.cbaam_bound_ms) for r in timing_a.rows]
    bounds_b = [(r.step, r.cbaam_bound_ms) for r in timing_b.rows]
    report(
        9,
        "determinism: trajectory and priority CSVs byte-identical across runs; "
        "simulated timing columns identical",
        same and bounds_a == bounds_b,
    )


def first_difference(got: bytes, want: bytes) -> str | None:
    """None when the two exports are byte-identical, else where they first differ."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for num, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {num}: got {g.decode()!r}, golden {w.decode()!r}"
    return f"{len(got_lines)} lines, golden has {len(want_lines)}"


@pytest.mark.slow
@pytest.mark.parametrize("fixture, preset", [("uc1", "use_case_1"), ("uc2", "use_case_2")])
def test_preset_runs_match_golden_exports(fixture, preset, request, tmp_path):
    _, log, timing = request.getfixturevalue(fixture)
    export_logs(log, timing, tmp_path)
    for name in golden_environment.EXPORTS:
        diff = first_difference((tmp_path / name).read_bytes(), (GOLDEN / preset / name).read_bytes())
        # a last-bit difference in the arithmetic kernels moves the whole run
        assert diff is None, (
            f"{preset} {name} differs from tests/golden: {diff}; golden environment "
            f"{golden_environment.recorded()}, this one {golden_environment.current()}"
        )
