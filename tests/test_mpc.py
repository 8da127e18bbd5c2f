"""Objective assembly, penalty gradients, box solver, and full OCP tests."""

import math

import numpy as np
import pytest

from intersim.dynamics import AgentParams, AgentState, discretize, rollout
from intersim.geometry import SafetyMargins
from intersim.mpc import (
    NeighborForecast,
    OcpParameter,
    OcpProblem,
    PenaltyConfig,
    box_solve,
    initial_broadcast,
    preview_residual,
    solve_ocp,
)
from intersim.paths import IntersectionGeometry, RouteSpec, build_path, compute_regions

PARAMS = AgentParams(0.3, -7.0, 4.0, 15.0, 3.5, 7.0, 5.0, 2.0, 1.0, 1.0, 20.0, 14.0)
MODEL = discretize(0.3, 0.1)
MARGINS = SafetyMargins()
CFG = PenaltyConfig()
GEOM = IntersectionGeometry()


def make_env(route=RouteSpec("N", "S"), approach=None):
    if approach is not None:
        route = RouteSpec(route.entry, route.exit, approach_length=approach)
    path = build_path(route)
    bounds = compute_regions(path, GEOM, PARAMS.v_max, PARAMS.a_x_min)
    return path, bounds


def crossing_neighbor(agent_id=3, offset=0.0, speed=14.0, horizon=50, t_s=0.1):
    """Westbound neighbor on the y=2 lane, crossing the N-S path."""
    t = np.arange(horizon + 1) * t_s
    return NeighborForecast(
        agent_id,
        81.0 - offset - speed * t,
        np.full(horizon + 1, 2.0),
        np.full(horizon + 1, math.pi),
        np.full(horizon + 1, speed),
        5.0,
        2.0,
    )


# -- costs ---------------------------------------------------------------------


def stage_cost(x: AgentState, u: float, v_ref: float, q: float, r: float) -> float:
    """Tracking-cost oracle: one stage of the objective value_and_grad sums."""
    if q <= 0 or r <= 0:
        raise ValueError("weights must be > 0")
    return q * (x.v - v_ref) ** 2 + r * u * u


def terminal_cost(x_n: AgentState, v_ref: float, q_n: float) -> float:
    """Tracking-cost oracle: the terminal term of the objective."""
    if q_n <= 0:
        raise ValueError("weight must be > 0")
    return q_n * (x_n.v - v_ref) ** 2


def test_stage_cost_at_reference_is_zero():
    assert stage_cost(AgentState(0, 14.0, 0), 0.0, 14.0, 1.0, 20.0) == 0.0


def test_stage_cost_reference_weights():
    assert stage_cost(AgentState(0, 15.0, 0), 1.0, 14.0, 1.0, 20.0) == pytest.approx(21.0)


def test_stage_cost_quadratic_in_input():
    base = stage_cost(AgentState(0, 14.0, 0), 1.0, 14.0, 1.0, 20.0)
    assert stage_cost(AgentState(0, 14.0, 0), 2.0, 14.0, 1.0, 20.0) == pytest.approx(4 * base)


def test_terminal_cost():
    assert terminal_cost(AgentState(0, 14.0, 0), 14.0, 1.0) == 0.0
    assert terminal_cost(AgentState(0, 16.0, 0), 14.0, 1.0) == pytest.approx(4.0)
    assert terminal_cost(AgentState(5.0, 16.0, 100.0), 14.0, 1.0) == pytest.approx(4.0)


# -- preview residual -------------------------------------------------------------


def test_preview_residual_branches():
    assert preview_residual(95.0, 90.0, 77.0) == 0.0  # clears the critical region
    assert preview_residual(70.0, 90.0, 77.0) == 0.0  # stops before the line
    assert preview_residual(60.0, 70.0, 50.0) == pytest.approx(10.0 * 10.0)


# -- constraint residuals -----------------------------------------------------------


def cruise_residuals(path, bounds, speed):
    """Residual stack of a zero-input horizon from steady cruise at `speed`."""
    z = OcpParameter(AgentState(0.0, speed, 0.0))
    return OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, z, 50).residual_stack(np.zeros(50))


def test_cruising_agent_has_zero_residuals():
    path, bounds = make_env(approach=300.0)
    stack = cruise_residuals(path, bounds, 14.0)
    assert np.all(stack == 0.0)


def test_speed_violation_magnitude():
    path, bounds = make_env(approach=300.0)
    stack = cruise_residuals(path, bounds, 16.0)
    assert np.max(stack) == pytest.approx(1.0)  # v - v_max = 16 - 15


def test_zero_curvature_kills_lateral_residuals():
    path, bounds = make_env(approach=300.0)
    stack = cruise_residuals(path, bounds, 15.0)
    lateral = stack[100:150]  # third block of 50
    assert np.all(lateral == 0.0)


# -- penalty objective gradient -------------------------------------------------------


def test_unconstrained_optimum_has_zero_objective_and_gradient():
    path, bounds = make_env(approach=300.0)
    z = OcpParameter(AgentState(0.0, 14.0, 0.0))
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, z, 50)
    value, grad = prob.value_and_grad(np.zeros(50), 10.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_zero_weight_reduces_to_tracking_objective():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.0, 16.0, 0.0))  # above the speed cap
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, z, 50)
    u = np.full(50, 0.5)
    value0, _ = prob.value_and_grad(u, 0.0)
    states = rollout(MODEL, z.own_state, u)
    expect = sum(
        stage_cost(st, float(ui), PARAMS.v_ref, PARAMS.q, PARAMS.r)
        for st, ui in zip(states[:-1], u)
    ) + terminal_cost(states[-1], PARAMS.v_ref, PARAMS.q_n)
    assert value0 == pytest.approx(expect, rel=1e-12)


def gradient_fd_check(prob, u, weight, h=1e-6):
    value, grad = prob.value_and_grad(u, weight)
    fd = np.array(
        [
            (prob.value_and_grad(u + h * e, weight)[0] - prob.value_and_grad(u - h * e, weight)[0])
            / (2 * h)
            for e in np.eye(len(u))
        ]
    )
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(fd - grad) / denom))


def test_gradient_matches_finite_differences_on_random_instances():
    """20 randomized instances with active avoidance and preview terms.

    Start points come from a partial solve so penalty terms are active but
    the objective stays moderate; wildly infeasible points make the
    finite-difference oracle itself noisier than the target tolerance.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(20):
        route = RouteSpec("W", "N") if trial % 2 else RouteSpec("N", "S")
        path, bounds = make_env(route)
        neighbors = (crossing_neighbor(offset=rng.uniform(0, 15)),) if trial % 3 else ()
        s0 = rng.uniform(30.0, 70.0)
        z = OcpParameter(AgentState(rng.uniform(-0.5, 0.5), rng.uniform(8.0, 14.0), s0), neighbors)
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, z, 50)
        u0 = np.clip(rng.normal(0.0, 0.5, 50), -7, 4)
        u_mid, _, _, _ = box_solve(lambda w: prob.value_and_grad(w, 10.0), -7.0, 4.0,
                                   u0, PenaltyConfig(max_inner_iterations=40))
        u_test = np.clip(u_mid + rng.normal(0.0, 0.05, 50), -7, 4)
        worst = max(worst, gradient_fd_check(prob, u_test, 10.0))
    assert worst < 1e-5


# -- box_solve --------------------------------------------------------------------


def quadratic(center):
    def f(u):
        d = u - center
        return float(d @ d), 2.0 * d

    return f


def test_interior_quadratic():
    u, _, converged, _ = box_solve(quadratic(np.array([3.0])), -7.0, 4.0, np.array([0.0]), CFG)
    assert converged
    assert u[0] == pytest.approx(3.0, abs=1e-4)


def test_active_bound_quadratic():
    u, _, converged, _ = box_solve(quadratic(np.array([10.0])), -7.0, 4.0, np.array([0.0]), CFG)
    assert converged
    assert u[0] == pytest.approx(4.0, abs=1e-9)


def test_matches_long_run_projected_gradient_oracle():
    rng = np.random.default_rng(123)
    n = 50
    m = rng.normal(size=(n, n))
    hess = m @ m.T + n * np.eye(n)
    b = rng.normal(size=n) * 10
    lo, hi = -1.0, 1.0

    def f(u):
        return float(0.5 * u @ hess @ u + b @ u), hess @ u + b

    u0 = np.zeros(n)
    u_fast, _, converged, _ = box_solve(f, lo, hi, u0, PenaltyConfig(inner_tolerance=1e-9))
    assert converged

    # independent oracle: plain projected gradient, many iterations
    lip = float(np.linalg.eigvalsh(hess).max())
    u_pg = u0.copy()
    for _ in range(100_000):
        u_pg = np.clip(u_pg - (1.0 / lip) * (hess @ u_pg + b), lo, hi)
    np.testing.assert_allclose(u_fast, u_pg, atol=1e-6)


def test_iteration_cap_returns_flag():
    u, iters, converged, _ = box_solve(
        quadratic(np.array([3.0])), -7.0, 4.0, np.array([-7.0]),
        PenaltyConfig(max_inner_iterations=1, inner_tolerance=1e-14),
    )
    assert iters == 1 and not converged


# -- solve_ocp -------------------------------------------------------------------


def test_steady_cruise_keeps_zero_input():
    path, bounds = make_env(approach=300.0)
    z = OcpParameter(AgentState(0.0, 14.0, 2.0))
    seq, traj, report = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.max(np.abs(seq.u)) <= 1e-3
    assert np.max(np.abs(traj.v - 14.0)) <= 1e-3
    assert report.converged


def test_accelerates_monotonically_from_stop():
    path, bounds = make_env(approach=300.0)
    z = OcpParameter(AgentState(0.0, 0.0, 0.0))
    seq, traj, report = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.all(np.diff(traj.v) >= -1e-9)
    assert np.all(seq.u >= -7.0) and np.all(seq.u <= 4.0)


def test_blocked_agent_stops_before_line():
    path, bounds = make_env()
    # a conflicting vehicle parked in the middle of the critical region
    horizon = 50
    parked = NeighborForecast(
        9,
        np.full(horizon + 1, -2.0),
        np.full(horizon + 1, 0.0),
        np.full(horizon + 1, math.pi),
        np.zeros(horizon + 1),
        5.0,
        2.0,
    )
    z = OcpParameter(AgentState(0.0, 10.0, 40.0), (parked,))
    seq, traj, report = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, horizon)
    s_end = traj.states[-1].s
    assert s_end <= bounds.s_stop + 0.5
    # the prediction keeps clear of the parked vehicle throughout
    gaps = np.hypot(traj.x_g - (-2.0), traj.y_g - 0.0)
    assert np.min(gaps) > 5.0


def test_rollout_consistency_bit_exact():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.3, 12.0, 30.0))
    seq, traj, _ = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert traj.states == rollout(MODEL, z.own_state, seq.u)
    assert traj.states[0] == z.own_state


def test_returned_inputs_respect_box_exactly():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.0, 14.0, 60.0))
    seq, _, _ = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.all(seq.u >= -7.0) and np.all(seq.u <= 4.0)


def test_penalty_violation_history_is_recorded():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.0, 14.0, 55.0), (crossing_neighbor(),))
    _, _, report = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert len(report.violation_history) >= 1
    assert report.max_violation >= 0.0


def test_warm_start_shift_iteration_guard():
    """Warm-started resolves in a static environment stay cheap."""
    path, bounds = make_env(approach=300.0)
    cold_iters = []
    warm_iters = []
    state = AgentState(0.0, 14.0, 2.0)
    warm = None
    for k in range(12):
        z = OcpParameter(state)
        seq, traj, rep = solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50, warm)
        (warm_iters if warm is not None else cold_iters).append(rep.inner_iterations)
        warm = np.concatenate([seq.u[1:], seq.u[-1:]])
        state = traj.states[1]
    assert np.median(warm_iters) <= 2 * max(np.median(cold_iters), 1)


def test_initial_broadcast_constant_speed():
    path, _ = make_env()
    x0 = AgentState(0.0, 14.0, 0.0)
    traj = initial_broadcast(x0, path, 50, 0.1)
    assert traj.states[0] == x0
    assert traj.states[-1].s == pytest.approx(70.0)
    assert np.all(traj.v == 14.0)
    # poses must lie on the path trace
    for j in (0, 25, 50):
        from intersim.paths import sample_path

        p = sample_path(path, traj.states[j].s)
        assert (p.x_g, p.y_g) == (pytest.approx(traj.x_g[j]), pytest.approx(traj.y_g[j]))


def test_initial_broadcast_stationary():
    path, _ = make_env()
    traj = initial_broadcast(AgentState(0.0, 0.0, 5.0), path, 50, 0.1)
    assert all(st.s == 5.0 for st in traj.states)


def test_neighbor_length_validation():
    path, bounds = make_env()
    bad = crossing_neighbor(horizon=40)
    z = OcpParameter(AgentState(0.0, 14.0, 0.0), (bad,))
    with pytest.raises(ValueError):
        solve_ocp(z, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
