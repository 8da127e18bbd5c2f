"""Objective assembly, penalty gradients, box solver, and full OCP tests."""

import math
import warnings

import numpy as np
import pytest

from intersim import mpc
from intersim.dynamics import AgentParams, AgentState, discretize, rollout
from intersim.geometry import SafetyMargins, smooth_overlap_core
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


def reference_geometry(prob, s):
    """Horizon-geometry oracle: np.clip clamp plus the inside-the-path mask."""
    total = prob.path.total_length
    s_cl = np.clip(s, 0.0, total)
    inside = ((s > 0.0) & (s < total)).astype(float)
    x, y, psi, kap_exact = prob.path.table.pose(s_cl)
    kap, dkap = prob.path.table.smoothed(s_cl, kap_exact)
    return x, y, psi, kap, dkap, kap_exact, inside


def reference_ca_terms(prob, x, y, psi, kap, inside, v, track):
    """Collision-avoidance oracle: one neighbor track at a time."""
    p, m = prob.params, prob.margins
    ox, oy, opsi, ov = track.x_g[1:], track.y_g[1:], track.psi[1:], track.v[1:]
    rel = opsi - psi
    closing = v - ov * np.cos(rel)
    active = (closing > 0).astype(float)
    ext = m.headway * np.maximum(0.0, closing)
    dext_dv = m.headway * active
    dext_dpsi = m.headway * active * (-ov * np.sin(rel))
    cos_p, sin_p = np.cos(psi), np.sin(psi)
    a_r = p.length / 2.0 + m.long + ext / 2.0
    b_r = p.width / 2.0 + m.lat
    crx = x + 0.5 * ext * cos_p
    cry = y + 0.5 * ext * sin_p
    value, dcrx, dcry, dth, dar, _, _ = smooth_overlap_core(
        crx, cry, psi, a_r, b_r, ox, oy, opsi, track.length / 2.0, track.width / 2.0,
        m.sharpness,
    )
    dpsi_ds = kap * inside
    dext_ds = dext_dpsi * dpsi_ds
    dcrx_ds = cos_p * inside + 0.5 * (dext_ds * cos_p - ext * sin_p * dpsi_ds)
    dcry_ds = sin_p * inside + 0.5 * (dext_ds * sin_p + ext * cos_p * dpsi_ds)
    dv_ds = dcrx * dcrx_ds + dcry * dcry_ds + dth * dpsi_ds + dar * 0.5 * dext_ds
    dv_dv = dcrx * 0.5 * dext_dv * cos_p + dcry * 0.5 * dext_dv * sin_p + dar * 0.5 * dext_dv
    return value, dv_ds, dv_dv


def reference_value_and_grad(prob, u, weight):
    """Penalty-objective oracle: per-track loop, np.sum and a tensordot gradient."""
    p, n = prob.params, prob.horizon
    states = prob.base + prob.g_mat @ u
    a, v, s = states[:, 0], states[:, 1], states[:, 2]
    adj = np.zeros((n + 1, 3))
    dv_ref = v - p.v_ref
    value = p.q * float(np.sum(dv_ref[:n] ** 2)) + p.q_n * float(dv_ref[n] ** 2)
    value += p.r * float(np.sum(u * u))
    adj[:n, 1] += 2.0 * p.q * dv_ref[:n]
    adj[n, 1] += 2.0 * p.q_n * dv_ref[n]
    grad_direct = 2.0 * p.r * u
    aj, vj, sj = a[1:], v[1:], s[1:]
    x, y, psi, kap, dkap, kap_exact, inside = reference_geometry(prob, sj)
    ay = kap * vj * vj
    shrink = 1.0 - OcpProblem.ENFORCE_BACKOFF
    r_lo = np.maximum(0.0, -vj)
    r_hi = np.maximum(0.0, vj - p.v_max * shrink)
    r_ay = np.maximum(0.0, np.abs(ay) - p.a_y_max * shrink)
    r_tot = np.maximum(0.0, aj * aj + ay * ay - (p.a_tot_max * shrink) ** 2)
    value += weight * float(np.sum(r_lo**2) + np.sum(r_hi**2))
    adj[1:, 1] += weight * (2.0 * r_hi - 2.0 * r_lo)
    sgn = np.sign(ay)
    value += weight * float(np.sum(r_ay**2))
    adj[1:, 1] += weight * 4.0 * r_ay * sgn * kap * vj
    adj[1:, 2] += weight * 2.0 * r_ay * sgn * dkap * vj * vj
    value += weight * float(np.sum(r_tot**2))
    adj[1:, 0] += weight * 4.0 * r_tot * aj
    adj[1:, 1] += weight * 8.0 * r_tot * ay * kap * vj
    adj[1:, 2] += weight * 4.0 * r_tot * ay * dkap * vj * vj
    for track in prob.tracks:
        ca, dca_ds, dca_dv = reference_ca_terms(prob, x, y, psi, kap_exact, inside, vj, track)
        value += weight * float(np.sum(ca**2))
        adj[1:, 2] += weight * 2.0 * ca * dca_ds
        adj[1:, 1] += weight * 2.0 * ca * dca_dv
    h1 = max(0.0, prob.regions.s_cr_out - s[n])
    h2 = max(0.0, s[n] - prob.regions.s_stop)
    r_prev = h1 * h2
    value += weight * r_prev * r_prev
    d_prev = -float(h1 > 0) * h2 + h1 * float(h2 > 0)
    adj[n, 2] += weight * 2.0 * r_prev * d_prev
    return value, grad_direct + np.tensordot(adj, prob.g_mat, axes=([0, 1], [0, 1]))


def reference_residual_stack(prob, u):
    p = prob.params
    states = prob.base + prob.g_mat @ u
    a, v, s = states[:, 0], states[:, 1], states[:, 2]
    aj, vj = a[1:], v[1:]
    x, y, psi, kap, _, kap_exact, inside = reference_geometry(prob, s[1:])
    ay = kap * vj * vj
    pieces = [
        np.maximum(0.0, -vj),
        np.maximum(0.0, vj - p.v_max),
        np.maximum(0.0, np.abs(ay) - p.a_y_max),
        np.maximum(0.0, aj * aj + ay * ay - p.a_tot_max**2),
    ]
    for track in prob.tracks:
        pieces.append(reference_ca_terms(prob, x, y, psi, kap_exact, inside, vj, track)[0])
    r_prev = preview_residual(float(s[-1]), prob.regions.s_cr_out, prob.regions.s_stop)
    return np.concatenate(pieces + [np.array([r_prev])])


def random_neighbor(rng, agent_id, horizon=50):
    """A crossing or oncoming vehicle near the intersection, or a slow leader."""
    kind = rng.integers(3)
    if kind == 0:
        return crossing_neighbor(agent_id, offset=rng.uniform(-10.0, 20.0),
                                 speed=rng.uniform(0.0, 15.0), horizon=horizon)
    t = np.arange(horizon + 1) * 0.1
    speed = rng.uniform(0.0, 15.0)
    heading = rng.uniform(-math.pi, math.pi)
    x0, y0 = rng.uniform(-15.0, 15.0, 2)
    if kind == 2:  # ahead on the southbound N-S lane
        x0, y0, heading = -2.0, rng.uniform(-10.0, 40.0), -math.pi / 2
    return NeighborForecast(
        agent_id,
        x0 + speed * t * math.cos(heading),
        y0 + speed * t * math.sin(heading),
        np.full(horizon + 1, heading) + rng.normal(0.0, 0.05, horizon + 1),
        np.full(horizon + 1, speed),
        rng.uniform(3.0, 6.0),
        rng.uniform(1.5, 2.5),
    )


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_kernel_matches_per_track_reference_bit_for_bit():
    """240 random problems with 0-3 tracks on straight and turning routes,
    some with horizons that leave the path at either end."""
    rng = np.random.default_rng(2024)
    routes = [RouteSpec("N", "S"), RouteSpec("W", "N"), RouteSpec("E", "N"), RouteSpec("S", "W")]
    envs = [make_env(r) for r in routes]
    active = 0
    for trial in range(240):
        path, bounds = envs[trial % len(envs)]
        tracks = tuple(random_neighbor(rng, 2 + i) for i in range((trial // 4) % 4))
        if trial % 10 == 9:  # rolling back past the path start, or running off its end
            s0 = rng.choice([rng.uniform(0.0, 0.5), path.total_length - rng.uniform(0.0, 20.0)])
            state = AgentState(rng.uniform(-2.0, 0.0), rng.uniform(0.0, 1.0) + (s0 > 1.0) * 14.0, s0)
            end = path.table.pose(np.array([path.total_length]))
            parked = NeighborForecast(9, *(np.full(51, c[0]) for c in end[:3]), np.zeros(51), 5.0, 2.0)
            tracks = (parked,) + tracks[1:]
        else:
            state = AgentState(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 16.0), rng.uniform(0.0, 110.0))
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, OcpParameter(state, tracks), 50)
        for weight in (0.0, 10.0, 1250.0):
            u = np.clip(rng.normal(0.0, 3.0, 50), -7.0, 4.0)
            value, grad = prob.value_and_grad(u, weight)
            ref_value, ref_grad = reference_value_and_grad(prob, u, weight)
            assert same_bits(value, ref_value), trial
            assert same_bits(grad, ref_grad), trial
        stack = prob.residual_stack(u)
        assert same_bits(stack, reference_residual_stack(prob, u)), trial
        active += bool(np.any(stack[200:-1] > 1e-3))
    assert active >= 20  # the avoidance terms were exercised, not just zeros


def test_sensitivities_are_shared_read_only_and_exact():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.0, 14.0, 10.0))

    def problem(t_ax, horizon=50):
        return OcpProblem(discretize(t_ax, 0.1), PARAMS, path, bounds, MARGINS, z, horizon)

    first, second = problem(0.3), problem(0.3)
    assert first.f_mat is second.f_mat and first.g_mat is second.g_mat
    assert problem(0.5).g_mat is not first.g_mat
    assert problem(0.3, 40).g_mat.shape == (41, 3, 40)
    assert mpc._sensitivities.cache_info().maxsize is not None
    for arr in (first.f_mat, first.g_mat):
        with pytest.raises(ValueError):
            arr[1, 0, 0] = 0.0
    # bit for bit the per-solve construction they replace
    a_d, b_d = first.model.a_d, first.model.b_d
    powers = [np.eye(3)]
    for _ in range(50):
        powers.append(a_d @ powers[-1])
    g = np.zeros((51, 3, 50))
    for j in range(1, 51):
        g[j] = a_d @ g[j - 1]
        g[j][:, j - 1] = b_d
    assert same_bits(first.f_mat, np.stack(powers)) and same_bits(first.g_mat, g)
    u = np.linspace(-7.0, 4.0, 50)
    expect = [st.as_array() for st in rollout(first.model, z.own_state, u)]
    np.testing.assert_allclose(first.states(u), expect, rtol=1e-12, atol=1e-9)


def test_overflowing_state_is_rejected_before_evaluation():
    path, bounds = make_env()
    z = OcpParameter(AgentState(0.0, 8.9e307, 1.0e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflows"):
            OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, z, 50)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
    """30 randomized instances with active avoidance and preview terms.

    Start points come from a partial solve so penalty terms are active but
    the objective stays moderate; wildly infeasible points make the
    finite-difference oracle itself noisier than the target tolerance.
    Trials 20-29 carry two or three neighbors, so every row of the stacked
    track arrays feeds the gradient.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(30):
        route = RouteSpec("W", "N") if trial % 2 else RouteSpec("N", "S")
        path, bounds = make_env(route)
        if trial >= 20:
            neighbors = tuple(
                crossing_neighbor(3 + i, offset=rng.uniform(20, 45), speed=rng.uniform(8.0, 14.0))
                for i in range(2 + trial % 2)
            )
        else:
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
