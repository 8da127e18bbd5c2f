"""Objective assembly, penalty gradients, box solver, and full OCP tests."""

import json
import linecache
import math
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import box_solve_reference
import numpy as np
import paths_reference
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intersim import mpc
from intersim.dynamics import AgentParams, AgentState, discretize, step
from intersim.geometry import OVERLAP_SHARPNESS, SafetyMargins, smooth_overlap_core
from intersim.mpc import (
    OcpProblem,
    PenaltyConfig,
    PredictedTrajectory,
    box_solve,
    initial_broadcast,
    solve_ocp,
)
from intersim.paths import IntersectionGeometry, RouteSpec, build_path, compute_regions, project_onto_path

PARAMS = AgentParams(0.3, -7.0, 4.0, 15.0, 3.5, 7.0, 5.0, 2.0, 1.0, 1.0, 20.0, 14.0)
MODEL = discretize(0.3, 0.1)
MARGINS = SafetyMargins()
CFG = PenaltyConfig()
TOL = CFG.constraint_tolerance
# box_solve's first-round stopping displacement and iteration cap in the penalty loop
LIMITS = (mpc.INNER_TOLERANCE, mpc.MAX_INNER_ITERATIONS)
GEOM = IntersectionGeometry()


def make_env(route=RouteSpec("N", "S"), approach=None):
    if approach is not None:
        route = RouteSpec(route.entry, route.exit, approach_length=approach)
    path = build_path(route)
    bounds = compute_regions(path, GEOM, PARAMS.v_max, PARAMS.a_x_min)
    return path, bounds


def crossing_neighbor(offset=0.0, speed=14.0, horizon=50, t_s=0.1):
    """Westbound neighbor on the y=2 lane, crossing the N-S path."""
    t = np.arange(horizon + 1) * t_s
    return PredictedTrajectory(
        81.0 - offset - speed * t,
        np.full(horizon + 1, 2.0),
        np.full(horizon + 1, math.pi),
        np.full(horizon + 1, speed),
        5.0,
        2.0,
    )


def step_states(model, x0, u):
    """The (N+1, 3) states (a_x, v, s) of x0 under u, one dynamics.step at a time."""
    states = [x0]
    for uj in u:
        states.append(step(model, states[-1], float(uj)))
    return np.array([x.as_array() for x in states])


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
    """The last entry of residual_stack is the hinge (s_cr_out - s_N)+ * (s_N - s_stop)+."""
    path, bounds = make_env()

    def hinge(s_n):
        # standing still with zero input holds the horizon end at s_n
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 0.0, s_n), (), 50)
        assert prob.states(np.zeros(50))[-1, 2] == s_n
        return prob.residual_stack(np.zeros(50))[0][-1]

    assert hinge(bounds.s_cr_out + 5.0) == 0.0  # clears the critical region
    assert hinge(bounds.s_stop - 5.0) == 0.0  # stops before the line
    mid = bounds.s_stop + 2.0
    assert hinge(mid) == (bounds.s_cr_out - mid) * (mid - bounds.s_stop) > 0.0


# -- constraint residuals -----------------------------------------------------------


def cruise_residuals(path, bounds, speed):
    """Residual stack of a zero-input horizon from steady cruise at `speed`."""
    state = AgentState(0.0, speed, 0.0)
    return OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50).residual_stack(np.zeros(50))[0]


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
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 14.0, 0.0), (), 50)
    value, gradient = prob.value_and_grad(np.zeros(50), 10.0)
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(gradient(), 0.0, atol=1e-12)


def test_zero_weight_reduces_to_tracking_objective():
    path, bounds = make_env()
    state = AgentState(0.0, 16.0, 0.0)  # above the speed cap
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50)
    u = np.full(50, 0.5)
    value0, _ = prob.value_and_grad(u, 0.0)
    states = [AgentState(*row) for row in step_states(MODEL, state, u)]
    expect = sum(
        stage_cost(st, float(ui), PARAMS.v_ref, PARAMS.q, PARAMS.r)
        for st, ui in zip(states[:-1], u)
    ) + terminal_cost(states[-1], PARAMS.v_ref, PARAMS.q_n)
    assert value0 == pytest.approx(expect, rel=1e-12)


def reference_geometry(prob, s):
    """Horizon-geometry oracle: np.clip clamp, the reference pose and
    smoothing, and the inside-the-path mask."""
    total = prob.path.total_length
    s_cl = np.clip(s, 0.0, total)
    inside = ((s > 0.0) & (s < total)).astype(float)
    x, y, psi, kap_exact = paths_reference.pose(prob.path, s_cl)
    kap, dkap = paths_reference.smoothed(prob.path, s_cl, kap_exact)
    return x, y, psi, kap, dkap, kap_exact, inside


def reference_ca_terms(prob, x, y, psi, kap, inside, v, track):
    """Collision-avoidance oracle: one neighbor broadcast at a time. The
    broadcast is a step old, so prediction step j reads its step j+1, and
    its last pose is held."""
    p, m = prob.params, prob.margins
    n = prob.horizon
    idx = [min(j + 1, n) for j in range(1, n + 1)]
    ox, oy, opsi, ov = track.x_g[idx], track.y_g[idx], track.psi[idx], track.v[idx]
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
    value, derivatives = smooth_overlap_core(
        crx, cry, cos_p, sin_p, a_r, b_r, ox, oy, np.cos(rel), np.sin(rel),
        track.length / 2.0, track.width / 2.0, OVERLAP_SHARPNESS,
    )
    dcrx, dcry, dth, dar = derivatives()
    dpsi_ds = kap * inside
    dext_ds = dext_dpsi * dpsi_ds
    dcrx_ds = cos_p * inside + 0.5 * (dext_ds * cos_p - ext * sin_p * dpsi_ds)
    dcry_ds = sin_p * inside + 0.5 * (dext_ds * sin_p + ext * cos_p * dpsi_ds)
    dv_ds = dcrx * dcrx_ds + dcry * dcry_ds + dth * dpsi_ds + dar * 0.5 * dext_ds
    dv_dv = dcrx * 0.5 * dext_dv * cos_p + dcry * 0.5 * dext_dv * sin_p + dar * 0.5 * dext_dv
    return value, dv_ds, dv_dv


def reference_is_leader(prob, track):
    """A lane leader: a broadcast from this very route that started ahead."""
    return track.path == prob.path and track.s is not None and track.s[0] > prob.base[0, 2]


def reference_gap_terms(prob, s, v, track):
    """Lane-leader oracle, one prediction step at a time in Python floats:
    the gap shortfall r_j = max(0, s_j + g_j - s_l) with the gap
    g_j = (L + L_l)/2 + long + headway * max(0, v_j - v_l), and its slope
    dr/dv = headway where v_j > v_l (dr/ds is 1). Step j reads the
    broadcast's step j+1, holding its last one."""
    p, m, n = prob.params, prob.margins, prob.horizon
    r, dr_dv = np.zeros(n), np.zeros(n)
    for j in range(1, n + 1):
        k = min(j + 1, n)
        closing = float(v[j]) - float(track.v[k])
        gap = (p.length + track.length) / 2.0 + m.long + m.headway * max(0.0, closing)
        r[j - 1] = max(0.0, float(s[j]) + gap - float(track.s[k]))
        dr_dv[j - 1] = m.headway if closing > 0 else 0.0
    return r, dr_dv


def reference_value_and_grad(prob, u, weight):
    """Penalty-objective oracle: per-track loop, np.sum and a tensordot
    gradient. The tracks held as boxes come first, then the lane leaders,
    each in track order."""
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
        if not reference_is_leader(prob, track):
            ca, dca_ds, dca_dv = reference_ca_terms(prob, x, y, psi, kap_exact, inside, vj, track)
            value += weight * float(np.sum(ca**2))
            adj[1:, 2] += weight * 2.0 * ca * dca_ds
            adj[1:, 1] += weight * 2.0 * ca * dca_dv
    for track in prob.tracks:
        if reference_is_leader(prob, track):
            r, dr_dv = reference_gap_terms(prob, s, v, track)
            value += weight * float(np.sum(r**2))
            adj[1:, 2] += weight * 2.0 * r
            adj[1:, 1] += weight * 2.0 * r * dr_dv
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
        if reference_is_leader(prob, track):
            pieces.append(reference_gap_terms(prob, s, v, track)[0])
        else:
            pieces.append(reference_ca_terms(prob, x, y, psi, kap_exact, inside, vj, track)[0])
    s_n = float(s[-1])
    r_prev = max(0.0, prob.regions.s_cr_out - s_n) * max(0.0, s_n - prob.regions.s_stop)
    return np.concatenate(pieces + [np.array([r_prev])])


def random_neighbor(rng, horizon=50):
    """A crossing or oncoming vehicle near the intersection, or a slow leader."""
    kind = rng.integers(3)
    if kind == 0:
        return crossing_neighbor(offset=rng.uniform(-10.0, 20.0),
                                 speed=rng.uniform(0.0, 15.0), horizon=horizon)
    t = np.arange(horizon + 1) * 0.1
    speed = rng.uniform(0.0, 15.0)
    heading = rng.uniform(-math.pi, math.pi)
    x0, y0 = rng.uniform(-15.0, 15.0, 2)
    if kind == 2:  # ahead on the southbound N-S lane
        x0, y0, heading = -2.0, rng.uniform(-10.0, 40.0), -math.pi / 2
    return PredictedTrajectory(
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


def random_problems(rng, count):
    """`count` (trial, problem) pairs: random problems with 0-3 tracks on
    straight and turning routes, every tenth with a horizon that leaves the
    path at either end."""
    routes = [RouteSpec("N", "S"), RouteSpec("W", "N"), RouteSpec("E", "N"), RouteSpec("S", "W")]
    envs = [make_env(r) for r in routes]
    for trial in range(count):
        path, bounds = envs[trial % len(envs)]
        tracks = tuple(random_neighbor(rng) for _ in range((trial // 4) % 4))
        if trial % 10 == 9:  # rolling back past the path start, or running off its end
            s0 = rng.choice([rng.uniform(0.0, 0.5), path.total_length - rng.uniform(0.0, 20.0)])
            state = AgentState(rng.uniform(-2.0, 0.0), rng.uniform(0.0, 1.0) + (s0 > 1.0) * 14.0, s0)
            end = path.pose(np.array([path.total_length]))
            parked = PredictedTrajectory(*(np.full(51, c[0]) for c in end[:3]), np.zeros(51), 5.0, 2.0)
            tracks = (parked,) + tracks[1:]
        else:
            state = AgentState(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 16.0), rng.uniform(0.0, 110.0))
        yield trial, OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)


def kernel_cases(prob, u):
    """Which of the kernel's shortcuts an evaluation at u can take, from the
    reference: each penalty family zero throughout or not, and the only one
    that is not, the horizon
    strictly inside the path or not, on one path segment or not, and the
    track count (1, or 2 for two or more; the collision terms are the only
    ones that depend on it). Without tracks: whether the horizon lies on one
    straight segment missing every blend window, where the path gives no
    curvature and the lateral terms are skipped, and with which families."""
    p = prob.params
    states = prob.base + prob.g_mat @ u
    a, v, s = states[1:, 0], states[1:, 1], states[1:, 2]
    total = prob.path.total_length
    s_cl = np.clip(s, 0.0, total)
    segment = np.searchsorted(prob.path.cumulative[1:-1], s_cl, side="right")
    cases = {("one segment", bool(np.all(segment == segment[0])))}
    if prob.tracks:
        cases |= {("inside", bool(np.all((s > 0.0) & (s < total)))), ("tracks", min(len(prob.tracks), 2))}
    shrink = 1.0 - OcpProblem.ENFORCE_BACKOFF
    kap = paths_reference.smoothed(prob.path, s_cl, paths_reference.pose(prob.path, s_cl)[3])[0]
    ay = kap * v * v
    families = {
        "speed": np.maximum(0.0, -v) + np.maximum(0.0, v - p.v_max * shrink),
        "lateral": np.maximum(0.0, np.abs(ay) - p.a_y_max * shrink),
        "accel": np.maximum(0.0, a * a + ay * ay - (p.a_tot_max * shrink) ** 2),
    }
    nonzero = {name for name, r in families.items() if np.any(r)}
    cases |= {(name, name in nonzero) for name in families}
    if not prob.tracks:
        lo, hi = float(s_cl.min()), float(s_cl.max())
        flat = (np.all(segment == segment[0]) and prob.path.segments[segment[0]].kappa == 0.0
                and all(z1 < lo or hi < z0 for z0, z1, *_ in prob.path.blends))
        cases.add(("flat", bool(flat)))
        cases |= {("flat", name) for name in nonzero if flat}
    return cases | {("only", name) for name in nonzero if len(nonzero) == 1}


def test_kernel_matches_per_track_reference_bit_for_bit():
    """240 random problems with 0-3 tracks on straight and turning routes,
    some with horizons that leave the path at either end. Every shortcut of
    the kernel is taken and not taken along the way (kernel_cases)."""
    rng = np.random.default_rng(2024)
    active = 0
    seen = set()
    for trial, prob in random_problems(rng, 240):
        inputs = [(weight, np.clip(rng.normal(0.0, 3.0, 50), -7.0, 4.0)) for weight in (0.0, 10.0, 1250.0)]
        # 1.6 s of full braking: on a straight from 11-14 m/s this breaks the
        # total-acceleration limit alone
        for weight, u in inputs + [(10.0, np.r_[np.full(16, -7.0), np.zeros(34)])]:
            value, gradient = prob.value_and_grad(u, weight)
            ref_value, ref_grad = reference_value_and_grad(prob, u, weight)
            assert same_bits(value, ref_value), trial
            assert same_bits(gradient(), ref_grad), trial
            seen |= kernel_cases(prob, u)
        u = inputs[-1][1]
        stack = prob.residual_stack(u)[0]
        assert same_bits(stack, reference_residual_stack(prob, u)), trial
        active += bool(np.any(stack[200:-1] > 1e-3))
    assert active >= 20  # the avoidance terms were exercised, not just zeros
    names = ("speed", "lateral", "accel", "inside", "one segment")
    assert {(name, hit) for name in names for hit in (False, True)} <= seen
    assert {("only", "speed"), ("only", "lateral"), ("only", "accel"), ("tracks", 1), ("tracks", 2)} <= seen
    assert {("flat", False), ("flat", True), ("flat", "speed"), ("flat", "accel")} <= seen


def test_value_matches_value_and_grad_bit_for_bit():
    """Building the gradient leaves the value's bits unchanged: on 240 random
    problems, at weights 0, 10 and 1250, on random, saturated and zero
    inputs, an evaluation whose gradient is never built gives the same value
    as one whose gradient is. A gradient built after other points were
    evaluated equals one built at once, and a second call of the builder
    returns the cached array."""
    rng = np.random.default_rng(909)
    for trial, prob in random_problems(rng, 240):
        for weight in (0.0, 10.0, 1250.0):
            points = (np.clip(rng.normal(0.0, 3.0, 50), -7.0, 4.0), np.full(50, 4.0), np.zeros(50))
            late = [prob.value_and_grad(u, weight) for u in points]
            for u, (value, gradient) in zip(points, late):
                fresh_value, fresh_gradient = prob.value_and_grad(u, weight)
                grad = fresh_gradient()
                assert same_bits(value, fresh_value), trial
                assert same_bits(gradient(), grad), trial
                assert fresh_gradient() is grad and gradient() is gradient(), trial


def test_tracking_objective_matches_zero_weight_kernel_bit_for_bit():
    """The ranking's tracking cost equals value_and_grad at weight 0 byte for
    byte, on random problems with 0-3 tracks, near-feasible and saturated inputs."""
    rng = np.random.default_rng(606)
    routes = [RouteSpec("N", "S"), RouteSpec("W", "N"), RouteSpec("E", "N"), RouteSpec("S", "W")]
    envs = [make_env(r) for r in routes]
    for trial in range(120):
        path, bounds = envs[trial % len(envs)]
        tracks = tuple(random_neighbor(rng) for _ in range((trial // 4) % 4))
        state = AgentState(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 16.0), rng.uniform(0.0, 110.0))
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)
        for u in (np.clip(rng.normal(0.0, 3.0, 50), -7.0, 4.0), np.full(50, 4.0), np.zeros(50)):
            assert same_bits(prob.residual_stack(u)[1], prob.value_and_grad(u, 0.0)[0]), trial


def test_sensitivities_are_shared_read_only_and_exact():
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, 10.0)

    def problem(t_ax, horizon=50):
        return OcpProblem(discretize(t_ax, 0.1), PARAMS, path, bounds, MARGINS, state, (), horizon)

    model = discretize(0.3, 0.1)  # the model of problem(0.3)
    first, second = problem(0.3), problem(0.3)
    f_mat, g_mat, _ = mpc._sensitivities(model.a_d.tobytes(), model.b_d.tobytes(), 50)
    assert first.g_mat is g_mat and second.g_mat is g_mat
    assert problem(0.5).g_mat is not first.g_mat
    assert problem(0.3, 40).g_mat.shape == (41, 3, 40)
    assert mpc._sensitivities.cache_info().maxsize is not None
    for arr in (f_mat, g_mat):
        with pytest.raises(ValueError):
            arr[1, 0, 0] = 0.0
    # bit for bit the per-solve construction they replace
    a_d, b_d = model.a_d, model.b_d
    powers = [np.eye(3)]
    for _ in range(50):
        powers.append(a_d @ powers[-1])
    g = np.zeros((51, 3, 50))
    for j in range(1, 51):
        g[j] = a_d @ g[j - 1]
        g[j][:, j - 1] = b_d
    assert same_bits(f_mat, np.stack(powers)) and same_bits(first.g_mat, g)
    u = np.linspace(-7.0, 4.0, 50)
    expect = step_states(model, state, u)
    np.testing.assert_allclose(first.states(u), expect, rtol=1e-12, atol=1e-9)


def test_overflowing_state_is_rejected_before_evaluation():
    path, bounds = make_env()
    state = AgentState(0.0, 8.9e307, 1.0e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="overflows"):
            OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("state", [AgentState(0.0, 1e200, 0.0), AgentState(1e160, 14.0, 0.0)])
def test_state_whose_squares_overflow_is_rejected(state):
    """A finite free response is not enough: v**2 or a_x**2 would overflow."""
    path, bounds = make_env()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="out of range"):
            OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_state_at_the_range_limit_evaluates_without_overflow():
    path, bounds = make_env(RouteSpec("W", "N"))
    for state in (AgentState(1e6, 1e6, 1e6), AgentState(-1e6, -1e6, -1e6)):
        tracks = (crossing_neighbor(), crossing_neighbor(offset=30.0))
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)
        weight = mpc.INITIAL_WEIGHT * mpc.WEIGHT_MULTIPLIER ** mpc.MAX_OUTER_ITERATIONS
        value, gradient = prob.value_and_grad(np.full(50, 4.0), weight)
        assert np.isfinite(value) and np.all(np.isfinite(gradient()))
        assert np.all(np.isfinite(prob.residual_stack(np.full(50, -7.0))[0]))


def spoilt(field, how):
    nb = crossing_neighbor()
    if how == "nan":
        bad = getattr(nb, field).copy()
        bad[17] = math.nan
    else:
        bad = getattr(nb, field)[:-1]
    return replace(nb, **{field: bad})


@pytest.mark.parametrize("field", ["x_g", "y_g", "psi", "v"])
@pytest.mark.parametrize("how", ["nan", "short"])
def test_broadcast_check_rejects_before_any_evaluation(field, how, monkeypatch):
    """A neighbour broadcast with a NaN pose, or with arrays of unequal
    length, is refused at the V2V input boundary."""
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, 40.0)
    neighbours = (crossing_neighbor(offset=20.0), spoilt(field, how))

    def evaluated(*args):
        raise AssertionError("objective evaluated despite a bad broadcast")

    monkeypatch.setattr(OcpProblem, "value_and_grad", evaluated)
    monkeypatch.setattr(OcpProblem, "residual_stack", evaluated)
    match = "non-finite" if how == "nan" else "horizon\\+1"
    with pytest.raises(ValueError, match=match):
        solve_ocp(state, neighbours, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)


def test_broadcast_check_rejects_non_finite_extent():
    path, bounds = make_env()
    bad = replace(crossing_neighbor(), width=math.inf)
    with pytest.raises(ValueError, match="non-finite"):
        OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 14.0, 40.0), (bad,), 50)


def gradient_fd_check(prob, u, weight, h=1e-6):
    grad = prob.value_and_grad(u, weight)[1]()
    fd = np.array(
        [
            (prob.value_and_grad(u + h * e, weight)[0] - prob.value_and_grad(u - h * e, weight)[0])
            / (2 * h)
            for e in np.eye(len(u))
        ]
    )
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(fd - grad) / denom))


def active_families(prob, u):
    """The families of the penalty table that are nonzero at u, by kind (box,
    gap, v_lo, ...), with the preview hinge."""
    _, rows, _, (h1, h2) = prob._forward(u, 1.0 - OcpProblem.ENFORCE_BACKOFF)
    active = {name.split()[0] for name, row in zip(prob.row_names, rows) if np.any(row)}
    return active | ({"hinge"} if h1 * h2 > 0.0 else set())


def test_gradient_matches_finite_differences_on_random_instances():
    """30 randomized instances with active avoidance and preview terms.

    Start points come from a partial solve so penalty terms are active but
    the objective stays moderate; wildly infeasible points make the
    finite-difference oracle itself noisier than the target tolerance.
    Trials 20-29 carry two or three neighbors, so every row of the stacked
    track arrays feeds the gradient. Two more trials brake to a standstill
    and drive above v_max at the partial solve's start, and every family of
    the table (read from it) is active in at least one trial.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    seen = set()
    for trial in range(30):
        route = RouteSpec("W", "N") if trial % 2 else RouteSpec("N", "S")
        path, bounds = make_env(route)
        if trial >= 20:
            neighbors = tuple(
                crossing_neighbor(offset=rng.uniform(20, 45), speed=rng.uniform(8.0, 14.0))
                for _ in range(2 + trial % 2)
            )
        else:
            neighbors = (crossing_neighbor(offset=rng.uniform(0, 15)),) if trial % 3 else ()
        s0 = rng.uniform(30.0, 70.0)
        state = AgentState(rng.uniform(-0.5, 0.5), rng.uniform(8.0, 14.0), s0)
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, neighbors, 50)
        u0 = np.clip(rng.normal(0.0, 0.5, 50), -7, 4)
        u_mid, _, _ = box_solve(lambda w: prob.value_and_grad(w, 10.0), -7.0, 4.0, u0, mpc.INNER_TOLERANCE, 40)
        u_test = np.clip(u_mid + rng.normal(0.0, 0.05, 50), -7, 4)
        worst = max(worst, gradient_fd_check(prob, u_test, 10.0))
        seen |= active_families(prob, u_test)
    path, bounds = make_env()
    for state, u0 in ((AgentState(-3.0, 2.0, 40.0), np.full(50, -7.0)), (AgentState(2.0, 15.2, 20.0), np.full(50, 4.0))):
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50)
        u_test = np.clip(u0 + rng.normal(0.0, 0.05, 50), -7, 4)
        worst = max(worst, gradient_fd_check(prob, u_test, 10.0))
        seen |= active_families(prob, u_test)
    assert worst < 1e-5
    assert {"v_lo", "v_hi", "ay", "atot", "box", "hinge"} <= seen


# -- lane leaders held as a 1-D gap -------------------------------------------------


def leader_broadcast(path, s0, v0, accel, params=PARAMS, horizon=50, t_s=0.1):
    """The broadcast of a vehicle on `path` from s0 at v0 m/s, changing
    speed at `accel` m/s^2 and holding a stop once it reaches one."""
    v = np.maximum(0.0, v0 + accel * np.arange(horizon + 1) * t_s)
    s = s0 + np.concatenate(([0.0], np.cumsum((v[:-1] + v[1:]) / 2.0 * t_s)))
    return mpc._broadcast(s, v, path, params)


def leader_problems(rng, count):
    """`count` (trial, problem) pairs on straight and turning routes: a
    follower whose tracks, in shuffled order, are a lane leader and up to
    two more of: another leader, a vehicle behind on the same route, one
    ahead on another route that shares the approach lane, and a broadcast
    that names no path."""
    routes = [RouteSpec("N", "S"), RouteSpec("W", "S"), RouteSpec("W", "N")]
    envs = [make_env(r) for r in routes]
    for trial in range(count):
        path, bounds = envs[trial % len(envs)]
        other = envs[2 if trial % len(envs) == 1 else 1][0]  # W->S and W->N share the W approach
        s0 = rng.uniform(0.0, 120.0)
        state = AgentState(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 15.0), s0)

        def broadcast(on, ahead):
            params = replace(PARAMS, length=rng.uniform(3.0, 6.0))
            return leader_broadcast(on, s0 + ahead, rng.uniform(0.0, 15.0), rng.uniform(-4.0, 2.0), params)

        tracks = [broadcast(path, rng.uniform(0.5, 40.0))]
        for _ in range(trial // len(envs) % 3):
            kind = rng.integers(4)
            if kind == 0:
                tracks.append(broadcast(path, rng.uniform(0.5, 40.0)))
            elif kind == 1:
                tracks.append(broadcast(path, -rng.uniform(3.0, 30.0)))
            elif kind == 2:
                tracks.append(broadcast(other, rng.uniform(0.5, 40.0)))
            else:
                tracks.append(random_neighbor(rng))
        order = rng.permutation(len(tracks))
        yield trial, OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tuple(tracks[k] for k in order), 50)


def test_leader_gap_matches_per_step_reference_bit_for_bit():
    """120 followers of a lane leader, some beside a second leader, a
    vehicle behind, one on another route or a broadcast that names no path:
    value and gradient at weights 0, 10 and 1250, and the residual stack,
    equal the per-step reference bit for bit on random, full-throttle and
    braking inputs. The gap is active on both sides of its headway kink."""
    rng = np.random.default_rng(38)
    sides = set()
    mixed = 0
    for trial, prob in leader_problems(rng, 120):
        for u in (np.clip(rng.normal(0.0, 3.0, 50), -7.0, 4.0), np.full(50, 4.0), np.full(50, -7.0)):
            for weight in (0.0, 10.0, 1250.0):
                value, gradient = prob.value_and_grad(u, weight)
                ref_value, ref_grad = reference_value_and_grad(prob, u, weight)
                assert same_bits(value, ref_value), trial
                assert same_bits(gradient(), ref_grad), trial
            assert same_bits(prob.residual_stack(u)[0], reference_residual_stack(prob, u)), trial
            states = prob.states(u)
            for track in filter(partial(reference_is_leader, prob), prob.tracks):
                r, dr_dv = reference_gap_terms(prob, states[:, 2], states[:, 1], track)
                sides |= {bool(d) for d in dr_dv[r > 0]}
        mixed += not all(reference_is_leader(prob, track) for track in prob.tracks)
    assert sides == {False, True}
    assert mixed >= 20


def test_locate_names_every_entry_where_boxes_and_leaders_mix():
    """The table holds the box tracks before the lane leaders, while
    residual_stack lists the tracks in track order: with a box, a leader and
    another box, locate names for every entry of the stack the table row and
    step it holds, and the largest entry of each track's block is that
    track's largest residual."""
    path, bounds = make_env()
    tracks = (crossing_neighbor(), leader_broadcast(path, 48.0, 8.0, -2.0), crossing_neighbor(offset=4.0))
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 14.0, 40.0), tracks, 50)
    assert prob.row_names == ("v_lo", "v_hi", "ay", "atot", "box 0", "box 2", "gap 1")
    u = np.full(50, 2.0)
    stack, rows = prob.residual_stack(u)[0], prob._forward(u, 1.0)[1]
    names = [prob.locate(i) for i in range(stack.size)]
    assert names[-1] == ("hinge", 50) and stack[-1] == reference_residual_stack(prob, u)[-1]
    assert [names[50 * k] for k in range(7)] == [
        ("v_lo", 1), ("v_hi", 1), ("ay", 1), ("atot", 1), ("box 0", 1), ("gap 1", 1), ("box 2", 1)
    ]
    for i, (name, step) in enumerate(names[:-1]):
        assert stack[i] == rows[prob.row_names.index(name), step - 1]
    for k, name in enumerate(("box 0", "gap 1", "box 2")):
        block = stack[50 * (4 + k): 50 * (5 + k)]
        row = rows[prob.row_names.index(name)]
        assert block.max() > 0.0 and block.argmax() == row.argmax()
        assert prob.locate(50 * (4 + k) + int(block.argmax())) == (name, int(row.argmax()) + 1)


def test_leader_gap_gradient_matches_finite_differences():
    """Criterion 7's central-difference check on followers of a braking
    lane leader on a straight route, from a partial solve, at points where
    the gap is active and every closing speed with the gap active lies at
    least 0.01 m/s from the headway kink v_j = v_l. Points whose objective
    exceeds 1e4 are skipped: there the rounding of the values alone,
    value * 2.2e-16 / h, nears the 1e-5 tolerance."""
    rng = np.random.default_rng(27)
    path, bounds = make_env()
    worst, checked = 0.0, 0
    shift = np.minimum(np.arange(2, 52), 50)
    for _ in range(40):
        s0 = rng.uniform(20.0, 100.0)
        state = AgentState(rng.uniform(-0.5, 0.5), rng.uniform(8.0, 14.0), s0)
        lead = leader_broadcast(path, s0 + rng.uniform(8.0, 20.0), rng.uniform(4.0, 10.0), rng.uniform(-2.0, 0.0))
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (lead,), 50)
        u0 = np.clip(rng.normal(0.0, 0.5, 50), -7, 4)
        u_mid, _, _ = box_solve(lambda w: prob.value_and_grad(w, 10.0), -7.0, 4.0, u0, mpc.INNER_TOLERANCE, 40)
        u = np.clip(u_mid + rng.normal(0.0, 0.05, 50), -7, 4)
        states = prob.states(u)
        r, _ = reference_gap_terms(prob, states[:, 2], states[:, 1], lead)
        closing = states[1:, 1] - lead.v[shift]
        if np.max(r) < 1e-3 or np.min(np.abs(closing[r > 0])) < 1e-2 or prob.value_and_grad(u, 10.0)[0] > 1e4:
            continue
        worst = max(worst, gradient_fd_check(prob, u, 10.0))
        assert "gap" in active_families(prob, u)
        checked += 1
    assert checked >= 10
    assert worst < 1e-5


@pytest.mark.parametrize(
    "kind, surrogate",
    [("behind on the same route", True), ("ahead on another route", True), ("no path", True),
     ("ahead on the same route", False)],
)
def test_only_a_lane_leader_leaves_the_surrogate(kind, surrogate):
    """A track behind on the same route, one ahead on another route that
    shares the approach lane, and a broadcast that names no path are held as
    the box surrogate, bit for bit as the bare poses are; only a track ahead
    on the same route is not."""
    path, bounds = make_env(RouteSpec("W", "N"))
    state = AgentState(0.0, 10.0, 40.0)
    track = {
        "behind on the same route": leader_broadcast(path, 25.0, 12.0, 0.0),
        "ahead on another route": leader_broadcast(make_env(RouteSpec("W", "S"))[0], 50.0, 6.0, 0.0),
        "no path": replace(leader_broadcast(path, 50.0, 6.0, 0.0), path=None),
        "ahead on the same route": leader_broadcast(path, 50.0, 6.0, 0.0),
    }[kind]
    bare = replace(track, s=None, path=None)
    probs = [OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (nb,), 50) for nb in (track, bare)]
    same, active = True, 0.0
    for u in (np.zeros(50), np.full(50, 4.0), np.full(50, -7.0)):
        for weight in (0.0, 10.0, 1250.0):
            (value, gradient), (bare_value, bare_gradient) = (prob.value_and_grad(u, weight) for prob in probs)
            same &= same_bits(value, bare_value) and same_bits(gradient(), bare_gradient())
        stacks = [prob.residual_stack(u)[0] for prob in probs]
        same &= same_bits(*stacks)
        active = max(active, float(np.max(stacks[1][200:250])))
    assert active > 1e-3  # the surrogate is active at some input
    assert same == surrogate


def test_broadcast_names_its_route_and_clipped_coordinates():
    """A solve's broadcast carries the sender's route and the path
    coordinates its poses were sampled at, clipped to the path."""
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, path.total_length - 30.0)  # the horizon runs off the end
    u, traj, _ = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    s = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, (), 50).states(u)[:, 2]
    assert traj.path is path and same_bits(traj.s, np.clip(s, 0.0, path.total_length))
    assert traj.s[-1] == path.total_length
    assert same_bits(path.pose(traj.s)[0], traj.x_g)
    first = initial_broadcast(state, path, PARAMS, 50, 0.1)
    assert first.path is path and first.s[0] == state.s


@pytest.mark.parametrize("route", [RouteSpec("N", "S"), RouteSpec("W", "N")], ids=["same route", "other route"])
@pytest.mark.parametrize("how", ["nan", "inf", "short", "long"])
def test_broadcast_check_rejects_bad_path_coordinates(how, route):
    """Path coordinates that are not N+1 finite numbers are refused at the
    V2V input boundary, whichever route the broadcast names."""
    path, bounds = make_env()
    nb = leader_broadcast(make_env(route)[0], 60.0, 8.0, 0.0)
    s = {"nan": nb.s.copy(), "inf": nb.s.copy(), "short": nb.s[:-1], "long": np.append(nb.s, nb.s[-1])}[how]
    s[17] = {"nan": math.nan, "inf": math.inf}.get(how, s[17])
    match = "non-finite" if how in ("nan", "inf") else "horizon\\+1"
    with pytest.raises(ValueError, match=match):
        OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 10.0, 40.0), (replace(nb, s=s),), 50)


# -- box_solve --------------------------------------------------------------------


def quadratic(center):
    def f(u):
        d = u - center
        return float(d @ d), 2.0 * d

    return f


def lazy(value_grad):
    """The objective box_solve takes, from one that returns (value, gradient)."""

    def objective(u):
        value, grad = value_grad(u)
        return value, lambda: grad

    return objective


def eager(objective):
    """The (value, gradient) function the reference solver takes."""

    def value_grad(u):
        value, gradient = objective(u)
        return value, gradient()

    return value_grad


def solve_box(value_grad, lower, upper, u0, limits, halfspace=None):
    """box_solve on an objective given as its value_grad, with limits =
    (tolerance, max_iterations)."""
    return box_solve(lazy(value_grad), lower, upper, u0, *limits, halfspace)


def test_interior_quadratic():
    u, _, converged = solve_box(quadratic(np.array([3.0])), -7.0, 4.0, np.array([0.0]), LIMITS)
    assert converged
    assert u[0] == pytest.approx(3.0, abs=1e-4)


def test_active_bound_quadratic():
    u, _, converged = solve_box(quadratic(np.array([10.0])), -7.0, 4.0, np.array([0.0]), LIMITS)
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
    u_fast, _, converged = solve_box(f, lo, hi, u0, (1e-9, mpc.MAX_INNER_ITERATIONS))
    assert converged

    # independent oracle: plain projected gradient, many iterations
    lip = float(np.linalg.eigvalsh(hess).max())
    u_pg = u0.copy()
    for _ in range(100_000):
        u_pg = np.clip(u_pg - (1.0 / lip) * (hess @ u_pg + b), lo, hi)
    np.testing.assert_allclose(u_fast, u_pg, atol=1e-6)


def test_iteration_cap_returns_flag():
    u, iters, converged = solve_box(
        quadratic(np.array([3.0])), -7.0, 4.0, np.array([-7.0]),
        (1e-14, 1),
    )
    assert iters == 1 and not converged


# -- box_solve against the full-evaluation reference ------------------------------


def kinked(rng, n=20):
    """A piecewise-linear objective with a faint quadratic: its line search
    often fails, so box_solve takes the fallback step, which no benchmark
    window reaches."""
    centre = rng.uniform(-0.5, 0.5, n)
    up, down = rng.uniform(1.0, 6.0), rng.uniform(0.5, 2.0)

    def value_grad(u):
        d = u - centre
        value = float(np.sum(np.maximum(d, 0.0) * up + np.maximum(-d, 0.0) * down) + 0.01 * d @ d)
        return value, np.where(d > 0, up, -down) + 0.02 * d

    return value_grad


def uphill(rng, n=20):
    """A quadratic whose gradient points uphill: no line-search candidate
    decreases the envelope."""
    centre = rng.uniform(-0.5, 0.5, n)

    def value_grad(u):
        d = u - centre
        return float(d @ d), -2.0 * d

    return value_grad


def quadratic_nd(rng, n=30):
    m = rng.normal(size=(n, n))
    hess = m @ m.T + n * np.eye(n)
    b = rng.normal(size=n) * 10

    def value_grad(u):
        return float(0.5 * u @ hess @ u + b @ u), hess @ u + b

    return value_grad


def solver_cases(rng):
    """(name, objective, lower, upper, u0, (tolerance, max_iterations)) for box_solve: random
    quadratics, kinked and uphill objectives that force the fallback step,
    penalty objectives of random problems at two weights, and one start at
    a corner of the box that the solver comes back to."""
    for k in range(12):
        for name, make in (("quadratic", quadratic_nd), ("kinked", kinked), ("uphill", uphill)):
            u0 = rng.uniform(-1.0, 1.0, 30 if name == "quadratic" else 20)
            limits = (10.0 ** -rng.integers(4, 10), 60)
            yield f"{name} {k}", lazy(make(rng)), -1.0, 1.0, u0, limits
    for trial, prob in random_problems(rng, 40):
        weight = (10.0, 1250.0)[trial % 2]
        u0 = np.clip(rng.normal(0.0, 2.0, 50), -7.0, 4.0)
        yield f"problem {trial}", lambda u, prob=prob, w=weight: prob.value_and_grad(u, w), -7.0, 4.0, u0, LIMITS
    # a full-throttle start that a later forward-backward step lands back on
    _, prob = list(random_problems(np.random.default_rng(5), 14))[13]
    yield "corner start", lambda u: prob.value_and_grad(u, 1250.0), -7.0, 4.0, np.full(50, 4.0), LIMITS


def test_box_solve_matches_full_evaluation_reference_bit_for_bit():
    rng = np.random.default_rng(77)
    fallbacks = 0
    for name, objective, lo, hi, u0, limits in solver_cases(rng):
        u, iters, converged = box_solve(objective, lo, hi, u0, *limits)
        (u_ref, iters_ref, converged_ref), log = reference_log(eager(objective), lo, hi, u0, limits)
        assert same_bits(u, u_ref) and (iters, converged) == (iters_ref, converged_ref), name
        fallbacks += sum(site == "fallback" for site, _ in log)
    assert fallbacks >= 10


# the reference's fallback step: it reads the gradient of its forward-backward
# point t, evaluated earlier in the iteration, without a call
FALLBACK = "u_new, f_new, g_new = t, f_t, g_t"
# the line that starts each box_solve iteration's memo of evaluated points
ITERATION = "known = {}"


def traced(function, line, on_line, *args):
    """function(*args), with on_line(frame) called each time its own frame
    reaches the source line `line` (stripped)."""
    code = function.__code__

    def trace_lines(frame, event, arg):
        if event == "line" and linecache.getline(code.co_filename, frame.f_lineno).strip() == line:
            on_line(frame)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        return function(*args)
    finally:
        sys.settrace(previous)


def reference_log(value_grad, lower, upper, u0, limits):
    """The reference solver's result, and its gradient reads in order as
    (site, point bytes): one per evaluation, its site named by the line that
    called value_grad, and one per fallback step, at its point t."""
    log = []

    def spy(u):
        caller = sys._getframe(1)
        line = linecache.getline(caller.f_code.co_filename, caller.f_lineno).strip()
        log.append((box_solve_reference.SITES[line], u.tobytes()))
        return value_grad(u)

    def fallback(frame):
        log.append(("fallback", frame.f_locals["t"].tobytes()))

    result = traced(box_solve_reference.box_solve, FALLBACK, fallback, spy, lower, upper, u0, *limits)
    return result, log


def logged_solve(objective, lower, upper, u0, limits):
    """box_solve's evaluations and gradient builds in order, as ("value" or
    "gradient", point bytes), with ("iteration", b"") where an iteration's
    memo starts; a builder called again logs nothing, as it returns its
    cached array."""
    log = []

    def spy(u):
        key = u.tobytes()
        log.append(("value", key))
        value, gradient = objective(u)
        built = []

        def spy_gradient():
            if not built:
                built.append(True)
                log.append(("gradient", key))
            return gradient()

        return value, spy_gradient

    traced(box_solve, ITERATION, lambda frame: log.append(("iteration", b"")), spy, lower, upper, u0, *limits)
    return log


def test_box_solve_evaluates_each_point_once_and_gradients_where_read():
    """Within one box_solve iteration no point is evaluated twice, and the
    points are those the reference evaluates. A gradient is built exactly
    where the reference reads one: at the start, the Lipschitz probe, a
    line-search candidate, or the forward-backward point a fallback step
    takes. A forward-backward point that is none of these is evaluated for
    its value alone."""
    rng = np.random.default_rng(78)
    counts = {"value only": 0, "start": 0, "probe": 0, "line search": 0, "fallback": 0}
    for name, objective, lo, hi, u0, limits in solver_cases(rng):
        log = logged_solve(objective, lo, hi, u0, limits)
        sites: dict[bytes, set] = {}
        for site, key in reference_log(eager(objective), lo, hi, u0, limits)[1]:
            sites.setdefault(key, set()).add(site)
        # the evaluations before the first iteration (start and probe), then per iteration
        per_iteration: list[list[bytes]] = [[]]
        for kind, key in log:
            if kind == "iteration":
                per_iteration.append([])
            elif kind == "value":
                per_iteration[-1].append(key)
        assert all(len(keys) == len(set(keys)) for keys in per_iteration), name  # no point twice
        evaluated = [key for keys in per_iteration for key in keys]
        assert set(evaluated) == set(sites), name
        built = {key for kind, key in log if kind == "gradient"}
        read = {key for key, where in sites.items() if where - {"forward-backward"}}
        assert built == read, name
        for key, where in sites.items():
            for site in where & set(counts):
                counts[site] += 1
            counts["value only"] += where == {"forward-backward"}
    assert min(counts.values()) >= 10, counts


# -- box_solve with a halfspace ----------------------------------------------------


@st.composite
def halfspace_cases(draw):
    """z, a box, c >= 0 with some zero entries, and d with c @ lower <= d."""
    n = draw(st.integers(1, 12))
    lower = draw(st.floats(-10.0, 5.0))
    upper = lower + draw(st.floats(0.0, 10.0))
    z = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)))
    c = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0)), min_size=n, max_size=n)))
    d = float(c @ np.full(n, lower)) + draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
    return z, lower, upper, c, d


def bisection_projection(z, lower, upper, c, d):
    """The oracle: clip(z - mu*c) with mu >= 0 found by 200 bisection steps
    on c @ clip(z - mu*c) = d, which falls in mu."""
    lo, hi = 0.0, max([(zi - lower) / ci for zi, ci in zip(z, c) if ci > 0] + [0.0])
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if c @ np.clip(z - mid * c, lower, upper) > d:
            lo = mid
        else:
            hi = mid
    return np.clip(z - hi * c, lower, upper)


@settings(max_examples=300, deadline=None)
@given(halfspace_cases())
# a zero-width box at 0 with z = -0.0: the clip keeps z's sign of zero, as np.clip does
@example((np.array([-0.0]), 0.0, 0.0, np.array([0.0]), 0.0))
def test_halfspace_projection_matches_a_bisection_oracle(case):
    z, lower, upper, c, d = case
    p = mpc._project_box_halfspace(z, lower, upper, c, d)
    assert np.all(p >= lower) and np.all(p <= upper)
    assert c @ p <= d + 1e-12 * (1.0 + float(np.abs(c).sum()) * max(abs(lower), abs(upper)))
    clipped = np.clip(z, lower, upper)
    if c @ clipped <= d:
        assert same_bits(p, clipped)
    else:
        np.testing.assert_allclose(p, bisection_projection(z, lower, upper, c, d), rtol=0.0, atol=1e-9)


def test_box_solve_with_a_halfspace_finds_the_projection_of_the_minimiser():
    """Minimising |u - centre|^2 over box ∩ halfspace gives the projection of the centre."""
    rng = np.random.default_rng(9)
    for trial in range(20):
        centre = rng.uniform(-3.0, 3.0, 20)
        c = rng.uniform(0.0, 2.0, 20) * (rng.random(20) < 0.8)
        d = float(c @ np.full(20, -1.0)) + rng.uniform(0.0, 5.0)
        u, _, converged = solve_box(quadratic(centre), -1.0, 1.0, np.zeros(20),
                                    (1e-10, mpc.MAX_INNER_ITERATIONS), halfspace=(c, d))
        assert converged, trial
        expected = mpc._project_box_halfspace(centre, -1.0, 1.0, c, d)
        np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-8, err_msg=str(trial))


# -- solve_ocp -------------------------------------------------------------------


def test_steady_cruise_keeps_zero_input():
    path, bounds = make_env(approach=300.0)
    u, traj, report = solve_ocp(AgentState(0.0, 14.0, 2.0), (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.max(np.abs(u)) <= 1e-3
    assert np.max(np.abs(traj.v - 14.0)) <= 1e-3
    assert report.converged


def test_accelerates_monotonically_from_stop():
    path, bounds = make_env(approach=300.0)
    u, traj, report = solve_ocp(AgentState(0.0, 0.0, 0.0), (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.all(np.diff(traj.v) >= -1e-9)
    assert np.all(u >= -7.0) and np.all(u <= 4.0)


def test_blocked_agent_stops_before_line():
    path, bounds = make_env()
    # a conflicting vehicle parked in the middle of the critical region
    horizon = 50
    parked = PredictedTrajectory(
        np.full(horizon + 1, -2.0),
        np.full(horizon + 1, 0.0),
        np.full(horizon + 1, math.pi),
        np.zeros(horizon + 1),
        5.0,
        2.0,
    )
    state = AgentState(0.0, 10.0, 40.0)
    u, traj, report = solve_ocp(state, (parked,), MODEL, PARAMS, path, bounds, CFG, MARGINS, horizon)
    s_end = step_states(MODEL, state, u)[-1, 2]
    assert s_end <= bounds.s_stop + 0.5
    # the prediction keeps clear of the parked vehicle throughout
    gaps = np.hypot(traj.x_g - (-2.0), traj.y_g - 0.0)
    assert np.min(gaps) > 5.0


def without_closed_form(monkeypatch):
    """Every solve runs the warm start's penalty loop, as before the closed form."""
    monkeypatch.setattr(mpc, "_closed_form", lambda problem: None)


PARKED = PredictedTrajectory(np.full(51, -2.0), np.zeros(51), np.full(51, math.pi), np.zeros(51), 5.0, 2.0)


def check_rollout_consistency(cases, closed_form):
    path, bounds = make_env()
    for state, tracks, warm, outcome in cases:
        u, traj, report = solve_ocp(state, tracks, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50, warm)
        assert report.second_start == outcome
        assert report.closed_form == (closed_form and not tracks)
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)
        _, v, s = prob.states(u).T
        x, y, psi, _ = path.pose(np.clip(s, 0.0, path.total_length))
        assert same_bits(traj.v, v)
        assert same_bits(traj.x_g, x) and same_bits(traj.y_g, y) and same_bits(traj.psi, psi)
        assert (traj.v[0], traj.length, traj.width) == (state.v, PARAMS.length, PARAMS.width)


def test_rollout_consistency_bit_exact():
    """The broadcast is the solver's own prediction OcpProblem.states(u) of
    the returned inputs, bit for bit, whichever start won. From a braking warm
    start without tracks the tracking minimiser is unconstrained, so the
    closed form is the warm candidate and no second start runs."""
    check_rollout_consistency([
        (AgentState(0.3, 12.0, 30.0), (), None, "not_run"),
        (AgentState(0.0, 10.0, 40.0), (PARKED,), None, "lost_infeasible"),
        (AgentState(0.0, 10.0, 40.0), (), np.full(50, PARAMS.a_x_min), "not_run"),  # from a braking warm start
    ], closed_form=True)


def test_rollout_consistency_bit_exact_when_the_second_start_wins(monkeypatch):
    """Without the closed form the braking warm start's penalty loop ends
    before the line, and the full-throttle second start wins: its broadcast
    is its own prediction too."""
    without_closed_form(monkeypatch)
    check_rollout_consistency([(AgentState(0.0, 10.0, 40.0), (), np.full(50, PARAMS.a_x_min), "won")],
                              closed_form=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_refuses_a_non_finite_input(monkeypatch, bad):
    """A start that returned a non-finite input is refused, not broadcast.
    The closed form, which refuses a non-finite minimiser itself, is off."""
    path, bounds = make_env()
    without_closed_form(monkeypatch)

    def broken(problem, u0, tol, incumbent=None):
        u = np.zeros(problem.horizon)
        u[3] = bad
        return mpc._Candidate(u, 0.0, 0.0, np.zeros((problem.horizon + 1, 3)), (0.0,))

    monkeypatch.setattr(mpc, "_penalty_loop", broken)
    with pytest.raises(ValueError, match="non-finite input"):
        solve_ocp(AgentState(0.0, 14.0, 30.0), (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)


def test_returned_inputs_respect_box_exactly():
    path, bounds = make_env()
    u, _, _ = solve_ocp(AgentState(0.0, 14.0, 60.0), (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert np.all(u >= -7.0) and np.all(u <= 4.0)


def test_penalty_violation_history_is_recorded():
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, 55.0)
    _, _, report = solve_ocp(state, (crossing_neighbor(),), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert len(report.violation_history) >= 1
    assert report.max_violation >= 0.0


def test_warm_start_shift_iteration_guard():
    """Warm-started resolves in a static environment stay cheap."""
    path, bounds = make_env(approach=300.0)
    cold_evals = []
    warm_evals = []
    state = AgentState(0.0, 14.0, 2.0)
    warm = None
    for k in range(12):
        u, _, rep = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50, warm)
        (warm_evals if warm is not None else cold_evals).append(rep.evaluations)
        warm = np.concatenate([u[1:], u[-1:]])
        state = step(MODEL, state, float(u[0]))
    assert np.median(warm_evals) <= 2 * max(np.median(cold_evals), 1)


def test_initial_broadcast_constant_speed():
    from intersim.paths import sample_path

    path, _ = make_env()
    traj = initial_broadcast(AgentState(0.0, 14.0, 0.0), path, PARAMS, 50, 0.1)
    assert np.all(traj.v == 14.0)
    assert (traj.length, traj.width) == (PARAMS.length, PARAMS.width)
    # poses lie on the path trace, 1.4 m apart, ending 70 m along it
    for j in (0, 25, 50):
        p = sample_path(path, 1.4 * j)
        assert (p.x_g, p.y_g) == (pytest.approx(traj.x_g[j]), pytest.approx(traj.y_g[j]))


def test_initial_broadcast_stationary():
    from intersim.paths import sample_path

    path, _ = make_env()
    traj = initial_broadcast(AgentState(0.0, 0.0, 5.0), path, PARAMS, 50, 0.1)
    assert np.all(traj.x_g == traj.x_g[0]) and np.all(traj.y_g == traj.y_g[0])
    assert np.all(traj.v == 0.0)
    p = sample_path(path, 5.0)
    assert (p.x_g, p.y_g) == (pytest.approx(traj.x_g[0]), pytest.approx(traj.y_g[0]))


def test_neighbor_length_validation():
    path, bounds = make_env()
    bad = crossing_neighbor(horizon=40)
    with pytest.raises(ValueError):
        solve_ocp(AgentState(0.0, 14.0, 0.0), (bad,), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)


# -- stopping a stalled second start -----------------------------------------------


def scripted_loop(monkeypatch, violations):
    """A real problem whose box_solve and residual_stack replay `violations`,
    one per round: round k returns u = k everywhere, with violation
    violations[k-1] and the real tracking cost at u. Returns the problem and
    the list of box_solve start points."""
    path, bounds = make_env()
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 14.0, 40.0), (), 50)
    starts = []

    def fake_box_solve(objective, lower, upper, u0, tolerance, max_iterations, halfspace=None):
        starts.append(u0)
        return np.full(50, float(len(starts))), 7, True

    monkeypatch.setattr(mpc, "box_solve", fake_box_solve)
    real = prob.residual_stack
    monkeypatch.setattr(prob, "residual_stack", lambda u: (np.array([violations[int(u[0]) - 1]]), *real(u)[1:]))
    return prob, starts


def incumbent(violation):
    return mpc._Candidate(np.zeros(50), violation, 0.0, None, (violation,))


STALLING = [1.0, 0.3, 0.2, 0.19, 0.18, 0.17]  # shrinks x0.3, then stalls


def test_second_start_stops_at_first_stalled_round_behind_feasible_incumbent(monkeypatch):
    prob, starts = scripted_loop(monkeypatch, STALLING)
    got = mpc._penalty_loop(prob, np.full(50, 4.0), TOL, incumbent=incumbent(TOL))
    # round 2 shrank below 1.0 / sqrt(5) = 0.447; round 3's 0.2 is not below 0.3 / sqrt(5)
    assert got.history == (1.0, 0.3, 0.2)
    assert len(starts) == 3
    assert got.violation == 0.2 and np.all(got.u == 3.0)


def test_shrinking_by_exactly_sqrt_multiplier_counts_as_stalled(monkeypatch):
    prob, _ = scripted_loop(monkeypatch, [1.0, 1.0 / math.sqrt(mpc.WEIGHT_MULTIPLIER), 0.1, 0.1, 0.1, 0.1])
    got = mpc._penalty_loop(prob, np.zeros(50), TOL, incumbent=incumbent(0.0))
    assert len(got.history) == 2


@pytest.mark.parametrize("rival", [None, incumbent(0.5)], ids=["no incumbent", "infeasible incumbent"])
def test_every_round_runs_without_a_feasible_incumbent(monkeypatch, rival):
    prob, starts = scripted_loop(monkeypatch, STALLING)
    got = mpc._penalty_loop(prob, np.full(50, 4.0), TOL, incumbent=rival)
    assert got.history == tuple(STALLING) and len(starts) == mpc.MAX_OUTER_ITERATIONS
    assert got.violation == 0.17 and np.all(got.u == 6.0)


def test_every_round_runs_while_each_shrinks_by_sqrt_multiplier(monkeypatch):
    shrinking = [1.0, 0.44, 0.19, 0.083, 0.036, 0.0155]  # each below the previous / sqrt(5)
    prob, starts = scripted_loop(monkeypatch, shrinking)
    got = mpc._penalty_loop(prob, np.full(50, 4.0), TOL, incumbent=incumbent(0.0))
    assert got.history == tuple(shrinking) and len(starts) == mpc.MAX_OUTER_ITERATIONS


def test_stopped_start_returns_its_best_iterate(monkeypatch):
    prob, starts = scripted_loop(monkeypatch, [1.0, 0.3, 0.35, 0.1, 0.1, 0.1])
    got = mpc._penalty_loop(prob, np.full(50, 4.0), TOL, incumbent=incumbent(0.0))
    assert got.history == (1.0, 0.3, 0.35)
    # the best of the three rounds, not the last; each round starts where the last ended
    assert got.violation == 0.3 and np.all(got.u == 2.0)
    assert got.tracking == OcpProblem.residual_stack(prob, np.full(50, 2.0))[1]
    assert [float(u[0]) for u in starts] == [4.0, 1.0, 2.0]


def test_second_start_gets_the_warm_candidate_as_incumbent(monkeypatch):
    path, bounds = make_env()
    calls = []
    original = mpc._penalty_loop

    def spy(problem, u0, tol, incumbent=None):
        calls.append(incumbent)
        result = original(problem, u0, tol, incumbent=incumbent)
        calls.append(result)
        return result

    monkeypatch.setattr(mpc, "_penalty_loop", spy)
    # stopping at the line for a parked vehicle: the second start runs
    parked = PredictedTrajectory(np.full(51, -2.0), np.zeros(51), np.full(51, math.pi),
                                 np.zeros(51), 5.0, 2.0)
    solve_ocp(AgentState(0.0, 10.0, 40.0), (parked,), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert len(calls) == 4 and calls[0] is None
    assert calls[2] is calls[1]  # the warm start's candidate


# -- the braking start (ROADMAP item 1) ----------------------------------------------


@pytest.mark.parametrize(
    "warm, brake, outcome",
    [
        (0.5, None, "not_run"),
        (mpc.BRAKE_START_VIOLATION, None, "not_run"),  # the gate is strict
        (3.0, 0.005, "won"),
        (3.0, 2.5, "won"),  # infeasible, but lower
        (3.0, 5.0, "lost"),
    ],
)
def test_brake_start_runs_above_the_gate_and_keeps_the_better_candidate(monkeypatch, warm, brake, outcome):
    """A chosen candidate above BRAKE_START_VIOLATION gets one more penalty
    loop from u = a_x_min, which replaces it where it ranks first. The
    scripted warm start stands in for the closed form, which this cruising
    state would otherwise take."""
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, 30.0)  # cruising clear: no second start
    without_closed_form(monkeypatch)
    starts = []

    def scripted(problem, u0, tol, incumbent=None):
        starts.append(float(u0[0]))
        violation = warm if len(starts) == 1 else brake
        return mpc._Candidate(np.asarray(u0, dtype=float), violation, 1.0, problem.states(u0), (violation,))

    monkeypatch.setattr(mpc, "_penalty_loop", scripted)
    u, _, report = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert (report.second_start, report.brake_start) == ("not_run", outcome)
    assert starts == ([0.0] if brake is None else [0.0, PARAMS.a_x_min])
    kept = brake if outcome == "won" else warm
    assert report.max_violation == kept and u[0] == (PARAMS.a_x_min if outcome == "won" else 0.0)


# -- the closed form ---------------------------------------------------------------


def tracking_least_squares(model, params, state, horizon):
    """The tracking cost's minimiser over all of R^N, as a weighted linear
    least-squares problem built from dynamics.step alone: the speeds are the
    free response plus one unit-input response per step."""
    free = step_states(model, state, np.zeros(horizon))[:, 1]
    zero = AgentState(0.0, 0.0, 0.0)
    g_v = np.column_stack([step_states(model, zero, e)[:, 1] for e in np.eye(horizon)])
    w = np.sqrt(np.r_[np.full(horizon, params.q), params.q_n])
    a = np.vstack([w[:, None] * g_v, math.sqrt(params.r) * np.eye(horizon)])
    b = np.r_[w * (params.v_ref - free), np.zeros(horizon)]
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_closed_form_is_the_least_squares_minimiser_and_converged(monkeypatch):
    """Where a solve takes the closed form, its u is the tracking cost's
    minimiser, to 1e-9 against an independent least-squares solve; it is
    converged with violation 0.0 against the true limits, and the penalty
    loop, run from the same warm start without the closed form, ends near it
    at no lower tracking cost. Random cruising states, some
    behind a lane leader, on a straight and a right turn; some solves refuse."""
    rng = np.random.default_rng(40)
    envs = [make_env(RouteSpec("N", "S"), approach=300.0), make_env(RouteSpec("W", "S"))]
    taken = refused = 0
    for trial in range(24):
        path, bounds = envs[trial % 2]
        state = AgentState(rng.uniform(-0.5, 0.5), rng.uniform(6.0, 14.5), rng.uniform(0.0, 40.0))
        tracks = ()
        if trial % 3 == 2:
            tracks = (leader_broadcast(path, state.s + rng.uniform(15.0, 60.0), rng.uniform(8.0, 14.0), 0.0),)
        warm = np.clip(rng.normal(0.0, 0.3, 50), -7.0, 4.0)
        u, _, report = solve_ocp(state, tracks, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50, warm)
        if not report.closed_form:
            refused += 1
            continue
        taken += 1
        np.testing.assert_allclose(u, tracking_least_squares(MODEL, PARAMS, state, 50), rtol=0.0, atol=1e-9)
        assert report.converged and report.max_violation == 0.0 and report.violation_history == (0.0,)
        assert (report.evaluations, report.gradients) == (0, 0)
        prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)
        assert np.max(prob.residual_stack(u)[0]) == 0.0
        with monkeypatch.context() as patch:
            without_closed_form(patch)
            loop_u = solve_ocp(state, tracks, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50, warm)[0]
        # no worse in tracking cost, and near: 1.04e-4 m/s^2 was the widest seen
        tracking = prob.residual_stack(u)[1]
        assert prob.residual_stack(loop_u)[1] >= tracking * (1.0 - 1e-12)
        assert np.max(np.abs(loop_u - u)) <= 1e-3
    assert taken >= 10 and refused >= 1


def closed_form_problem(route=RouteSpec("N", "S"), state=AgentState(0.0, 12.0, 20.0), tracks=()):
    """A problem on a 300 m approach, whose horizon ends far before the stop line."""
    path, bounds = make_env(route, approach=300.0)
    return OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, state, tracks, 50)


def test_closed_form_refuses_a_box_track():
    """A box surrogate is never 0: a problem with a box track has no gain and
    never tries the closed form; the same state alone takes it."""
    assert mpc._closed_form(closed_form_problem()) is not None
    prob = closed_form_problem(tracks=(crossing_neighbor(offset=-60.0),))
    assert prob.gain is None and mpc._closed_form(prob) is None
    path, bounds = make_env(approach=300.0)
    report = solve_ocp(AgentState(0.0, 12.0, 20.0), prob.tracks, MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)[2]
    assert not report.closed_form and report.evaluations > 0


def test_closed_form_refuses_a_minimiser_outside_the_box():
    """With a light input weight, the tracking minimiser from a standstill
    asks for more than a_x_max."""
    path, bounds = make_env(approach=300.0)
    params = replace(PARAMS, r=0.1)
    prob = OcpProblem(MODEL, params, path, bounds, MARGINS, AgentState(0.0, 0.0, 0.0), (), 50)
    assert float(np.max(prob.gain @ (prob.base[:, 1] - params.v_ref))) > params.a_x_max
    assert mpc._closed_form(prob) is None


@pytest.mark.parametrize("family", ["ay", "atot", "gap"])
def test_closed_form_refuses_an_active_family(family):
    """Cruising into a right turn at 12 m/s breaks the lateral limit (12²/8
    m/s² against 3.5); on a straight, a drivetrain still braking at -10 m/s²
    breaks the total-acceleration limit alone; a slow lane leader 12 m ahead
    breaks the gap. In each, the minimiser is inside the box and the speeds
    keep their limits."""
    turn = RouteSpec("W", "S")
    path, _ = make_env(turn, approach=300.0)
    arc_start, arc_end = path.cumulative[1], path.cumulative[2]
    route, state, tracks = {
        "ay": (turn, AgentState(0.0, 12.0, arc_start - 30.0), ()),
        "atot": (RouteSpec("N", "S"), AgentState(-10.0, 12.0, 20.0), ()),
        "gap": (turn, AgentState(0.0, 12.0, arc_end + 5.0), (leader_broadcast(path, arc_end + 17.0, 4.0, 0.0),)),
    }[family]
    prob = closed_form_problem(route, state, tracks)
    u = prob.gain @ (prob.base[:, 1] - PARAMS.v_ref)
    assert PARAMS.a_x_min <= u.min() and u.max() <= PARAMS.a_x_max
    rows = prob._forward(u, 1.0 - OcpProblem.ENFORCE_BACKOFF)[1]
    active = {name.split()[0] for name, row in zip(prob.row_names, rows) if np.any(row)}
    assert family in active and not {"v_lo", "v_hi"} & active
    if family == "atot":
        assert "ay" not in active
    assert mpc._closed_form(prob) is None


def test_closed_form_refuses_a_violated_stop_line():
    """The same cruising minimiser is taken without a stop line, and with one
    it meets, but not with one it crosses."""
    prob = closed_form_problem()
    taken = mpc._closed_form(prob)
    assert taken is not None
    c = prob.g_mat[50, 2]
    prob.stop_line = (c, float(c @ taken.u) + 1e-9)
    assert mpc._closed_form(prob) is not None
    prob.stop_line = (c, float(c @ taken.u) - 1e-9)
    assert mpc._closed_form(prob) is None


def test_closed_form_gain_is_shared_read_only_and_within_budget():
    """Problems on an equal model and weights share one read-only gain, like
    the sensitivities; other weights or another model get another. At
    MAX_HORIZON it is (1000, 1001) floats, 8 MB, within the 32 MB per-array
    budget."""
    path, bounds = make_env()
    state = AgentState(0.0, 14.0, 10.0)

    def problem(t_ax=0.3, params=PARAMS, horizon=50):
        return OcpProblem(discretize(t_ax, 0.1), params, path, bounds, MARGINS, state, (), horizon)

    first, second = problem(), problem()
    assert first.gain is second.gain and first.gain.shape == (50, 51)
    assert problem(0.5).gain is not first.gain
    assert problem(params=replace(PARAMS, r=2.0)).gain is not first.gain
    assert problem(horizon=40).gain.shape == (40, 41)
    assert mpc._tracking_gain.cache_info().maxsize is not None
    with pytest.raises(ValueError):
        first.gain[0, 0] = 0.0
    big = mpc._tracking_gain(MODEL.a_d.tobytes(), MODEL.b_d.tobytes(), mpc.MAX_HORIZON, PARAMS.q, PARAMS.q_n, PARAMS.r)
    assert big.shape == (mpc.MAX_HORIZON, mpc.MAX_HORIZON + 1) and big.nbytes <= 32 << 20
    assert np.isfinite(big).all()


# -- reach of the second start ------------------------------------------------------


def reach_optimum(model, params, state, tol, horizon):
    """The LP oracle: max s_N over inputs in [a_x_min, a_x_max] whose speeds
    v_1..v_N stay within v_max + tol; None when no input keeps them there."""
    from scipy.optimize import linprog

    f_mat, g_mat, _ = mpc._sensitivities(model.a_d.tobytes(), model.b_d.tobytes(), horizon)
    base = f_mat @ state.as_array()
    res = linprog(
        -g_mat[horizon, 2],
        A_ub=g_mat[1:, 1],
        b_ub=params.v_max + tol - base[1:, 1],
        bounds=(params.a_x_min, params.a_x_max),
        method="highs",
    )
    if res.status == 2:  # infeasible: the start is too fast to brake under the cap
        return None
    assert res.status == 0, res.message
    return float(base[horizon, 2] - res.fun)


@st.composite
def reach_cases(draw):
    def floats(lo, hi):
        return draw(st.floats(lo, hi))

    t_ax, t_s = floats(0.05, 2.0), floats(0.02, 0.5)
    params = replace(
        PARAMS, t_ax=t_ax, a_x_min=floats(-12.0, -0.5), a_x_max=floats(0.5, 8.0), v_max=floats(1.0, 40.0)
    )
    state = AgentState(
        floats(1.5 * params.a_x_min, 1.5 * params.a_x_max),
        floats(0.0, 1.1 * params.v_max),
        floats(-50.0, 200.0),
    )
    return discretize(t_ax, t_s), params, state, floats(1e-4, 0.5), draw(st.integers(1, 60))


@settings(max_examples=200, deadline=None)
@given(reach_cases())
def test_reach_bound_is_never_below_the_lp_optimum(case):
    model, params, state, tol, horizon = case
    best = reach_optimum(model, params, state, tol, horizon)
    assume(best is not None)
    bound = mpc._reach_bound(model, params, state, tol, horizon)
    assert bound >= best - 1e-7 * (1.0 + abs(best))


def test_reach_bound_is_tight_at_the_speed_cap():
    """Cruising at the cap, u = 0 holds v_j = v_max + tol and reaches
    s_0 + N·t_s·(v_max + tol), so the bound exceeds the optimum by at most its
    acceleration terms (0.16 m on this model)."""
    tol = CFG.constraint_tolerance
    state = AgentState(0.0, PARAMS.v_max + tol, 11.2)
    bound = mpc._reach_bound(MODEL, PARAMS, state, tol, 50)
    best = reach_optimum(MODEL, PARAMS, state, tol, 50)
    cruise = state.s + 50 * MODEL.t_s * (PARAMS.v_max + tol)
    assert best == pytest.approx(cruise, abs=1e-9)
    assert best <= bound <= best + 0.17


def test_no_second_start_where_the_crossing_side_is_out_of_reach(monkeypatch):
    """A use_case_1-like approach, 79 m short of the critical-region exit at
    14 m/s: the warm solve ends at the stop line, and no input that keeps
    v <= v_max carries the horizon end past the exit, so the full-throttle
    start could only polish another stop-before-the-line solution."""
    path, bounds = make_env()
    starts = []
    original = mpc._penalty_loop

    def spy(problem, u0, tol, incumbent=None):
        starts.append(u0)
        return original(problem, u0, tol, incumbent=incumbent)

    monkeypatch.setattr(mpc, "_penalty_loop", spy)
    state = AgentState(0.0, 13.99, 11.2)
    u, _, report = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    s_end = step_states(MODEL, state, u)[-1, 2]
    # the warm solution sits where the second start used to run
    assert bounds.s_stop - 2.0 <= s_end < bounds.s_cr_out
    assert len(starts) == 1
    assert report.second_start == "unreachable" and report.converged


def spy_halfspaces(monkeypatch):
    """The halfspace argument of every box_solve call, in order."""
    seen = []
    original = mpc.box_solve

    def spy(objective, lower, upper, u0, tolerance, max_iterations, halfspace=None):
        seen.append(halfspace)
        return original(objective, lower, upper, u0, tolerance, max_iterations, halfspace)

    monkeypatch.setattr(mpc, "box_solve", spy)
    return seen


def test_out_of_reach_approach_holds_the_stop_line_in_one_round(monkeypatch):
    """The approach above meets the hinge on the stop side alone: its
    crossing side is out of reach, and braking throughout ends before the
    stop line, so s_N <= s_stop is a linear constraint that box_solve
    projects onto, and one weight round solves it."""
    path, bounds = make_env()
    halfspaces = spy_halfspaces(monkeypatch)
    state = AgentState(0.0, 13.99, 11.2)
    u, _, report = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert len(halfspaces) == 1 and halfspaces[0] is not None
    assert len(report.violation_history) == 1 and report.converged and report.second_start == "unreachable"
    assert step_states(MODEL, state, u)[-1, 2] <= bounds.s_stop + 1e-9


def test_out_of_reach_vehicle_past_the_stop_line_keeps_the_hinge(monkeypatch):
    """Past the stop line no input ends the horizon before it, so the hinge
    stays a penalty, though the exit is out of reach over this short horizon."""
    path, bounds = make_env()
    halfspaces = spy_halfspaces(monkeypatch)
    state = AgentState(0.0, 2.0, 78.0)
    assert mpc._reach_bound(MODEL, PARAMS, state, TOL, 5) < bounds.s_cr_out - 0.01
    _, _, report = solve_ocp(state, (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 5)
    assert halfspaces and all(h is None for h in halfspaces)
    assert report.second_start == "unreachable"


def test_stop_line_replaces_the_hinge_in_the_objective_only():
    path, bounds = make_env()
    prob = OcpProblem(MODEL, PARAMS, path, bounds, MARGINS, AgentState(0.0, 13.99, 11.2), (), 50)
    u = np.zeros(50)  # cruising ends the horizon between the stop line and the exit
    hinge_value, hinge_gradient = prob.value_and_grad(u, 10.0)
    stack = prob.residual_stack(u)[0]
    s_n = prob.states(u)[-1, 2]
    prob.stop_line = (prob.g_mat[50, 2], bounds.s_stop - prob.base[50, 2])
    value, gradient = prob.value_and_grad(u, 10.0)
    r_prev = (bounds.s_cr_out - s_n) * (s_n - bounds.s_stop)
    assert stack[-1] == pytest.approx(r_prev) and r_prev > 1.0
    assert hinge_value - value == pytest.approx(10.0 * r_prev**2, rel=1e-9)
    d_prev = (bounds.s_cr_out - s_n) - (s_n - bounds.s_stop)
    np.testing.assert_allclose(hinge_gradient() - gradient(), 20.0 * r_prev * d_prev * prob.g_mat[50, 2],
                               rtol=1e-9, atol=1e-9)
    assert same_bits(prob.residual_stack(u)[0], stack)


def test_second_start_outcome_is_reported():
    path, bounds = make_env()
    # cruising from 30 m, the crossing side is in reach and the warm solve clears it
    _, _, cruise = solve_ocp(AgentState(0.0, 14.0, 30.0), (), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert cruise.second_start == "not_run"
    parked = PredictedTrajectory(np.full(51, -2.0), np.zeros(51), np.full(51, math.pi),
                                 np.zeros(51), 5.0, 2.0)
    state = AgentState(0.0, 10.0, 40.0)
    _, _, blocked = solve_ocp(state, (parked,), MODEL, PARAMS, path, bounds, CFG, MARGINS, 50)
    assert blocked.second_start in ("won", "lost_feasible", "lost_infeasible")


# -- evaluation budget ---------------------------------------------------------------


def test_use_case_1_window_stays_within_its_evaluation_budget(monkeypatch):
    """The 10-step use_case_1 prefix made 23,905 value_and_grad calls while
    every full-throttle start ran all six rounds; 2,753 since stalled starts
    stop behind a feasible warm solve. The run is deterministic."""
    from intersim.orchestrator import run_simulation
    from intersim.scenario import load_scenario

    calls = 0
    original = OcpProblem.value_and_grad

    def counted(self, u, weight):
        nonlocal calls
        calls += 1
        return original(self, u, weight)

    monkeypatch.setattr(OcpProblem, "value_and_grad", counted)
    run_simulation(replace(load_scenario("use_case_1"), steps=10), workers=1)
    assert calls <= 2753


def test_use_case_1_window_evaluation_counts(monkeypatch):
    """The same 10-step window evaluates 224 points and builds 149 gradients,
    counted both around OcpProblem.value_and_grad and in the solver reports
    (the closed-form check is neither; 19 of the 40 solves take it).
    It evaluated 2,555 points and built 1,546 gradients while the
    full-throttle second start ran 26 times here: of the 2,753 evaluations
    above, 198 had repeated a point already evaluated, and 1,009 had built a
    gradient that nothing read. Running a second start only where the
    crossing side is reachable under v_max cut that to 767 and 486. Holding
    the stop line as a constraint where the crossing side is out of reach,
    instead of escalating the hinge's weight, cut it to 243 and 168. Taking
    the tracking minimiser where no constraint binds it, instead of running
    the penalty loop toward it, cut it to 224 and 149. The run is
    deterministic."""
    from intersim import orchestrator
    from intersim.scenario import load_scenario

    calls = {"evaluations": 0, "gradients": 0}
    reported = {"evaluations": 0, "gradients": 0}
    original = OcpProblem.value_and_grad
    original_solve = orchestrator.solve_ocp

    def counted(self, u, weight):
        calls["evaluations"] += 1
        value, gradient = original(self, u, weight)
        built = []

        def counted_gradient():
            if not built:
                built.append(True)
                calls["gradients"] += 1
            return gradient()

        return value, counted_gradient

    def solve(*args, **kwargs):
        result = original_solve(*args, **kwargs)
        reported["evaluations"] += result[2].evaluations
        reported["gradients"] += result[2].gradients
        return result

    monkeypatch.setattr(OcpProblem, "value_and_grad", counted)
    monkeypatch.setattr(orchestrator, "solve_ocp", solve)
    orchestrator.run_simulation(replace(load_scenario("use_case_1"), steps=10), workers=1)
    assert calls == reported == {"evaluations": 224, "gradients": 149}


# `benchmarks/workloads.scenario_sources("queue", 1)[0]`, the first scenario of
# the benchmark's queue workload at seed 1: two vehicles per arm, all turning
# right, 6 steps
QUEUE_SEED_1_FIRST = {
    "sampling_time_s": 0.1, "horizon": 50, "steps": 6, "topology": "complete",
    "agents": [
        {"id": 1, "route": {"entry": "N", "exit": "W"}, "initial_position_m": [-2.0, 60.0],
         "initial_speed_mps": 7.417561494979827},
        {"id": 2, "route": {"entry": "S", "exit": "E"}, "initial_position_m": [2.0, -60.0],
         "initial_speed_mps": 7.195657929572734},
        {"id": 3, "route": {"entry": "W", "exit": "S"}, "initial_position_m": [-60.0, -2.0],
         "initial_speed_mps": 7.5460115872820674},
        {"id": 4, "route": {"entry": "E", "exit": "N"}, "initial_position_m": [60.0, 2.0],
         "initial_speed_mps": 8.326034018284387},
        {"id": 5, "route": {"entry": "N", "exit": "W"}, "initial_position_m": [-2.0, 76.51577080378763],
         "initial_speed_mps": 8.101212786338362},
        {"id": 6, "route": {"entry": "S", "exit": "E"}, "initial_position_m": [2.0, -79.58960293506763],
         "initial_speed_mps": 8.32181743332557},
        {"id": 7, "route": {"entry": "W", "exit": "S"}, "initial_position_m": [-79.1762481443679, -2.0],
         "initial_speed_mps": 7.9050210308862665},
        {"id": 8, "route": {"entry": "E", "exit": "N"}, "initial_position_m": [77.77955838347356, 2.0],
         "initial_speed_mps": 8.844102781506775},
    ],
}


def test_queue_window_evaluation_counts(monkeypatch):
    """The first queue scenario of the benchmark at seed 1 makes 48 solves,
    337 evaluations and 189 gradient builds over its 6 steps, every solve
    converged, 26 of them in closed form. The run is deterministic. Every
    track here is a lane leader: while its broadcast was held as the x-y box
    surrogate, which stays positive for boxes well apart, the window made 670
    evaluations and 397 gradient builds, with 2 solves unconverged; holding
    it as the exact 1-D gap made 529 and 324, and taking the tracking
    minimiser where no constraint binds it gave these counts. Like the use_case_1
    window's counts, these hold for the arithmetic kernels that numpy and
    OpenBLAS pick on an AVX-512 x86-64 CPU; other kernels round differently
    (ROADMAP item 16).

    Every solve's verdict agrees with its violation history, which the CLI
    summary and the benchmark count as unconverged when min(history) > tol:
    converged exactly when the history reaches tol, and an unconverged
    solve reports its history's least violation."""
    from intersim import orchestrator
    from intersim.scenario import load_scenario

    cfg = load_scenario(QUEUE_SEED_1_FIRST)
    tol = cfg.penalty.constraint_tolerance
    counts = {"solves": 0, "evaluations": 0, "gradients": 0, "unconverged": 0, "closed_form": 0}
    original = orchestrator.solve_ocp

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        report = result[2]
        counts["solves"] += 1
        counts["evaluations"] += report.evaluations
        counts["gradients"] += report.gradients
        counts["closed_form"] += report.closed_form
        least = min(report.violation_history)
        assert report.converged == (least <= tol)
        if not report.converged:
            counts["unconverged"] += 1
            assert report.max_violation == least
        return result

    monkeypatch.setattr(orchestrator, "solve_ocp", counted)
    orchestrator.run_simulation(cfg, workers=1)
    assert counts == {"solves": 48, "evaluations": 337, "gradients": 189, "unconverged": 0, "closed_form": 26}


def test_use_case_1_window_second_start_tally(monkeypatch):
    """The 10-step window's 40 solves: in 39 of them the crossing side lies
    beyond what v_max allows, and one warm solution ends between the stop
    line and the critical-region exit with the crossing side in reach. The
    run is deterministic."""
    from collections import Counter

    from intersim import orchestrator
    from intersim.scenario import load_scenario

    tally = Counter()
    original = orchestrator.solve_ocp

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        tally[result[2].second_start] += 1
        return result

    monkeypatch.setattr(orchestrator, "solve_ocp", counted)
    orchestrator.run_simulation(replace(load_scenario("use_case_1"), steps=10), workers=1)
    assert tally == {"unreachable": 39, "lost_infeasible": 1}


# -- the full-throttle basin (ROADMAP item 1) ------------------------------------------


def full_throttle_case(warm=None, lane_leader=False, name="full_throttle_fixture.json"):
    """solve_ocp on the inputs in full_throttle_fixture.json (see
    full_throttle_fixture.py): a follower on a W->S right turn with one
    neighbour broadcast, from the captured warm start or from `warm`. The
    committed fixture records no broadcast `s` or `path`, so the broadcast
    is held by its poses alone; with `lane_leader` it carries its poses'
    projections onto the follower's own path, and that path. `name` reads
    another fixture of the same format."""
    fixture = json.loads((Path(__file__).parent / name).read_text(encoding="utf-8"))
    from intersim.scenario import load_scenario

    assert PARAMS == load_scenario("use_case_1").agents[0].params  # the scenario defaults
    path, bounds = make_env(RouteSpec(**fixture["route"]))
    neighbours = []
    for nb in fixture["neighbours"]:
        poses = [np.array(nb[key]) for key in ("x_g", "y_g", "psi", "v")]
        lane = {}
        if lane_leader:
            projected = [project_onto_path(path, x, y) for x, y in zip(nb["x_g"], nb["y_g"])]
            assert all(offset == 0.0 for _, offset in projected)  # it drives the follower's path
            lane = {"s": np.array([s for s, _ in projected]), "path": path}
        neighbours.append(PredictedTrajectory(*poses, nb["length"], nb["width"], **lane))
    neighbours = tuple(neighbours)
    start = np.array(fixture["warm"]) if warm is None else warm
    return solve_ocp(AgentState(*fixture["state"]), neighbours, discretize(PARAMS.t_ax, fixture["t_s"]),
                     PARAMS, path, bounds, CFG, MARGINS, fixture["horizon"], start)


def test_full_throttle_basin_warm_start_brakes_and_converges():
    """From the captured warm start the penalty loop stays at full throttle,
    far above violation 1, so the braking start runs, and it converges."""
    u, _, report = full_throttle_case()
    assert u[0] < PARAMS.a_x_max
    assert report.max_violation <= CFG.constraint_tolerance


def test_full_throttle_basin_lane_leader_needs_the_braking_start():
    """The same broadcast held as a lane leader, by the exact 1-D gap: the
    warm solve still ends above violation 1, so the gap alone does not leave
    the basin; the braking start runs, wins and converges."""
    u, _, report = full_throttle_case(lane_leader=True)
    assert report.brake_start == "won"
    assert report.converged and report.max_violation <= CFG.constraint_tolerance
    assert u[0] < 0.0


def test_full_throttle_basin_brake_start_converges():
    """The same inputs, solved from braking throughout, leave the basin."""
    u, _, report = full_throttle_case(np.full(50, PARAMS.a_x_min))
    assert report.converged and report.max_violation <= CFG.constraint_tolerance
    assert u[0] < PARAMS.a_x_max


# -- the trackless basin (ROADMAP items 1 and 10) -------------------------------------

TRACKLESS = "trackless_basin_fixture.json"


def test_trackless_basin_needs_the_braking_start():
    """trackless_basin_fixture.json: a vehicle alone on a W->S right turn,
    8.1 m/s, 37 m before the arc. The tracking minimiser breaks the lateral
    and total-acceleration limits, so the closed form refuses; the warm
    start's penalty loop ends
    above BRAKE_START_VIOLATION (1.0105, `ay`, after six rounds), so the
    braking start runs, wins and converges."""
    u, _, report = full_throttle_case(name=TRACKLESS)
    assert not report.closed_form and report.brake_start == "won"
    assert report.converged and report.max_violation <= CFG.constraint_tolerance


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 10: the warm penalty loop oscillates on a trackless turn")
def test_trackless_basin_warm_start_converges():
    """The target: from the captured warm start the penalty loop alone
    converges on a problem with no track. Today its rounds end at 2.47,
    1.66, 2.88, 1.78, 1.01 and 1.38, all on the lateral limit."""
    fixture = json.loads((Path(__file__).parent / TRACKLESS).read_text(encoding="utf-8"))
    assert fixture["neighbours"] == []
    path, bounds = make_env(RouteSpec(**fixture["route"]))
    prob = OcpProblem(discretize(PARAMS.t_ax, fixture["t_s"]), PARAMS, path, bounds, MARGINS,
                      AgentState(*fixture["state"]), (), fixture["horizon"])
    assert mpc._penalty_loop(prob, np.array(fixture["warm"]), TOL).violation <= TOL


def test_report_names_the_family_of_the_largest_violation():
    """SolverReport names the family and horizon step of the chosen plan's
    largest true-limit violation, the argmax of its residual_stack, or None
    where the violation is 0.0: the trackless fixture's braking start ends at
    0.0, and the full-throttle fixture's plan, with a box track, ends on the
    preview hinge at step N."""
    report = full_throttle_case(name=TRACKLESS)[2]
    assert report.max_violation == 0.0 and (report.worst_family, report.worst_step) == (None, None)
    u, _, report = full_throttle_case()
    fixture = json.loads((Path(__file__).parent / "full_throttle_fixture.json").read_text(encoding="utf-8"))
    path, bounds = make_env(RouteSpec(**fixture["route"]))
    tracks = tuple(PredictedTrajectory(*(np.array(nb[k]) for k in ("x_g", "y_g", "psi", "v")), nb["length"],
                                       nb["width"]) for nb in fixture["neighbours"])
    prob = OcpProblem(discretize(PARAMS.t_ax, fixture["t_s"]), PARAMS, path, bounds, MARGINS,
                      AgentState(*fixture["state"]), tracks, fixture["horizon"])
    assert prob.row_names == ("v_lo", "v_hi", "ay", "atot", "box 0")
    stack = prob.residual_stack(u)[0]
    assert float(stack.max()) == report.max_violation > 0.0
    assert prob.locate(int(np.argmax(stack))) == (report.worst_family, report.worst_step) == ("hinge", 50)
