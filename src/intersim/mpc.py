"""Per-vehicle optimal control: penalty reformulation and a PANOC-style solver.

The decision variable is the reference-acceleration sequence over the
horizon. Input bounds stay hard via projection; every other constraint
(speed range, lateral and total acceleration, collision avoidance against
broadcast neighbor trajectories, and the spatial-preview requirement) is a
squared penalty with an escalating weight. Because the plant model is
linear, predicted states are affine in the inputs, so objective gradients
reduce to a few precomputed sensitivity matmuls.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dynamics import AgentParams, AgentState, DiscreteModel, rollout
from .geometry import SafetyMargins, smooth_overlap_core
from .paths import PathSpec, RegionBounds


@dataclass(frozen=True)
class PenaltyConfig:
    initial_weight: float = 10.0
    multiplier: float = 5.0
    max_outer_iterations: int = 6
    constraint_tolerance: float = 1e-2
    inner_tolerance: float = 1e-4
    lbfgs_memory: int = 10
    max_inner_iterations: int = 500

    def __post_init__(self):
        if self.multiplier <= 1:
            raise ValueError("penalty multiplier must be > 1")
        if self.constraint_tolerance <= 0 or self.inner_tolerance <= 0:
            raise ValueError("tolerances must be > 0")
        if self.initial_weight <= 0:
            raise ValueError("initial weight must be > 0")


@dataclass
class NeighborForecast:
    """A conflicting agent's broadcast trajectory from the previous step."""

    agent_id: int
    x_g: np.ndarray
    y_g: np.ndarray
    psi: np.ndarray
    v: np.ndarray
    length: float
    width: float

    def __post_init__(self):
        n = len(self.x_g)
        for arr in (self.y_g, self.psi, self.v):
            if len(arr) != n:
                raise ValueError("neighbor forecast arrays must share one length")
        for arr in (self.x_g, self.y_g, self.psi, self.v):
            if not np.all(np.isfinite(arr)):
                raise ValueError("neighbor forecast contains non-finite values")


@dataclass
class OcpParameter:
    """Everything measured or received that parameterizes one solve."""

    own_state: AgentState
    neighbors: tuple[NeighborForecast, ...] = ()

    def validate(self, horizon: int) -> None:
        for nb in self.neighbors:
            if len(nb.x_g) != horizon + 1:
                raise ValueError(
                    f"neighbor {nb.agent_id} forecast length {len(nb.x_g)} != horizon+1 {horizon + 1}"
                )


@dataclass
class ControlSequence:
    u: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        if np.any(self.u < self.lower - 1e-12) or np.any(self.u > self.upper + 1e-12):
            raise ValueError("control sequence leaves its box")


@dataclass
class PredictedTrajectory:
    states: list[AgentState]
    x_g: np.ndarray
    y_g: np.ndarray
    psi: np.ndarray
    v: np.ndarray
    a_y: np.ndarray  # per step 1..N, exact curvature
    a_tot: np.ndarray


@dataclass
class SolverReport:
    outer_iterations: int
    inner_iterations: int
    max_violation: float
    objective: float  # tracking cost of the returned sequence
    penalized_objective: float
    wall_ms: float
    converged: bool
    violation_history: tuple[float, ...]


def preview_residual(s_n: float, s_cr_out: float, s_stop: float) -> float:
    """Hinge product: zero iff the horizon clears the critical region or
    ends before the stopping line."""
    if s_stop >= s_cr_out:
        raise ValueError("stop line must precede the critical-region exit")
    return max(0.0, s_cr_out - s_n) * max(0.0, s_n - s_stop)


def _shift_forecast(nb: NeighborForecast, horizon: int) -> NeighborForecast:
    """Align a previous-step broadcast with the current horizon.

    Prediction step j here corresponds to the neighbor's step j+1 of its
    own (one step older) horizon; the terminal entry is held.
    """
    idx = np.minimum(np.arange(horizon + 1) + 1, len(nb.x_g) - 1)
    return NeighborForecast(
        nb.agent_id, nb.x_g[idx], nb.y_g[idx], nb.psi[idx], nb.v[idx], nb.length, nb.width
    )


@lru_cache(maxsize=64)
def _sensitivities(a_d: bytes, b_d: bytes, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Free-response powers f_mat (N+1, 3, 3), input sensitivities g_mat
    (N+1, 3, N) and g_mat flattened to (3(N+1), N), for the model with these
    a_d/b_d bytes. Read-only: every problem on an equal model shares them."""
    a_d = np.frombuffer(a_d).reshape(3, 3).copy()
    b_d = np.frombuffer(b_d).copy()
    powers = [np.eye(3)]
    for _ in range(horizon):
        powers.append(a_d @ powers[-1])
    f_mat = np.stack(powers)
    g_mat = np.zeros((horizon + 1, 3, horizon))
    for j in range(1, horizon + 1):
        g_mat[j] = a_d @ g_mat[j - 1]
        g_mat[j][:, j - 1] = b_d
    for arr in (f_mat, g_mat):
        arr.setflags(write=False)
    return f_mat, g_mat, g_mat.reshape(-1, horizon)


class OcpProblem:
    """Precomputed sensitivities and penalty evaluation for one agent/step.

    The penalty terms enforce the speed and acceleration bounds with a
    small backoff: a quadratic penalty always leaves a weight-dependent
    residual, and the backoff keeps the closed-loop state inside the true
    bounds without needing extreme weights. Reported residuals
    (residual_stack) are measured against the true bounds.

    The neighbor tracks are stacked into (T, N) arrays, so one evaluation
    handles every track with a single smooth_overlap_core call.
    """

    ENFORCE_BACKOFF = 0.015

    def __init__(
        self,
        model: DiscreteModel,
        params: AgentParams,
        path: PathSpec,
        regions: RegionBounds,
        margins: SafetyMargins,
        z: OcpParameter,
        horizon: int,
    ):
        z.validate(horizon)
        self.model = model
        self.params = params
        self.path = path
        self.regions = regions
        self.margins = margins
        self.horizon = horizon
        self.x0 = z.own_state
        self._table = path.table

        self.f_mat, self.g_mat, self._g_flat = _sensitivities(
            model.a_d.tobytes(), model.b_d.tobytes(), horizon
        )
        with np.errstate(over="ignore", invalid="ignore"):
            self.base = self.f_mat @ self.x0.as_array()
        if not np.all(np.isfinite(self.base)):
            raise ValueError(f"state {self.x0} overflows the {horizon}-step prediction")
        self.tracks = tuple(_shift_forecast(nb, horizon) for nb in z.neighbors)

        def stack(field):
            return np.array([getattr(t, field)[1:] for t in self.tracks]).reshape(-1, horizon)

        # (T, N) neighbor poses at prediction steps 1..N, and (T, 1) half extents
        self._ox, self._oy, self._opsi, self._ov = (stack(f) for f in ("x_g", "y_g", "psi", "v"))
        self._oa = np.array([[t.length / 2.0] for t in self.tracks])
        self._ob = np.array([[t.width / 2.0] for t in self.tracks])

    # -- state prediction -------------------------------------------------

    def states(self, u: np.ndarray) -> np.ndarray:
        return self.base + self.g_mat @ u

    # -- collision-avoidance terms ----------------------------------------

    def _ca_terms(self, x, y, psi, kap, s, v):
        """Surrogate overlap with every track and its derivatives w.r.t. the
        own path coordinate and speed, as (T, N) arrays. The pose is held
        where s is clamped to a path end, so only coordinates strictly inside
        the path move it."""
        p = self.params
        m = self.margins
        inside = ((s > 0.0) & (s < self.path.total_length)).astype(float)
        rel = self._opsi - psi
        closing = v - self._ov * np.cos(rel)
        active = (closing > 0).astype(float)
        ext = m.headway * np.maximum(0.0, closing)
        dext_dv = m.headway * active
        dext_dpsi = m.headway * active * (-self._ov * np.sin(rel))

        cos_p, sin_p = np.cos(psi), np.sin(psi)
        a_r = p.length / 2.0 + m.long + ext / 2.0
        b_r = p.width / 2.0 + m.lat
        crx = x + 0.5 * ext * cos_p
        cry = y + 0.5 * ext * sin_p
        value, dcrx, dcry, dth, dar, _, _ = smooth_overlap_core(
            crx, cry, psi, a_r, b_r, self._ox, self._oy, self._opsi, self._oa, self._ob,
            m.sharpness,
        )
        dpsi_ds = kap * inside
        dext_ds = dext_dpsi * dpsi_ds
        dcrx_ds = cos_p * inside + 0.5 * (dext_ds * cos_p - ext * sin_p * dpsi_ds)
        dcry_ds = sin_p * inside + 0.5 * (dext_ds * sin_p + ext * cos_p * dpsi_ds)
        dv_ds = dcrx * dcrx_ds + dcry * dcry_ds + dth * dpsi_ds + dar * 0.5 * dext_ds
        dv_dv = dcrx * 0.5 * dext_dv * cos_p + dcry * 0.5 * dext_dv * sin_p + dar * 0.5 * dext_dv
        return value, dv_ds, dv_dv

    def _horizon_geometry(self, s):
        """Pose, smoothed curvature and its slope, and exact curvature along
        the horizon, with s clamped to the path."""
        s_cl = np.minimum(np.maximum(0.0, s), self.path.total_length)
        x, y, psi, kap_exact = self._table.pose(s_cl)
        kap, dkap = self._table.smoothed(s_cl, kap_exact)
        return x, y, psi, kap, dkap, kap_exact

    def _limit_residuals(self, aj, vj, ay, shrink):
        """Speed (low, high), lateral and total-acceleration violations
        against the limits scaled by `shrink`."""
        p = self.params
        return (
            np.maximum(0.0, -vj),
            np.maximum(0.0, vj - p.v_max * shrink),
            np.maximum(0.0, np.abs(ay) - p.a_y_max * shrink),
            np.maximum(0.0, aj * aj + ay * ay - (p.a_tot_max * shrink) ** 2),
        )

    # -- penalty objective -------------------------------------------------

    def value_and_grad(self, u: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
        p = self.params
        n = self.horizon
        total = np.add.reduce
        states = self.base + self.g_mat @ u
        a, v, s = states[:, 0], states[:, 1], states[:, 2]
        adj = np.zeros((n + 1, 3))

        dv_ref = v - p.v_ref
        value = p.q * float(total(dv_ref[:n] ** 2)) + p.q_n * float(dv_ref[n] ** 2)
        value += p.r * float(total(u * u))
        adj[:n, 1] += 2.0 * p.q * dv_ref[:n]
        adj[n, 1] += 2.0 * p.q_n * dv_ref[n]
        grad_direct = 2.0 * p.r * u

        aj, vj, sj = a[1:], v[1:], s[1:]
        x, y, psi, kap, dkap, kap_exact = self._horizon_geometry(sj)

        ay = kap * vj * vj
        r_lo, r_hi, r_ay, r_tot = self._limit_residuals(aj, vj, ay, 1.0 - self.ENFORCE_BACKOFF)
        value += weight * float(total(r_lo**2) + total(r_hi**2))
        adj[1:, 1] += weight * (2.0 * r_hi - 2.0 * r_lo)

        sgn = np.sign(ay)
        value += weight * float(total(r_ay**2))
        adj[1:, 1] += weight * 4.0 * r_ay * sgn * kap * vj
        adj[1:, 2] += weight * 2.0 * r_ay * sgn * dkap * vj * vj

        value += weight * float(total(r_tot**2))
        adj[1:, 0] += weight * 4.0 * r_tot * aj
        adj[1:, 1] += weight * 8.0 * r_tot * ay * kap * vj
        adj[1:, 2] += weight * 4.0 * r_tot * ay * dkap * vj * vj

        if self.tracks:
            # heading chain uses exact curvature: the evaluated pose is the
            # exact path map, so only this keeps gradients FD-consistent
            ca, dca_ds, dca_dv = self._ca_terms(x, y, psi, kap_exact, sj, vj)
            scaled = weight * 2.0 * ca
            by_s, by_v = scaled * dca_ds, scaled * dca_dv
            # one track at a time, in order, so the sums round as they always have
            for sq, row_s, row_v in zip(total(ca**2, axis=1).tolist(), by_s, by_v):
                value += weight * sq
                adj[1:, 2] += row_s
                adj[1:, 1] += row_v

        s_n = float(s[n])
        h1 = max(0.0, self.regions.s_cr_out - s_n)
        h2 = max(0.0, s_n - self.regions.s_stop)
        r_prev = h1 * h2
        value += weight * r_prev * r_prev
        d_prev = -float(h1 > 0) * h2 + h1 * float(h2 > 0)
        adj[n, 2] += weight * 2.0 * r_prev * d_prev

        # the (1, 3(N+1)) x (3(N+1), N) product that tensordot(adj, g_mat) performs
        grad = grad_direct + np.dot(adj.reshape(1, -1), self._g_flat).reshape(n)
        return value, grad

    # -- constraint stack ---------------------------------------------------

    def residual_stack(self, u: np.ndarray) -> np.ndarray:
        """Nonnegative constraint violations against the true limits.

        Layout: speed below zero, speed above v_max, lateral and total
        acceleration (N entries each), one block of N per neighbor track,
        then the preview hinge product.
        """
        states = self.states(u)
        a, v, s = states[:, 0], states[:, 1], states[:, 2]
        aj, vj = a[1:], v[1:]
        x, y, psi, kap, _, kap_exact = self._horizon_geometry(s[1:])
        pieces = list(self._limit_residuals(aj, vj, kap * vj * vj, 1.0))
        if self.tracks:
            pieces.append(self._ca_terms(x, y, psi, kap_exact, s[1:], vj)[0].ravel())
        r_prev = preview_residual(float(s[-1]), self.regions.s_cr_out, self.regions.s_stop)
        pieces.append(np.array([r_prev]))
        return np.concatenate(pieces)


def _lbfgs_direction(pairs: deque, r: np.ndarray) -> np.ndarray:
    """Two-loop recursion approximating an inverse-Jacobian product."""
    if not pairs:
        return r.copy()
    q = r.copy()
    alphas = []
    for s_i, y_i, rho_i in reversed(pairs):
        alpha = rho_i * float(s_i @ q)
        q -= alpha * y_i
        alphas.append(alpha)
    s_l, y_l, _ = pairs[-1]
    q *= float(s_l @ y_l) / float(y_l @ y_l)
    for (s_i, y_i, rho_i), alpha in zip(pairs, reversed(alphas)):
        beta = rho_i * float(y_i @ q)
        q += s_i * (alpha - beta)
    return q


def box_solve(
    value_grad,
    lower: float,
    upper: float,
    u0: np.ndarray,
    cfg: PenaltyConfig,
) -> tuple[np.ndarray, int, bool, float]:
    """Find a box-stationary point of a smooth objective.

    Forward-backward (projected-gradient) iterations accelerated by an
    L-BFGS direction on the fixed-point residual, with a line search on the
    forward-backward envelope and a pure projected step as fallback.
    Stops when the projected-gradient displacement falls below the inner
    tolerance. Returns (u, iterations, converged, value).
    """

    def clip(z):
        return np.minimum(np.maximum(lower, z), upper)

    u = clip(np.asarray(u0, dtype=float))
    f, g = value_grad(u)
    gnorm = float(np.linalg.norm(g))
    if gnorm > 0:
        h = 1e-3 * max(1.0, float(np.linalg.norm(u)))
        _, g_probe = value_grad(u - h * g / gnorm)
        lip = float(np.linalg.norm(g_probe - g)) / h
    else:
        lip = 1.0
    lip = max(lip, 1e-6)
    gamma = 0.95 / lip
    pairs: deque = deque(maxlen=cfg.lbfgs_memory)

    converged = False
    iterations = 0
    while iterations < cfg.max_inner_iterations:
        iterations += 1
        t = clip(u - gamma * g)
        r = u - t
        if float(np.max(np.abs(r))) <= cfg.inner_tolerance:
            u = t  # return the projected point so the box holds exactly
            f, g = value_grad(u)
            converged = True
            break
        f_t, g_t = value_grad(t)
        # enlarge the local Lipschitz estimate until the descent model holds
        while (
            f_t > f - float(g @ r) + 0.5 * lip * float(r @ r) + 1e-10 * (1.0 + abs(f))
            and lip < 1e12
        ):
            lip *= 2.0
            gamma = 0.95 / lip
            pairs.clear()
            t = clip(u - gamma * g)
            r = u - t
            f_t, g_t = value_grad(t)
        fbe = f - float(g @ r) + float(r @ r) / (2.0 * gamma)

        d = -_lbfgs_direction(pairs, r)
        if not np.all(np.isfinite(d)):
            d = -r
        step_fb = t - u
        accepted = False
        tau = 1.0
        for _ in range(10):
            u_c = u + tau * d + (1.0 - tau) * step_fb
            f_c, g_c = value_grad(u_c)
            t_c = clip(u_c - gamma * g_c)
            r_c = u_c - t_c
            fbe_c = f_c - float(g_c @ r_c) + float(r_c @ r_c) / (2.0 * gamma)
            if fbe_c <= fbe - 1e-4 * float(r @ r) / gamma:
                accepted = True
                break
            tau *= 0.5
        if accepted:
            u_new, f_new, g_new = u_c, f_c, g_c
        else:
            u_new, f_new, g_new = t, f_t, g_t
        t_new = clip(u_new - gamma * g_new)
        s_i = u_new - u
        y_i = (u_new - t_new) - r
        sy = float(s_i @ y_i)
        if sy > 1e-12 * float(np.linalg.norm(s_i)) * max(float(np.linalg.norm(y_i)), 1e-300):
            pairs.append((s_i, y_i, 1.0 / sy))
        u, f, g = u_new, f_new, g_new

    u = clip(u)
    return u, iterations, converged, float(f)


def initial_broadcast(x0: AgentState, path: PathSpec, horizon: int, t_s: float) -> PredictedTrajectory:
    """Constant-speed, zero-acceleration forecast for the very first step.

    The first sample keeps the measured state; later samples hold the
    measured speed with the drivetrain state dropped.
    """
    s = x0.s + np.arange(horizon + 1) * t_s * x0.v
    states = [x0] + [AgentState(0.0, x0.v, float(si)) for si in s[1:]]
    return _trajectory_from_states(states, path)


def _trajectory_from_states(states: list[AgentState], path: PathSpec) -> PredictedTrajectory:
    s = np.array([st.s for st in states])
    v = np.array([st.v for st in states])
    a = np.array([st.a_x for st in states])
    x, y, psi, kap = path.table.pose(np.clip(s, 0.0, path.total_length))
    a_y = kap[1:] * v[1:] * v[1:]
    a_tot = np.sqrt(a[1:] ** 2 + a_y**2)
    return PredictedTrajectory(states, x, y, psi, v, a_y, a_tot)


@dataclass
class _Candidate:
    u: np.ndarray
    violation: float
    tracking: float
    penalized: float
    outer: int
    inner: int
    history: tuple[float, ...]


def _tracking_objective(problem: OcpProblem, u: np.ndarray) -> float:
    value, _ = problem.value_and_grad(u, 0.0)
    return value


def _penalty_loop(problem: OcpProblem, u0: np.ndarray, cfg: PenaltyConfig) -> _Candidate:
    """Escalate the penalty weight around box_solve from one start point.

    Keeps the iterate with the smallest (violation, tracking) pair seen, so
    a late weight bump cannot degrade the returned trajectory.
    """
    lo, hi = problem.params.a_x_min, problem.params.a_x_max
    weight = cfg.initial_weight
    inner_total = 0
    u = u0
    history: list[float] = []
    best: tuple[float, float, np.ndarray, float] | None = None
    outer = 0
    while True:
        outer += 1
        # the displacement criterion weakens as the weight stiffens the
        # objective, so tighten it with the weight to keep outer progress
        scaled = replace(
            cfg, inner_tolerance=cfg.inner_tolerance * math.sqrt(cfg.initial_weight / weight)
        )
        u, iters, _, f_val = box_solve(
            lambda w_: problem.value_and_grad(w_, weight), lo, hi, u, scaled
        )
        inner_total += iters
        stack = problem.residual_stack(u)
        violation = float(np.max(stack)) if stack.size else 0.0
        history.append(violation)
        tracking = _tracking_objective(problem, u)
        if best is None or (violation, tracking) < (best[0], best[1]):
            best = (violation, tracking, u, f_val)
        if violation <= cfg.constraint_tolerance or outer >= cfg.max_outer_iterations:
            break
        weight *= cfg.multiplier
    violation, tracking, u, f_val = best
    return _Candidate(u, violation, tracking, f_val, outer, inner_total, tuple(history))


def solve_ocp(
    z: OcpParameter,
    model: DiscreteModel,
    params: AgentParams,
    path: PathSpec,
    regions: RegionBounds,
    cfg: PenaltyConfig,
    margins: SafetyMargins,
    horizon: int,
    warm: np.ndarray | None = None,
) -> tuple[ControlSequence, PredictedTrajectory, SolverReport]:
    """Receding-horizon solve for one agent at one sampling instant.

    Besides the warm start, a full-throttle start is tried whenever the
    warm solution does not already clear the critical region: the preview
    hinge product creates a stop-before-the-line basin that a single local
    solve cannot leave once captured, and the second start restores the
    crossing branch as soon as it is reachable. Both candidates run the
    full escalating-weight loop; a feasible candidate beats an infeasible
    one, feasible ties go to the lower tracking cost, infeasible ties to
    the lower violation.
    """
    t_start = time.perf_counter()
    problem = OcpProblem(model, params, path, regions, margins, z, horizon)
    lo, hi = params.a_x_min, params.a_x_max
    u0 = np.zeros(horizon) if warm is None else np.asarray(warm, dtype=float)

    chosen = _penalty_loop(problem, u0, cfg)
    inner_total = chosen.inner
    outer_total = chosen.outer
    s_end = float(problem.states(chosen.u)[-1, 2])
    # the second start matters only when the stop-before-the-line branch is
    # binding: the horizon end sits near or past the stop line yet short of
    # the critical-region exit
    if (
        z.own_state.s < regions.s_cr_out
        and regions.s_stop - 2.0 <= s_end < regions.s_cr_out - 1e-9
    ):
        go = _penalty_loop(problem, np.full(horizon, hi), cfg)
        inner_total += go.inner
        outer_total = max(outer_total, go.outer)
        tol = cfg.constraint_tolerance

        def rank(c: _Candidate):
            return (c.violation > tol, c.tracking if c.violation <= tol else c.violation)

        if rank(go) < rank(chosen):
            chosen = go

    u = chosen.u
    states = rollout(model, z.own_state, u)
    traj = _trajectory_from_states(states, path)
    report = SolverReport(
        outer_iterations=outer_total,
        inner_iterations=inner_total,
        max_violation=chosen.violation,
        objective=chosen.tracking,
        penalized_objective=chosen.penalized,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        converged=chosen.violation <= cfg.constraint_tolerance,
        violation_history=chosen.history,
    )
    return ControlSequence(u, lo, hi), traj, report
