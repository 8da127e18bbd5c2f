"""Independent reference for `mpc._exact` on a straight stretch.

The tracking QP is rebuilt from `dynamics.step` alone: the states are the
free response plus one unit-input response per step, the cost is the
weighted least-squares form of q·Σdv² + q_n·dv_N² + r·Σu², and the rows are
the straight-stretch limits at the backed-off bounds the objective uses.
It is solved as a least-distance problem through scipy's NNLS (Lawson and
Hanson, Solving Least Squares Problems, 1974, ch. 23), an active-set
method on the dual that shares nothing with the solver under test.
`kkt_residual` checks a candidate's optimality conditions directly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

from intersim.dynamics import AgentState, step


def step_states(model, x0, u):
    """The (N+1, 3) states (a_x, v, s) of x0 under u, one dynamics.step at a time."""
    states = [x0]
    for uj in u:
        states.append(step(model, states[-1], float(uj)))
    return np.array([x.as_array() for x in states])


def tracking_least_squares(model, params, state, horizon):
    """The free response (N+1, 3), the unit-input responses (N+1, 3, N),
    and (k, y) with the tracking cost equal to ||k @ u - y||²."""
    free = step_states(model, state, np.zeros(horizon))
    zero = AgentState(0.0, 0.0, 0.0)
    response = np.stack([step_states(model, zero, e) for e in np.eye(horizon)], axis=2)
    w = np.sqrt(np.r_[np.full(horizon, params.q), params.q_n])
    k = np.vstack([w[:, None] * response[:, 1], math.sqrt(params.r) * np.eye(horizon)])
    y = np.r_[w * (params.v_ref - free[:, 1]), np.zeros(horizon)]
    return free, response, k, y


def straight_rows(model, params, margins, state, horizon, shrink, leaders=(), s_end_max=None, s_end_min=None):
    """(A, b, names) with A @ u <= b the straight-stretch rows: v >= 0,
    v <= v_max·shrink, |a| <= a_tot_max·shrink at steps 1..N, each leader
    broadcast's gap on both sides of the headway kink (the broadcast is one
    step old: step j reads its step j+1, its last pose held), the horizon
    end's bounds where given, and the input box."""
    free, response, _, _ = tracking_least_squares(model, params, state, horizon)
    a, v, s = response[1:, 0], response[1:, 1], response[1:, 2]
    fa, fv, fs = free[1:, 0], free[1:, 1], free[1:, 2]
    cap = params.a_tot_max * shrink
    blocks = [("v_lo", -v, fv), ("v_hi", v, params.v_max * shrink - fv), ("a_hi", a, cap - fa), ("a_lo", -a, cap + fa)]
    read = np.minimum(np.arange(2, horizon + 2), horizon)
    for lead in leaders:
        s_l, v_l = lead.s[read], lead.v[read]
        g0 = (params.length + lead.length) / 2.0 + margins.long
        blocks += [("gap", s, s_l - g0 - fs), ("headway", s + margins.headway * v, s_l - g0 - fs - margins.headway * (fv - v_l))]
    if s_end_max is not None:
        blocks.append(("stop", s[-1:], np.array([s_end_max - fs[-1]])))
    if s_end_min is not None:
        blocks.append(("cross", -s[-1:], np.array([fs[-1] - s_end_min])))
    eye = np.eye(horizon)
    blocks += [("u_hi", eye, np.full(horizon, params.a_x_max)), ("u_lo", -eye, np.full(horizon, -params.a_x_min))]
    names = [name for name, rows, _ in blocks for _ in range(len(rows))]
    return np.vstack([rows for _, rows, _ in blocks]), np.concatenate([b for _, _, b in blocks]), names


def solve(k, y, a, b):
    """argmin ||k @ u - y||² subject to a @ u <= b, or None where no u meets
    the rows. With k = Q·R and w = R·u - Qᵀy it is the least-distance
    problem min ||w|| subject to G·w >= h, G = -a·R⁻¹, h = a·u_ls - b, which
    NNLS solves: for E = [Gᵀ; hᵀ] and f = e_{n+1}, the residual
    E·λ - f of min ||E·λ - f||, λ >= 0, gives w = -res[:n] / res[n]."""
    q, r = np.linalg.qr(k)
    r_inv = np.linalg.inv(r)
    u_ls = r_inv @ (q.T @ y)
    g = -a @ r_inv
    h = a @ u_ls - b
    n = k.shape[1]
    e = np.vstack([g.T, h[None]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    lam, _ = nnls(e, f, maxiter=50 * e.shape[1])
    res = e @ lam - f
    if abs(res[n]) < 1e-12:
        return None
    return u_ls + r_inv @ (-res[:n] / res[n])


def kkt_residual(k, y, a, b, u, active_tol=1e-7):
    """The KKT residual of u for min ||k @ u - y||² over a @ u <= b: the
    largest of the rows' excess over their bounds and the stationarity
    residual ||∇J + Σ λ_i a_i||∞ / max(1, ||∇J||∞) over the rows within
    `active_tol`·(1 + |b|) of their bounds, λ >= 0 from NNLS. Returns it and
    the active rows' indices."""
    gradient = 2.0 * k.T @ (k @ u - y)
    excess = a @ u - b
    active = np.flatnonzero(excess >= -active_tol * (1.0 + np.abs(b)))
    stationarity = np.abs(gradient).max()
    if active.size:
        lam, _ = nnls(a[active].T, -gradient)
        stationarity = np.abs(a[active].T @ lam + gradient).max()
    return max(float(excess.max()), stationarity / max(1.0, float(np.abs(gradient).max()))), active
