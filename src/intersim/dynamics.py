"""Longitudinal vehicle model: first-order drivetrain lag plus a double integrator.

Continuous dynamics for (a_x, v, s):

    d/dt a_x = (u - a_x) / T_ax
    d/dt v   = a_x
    d/dt s   = v

The sampled model is the exact zero-order-hold discretization, written in
closed form for this lower-triangular structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentState:
    a_x: float
    v: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.a_x) and math.isfinite(self.v) and math.isfinite(self.s)):
            raise ValueError(f"non-finite agent state ({self.a_x}, {self.v}, {self.s})")

    def as_array(self) -> np.ndarray:
        return np.array([self.a_x, self.v, self.s], dtype=float)


@dataclass(frozen=True)
class AgentParams:
    t_ax: float
    a_x_min: float
    a_x_max: float
    v_max: float
    a_y_max: float
    a_tot_max: float
    length: float
    width: float
    q: float
    q_n: float
    r: float
    v_ref: float

    def __post_init__(self):
        if self.t_ax <= 0:
            raise ValueError("t_ax must be > 0")
        if not self.a_x_min < 0 < self.a_x_max:
            raise ValueError("need a_x_min < 0 < a_x_max")
        if self.v_max <= 0:
            raise ValueError("v_max must be > 0")
        if min(self.q, self.q_n, self.r) <= 0:
            raise ValueError("cost weights must be > 0")
        if self.a_tot_max < self.a_y_max:
            raise ValueError("total-acceleration bound cannot be below the lateral bound")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("vehicle dimensions must be > 0")


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    a_d: np.ndarray  # 3x3
    b_d: np.ndarray  # 3
    t_s: float


def discretize(t_ax: float, t_s: float) -> DiscreteModel:
    """Exact zero-order-hold sampling of the lag + double-integrator chain.

    Closed-form entries; e.g. the lag state decays by exp(-t_s/t_ax) and the
    steady-state gain from u to a_x is exactly 1.
    """
    if t_ax <= 0:
        raise ValueError("t_ax must be > 0")
    if t_s < 0:
        raise ValueError("t_s must be >= 0")
    e = math.exp(-t_s / t_ax)
    a_d = np.array(
        [
            [e, 0.0, 0.0],
            [t_ax * (1.0 - e), 1.0, 0.0],
            [t_ax * t_s - t_ax * t_ax * (1.0 - e), t_s, 1.0],
        ]
    )
    b_d = np.array(
        [
            1.0 - e,
            t_s - t_ax * (1.0 - e),
            0.5 * t_s * t_s - t_ax * t_s + t_ax * t_ax * (1.0 - e),
        ]
    )
    return DiscreteModel(a_d, b_d, t_s)


def step(model: DiscreteModel, x: AgentState, u: float) -> AgentState:
    if not math.isfinite(u):
        raise ValueError("non-finite input")
    nxt = model.a_d @ x.as_array() + model.b_d * u
    return AgentState(float(nxt[0]), float(nxt[1]), float(nxt[2]))
