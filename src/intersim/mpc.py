"""Per-vehicle optimal control: an exact active-set QP where it applies,
else a penalty reformulation and a PANOC-style solver.

The decision variable is the reference-acceleration sequence over the
horizon. Input bounds stay hard via projection; every other constraint is
a squared penalty with an escalating weight, one family of OcpProblem's
table (its docstring gives the format). States are affine in the inputs,
so gradients reduce to precomputed sensitivity matmuls.

The tracking cost J(u) alone is a strictly convex quadratic. Without box
tracks, whose surrogate is never 0, and on a straight stretch, every other
constraint is linear in u: the speed range, |a_j| <= a_tot_max, each lane
leader's gap (two halfspaces, one on each side of the headway kink) and the
stop line. So J over those rows is a QP, which a dual active-set method
solves exactly (_ActiveSetQP); its empty active set is the unconstrained
minimiser u* = gain @ (v_free - v_ref). The QP's feasible set contains the
set where every penalty term is exactly 0, curves included. So where the
QP's optimum lies in that set, it minimises J there: it is the point the
penalty loop's rounds approach as the weight grows, and a solve takes it
without running that loop (_exact).
"""

from __future__ import annotations

import copy
import math
import time
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from typing import Sequence

import numpy as np

from .dynamics import AgentParams, AgentState, DiscreteModel
from .geometry import OVERLAP_SHARPNESS, SafetyMargins, smooth_overlap_core
from .paths import PathSpec, RegionBounds


# bound on |a_x|, |v| and |s| of a state the solver accepts: no vehicle
# comes near it, and the penalty terms, up to eighth powers of the state
# (the squared total-acceleration residual), stay far from overflowing
STATE_LIMIT = 1e6
# longest horizon a scenario may set: it keeps the (N+1, 3, N) sensitivities
# at 24 MB, the (2N, N) kink matrix of _project_box_halfspace at 16 MB, the
# (N, N+1) tracking gain and the (N, N) QP factor at 8 MB each, within a
# budget of 32 MB per array, which _exact also keeps its QP rows to
MAX_HORIZON = 1000
ARRAY_BUDGET = 32 << 20

# the numerics of the penalty loop and of box_solve
INITIAL_WEIGHT = 10.0  # penalty weight of the first round
WEIGHT_MULTIPLIER = 5.0  # growth of the weight per round
MAX_OUTER_ITERATIONS = 6  # weight rounds per start point
INNER_TOLERANCE = 1e-4  # box_solve's stopping displacement in the first round
MAX_INNER_ITERATIONS = 500  # box_solve's iteration cap
LBFGS_MEMORY = 10  # (s, y) pairs box_solve keeps
# a chosen candidate that ends above this violation also gets a start from
# braking throughout: that far above the tolerance the warm start may sit in
# a basin the penalty loop cannot leave, such as full throttle behind a
# leader; below it, a solve that merely ends unconverged pays for no
# extra start
BRAKE_START_VIOLATION = 1.0


@dataclass(frozen=True)
class PenaltyConfig:
    constraint_tolerance: float = 1e-2

    def __post_init__(self):
        if self.constraint_tolerance <= 0:
            raise ValueError("constraint_tolerance must be > 0")


@dataclass(frozen=True, eq=False)
class PredictedTrajectory:
    """What a vehicle broadcasts after its solve: its predicted poses at
    steps 0..N of the horizon, and its own footprint. `s` holds the path
    coordinates of those poses, clipped to the path, and `path` the sender's
    route; a receiver on that same route holds the sender as a 1-D gap
    when it drives ahead."""

    x_g: np.ndarray
    y_g: np.ndarray
    psi: np.ndarray
    v: np.ndarray
    length: float
    width: float
    s: np.ndarray
    path: PathSpec


@dataclass
class SolverReport:
    max_violation: float
    wall_ms: float
    converged: bool
    violation_history: tuple[float, ...]
    # the full-throttle second start: "not_run" (the warm solution needs
    # none), "unreachable" (skipped: no speed-limited input reaches the
    # crossing side), "won", "lost_feasible" or "lost_infeasible"
    second_start: str
    # the braking start, tried when the chosen candidate ends above
    # BRAKE_START_VIOLATION: "not_run", "won" or "lost"
    brake_start: str
    # objective evaluations and gradient builds over every start; the exact
    # QP makes neither
    evaluations: int
    gradients: int
    # what settled the warm candidate: "exact", the active-set QP (_exact),
    # or "penalty", the penalty loop
    settled_by: str
    # the exact QP's active rows at its optimum (0: the tracking cost's
    # unconstrained minimiser) and, where it branched on the preview hinge,
    # the branch it took ("stop" or "cross"); None for the penalty loop
    active_rows: int | None
    branch: str | None
    # the family and horizon step of the largest violation (OcpProblem.locate):
    # v_lo, v_hi, ay, atot, box k, gap k or hinge, and 1..N; None at 0.0
    worst_family: str | None
    worst_step: int | None


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


@lru_cache(maxsize=64)
def _tracking(a_d: bytes, b_d: bytes, horizon: int, q: float, q_n: float, r: float):
    """The tracking cost's minimiser gain and QP factor, from one Hessian.

    The cost q·Σdv² + q_n·dv_N² + r·Σu² has the Hessian 2H with
    H = G_vᵀ·W·G_v + r·I and W = diag(q, ..., q, q_n), which r > 0 makes
    positive definite; the weights are scaled by their largest, which keeps
    every product in range. The (N, N+1) gain M = -H⁻¹·G_vᵀ·W gives the
    minimiser over all of R^N, u* = M @ (v_free - v_ref), with v_free the
    free-response speeds at steps 0..N; scaling the weights leaves M
    unchanged. The (N, N) upper-triangular factor L⁻ᵀ, for H = L·Lᵀ, is the
    active-set QP's basis at the empty active set. Read-only and shared like
    _sensitivities."""
    g_v = _sensitivities(a_d, b_d, horizon)[1][:, 1, :]
    scale = max(q, q_n, r)
    w = np.full(horizon + 1, q / scale)
    w[horizon] = q_n / scale
    wg = g_v * w[:, None]
    hessian = g_v.T @ wg + (r / scale) * np.eye(horizon)
    gain = np.linalg.solve(hessian, -wg.T)
    factor = np.linalg.inv(np.linalg.cholesky(hessian)).T
    for arr in (gain, factor):
        arr.setflags(write=False)
    return gain, factor


@lru_cache(maxsize=256)
def _table_layout(boxes: tuple[int, ...], leads: tuple[int, ...]):
    """OcpProblem's table layout for these box and leader track indices:
    the row names; the box and leader row slices; and the indices from which
    value_and_grad sums the rows of its (2K, N) table, the rows and their
    squares: the first row of each family (speed, ay, atot, boxes, leaders)
    and of each value term (K - 1: speed's two rows make one). Read-only and
    shared by every problem with this layout."""
    row_names = ("v_lo", "v_hi", "ay", "atot", *(f"box {k}" for k in boxes), *(f"gap {k}" for k in leads))
    n_rows = len(row_names)
    box_rows = slice(4, 4 + len(boxes))
    gap_rows = slice(box_rows.stop, n_rows)
    starts = sorted({0, 2, 3, 4, gap_rows.start} - {n_rows})
    sums_at = np.array([*starts, n_rows, *range(n_rows + 2, 2 * n_rows)])
    sums_at.setflags(write=False)
    return row_names, box_rows, gap_rows, sums_at


class OcpProblem:
    """Precomputed sensitivities and penalty evaluation for one agent/step.

    The penalty terms hold the speed and acceleration limits backed off by
    ENFORCE_BACKOFF, which keeps the closed loop inside the true limits
    without extreme weights; residual_stack measures against the true ones.

    A track that drives ahead on the own path, a lane leader, is held as
    the car-following gap in metres, r = (s + g - s_l)+ with the gap
    g = (L + L_l)/2 + long + headway·(v - v_l)+, which is linear in the
    state. Every other track is held as the x-y box surrogate; those tracks
    are stacked into (T, N) arrays, so one evaluation handles them with a
    single smooth_overlap_core call.

    Every penalised constraint but the preview hinge is one family of
    `_forward`'s table, and the objective only sums their squares:

    - `rows`, the (K, N) residuals at steps 1..N: v_lo, v_hi, ay, atot,
      one row per box track, then one per leader (`row_names`);
    - per family, in that order, its partials: groups (row selection, c,
      ((column, factors), ...)) with dr/dx_column = c/2 · f1 · f2 ..., so
      the gradient adds ((weight·c)·r)·f1·f2... to the adjoint's column 0
      (a), 1 (v) or 2 (s), left to right. The collision family's are a
      generator, which computes them only where a gradient reads them.

    The value adds weight·(row sum of r²) per row, the speed family's two
    rows summed first. The hinge stays outside the table: its value
    (weight·r)·r rounds unlike weight·(r·r), and a stop line replaces it.

    `stop_line`, when set, is the pair (c, d) of the linear constraint
    c @ u <= d that holds the horizon end at or before the stop line. It
    replaces the preview hinge in the objective, and the solver projects
    onto it instead; residual_stack still reports the hinge.
    """

    ENFORCE_BACKOFF = 0.015

    def __init__(
        self,
        model: DiscreteModel,
        params: AgentParams,
        path: PathSpec,
        regions: RegionBounds,
        margins: SafetyMargins,
        state: AgentState,
        neighbours: Sequence[PredictedTrajectory],
        horizon: int,
    ):
        self.params = params
        self.path = path
        self.regions = regions
        self.margins = margins
        self.horizon = horizon
        if not np.all(np.abs(state.as_array()) <= STATE_LIMIT):
            raise ValueError(
                f"state {state} is out of range: |a_x|, |v| and |s| must not exceed "
                f"{STATE_LIMIT:g}, which keeps every penalty term far from where float64 overflows"
            )
        model_key = (model.a_d.tobytes(), model.b_d.tobytes(), horizon)
        f_mat, self.g_mat, self._g_flat = _sensitivities(*model_key)
        self.base = f_mat @ state.as_array()

        # the V2V input boundary: every broadcast holds N+1 finite poses and
        # path coordinates
        self.tracks = tuple(neighbours)
        n_poses = horizon + 1
        fields = [[getattr(nb, name) for nb in self.tracks] for name in ("x_g", "y_g", "psi", "v", "s")]
        if any(len(arr) != n_poses for field in fields for arr in field):
            raise ValueError(f"a neighbour broadcast does not hold horizon+1 = {n_poses} poses")
        poses = np.array(fields, dtype=float).reshape(5, len(self.tracks), n_poses)
        extents = np.array([(nb.length, nb.width) for nb in self.tracks], dtype=float).reshape(-1, 2)
        if not (np.isfinite(poses).all() and np.isfinite(extents).all()):
            raise ValueError("a neighbour broadcast holds a non-finite value")
        # the lane leaders: tracks on this very route that started ahead; every
        # other track is held as a box. Each list is in track order.
        lead = [nb.path == path and nb.s[0] > state.s for nb in self.tracks]
        self._leads = [k for k, is_lead in enumerate(lead) if is_lead]
        self._boxes = [k for k, is_lead in enumerate(lead) if not is_lead]
        # a broadcast is one step old: prediction step j reads the sender's
        # step j+1, and its last pose is held
        shift = np.minimum(np.arange(2, n_poses + 1), horizon)
        if self._leads:
            # (G, N) leader coordinates and speeds at prediction steps 1..N,
            # and the (G, 1) gaps at standstill. take() keeps the rows
            # C-contiguous, so each row's sum is the pairwise sum of a 1-D
            # array; a[:, shift] would store them column-major
            self._ls = poses[4, self._leads].take(shift, axis=1)
            self._lv = poses[3, self._leads].take(shift, axis=1)
            self._lgap = np.array(
                [[(params.length + self.tracks[k].length) / 2.0 + margins.long] for k in self._leads]
            )
        if self._boxes:
            if self._leads:
                poses, extents = poses[:, self._boxes], extents[self._boxes]
            # (T, N) box poses at prediction steps 1..N and half extents: with
            # one track every operand of the collision terms then has the
            # shape of the own (1, N) rows, which numpy combines fastest
            self._ox, self._oy, self._opsi, self._ov = poses[:4].take(shift, axis=2)
            self._neg_ov = -self._ov
            half = extents / 2.0
            self._oa = np.repeat(half[:, :1], horizon, axis=1)
            self._ob = np.repeat(half[:, 1:], horizon, axis=1)
        layout = _table_layout(tuple(self._boxes), tuple(self._leads))
        self.row_names, self._box_rows, self._gap_rows, self._sums_at = layout
        # a box surrogate is never 0, so only a problem without box tracks
        # can take an exact solve (_exact)
        self._model_key = model_key
        self.gain = self.factor = None
        if not self._boxes:
            self.gain, self.factor = _tracking(*model_key, params.q, params.q_n, params.r)
        self.stop_line: tuple[np.ndarray, float] | None = None
        self.evaluations = 0
        self.gradients = 0

    # -- state prediction -------------------------------------------------

    def states(self, u: np.ndarray) -> np.ndarray:
        return self.base + self.g_mat @ u

    # -- collision-avoidance terms ----------------------------------------

    def _ca_terms(self, x, y, psi, v, kap, inside):
        """Surrogate overlap with every track as a (T, N) array, from the own
        pose, speed and exact curvature as (1, N) rows, and the collision
        family's partials w.r.t. the own path coordinate and speed, as a
        generator that computes them where a gradient reads them.

        `inside` is None where every coordinate lies strictly inside the
        path, and else the (1, N) 0/1 mask of those that do: the pose is held
        where s is clamped to a path end. x * 1.0 is x, so the mask is left
        out when it holds only ones."""
        p = self.params
        m = self.margins
        rel = self._opsi - psi
        cos_rel, sin_rel = np.cos(rel), np.sin(rel)
        closing = v - self._ov * cos_rel
        ext = m.headway * np.maximum(0.0, closing)
        cos_p, sin_p = np.cos(psi), np.sin(psi)
        a_r = p.length / 2.0 + m.long + ext / 2.0
        b_r = p.width / 2.0 + m.lat
        crx = x + 0.5 * ext * cos_p
        cry = y + 0.5 * ext * sin_p
        value, overlap_derivatives = smooth_overlap_core(
            crx, cry, cos_p, sin_p, a_r, b_r, self._ox, self._oy, cos_rel, sin_rel,
            self._oa, self._ob, OVERLAP_SHARPNESS,
        )

        def partials():
            active = (closing > 0).astype(float)
            dext_dv = m.headway * active
            dext_dpsi = dext_dv * (self._neg_ov * sin_rel)
            dcrx, dcry, dth, dar = overlap_derivatives()
            if inside is None:
                dpsi_ds, dx_ds, dy_ds = kap, cos_p, sin_p
            else:
                dpsi_ds, dx_ds, dy_ds = kap * inside, cos_p * inside, sin_p * inside
            dext_ds = dext_dpsi * dpsi_ds
            dcrx_ds = dx_ds + 0.5 * (dext_ds * cos_p - ext * sin_p * dpsi_ds)
            dcry_ds = dy_ds + 0.5 * (dext_ds * sin_p + ext * cos_p * dpsi_ds)
            dv_ds = dcrx * dcrx_ds + dcry * dcry_ds + dth * dpsi_ds + dar * 0.5 * dext_ds
            dv_dv = dcrx * 0.5 * dext_dv * cos_p + dcry * 0.5 * dext_dv * sin_p + dar * 0.5 * dext_dv
            yield self._box_rows, 2.0, ((2, (dv_ds,)), (1, (dv_dv,)))

        return value, partials()

    def _forward(self, u: np.ndarray, shrink: float, rows: np.ndarray | None = None):
        """The states, the family table (`rows` and `families`) against the
        limits scaled by `shrink`, and the hinge's factors (s_cr_out - s_N)+
        and (s_N - s_stop)+. Each family is written here alone, its rows into
        `rows` where a zeroed (K, N) array is given. s is clamped to the path.
        On a straight stretch ay ≡ +0.0, so a_x² + ay² is a_x², bit for bit."""
        p, n = self.params, self.horizon
        total = self.path.total_length
        states = self.states(u)
        a, v, s = states[:, 0], states[:, 1], states[:, 2]
        aj, vj = a[1:], v[1:]
        s_cl = np.minimum(np.maximum(0.0, s[1:]), total)
        lo, hi = float(s_cl.min()), float(s_cl.max())
        if self._boxes:
            x, y, psi, kap_exact, *curve = self.path.pose_and_curvature(s_cl, lo, hi)
        else:
            curve = self.path.curvature(s_cl, lo, hi)
        rows = np.zeros((len(self.row_names), n)) if rows is None else rows
        np.maximum(0.0, -vj, out=rows[0])
        np.maximum(0.0, vj - p.v_max * shrink, out=rows[1])
        cap = (p.a_tot_max * shrink) ** 2
        if curve is None:
            np.maximum(0.0, aj * aj - cap, out=rows[3])
            ay_partials, atot_partials = (), ((3, 4.0, ((0, (aj,)),)),)
        else:
            kap, dkap = curve
            ay = kap * vj * vj
            np.maximum(0.0, np.abs(ay) - p.a_y_max * shrink, out=rows[2])
            np.maximum(0.0, aj * aj + ay * ay - cap, out=rows[3])
            sgn = np.sign(ay)
            ay_partials = (2, 4.0, ((1, (sgn, kap, vj)),)), (2, 2.0, ((2, (sgn, dkap, vj, vj)),))
            atot_partials = (3, 4.0, ((0, (aj,)), (2, (ay, dkap, vj, vj)))), (3, 8.0, ((1, (ay, kap, vj)),))
        # the speed family's partials: dr/dv = -1 for v_lo and +1 for v_hi
        families = [((0, -2.0, ((1, ()),)), (1, 2.0, ((1, ()),))), ay_partials, atot_partials]
        if self._boxes:
            # the heading chain uses the exact curvature: the evaluated pose is
            # the exact path map, so only this keeps gradients FD-consistent
            inside = None
            if not (0.0 < lo and hi < total):
                inside = ((s[1:] > 0.0) & (s[1:] < total)).astype(float)[None]
            own = x[None], y[None], psi[None], vj[None], kap_exact[None]
            rows[self._box_rows], ca_partials = self._ca_terms(*own, inside)
            families.append(ca_partials)
        if self._leads:
            gap = self._gap_rows
            closing = vj - self._lv
            headway = self.margins.headway
            np.maximum(0.0, s[1:] + (self._lgap + headway * np.maximum(0.0, closing)) - self._ls, out=rows[gap])
            families.append(((gap, 2.0, ((2, ()), (1, (headway * (closing > 0),)))),))
        s_n = float(s[-1])
        hinge = (max(0.0, self.regions.s_cr_out - s_n), max(0.0, s_n - self.regions.s_stop))
        return states, rows, families, hinge

    # -- penalty objective -------------------------------------------------

    def _tracking(self, u: np.ndarray, dv_ref: np.ndarray) -> float:
        """Tracking cost q·Σdv² + q_n·dv_N² + r·Σu² from the speed errors
        dv_ref at steps 0..N."""
        p, n = self.params, self.horizon
        total = np.add.reduce
        value = p.q * float(total(dv_ref[:n] ** 2)) + p.q_n * float(dv_ref[n] ** 2)
        return value + p.r * float(total(u * u))

    def value_and_grad(self, u: np.ndarray, weight: float):
        """The penalty objective at u, and a zero-argument function that builds
        its gradient from this evaluation's intermediates on its first call
        and returns that same array on every later one (counted in
        `evaluations` and `gradients`)."""
        self.evaluations += 1
        p, n, k = self.params, self.horizon, len(self.row_names)
        table = np.zeros((2 * k, n))
        states, rows, families, (h1, h2) = self._forward(u, 1.0 - self.ENFORCE_BACKOFF, table[:k])
        dv_ref = states[:, 1] - p.v_ref
        value = self._tracking(u, dv_ref)
        # each family's plain sum, then each value term's, added in order; a
        # table of zeros adds nothing, and its families are not live
        live = ()
        if np.count_nonzero(rows):
            np.multiply(rows, rows, out=table[k:])
            sums = np.add.reduceat(np.add.reduce(table, axis=1), self._sums_at).tolist()
            live = sums[: 1 - k]
            for sq in sums[1 - k :]:
                value += weight * sq
        hinge = self.stop_line is None
        if hinge:
            r_prev = h1 * h2
            value += weight * r_prev * r_prev

        grad = None

        def gradient() -> np.ndarray:
            nonlocal grad
            if grad is not None:
                return grad
            self.gradients += 1
            adj = np.zeros((n + 1, 3))
            # += on a view adds in place; on adj[...] it would also copy back
            dv_steps = adj[:n, 1]
            dv_steps += 2.0 * p.q * dv_ref[:n]
            adj[n, 1] += 2.0 * p.q_n * dv_ref[n]
            # the rows are >= 0, so a family sums to 0 exactly when it is 0
            # throughout (a NaN counts); it would add +-0.0 to entries that no
            # round-to-nearest sum from +0.0 makes -0.0, so it is skipped
            for partials in compress(families, live):
                for selection, c, targets in partials:
                    scaled = (weight * c) * rows[selection]
                    for column, factors in targets:
                        term, target = scaled, adj[1:, column]
                        for factor in factors:
                            term = term * factor
                        if term.ndim == 1:
                            target += term
                        else:  # row by row, in order, as the value sums
                            for row in term:
                                target += row
            if hinge and r_prev != 0.0:  # likewise
                d_prev = -float(h1 > 0) * h2 + h1 * float(h2 > 0)
                adj[n, 2] += weight * 2.0 * r_prev * d_prev
            # the (1, 3(N+1)) x (3(N+1), N) product that tensordot(adj, g_mat) performs
            grad = 2.0 * p.r * u + np.dot(adj.reshape(1, -1), self._g_flat).reshape(n)
            return grad

        return value, gradient

    # -- constraint stack ---------------------------------------------------

    def residual_stack(self, u: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """Nonnegative constraint violations against the true limits, the
        tracking cost and the states, all from one forward pass. The tracking
        cost is value_and_grad's at weight 0 bit for bit: there every penalty
        term adds +0.0.

        The violations are the table's rows in its order (a lane leader's
        is its gap shortfall in metres), flattened, then the preview hinge
        product; `locate` names an entry."""
        states, rows, _, (h1, h2) = self._forward(u, 1.0)
        violations = np.concatenate((rows.ravel(), [h1 * h2]))
        return violations, self._tracking(u, states[:, 1] - self.params.v_ref), states

    def locate(self, index: int) -> tuple[str, int]:
        """Family and horizon step of residual_stack's entry `index` (box k
        and gap k name track k)."""
        row, step = divmod(index, self.horizon)
        if row == len(self.row_names):
            return "hinge", self.horizon
        return self.row_names[row], step + 1


def _lbfgs_direction(pairs: deque, r: np.ndarray) -> np.ndarray:
    """Two-loop recursion approximating an inverse-Jacobian product."""
    if not pairs:
        return r.copy()
    q = r.copy()
    alphas = []
    for s_i, y_i, rho_i in reversed(pairs):
        alpha = rho_i * float(s_i.dot(q))
        q -= alpha * y_i
        alphas.append(alpha)
    s_l, y_l, _ = pairs[-1]
    q *= float(s_l.dot(y_l)) / float(y_l.dot(y_l))
    for (s_i, y_i, rho_i), alpha in zip(pairs, reversed(alphas)):
        beta = rho_i * float(y_i.dot(q))
        q += s_i * (alpha - beta)
    return q


def _project_box_halfspace(
    z: np.ndarray, lower: float, upper: float, c: np.ndarray, d: float
) -> np.ndarray:
    """The Euclidean projection of z onto the box [lower, upper]^n cut by
    the halfspace c @ p <= d, for c >= 0 and c @ lower <= d (a nonempty set).

    Where clip(z) meets the halfspace it is the projection, returned as is.
    Otherwise the projection is clip(z - mu*c) with c @ clip(z - mu*c) = d
    for some mu > 0. That function of mu falls piecewise linearly, with a
    kink wherever a coordinate reaches a bound, so it is evaluated at every
    kink and mu is interpolated on the segment whose ends bracket d.

    Each clip is np.minimum(upper, np.maximum(lower, x)): numpy's maximum
    and minimum return their second operand on a tie, so this keeps x where
    it equals a bound, as np.clip does, bit for bit, the sign of a zero
    included."""
    p = np.minimum(upper, np.maximum(lower, z))
    phi = float(c @ p)
    if phi <= d:
        return p
    on = c > 0
    kinks = np.sort(np.concatenate(((z[on] - upper) / c[on], (z[on] - lower) / c[on])))
    kinks = kinks[kinks > 0.0]
    at = np.minimum(upper, np.maximum(lower, z - kinks[:, None] * c)) @ c
    past = np.flatnonzero(at <= d)
    if not past.size:
        # every coordinate with c > 0 at lower meets the halfspace but for
        # the rounding of the sums
        return np.where(on, lower, p)
    k = int(past[0])
    lo, phi_lo = (float(kinks[k - 1]), float(at[k - 1])) if k else (0.0, phi)
    mu = lo + (float(kinks[k]) - lo) * (phi_lo - d) / (phi_lo - float(at[k]))
    return np.minimum(upper, np.maximum(lower, z - mu * c))


def box_solve(
    objective,
    lower: float,
    upper: float,
    u0: np.ndarray,
    tolerance: float,
    max_iterations: int,
    halfspace: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Find a stationary point of a smooth objective over the box
    [lower, upper]^n, cut by the halfspace (c, d), c @ u <= d, when given.

    Forward-backward (projected-gradient) iterations accelerated by an
    L-BFGS direction on the fixed-point residual, with a line search on the
    forward-backward envelope and a pure projected step as fallback
    (PANOC). Only the projection knows the feasible set: without a
    halfspace it is a clip, with one `_project_box_halfspace`.
    Stops when the projected-gradient displacement falls to `tolerance`,
    or after `max_iterations` iterations. Returns (u, iterations, converged).

    `objective(u)` returns the value at u and a zero-argument function that
    builds the gradient there, once. The gradient is built only where it is
    read: at the start, the Lipschitz probe, the line-search candidates and
    a fallback step; a forward-backward point needs only its value for the
    descent test. A point bitwise equal to one evaluated in the same
    iteration reuses that evaluation: line-search candidates often coincide
    with the forward-backward point.
    """

    def project(z):
        if halfspace is None:
            return np.minimum(upper, np.maximum(lower, z))  # np.clip, bit for bit
        return _project_box_halfspace(z, lower, upper, *halfspace)

    # 1-D products go through ndarray.dot, the BLAS dot that `@` also calls
    # on two vectors, with less call overhead
    def norm(z):
        return math.sqrt(z.dot(z))  # np.linalg.norm of a real vector

    u = project(np.asarray(u0, dtype=float))
    f, gradient = objective(u)
    g = gradient()

    def evaluate(z):
        key = z.tobytes()
        hit = known.get(key)
        if hit is None:
            hit = known[key] = objective(z)
        return hit

    gnorm = norm(g)
    if gnorm > 0:
        h = 1e-3 * max(1.0, norm(u))
        g_probe = objective(u - h * g / gnorm)[1]()
        lip = norm(g_probe - g) / h
    else:
        lip = 1.0
    lip = max(lip, 1e-6)
    gamma = 0.95 / lip
    pairs: deque = deque(maxlen=LBFGS_MEMORY)

    converged = False
    iterations = 0
    t = project(u - gamma * g)
    while iterations < max_iterations:
        iterations += 1
        r = u - t
        if float(np.abs(r).max()) <= tolerance:
            u = t  # return the projected point, which meets the constraints
            converged = True
            break
        # point bytes -> (value, gradient builder) of this iteration's points
        known = {}
        f_t, gradient_t = evaluate(t)
        gr, rr = float(g.dot(r)), float(r.dot(r))
        # enlarge the local Lipschitz estimate until the descent model holds
        while f_t > f - gr + 0.5 * lip * rr + 1e-10 * (1.0 + abs(f)) and lip < 1e12:
            lip *= 2.0
            gamma = 0.95 / lip
            pairs.clear()
            t = project(u - gamma * g)
            r = u - t
            f_t, gradient_t = evaluate(t)
            gr, rr = float(g.dot(r)), float(r.dot(r))
        fbe = f - gr + rr / (2.0 * gamma)

        d = -_lbfgs_direction(pairs, r)
        if not np.isfinite(d).all():
            d = -r
        step_fb = t - u
        accepted = False
        tau = 1.0
        for _ in range(10):
            u_c = u + tau * d + (1.0 - tau) * step_fb
            f_c, gradient_c = evaluate(u_c)
            g_c = gradient_c()
            t_c = project(u_c - gamma * g_c)
            r_c = u_c - t_c
            fbe_c = f_c - float(g_c.dot(r_c)) + float(r_c.dot(r_c)) / (2.0 * gamma)
            if fbe_c <= fbe - 1e-4 * rr / gamma:
                accepted = True
                break
            tau *= 0.5
        if accepted:
            u_new, f_new, g_new, t_new = u_c, f_c, g_c, t_c
        else:
            f_new, g_new = f_t, gradient_t()
            u_new, t_new = t, project(t - gamma * g_new)
        s_i = u_new - u
        y_i = (u_new - t_new) - r
        sy = float(s_i.dot(y_i))
        if sy > 1e-12 * norm(s_i) * max(norm(y_i), 1e-300):
            pairs.append((s_i, y_i, 1.0 / sy))
        u, f, g, t = u_new, f_new, g_new, t_new

    return project(u), iterations, converged


def initial_broadcast(
    x0: AgentState, path: PathSpec, params: AgentParams, horizon: int, t_s: float
) -> PredictedTrajectory:
    """Constant-speed forecast: the first step's broadcast, and that of a
    vehicle past its control region, which no longer solves."""
    s = x0.s + np.arange(horizon + 1) * t_s * x0.v
    s[0] = x0.s
    return _broadcast(s, np.full(horizon + 1, x0.v), path, params)


def _broadcast(s: np.ndarray, v: np.ndarray, path: PathSpec, params: AgentParams) -> PredictedTrajectory:
    s = np.clip(s, 0.0, path.total_length)
    x, y, psi, _ = path.pose(s)
    return PredictedTrajectory(x, y, psi, v, params.length, params.width, s, path)


@dataclass
class _Candidate:
    u: np.ndarray
    violation: float
    tracking: float
    states: np.ndarray  # problem.states(u), from the round's residual_stack
    history: tuple[float, ...]
    worst: tuple[str, int] | None = None  # problem.locate of the largest violation; None at 0.0
    exact: tuple[int, str | None] | None = None  # _exact's active rows and branch; None for the loop


def _rank(violation: float, tracking: float, tol: float) -> tuple[bool, float, float]:
    """The one order on candidates, a loop's rounds and the two starts alike: feasible
    (violation <= tol) first, by tracking cost; infeasible by violation, then tracking."""
    infeasible = violation > tol
    return (infeasible, violation if infeasible else tracking, tracking)


def _reach_bound(
    model: DiscreteModel, params: AgentParams, state: AgentState, tol: float, horizon: int
) -> float:
    """An upper bound on the horizon-end coordinate s_N over every input in
    [a_x_min, a_x_max] whose predicted speeds v_1..v_N stay within
    v_max + tol, as those of a converged solve do.

    The exact sampled model splits each step's advance into the trapezoid
    t_s(v_j + v_{j+1})/2 plus k_a·a_j + k_u·u_j, and |a_j| never exceeds
    max(|a_0|, max|u|), since a_j mixes a_0 with earlier inputs."""
    t_s = model.t_s
    k_a = model.a_d[2, 0] - t_s * model.a_d[1, 0] / 2.0
    k_u = model.b_d[2] - t_s * model.b_d[1] / 2.0
    u_cap = max(-params.a_x_min, params.a_x_max)
    a_cap = max(abs(state.a_x), u_cap)
    v_cap = params.v_max + tol
    speed = t_s * (state.v + v_cap) / 2.0 + t_s * (horizon - 1) * v_cap
    return state.s + speed + horizon * (abs(k_a) * a_cap + abs(k_u) * u_cap)


@lru_cache(maxsize=64)
def _qp_rows(a_d: bytes, b_d: bytes, horizon: int, headway: float, leads: int, stop: bool):
    """The exact QP's row normals over u, in _exact's order, and their
    Euclidean norms: v_lo (-v), v_hi (v) and the two sides of |a| at steps
    1..N; per lane leader, s and s + headway·v; the horizon end s_N where a
    stop line is set; then the input box, u and -u. Read-only and shared
    like _sensitivities."""
    g = _sensitivities(a_d, b_d, horizon)[1][1:]
    a, v, s = g[:, 0], g[:, 1], g[:, 2]
    eye = np.eye(horizon)
    rows = np.concatenate((-v, v, a, -a, *(s, s + headway * v) * leads, s[-1:] if stop else s[:0], eye, -eye))
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    for arr in (rows, norms):
        arr.setflags(write=False)
    return rows, norms


class _ActiveSetQP:
    """The dual active-set method of Goldfarb and Idnani (Math. Programming
    27, 1983) for min ½uᵀHu + gᵀu subject to rows @ u <= bounds, started at
    the unconstrained minimiser u = -H⁻¹g. H = L·Lᵀ enters only through the
    basis J = L⁻ᵀ·Q, where L⁻¹·N = Q·[R; 0] for the normals N of the active
    rows: J's first q columns span the active rows' directions, the rest
    their null space in the metric of H.

    A step takes the row that the point violates farthest by Euclidean
    distance, and moves the point and the multipliers together until that
    row holds (it joins the active set) or an active row's multiplier falls
    to 0 (that row leaves). Every point is the optimum over its active set,
    with multipliers >= 0, so the first point that meets every row within
    `slack` is the optimum. `branch` continues from that optimum with one
    more row."""

    def __init__(self, factor, u, rows, norms, bounds, slack):
        self.factor, self.u = factor, u
        self.rows, self.norms, self.bounds, self.slack = rows, norms, bounds, slack
        self.basis = factor.copy()
        self.tri = np.zeros(factor.shape)  # R, in its leading q x q block
        self.active: list[int] = []
        self.lam = np.zeros(0)

    def branch(self, row, bound, slack) -> _ActiveSetQP:
        qp = copy.copy(self)
        qp.rows, qp.norms = np.vstack((self.rows, row)), np.append(self.norms, math.sqrt(row @ row))
        qp.bounds, qp.slack = np.append(self.bounds, bound), np.append(self.slack, slack)
        qp.basis, qp.tri, qp.active = self.basis.copy(), self.tri.copy(), list(self.active)
        return qp

    def solve(self, cap: int) -> bool | None:
        """True at the optimum, False where the rows cannot all hold, None
        after `cap` steps without either."""
        rows, basis, tri, active = self.rows, self.basis, self.tri, self.active
        u, lam, p = self.u, self.lam, None
        for _ in range(cap):
            if p is None:
                excess = (rows @ u - self.bounds - self.slack) / self.norms
                p = int(np.argmax(excess))
                if not excess[p] > 0.0:  # a NaN ends here too, and fails acceptance
                    self.u, self.lam = u, lam
                    return True
                lam_p = 0.0
            a, q = rows[p], len(active)
            d = basis.T @ a
            z = basis[:, q:] @ d[q:]
            r = np.linalg.solve(tri[:q, :q], d[:q])
            zz = float(d[q:] @ d[q:])
            # the full step makes row p hold; none where p depends on the active rows
            full = (float(a @ u) - self.bounds[p]) / zz if zz > 1e-14 * float(d @ d) else math.inf
            ratios = np.where(r > 0.0, lam / np.where(r > 0.0, r, 1.0), math.inf)
            drop = int(np.argmin(ratios)) if q else -1
            partial = float(ratios[drop]) if q else math.inf
            t = min(full, partial)
            if not t < math.inf:
                return False
            if full < math.inf:
                u = u - t * z
            lam, lam_p = lam - t * r, lam_p + t
            if full <= partial:  # p joins: a Householder reflection puts d[q:] on e_q
                v = d[q:].copy()
                alpha = -math.copysign(math.sqrt(zz), v[0])
                v[0] -= alpha
                basis[:, q:] -= np.outer(basis[:, q:] @ v, v * (2.0 / float(v @ v)))
                tri[:q, q], tri[q, q] = d[:q], alpha
                active.append(p)
                lam, p = np.append(lam, lam_p), None
            else:  # the blocking row leaves, and the basis is factored anew
                del active[drop]
                lam = np.delete(lam, drop)
                q_mat, r_mat = np.linalg.qr(self.factor.T @ rows[active].T, mode="complete")
                basis[:] = self.factor @ q_mat
                tri[:] = 0.0
                tri[: len(active), : len(active)] = r_mat[: len(active)]
        return None


def _exact(problem: OcpProblem, tol: float) -> _Candidate | None:
    """The exact optimum of the tracking cost over every input that leaves
    each family row and the preview hinge 0 at the backed-off limits, where
    the active-set QP finds it; else None, and the penalty loop solves.

    Without box tracks (a problem with them has no gain) the QP's rows are
    the input box and, at those limits, v >= 0, v <= v_max, |a_j| <=
    a_tot_max, each lane leader's gap on both sides of the headway kink,
    s_j + g0 - s_l <= 0 and s_j + g0 + h·(v_j - v_l) - s_l <= 0, and the
    stop line where one is set (_qp_rows). On a straight stretch these are
    the family rows; on a curve the lateral and total limits are stricter.
    Each row but the box's is tightened by 1e-10·(1 + |bound|), so rounding
    leaves its family row at exact 0. A QP optimum is taken only where
    _forward leaves every row 0 there, curves included: it then lies in the
    zero-penalty set that the QP's feasible set contains, so it minimises
    the tracking cost over that set. The empty active set, the tracking
    cost's unconstrained minimiser u* = gain @ (v_free - v_ref), is checked
    first, before any row is built.

    Where the hinge (s_cr_out - s_N)+·(s_N - s_stop)+ is not 0 at an
    optimum that passes the check otherwise, the zero-penalty set is the
    union of two branches, s_N <= s_stop and s_N >= s_cr_out, and each
    continues from that optimum with its row. The branch whose QP optimum
    ranks first (`_rank`) is taken if that optimum passes the check; a
    branch without a feasible plan drops out. Every other branch's QP
    optimum, a lower bound on its tracking cost, then ranks behind, so a
    second start has nothing left to find.

    Anything else returns None: rows that cannot all hold, more than 2N
    steps, rows beyond the array budget or a refused optimum. A refusal
    whose QP takes no step, a turn's lateral limit say, costs one forward
    pass and one product with the rows."""
    if problem.gain is None:
        return None
    p, n, regions = problem.params, problem.horizon, problem.regions
    shrink = 1.0 - problem.ENFORCE_BACKOFF

    def check(u):
        """u's states, and whether every family row and the hinge are 0 at u."""
        states, rows, _, (h1, h2) = problem._forward(u, shrink)
        return states, not np.count_nonzero(rows), h1 * h2 == 0.0

    def taken(u, states, active, branch):
        tracking = problem._tracking(u, states[:, 1] - p.v_ref)
        return _Candidate(u, 0.0, tracking, states, (0.0,), exact=(active, branch))

    u = problem.gain @ (problem.base[:, 1] - p.v_ref)
    stop = problem.stop_line
    unconstrained = None  # a NaN fails every comparison
    meets = stop is None or float(stop[0] @ u) <= stop[1]
    if p.a_x_min <= float(u.min()) and float(u.max()) <= p.a_x_max and meets:
        unconstrained = states, clear, hinge_clear = check(u)
        if clear and hinge_clear:
            return taken(u, states, 0, None)
    leads, headway = len(problem._leads), problem.margins.headway
    if ((6 + 2 * leads) * n + 1) * n * 8 > ARRAY_BUDGET:
        return None
    base, cap = problem.base[1:], p.a_tot_max * shrink
    bounds = [base[:, 1], p.v_max * shrink - base[:, 1], cap - base[:, 0], cap + base[:, 0]]
    for s_l, v_l, (g0,) in zip(problem._ls, problem._lv, problem._lgap) if leads else ():
        room = s_l - g0 - base[:, 2]
        bounds += [room, room - headway * (base[:, 1] - v_l)]
    if stop is not None:
        bounds.append([stop[1]])
    bounds = np.concatenate(bounds)
    margin = 1e-10 * (1.0 + np.abs(bounds))
    # the box is not tightened: its rows hold within 1e-13, and the optimum is clipped to it
    box = np.repeat((p.a_x_max, -p.a_x_min), n)
    rows, norms = _qp_rows(*problem._model_key, headway, leads, stop is not None)
    slack = np.concatenate((margin / 2.0, 1e-13 * (1.0 + np.abs(box))))
    qp = _ActiveSetQP(problem.factor, u, rows, norms, np.concatenate((bounds - margin, box)), slack)

    def settle(qp):
        """qp's optimum clipped to the box, and check() there."""
        if qp.u is u and unconstrained is not None:
            return (u, *unconstrained)
        x = np.minimum(p.a_x_max, np.maximum(p.a_x_min, qp.u))
        return (x, *check(x))

    if not qp.solve(2 * n):
        return None
    x, states, clear, hinge_clear = settle(qp)
    if not clear:
        return None
    if hinge_clear:
        return taken(x, states, len(qp.active), None)
    c, s_n = problem.g_mat[n, 2], float(problem.base[n, 2])
    branches = []
    for name, row, bound in (("stop", c, regions.s_stop - s_n), ("cross", -c, s_n - regions.s_cr_out)):
        margin = 1e-10 * (1.0 + abs(bound))
        sub = qp.branch(row, bound - margin, margin / 2.0)
        solved = sub.solve(2 * n)
        if solved is None:
            return None
        if solved:
            x, states, clear, hinge_clear = settle(sub)
            found = taken(x, states, len(sub.active), name)
            branches.append((_rank(0.0, found.tracking, tol), clear and hinge_clear, found))
    best = min(branches, key=lambda branch: branch[0], default=None)
    return best[2] if best and best[1] else None


def _penalty_loop(
    problem: OcpProblem, u0: np.ndarray, tol: float, incumbent: _Candidate | None = None
) -> _Candidate:
    """Escalate the penalty weight around box_solve from one start point.

    Keeps the round that ranks first (`_rank` at tolerance `tol`), so a
    late weight bump cannot degrade the returned trajectory.

    Against a feasible incumbent this start can only win by becoming
    feasible, so it stops after an infeasible round r >= 2 whose violation
    did not fall below the previous round's / sqrt(WEIGHT_MULTIPLIER). A
    locally feasible start shrinks its violation about 1/WEIGHT_MULTIPLIER
    per round under a quadratic penalty; missing even the square root of
    that marks a locally infeasible basin.
    """
    lo, hi = problem.params.a_x_min, problem.params.a_x_max
    stop_on_stall = incumbent is not None and incumbent.violation <= tol
    stall = math.sqrt(WEIGHT_MULTIPLIER)
    weight = INITIAL_WEIGHT
    u = u0
    history: list[float] = []
    best: tuple | None = None  # (rank, violation, tracking, u, states, peak) of the best round
    while True:
        # the displacement criterion weakens as the weight stiffens the
        # objective, so tighten it with the weight to keep outer progress
        tolerance = INNER_TOLERANCE * math.sqrt(INITIAL_WEIGHT / weight)
        objective = partial(problem.value_and_grad, weight=weight)
        u = box_solve(objective, lo, hi, u, tolerance, MAX_INNER_ITERATIONS, problem.stop_line)[0]
        residuals, tracking, states = problem.residual_stack(u)
        peak = int(np.argmax(residuals))
        violation = float(residuals[peak])
        history.append(violation)
        rank = _rank(violation, tracking, tol)
        if best is None or rank < best[0]:
            best = (rank, violation, tracking, u, states, peak)
        if violation <= tol or len(history) >= MAX_OUTER_ITERATIONS:
            break
        if stop_on_stall and len(history) >= 2 and not violation < history[-2] / stall:
            break
        weight *= WEIGHT_MULTIPLIER
    _, violation, tracking, u, states, peak = best
    worst = None if violation == 0.0 else problem.locate(peak)
    return _Candidate(u, violation, tracking, states, tuple(history), worst)


def solve_ocp(
    state: AgentState,
    neighbours: Sequence[PredictedTrajectory],
    model: DiscreteModel,
    params: AgentParams,
    path: PathSpec,
    regions: RegionBounds,
    cfg: PenaltyConfig,
    margins: SafetyMargins,
    horizon: int,
    warm: np.ndarray | None = None,
) -> tuple[np.ndarray, PredictedTrajectory, SolverReport]:
    """Receding-horizon solve for one agent at one sampling instant, against
    the neighbours' previous-step broadcasts. Returns the input sequence,
    this agent's own broadcast, and a report. The broadcast is the solver's
    own prediction, `OcpProblem.states(u)`, on which every penalty term of
    the returned inputs was evaluated.

    Besides the warm start, a full-throttle start is tried whenever the
    warm solution does not already clear the critical region: the preview
    hinge product creates a stop-before-the-line basin that a single local
    solve cannot leave once captured, and the second start restores the
    crossing branch as soon as it is reachable. Both candidates run the
    escalating-weight loop, the second one with the warm candidate as its
    incumbent, so it stops once it stalls behind a feasible warm solve; the
    winner is the one that ranks first (`_rank`), the warm one on a tie.

    Where no input whose speeds stay within the tolerated v_max can carry
    the horizon end to the crossing side of the hinge (`_reach_bound`), the
    hinge can be met on the stop side alone, and no second start runs.
    There, when braking throughout keeps the horizon end at or before the
    stop line, the hinge becomes the linear constraint s_N <= s_stop, which
    box_solve projects onto in place of a penalty that needs several weight
    rounds. It is stricter than the tolerated hinge by at most the slack
    below.

    When the chosen candidate still ends above BRAKE_START_VIOLATION, the
    loop runs once more from braking throughout, u = a_x_min, and that
    candidate replaces it if it ranks first.

    Where the active-set QP settles the problem exactly (_exact), its
    optimum is the warm candidate, and no penalty loop runs: its violation
    is 0.0, and where the hinge binds it has ranked both of its branches.
    """
    t_start = time.perf_counter()
    problem = OcpProblem(model, params, path, regions, margins, state, neighbours, horizon)
    u0 = np.zeros(horizon) if warm is None else np.asarray(warm, dtype=float)
    tol = cfg.constraint_tolerance
    # the hinge (s_cr_out - s_N)(s_N - s_stop) stays within tol on the
    # crossing side from s_cr_out - slack on
    span = regions.s_cr_out - regions.s_stop
    slack = (span - math.sqrt(max(span * span - 4.0 * tol, 0.0))) / 2.0
    out_of_reach = (
        state.s < regions.s_cr_out
        and _reach_bound(model, params, state, tol, horizon) < regions.s_cr_out - slack
    )
    if out_of_reach:
        # s_N = base_N + c @ u, and every entry of c is >= 0, so the box
        # meets c @ u <= d exactly when u = a_x_min throughout does
        c = problem.g_mat[horizon, 2]
        d = regions.s_stop - float(problem.base[horizon, 2])
        if float(c @ np.full(horizon, params.a_x_min)) <= d:
            problem.stop_line = (c, d)

    chosen = _exact(problem, tol) or _penalty_loop(problem, u0, tol)
    s_end = float(chosen.states[-1, 2])
    # the second start matters only when the stop-before-the-line branch is
    # binding: the horizon end sits near or past the stop line yet short of
    # the critical-region exit; an exact solve has ranked both branches
    near_line = state.s < regions.s_cr_out and regions.s_stop - 2.0 <= s_end < regions.s_cr_out - 1e-9
    if problem.stop_line is not None or (near_line and out_of_reach):
        second_start = "unreachable"
    elif not near_line or chosen.exact:
        second_start = "not_run"
    else:
        go = _penalty_loop(problem, np.full(horizon, params.a_x_max), tol, incumbent=chosen)
        if _rank(go.violation, go.tracking, tol) < _rank(chosen.violation, chosen.tracking, tol):
            chosen, second_start = go, "won"
        else:
            second_start = "lost_feasible" if go.violation <= tol else "lost_infeasible"
    brake_start = "not_run"
    if chosen.violation > BRAKE_START_VIOLATION:
        brake = _penalty_loop(problem, np.full(horizon, params.a_x_min), tol)
        won = _rank(brake.violation, brake.tracking, tol) < _rank(chosen.violation, chosen.tracking, tol)
        chosen, brake_start = (brake, "won") if won else (chosen, "lost")

    # a non-finite input is refused before its prediction is broadcast
    if not np.all(np.isfinite(chosen.u)):
        raise ValueError("non-finite input")
    broadcast = _broadcast(chosen.states[:, 2], chosen.states[:, 1], path, params)
    report = SolverReport(
        max_violation=chosen.violation,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        converged=chosen.violation <= tol,
        violation_history=chosen.history,
        second_start=second_start,
        brake_start=brake_start,
        evaluations=problem.evaluations,
        gradients=problem.gradients,
        settled_by="exact" if chosen.exact else "penalty",
        active_rows=chosen.exact and chosen.exact[0],
        branch=chosen.exact and chosen.exact[1],
        worst_family=chosen.worst and chosen.worst[0],
        worst_step=chosen.worst and chosen.worst[1],
    )
    return chosen.u, broadcast, report
