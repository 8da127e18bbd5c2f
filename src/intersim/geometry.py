"""Pairwise safety: which vehicles a vehicle avoids, and by how much.

`conflict_sets` decides the pairs: the vehicles ahead in i's lane and,
inside the control region, the higher-priority vehicles whose routes cross
i's. Footprints and safety regions are plain `OrientedBox`es; a safety
region is the footprint inflated by fixed margins and stretched forward by
the closing speed.

Two overlap routes exist on purpose: exact convex-polygon clipping for
logging and verification, and a smooth softplus surrogate of the
separating-axis projections for the optimizer, which needs gradients and
conservatively over-approximates the true overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .dynamics import AgentParams, AgentState
from .paths import (
    PathSample,
    PathSpec,
    RegionBounds,
    project_onto_path,
    region_of,
)

AHEAD_WINDOW = 50.0  # m of path ahead considered for rear-end coupling
PATH_CONFLICT_MARGIN = 0.5  # m added around each swept corridor
# widest critical region a scenario may set: paths_conflict's distance matrix
# then holds at most 2,001 x 2,001 float64, 32 MB (see README)
MAX_CR_HALF_WIDTH = 100.0
CLIP_SLACK = 1e-6  # m beyond touching, far above the rounding of the overlap clip
OVERLAP_SHARPNESS = 4.0  # 1/m softplus steepness of the solver's smooth overlap surrogate


@dataclass(frozen=True)
class OrientedBox:
    cx: float
    cy: float
    heading: float
    half_length: float
    half_width: float

    def __post_init__(self):
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValueError("box half-extents must be > 0")

    def corners(self) -> np.ndarray:
        """Front-left, rear-left, rear-right, front-right: counterclockwise,
        the orientation `_clip_polygon` needs."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        local = np.array(
            [
                [self.half_length, self.half_width],
                [-self.half_length, self.half_width],
                [-self.half_length, -self.half_width],
                [self.half_length, -self.half_width],
            ]
        )
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([self.cx, self.cy])


@dataclass(frozen=True)
class SafetyMargins:
    long: float = 1.5
    lat: float = 0.25
    headway: float = 0.5  # s converted into forward extension by closing speed

    def __post_init__(self):
        if self.long < 0 or self.lat < 0 or self.headway < 0:
            raise ValueError("margins must be >= 0")


def bounding_box(sample: PathSample, length: float, width: float) -> OrientedBox:
    if length <= 0 or width <= 0:
        raise ValueError("vehicle dimensions must be > 0")
    return OrientedBox(sample.x_g, sample.y_g, sample.psi, length / 2.0, width / 2.0)


def safety_region(
    self_sample: PathSample,
    self_params: AgentParams,
    other_sample: PathSample,
    other_v: float,
    self_v: float,
    margins: SafetyMargins,
) -> OrientedBox:
    """Own footprint inflated by fixed margins and stretched forward.

    The forward extension covers the distance closed on the other agent
    within the headway time: own speed minus the other's velocity projected
    on own heading. It vanishes when not approaching; the box grows by half
    of it at the nose and keeps its tail.
    """
    closing = self_v - other_v * math.cos(other_sample.psi - self_sample.psi)
    half = 0.5 * (margins.headway * max(0.0, closing))
    return OrientedBox(
        self_sample.x_g + half * math.cos(self_sample.psi),
        self_sample.y_g + half * math.sin(self_sample.psi),
        self_sample.psi,
        self_params.length / 2.0 + margins.long + half,
        self_params.width / 2.0 + margins.lat,
    )


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex subject by a convex CCW clip polygon."""
    output = subject
    n = len(clip)
    for k in range(n):
        if len(output) == 0:
            break
        a = clip[k]
        b = clip[(k + 1) % n]
        edge = b - a
        inp = output
        output = []
        prev = inp[-1]
        prev_side = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in inp:
            cur_side = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if (cur_side >= 0) != (prev_side >= 0):
                # the crossing parameter from the two sides, whose signs
                # differ, so it never divides by zero (an edge of the subject
                # parallel to the clip edge, by a rounding of its sides)
                output.append(prev + prev_side / (prev_side - cur_side) * (cur - prev))
            if cur_side >= 0:
                output.append(cur)
            prev, prev_side = cur, cur_side
        output = np.array(output) if output else np.empty((0, 2))
    return output


def _polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def area_overlap(box: OrientedBox, other: OrientedBox) -> float:
    """Exact intersection area of two boxes.

    Each box lies inside the circle of its half-diagonal around its centre,
    so boxes whose centres are farther apart than the two half-diagonals
    together cannot overlap. Past that distance plus CLIP_SLACK they are not
    clipped: the clip returns exactly 0.0 there too, where corners that touch
    can leave it a rounding sliver.
    """
    reach = math.hypot(box.half_length, box.half_width) + math.hypot(other.half_length, other.half_width)
    if math.hypot(other.cx - box.cx, other.cy - box.cy) > reach + CLIP_SLACK:
        return 0.0
    poly = _clip_polygon(box.corners(), other.corners())
    return _polygon_area(poly)


def box_distance(first: OrientedBox, second: OrientedBox) -> float:
    """Euclidean clearance between two convex boxes; 0 when they overlap.

    Apart, the nearest points of two convex polygons include a vertex of
    one, so the clearance is the least of the 32 distances from each box's
    corners to the other's edges, computed as one (2, 4, 4) array. `vecdot`
    runs `np.dot`'s kernel on each xy pair: a plain sum of products rounds
    differently wherever that kernel fuses a multiply-add."""
    if area_overlap(first, second) > 0.0:
        return 0.0
    corners = np.stack((first.corners(), second.corners()))  # (box, corner, xy)
    a = corners[::-1, None]  # the other box's edge starts, (box, 1, edge, xy)
    ab = np.roll(a, -1, axis=2) - a
    p = corners[:, :, None]
    t = np.vecdot(p - a, ab) / np.maximum(np.vecdot(ab, ab), 1e-300)
    gap = p - (a + np.minimum(np.maximum(t, 0.0), 1.0)[..., None] * ab)
    return float(np.sqrt(np.min(np.vecdot(gap, gap))))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def smooth_overlap_core(crx, cry, cos_t, sin_t, a_r, b_r, cox, coy, cos_d, sin_d, a_o, b_o, beta: float):
    """Smooth overlap of two rectangles projected on the first one's axes.

    The first rectangle has centre (crx, cry), heading theta and half
    extents a_r, b_r; the second has centre (cox, coy), heading
    theta + delta and half extents a_o, b_o. The headings enter through
    cos_t, sin_t = cos(theta), sin(theta) and cos_d, sin_d = cos(delta),
    sin(delta), which the caller computes once for its own use as well.
    All arguments broadcast as numpy arrays.

    Returns the surrogate value and a function that builds its partial
    derivatives (d_crx, d_cry, d_theta, d_ar) w.r.t. the first rectangle's
    centre, heading and half-length from this call's intermediates. The
    second rectangle's centre enters only through the offset between the
    centres, so its partials are -d_crx and -d_cry.

    The 1-D interval overlaps along the region's body axes are pushed
    through a softplus of steepness beta (1/m; the solver passes
    OVERLAP_SHARPNESS), so the product upper-bounds the hinge product (and
    therefore the true intersection area) and stays differentiable.
    """
    dx, dy = cox - crx, coy - cry
    d_u = dx * cos_t + dy * sin_t
    d_n = -dx * sin_t + dy * cos_t
    abs_cd, abs_sd = np.abs(cos_d), np.abs(sin_d)
    rho_u = a_o * abs_cd + b_o * abs_sd
    rho_n = a_o * abs_sd + b_o * abs_cd
    # beta times each interval overlap: the softplus argument, whose
    # sigmoid is the softplus slope
    bo_u = beta * (a_r + rho_u - np.abs(d_u))
    bo_n = beta * (b_r + rho_n - np.abs(d_n))
    sp_u, sp_n = np.logaddexp(0.0, bo_u) / beta, np.logaddexp(0.0, bo_n) / beta

    def derivatives():
        d_ou = _sigmoid(bo_u) * sp_n  # dV/do_u
        d_on = sp_u * _sigmoid(bo_n)
        sign_du, sign_dn = np.sign(d_u), np.sign(d_n)
        sign_cd, sign_sd = np.sign(cos_d), np.sign(sin_d)
        drho_u = (-a_o * sign_cd * sin_d + b_o * sign_sd * cos_d)
        drho_n = (a_o * sign_sd * cos_d - b_o * sign_cd * sin_d)

        # dV/d(d_u) and dV/d(d_n); the centres enter d_u, d_n through +-(cos, sin)
        dv_du, dv_dn = d_ou * (-sign_du), d_on * (-sign_dn)
        neg_cos, neg_sin = -cos_t, -sin_t
        d_crx = dv_du * neg_cos + dv_dn * (sin_t)
        d_cry = dv_du * neg_sin + dv_dn * neg_cos
        # d(d_u)/dtheta = d_n, d(d_n)/dtheta = -d_u, d(delta)/dtheta = -1
        d_theta = (
            d_ou * (-sign_du * d_n - drho_u)
            + d_on * (sign_dn * d_u - drho_n)
        )
        return d_crx, d_cry, d_theta, d_ou

    return sp_u * sp_n, derivatives


@lru_cache(maxsize=1024)
def paths_conflict(
    path_i: PathSpec,
    bounds_i: RegionBounds,
    path_l: PathSpec,
    bounds_l: RegionBounds,
    width_i: float,
    width_l: float,
    cr_half_width: float,
) -> bool:
    """Do the swept corridors of two routes meet inside the critical region?

    Each corridor is the centerline inflated by half the vehicle width plus
    PATH_CONFLICT_MARGIN; the test samples both critical-region portions
    densely. The answer is symmetric in the two routes, and cached per
    ordered pair.
    """
    pts = []
    for path, bounds in ((path_i, bounds_i), (path_l, bounds_l)):
        s = np.arange(bounds.s_cr_in, min(bounds.s_cr_out, path.total_length) + 0.1, 0.1)
        x, y, _, _ = path.pose(np.clip(s, 0.0, path.total_length))
        inside = (np.abs(x) <= cr_half_width) & (np.abs(y) <= cr_half_width)
        pts.append(np.column_stack([x[inside], y[inside]]))
    if len(pts[0]) == 0 or len(pts[1]) == 0:
        return False
    d2 = (
        (pts[0][:, None, 0] - pts[1][None, :, 0]) ** 2
        + (pts[0][:, None, 1] - pts[1][None, :, 1]) ** 2
    )
    threshold = width_i / 2.0 + width_l / 2.0 + 2.0 * PATH_CONFLICT_MARGIN
    return bool(np.min(d2) < threshold * threshold)


@dataclass(frozen=True)
class AgentView:
    """Frozen per-agent snapshot of one step.

    `pose` samples `path` at `state.s`, clamped to the path's end.
    """

    state: AgentState
    path: PathSpec
    bounds: RegionBounds
    params: AgentParams
    pose: PathSample

    @cached_property
    def box(self) -> OrientedBox:
        """The vehicle's footprint at `pose`, built once per snapshot."""
        return bounding_box(self.pose, self.params.length, self.params.width)


def ahead_set(i: int, views: Mapping[int, AgentView], window: float = AHEAD_WINDOW) -> frozenset[int]:
    """Agents driving ahead of i on (the continuation of) i's own lane.

    A vehicle ahead lies at most `window` of arc, hence of chord, along the
    path from i's pose and less than i's width off it, so one farther than
    their sum from i's pose is skipped without projecting it.
    """
    me = views[i]
    reach = window + me.params.width
    out = set()
    for l, view in views.items():
        if l == i:
            continue
        if math.hypot(view.pose.x_g - me.pose.x_g, view.pose.y_g - me.pose.y_g) > reach:
            continue
        s_proj, lateral = project_onto_path(me.path, view.pose.x_g, view.pose.y_g)
        if lateral < me.params.width and 0.0 < s_proj - me.state.s <= window:
            out.add(l)
    return frozenset(out)


def conflict_sets(
    i: int,
    views: Mapping[int, AgentView],
    higher: frozenset[int],
    crossing: frozenset[int],
) -> frozenset[int]:
    """The agents i holds avoidance constraints toward.

    Outside the intersection control region only the rear-end set matters.
    Inside it i also avoids the `higher`-priority agents that can still
    cross its way: those short of their critical-region exit that are in
    `crossing`, the agents whose route conflicts with i's.
    """
    me = views[i]
    ahead = ahead_set(i, views)
    if region_of(me.bounds, me.state.s) in ("icr", "bsr", "cr"):
        cross = {l for l in higher & crossing if views[l].state.s < views[l].bounds.s_cr_out}
        return frozenset(cross) | ahead
    return ahead
