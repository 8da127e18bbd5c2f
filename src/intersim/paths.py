"""Arc-length parameterized vehicle paths through a four-arm intersection.

Paths are chains of straight and circular-arc primitives with unit-speed
parameterization: the path coordinate s is distance driven, and sampling
returns global position, heading and curvature analytically per primitive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

ARMS = ("N", "E", "S", "W")

# Unit travel direction into the intersection per entry arm, and away from
# it per exit arm, in a global frame with x east and y north.
_INBOUND = {"N": (0.0, -1.0), "E": (-1.0, 0.0), "S": (0.0, 1.0), "W": (1.0, 0.0)}
_OUTBOUND = {"N": (0.0, 1.0), "E": (1.0, 0.0), "S": (0.0, -1.0), "W": (-1.0, 0.0)}

_REGION_SCAN_STEP = 0.05
_CURVATURE_BLEND = 0.5


class RouteGeometryError(ValueError):
    """The requested route cannot be realized with the given geometry."""


def _rot_left(v: tuple[float, float]) -> tuple[float, float]:
    return (-v[1], v[0])


def _rot_right(v: tuple[float, float]) -> tuple[float, float]:
    return (v[1], -v[0])


@dataclass(frozen=True)
class StraightSegment:
    x0: float
    y0: float
    heading: float
    length: float

    def end_pose(self) -> tuple[float, float, float]:
        return (
            self.x0 + self.length * math.cos(self.heading),
            self.y0 + self.length * math.sin(self.heading),
            self.heading,
        )

    def start_pose(self) -> tuple[float, float, float]:
        return (self.x0, self.y0, self.heading)


@dataclass(frozen=True)
class ArcSegment:
    cx: float
    cy: float
    radius: float
    start_angle: float
    sweep: float  # signed, positive counterclockwise

    @property
    def length(self) -> float:
        return self.radius * abs(self.sweep)

    def _pose(self, angle: float) -> tuple[float, float, float]:
        sgn = 1.0 if self.sweep >= 0 else -1.0
        return (
            self.cx + self.radius * math.cos(angle),
            self.cy + self.radius * math.sin(angle),
            angle + sgn * math.pi / 2.0,
        )

    def start_pose(self) -> tuple[float, float, float]:
        return self._pose(self.start_angle)

    def end_pose(self) -> tuple[float, float, float]:
        return self._pose(self.start_angle + self.sweep)


Segment = StraightSegment | ArcSegment


@dataclass(frozen=True)
class PathSample:
    x_g: float
    y_g: float
    psi: float
    kappa: float


@dataclass(frozen=True)
class PathSpec:
    segments: tuple[Segment, ...]
    total_length: float

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        lengths = [seg.length for seg in self.segments]
        if any(l <= 0 for l in lengths):
            raise ValueError("every segment must have positive length")
        if not math.isclose(sum(lengths), self.total_length, rel_tol=0, abs_tol=1e-9):
            raise ValueError("total_length must equal the sum of segment lengths")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            ex, ey, eh = prev.end_pose()
            sx, sy, sh = nxt.start_pose()
            if math.hypot(ex - sx, ey - sy) > 1e-9 or abs(eh - sh) > 1e-9:
                raise ValueError("segments are not C0-continuous")

    @property
    def cumulative(self) -> tuple[float, ...]:
        out = [0.0]
        for seg in self.segments:
            out.append(out[-1] + seg.length)
        return tuple(out)

    @cached_property
    def table(self) -> PathTable:
        """The path's sampling table, built on first use."""
        return PathTable(self)


class PathTable:
    """Per-segment constants of one path, built once and read by every sampler.

    Holds the cumulative segment starts, each segment's exact curvature and
    the windows over which the smoothed curvature bridges the jumps of the
    exact one at segment junctions. Its arrays are read-only: one table
    serves every vehicle on the route (see build_path).
    """

    def __init__(self, path: PathSpec):
        segs = path.segments
        self.segments = segs
        cumulative = path.cumulative
        self.cum = np.asarray(cumulative)
        # the same segment starts as floats, for the scalar sampler's bisect
        self.starts = cumulative[:-1]
        self.kappa = np.array([
            0.0 if isinstance(seg, StraightSegment) else math.copysign(1.0 / seg.radius, seg.sweep)
            for seg in segs
        ])
        # (z0, z1, k1, k2, width) per junction where the curvature jumps; the
        # window sits on the lower-|kappa| side of the junction
        blends = []
        for j in range(1, len(segs)):
            k1, k2 = self.kappa[j - 1], self.kappa[j]
            if k1 == k2:
                continue
            sb = self.cum[j]
            w = min(_CURVATURE_BLEND, segs[j - 1].length / 2.0, segs[j].length / 2.0)
            if abs(k2) >= abs(k1):
                blends.append((sb - w, sb, k1, k2, w))  # ramp up before the sharper segment
            else:
                blends.append((sb, sb + w, k1, k2, w))  # hold the sharper value past the junction
        self.blends = tuple(blends)
        # per-segment constants that pose() gathers by segment index: the
        # straight-line terms (zero on arcs, which overwrite them) and the
        # arc terms (inert on straights)
        rows = []
        for seg in segs:
            if isinstance(seg, StraightSegment):
                h = seg.heading
                rows.append((seg.x0, seg.y0, math.cos(h), math.sin(h), h, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0))
            else:
                sgn = 1.0 if seg.sweep >= 0 else -1.0
                rows.append((0.0, 0.0, 0.0, 0.0, 0.0,
                             seg.cx, seg.cy, seg.radius, seg.start_angle, sgn, sgn * math.pi / 2.0))
        (self._x0, self._y0, self._cos, self._sin, self._heading,
         self._cx, self._cy, self._radius, self._start, self._sgn, self._quarter) = np.array(rows).T.copy()
        self._is_arc = np.array([isinstance(seg, ArcSegment) for seg in segs])
        self._junctions = self.cum[1:-1]
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def pose(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x_g, y_g, psi, kappa) at coordinates already inside [0, total_length]."""
        # the last segment whose start is <= s; total_length falls in the final one
        idx = np.searchsorted(self._junctions, s, side="right")
        ds = s - self.cum[idx]
        x = self._x0[idx] + ds * self._cos[idx]
        y = self._y0[idx] + ds * self._sin[idx]
        psi = self._heading[idx]
        on_arc = self._is_arc[idx]
        if on_arc.any():
            j = idx[on_arc]
            radius = self._radius[j]
            ang = self._start[j] + self._sgn[j] * ds[on_arc] / radius
            x[on_arc] = self._cx[j] + radius * np.cos(ang)
            y[on_arc] = self._cy[j] + radius * np.sin(ang)
            psi[on_arc] = ang + self._quarter[j]
        return x, y, psi, self.kappa[idx]

    def smoothed(self, s: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Smoothed curvature and its slope d/ds at s, given the exact kappa there.

        Each jump of the exact curvature becomes a C1 smoothstep over its
        blend window, so the magnitude never drops below the exact one:
        gradient consumers get a continuous profile while constraints stay
        conservative.
        """
        smooth = kappa.copy()
        dsmooth = np.zeros_like(kappa)
        for z0, z1, k1, k2, w in self.blends:
            m = (s >= z0) & (s <= z1)
            if m.any():
                t = (s[m] - z0) / w
                smooth[m] = k1 + (k2 - k1) * (3.0 * t * t - 2.0 * t**3)
                dsmooth[m] = (k2 - k1) * (6.0 * t - 6.0 * t * t) / w
        return smooth, dsmooth


@dataclass(frozen=True)
class RouteSpec:
    entry: str
    exit: str
    lane_offset: float = 2.0
    turn_radius: float = 8.0
    approach_length: float = 84.0
    exit_length: float | None = None  # defaults to approach_length + 300

    def __post_init__(self):
        if self.entry not in ARMS or self.exit not in ARMS:
            raise ValueError(f"arms must be one of {ARMS}")
        if self.entry == self.exit:
            raise ValueError("entry and exit arm must differ")
        if self.lane_offset < 0:
            raise ValueError("lane_offset must be >= 0")
        if self.approach_length <= 0:
            raise ValueError("approach_length must be > 0")


@dataclass(frozen=True)
class IntersectionGeometry:
    cr_half_width: float = 6.0
    icr_radius: float = 70.0
    brake_margin: float = 2.0
    stop_setback: float = 1.0

    def __post_init__(self):
        if min(self.cr_half_width, self.icr_radius, self.stop_setback) <= 0 or self.brake_margin < 0:
            raise ValueError("intersection geometry values must be positive")
        if self.icr_radius <= self.cr_half_width:
            raise ValueError("control region must enclose the critical region")


@dataclass(frozen=True)
class RegionBounds:
    s_icr_in: float
    s_bsr_in: float
    s_bsr_out: float
    s_cr_in: float
    s_cr_out: float
    s_stop: float
    s_icr_out: float

    def __post_init__(self):
        if not (self.s_icr_in < self.s_bsr_in < self.s_bsr_out <= self.s_cr_in < self.s_cr_out):
            raise ValueError("region bounds out of order")
        if not self.s_stop < self.s_cr_in:
            raise ValueError("stop line must precede the critical region")


@lru_cache(maxsize=256)
def build_path(route: RouteSpec) -> PathSpec:
    """Construct the route's centerline path, driving on the right.

    Straight routes are a single segment through the intersection; turning
    routes are entry straight, quarter-circle arc, exit straight. Raises
    RouteGeometryError when the turn radius does not fit the approach.
    Cached: every vehicle on an equal route shares one PathSpec and so one
    table.
    """
    lam = route.lane_offset
    r = route.turn_radius
    a_len = route.approach_length
    x_len = route.exit_length if route.exit_length is not None else a_len + 300.0

    d_in = _INBOUND[route.entry]
    d_out = _OUTBOUND[route.exit]
    heading_in = math.atan2(d_in[1], d_in[0])
    off_in = (lam * _rot_right(d_in)[0], lam * _rot_right(d_in)[1])
    start = (-a_len * d_in[0] + off_in[0], -a_len * d_in[1] + off_in[1])

    if d_out == d_in:  # straight through
        seg = StraightSegment(start[0], start[1], heading_in, a_len + x_len)
        return PathSpec((seg,), seg.length)

    if r <= 0:
        raise RouteGeometryError("turning routes require a positive turn radius")

    off_out = (lam * _rot_right(d_out)[0], lam * _rot_right(d_out)[1])
    if d_out == _rot_left(d_in):
        # left turn: tangent point at signed distance lam - r along the entry lane
        t_along, x_along = lam - r, r - lam
        center_side = _rot_left(d_in)
        sweep = math.pi / 2.0
    elif d_out == _rot_right(d_in):
        t_along, x_along = -(lam + r), lam + r
        center_side = _rot_right(d_in)
        sweep = -math.pi / 2.0
    else:  # pragma: no cover - only 4 arms, all cases enumerated
        raise RouteGeometryError("unsupported arm combination")

    entry_len = a_len + t_along
    exit_len = x_len - x_along
    if entry_len <= 0 or exit_len <= 0:
        raise RouteGeometryError(
            f"turn radius {r} m does not fit between the {route.entry} approach and {route.exit} exit"
        )

    t_e = (t_along * d_in[0] + off_in[0], t_along * d_in[1] + off_in[1])
    t_x = (x_along * d_out[0] + off_out[0], x_along * d_out[1] + off_out[1])
    center = (t_e[0] + r * center_side[0], t_e[1] + r * center_side[1])
    # keep heading numerically continuous across segments (no wrap to (-pi, pi])
    start_angle = heading_in - math.copysign(math.pi / 2.0, sweep)
    heading_out = heading_in + sweep

    entry_seg = StraightSegment(start[0], start[1], heading_in, entry_len)
    arc_seg = ArcSegment(center[0], center[1], r, start_angle, sweep)
    exit_seg = StraightSegment(t_x[0], t_x[1], heading_out, exit_len)
    total = entry_len + arc_seg.length + exit_len
    return PathSpec((entry_seg, arc_seg, exit_seg), total)


def sample_path(path: PathSpec, s: float) -> PathSample:
    """Evaluate position, heading and curvature at path coordinate s.

    Out-of-range s clamps to the nearest path end.
    """
    s = min(max(float(s), 0.0), path.total_length)
    starts = path.table.starts
    # last segment whose start is <= s; s == total_length falls in the final one
    idx = bisect_right(starts, s) - 1
    seg = path.segments[idx]
    ds = s - starts[idx]
    if isinstance(seg, StraightSegment):
        return PathSample(
            seg.x0 + ds * math.cos(seg.heading),
            seg.y0 + ds * math.sin(seg.heading),
            seg.heading,
            0.0,
        )
    sgn = 1.0 if seg.sweep >= 0 else -1.0
    angle = seg.start_angle + sgn * ds / seg.radius
    return PathSample(
        seg.cx + seg.radius * math.cos(angle),
        seg.cy + seg.radius * math.sin(angle),
        angle + sgn * math.pi / 2.0,
        sgn / seg.radius,
    )


def _refine_crossing(path: PathSpec, inside, s_out: float, s_in: float, tol: float = 1e-10) -> float:
    """Bisect the boundary between an outside and an inside coordinate."""
    for _ in range(80):
        mid = 0.5 * (s_out + s_in)
        if inside(mid):
            s_in = mid
        else:
            s_out = mid
        if abs(s_in - s_out) < tol:
            break
    return s_in


@lru_cache(maxsize=256)
def compute_regions(
    path: PathSpec,
    geometry: IntersectionGeometry,
    v_max: float,
    a_x_min: float,
) -> RegionBounds:
    """Locate the control/brake-safe/critical region boundaries along a path.

    The brake-safe window is sized so a vehicle at v_max can stop ahead of
    the critical region with a_x_min plus the configured margin. Cached:
    the scenario check and the run's set-up share one RegionBounds per
    route and vehicle limits.
    """
    if v_max <= 0 or a_x_min >= 0:
        raise ValueError("need v_max > 0 and a_x_min < 0")
    half = geometry.cr_half_width
    grid = np.arange(0.0, path.total_length + _REGION_SCAN_STEP, _REGION_SCAN_STEP)
    grid[-1] = path.total_length
    x, y, _, _ = path.table.pose(grid)

    in_cr = (np.abs(x) <= half) & (np.abs(y) <= half)
    if not np.any(in_cr):
        raise ValueError("path never enters the critical region")

    def cr_inside(s: float) -> bool:
        p = sample_path(path, s)
        return abs(p.x_g) <= half and abs(p.y_g) <= half

    first = int(np.argmax(in_cr))
    if first == 0:
        raise ValueError("path starts inside the critical region")
    s_cr_in = _refine_crossing(path, cr_inside, grid[first - 1], grid[first])
    last = len(in_cr) - 1 - int(np.argmax(in_cr[::-1]))
    if last == len(grid) - 1:
        raise ValueError("path ends inside the critical region")
    s_cr_out = _refine_crossing(path, cr_inside, grid[last + 1], grid[last])

    dist = np.hypot(x, y)
    in_icr = dist <= geometry.icr_radius

    def icr_inside(s: float) -> bool:
        p = sample_path(path, s)
        return math.hypot(p.x_g, p.y_g) <= geometry.icr_radius

    first_icr = int(np.argmax(in_icr))
    if first_icr == 0:
        s_icr_in = 0.0
    else:
        s_icr_in = _refine_crossing(path, icr_inside, grid[first_icr - 1], grid[first_icr])
    last_icr = len(in_icr) - 1 - int(np.argmax(in_icr[::-1]))
    if last_icr == len(grid) - 1:
        s_icr_out = path.total_length
    else:
        s_icr_out = _refine_crossing(path, icr_inside, grid[last_icr + 1], grid[last_icr])

    bsr_length = v_max * v_max / (2.0 * abs(a_x_min)) + geometry.brake_margin
    return RegionBounds(
        s_icr_in=s_icr_in,
        s_bsr_in=s_cr_in - bsr_length,
        s_bsr_out=s_cr_in,
        s_cr_in=s_cr_in,
        s_cr_out=s_cr_out,
        s_stop=s_cr_in - geometry.stop_setback,
        s_icr_out=s_icr_out,
    )


def region_of(bounds: RegionBounds, s: float) -> str:
    """Classify a path coordinate; intervals are half-open on the upper end."""
    if s < bounds.s_icr_in:
        return "outside"
    if s < bounds.s_bsr_in:
        return "icr"
    if s < bounds.s_cr_in:
        return "bsr"
    if s < bounds.s_cr_out:
        return "cr"
    return "past"


def _nearest_offset(seg: Segment, px: float, py: float) -> float:
    """Distance along seg to its point nearest (px, py)."""
    if isinstance(seg, StraightSegment):
        along = (px - seg.x0) * math.cos(seg.heading) + (py - seg.y0) * math.sin(seg.heading)
        return min(max(along, 0.0), seg.length)
    # the point's angle about the centre, from the arc's mid-angle in the
    # direction of travel and wrapped to [-pi, pi); clamping it to the half
    # sweep picks the nearer end for points beside the arc
    half = abs(seg.sweep) / 2.0
    rel = math.atan2(py - seg.cy, px - seg.cx) - (seg.start_angle + seg.sweep / 2.0)
    rel = (rel + math.pi) % (2.0 * math.pi) - math.pi
    turned = rel if seg.sweep >= 0 else -rel
    return seg.radius * (half + min(max(turned, -half), half))


def project_onto_path(path: PathSpec, px: float, py: float) -> tuple[float, float]:
    """Nearest path coordinate to a point: returns (s, distance).

    Exact per segment; on a tie the earliest segment wins. The distance is
    the one to sample_path(path, s).
    """
    best = (0.0, math.inf)
    for start, seg in zip(path.table.starts, path.segments):
        s = start + _nearest_offset(seg, px, py)
        p = sample_path(path, s)
        dist = math.hypot(p.x_g - px, p.y_g - py)
        if dist < best[1]:
            best = (s, dist)
    return best
