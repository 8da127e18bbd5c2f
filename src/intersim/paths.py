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

# longest path: every coordinate on it, a vehicle's start among them, stays
# far inside the solver's state range, mpc.STATE_LIMIT (see README)
MAX_PATH_LENGTH = 10_000.0
_CURVATURE_BLEND = 0.5


class RouteGeometryError(ValueError):
    """The requested route cannot be realized with the given geometry."""


def _rot_left(v: tuple[float, float]) -> tuple[float, float]:
    return (-v[1], v[0])


def _rot_right(v: tuple[float, float]) -> tuple[float, float]:
    return (v[1], -v[0])


@dataclass(frozen=True)
class PathSample:
    x_g: float
    y_g: float
    psi: float
    kappa: float


@dataclass(frozen=True)
class StraightSegment:
    x0: float
    y0: float
    heading: float
    length: float

    kappa = 0.0

    def pose_at(self, ds: float | np.ndarray):
        """(x, y, psi, kappa) ds along the segment: floats for one float,
        arrays of its shape for an array."""
        x = self.x0 + ds * math.cos(self.heading)
        y = self.y0 + ds * math.sin(self.heading)
        if isinstance(ds, np.ndarray):
            return x, y, np.full(ds.shape, self.heading), np.zeros(ds.shape)
        return x, y, self.heading, 0.0


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

    @property
    def kappa(self) -> float:
        return (1.0 if self.sweep >= 0 else -1.0) / self.radius

    def pose_at(self, ds: float | np.ndarray):
        """(x, y, psi, kappa) ds of arc along the segment: floats for one
        float, arrays of its shape for an array. One float takes libm's
        cosine and sine, an array numpy's."""
        sgn = 1.0 if self.sweep >= 0 else -1.0
        angle = self.start_angle + sgn * ds / self.radius
        kappa = self.kappa
        if isinstance(ds, np.ndarray):
            cos, sin, kappa = np.cos, np.sin, np.full(ds.shape, kappa)
        else:
            cos, sin = math.cos, math.sin
        return (
            self.cx + self.radius * cos(angle),
            self.cy + self.radius * sin(angle),
            angle + sgn * math.pi / 2.0,
            kappa,
        )


Segment = StraightSegment | ArcSegment


@dataclass(frozen=True)
class PathSpec:
    """A chain of segments; its length, segment starts and curvature blend
    windows follow from them, and it samples itself."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        if any(seg.length <= 0 for seg in self.segments):
            raise ValueError("every segment must have positive length")
        for prev, nxt in zip(self.segments, self.segments[1:]):
            (x1, y1, psi1, _), (x2, y2, psi2, _) = prev.pose_at(prev.length), nxt.pose_at(0.0)
            if math.hypot(x1 - x2, y1 - y2) > 1e-9 or abs(psi1 - psi2) > 1e-9:
                raise ValueError("segments are not C0-continuous")

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        out = [0.0]
        for seg in self.segments:
            out.append(out[-1] + seg.length)
        return tuple(out)

    @cached_property
    def total_length(self) -> float:
        return self.cumulative[-1]

    @cached_property
    def starts(self) -> tuple[float, ...]:
        """Each segment's start coordinate, for bisect."""
        return self.cumulative[:-1]

    @cached_property
    def blends(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """(z0, z1, k1, k2, width) per junction where the exact curvature
        jumps from k1 to k2; the window [z0, z1] sits on the lower-|kappa|
        side of the junction."""
        segs = self.segments
        kappa = [seg.kappa for seg in segs]
        out = []
        for j in range(1, len(segs)):
            k1, k2 = kappa[j - 1], kappa[j]
            if k1 == k2:
                continue
            sb = self.cumulative[j]
            w = min(_CURVATURE_BLEND, segs[j - 1].length / 2.0, segs[j].length / 2.0)
            if abs(k2) >= abs(k1):
                out.append((sb - w, sb, k1, k2, w))  # ramp up before the sharper segment
            else:
                out.append((sb, sb + w, k1, k2, w))  # hold the sharper value past the junction
        return tuple(out)

    def pose(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x_g, y_g, psi, kappa) at one or more coordinates already inside
        [0, total_length]."""
        return self._pose(s, float(s.min()), float(s.max()))

    def pose_and_curvature(self, s: np.ndarray, lo: float, hi: float):
        """pose(s), then the smoothed curvature and its slope d/ds, at
        coordinates s already inside [0, total_length] whose least and
        greatest entries are lo and hi: one segment lookup serves both.

        Each jump of the exact curvature becomes a C1 smoothstep over its
        blend window, so the magnitude never drops below the exact one:
        gradient consumers get a continuous profile while constraints stay
        conservative. A window that [lo, hi] does not reach holds no sample
        and is skipped.
        """
        x, y, psi, kappa = self._pose(s, lo, hi)
        return x, y, psi, kappa, *self._smoothed(s, kappa.copy(), lo, hi)

    def curvature(self, s: np.ndarray, lo: float, hi: float):
        """pose_and_curvature's smoothed curvature and slope alone, bit for
        bit, without the pose; or None where [lo, hi] lies on one straight
        segment and reaches no blend window, as both are +0.0 throughout
        there."""
        j, k = self._span(lo, hi)
        segs = self.segments
        if j == k and segs[j].kappa == 0.0 and all(z1 < lo or hi < z0 for z0, z1, *_ in self.blends):
            return None
        kappa = np.full(s.shape, segs[j].kappa)
        for i, m in self._masks(s, j, k):
            kappa[m] = segs[i].kappa
        return self._smoothed(s, kappa, lo, hi)

    def _smoothed(self, s: np.ndarray, smooth: np.ndarray, lo: float, hi: float):
        """The smoothing of the exact curvature `smooth`, in place, and its
        slope, over the blend windows that [lo, hi] reaches."""
        dsmooth = np.zeros(s.shape)
        for z0, z1, k1, k2, w in self.blends:
            if z1 < lo or hi < z0:
                continue
            m = (s >= z0) & (s <= z1)
            if m.any():
                t = (s[m] - z0) / w
                smooth[m] = k1 + (k2 - k1) * (3.0 * t * t - 2.0 * t * t * t)
                dsmooth[m] = (k2 - k1) * (6.0 * t - 6.0 * t * t) / w
        return smooth, dsmooth

    def _span(self, lo: float, hi: float) -> tuple[int, int]:
        """The segments of lo and hi: the last whose start is <= each;
        total_length falls in the final one."""
        return bisect_right(self.starts, lo) - 1, bisect_right(self.starts, hi) - 1

    def _masks(self, s: np.ndarray, j: int, k: int):
        """(i, mask of the coordinates on segment i) for segments j+1..k. The
        upper bound only spares work on coordinates a later segment overwrites."""
        starts = self.starts
        for i in range(j + 1, k + 1):
            m = s >= starts[i]
            if i < k:
                m &= s < starts[i + 1]
            yield i, m

    def _pose(self, s: np.ndarray, lo: float, hi: float):
        """pose(s), given the least and greatest coordinates lo and hi:
        segment j's pose fills every coordinate, and each later segment
        overwrites the coordinates that lie on it."""
        j, k = self._span(lo, hi)
        starts, segs = self.starts, self.segments
        x, y, psi, kappa = segs[j].pose_at(s - starts[j])
        for i, m in self._masks(s, j, k):
            x[m], y[m], psi[m], kappa[m] = segs[i].pose_at(s[m] - starts[i])
        return x, y, psi, kappa


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
    s_cr_in: float
    s_cr_out: float
    s_stop: float
    s_icr_out: float

    def __post_init__(self):
        if not (self.s_icr_in < self.s_bsr_in < self.s_cr_in < self.s_cr_out):
            raise ValueError("region bounds out of order")
        if not self.s_stop < self.s_cr_in:
            raise ValueError("stop line must precede the critical region")


@lru_cache(maxsize=256)
def build_path(route: RouteSpec) -> PathSpec:
    """Construct the route's centerline path, driving on the right.

    Straight routes are a single segment through the intersection; turning
    routes are entry straight, quarter-circle arc, exit straight. Raises
    RouteGeometryError when the turn radius does not fit the approach.
    Cached: every vehicle on an equal route shares one PathSpec.
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
        return PathSpec((StraightSegment(start[0], start[1], heading_in, a_len + x_len),))

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
    return PathSpec((entry_seg, arc_seg, exit_seg))


def sample_path(path: PathSpec, s: float) -> PathSample:
    """Evaluate position, heading and curvature at path coordinate s.

    Out-of-range s clamps to the nearest path end.
    """
    s = min(max(float(s), 0.0), path.total_length)
    starts = path.starts
    # last segment whose start is <= s; s == total_length falls in the final one
    idx = bisect_right(starts, s) - 1
    return PathSample(*path.segments[idx].pose_at(s - starts[idx]))


def _crossings(seg: Segment, half: float, radius: float) -> list[float]:
    """Offsets along seg's line or circle, on the segment or off it, where
    it meets x = +-half, y = +-half or the circle x^2 + y^2 = radius^2."""
    if isinstance(seg, StraightSegment):
        dx, dy = math.cos(seg.heading), math.sin(seg.heading)
        out = [(c - p0) / d for p0, d in ((seg.x0, dx), (seg.y0, dy)) if d for c in (-half, half)]
        # |p0 + ds * d|^2 = radius^2 with |d| = 1: ds^2 + 2 b ds + c = 0
        b = seg.x0 * dx + seg.y0 * dy
        disc = b * b - (seg.x0 * seg.x0 + seg.y0 * seg.y0 - radius * radius)
        if disc >= 0.0:
            out += [-b - math.sqrt(disc), -b + math.sqrt(disc)]
        return out
    # each boundary is A cos(a) + B sin(a) = C in the arc's angle a: a =
    # atan2(B, A) +- acos(C / hypot(A, B)), turned from the start as driven
    r, cx, cy = seg.radius, seg.cx, seg.cy
    sgn = 1.0 if seg.sweep >= 0 else -1.0
    equations = [(r, 0.0, c - cx) for c in (-half, half)] + [(0.0, r, c - cy) for c in (-half, half)]
    equations.append((cx, cy, (radius * radius - cx * cx - cy * cy - r * r) / (2.0 * r)))
    out = []
    for a, b, c in equations:
        norm = math.hypot(a, b)
        if norm > 0.0 and abs(c) <= norm:
            mid, spread = math.atan2(b, a), math.acos(c / norm)
            out += [r * ((sgn * (mid + k * spread - seg.start_angle)) % math.tau) for k in (-1.0, 1.0)]
    return out


@lru_cache(maxsize=256)
def compute_regions(
    path: PathSpec,
    geometry: IntersectionGeometry,
    v_max: float,
    a_x_min: float,
) -> RegionBounds:
    """Locate the control/brake-safe/critical region boundaries along a path.

    Each crossing of the critical region's square or the control region's
    circle is a closed-form root on a segment. The roots and the junctions
    cut the path into pieces, each inside or outside as its midpoint is; the
    first and last inside pieces give the bounds, each within a few ulps of
    its boundary, on either side (callers compare path coordinates only).

    The brake-safe window is sized so a vehicle at v_max can stop ahead of
    the critical region with a_x_min plus the configured margin. Cached:
    the scenario check and the run's set-up share one RegionBounds per
    route and vehicle limits.
    """
    if v_max <= 0 or a_x_min >= 0:
        raise ValueError("need v_max > 0 and a_x_min < 0")
    if not path.total_length <= MAX_PATH_LENGTH:
        raise ValueError(f"the path is {path.total_length:g} m long, over {MAX_PATH_LENGTH:g} m")
    half, radius, total = geometry.cr_half_width, geometry.icr_radius, path.total_length
    cuts = set(path.cumulative)
    for start, seg in zip(path.cumulative, path.segments):
        cuts.update(start + ds for ds in _crossings(seg, half, radius) if 0.0 < ds < seg.length)
    cuts = sorted(cuts)
    pieces = [(lo, hi, sample_path(path, 0.5 * (lo + hi))) for lo, hi in zip(cuts, cuts[1:])]
    cr = [(lo, hi) for lo, hi, p in pieces if abs(p.x_g) <= half and abs(p.y_g) <= half]
    icr = [(lo, hi) for lo, hi, p in pieces if math.hypot(p.x_g, p.y_g) <= radius]
    if not cr:
        raise ValueError("path never enters the critical region")
    if cr[0][0] == 0.0:
        raise ValueError("path starts inside the critical region")
    if cr[-1][1] == total:
        raise ValueError("path ends inside the critical region")
    s_cr_in, s_cr_out = cr[0][0], cr[-1][1]
    s_icr_in, s_icr_out = (icr[0][0], icr[-1][1]) if icr else (0.0, total)

    bsr_length = v_max * v_max / (2.0 * abs(a_x_min)) + geometry.brake_margin
    return RegionBounds(
        s_icr_in=s_icr_in,
        s_bsr_in=s_cr_in - bsr_length,
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
    for start, seg in zip(path.cumulative, path.segments):
        s = start + _nearest_offset(seg, px, py)
        p = sample_path(path, s)
        dist = math.hypot(p.x_g - px, p.y_g - py)
        if dist < best[1]:
            best = (s, dist)
    return best
