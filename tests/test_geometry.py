"""Oriented-box geometry, overlap measures, and conflict-set assembly tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersim import geometry
from intersim.auction import run_cbaam
from intersim.dynamics import AgentParams, AgentState
from intersim.geometry import (
    AgentView,
    OrientedBox,
    SafetyMargins,
    ahead_set,
    area_overlap,
    bounding_box,
    box_distance,
    conflict_sets,
    paths_conflict,
    safety_region,
    smooth_overlap_core,
)
from intersim.network import Topology
from intersim.paths import (
    ARMS,
    IntersectionGeometry,
    PathSample,
    RouteSpec,
    build_path,
    compute_regions,
    project_onto_path,
    sample_path,
)

PARAMS = AgentParams(0.3, -7.0, 4.0, 15.0, 3.5, 7.0, 5.0, 2.0, 1.0, 1.0, 20.0, 14.0)
MARGINS = SafetyMargins()


def mc_overlap(box_a: OrientedBox, box_b: OrientedBox, rng, n=1_000_000):
    """Monte-Carlo overlap-area oracle: sample uniformly inside the first box."""
    u = rng.uniform(-box_a.half_length, box_a.half_length, n)
    w = rng.uniform(-box_a.half_width, box_a.half_width, n)
    c, s = math.cos(box_a.heading), math.sin(box_a.heading)
    px = box_a.cx + u * c - w * s
    py = box_a.cy + u * s + w * c

    cb, sb = math.cos(box_b.heading), math.sin(box_b.heading)
    dx = px - box_b.cx
    dy = py - box_b.cy
    ub = dx * cb + dy * sb
    wb = -dx * sb + dy * cb
    hits = (np.abs(ub) <= box_b.half_length) & (np.abs(wb) <= box_b.half_width)
    area_a = 4.0 * box_a.half_length * box_a.half_width
    return area_a * hits.mean()


# -- bounding_box -------------------------------------------------------------


def test_axis_aligned_corners():
    box = bounding_box(PathSample(0, 0, 0, 0), 5.0, 2.0)
    corners = {tuple(np.round(c, 9)) for c in box.corners()}
    assert corners == {(2.5, 1.0), (-2.5, 1.0), (-2.5, -1.0), (2.5, -1.0)}


def test_quarter_turn_corners():
    box = bounding_box(PathSample(0, 0, math.pi / 2, 0), 5.0, 2.0)
    corners = {tuple(np.round(c, 9)) for c in box.corners()}
    assert corners == {(1.0, 2.5), (-1.0, 2.5), (-1.0, -2.5), (1.0, -2.5)}


def test_diagonal_extent():
    box = bounding_box(PathSample(0, 0, math.pi / 4, 0), 5.0, 2.0)
    x_extent = box.corners()[:, 0].max()
    assert x_extent == pytest.approx((2.5 + 1.0) / math.sqrt(2), abs=1e-9)


# -- safety_region ------------------------------------------------------------


def assert_stretched(region, me, extension):
    """The footprint plus margins, grown by half the extension at the nose."""
    half = extension / 2.0
    assert region.half_length == pytest.approx(2.5 + MARGINS.long + half)
    assert region.half_width == pytest.approx(1.0 + MARGINS.lat)
    assert region.heading == me.psi
    assert region.cx == pytest.approx(me.x_g + half * math.cos(me.psi))
    assert region.cy == pytest.approx(me.y_g + half * math.sin(me.psi))


def test_stationary_pair_has_base_region_only():
    me = PathSample(0, 0, 0, 0)
    other = PathSample(20, 0, 0, 0)
    region = safety_region(me, PARAMS, other, 0.0, 0.0, MARGINS)
    assert (region.cx, region.cy) == (0.0, 0.0)
    assert_stretched(region, me, 0.0)


def test_perpendicular_crossing_extension():
    me = PathSample(0, 0, 0, 0)
    other = PathSample(20, 0, math.pi / 2, 0)  # crossing: zero projection
    region = safety_region(me, PARAMS, other, 10.0, 14.0, MARGINS)
    assert_stretched(region, me, 0.5 * 14.0)


def test_matched_speed_leader_no_extension():
    me = PathSample(0, 0, 0, 0)
    other = PathSample(20, 0, 0, 0)
    region = safety_region(me, PARAMS, other, 14.0, 14.0, MARGINS)
    assert (region.cx, region.cy) == (0.0, 0.0)
    assert_stretched(region, me, 0.0)


def test_region_box_extends_forward_only():
    me = PathSample(0, 0, 0, 0)
    other = PathSample(20, 0, math.pi / 2, 0)
    region = safety_region(me, PARAMS, other, 0.0, 10.0, MARGINS)
    xs = region.corners()[:, 0]
    assert xs.max() == pytest.approx(2.5 + MARGINS.long + 5.0)
    assert xs.min() == pytest.approx(-(2.5 + MARGINS.long))


# -- area_overlap ---------------------------------------------------------------


def unit_square(cx=0.0, cy=0.0, heading=0.0):
    return OrientedBox(cx, cy, heading, 0.5, 0.5)


def test_disjoint_boxes_zero_overlap():
    assert area_overlap(unit_square(), unit_square(100.0, 0.0)) == 0.0


def test_identical_squares_full_overlap():
    assert area_overlap(unit_square(), unit_square()) == pytest.approx(1.0, abs=1e-12)


def test_half_offset_squares():
    value = area_overlap(unit_square(), unit_square(0.5, 0.0))
    assert value == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(0)
    assert mc_overlap(unit_square(), unit_square(0.5, 0.0), rng) == pytest.approx(0.5, abs=1e-2)


def test_overlap_symmetry_for_plain_boxes():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = OrientedBox(*rng.uniform(-2, 2, 2), rng.uniform(0, math.pi), *rng.uniform(0.5, 3, 2))
        b = OrientedBox(*rng.uniform(-2, 2, 2), rng.uniform(0, math.pi), *rng.uniform(0.5, 3, 2))
        assert area_overlap(a, b) == pytest.approx(area_overlap(b, a), abs=1e-9)


def test_overlap_monotone_in_margins():
    me = PathSample(0, 0, 0.3, 0)
    other = PathSample(4.0, 1.0, 1.2, 0)
    last = -1.0
    for extra in (0.0, 0.5, 1.0, 2.0):
        margins = SafetyMargins(long=MARGINS.long + extra, lat=MARGINS.lat + extra)
        region = safety_region(me, PARAMS, other, 0.0, 0.0, margins)
        value = area_overlap(region, bounding_box(other, 5.0, 2.0))
        assert value >= last - 1e-12
        last = value


def test_exact_overlap_matches_monte_carlo_on_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(100):
        a = OrientedBox(*rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 2 * math.pi), *rng.uniform(0.4, 1.5, 2))
        b = OrientedBox(*rng.uniform(-1.5, 1.5, 2), rng.uniform(0, 2 * math.pi), *rng.uniform(0.4, 1.5, 2))
        exact = area_overlap(a, b)
        approx = mc_overlap(a, b, rng)
        assert exact == pytest.approx(approx, abs=1e-2)


def test_boxes_with_collinear_edges_overlap_finitely():
    """Rotated boxes sharing the lines of their long edges: rounding put the
    clip's crossing test and its parallel edges at odds, and the crossing
    point divided by zero (area nan)."""
    wide, narrow = OrientedBox(0.0, 2.0, 2.0, 1.0, 2.0), OrientedBox(0.0, 2.0, 2.0, 1.0, 1.0)
    assert area_overlap(wide, narrow) == pytest.approx(4.0, abs=1e-12)
    assert area_overlap(narrow, wide) == pytest.approx(4.0, abs=1e-12)


def clipped_area(a: OrientedBox, b: OrientedBox) -> float:
    """area_overlap without its distance pre-filter: the polygon clip alone."""
    return geometry._polygon_area(geometry._clip_polygon(a.corners(), b.corners()))


def test_boxes_out_of_reach_are_not_clipped(monkeypatch):
    def clip(*args):
        raise AssertionError("clipped a pair that cannot overlap")

    monkeypatch.setattr(geometry, "_clip_polygon", clip)
    diagonal = math.hypot(0.5, 0.5)
    assert area_overlap(unit_square(), unit_square(2 * diagonal + 1e-3, 0.0, 0.7)) == 0.0
    with pytest.raises(AssertionError):
        area_overlap(unit_square(), unit_square(2 * diagonal - 1e-3, 0.0, 0.7))


boxes = st.builds(
    OrientedBox,
    cx=st.floats(-12.0, 12.0),
    cy=st.floats(-12.0, 12.0),
    heading=st.floats(-math.pi, math.pi),
    half_length=st.floats(0.1, 6.0),
    half_width=st.floats(0.1, 3.0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        OrientedBox,
        cx=st.floats(-500.0, 500.0),
        cy=st.floats(-500.0, 500.0),
        heading=st.floats(-math.pi, math.pi),
        half_length=st.floats(0.1, 6.0),
        half_width=st.floats(0.1, 3.0),
    )
)
def test_corners_are_counterclockwise(box):
    """The clip takes corners as they come, so their shoelace sum must be
    positive wherever a vehicle can be."""
    corners = box.corners()
    area2 = 0.0
    for k in range(4):
        x1, y1 = corners[k]
        x2, y2 = corners[(k + 1) % 4]
        area2 += x1 * y2 - x2 * y1
    assert area2 > 0.0


@settings(max_examples=300, deadline=None)
@given(boxes, boxes)
def test_prefilter_matches_clip_on_random_boxes(a, b):
    assert area_overlap(a, b) == clipped_area(a, b)


touching = dict(
    a=boxes,
    half_length=st.floats(0.1, 6.0),
    half_width=st.floats(0.1, 3.0),
    corner=st.sampled_from([(1, 1), (-1, 1), (-1, -1), (1, -1)]),
    gap=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, -1e-12, -1e-9]) | st.floats(-1e-3, 1e-3),
    spin=st.floats(-0.5, 0.5),
)


def corner_to_corner(a, half_length, half_width, corner, gap, spin):
    """A second box placed corner to corner with the first along the line
    through their centres, at the filter's boundary (both half-diagonals
    apart, plus `gap`), or turned by `spin` about its touching corner's
    direction so the corners no longer face each other."""
    ex, ey = corner[0] * a.half_length, corner[1] * a.half_width
    c, s = math.cos(a.heading), math.sin(a.heading)
    toward = math.atan2(ex * s + ey * c, ex * c - ey * s)  # a's corner, seen from its centre
    reach = math.hypot(a.half_length, a.half_width) + math.hypot(half_length, half_width) + gap
    # the second box's corner (-half_length, -half_width) faces back along the line
    heading = toward + math.pi - math.atan2(-half_width, -half_length) + spin
    return OrientedBox(a.cx + reach * math.cos(toward), a.cy + reach * math.sin(toward),
                       heading, half_length, half_width)


@settings(max_examples=300, deadline=None)
@given(**touching)
def test_prefilter_matches_clip_on_touching_boxes(a, half_length, half_width, corner, gap, spin):
    b = corner_to_corner(a, half_length, half_width, corner, gap, spin)
    assert area_overlap(a, b) == clipped_area(a, b)
    assert area_overlap(b, a) == clipped_area(b, a)


def test_box_distance_zero_iff_overlapping():
    assert box_distance(unit_square(), unit_square(0.3, 0.0)) == 0.0
    assert box_distance(unit_square(), unit_square(3.0, 0.0)) == pytest.approx(2.0, abs=1e-9)


def loop_box_distance(first: OrientedBox, second: OrientedBox) -> float:
    """Clearance oracle: the vertex-to-segment loop that box_distance's array
    form replaced, one corner and one edge at a time."""
    if area_overlap(first, second) > 0.0:
        return 0.0
    c1, c2 = first.corners(), second.corners()
    best = math.inf
    for poly_a, poly_b in ((c1, c2), (c2, c1)):
        for p in poly_a:
            for k in range(4):
                a, b = poly_b[k], poly_b[(k + 1) % 4]
                ab = b - a
                t = float(np.dot(p - a, ab) / max(np.dot(ab, ab), 1e-300))
                t = min(max(t, 0.0), 1.0)
                best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return best


def assert_box_distance_matches_loop(a, b):
    """Bit for bit: both compute each dot product with np.dot's kernel."""
    for first, second in ((a, b), (b, a)):
        got, want = box_distance(first, second), loop_box_distance(first, second)
        assert got == want, (got, want)


@settings(max_examples=300, deadline=None)
@given(boxes, boxes)
def test_box_distance_matches_loop_on_random_boxes(a, b):
    assert_box_distance_matches_loop(a, b)


@settings(max_examples=300, deadline=None)
@given(**touching)
def test_box_distance_matches_loop_on_touching_boxes(a, half_length, half_width, corner, gap, spin):
    assert_box_distance_matches_loop(a, corner_to_corner(a, half_length, half_width, corner, gap, spin))


@pytest.mark.parametrize("offset", [0.0, 0.3, 0.999, 1.0, 1.0 + 1e-12, 1.5])
@pytest.mark.parametrize("heading", [0.0, 0.4, math.pi / 4])
def test_box_distance_matches_loop_side_by_side(offset, heading):
    """Unit squares edge to edge (touching at offset 1 when aligned),
    overlapping, and apart."""
    assert_box_distance_matches_loop(unit_square(), unit_square(offset, 0.0, heading))
    assert_box_distance_matches_loop(unit_square(0.0, 0.0, heading), unit_square(0.0, offset))


# -- smooth_overlap_core ----------------------------------------------------------


def surrogate(crx, cry, theta, a_r, b_r, cox, coy, theta_o, a_o, b_o, beta):
    """smooth_overlap_core given the two headings rather than their cosines and sines."""
    delta = theta_o - theta
    return smooth_overlap_core(
        crx, cry, np.cos(theta), np.sin(theta), a_r, b_r,
        cox, coy, np.cos(delta), np.sin(delta), a_o, b_o, beta,
    )


def smooth_overlap(a: OrientedBox, b: OrientedBox, beta: float) -> float:
    value, _ = surrogate(
        a.cx, a.cy, a.heading, a.half_length, a.half_width,
        b.cx, b.cy, b.heading, b.half_length, b.half_width,
        beta,
    )
    return float(value)


def test_far_apart_smooth_overlap_tiny():
    assert smooth_overlap(unit_square(), unit_square(100.0, 0.0), 10.0) < 1e-6


def test_identical_squares_conservative():
    value = smooth_overlap(unit_square(), unit_square(), 10.0)
    assert value >= 1.0  # softplus upper-bounds the hinge product (exactly 1 here)


def test_smooth_dominates_exact_overlap():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = OrientedBox(*rng.uniform(-2, 2, 2), rng.uniform(0, math.pi), *rng.uniform(0.5, 2.5, 2))
        b = OrientedBox(*rng.uniform(-2, 2, 2), rng.uniform(0, math.pi), *rng.uniform(0.5, 2.5, 2))
        smooth = smooth_overlap(a, b, 4.0)
        assert smooth >= 0.0
        assert smooth >= area_overlap(a, b) - 1e-9
        if smooth == 0.0:  # conservatism direction of the implication
            assert area_overlap(a, b) == 0.0


def test_smooth_gradient_wrt_other_center():
    rng = np.random.default_rng(21)
    beta = 4.0
    for _ in range(30):
        args = dict(
            crx=rng.uniform(-1, 1), cry=rng.uniform(-1, 1), theta=rng.uniform(0, math.pi),
            a_r=rng.uniform(0.5, 3), b_r=rng.uniform(0.5, 2),
            cox=rng.uniform(-2, 2), coy=rng.uniform(-2, 2), theta_o=rng.uniform(0, math.pi),
            a_o=rng.uniform(0.5, 3), b_o=rng.uniform(0.5, 2),
        )
        d_crx, d_cry, _, _ = surrogate(beta=beta, **args)[1]()
        h = 1e-6
        # the other centre enters only through the offset between the centres
        for key, grad in (("cox", -d_crx), ("coy", -d_cry)):
            hi = dict(args); hi[key] += h
            lo = dict(args); lo[key] -= h
            fd = (surrogate(beta=beta, **hi)[0] - surrogate(beta=beta, **lo)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_smooth_gradient_wrt_region_parameters():
    rng = np.random.default_rng(22)
    beta = 4.0
    for _ in range(30):
        args = dict(
            crx=rng.uniform(-1, 1), cry=rng.uniform(-1, 1), theta=rng.uniform(0, math.pi),
            a_r=rng.uniform(0.5, 3), b_r=rng.uniform(0.5, 2),
            cox=rng.uniform(-2, 2), coy=rng.uniform(-2, 2), theta_o=rng.uniform(0, math.pi),
            a_o=rng.uniform(0.5, 3), b_o=rng.uniform(0.5, 2),
        )
        d_crx, d_cry, d_theta, d_ar = surrogate(beta=beta, **args)[1]()
        h = 1e-6
        for key, grad in (("crx", d_crx), ("cry", d_cry), ("theta", d_theta), ("a_r", d_ar)):
            hi = dict(args); hi[key] += h
            lo = dict(args); lo[key] -= h
            fd = (surrogate(beta=beta, **hi)[0] - surrogate(beta=beta, **lo)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-9)


# -- path conflicts and conflict sets ------------------------------------------------


GEOM = IntersectionGeometry()


def make_view(route, s, v=14.0):
    path = build_path(route)
    bounds = compute_regions(path, GEOM, PARAMS.v_max, PARAMS.a_x_min)
    return AgentView(AgentState(0.0, v, s), path, bounds, PARAMS, sample_path(path, s))


def test_crossing_paths_conflict_but_parallel_lanes_do_not():
    ns = make_view(RouteSpec("N", "S"), 0.0)
    sn = make_view(RouteSpec("S", "N"), 0.0)
    ew = make_view(RouteSpec("E", "W"), 0.0)
    wn = make_view(RouteSpec("W", "N"), 0.0)

    def conflict(a, b):
        return paths_conflict(a.path, a.bounds, b.path, b.bounds, 2.0, 2.0, GEOM.cr_half_width)

    assert conflict(ns, ew)       # perpendicular crossing
    assert not conflict(ns, sn)   # opposite parallel lanes
    assert conflict(wn, ns)       # left turn across the oncoming straight
    assert conflict(wn, sn)       # merge onto the same exit lane
    assert conflict(wn, ew)


def test_ahead_set_same_lane_window():
    views = {
        1: make_view(RouteSpec("N", "S"), 10.0),
        2: make_view(RouteSpec("N", "S"), 30.0),   # 20 m ahead, same lane
        3: make_view(RouteSpec("N", "S"), 90.0),   # 80 m ahead: outside window
        4: make_view(RouteSpec("S", "N"), 10.0),   # opposite lane
    }
    assert ahead_set(1, views) == {2}
    assert ahead_set(2, views) == set()


ROUTES = [RouteSpec(e, x) for e in ARMS for x in ARMS if e != x]


@st.composite
def traffic(draw):
    """Up to seven vehicles on few routes, so some share a lane."""
    routes = draw(st.lists(st.sampled_from(ROUTES[:4]) | st.sampled_from(ROUTES), min_size=2, max_size=7))
    views = {}
    for k, route in enumerate(routes, start=1):
        path = build_path(route)
        s = draw(st.floats(0.0, path.total_length))
        views[k] = make_view(route, s)
    return views, draw(st.floats(1.0, 120.0))


@settings(max_examples=40, deadline=None)
@given(traffic())
def test_ahead_set_prefilter_changes_no_set(case):
    views, window = case
    for i, me in views.items():
        unfiltered = set()
        for l, view in views.items():
            if l == i:
                continue
            s_proj, lateral = project_onto_path(me.path, view.pose.x_g, view.pose.y_g)
            if lateral < me.params.width and 0.0 < s_proj - me.state.s <= window:
                unfiltered.add(l)
        assert ahead_set(i, views, window) == unfiltered


ALL_CROSS = frozenset({1, 2, 3})  # the route of every agent below conflicts with every other


def test_conflict_sets_by_region():
    # far outside the control region: rear-end only
    views = {
        1: make_view(RouteSpec("N", "S"), 0.0),
        2: make_view(RouteSpec("N", "S"), 20.0),
    }
    assert conflict_sets(1, views, frozenset({2}), ALL_CROSS) == {2}

    # inside the control region: union with the crossing set
    views_in = {
        1: make_view(RouteSpec("N", "S"), 30.0),
        2: make_view(RouteSpec("N", "S"), 45.0),
        3: make_view(RouteSpec("E", "W"), 30.0),
    }
    assert ahead_set(1, views_in) == {2}
    assert conflict_sets(1, views_in, frozenset({3}), ALL_CROSS) == {2, 3}

    # nobody ahead, outside control region
    assert conflict_sets(1, {1: make_view(RouteSpec("N", "S"), 0.0)}, frozenset(), ALL_CROSS) == set()


def test_conflict_sets_crossing_filter():
    order, _ = run_cbaam({1: 9.0, 2: 5.0, 3: 3.0}, Topology.complete([1, 2, 3]))
    higher = {agent: frozenset(order[:pos]) for pos, agent in enumerate(order)}
    assert higher[1] == frozenset() and higher[3] == {1, 2}
    views = {
        1: make_view(RouteSpec("W", "E"), 95.0),  # past its s_cr_out of 90 m
        2: make_view(RouteSpec("E", "W"), 50.0),
        3: make_view(RouteSpec("N", "S"), 40.0),
    }
    assert all(ahead_set(i, views) == set() for i in views)

    # top-priority agent: no crossing partner regardless
    assert conflict_sets(1, views, higher[1], ALL_CROSS) == set()
    # agent 1 has higher priority than 3 but already left its critical region
    assert conflict_sets(3, views, higher[3], ALL_CROSS) == {2}
    # non-conflicting routes are excluded
    assert conflict_sets(3, views, higher[3], frozenset()) == set()
    # outside the control region no crossing partner is added
    views[3] = make_view(RouteSpec("N", "S"), 10.0)
    assert views[3].state.s < views[3].bounds.s_icr_in
    assert conflict_sets(3, views, higher[3], ALL_CROSS) == set()
