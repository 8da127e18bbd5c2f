"""Path construction, sampling, and region boundary tests."""

import math
import struct
import warnings
from dataclasses import astuple

import numpy as np
import paths_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intersim.paths import (
    ARMS,
    ArcSegment,
    IntersectionGeometry,
    PathSpec,
    RouteGeometryError,
    RouteSpec,
    StraightSegment,
    build_path,
    compute_regions,
    project_onto_path,
    region_of,
    sample_path,
)

GEOM = IntersectionGeometry()


def straight_ns():
    return build_path(RouteSpec("N", "S"))


def left_turn_wn():
    return build_path(RouteSpec("W", "N"))


# -- build_path ---------------------------------------------------------------


def test_straight_route_passes_through_initial_position():
    path = straight_ns()
    assert len(path.segments) == 1
    p1 = sample_path(path, 2.0)
    assert p1.x_g == pytest.approx(-2.0, abs=1e-9)
    assert p1.y_g == pytest.approx(82.0, abs=1e-9)
    assert p1.psi == pytest.approx(-math.pi / 2, abs=1e-12)
    p2 = sample_path(path, 166.0)
    assert (p2.x_g, p2.y_g) == (pytest.approx(-2.0, abs=1e-9), pytest.approx(-82.0, abs=1e-9))


def test_left_turn_middle_segment_is_quarter_arc():
    path = left_turn_wn()
    assert len(path.segments) == 3
    arc = path.segments[1]
    assert isinstance(arc, ArcSegment)
    assert arc.sweep == pytest.approx(math.pi / 2)
    assert arc.length == pytest.approx(math.pi / 2 * 8.0)


@pytest.mark.parametrize("entry,exit_", [("N", "S"), ("W", "N"), ("E", "W"), ("S", "N"), ("N", "E"), ("S", "W")])
def test_sample_at_zero_is_entry_pose(entry, exit_):
    route = RouteSpec(entry, exit_)
    path = build_path(route)
    start = sample_path(path, 0.0)
    # entry pose: approach_length from the center along the entry lane
    from intersim.paths import _INBOUND, _rot_right

    d = _INBOUND[entry]
    off = _rot_right(d)
    assert start.x_g == pytest.approx(-84.0 * d[0] + 2.0 * off[0], abs=1e-9)
    assert start.y_g == pytest.approx(-84.0 * d[1] + 2.0 * off[1], abs=1e-9)
    assert math.cos(start.psi) == pytest.approx(d[0], abs=1e-12)
    assert math.sin(start.psi) == pytest.approx(d[1], abs=1e-12)


def test_impossible_turn_radius_rejected():
    with pytest.raises(RouteGeometryError):
        build_path(RouteSpec("W", "N", turn_radius=90.0))
    with pytest.raises(ValueError):
        RouteSpec("N", "N")


# -- sample_path --------------------------------------------------------------


def test_straight_segment_sampling():
    path = PathSpec((StraightSegment(0.0, 0.0, 0.0, 10.0),), 10.0)
    p = sample_path(path, 5.0)
    assert (p.x_g, p.y_g, p.psi, p.kappa) == (5.0, 0.0, 0.0, 0.0)


def test_arc_sampling_matches_circle_parameterization():
    # radius-10 circle starting at angle -pi/2; s = 5*pi sweeps to angle 0
    arc = ArcSegment(0.0, 0.0, 10.0, -math.pi / 2, math.pi)
    path = PathSpec((arc,), arc.length)
    s = 5.0 * math.pi
    p = sample_path(path, s)
    assert p.x_g == pytest.approx(10.0, abs=1e-12)
    assert p.y_g == pytest.approx(0.0, abs=1e-9)
    assert p.kappa == pytest.approx(0.1)
    # finite-difference heading check: tangent of counterclockwise motion
    h = 1e-6
    q = sample_path(path, s + h)
    fd_heading = math.atan2(q.y_g - p.y_g, q.x_g - p.x_g)
    assert fd_heading == pytest.approx(p.psi, abs=1e-5)


def test_straight_kappa_is_zero_everywhere():
    path = straight_ns()
    rng = np.random.default_rng(7)
    for s in rng.uniform(0, path.total_length, 50):
        assert sample_path(path, float(s)).kappa == 0.0


def test_out_of_range_sampling_clamps_silently():
    path = straight_ns()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sample_path(path, path.total_length + 5.0)
        before = sample_path(path, -1.0)
    assert astuple(p) == astuple(sample_path(path, path.total_length))
    assert astuple(before) == astuple(sample_path(path, 0.0))


# -- unit-speed and curvature properties --------------------------------------


@pytest.mark.parametrize("maker", [straight_ns, left_turn_wn])
def test_unit_speed_parameterization(maker):
    path = maker()
    rng = np.random.default_rng(42)
    h = 1e-6
    s = rng.uniform(0.0, path.total_length - h, 1000)
    x0, y0, _, _ = path.table.pose(s)
    x1, y1, _, _ = path.table.pose(s + h)
    speed = np.hypot(x1 - x0, y1 - y0) / h
    assert np.all(np.abs(speed - 1.0) < 1e-4)


@pytest.mark.parametrize("maker", [straight_ns, left_turn_wn])
def test_curvature_is_heading_rate(maker):
    path = maker()
    rng = np.random.default_rng(3)
    h = 1e-6
    s = rng.uniform(0.0, path.total_length - h, 1000)
    _, _, psi0, kappa = path.table.pose(s)
    _, _, psi1, _ = path.table.pose(s + h)
    assert np.all(np.abs(kappa * h - (psi1 - psi0)) < 1e-4)


# -- the sampling table -------------------------------------------------------

ROUTE_PATHS = st.builds(
    lambda arms, radius: build_path(RouteSpec(*arms, turn_radius=radius)),
    st.sampled_from([(e, x) for e in ARMS for x in ARMS if e != x]),
    st.sampled_from([4.0, 8.0, 12.0]),
)
FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)


def kernel_points(path, fractions, margin=0.0):
    """Coordinates spread along the path, inside every curvature blend window,
    and at every junction and window edge, kept `margin` inside the ends."""
    table = path.table
    f = np.asarray(fractions)
    pieces = [f * path.total_length, table.cum]
    for z0, z1, *_ in table.blends:
        pieces += [z0 + f * (z1 - z0), np.array([z0, z1])]
    return np.clip(np.concatenate(pieces), margin, path.total_length - margin)


@settings(deadline=None)
@given(ROUTE_PATHS, FRACTIONS)
def test_kernel_matches_scalar_sampler(path, fractions):
    s = kernel_points(path, fractions)
    x, y, psi, kappa = path.table.pose(s)
    scalar = [sample_path(path, float(v)) for v in s]
    # array and scalar cosines may differ in the last ulp; nothing else does
    np.testing.assert_allclose(x, [p.x_g for p in scalar], rtol=0, atol=1e-12)
    np.testing.assert_allclose(y, [p.y_g for p in scalar], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(psi, [p.psi for p in scalar])
    np.testing.assert_array_equal(kappa, [p.kappa for p in scalar])


@settings(deadline=None)
@given(ROUTE_PATHS, FRACTIONS)
def test_smoothed_curvature_bounds_exact_magnitude(path, fractions):
    s = kernel_points(path, fractions)
    kappa = path.table.pose(s)[3]
    smooth, _ = path.table.smoothed(s, kappa)
    assert np.all(np.abs(smooth) >= np.abs(kappa))


@settings(deadline=None)
@given(ROUTE_PATHS, FRACTIONS)
def test_curvature_slope_matches_central_differences(path, fractions):
    h = 1e-6
    table = path.table

    def smoothed(at):
        return table.smoothed(at, table.pose(at)[3])

    s = kernel_points(path, fractions, margin=h)
    _, slope = smoothed(s)
    above, _ = smoothed(s + h)
    below, _ = smoothed(s - h)
    np.testing.assert_allclose(slope, (above - below) / (2.0 * h), rtol=0, atol=1e-5)


def masked_loop_pose(path, s):
    """Pose oracle: the per-segment masked loop that pose() replaced, one
    boolean mask and one formula per segment."""
    cum = np.asarray(path.cumulative)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(path.segments) - 1)
    ds = s - cum[idx]
    x, y, psi, kappa = (np.empty_like(s) for _ in range(4))
    for i, seg in enumerate(path.segments):
        m = idx == i
        if not m.any():
            continue
        if isinstance(seg, StraightSegment):
            x[m] = seg.x0 + ds[m] * math.cos(seg.heading)
            y[m] = seg.y0 + ds[m] * math.sin(seg.heading)
            psi[m] = seg.heading
            kappa[m] = 0.0
        else:
            sgn = 1.0 if seg.sweep >= 0 else -1.0
            ang = seg.start_angle + sgn * ds[m] / seg.radius
            x[m] = seg.cx + seg.radius * np.cos(ang)
            y[m] = seg.cy + seg.radius * np.sin(ang)
            psi[m] = ang + sgn * math.pi / 2.0
            kappa[m] = sgn / seg.radius
    return x, y, psi, kappa


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("radius", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("arms", [(e, x) for e in ARMS for x in ARMS if e != x])
def test_pose_matches_masked_loop_oracle_bit_for_bit(arms, radius):
    path = build_path(RouteSpec(*arms, turn_radius=radius))
    total = path.total_length
    # the dense compute_regions grid
    grid = np.arange(0.0, total + 0.05, 0.05)
    grid[-1] = total
    assert_same_bits(path.table.pose(grid), masked_loop_pose(path, grid))
    # 50-point horizons: random windows, windows across every junction and
    # blend-window edge, and the path end; plus the junctions themselves
    rng = np.random.default_rng(len(arms[0] + arms[1]) * 100 + int(radius))
    marks = [*path.table.cum, *(z for b in path.table.blends for z in b[:2])]
    starts = [*rng.uniform(0.0, total - 30.0, 8), *(max(0.0, m - 3.0) for m in marks)]
    for s0 in starts:
        s = np.minimum(s0 + np.sort(rng.uniform(0.0, 6.0, 50)), total)
        assert_same_bits(path.table.pose(s), masked_loop_pose(path, s))
    at = np.asarray(marks)
    assert_same_bits(path.table.pose(at), masked_loop_pose(path, at))


def test_pose_matches_masked_loop_oracle_on_two_arcs():
    # an S-bend: left quarter arc, right quarter arc, then a straight
    left = ArcSegment(0.0, 10.0, 10.0, -math.pi / 2, math.pi / 2)
    right = ArcSegment(20.0, 10.0, 10.0, math.pi, -math.pi / 2)
    exit_ = StraightSegment(*right.end_pose()[:2], 0.0, 5.0)
    path = PathSpec((left, right, exit_), left.length + right.length + 5.0)
    s = np.linspace(0.0, path.total_length, 997)
    assert_same_bits(path.table.pose(s), masked_loop_pose(path, s))


def test_shared_table_is_read_only():
    table = build_path(RouteSpec("S", "E")).table
    arrays = [arr for arr in vars(table).values() if isinstance(arr, np.ndarray)]
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError, match="read-only"):
        table.cum[1] = 0.0


def test_c0_continuity_validation():
    good = left_turn_wn()
    assert len(good.segments) == 3
    with pytest.raises(ValueError):
        PathSpec(
            (StraightSegment(0, 0, 0, 5), StraightSegment(5.1, 0, 0, 5)),
            10.0,
        )


# -- compute_regions ----------------------------------------------------------


def test_straight_cr_crossings_at_square_boundary():
    path = straight_ns()
    bounds = compute_regions(path, GEOM, 15.0, -7.0)
    # start y=84, CR entered at y=+6 and left at y=-6
    assert bounds.s_cr_in == pytest.approx(78.0, abs=1e-6)
    assert bounds.s_cr_out == pytest.approx(90.0, abs=1e-6)


def test_bsr_length_from_braking_distance():
    path = straight_ns()
    bounds = compute_regions(path, GEOM, 15.0, -7.0)
    expected = 15.0**2 / 14.0 + 2.0
    assert bounds.s_cr_in - bounds.s_bsr_in == pytest.approx(expected, abs=1e-6)
    assert bounds.s_bsr_out == bounds.s_cr_in


def test_stop_line_setback():
    path = straight_ns()
    bounds = compute_regions(path, GEOM, 15.0, -7.0)
    assert bounds.s_stop == pytest.approx(bounds.s_cr_in - 1.0, abs=1e-9)


def test_icr_entry_at_configured_radius():
    path = straight_ns()
    bounds = compute_regions(path, GEOM, 15.0, -7.0)
    p = sample_path(path, bounds.s_icr_in)
    assert math.hypot(p.x_g, p.y_g) == pytest.approx(70.0, abs=1e-6)
    q = sample_path(path, bounds.s_icr_out)
    assert math.hypot(q.x_g, q.y_g) == pytest.approx(70.0, abs=1e-6)


def test_path_missing_cr_is_rejected():
    # a short path that stays far from the center
    path = PathSpec((StraightSegment(50.0, 50.0, 0.0, 10.0),), 10.0)
    with pytest.raises(ValueError):
        compute_regions(path, GEOM, 15.0, -7.0)


def bits(sample):
    return struct.pack("<%dd" % len(astuple(sample)), *astuple(sample))


@pytest.mark.parametrize("radius", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("arms", [(e, x) for e in ARMS for x in ARMS if e != x])
def test_regions_and_samples_match_reference_bit_for_bit(arms, radius):
    path = build_path(RouteSpec(*arms, turn_radius=radius))
    other = IntersectionGeometry(cr_half_width=8.0, icr_radius=50.0, brake_margin=1.0, stop_setback=2.0)
    for geometry in (GEOM, other):
        for v_max in (15.0, 10.0):
            got = compute_regions(path, geometry, v_max, -7.0)
            assert bits(got) == bits(paths_reference.compute_regions(path, geometry, v_max, -7.0))
    total = path.total_length
    at = [0.0, total]
    for junction in path.cumulative[1:-1]:
        at += [math.nextafter(junction, 0.0), junction, math.nextafter(junction, total)]
    for s in at:
        assert bits(sample_path(path, s)) == bits(paths_reference.sample_path(path, s))


# -- region_of ----------------------------------------------------------------


def test_region_classification_boundaries():
    path = straight_ns()
    b = compute_regions(path, GEOM, 15.0, -7.0)
    assert region_of(b, b.s_icr_in - 1.0) == "outside"
    assert region_of(b, b.s_icr_in) == "icr"
    assert region_of(b, b.s_bsr_in) == "bsr"
    assert region_of(b, b.s_cr_in) == "cr"  # lower bound inclusive
    assert region_of(b, b.s_cr_out) == "past"  # upper bound exclusive
    assert region_of(b, b.s_cr_out - 1e-9) == "cr"


@pytest.mark.parametrize("maker", [straight_ns, left_turn_wn])
def test_region_labels_monotone_along_path(maker):
    path = maker()
    b = compute_regions(path, GEOM, 15.0, -7.0)
    order = ["outside", "icr", "bsr", "cr", "past"]
    labels = [region_of(b, s) for s in np.linspace(0, path.total_length, 4000)]
    indices = [order.index(l) for l in labels]
    assert all(i2 >= i1 for i1, i2 in zip(indices, indices[1:]))


# -- projection ---------------------------------------------------------------


def test_project_onto_path_recovers_initial_positions():
    # points on an entry straight project to their exact coordinate
    assert project_onto_path(straight_ns(), -2.0, 82.0) == (2.0, pytest.approx(0.0, abs=1e-12))
    assert project_onto_path(left_turn_wn(), -81.0, -2.0) == (3.0, pytest.approx(0.0, abs=1e-12))
    s2, d2 = project_onto_path(straight_ns(), -4.0, 82.0)
    assert s2 == pytest.approx(2.0, abs=1e-12)
    assert d2 == pytest.approx(2.0, abs=1e-12)


def projection_probes(path, rng):
    """Points spread over the intersection, beyond both path ends, and at,
    beside and opposite every arc centre."""
    pts = [*rng.uniform(-100.0, 100.0, (40, 2))]
    for s, ahead in ((0.0, -1.0), (path.total_length, 1.0)):
        p = sample_path(path, s)
        for along, side in ((5.0, 0.0), (5.0, 3.0), (0.5, -1.0), (100.0, 20.0)):
            pts.append((
                p.x_g + ahead * along * math.cos(p.psi) - side * math.sin(p.psi),
                p.y_g + ahead * along * math.sin(p.psi) + side * math.cos(p.psi),
            ))
    for seg in path.segments:
        if isinstance(seg, ArcSegment):
            mid = seg.start_angle + seg.sweep / 2.0
            pts.append((seg.cx, seg.cy))
            pts += list(np.array([seg.cx, seg.cy]) + rng.normal(0.0, 1e-3, (4, 2)))
            for k in (0.5, 1.5):
                pts.append((seg.cx - k * seg.radius * math.cos(mid), seg.cy - k * seg.radius * math.sin(mid)))
    return [(float(x), float(y)) for x, y in pts]


def assert_projection_is_nearest(path, rng):
    from scipy.optimize import minimize_scalar

    cum = path.cumulative
    for px, py in projection_probes(path, rng):
        s, dist = project_onto_path(path, px, py)
        assert 0.0 <= s <= path.total_length
        p = sample_path(path, s)
        assert abs(math.hypot(p.x_g - px, p.y_g - py) - dist) <= 1e-12

        def gap(at):
            q = sample_path(path, at)
            return math.hypot(q.x_g - px, q.y_g - py)

        reference = min(
            minimize_scalar(gap, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}).fun
            for lo, hi in zip(cum, cum[1:])
        )
        assert dist <= reference + 1e-9


@pytest.mark.parametrize("radius", [4.0, 8.0, 12.0])
@pytest.mark.parametrize("arms", [(e, x) for e in ARMS for x in ARMS if e != x])
def test_projection_is_nearest_against_per_segment_minimisation(arms, radius):
    path = build_path(RouteSpec(*arms, turn_radius=radius))
    assert_projection_is_nearest(path, np.random.default_rng(len(arms[0] + arms[1]) * 100 + int(radius)))


def test_projection_is_nearest_on_a_path_that_starts_and_ends_on_arcs():
    # no straight beside the end arcs covers their clamped ends
    left = ArcSegment(0.0, 10.0, 10.0, -math.pi / 2, math.pi / 2)
    right = ArcSegment(20.0, 10.0, 10.0, math.pi, -math.pi / 2)
    path = PathSpec((left, right), left.length + right.length)
    assert_projection_is_nearest(path, np.random.default_rng(11))


def test_sign_of_zero_lane_offset_reaches_no_sample():
    """-0.0 and 0.0 share one build_path cache entry; uncached, the two
    paths differ only in the sign of a stored segment start coordinate."""
    build = build_path.__wrapped__
    for entry, exit_ in [(e, x) for e in ARMS for x in ARMS if e != x]:
        plus = build(RouteSpec(entry, exit_, lane_offset=0.0))
        minus = build(RouteSpec(entry, exit_, lane_offset=-0.0))
        grid = np.append(np.arange(0.0, plus.total_length, 0.05), plus.total_length)
        assert_same_bits(minus.table.pose(grid), plus.table.pose(grid))
        for s in [*plus.cumulative, 1.0, 100.0]:
            assert bits(sample_path(minus, s)) == bits(sample_path(plus, s))
        probes = projection_probes(plus, np.random.default_rng(5)) + [(0.0, 0.0), (-0.0, -0.0)]
        for px, py in probes:
            got, want = project_onto_path(minus, px, py), project_onto_path(plus, px, py)
            assert struct.pack("<2d", *got) == struct.pack("<2d", *want)
