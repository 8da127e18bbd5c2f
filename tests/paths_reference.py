"""Reference region finder: `compute_regions` and the scalar `sample_path` as
they were before the scalar sampler found its segment with `bisect`, each
probe locating its segment with a numpy `searchsorted` on one float.

Kept to check that `intersim.paths` returns the same region bounds and
samples bit for bit. Uncached, with its own bisection, so that spying on or
clearing the program's caches leaves it untouched.
"""

import math

import numpy as np

from intersim.paths import PathSample, RegionBounds, StraightSegment

_REGION_SCAN_STEP = 0.05


def sample_path(path, s):
    if s < 0.0 or s > path.total_length:
        s = min(max(s, 0.0), path.total_length)
    cum = path.table.cum
    # last segment whose start is <= s; s == total_length falls in the final one
    idx = min(int(np.searchsorted(cum, s, side="right")) - 1, len(path.segments) - 1)
    seg = path.segments[idx]
    ds = s - float(cum[idx])
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


def _refine_crossing(inside, s_out, s_in, tol=1e-10):
    for _ in range(80):
        mid = 0.5 * (s_out + s_in)
        if inside(mid):
            s_in = mid
        else:
            s_out = mid
        if abs(s_in - s_out) < tol:
            break
    return s_in


def compute_regions(path, geometry, v_max, a_x_min):
    if v_max <= 0 or a_x_min >= 0:
        raise ValueError("need v_max > 0 and a_x_min < 0")
    half = geometry.cr_half_width
    grid = np.arange(0.0, path.total_length + _REGION_SCAN_STEP, _REGION_SCAN_STEP)
    grid[-1] = path.total_length
    x, y, _, _ = path.table.pose(grid)

    in_cr = (np.abs(x) <= half) & (np.abs(y) <= half)
    if not np.any(in_cr):
        raise ValueError("path never enters the critical region")

    def cr_inside(s):
        p = sample_path(path, s)
        return abs(p.x_g) <= half and abs(p.y_g) <= half

    first = int(np.argmax(in_cr))
    if first == 0:
        raise ValueError("path starts inside the critical region")
    s_cr_in = _refine_crossing(cr_inside, grid[first - 1], grid[first])
    last = len(in_cr) - 1 - int(np.argmax(in_cr[::-1]))
    if last == len(grid) - 1:
        raise ValueError("path ends inside the critical region")
    s_cr_out = _refine_crossing(cr_inside, grid[last + 1], grid[last])

    dist = np.hypot(x, y)
    in_icr = dist <= geometry.icr_radius

    def icr_inside(s):
        p = sample_path(path, s)
        return math.hypot(p.x_g, p.y_g) <= geometry.icr_radius

    first_icr = int(np.argmax(in_icr))
    if first_icr == 0:
        s_icr_in = 0.0
    else:
        s_icr_in = _refine_crossing(icr_inside, grid[first_icr - 1], grid[first_icr])
    last_icr = len(in_icr) - 1 - int(np.argmax(in_icr[::-1]))
    if last_icr == len(grid) - 1:
        s_icr_out = path.total_length
    else:
        s_icr_out = _refine_crossing(icr_inside, grid[last_icr + 1], grid[last_icr])

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
