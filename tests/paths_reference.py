"""Reference path samplers and region bounds, kept to check `intersim.paths`:
samples bit for bit, region bounds within 1e-9 m. None of them calls a
sampler of the program: they read a path's segments, `cumulative` and
`blends` only, and write each segment kind's formula out themselves.

- `pose`, a per-segment masked loop, and `smoothed`, the curvature
  smoothing as it was before it shared the pose's segment lookup and
  skipped the blend windows a horizon misses.
- `compute_regions`, the grid oracle: it scans the path every 5 cm with
  `pose` and bisects each crossing to 1e-10 m, as the program did before it
  solved for the crossings in closed form. So it misses a clip of a region
  shorter than its step. Uncached, so that clearing the program's caches
  leaves it untouched.
- the scalar `sample_path` as it was before the program's found its segment
  with `bisect`, each probe locating its segment with a numpy `searchsorted`
  on one float.
"""

import math

import numpy as np

from intersim.paths import PathSample, RegionBounds, StraightSegment


def pose(path, s):
    """(x_g, y_g, psi, kappa) at s: one boolean mask and one formula per segment."""
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


def smoothed(path, s, kappa):
    """Smoothed curvature and its slope d/ds at s, given the exact kappa
    there: every blend window of the path is tested against every sample."""
    smooth = kappa.copy()
    dsmooth = np.zeros_like(kappa)
    for z0, z1, k1, k2, w in path.blends:
        m = (s >= z0) & (s <= z1)
        if m.any():
            t = (s[m] - z0) / w
            smooth[m] = k1 + (k2 - k1) * (3.0 * t * t - 2.0 * t * t * t)
            dsmooth[m] = (k2 - k1) * (6.0 * t - 6.0 * t * t) / w
    return smooth, dsmooth

_REGION_SCAN_STEP = 0.05


def sample_path(path, s):
    if s < 0.0 or s > path.total_length:
        s = min(max(s, 0.0), path.total_length)
    cum = np.asarray(path.cumulative)
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
    x, y, _, _ = pose(path, grid)

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
        s_cr_in=s_cr_in,
        s_cr_out=s_cr_out,
        s_stop=s_cr_in - geometry.stop_setback,
        s_icr_out=s_icr_out,
    )
