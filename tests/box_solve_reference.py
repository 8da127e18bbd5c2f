"""Reference box solver: the forward-backward solver as it evaluated the
objective in full at every point, kept to check that `mpc.box_solve`, which
evaluates only what it reads, returns the same (u, iterations, converged)
bit for bit and evaluates the same points.

Each evaluation site calls `value_grad` from its own source line, so a test
can tell the sites apart by the calling line (see `SITES`).
"""

from collections import deque

import numpy as np

from intersim.mpc import LBFGS_MEMORY


def _lbfgs_direction(pairs: deque, r: np.ndarray) -> np.ndarray:
    """Two-loop recursion approximating an inverse-Jacobian product."""
    if not pairs:
        return r.copy()
    q = r.copy()
    alphas = []
    for s_i, y_i, rho_i in reversed(pairs):
        alpha = rho_i * float(s_i @ q)
        q -= alpha * y_i
        alphas.append(alpha)
    s_l, y_l, _ = pairs[-1]
    q *= float(s_l @ y_l) / float(y_l @ y_l)
    for (s_i, y_i, rho_i), alpha in zip(pairs, reversed(alphas)):
        beta = rho_i * float(y_i @ q)
        q += s_i * (alpha - beta)
    return q


def box_solve(
    value_grad,
    lower: float,
    upper: float,
    u0: np.ndarray,
    tolerance: float,
    max_iterations: int,
) -> tuple[np.ndarray, int, bool]:
    """Find a box-stationary point of a smooth objective.

    Forward-backward (projected-gradient) iterations accelerated by an
    L-BFGS direction on the fixed-point residual, with a line search on the
    forward-backward envelope and a pure projected step as fallback.
    Stops when the projected-gradient displacement falls to `tolerance`,
    or after `max_iterations` iterations. Returns (u, iterations, converged).
    """

    def clip(z):
        return np.minimum(np.maximum(lower, z), upper)

    u = clip(np.asarray(u0, dtype=float))
    f, g = value_grad(u)
    gnorm = float(np.linalg.norm(g))
    if gnorm > 0:
        h = 1e-3 * max(1.0, float(np.linalg.norm(u)))
        _, g_probe = value_grad(u - h * g / gnorm)
        lip = float(np.linalg.norm(g_probe - g)) / h
    else:
        lip = 1.0
    lip = max(lip, 1e-6)
    gamma = 0.95 / lip
    pairs: deque = deque(maxlen=LBFGS_MEMORY)

    converged = False
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        t = clip(u - gamma * g)
        r = u - t
        if float(np.max(np.abs(r))) <= tolerance:
            u = t  # return the projected point so the box holds exactly
            converged = True
            break
        f_t, g_t = value_grad(t)
        # enlarge the local Lipschitz estimate until the descent model holds
        while (
            f_t > f - float(g @ r) + 0.5 * lip * float(r @ r) + 1e-10 * (1.0 + abs(f))
            and lip < 1e12
        ):
            lip *= 2.0
            gamma = 0.95 / lip
            pairs.clear()
            t = clip(u - gamma * g)
            r = u - t
            f_t, g_t = value_grad(t)
        fbe = f - float(g @ r) + float(r @ r) / (2.0 * gamma)

        d = -_lbfgs_direction(pairs, r)
        if not np.all(np.isfinite(d)):
            d = -r
        step_fb = t - u
        accepted = False
        tau = 1.0
        for _ in range(10):
            u_c = u + tau * d + (1.0 - tau) * step_fb
            f_c, g_c = value_grad(u_c)
            t_c = clip(u_c - gamma * g_c)
            r_c = u_c - t_c
            fbe_c = f_c - float(g_c @ r_c) + float(r_c @ r_c) / (2.0 * gamma)
            if fbe_c <= fbe - 1e-4 * float(r @ r) / gamma:
                accepted = True
                break
            tau *= 0.5
        if accepted:
            u_new, f_new, g_new = u_c, f_c, g_c
        else:
            u_new, f_new, g_new = t, f_t, g_t
        t_new = clip(u_new - gamma * g_new)
        s_i = u_new - u
        y_i = (u_new - t_new) - r
        sy = float(s_i @ y_i)
        if sy > 1e-12 * float(np.linalg.norm(s_i)) * max(float(np.linalg.norm(y_i)), 1e-300):
            pairs.append((s_i, y_i, 1.0 / sy))
        u, f, g = u_new, f_new, g_new

    return clip(u), iterations, converged


# the source line of each evaluation site above, and its name
SITES = {
    "f, g = value_grad(u)": "start",
    "_, g_probe = value_grad(u - h * g / gnorm)": "probe",
    "f_t, g_t = value_grad(t)": "forward-backward",
    "f_c, g_c = value_grad(u_c)": "line search",
}
