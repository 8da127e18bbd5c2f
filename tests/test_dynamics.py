"""Discretization and state propagation tests against series/expm oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from intersim.dynamics import AgentParams, AgentState, discretize, step


def continuous_matrices(t_ax):
    a = np.array([[-1.0 / t_ax, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([1.0 / t_ax, 0.0, 0.0])
    return a, b


def series_zoh(t_ax, t_s, terms=30):
    """Truncated Taylor-series discretization oracle."""
    a, b = continuous_matrices(t_ax)
    a_d = np.zeros((3, 3))
    b_int = np.zeros((3, 3))
    term = np.eye(3)
    for k in range(terms + 1):
        a_d += term * t_s**k / math.factorial(k)
        b_int += term * t_s ** (k + 1) / math.factorial(k + 1)
        term = term @ a
    return a_d, b_int @ b


# -- discretize ---------------------------------------------------------------


def test_zero_sampling_time_gives_identity():
    m = discretize(0.3, 0.0)
    np.testing.assert_allclose(m.a_d, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(m.b_d, np.zeros(3), atol=1e-15)


def test_lag_decay_entry():
    m = discretize(0.3, 0.1)
    assert m.a_d[0, 0] == pytest.approx(math.exp(-1.0 / 3.0), abs=1e-12)


def test_matches_series_oracle_for_reference_values():
    m = discretize(0.3, 0.1)
    a_ref, b_ref = series_zoh(0.3, 0.1)
    np.testing.assert_allclose(m.a_d, a_ref, atol=1e-9)
    np.testing.assert_allclose(m.b_d, b_ref, atol=1e-9)


def test_matches_scaling_and_squaring_oracle():
    # scipy's expm handles stiff ratios the series cannot
    for t_ax, t_s in [(0.05, 0.5), (0.3, 0.1), (1.0, 0.01)]:
        m = discretize(t_ax, t_s)
        a, b = continuous_matrices(t_ax)
        np.testing.assert_allclose(m.a_d, expm(a * t_s), atol=1e-9)
        # integral of expm via the augmented-matrix trick
        aug = np.zeros((4, 4))
        aug[:3, :3] = a
        aug[:3, 3] = b
        np.testing.assert_allclose(m.b_d, expm(aug * t_s)[:3, 3], atol=1e-9)


def test_steady_state_gain_is_one():
    for t_ax, t_s in [(0.3, 0.1), (0.2, 0.4)]:
        m = discretize(t_ax, t_s)
        assert m.a_d[0, 0] + m.b_d[0] == pytest.approx(1.0, abs=1e-12)


def test_rejects_bad_time_constants():
    with pytest.raises(ValueError):
        discretize(0.0, 0.1)
    with pytest.raises(ValueError):
        discretize(-0.3, 0.1)
    with pytest.raises(ValueError):
        discretize(0.3, -0.1)


# -- step ---------------------------------------------------------------------


def test_equilibrium_stays_at_origin():
    m = discretize(0.3, 0.1)
    out = step(m, AgentState(0.0, 0.0, 0.0), 0.0)
    assert (out.a_x, out.v, out.s) == (0.0, 0.0, 0.0)


def test_pure_integration_of_speed():
    m = discretize(0.3, 0.1)
    out = step(m, AgentState(0.0, 14.0, 0.0), 0.0)
    assert out.s == pytest.approx(1.4, abs=1e-12)
    assert out.v == pytest.approx(14.0, abs=1e-12)
    assert out.a_x == 0.0


def test_constant_input_reaches_lag_steady_state():
    m = discretize(0.3, 0.1)
    x = AgentState(0.0, 0.0, 0.0)
    for _ in range(100):
        x = step(m, x, 1.0)
    assert x.a_x == pytest.approx(1.0, abs=1e-6)


def test_step_rejects_non_finite():
    m = discretize(0.3, 0.1)
    with pytest.raises(ValueError):
        step(m, AgentState(0.0, 0.0, 0.0), float("nan"))
    with pytest.raises(ValueError):
        AgentState(float("inf"), 0.0, 0.0)


# -- structural properties ----------------------------------------------------


def test_semigroup_property():
    t_ax = 0.3
    m1 = discretize(t_ax, 0.1)
    m5 = discretize(t_ax, 0.5)
    a_five = np.linalg.matrix_power(m1.a_d, 5)
    np.testing.assert_allclose(a_five, m5.a_d, atol=1e-9)
    # input response: constant u over 5 small steps equals one big step
    b_five = sum(np.linalg.matrix_power(m1.a_d, k) @ m1.b_d for k in range(5))
    np.testing.assert_allclose(b_five, m5.b_d, atol=1e-9)


def test_linearity_of_step():
    m = discretize(0.3, 0.1)
    x1 = AgentState(0.2, 3.0, 1.0)
    x2 = AgentState(-0.1, 5.0, 2.0)
    u1, u2 = 1.5, -2.5
    lhs = step(m, AgentState(x1.a_x + x2.a_x, x1.v + x2.v, x1.s + x2.s), u1 + u2)
    r1 = step(m, x1, u1)
    r2 = step(m, x2, u2)
    assert lhs.a_x == pytest.approx(r1.a_x + r2.a_x, abs=1e-12)
    assert lhs.v == pytest.approx(r1.v + r2.v, abs=1e-12)
    assert lhs.s == pytest.approx(r1.s + r2.s, abs=1e-12)


def test_eigenvalues_via_characteristic_polynomial():
    m = discretize(0.3, 0.1)
    for lam in (math.exp(-0.1 / 0.3), 1.0, 1.0):
        char = np.linalg.det(m.a_d - lam * np.eye(3))
        assert abs(char) < 1e-9


def test_agent_params_validation():
    good = dict(
        t_ax=0.3, a_x_min=-7.0, a_x_max=4.0, v_max=15.0, a_y_max=3.5,
        a_tot_max=7.0, length=5.0, width=2.0, q=1.0, q_n=1.0, r=20.0, v_ref=14.0,
    )
    AgentParams(**good)
    with pytest.raises(ValueError):
        AgentParams(**{**good, "t_ax": 0.0})
    with pytest.raises(ValueError):
        AgentParams(**{**good, "a_x_min": 1.0})
    with pytest.raises(ValueError):
        AgentParams(**{**good, "a_tot_max": 3.0})
