"""The reference integrator and differentiator are checked against closed forms
they cannot share code with: pure exponentials, a rotating two-state system,
and polynomial/transcendental derivatives."""

import math
import re

import numpy as np
import pytest

from mpemba_thermometry import oracle
from mpemba_thermometry.oracle import (
    IntegrationUnstableError,
    finite_difference_dT,
    integrate_rate_equation,
)


def test_scalar_exponential_decay():
    # dp/dt = -2 (p - 0.25), p(0) = 0.9  ->  p(t) = 0.25 + 0.65 exp(-2 t)
    times = np.linspace(0.0, 3.0, 31)
    traj = integrate_rate_equation(
        lambda t, p: -2.0 * (p - 0.25), 0.9, times, dt=1e-4
    )
    exact = 0.25 + 0.65 * np.exp(-2.0 * times)
    assert np.max(np.abs(traj.states - exact)) < 1e-12


def test_time_dependent_scalar_rhs():
    # dp/dt = -t * p  ->  p(t) = p0 exp(-t^2 / 2)
    times = np.linspace(0.0, 2.0, 21)
    traj = integrate_rate_equation(lambda t, p: -t * p, 0.8, times, dt=1e-4)
    exact = 0.8 * np.exp(-(times**2) / 2.0)
    assert np.max(np.abs(traj.states - exact)) < 1e-12


def test_matrix_generator_against_expm():
    from scipy.linalg import expm

    generator = np.array(
        [
            [-1.3, 0.0, 0.7],
            [0.0, -0.9, 0.5],
            [1.3, 0.9, -1.2],
        ]
    )
    p0 = np.array([0.5, 0.3, 0.2])
    times = np.linspace(0.0, 8.0, 17)
    traj = integrate_rate_equation(generator, p0, times, dt=1e-3)
    for k, t in enumerate(times):
        exact = expm(generator * t) @ p0
        assert np.max(np.abs(traj.states[k] - exact)) < 1e-10


def test_integrator_preserves_total_population():
    generator = np.array(
        [
            [-0.8, 0.2, 0.1],
            [0.5, -0.7, 0.3],
            [0.3, 0.5, -0.4],
        ]
    )
    p0 = np.array([0.2, 0.2, 0.6])
    traj = integrate_rate_equation(generator, p0, np.linspace(0.0, 10.0, 11))
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_integrator_rejects_unphysical_excursions():
    with pytest.raises(IntegrationUnstableError):
        integrate_rate_equation(lambda t, p: 5.0, 0.9, np.linspace(0.0, 1.0, 5))


def test_scalar_mode_rejects_nan():
    with pytest.raises(IntegrationUnstableError, match="min=nan"):
        integrate_rate_equation(lambda t, p: math.nan, 0.5, np.array([0.0, 1.0]))


def test_matrix_mode_rejects_nan():
    generator = np.array([[math.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(IntegrationUnstableError, match="min=nan"):
        integrate_rate_equation(generator, np.array([0.5, 0.5]), np.array([0.0, 1.0]))


def test_matrix_mode_equals_a_plain_propagator_loop():
    # uneven gaps give each segment its own step count; the 9000-step segment
    # spans several check blocks
    generator = np.array(
        [
            [-0.8, 0.2, 0.1],
            [0.5, -0.7, 0.3],
            [0.3, 0.5, -0.4],
        ]
    )
    p0 = np.array([0.2, 0.2, 0.6])
    times = np.array([0.0, 0.0013, 0.3, 1.0, 10.0])
    dt = 1e-3
    expected = [p0]
    y = p0
    for gap in np.diff(times):
        n_steps = max(1, int(round(gap / dt)))
        prop = oracle._rk4_propagator(generator, gap / n_steps)
        for _ in range(n_steps):
            y = prop @ y
        expected.append(y)
    traj = integrate_rate_equation(generator, p0, times, dt)
    assert np.array_equal(traj.states, np.array(expected))


@pytest.mark.parametrize(
    "p0, times, dt, t_exit",
    [
        ([0.5, 0.5], [0.0, 0.5, 2.0], 1e-3, math.log(2.0)),
        # the exit lies some 18 000 steps into its segment, past the first block
        ([0.1, 0.9], [0.0, 0.5, 3.0], 1e-4, math.log(10.0)),
    ],
)
def test_matrix_mode_names_the_failing_step(p0, times, dt, t_exit):
    # dp1/dt = p1 leaves [0, 1] at t = ln(1 / p1(0)), inside the second segment
    generator = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(IntegrationUnstableError) as info:
        integrate_rate_equation(generator, np.array(p0), np.array(times), dt=dt)
    match = re.search(r"at t=(\S+): min=(\S+), max=(\S+)$", str(info.value))
    t, lo, hi = (float(v) for v in match.groups())
    assert times[1] < t and abs(t - t_exit) <= dt
    assert lo == min(p0[1], hi)  # p2 is frozen at its initial value
    assert 1.0 + 1e-6 < hi < 1.0 + 2.0 * dt


def test_finite_difference_on_polynomial():
    est = finite_difference_dT(lambda T: 3.0 * T**2 - T, 0.7)
    assert est.value == pytest.approx(3.0 * 2 * 0.7 - 1.0, abs=1e-9)
    assert est.error_estimate < 1e-7


def test_finite_difference_on_exponential():
    est = finite_difference_dT(lambda T: math.exp(-2.0 / T), 0.5, h=1e-5)
    exact = (2.0 / 0.25) * math.exp(-4.0)
    assert est.value == pytest.approx(exact, rel=1e-9)


def test_finite_difference_vector_valued():
    est = finite_difference_dT(lambda T: np.array([T**3, math.sin(T)]), 1.1)
    exact = np.array([3 * 1.1**2, math.cos(1.1)])
    assert np.max(np.abs(est.value - exact)) < 1e-8
