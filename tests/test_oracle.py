"""The reference integrator and differentiator are checked against closed forms
they cannot share code with: pure exponentials, a rotating two-state system,
and polynomial/transcendental derivatives."""

import decimal
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

_GENERATOR = np.array(
    [
        [-0.8, 0.2, 0.1],
        [0.5, -0.7, 0.3],
        [0.3, 0.5, -0.4],
    ]
)
_P0 = np.array([0.2, 0.2, 0.6])


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
    traj = integrate_rate_equation(_GENERATOR, _P0, np.linspace(0.0, 10.0, 11))
    sums = traj.states.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-14


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


def _rk4_recurrence_in_decimal(generator, p0, times, dt):
    # The RK4 step polynomial P = I + hR + (hR)^2/2 + (hR)^3/6 + (hR)^4/24 of
    # the same float generator and h, marched one step at a time at 34 digits.
    n = len(p0)

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    with decimal.localcontext(prec=34):
        y = [decimal.Decimal(v) for v in p0]
        states = [list(p0)]
        for gap in np.diff(times):
            n_steps = max(1, int(round(gap / dt)))
            h = decimal.Decimal(gap / n_steps)
            hr = [[h * decimal.Decimal(v) for v in row] for row in generator]
            prop = [[decimal.Decimal(int(i == j)) + hr[i][j] for j in range(n)] for i in range(n)]
            term = hr
            for k in (2, 3, 4):
                term = [[v / k for v in row] for row in matmul(term, hr)]
                prop = [[prop[i][j] + term[i][j] for j in range(n)] for i in range(n)]
            for _ in range(n_steps):
                y = [sum(prop[i][k] * y[k] for k in range(n)) for i in range(n)]
            states.append([float(v) for v in y])
    return np.array(states)


@pytest.mark.parametrize(
    "times",
    [
        # uneven gaps give segments of 1, 299, 700 and 9000 steps; the last
        # spans several table blocks
        [0.0, 0.0013, 0.3, 1.0, 10.0],
        # 4096 and 4097 steps: one full table, then one row past its edge
        [0.0, 4.096, 8.193],
    ],
)
def test_matrix_mode_matches_the_recurrence_in_extended_precision(times):
    times = np.array(times)
    traj = integrate_rate_equation(_GENERATOR, _P0, times, dt=1e-3)
    reference = _rk4_recurrence_in_decimal(_GENERATOR, _P0, times, dt=1e-3)
    assert np.max(np.abs(traj.states - reference)) < 1e-14


_CHAINING_TIMES = np.array([0.0, 0.0013, 0.3, 1.0, 2.5])


def test_one_row_table_is_the_plain_increment_loop(monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK_FLOATS", _GENERATOR.size)
    expected = [_P0]
    y = _P0
    for gap in np.diff(_CHAINING_TIMES):
        n_steps = max(1, int(round(gap / 1e-3)))
        increment = oracle._rk4_propagator(_GENERATOR, gap / n_steps)
        for _ in range(n_steps):
            y = y + increment @ y
        expected.append(y)
    traj = integrate_rate_equation(_GENERATOR, _P0, _CHAINING_TIMES, dt=1e-3)
    assert np.array_equal(traj.states, np.array(expected))


def test_chained_blocks_agree_with_one_full_table(monkeypatch):
    full = integrate_rate_equation(_GENERATOR, _P0, _CHAINING_TIMES, dt=1e-3)
    # five rows per table: every segment past the first needs many blocks
    monkeypatch.setattr(oracle, "_BLOCK_FLOATS", 5 * _GENERATOR.size)
    chained = integrate_rate_equation(_GENERATOR, _P0, _CHAINING_TIMES, dt=1e-3)
    assert np.max(np.abs(chained.states - full.states)) < 1e-15


def _one_gap_chain(times, dt):
    # each one-gap call builds its own table for its only segment
    states = [_P0]
    for k in range(len(times) - 1):
        traj = integrate_rate_equation(_GENERATOR, states[-1], times[k : k + 2], dt=dt)
        states.append(traj.states[-1])
    return np.array(states)


# twelve distinct gaps in a sliding pattern (0, 1, 2, 1, 2, 3, 2, 3, 4, ... eighths
# past 1/8), so each recurs a few segments later; each is a multiple of 1/8, so
# the checkpoints are exact and a repeated gap repeats its step bit for bit
_K = np.arange(30)
_IRREGULAR_TIMES = np.concatenate([[0.0], np.cumsum((1 + _K // 3 + _K % 3) / 8)])


@pytest.mark.parametrize(
    "times, dt",
    [
        # the gaps 1 and 0.5 recur non-adjacently, so later segments reuse tables
        ([0.0, 1.0, 1.5, 2.5, 3.0], 1e-3),
        # gaps that differ in their last bits: mostly one table per segment
        (np.linspace(0.0, 10.8, 21), 2e-3),
        # more distinct steps than the call keeps tables for
        (_IRREGULAR_TIMES, 1e-3),
    ],
    ids=["repeating", "linspace", "irregular"],
)
def test_reused_tables_match_one_gap_calls_bit_for_bit(times, dt):
    times = np.asarray(times)
    traj = integrate_rate_equation(_GENERATOR, _P0, times, dt=dt)
    assert np.array_equal(traj.states, _one_gap_chain(times, dt))


@pytest.mark.parametrize(
    "times, dt, builds",
    [
        # twenty gaps of exactly 1.0 share one table
        (np.linspace(0.0, 20.0, 21), 2e-3, [500]),
        # the ninth distinct step clears the eight kept tables, so the step of
        # 1000 rows, needed again after that, is built a second time
        (_IRREGULAR_TIMES, 1e-3, [125 * k for k in range(1, 10)] + [1000, 1250, 1375, 1500]),
    ],
    ids=["equal", "irregular"],
)
def test_each_distinct_step_builds_its_table_once_while_kept(monkeypatch, times, dt, builds):
    built = []
    build = oracle._increment_table

    def spy(increment, m):
        built.append(m)
        return build(increment, m)

    monkeypatch.setattr(oracle, "_increment_table", spy)
    integrate_rate_equation(_GENERATOR, _P0, times, dt=dt)
    assert built == builds


@pytest.mark.parametrize(
    "system, p0",
    [(lambda t, p: -(p - 0.5), 0.9), (_GENERATOR, _P0)],
    ids=["scalar", "matrix"],
)
@pytest.mark.parametrize(
    "times, dt, message",
    [
        ([0.0, math.nan, 2.0], 1e-3, "times must be finite"),
        ([0.0, 1.0, math.inf], 1e-3, "times must be finite"),
        ([-math.inf, 0.0, 1.0], 1e-3, "times must be finite"),
        ([0.0, 1.0], math.nan, "dt must be positive and finite"),
        ([0.0, 1.0], math.inf, "dt must be positive and finite"),
    ],
)
def test_non_finite_grid_or_step_is_rejected(system, p0, times, dt, message):
    with pytest.raises(ValueError, match=message):
        integrate_rate_equation(system, p0, np.array(times), dt=dt)


@pytest.mark.parametrize(
    "p0, times, dt, t_exit",
    [
        ([0.5, 0.5], [0.0, 0.5, 2.0], 1e-3, math.log(2.0)),
        # the exit lies some 18 000 steps into its segment, past the first block
        ([0.1, 0.9], [0.0, 0.5, 3.0], 1e-4, math.log(10.0)),
        # the exit lies in the third segment, which reuses the first one's table
        ([0.1, 0.9], [0.0, 1.0, 2.0, 3.0], 1e-3, math.log(10.0)),
    ],
)
def test_matrix_mode_names_the_failing_step(p0, times, dt, t_exit):
    # dp1/dt = p1 leaves [0, 1] at t = ln(1 / p1(0)), after the first segment
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


@pytest.mark.parametrize(
    "temperature, h, message",
    [
        (math.nan, None, "temperature must be positive and finite"),
        (math.inf, None, "temperature must be positive and finite"),
        (-math.inf, None, "temperature must be positive and finite"),
        (0.5, math.nan, "step h must be finite"),
        (0.5, math.inf, "step h must be finite"),
        (0.5, -math.inf, "step h must be finite"),
    ],
)
def test_finite_difference_rejects_non_finite_inputs(temperature, h, message):
    with pytest.raises(ValueError, match=message):
        finite_difference_dT(lambda T: T**2, temperature, h=h)
