"""Two-level relaxation model: frozen reference values, closed forms against
the independent integrator/differentiator, and algebraic invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpemba_thermometry import (
    QubitBathParams,
    bose_occupation,
    dT_population,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
    make_qubit_pair,
    thermal_quantities,
)
from mpemba_thermometry.bath import ColdLimitWarning
from mpemba_thermometry.fisher import qfi_qubit_closed_form
from mpemba_thermometry.oracle import finite_difference_dT, integrate_rate_equation
from mpemba_thermometry.qubit import (
    UnphysicalRateError,
    dT_gibbs,
    dT_rate,
)

from conftest import CANONICAL, P0_COLD, P0_HOT, random_qubit

# Frozen reference values for omega0 = gamma = 1, T = 0.5, alpha = 1.
# Derived once from the defining expressions evaluated in extended precision
# and cross-checked below against the finite-difference oracle.
NBAR = 0.15651764274966565
P_EQ = 0.11920292202211755
GAMMA0 = 1.3130352854993312
DT_P_EQ = 0.419974341614026
RATE_HOT = 2.338249399699064  # preparation p0 = 0.9
RATE_COLD = 1.8130352854993312  # preparation p0 = 0.5
DT_RATE_HOT = 2.02737265070567
DT_RATE_COLD = 1.4481233219326213


class TestThermalQuantities:
    def test_frozen_values(self, canonical_params):
        q = thermal_quantities(canonical_params)
        assert q.n_bar == pytest.approx(NBAR, rel=1e-14)
        assert q.p_eq == pytest.approx(P_EQ, rel=1e-14)
        assert q.gamma0 == pytest.approx(GAMMA0, rel=1e-14)

    def test_occupation_and_population_are_consistent(self):
        # p_eq = n_bar / (2 n_bar + 1) is an algebraic identity
        for T in (0.2, 0.5, 1.0, 3.0):
            n = bose_occupation(1.3, T)
            p = gibbs_population_qubit(1.3, T)
            assert p == pytest.approx(n / (2 * n + 1), rel=1e-13)

    def test_rate_combines_occupation(self):
        q = thermal_quantities(QubitBathParams(1.0, 1.0, 0.5, 0.0))
        assert q.gamma0 == pytest.approx(1.0 * (2 * q.n_bar + 1), rel=1e-14)

    def test_deep_cold_warns_and_clamps(self):
        with pytest.warns(ColdLimitWarning):
            p = gibbs_population_qubit(1.0, 1e-4)
        assert p == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QubitBathParams(omega0=-1.0, gamma=1.0, temperature=0.5, alpha=0.0)
        with pytest.raises(ValueError):
            QubitBathParams(omega0=1.0, gamma=1.0, temperature=0.5, alpha=-0.2)


class TestEffectiveRate:
    def test_frozen_values(self, canonical_params):
        assert effective_rate(canonical_params, P0_HOT) == pytest.approx(
            RATE_HOT, rel=1e-14
        )
        assert effective_rate(canonical_params, P0_COLD) == pytest.approx(
            RATE_COLD, rel=1e-14
        )

    def test_feedback_off_reduces_to_bare_rate(self):
        params = QubitBathParams(1.0, 1.0, 0.5, 0.0)
        assert effective_rate(params, 0.9) == pytest.approx(GAMMA0, rel=1e-14)

    def test_nonpositive_rate_rejected(self):
        params = QubitBathParams(1.0, 1.0, 0.5, alpha=20.0)
        with pytest.raises(UnphysicalRateError):
            effective_rate(params, 0.05)  # far below equilibrium, alpha huge

    @given(
        p0=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 2.0),
    )
    def test_hotter_preparations_relax_faster(self, p0, alpha):
        params = QubitBathParams(1.0, 1.0, 0.5, alpha)
        base = effective_rate(params, gibbs_population_qubit(1.0, 0.5))
        if p0 >= gibbs_population_qubit(1.0, 0.5):
            assert effective_rate(params, p0) >= base - 1e-15


# preparations below equilibrium whose feedback factor 1 + alpha (p0 - p_eq)
# is exactly 0.0 or negative: (alpha, p0) at the canonical omega0, gamma, T
P0_BELOW = 0.05
UNPHYSICAL = {
    "zero": (1.0 / (P_EQ - P0_BELOW), P0_BELOW),
    "negative": (20.0, P0_BELOW),
}


class TestUnphysicalRate:
    """Where the feedback factor is not positive, every route to the rate raises."""

    def test_the_factors_are_zero_and_negative(self):
        for name, (alpha, p0) in UNPHYSICAL.items():
            factor = 1.0 + alpha * (p0 - gibbs_population_qubit(1.0, 0.5))
            assert factor == 0.0 if name == "zero" else factor < 0.0

    @pytest.mark.parametrize("case", UNPHYSICAL)
    @pytest.mark.parametrize(
        "route",
        [
            effective_rate,
            lambda params, p0: evolve_population(params, p0, 1.0),
            lambda params, p0: make_qubit_pair(params, P0_HOT, p0),
        ],
        ids=["effective_rate", "evolve_population", "make_qubit_pair"],
    )
    def test_every_route_raises(self, case, route):
        alpha, p0 = UNPHYSICAL[case]
        params = QubitBathParams(1.0, 1.0, 0.5, alpha)
        with pytest.raises(UnphysicalRateError, match=r"^effective rate -?\S+ is non-positive"):
            route(params, p0)

    def test_a_nan_rate_raises(self):
        # infinite feedback at equilibrium gives inf * 0 = nan, which used to be returned
        params = QubitBathParams(1.0, 1.0, 0.5, math.inf)
        with pytest.raises(UnphysicalRateError, match="^effective rate nan is non-positive"):
            effective_rate(params, P_EQ)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_an_infinite_rate_raises(self, t):
        # infinite feedback above equilibrium gave an infinite rate, and inf * 0 at
        # t = 0 a nan population with a numpy RuntimeWarning
        params = QubitBathParams(1.0, 1.0, 0.5, math.inf)
        for route in (effective_rate, lambda *args: evolve_population(*args, t)):
            with pytest.raises(UnphysicalRateError, match="^effective rate inf is infinite"):
                route(params, P0_HOT)


class TestEvolution:
    def test_matches_reference_integrator(self, canonical_params):
        times = np.linspace(0.0, 5.0, 26)
        p_eq = gibbs_population_qubit(canonical_params.omega0, canonical_params.temperature)
        for p0 in (P0_HOT, P0_COLD, 0.2):
            # dp/dt = -Gamma (p - p_eq), the rate frozen at the preparation
            rate = effective_rate(canonical_params, p0)
            traj = integrate_rate_equation(
                lambda t, p: -rate * (p - p_eq), p0, times, dt=1e-4
            )
            closed = np.array(
                [evolve_population(canonical_params, p0, t) for t in times]
            )
            assert np.max(np.abs(traj.states - closed)) < 1e-12

    def test_long_time_limit_is_equilibrium(self, canonical_params):
        assert evolve_population(canonical_params, 0.9, 50.0) == pytest.approx(
            P_EQ, abs=1e-15
        )

    @given(p0=st.floats(0.125, 0.98), t=st.floats(0.0, 20.0))
    @settings(max_examples=60)
    def test_population_stays_bracketed(self, p0, t):
        params = QubitBathParams(1.0, 1.0, 0.5, 1.0)
        p = evolve_population(params, p0, t)
        lo, hi = min(p0, P_EQ), max(p0, P_EQ)
        assert lo - 1e-12 <= p <= hi + 1e-12


class TestTemperatureDerivatives:
    def test_frozen_values(self, canonical_params):
        assert dT_gibbs(1.0, 0.5) == pytest.approx(DT_P_EQ, rel=1e-13)
        assert dT_rate(canonical_params, P0_HOT) == pytest.approx(
            DT_RATE_HOT, rel=1e-12
        )
        assert dT_rate(canonical_params, P0_COLD) == pytest.approx(
            DT_RATE_COLD, rel=1e-12
        )

    def test_gibbs_slope_against_oracle(self):
        for T in (0.3, 0.5, 0.9):
            est = finite_difference_dT(
                lambda temp: gibbs_population_qubit(1.0, temp), T
            )
            assert dT_gibbs(1.0, T) == pytest.approx(est.value, rel=1e-9)

    def test_population_slope_against_oracle(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            params = random_qubit(rng)
            p_eq = gibbs_population_qubit(params.omega0, params.temperature)
            p0 = float(rng.uniform(p_eq + 0.05, 0.97))
            t = float(rng.uniform(0.05, 6.0))

            def pop_of_T(temp: float) -> float:
                moved = QubitBathParams(
                    params.omega0, params.gamma, temp, params.alpha
                )
                return evolve_population(moved, p0, t)

            est = finite_difference_dT(pop_of_T, params.temperature)
            got = dT_population(params, p0, t)
            scale = max(abs(est.value), 1e-8)
            assert abs(got - est.value) / scale < 1e-7


def test_bose_occupation_high_temperature_expansion():
    # n_bar -> T / omega0 - 1/2 + O(omega0/T)
    n = bose_occupation(1.0, 200.0)
    assert n == pytest.approx(200.0 - 0.5, abs=1e-2)


class TestTimeArrays:
    """The closed forms over a time array, against the float calls as oracle."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        p0=st.floats(0.0, 1.0),
        times=st.lists(st.floats(0.0, 40.0), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_entries_equal_float_calls_bit_for_bit(self, seed, p0, times):
        params = random_qubit(np.random.default_rng(seed))
        grid = np.array([0.0, *times])
        for fn in (evolve_population, dT_population, qfi_qubit_closed_form):
            expected = np.array([fn(params, p0, t) for t in grid.tolist()])
            assert fn(params, p0, grid).tobytes() == expected.tobytes()

    def test_float_calls_stay_python_floats(self, canonical_params):
        # the per-cell callers (protocol) get a float back, not a 0-d array
        assert type(evolve_population(canonical_params, P0_HOT, 1.0)) is float
        assert type(dT_population(canonical_params, P0_HOT, 1.0)) is float

    def test_cold_limit_arrays_are_finite_and_equal_float_calls(self):
        # omega0/T = 800 is past the overflow cutoff: the zero-temperature
        # limits stand in, and the late times leave an empty upper level
        params = QubitBathParams(1.0, 1.0, 1.0 / 800.0, 1.0)
        grid = np.linspace(0.0, 40.0, 41)
        for fn in (evolve_population, dT_population, qfi_qubit_closed_form):
            with pytest.warns(ColdLimitWarning):
                values = fn(params, P0_HOT, grid)
            assert np.all(np.isfinite(values))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ColdLimitWarning)
                expected = np.array([fn(params, P0_HOT, t) for t in grid.tolist()])
            assert values.tobytes() == expected.tobytes()
