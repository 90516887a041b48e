"""Fisher-information layer: frozen references, expansion cross-checks, and
the sensitivity-vs-population bookkeeping around degenerate points."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpemba_thermometry import (
    QubitBathParams,
    fisher_from_populations,
    qfi_equilibrium,
    qfi_gain,
    qfi_qubit_closed_form,
)
from mpemba_thermometry.fisher import DivergentFisherError
from mpemba_thermometry.qubit import (
    dT_gibbs,
    dT_population,
    dT_rate,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
)
from mpemba_thermometry.spectral import (
    amplitudes_with_derivatives,
    decompose,
    dT_populations_modal,
    modal_trajectory,
    temperature_derivatives,
)

from conftest import (
    P0_COLD,
    P0_HOT,
    random_ladder,
    random_preparation,
    random_qubit,
)

F_EQ = 1.6798973664561040  # omega0 = 1, T = 0.5
# trajectory values at the canonical crossing time t* = 1.36715416...
T_STAR = 1.3671541640340499
F_HOT_AT_TSTAR = 0.7699770748179331
F_COLD_AT_TSTAR = 0.8058880369473922
# quadratic short-time coefficient for alpha = 0, p0 = 0.9
SHORT_TIME_COEFF = 3.728108720933638


def qfi_short_time(params, p0, t):
    """Leading t^2 behaviour of the trajectory Fisher information, Gamma t << 1.

    F(t) ~ [dT p_eq * Gamma - (p0 - p_eq) * dT Gamma]^2 t^2 / (p0 (1 - p0)).
    """
    p_eq = gibbs_population_qubit(params.omega0, params.temperature)
    d_peq = dT_gibbs(params.omega0, params.temperature)
    slope = d_peq * effective_rate(params, p0) - (p0 - p_eq) * dT_rate(params, p0)
    return slope**2 * t**2 / (p0 * (1.0 - p0))


def _decimal_qubit_fisher(params, p0, t):
    """(dT p)^2 / (p (1 - p)) of the qubit, every step in 50-digit decimals.

    The same closed forms as the package (p_eq = 1/(1 + e^x), nbar =
    1/(e^x - 1), x = omega0/T, Gamma = gamma (2 nbar + 1)(1 + alpha (p0 -
    p_eq)), dT p = dT p_eq (1 - E) - (p0 - p_eq) t E dT Gamma, E = e^{-Gamma t}),
    starting from the exact binary values of the float inputs.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        omega0, gamma, temp, alpha, p0, t = (
            decimal.Decimal(v)
            for v in (params.omega0, params.gamma, params.temperature, params.alpha, p0, t)
        )
        x = omega0 / temp
        p_eq = 1 / (1 + x.exp())
        n_bar = 1 / (x.exp() - 1)
        d_peq = omega0 / temp**2 * p_eq * (1 - p_eq)
        d_nbar = omega0 / temp**2 * n_bar * (1 + n_bar)
        gamma0 = gamma * (2 * n_bar + 1)
        feedback = 1 + alpha * (p0 - p_eq)
        rate = gamma0 * feedback
        d_rate = 2 * gamma * d_nbar * feedback - alpha * gamma0 * d_peq
        decay = (-rate * t).exp()
        p = p_eq + (p0 - p_eq) * decay
        dp = d_peq * (1 - decay) - (p0 - p_eq) * t * decay * d_rate
        return float(dp**2 / (p * (1 - p)))


class TestEquilibrium:
    def test_frozen_value(self):
        assert qfi_equilibrium(1.0, 0.5) == pytest.approx(F_EQ, rel=1e-13)

    def test_matches_population_formula(self):
        from mpemba_thermometry.qubit import dT_gibbs, gibbs_population_qubit

        p = gibbs_population_qubit(1.0, 0.5)
        dp = dT_gibbs(1.0, 0.5)
        direct = fisher_from_populations(
            np.array([1.0 - p, p]), np.array([-dp, dp])
        )
        assert qfi_equilibrium(1.0, 0.5) == pytest.approx(direct, rel=1e-13)

    def test_deterministic_population_diverges(self):
        from mpemba_thermometry.bath import ColdLimitWarning

        with pytest.warns(ColdLimitWarning), pytest.raises(DivergentFisherError):
            qfi_equilibrium(1.0, 1e-3)


class TestTrajectoryFisher:
    def test_frozen_crossing_values(self, canonical_params):
        assert qfi_qubit_closed_form(
            canonical_params, P0_HOT, T_STAR
        ) == pytest.approx(F_HOT_AT_TSTAR, rel=1e-10)
        assert qfi_qubit_closed_form(
            canonical_params, P0_COLD, T_STAR
        ) == pytest.approx(F_COLD_AT_TSTAR, rel=1e-10)

    def test_closed_form_equals_population_route(self, canonical_params):
        # the three-term expansion must agree with (dT p)^2 / (p(1-p))
        rng = np.random.default_rng(424242)
        for _ in range(25):
            params = random_qubit(rng)
            from mpemba_thermometry.qubit import gibbs_population_qubit

            p_eq = gibbs_population_qubit(params.omega0, params.temperature)
            p0 = float(rng.uniform(p_eq + 0.05, 0.95))
            t = float(rng.uniform(0.0, 8.0))
            p_t = evolve_population(params, p0, t)
            dp = dT_population(params, p0, t)
            direct = fisher_from_populations(
                np.array([1.0 - p_t, p_t]), np.array([-dp, dp])
            )
            assert qfi_qubit_closed_form(params, p0, t) == pytest.approx(
                direct, rel=1e-9, abs=1e-12
            )

    def test_vanishes_at_time_zero(self, canonical_params):
        assert qfi_qubit_closed_form(canonical_params, P0_HOT, 0.0) == 0.0

    def test_long_time_limit_is_equilibrium_value(self, canonical_params):
        late = qfi_qubit_closed_form(canonical_params, P0_HOT, 60.0)
        assert late == pytest.approx(F_EQ, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_pure_preparation_opens_with_zero_information(self, p0, alpha):
        # at t = 0 both p (1 - p) and dT p vanish: the empty-level rule of
        # fisher_from_populations gives 0, and later times are unaffected
        params = QubitBathParams(1.0, 1.0, 0.5, alpha)
        assert dT_population(params, p0, 0.0) == 0.0
        assert qfi_qubit_closed_form(params, p0, 0.0) == 0.0
        f = qfi_qubit_closed_form(params, p0, np.array([0.0, 0.5, 2.0]))
        assert f[0] == 0.0
        assert f[1:].tolist() == [qfi_qubit_closed_form(params, p0, t) for t in (0.5, 2.0)]
        assert np.all(f[1:] > 0.0)

    def test_deterministic_population_with_sensitivity_diverges(self):
        # feedback that nearly cancels the ground state's rate: over 1e-7 the
        # population stays exactly 0 while dT p is ~ -5.5e-8, far above 1e-12
        p_eq = gibbs_population_qubit(1.0, 0.5)
        params = QubitBathParams(1.0, 1.0, 0.5, (1.0 - 1e-10) / p_eq)
        assert evolve_population(params, 0.0, 1e-7) == 0.0
        assert abs(dT_population(params, 0.0, 1e-7)) > 1e-12
        with pytest.raises(DivergentFisherError, match="vanishes while its sensitivity"):
            qfi_qubit_closed_form(params, 0.0, 1e-7)
        with pytest.raises(DivergentFisherError, match="vanishes while its sensitivity"):
            qfi_qubit_closed_form(params, 0.0, np.array([0.0, 1e-7, 1.0]))

    def test_accurate_near_a_zero_of_the_sensitivity(self):
        # dT p nearly cancels between its two terms here: expanding its square
        # into three terms loses ~1e-5 relative, squaring it keeps ~1e-10
        params = QubitBathParams(
            1.5293845054583102, 0.8243418734507054, 0.5879649211052577, 0.04458704383381751
        )
        p0, t = 0.6658626882232987, 0.5958021288827479
        exact = _decimal_qubit_fisher(params, p0, t)
        # F is ~1e-12 here, so approx's default absolute slack of 1e-12 is off
        assert qfi_qubit_closed_form(params, p0, t) == pytest.approx(exact, rel=1e-8, abs=0.0)
        f = qfi_qubit_closed_form(params, p0, np.array([t]))
        assert f[0] == pytest.approx(exact, rel=1e-8, abs=0.0)


class TestShortTime:
    def test_frozen_quadratic_coefficient(self):
        params = QubitBathParams(1.0, 1.0, 0.5, 0.0)
        t = 1e-6
        coeff = qfi_short_time(params, 0.9, t) / t**2
        assert coeff == pytest.approx(SHORT_TIME_COEFF, rel=1e-12)
        # headline number quoted to five significant figures
        assert coeff == pytest.approx(3.7282, abs=5e-4)

    def test_expansion_matches_closed_form_at_small_times(self, canonical_params):
        # relative deviation is O(Gamma t) and must shrink linearly with t
        deviations = {}
        for t in (1e-4, 1e-3):
            full = qfi_qubit_closed_form(canonical_params, P0_HOT, t)
            approx = qfi_short_time(canonical_params, P0_HOT, t)
            deviations[t] = abs(full - approx) / approx
            assert full == pytest.approx(approx, rel=50.0 * t)
        assert deviations[1e-4] < deviations[1e-3] / 5.0


class TestPopulationFisher:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            fisher_from_populations(np.array([0.5, 0.5]), np.array([0.1, -0.05, -0.05]))

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)], ids=str)
    def test_rejects_inputs_without_a_level_naming_the_shape(self, shape):
        # a 0-d input raised IndexError, a (0,) one numpy's "cannot reshape array of size 0"
        p = np.full(shape, 0.5)
        with pytest.raises(ValueError) as info:
            fisher_from_populations(p, p)
        assert str(info.value) == (
            f"populations need a last axis of at least one level, got shape {shape}"
        )

    def test_rejects_unbalanced_sensitivities(self):
        with pytest.raises(ValueError):
            fisher_from_populations(np.array([0.5, 0.5]), np.array([0.1, 0.1]))

    def test_empty_level_with_zero_sensitivity_is_ignored(self):
        f = fisher_from_populations(
            np.array([0.0, 0.4, 0.6]), np.array([0.0, 0.2, -0.2])
        )
        assert f == pytest.approx(0.04 / 0.4 + 0.04 / 0.6, rel=1e-13)

    def test_empty_level_with_live_sensitivity_diverges(self):
        with pytest.raises(DivergentFisherError):
            fisher_from_populations(
                np.array([0.0, 0.4, 0.6]), np.array([0.1, 0.1, -0.2])
            )

    @given(
        p1=st.floats(0.05, 0.9),
        frac=st.floats(0.05, 0.95),
        d1=st.floats(-0.5, 0.5),
        d2=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60)
    def test_non_negative_on_valid_input(self, p1, frac, d1, d2):
        p2 = (1.0 - p1) * frac
        p3 = 1.0 - p1 - p2
        f = fisher_from_populations(
            np.array([p1, p2, p3]), np.array([d1, d2, -(d1 + d2)])
        )
        assert f >= 0.0


def _outcome(populations, d_populations):
    """The value of fisher_from_populations, or the type and text of what it raised."""
    try:
        return fisher_from_populations(populations, d_populations)
    except (ValueError, DivergentFisherError) as exc:
        return type(exc), str(exc)


# level values around the floors: empty (0, below 1e-15), slightly negative
# (tolerated down to -1e-12, rejected below), and ordinary
_LEVEL = st.sampled_from([0.0, 5e-16, -5e-13, -1e-9, 0.25, 0.5])
_SLOPE = st.sampled_from([0.0, 5e-13, 2e-12, 0.1, -0.1])
_ROW = st.tuples(_LEVEL, _LEVEL, _SLOPE, _SLOPE, st.sampled_from([0.0, 1e-6]))


class TestStackedRows:
    """fisher_from_populations on stacked rows against one call per row."""

    @given(seed=st.integers(0, 2**32 - 1), times=st.lists(st.floats(0.0, 30.0), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_ladder_rows_equal_row_calls_bit_for_bit(self, seed, times):
        rng = np.random.default_rng(seed)
        matrix = random_ladder(rng)
        dec = decompose(matrix)
        der = temperature_derivatives(matrix, dec)
        amps = amplitudes_with_derivatives(dec, der, random_preparation(rng, dec.stationary))
        grid = np.array([0.0, *times])
        rows_p = modal_trajectory(dec, amps, grid)
        rows_dp = dT_populations_modal(dec, amps, der, grid)
        expected = np.array([fisher_from_populations(p, dp) for p, dp in zip(rows_p, rows_dp)])
        assert fisher_from_populations(rows_p, rows_dp).tobytes() == expected.tobytes()

    @given(rows=st.lists(_ROW, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rows_fail_as_the_first_failing_row_call(self, rows):
        populations = np.array([[a, b, 1.0 - a - b] for a, b, *_ in rows])
        slopes = np.array([[c, d, skew - c - d] for _, _, c, d, skew in rows])
        per_row = [_outcome(p, dp) for p, dp in zip(populations, slopes)]
        failures = [o for o in per_row if isinstance(o, tuple)]
        stacked = _outcome(populations, slopes)
        if failures:
            assert stacked == failures[0]
        else:
            assert stacked.tobytes() == np.array(per_row).tobytes()

    def test_empty_level_contributes_nothing_and_live_one_diverges(self):
        populations = np.array([[0.0, 0.4, 0.6], [0.2, 0.2, 0.6]])
        quiet = np.array([[5e-13, 0.2, -0.2 - 5e-13], [0.1, -0.05, -0.05]])
        f = fisher_from_populations(populations, quiet)
        assert f[0] == pytest.approx(0.04 / 0.4 + 0.04 / 0.6, rel=1e-13)
        live = quiet.copy()
        live[0] = [0.1, 0.1, -0.2]
        with pytest.raises(DivergentFisherError):
            fisher_from_populations(populations, live)


class TestClosedFormTimeArrays:
    @given(
        seed=st.integers(0, 2**32 - 1),
        p0=st.floats(0.001, 0.999),
        times=st.lists(st.floats(0.0, 40.0), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_entries_equal_float_calls_bit_for_bit(self, seed, p0, times):
        rng = np.random.default_rng(seed)
        params = random_qubit(rng)
        # squaring by x*x instead of pow moves ~1e-4 of the values, so each
        # example also carries a dense random grid
        grid = np.concatenate(([0.0], times, rng.uniform(0.0, 40.0, 1000)))
        expected = np.array([qfi_qubit_closed_form(params, p0, t) for t in grid.tolist()])
        assert qfi_qubit_closed_form(params, p0, grid).tobytes() == expected.tobytes()

    def test_time_zero_row_has_no_information(self, canonical_params):
        f = qfi_qubit_closed_form(canonical_params, P0_HOT, np.array([0.0, T_STAR]))
        assert f[0] == 0.0
        assert f[1] == pytest.approx(F_HOT_AT_TSTAR, rel=1e-10)
        assert qfi_gain(f, F_EQ)[0] == -math.inf
