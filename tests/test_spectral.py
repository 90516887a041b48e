"""Three-level ladder generator: spectral decomposition, modal evolution, and
first-order temperature response, all pinned to frozen references and checked
against the independent integrator / finite-difference oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpemba_thermometry import (
    build_lambda_rate_matrix,
    decompose,
    dT_populations_modal,
    gibbs_vector,
    project_initial,
    temperature_derivatives,
)
from mpemba_thermometry.bath import ColdLimitWarning
from mpemba_thermometry.oracle import finite_difference_dT, integrate_rate_equation
from mpemba_thermometry.spectral import (
    DegenerateSpectrumError,
    RateMatrix,
    RateMatrixError,
    SimplexError,
    SpectralDecomposition,
    amplitudes_with_derivatives,
    build_qubit_rate_matrix,
    dT_gibbs_vector,
    finite_difference_spectrum,
    modal_trajectory,
    validate_rate_matrix,
)

from conftest import (
    LADDER,
    LADDER_COLD,
    LADDER_HOT,
    random_ladder,
    random_preparation,
    random_qubit,
)

# Frozen references for the symmetric ladder at T = 0.5 (kappa = 1, gap = 1),
# all derived by hand from the doublet structure: the antisymmetric mode
# decays at kappa*nbar, the symmetric one at kappa*(3 nbar + 2), and the
# stationary state is the Gibbs vector (1, 1, e^{-2})/(2 + e^{-2}).
LADDER_RATES = np.array([0.0, 0.15651764274966565, 2.469552928248997])
LADDER_PI = np.array([0.4683105308334812, 0.4683105308334812, 0.06337893833303762])
DT_RATE_2 = 0.7240616609663105  # kappa * dT nbar
DT_RATE_3 = 2.1721849828989317  # 3 kappa * dT nbar
DT_PI = np.array([-0.11872409701762927, -0.11872409701762927, 0.23744819403525855])
# modal loadings of the two canonical preparations (slow mode second entry):
# a2 = (p1 - p2)/sqrt2, a3 = sqrt6 * ((p1 + p2)/2 - pi1) with unit-norm modes
AMP_HOT_SLOW = 0.0
AMP_HOT_FAST = -0.6572238931573217
AMP_COLD_SLOW = 0.21213203435596423
AMP_COLD_FAST = -0.044851457461527286
# dT a3 = 0.5 sqrt6 dT pi3 for every simplex preparation of this ladder
DT_AMP_FAST = 0.29081345786587776


@pytest.fixture(scope="module")
def ladder():
    return build_lambda_rate_matrix(**LADDER)


@pytest.fixture(scope="module")
def ladder_spectrum(ladder):
    return decompose(ladder)


class TestConstruction:
    def test_columns_sum_to_zero(self, ladder):
        assert np.max(np.abs(ladder.entries.sum(axis=0))) < 1e-14

    def test_detailed_balance_holds(self, ladder):
        validate_rate_matrix(ladder)  # raises on violation

    def test_broken_balance_is_rejected(self, ladder):
        entries = ladder.entries.copy()
        entries[0, 2] *= 1.5
        entries[2, 2] = -(entries[0, 2] + entries[1, 2])
        bad = type(ladder)(
            entries=entries,
            energies=ladder.energies,
            temperature=ladder.temperature,
            family=None,
        )
        with pytest.raises(Exception):
            validate_rate_matrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (2, 2)])
    def test_non_finite_entry_is_rejected_first(self, ladder, bad, where):
        # NaN fails every later comparison and opposite infinities sum to NaN,
        # so finiteness is checked before any sum (a RuntimeWarning fails here)
        entries = ladder.entries.copy()
        entries[where] = bad
        matrix = RateMatrix(entries, ladder.energies, ladder.temperature)
        expected = f"rate matrix entry ({where[0]}, {where[1]}) is {bad}, not finite"
        with pytest.raises(RateMatrixError, match=re.escape(expected)):
            validate_rate_matrix(matrix)

    @pytest.mark.parametrize("entries", [np.array(1.0), np.zeros(3), np.zeros((2, 3))])
    @pytest.mark.parametrize("check", [validate_rate_matrix, decompose])
    def test_entries_that_are_not_a_square_matrix_are_rejected(self, ladder, entries, check):
        # a 0-d array has no first axis to read, so the shape is checked first
        matrix = RateMatrix(entries, ladder.energies, ladder.temperature)
        expected = f"entries must be square, got shape {entries.shape}"
        with pytest.raises(RateMatrixError, match=re.escape(expected)):
            check(matrix)

    def test_all_nan_matrix_names_its_first_entry(self, ladder):
        matrix = RateMatrix(np.full((3, 3), np.nan), ladder.energies, ladder.temperature)
        with pytest.raises(RateMatrixError, match=re.escape("entry (0, 0) is nan")):
            validate_rate_matrix(matrix)

    def test_overflowing_rates_fail_the_decomposition(self):
        # kappa = 1e308 times a Bose factor above 1 overflows to +-inf
        matrix = build_lambda_rate_matrix(0.0, 0.0, 1.0, 1e308, 1e308, 5.0)
        with pytest.raises(RateMatrixError, match=re.escape("entry (0, 0) is -inf")):
            decompose(matrix)

    @pytest.mark.parametrize(
        "levels",
        [
            (0.0, 0.0, 0.0),
            (0.0, 2.0, 1.0),
            (np.nan, 0.0, 1.0),
            (0.0, np.nan, 1.0),
            (0.0, 0.0, np.nan),
        ],
        ids=str,
    )
    def test_the_top_level_must_lie_above_both_low_levels(self, levels):
        # a NaN level used to pass and fail later as "omega0 must be positive, got nan"
        e1, e2, e3 = levels
        expected = f"top level must lie above both low levels, got ({e1}, {e2}, {e3})"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            build_lambda_rate_matrix(e1, e2, e3, 1.0, 1.0, 0.5)

    def test_qubit_matrix_reduces_to_two_level_model(self):
        from mpemba_thermometry import QubitBathParams, thermal_quantities

        params = QubitBathParams(1.0, 1.0, 0.5, 0.0)
        q = thermal_quantities(params)
        matrix = build_qubit_rate_matrix(1.0, 1.0, 0.5)
        dec = decompose(matrix)
        assert dec.eigenvalues[1] == pytest.approx(q.gamma0, rel=1e-13)
        assert dec.stationary[1] == pytest.approx(q.p_eq, rel=1e-13)


class TestGibbsVector:
    @staticmethod
    def written_out(energies, temperature):
        """The shift, negate, divide, normalise rule, one step per line."""
        energies = np.asarray(energies, dtype=float)
        shifted = energies - energies.min()
        weights = np.exp(-shifted / temperature)
        return weights / weights.sum()

    @pytest.mark.parametrize(
        "energies",
        [
            [0.0, 1.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.3, 1.1],
            [-2.0, -0.7, 0.4],
            [-1.0, -1.0],
            [0.5, 0.5, 0.5],
        ],
        ids=["two_level", "tied_ladder", "ladder", "negative", "tied_pair", "all_tied"],
    )
    def test_equals_the_written_out_rule_bit_for_bit(self, energies):
        for temperature in np.geomspace(1e-3, 1e3, 61).tolist():
            got = gibbs_vector(energies, temperature)
            assert np.array_equal(got, self.written_out(energies, temperature))

    @pytest.mark.parametrize("temperature", [float("nan"), 0.0, -0.0, -1.0])
    def test_non_positive_or_nan_temperature_raises(self, temperature):
        energies = np.array([0.0, 0.3, 1.1])
        for fn in (gibbs_vector, dT_gibbs_vector):
            with pytest.raises(ValueError, match="temperature must be positive"):
                fn(energies, temperature)


class TestDecomposition:
    def test_frozen_rates(self, ladder_spectrum):
        assert np.allclose(ladder_spectrum.eigenvalues, LADDER_RATES, rtol=0, atol=1e-13)

    def test_frozen_stationary(self, ladder_spectrum):
        assert np.allclose(ladder_spectrum.stationary, LADDER_PI, rtol=0, atol=1e-14)

    def test_stationary_matches_gibbs(self, ladder, ladder_spectrum):
        pi = gibbs_vector(ladder.energies, ladder.temperature)
        assert np.allclose(ladder_spectrum.stationary, pi, rtol=0, atol=1e-14)

    def test_biorthonormality(self, ladder_spectrum):
        overlap = ladder_spectrum.left_modes.T @ ladder_spectrum.right_modes
        assert np.max(np.abs(overlap - np.eye(3))) < 1e-10

    def test_modes_reconstruct_generator(self, ladder, ladder_spectrum):
        rebuilt = (
            ladder_spectrum.right_modes
            @ np.diag(-ladder_spectrum.eigenvalues)
            @ ladder_spectrum.left_modes.T
        )
        assert np.max(np.abs(rebuilt - ladder.entries)) < 1e-10

    def test_random_instances_decompose_cleanly(self):
        rng = np.random.default_rng(7011)
        for _ in range(25):
            matrix = random_ladder(rng)
            dec = decompose(matrix)
            overlap = dec.left_modes.T @ dec.right_modes
            assert np.max(np.abs(overlap - np.eye(3))) < 1e-9
            assert dec.eigenvalues[0] == 0.0
            assert np.all(np.diff(dec.eigenvalues) > 0)

    def test_degenerate_spectrum_is_reported(self):
        # projector generator -lam (I - pi 1^T): both decaying modes share lam
        energies = np.array([0.0, 0.3, 1.1])
        pi = gibbs_vector(energies, 0.5)
        entries = -1.0 * (np.eye(3) - np.outer(pi, np.ones(3)))
        matrix = RateMatrix(
            entries=entries,
            energies=energies,
            temperature=0.5,
        )
        with pytest.raises(DegenerateSpectrumError):
            decompose(matrix)

    @pytest.mark.parametrize(
        "delta, degenerate", [(2e-9, False), (1.2e-9, False), (8e-10, True), (5e-10, True)]
    )
    def test_the_gap_floor_on_a_real_generator(self, delta, degenerate):
        # R = D^1/2 S D^-1/2 with S = -(phi2 phi2^T + (1 + delta) phi3 phi3^T) and
        # phi1 = sqrt(pi): decay rates (0, 1, 1 + delta), 1e-9 the floor between them
        energies = np.array([0.0, 0.3, 1.1])
        pi = gibbs_vector(energies, 0.5)
        root = np.sqrt(pi)
        basis, _ = np.linalg.qr(np.column_stack([root, np.eye(3)[:, :2]]))
        phi = np.column_stack([root, basis[:, 1:]])
        rates = np.array([0.0, 1.0, 1.0 + delta])
        s = -(phi[:, 1:] * rates[1:]) @ phi[:, 1:].T
        entries = root[:, None] * s / root[None, :]
        matrix = RateMatrix(entries, energies, 0.5, d_entries=np.zeros((3, 3)))
        # the exact modes, for the derivatives past a decomposition that refuses
        exact = SpectralDecomposition(rates, root[:, None] * phi, phi / root[:, None], pi)
        if degenerate:
            with pytest.raises(DegenerateSpectrumError, match="coincide within 1e-09"):
                decompose(matrix)
            with pytest.raises(DegenerateSpectrumError, match="gap to mode 2"):
                temperature_derivatives(matrix, exact)
        else:
            dec = decompose(matrix)
            assert np.diff(dec.eigenvalues)[1] == pytest.approx(delta, rel=1e-3)
            temperature_derivatives(matrix, dec)
            temperature_derivatives(matrix, exact)


class TestModalEvolution:
    def test_projection_requires_simplex(self, ladder_spectrum):
        with pytest.raises(SimplexError):
            project_initial(ladder_spectrum, np.array([0.7, 0.5, -0.2]))

    def test_frozen_amplitudes(self, ladder_spectrum):
        hot = project_initial(ladder_spectrum, LADDER_HOT)
        cold = project_initial(ladder_spectrum, LADDER_COLD)
        assert hot.amplitudes[1] == pytest.approx(AMP_HOT_SLOW, abs=1e-12)
        assert hot.amplitudes[2] == pytest.approx(AMP_HOT_FAST, rel=1e-12)
        assert cold.amplitudes[1] == pytest.approx(AMP_COLD_SLOW, rel=1e-12)
        assert cold.amplitudes[2] == pytest.approx(AMP_COLD_FAST, rel=1e-12)

    def test_evolution_matches_integrator(self, ladder, ladder_spectrum):
        times = np.linspace(0.0, 20.0, 41)
        for p0 in (LADDER_HOT, LADDER_COLD):
            amps = project_initial(ladder_spectrum, p0)
            modal = modal_trajectory(ladder_spectrum, amps, times)
            reference = integrate_rate_equation(ladder.entries, p0, times, dt=1e-3)
            assert np.max(np.abs(modal - reference.states)) < 1e-10

    def test_population_conservation_along_trajectory(self, ladder_spectrum):
        rng = np.random.default_rng(5150)
        p0 = random_preparation(rng, ladder_spectrum.stationary)
        amps = project_initial(ladder_spectrum, p0)
        traj = modal_trajectory(ladder_spectrum, amps, np.linspace(0.0, 15.0, 31))
        assert np.max(np.abs(traj.sum(axis=1) - 1.0)) < 1e-12


class TestTemperatureResponse:
    def test_frozen_eigenvalue_slopes(self, ladder, ladder_spectrum):
        # the perturbation route uses the exact dT R, but the slopes pass
        # through a numerical eigendecomposition, so they match the
        # hand-derived values to rounding of that route, not to ulp
        der = temperature_derivatives(ladder, ladder_spectrum)
        assert der.d_eigenvalues[0] == 0.0
        assert der.d_eigenvalues[1] == pytest.approx(DT_RATE_2, rel=1e-8)
        assert der.d_eigenvalues[2] == pytest.approx(DT_RATE_3, rel=1e-8)

    def test_frozen_stationary_slope(self, ladder, ladder_spectrum):
        der = temperature_derivatives(ladder, ladder_spectrum)
        assert np.allclose(der.d_stationary, DT_PI, rtol=0, atol=1e-14)

    def test_frozen_amplitude_slopes(self, ladder, ladder_spectrum):
        der = temperature_derivatives(ladder, ladder_spectrum)
        for p0 in (LADDER_HOT, LADDER_COLD):
            amps = amplitudes_with_derivatives(ladder_spectrum, der, p0)
            assert amps.dT_amplitudes[2] == pytest.approx(DT_AMP_FAST, rel=1e-8)

    def test_stationary_slope_closed_form(self, ladder):
        pi = gibbs_vector(ladder.energies, ladder.temperature)
        closed = dT_gibbs_vector(ladder.energies, ladder.temperature)
        # sum rule: total probability is conserved under the slope
        assert abs(closed.sum()) < 1e-14
        mean_e = float(pi @ ladder.energies)
        expect = pi * (ladder.energies - mean_e) / ladder.temperature**2
        assert np.allclose(closed, expect, atol=1e-15)

    def test_perturbation_matches_finite_difference(self, ladder, ladder_spectrum):
        der = temperature_derivatives(ladder, ladder_spectrum)
        fd = finite_difference_spectrum(ladder, ladder_spectrum)
        assert np.max(np.abs(der.d_eigenvalues - fd.d_eigenvalues)) < 1e-8
        assert np.max(np.abs(der.d_right_modes - fd.d_right_modes)) < 1e-7
        assert np.max(np.abs(der.d_left_modes - fd.d_left_modes)) < 1e-7

    def test_finite_difference_dT_R_is_the_central_difference_of_the_family(
        self, ladder, ladder_spectrum
    ):
        # the stencil of every other field: the two generators at T +- h
        temp = ladder.temperature
        h = 1e-5 * temp
        expected = (ladder.family(temp + h).entries - ladder.family(temp - h).entries) / (2 * h)
        fd = finite_difference_spectrum(ladder, ladder_spectrum)
        assert fd.d_rate_matrix.tobytes() == expected.tobytes()

    def test_finite_difference_dT_R_matches_the_exact_one(self, ladder):
        rng = np.random.default_rng(2718)
        for matrix in [ladder, *(random_ladder(rng) for _ in range(10))]:
            fd = finite_difference_spectrum(matrix, decompose(matrix))
            scale = np.max(np.abs(matrix.d_entries))
            assert np.max(np.abs(fd.d_rate_matrix - matrix.d_entries)) <= 1e-8 * scale

    @pytest.mark.parametrize("gap_over_T", [5.0, 10.0])
    def test_cold_ladder_routes_agree_within_the_crosscheck_tolerances(self, gap_over_T):
        # (e3 - e1)/T = 15 puts the eigenvector route 1e-2 off (h = 1e-5 T loses
        # it to rounding), and from about 20.5 decompose raises
        matrix = build_lambda_rate_matrix(0.0, 0.3, 1.0, 1.0, 1.3, 1.0 / gap_over_T)
        dec = decompose(matrix)
        der = temperature_derivatives(matrix, dec)
        fd = finite_difference_spectrum(matrix, dec)
        fd_rates, fd_modes = fd.d_eigenvalues[1:], fd.d_right_modes[:, 1:]
        scalar = np.max(np.abs(der.d_eigenvalues[1:] - fd_rates)) / np.max(np.abs(fd_rates))
        vector = np.max(np.abs(der.d_right_modes[:, 1:] - fd_modes)) / np.max(np.abs(fd_modes))
        assert scalar < 1e-5
        assert vector < 1e-4

    def test_stationary_slope_is_rate_matrix_kernel_response(
        self, ladder, ladder_spectrum
    ):
        # R' pi + R pi' = 0 must hold for the assembled derivatives
        der = temperature_derivatives(ladder, ladder_spectrum)
        residual = (
            ladder.d_entries @ ladder_spectrum.stationary
            + ladder.entries @ der.d_stationary
        )
        assert np.max(np.abs(residual)) < 1e-8

    def test_modal_population_slope_against_oracle(self, ladder, ladder_spectrum):
        dec = ladder_spectrum
        der = temperature_derivatives(ladder, dec)
        amps = amplitudes_with_derivatives(dec, der, LADDER_COLD)
        times = np.array([0.0, 0.3, 1.0, 3.0, 8.0])

        def populations_of_T(temp: float) -> np.ndarray:
            moved = build_lambda_rate_matrix(
                LADDER["e1"],
                LADDER["e2"],
                LADDER["e3"],
                LADDER["kappa1"],
                LADDER["kappa2"],
                temp,
            )
            moved_dec = decompose(moved)
            moved_amps = project_initial(moved_dec, LADDER_COLD)
            return modal_trajectory(moved_dec, moved_amps, times).ravel()

        from mpemba_thermometry.oracle import finite_difference_dT

        est = finite_difference_dT(populations_of_T, LADDER["temperature"])
        got = np.array(
            [dT_populations_modal(dec, amps, der, t) for t in times]
        ).ravel()
        assert np.max(np.abs(got - est.value)) < 1e-8

    def test_random_instance_response_is_consistent(self):
        rng = np.random.default_rng(90210)
        for _ in range(10):
            matrix = random_ladder(rng)
            dec = decompose(matrix)
            der = temperature_derivatives(matrix, dec)
            fd = finite_difference_spectrum(matrix, dec)
            scale = max(np.max(np.abs(fd.d_eigenvalues)), 1e-8)
            assert (
                np.max(np.abs(der.d_eigenvalues - fd.d_eigenvalues)) / scale < 1e-6
            )


def ladders_with_preparations():
    """The canonical ladder with both preparations, then ten random ladders each
    with one random preparation."""
    ladder = build_lambda_rate_matrix(**LADDER)
    cases = [(ladder, LADDER_HOT), (ladder, LADDER_COLD)]
    rng = np.random.default_rng(6174)
    for _ in range(10):
        matrix = random_ladder(rng)
        cases.append((matrix, random_preparation(rng, decompose(matrix).stationary)))
    return cases


class TestAmplitudePass:
    """a_k and dT a_k come from one simplex check and one p0 - pi, and the
    decomposition takes its pi from the balance check."""

    def test_amplitudes_are_the_projection(self):
        for matrix, p0 in ladders_with_preparations():
            dec = decompose(matrix)
            amps = amplitudes_with_derivatives(dec, temperature_derivatives(matrix, dec), p0)
            assert amps.amplitudes.tobytes() == project_initial(dec, p0).amplitudes.tobytes()

    def test_amplitude_slopes_are_the_written_out_rule(self):
        for matrix, p0 in ladders_with_preparations():
            dec = decompose(matrix)
            der = temperature_derivatives(matrix, dec)
            delta = np.asarray(p0, dtype=float) - dec.stationary
            expected = der.d_left_modes.T @ delta - dec.left_modes.T @ der.d_stationary
            amps = amplitudes_with_derivatives(dec, der, p0)
            assert amps.dT_amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "p0, expected",
        [
            ([0.5, 0.5, 0.5], "populations sum to 1.5, not 1"),
            ([1.2, -0.2, 0.0], "negative population -0.2"),
        ],
    )
    def test_a_preparation_off_the_simplex_is_rejected(self, ladder, ladder_spectrum, p0, expected):
        der = temperature_derivatives(ladder, ladder_spectrum)
        with pytest.raises(SimplexError, match=f"^{re.escape(expected)}$"):
            amplitudes_with_derivatives(ladder_spectrum, der, np.array(p0))

    def test_the_balance_check_returns_the_stationary_vector(self):
        for matrix, _ in ladders_with_preparations():
            assert np.array_equal(validate_rate_matrix(matrix), decompose(matrix).stationary)


class TestTimeArrays:
    """dT_populations_modal over a time array, against one float call per time."""

    @given(seed=st.integers(0, 2**32 - 1), times=st.lists(st.floats(0.0, 30.0), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_float_calls(self, seed, times):
        rng = np.random.default_rng(seed)
        matrix = random_ladder(rng)
        dec = decompose(matrix)
        der = temperature_derivatives(matrix, dec)
        amps = amplitudes_with_derivatives(dec, der, random_preparation(rng, dec.stationary))
        grid = np.array([0.0, *times])
        rows = dT_populations_modal(dec, amps, der, grid)
        assert rows.shape == (grid.size, 3)
        a, da = amps.amplitudes[1:], amps.dT_amplitudes[1:]
        for t, row in zip(grid.tolist(), rows):
            single = dT_populations_modal(dec, amps, der, t)
            # the row's scale is the size of the terms it sums; at t = 0 they
            # cancel to rounding, so the value itself is no scale
            decay = np.exp(-dec.eigenvalues[1:] * t)
            modal = (da - a * t * der.d_eigenvalues[1:]) * decay
            scale = (
                np.abs(der.d_stationary).max()
                + np.abs(dec.right_modes).max() * np.abs(modal).sum()
                + np.abs(der.d_right_modes).max() * np.abs(a * decay).sum()
            )
            assert np.max(np.abs(row - single)) <= 1e-14 * scale

    def test_time_zero_rows_are_exact_zeros(self, ladder, ladder_spectrum):
        # the preparation is held fixed, so dT p(0) = 0 exactly, not to rounding
        der = temperature_derivatives(ladder, ladder_spectrum)
        for p0 in (LADDER_HOT, LADDER_COLD):
            amps = amplitudes_with_derivatives(ladder_spectrum, der, p0)
            rows = dT_populations_modal(ladder_spectrum, amps, der, np.array([0.0, 0.5, 0.0]))
            assert not np.any(rows[[0, 2]])
            assert np.all(rows[1] != 0.0)
            assert not np.any(dT_populations_modal(ladder_spectrum, amps, der, 0.0))


class TestExactGeneratorDerivative:
    """d_entries (the exact dT R) against the finite-difference oracle and at the edges."""

    @staticmethod
    def _check_against_oracle(matrix):
        d_r = matrix.d_entries
        assert not np.any(d_r.sum(axis=0))  # columns sum to zero exactly
        fd = finite_difference_dT(lambda temp: matrix.family(temp).entries, matrix.temperature)
        assert np.max(np.abs(d_r - fd.value)) <= 1e-7 * np.max(np.abs(d_r))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ladder_matches_finite_differences(self, seed):
        self._check_against_oracle(random_ladder(np.random.default_rng(seed)))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_qubit_matches_finite_differences(self, seed):
        params = random_qubit(np.random.default_rng(seed))
        self._check_against_oracle(
            build_qubit_rate_matrix(params.omega0, params.gamma, params.temperature)
        )

    def test_gap_matrix_equals_per_mode_sums(self):
        # the perturbation sums written out mode by mode, as the reference
        rng = np.random.default_rng(4417)
        for _ in range(20):
            matrix = random_ladder(rng)
            dec = decompose(matrix)
            der = temperature_derivatives(matrix, dec)
            lam, right, left = dec.eigenvalues, dec.right_modes, dec.left_modes
            overlap = left.T @ matrix.d_entries @ right
            for k in range(1, 3):
                d_right = sum(
                    overlap[j, k] / (lam[j] - lam[k]) * right[:, j] for j in range(3) if j != k
                )
                d_left = sum(
                    overlap[k, j] / (lam[j] - lam[k]) * left[:, j] for j in range(3) if j != k
                )
                scale = np.abs(overlap).max() / np.diff(lam).min()
                assert np.max(np.abs(der.d_right_modes[:, k] - d_right)) <= 1e-14 * scale
                assert np.max(np.abs(der.d_left_modes[:, k] - d_left)) <= 1e-14 * scale

    def test_gap_below_floor_raises_instead_of_nan(self, ladder):
        near = SpectralDecomposition(
            eigenvalues=np.array([0.0, 1.0, 1.0 + 5e-10]),
            right_modes=np.eye(3),
            left_modes=np.eye(3),
            stationary=np.full(3, 1.0 / 3.0),
        )
        with pytest.raises(DegenerateSpectrumError, match="gap"):
            temperature_derivatives(ladder, near)

    def test_cold_ladder_has_finite_derivative(self):
        # (e3 - e1)/T = 800 is past the overflow cutoff; (e3 - e2)/T = 80 is not
        with pytest.warns(ColdLimitWarning):
            matrix = build_lambda_rate_matrix(0.0, 0.9, 1.0, 1.0, 1.0, 1.0 / 800.0)
        assert np.all(np.isfinite(matrix.d_entries))
        assert np.any(matrix.d_entries)
        assert not np.any(matrix.d_entries.sum(axis=0))

    def test_matrix_without_provenance_cannot_be_differentiated(self, ladder, ladder_spectrum):
        bare = RateMatrix(
            entries=ladder.entries,
            energies=ladder.energies,
            temperature=ladder.temperature,
        )
        with pytest.raises(ValueError, match="d_entries"):
            temperature_derivatives(bare, ladder_spectrum)
