"""Certificates for the transient-advantage argument: the exact three-way
sensitivity split, the per-lemma bounding inequalities, and the assembled
verification record."""

import math
from dataclasses import fields

import numpy as np
import pytest

from mpemba_thermometry import (
    QubitBathParams,
    certificates,
    decompose,
    dT_populations_modal,
    make_lambda_pair,
    make_qubit_pair,
    temperature_derivatives,
)
from mpemba_thermometry.certificates import (
    compute_lemma_constants,
    lemma1_remainder_check,
    lemma2_slow_mode,
    lemma3_fi_gap_bound,
    lemma3_metric_bounds,
    slow_mode_split,
    verify_theorem,
)
from mpemba_thermometry.spectral import amplitudes_with_derivatives

from conftest import (
    CANONICAL,
    LADDER_COLD,
    LADDER_HOT,
    P0_COLD,
    P0_HOT,
    random_ladder,
    random_preparation,
)

KAPPA0_CANONICAL = 0.5792493287730487  # |dT Gamma_hot| - |dT Gamma_cold|
T_STAR_QUBIT = 1.3671541640340499
T_STAR_LADDER = 0.48787920210350055


def _prepared(matrix, p0):
    dec = decompose(matrix)
    der = temperature_derivatives(matrix, dec)
    return dec, der, amplitudes_with_derivatives(dec, der, p0)


@pytest.fixture(scope="module")
def ladder_pieces():
    from mpemba_thermometry import build_lambda_rate_matrix

    matrix = build_lambda_rate_matrix(0.0, 0.0, 1.0, 1.0, 1.0, 0.5)
    return (matrix, *_prepared(matrix, LADDER_COLD))


class TestSlowModeSplit:
    def test_split_is_exact(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        for t in (0.0, 0.2, 1.0, 4.0):
            s, remainder = slow_mode_split(dec, amps, der, t)
            rebuilt = der.d_stationary + s * dec.right_modes[:, 1] + remainder
            total = dT_populations_modal(dec, amps, der, t)
            assert np.max(np.abs(rebuilt - total)) < 1e-14

    def test_split_is_exact_on_random_instances(self):
        rng = np.random.default_rng(1837)
        for _ in range(10):
            matrix = random_ladder(rng)
            dec, der, amps = _prepared(
                matrix, random_preparation(rng, decompose(matrix).stationary)
            )
            t = float(rng.uniform(0.0, 5.0))
            s, remainder = slow_mode_split(dec, amps, der, t)
            rebuilt = der.d_stationary + s * dec.right_modes[:, 1] + remainder
            total = dT_populations_modal(dec, amps, der, t)
            assert np.max(np.abs(rebuilt - total)) < 1e-12


class TestLemma1:
    def test_canonical_slacks_non_negative(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        for t in (0.0, T_STAR_LADDER, 2.0, 8.0):
            cert = lemma1_remainder_check(dec, amps, der, t)
            assert cert.fast_slack >= -1e-12
            assert cert.remainder_slack >= -1e-12

    def test_random_instances_satisfy_bounds(self):
        rng = np.random.default_rng(55901)
        for _ in range(20):
            matrix = random_ladder(rng)
            dec, der, amps = _prepared(
                matrix, random_preparation(rng, decompose(matrix).stationary)
            )
            for t in (0.05, 0.7, 3.0):
                cert = lemma1_remainder_check(dec, amps, der, t)
                assert cert.fast_slack >= -1e-12
                assert cert.remainder_slack >= -1e-12

    def test_two_level_systems_are_rejected(self):
        from mpemba_thermometry import build_qubit_rate_matrix

        matrix = build_qubit_rate_matrix(1.0, 1.0, 0.5)
        dec, der, amps = _prepared(matrix, np.array([0.1, 0.9]))
        with pytest.raises(ValueError):
            lemma1_remainder_check(dec, amps, der, 1.0)

    def test_requires_amplitude_derivatives(self, ladder_pieces):
        from mpemba_thermometry import project_initial

        _, dec, der, _ = ladder_pieces
        bare = project_initial(dec, LADDER_COLD)
        with pytest.raises(ValueError):
            lemma1_remainder_check(dec, bare, der, 1.0)


class TestLemma2:
    def test_canonical_slacks_non_negative(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        for t in (0.0, T_STAR_LADDER, 2.0, 8.0):
            cert = lemma2_slow_mode(dec, amps, der, t)
            assert cert.triangle_slack >= -1e-12
            assert cert.amp_bound_slack >= -1e-12

    def test_random_instances_satisfy_bounds(self):
        rng = np.random.default_rng(77003)
        for _ in range(20):
            matrix = random_ladder(rng)
            dec, der, amps = _prepared(
                matrix, random_preparation(rng, decompose(matrix).stationary)
            )
            for t in (0.05, 0.7, 3.0):
                cert = lemma2_slow_mode(dec, amps, der, t)
                assert cert.triangle_slack >= -1e-12
                assert cert.amp_bound_slack >= -1e-12

    def test_sensitivity_matches_direct_formula(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        t = 1.3
        cert = lemma2_slow_mode(dec, amps, der, t)
        a2 = amps.amplitudes[1]
        da2 = amps.dT_amplitudes[1]
        dlam2 = der.d_eigenvalues[1]
        lam2 = dec.eigenvalues[1]
        expect = (da2 - a2 * t * dlam2) * math.exp(-lam2 * t)
        assert cert.sensitivity.s_of_t == pytest.approx(expect, rel=1e-14)


class TestLemma3:
    def test_metric_bounds_bracket_inverse_populations(self):
        points = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3]])
        m_low, m_high = lemma3_metric_bounds(points)
        assert m_low == pytest.approx(1.0 / 0.6)
        assert m_high == pytest.approx(1.0 / 0.1)
        assert m_low <= m_high

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            lemma3_metric_bounds(np.array([[0.5, 0.5, 0.0]]))

    def test_gap_bound_algebra(self):
        v2 = np.array([1.0, 0.0, -1.0])
        bound = lemma3_fi_gap_bound(
            0.5, 0.1, np.zeros(3), np.zeros(3), v2, m_low=2.0
        )
        # ds = 0.4 * ||v2|| = 0.4 sqrt2, dr = 0: bound = m ds^2
        assert bound == pytest.approx(2.0 * (0.4 * math.sqrt(2.0)) ** 2, rel=1e-13)

    def test_gap_bound_penalizes_remainders(self):
        v2 = np.array([1.0, 0.0, -1.0])
        clean = lemma3_fi_gap_bound(0.5, 0.1, np.zeros(3), np.zeros(3), v2, 2.0)
        noisy = lemma3_fi_gap_bound(
            0.5, 0.1, np.array([0.1, 0.0, 0.0]), np.zeros(3), v2, 2.0
        )
        assert noisy < clean

    def test_metric_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            lemma3_fi_gap_bound(0.5, 0.1, np.zeros(3), np.zeros(3), np.ones(3), 0.0)


class TestLemmaConstants:
    def test_c1_dominates_amplitude_sensitivities(self):
        # the assembled constant must bound every |dT a_k| it claims to cover
        rng = np.random.default_rng(660411)
        for _ in range(15):
            matrix = random_ladder(rng)
            dec = decompose(matrix)
            p0 = random_preparation(rng, dec.stationary)
            der = temperature_derivatives(matrix, dec)
            amps = amplitudes_with_derivatives(dec, der, p0)
            constants = compute_lemma_constants(
                dec, der, amps, 1.0, dec.stationary[None, :]
            )
            assert constants.c1 >= np.max(np.abs(amps.dT_amplitudes[1:])) - 1e-12

    def test_metric_range_orders(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        cloud = np.vstack([dec.stationary, LADDER_COLD])
        constants = compute_lemma_constants(dec, der, amps, 0.5, cloud)
        assert 0 < constants.m_low < constants.m_high
        assert constants.gap_delta > 0
        assert constants.lambda_max >= constants.lambda_t


class TestInstanceConstantsCache:
    """The time-free constants are computed once per instance and shared read-only."""

    TIMES = (0.05, 0.6, 2.5)

    @staticmethod
    def certify(dec, der, amps, t):
        cloud = np.vstack([dec.stationary, LADDER_COLD])
        return (
            lemma1_remainder_check(dec, amps, der, t),
            lemma2_slow_mode(dec, amps, der, t),
            compute_lemma_constants(dec, der, amps, t, cloud),
        )

    def test_cached_results_equal_fresh_ones_field_by_field(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        certificates._time_free_constants.cache_clear()
        warm = [self.certify(dec, der, amps, t) for t in self.TIMES]
        # c_r depends on t through c_r1, so a cached time would show here
        assert len({constants.c_r for _, _, constants in warm}) == len(self.TIMES)
        for t, cached in zip(self.TIMES, warm):
            certificates._time_free_constants.cache_clear()
            fresh = self.certify(dec, der, amps, t)
            for got, want in zip(cached, fresh):
                for f in fields(want):
                    # == on every field: the cache must not carry one time's c_r1 to another
                    assert getattr(got, f.name) == getattr(want, f.name), (t, f.name)

    def test_cached_mapping_is_read_only(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        constants = certificates._time_free_constants(dec, der, amps)
        with pytest.raises(TypeError):
            constants["a_max"] = 0.0
        assert certificates._time_free_constants(dec, der, amps) is constants

    def test_distinct_instances_never_share_an_entry(self, ladder_matrix):
        # two pairs built from the same inputs are equal in value, not in identity
        first = make_lambda_pair(ladder_matrix, LADDER_HOT, LADDER_COLD)
        second = make_lambda_pair(ladder_matrix, LADDER_HOT, LADDER_COLD)
        certificates._time_free_constants.cache_clear()
        for pair in (first, second):
            certificates._time_free_constants(pair.decomposition, pair.derivatives, pair.amps_hot)
        assert certificates._time_free_constants.cache_info().misses == 2

    def test_lemma_sweep_computes_the_constants_once(self, ladder_pieces):
        _, dec, der, amps = ladder_pieces
        certificates._time_free_constants.cache_clear()
        for t in self.TIMES:
            lemma1_remainder_check(dec, amps, der, t)
            lemma2_slow_mode(dec, amps, der, t)
        info = certificates._time_free_constants.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(self.TIMES) - 1)

    def test_verify_theorem_computes_the_constants_once(self, ladder_matrix):
        pair = make_lambda_pair(ladder_matrix, [0.1, 0.2, 0.7], [0.1, 0.3, 0.6])
        certificates._time_free_constants.cache_clear()
        cert = verify_theorem(pair)
        assert cert.lemma1 is not None and cert.lemma2 is not None
        info = certificates._time_free_constants.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestVerifyTheorem:
    def test_canonical_qubit_certificate(self, canonical_params):
        pair = make_qubit_pair(canonical_params, P0_HOT, P0_COLD)
        cert = verify_theorem(pair)
        assert cert.applicable
        assert cert.kind == "qubit"
        assert cert.case == "A"
        assert cert.kappa0 == pytest.approx(KAPPA0_CANONICAL, rel=1e-12)
        assert cert.t_star == pytest.approx(T_STAR_QUBIT, abs=1e-8)
        # measured orderings at the crossing: both claimed inequalities fail
        assert cert.hot_gt_cold_at_tstar is False
        assert cert.cold_ge_eq_at_tstar is False
        assert cert.lemma1 is None and cert.constants is None

    def test_canonical_ladder_certificate(self, ladder_matrix):
        pair = make_lambda_pair(ladder_matrix, LADDER_HOT, LADDER_COLD)
        cert = verify_theorem(pair)
        assert cert.applicable
        assert cert.kind == "lambda"
        assert cert.case == "B"  # the hot preparation has no slow-mode loading
        assert cert.kappa0 is None
        assert cert.t_star == pytest.approx(T_STAR_LADDER, abs=1e-8)
        assert cert.lemma1.fast_slack >= -1e-12
        assert cert.lemma1.remainder_slack >= -1e-12
        assert cert.lemma2.triangle_slack >= -1e-12
        assert cert.lemma2.amp_bound_slack >= -1e-12
        # the metric bound does not certify a positive gap on this instance,
        # and the slow-mode term is dominated by the remainder it discards
        assert cert.gap_bound < 0
        assert cert.gap_bound_positive is False
        assert cert.gap_bound_valid is None
        assert cert.residual_ratio > 1.0

    def test_loaded_slow_mode_ladder_certificate(self, ladder_matrix):
        # the hot preparation loads the slow mode, so the ladder path is case A
        pair = make_lambda_pair(ladder_matrix, [0.1, 0.2, 0.7], [0.1, 0.3, 0.6])
        cert = verify_theorem(pair)
        assert cert.applicable
        assert cert.case == "A"
        # one generator for both preparations: the rate contrast is exactly 0
        assert cert.kappa0 == 0.0
        assert "kappa0 = 0\n" in cert.to_text()
        assert cert.t_star == pytest.approx(0.532, abs=1e-3)
        assert cert.lemma1 is not None and cert.lemma2 is not None
        assert cert.constants is not None
        for slack in (
            cert.lemma1.fast_slack,
            cert.lemma1.remainder_slack,
            cert.lemma2.triangle_slack,
            cert.lemma2.amp_bound_slack,
        ):
            assert slack >= -1e-12

    def test_no_inversion_yields_vacuous_record(self):
        pair = make_qubit_pair(QubitBathParams(1.0, 1.0, 0.5, 0.0), P0_HOT, P0_COLD)
        cert = verify_theorem(pair)
        assert not cert.applicable
        assert cert.t_star is None
        assert cert.case is None
        text = cert.to_text()
        assert "applicable = false" in text
        assert "inversion_detected = false" in text

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_the_text_writes_the_inversion_record_lines(self, alpha):
        pair = make_qubit_pair(QubitBathParams(1.0, 1.0, 0.5, alpha), P0_HOT, P0_COLD)
        cert = verify_theorem(pair)
        lines = cert.to_text().splitlines()
        assert lines[4:9] == cert.inversion.to_lines()

    def test_report_text_is_deterministic(self, ladder_matrix):
        pair = make_lambda_pair(ladder_matrix, LADDER_HOT, LADDER_COLD)
        first = verify_theorem(pair).to_text()
        second = verify_theorem(pair).to_text()
        assert first == second
        for key in (
            "model_kind = lambda",
            "case = B",
            "lemma1_fast_slack",
            "lemma2_triangle_slack",
            "constant_m_low",
            "gap_bound_valid = none",
            "residual_ratio",
        ):
            assert key in first
