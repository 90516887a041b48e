"""Anomalous-relaxation detection: distance measures, crossing localization
against the exact log-ratio time, tolerance semantics, and the
Fisher-hierarchy report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpemba_thermometry import (
    QubitBathParams,
    QubitPair,
    crossover_time_bound,
    detect_inversion,
    make_lambda_pair,
    qfi_gain,
    thermal_distance,
    theorem_hierarchy_check,
)
from mpemba_thermometry.mpemba import TrajectoryOrderingError, distance_series

from conftest import (
    CANONICAL,
    LADDER_COLD,
    LADDER_HOT,
    P0_COLD,
    P0_HOT,
    random_qubit,
)

T_STAR_QUBIT = 1.3671541640340499
T_STAR_LADDER = 0.48787920210350055


@pytest.fixture
def canonical_pair(canonical_params):
    return QubitPair(canonical_params, P0_HOT, P0_COLD)


class Recorder:
    """Wraps t -> state and records every time argument it receives."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, t):
        self.calls.append(t)
        return self.fn(t)


@pytest.fixture
def ladder_pair(ladder_matrix):
    return make_lambda_pair(ladder_matrix, LADDER_HOT, LADDER_COLD)


class TestThermalDistance:
    def test_scalar_default(self):
        assert thermal_distance(0.9, 0.12) == pytest.approx(0.78)

    def test_vector_default_is_euclidean(self):
        d = thermal_distance(np.array([0.5, 0.5, 0.0]), np.array([0.4, 0.4, 0.2]))
        assert d == pytest.approx(math.sqrt(0.01 + 0.01 + 0.04), rel=1e-12)

    def test_total_variation(self):
        d = thermal_distance(
            np.array([0.5, 0.5, 0.0]),
            np.array([0.4, 0.4, 0.2]),
            norm_kind="total_variation",
        )
        assert d == pytest.approx(0.2, rel=1e-12)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            thermal_distance(0.5, 0.2, norm_kind="chebyshev")

    def test_scalar_norm_on_vector_rejected(self):
        with pytest.raises(ValueError):
            thermal_distance(np.array([0.5, 0.5]), np.array([0.4, 0.6]), "scalar_abs")

    def test_series_follows_the_single_state_rules(self):
        rows = np.array([[0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])
        eq = np.array([0.4, 0.4, 0.2])
        for kind in ("euclidean", "total_variation"):
            expected = [thermal_distance(row, eq, kind) for row in rows]
            assert distance_series(rows, eq, kind) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(ValueError):
            distance_series(rows, eq, "scalar_abs")
        assert distance_series(np.array([0.9, 0.1]), 0.12, "scalar_abs").tolist() == [
            abs(0.9 - 0.12),
            abs(0.1 - 0.12),
        ]


class TestCrossoverTimeBound:
    def test_frozen_canonical_value(self, canonical_params):
        t = crossover_time_bound(canonical_params, P0_HOT, P0_COLD)
        assert t == pytest.approx(T_STAR_QUBIT, rel=1e-14)

    def test_no_feedback_means_no_crossing(self):
        params = QubitBathParams(1.0, 1.0, 0.5, 0.0)
        assert crossover_time_bound(params, 0.9, 0.5) is None

    def test_identical_preparations_cross_immediately(self, canonical_params):
        assert crossover_time_bound(canonical_params, 0.7, 0.7) == 0.0

    def test_ordering_validated(self, canonical_params):
        with pytest.raises(ValueError):
            crossover_time_bound(canonical_params, 0.5, 0.9)


class TestDetectInversion:
    def test_canonical_crossing_from_callables(self, canonical_pair):
        record = canonical_pair.detect()
        assert record.detected
        assert record.t_star == pytest.approx(T_STAR_QUBIT, abs=1e-8)
        assert record.persistent

    def test_matches_exact_crossing_for_random_feedback_models(self):
        rng = np.random.default_rng(31415)
        found = 0
        while found < 10:
            params = random_qubit(rng)
            if params.alpha < 0.2:
                continue
            from mpemba_thermometry.qubit import gibbs_population_qubit

            p_eq = gibbs_population_qubit(params.omega0, params.temperature)
            p0_cold = float(rng.uniform(p_eq + 0.05, 0.7))
            p0_hot = float(rng.uniform(p0_cold + 0.1, 0.97))
            exact = crossover_time_bound(params, p0_hot, p0_cold)
            if exact is None or exact <= 0:
                continue
            pair = QubitPair(params, p0_hot, p0_cold)
            if exact * pair.rate_cold > 8.0:
                # the trajectories would cross below ~1e-5 distance, where
                # localization is limited by cancellation, not the detector
                continue
            grid = np.linspace(0.0, max(4.0 * exact, 10.0 / pair.slow_rate), 1500)
            record = pair.detect(times=grid)
            assert record.detected
            assert record.t_star == pytest.approx(exact, abs=1e-7)
            found += 1

    def test_ladder_crossing_matches_modal_closed_form(self, ladder_pair):
        record = ladder_pair.detect()
        assert record.detected
        assert record.t_star == pytest.approx(T_STAR_LADDER, abs=1e-8)

    def test_no_crossing_without_feedback(self):
        pair = QubitPair(QubitBathParams(1.0, 1.0, 0.5, 0.0), 0.9, 0.5)
        record = pair.detect()
        assert not record.detected
        assert record.t_star is None
        assert record.persistent is None

    def test_labels_must_start_ordered(self, canonical_pair):
        times = canonical_pair.default_time_grid()
        with pytest.raises(TrajectoryOrderingError):
            detect_inversion(
                canonical_pair.cold_population,
                canonical_pair.hot_population,
                canonical_pair.equilibrium,
                times,
            )

    def test_tolerance_suppresses_marginal_crossings(self, canonical_pair):
        # the canonical gap peaks near 3e-3; a wider deadband must veto it
        assert canonical_pair.detect(delta_tol=0.05).detected is False
        assert canonical_pair.detect(delta_tol=1e-4).detected is True

    @pytest.mark.parametrize("model", ["qubit", "ladder"])
    def test_callables_see_the_grid_once_then_bisect_with_floats(
        self, model, canonical_pair, ladder_pair
    ):
        pair = canonical_pair if model == "qubit" else ladder_pair
        times = pair.default_time_grid(400)
        hot, cold = Recorder(pair.hot_population), Recorder(pair.cold_population)
        record = detect_inversion(hot, cold, pair.equilibrium, times)
        assert record.t_star == pair.detect(times=times).t_star
        first = int(np.searchsorted(times, record.t_star))
        for recorder in (hot, cold):
            grid, *bisection = recorder.calls
            assert grid is times
            assert bisection and all(np.ndim(t) == 0 for t in bisection)
            assert all(times[first - 1] <= t <= times[first] for t in bisection)

    def test_array_input_reports_grid_point(self, canonical_pair):
        times = np.linspace(0.0, 5.0, 2001)
        hot = np.array([canonical_pair.hot_population(t) for t in times])
        cold = np.array([canonical_pair.cold_population(t) for t in times])
        record = detect_inversion(hot, cold, canonical_pair.equilibrium, times)
        assert record.detected
        # grid resolution, not bisection resolution
        assert abs(record.t_star - T_STAR_QUBIT) < 5e-3
        assert record.t_star in times

    @given(delta=st.floats(0.0, 0.01))
    @settings(max_examples=30, deadline=None)
    def test_larger_deadband_never_detects_earlier(self, delta):
        pair = QubitPair(QubitBathParams(**CANONICAL), P0_HOT, P0_COLD)
        times = np.linspace(0.0, 8.0, 400)
        base = detect_inversion(
            [pair.hot_population(t) for t in times],
            [pair.cold_population(t) for t in times],
            pair.equilibrium,
            times,
        )
        widened = detect_inversion(
            [pair.hot_population(t) for t in times],
            [pair.cold_population(t) for t in times],
            pair.equilibrium,
            times,
            delta_tol=delta,
        )
        if widened.detected:
            assert base.detected
            assert widened.t_star >= base.t_star - 1e-12


class TestQfiGain:
    def test_log_ratio(self):
        assert qfi_gain(10.0, 1.0) == pytest.approx(1.0)
        assert qfi_gain(0.5, 2.0) == pytest.approx(math.log10(0.25))

    def test_zero_hot_is_minus_infinity(self):
        assert qfi_gain(0.0, 1.0) == -math.inf

    def test_vector_broadcast(self):
        out = qfi_gain(np.array([1.0, 100.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, 2.0])

    def test_reference_must_be_positive(self):
        with pytest.raises(ValueError):
            qfi_gain(1.0, 0.0)


class TestHierarchyReport:
    def test_vacuous_without_crossing(self, canonical_pair):
        report = theorem_hierarchy_check(canonical_pair, None, np.linspace(0, 5, 10))
        assert not report.applicable
        assert not report.all_hold

    def test_each_curve_is_one_array_call(self, ladder_pair):
        class Probe:
            hot_fisher = Recorder(ladder_pair.hot_fisher)
            cold_fisher = Recorder(ladder_pair.cold_fisher)
            equilibrium_fisher = ladder_pair.equilibrium_fisher

        grid = np.linspace(0.0, 8.0, 50)
        report = theorem_hierarchy_check(Probe, T_STAR_LADDER, grid)
        for recorder in (Probe.hot_fisher, Probe.cold_fisher):
            assert len(recorder.calls) == 1
            assert np.array_equal(recorder.calls[0], report.times)
        expected = [ladder_pair.hot_fisher(t) > ladder_pair.cold_fisher(t) for t in report.times]
        assert report.hot_gt_cold.tolist() == expected

    def test_canonical_case_orderings(self, canonical_pair):
        grid = np.linspace(0.0, 8.0, 200)
        report = theorem_hierarchy_check(canonical_pair, T_STAR_QUBIT, grid)
        assert report.applicable
        assert report.times[0] == pytest.approx(T_STAR_QUBIT)
        # measured behaviour of this model: the claimed orderings do not hold
        # at the crossing — the equilibrium value dominates both trajectories
        assert not bool(report.hot_gt_cold[0])
        assert not bool(report.cold_ge_eq[0])
        assert report.first_violation_time == pytest.approx(T_STAR_QUBIT)
        assert not report.all_hold
