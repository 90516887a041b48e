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
    detect_inversion,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
    make_lambda_pair,
    make_qubit_pair,
    qfi_gain,
    thermal_distance,
    theorem_hierarchy_check,
)
from mpemba_thermometry.fisher import binomial_fisher, qfi_equilibrium, qfi_qubit_closed_form
from mpemba_thermometry.instances import make_lambda_probe, make_qubit_probe, measured_level
from mpemba_thermometry.mpemba import InversionRecord, TrajectoryOrderingError, distance_series
from mpemba_thermometry.spectral import dT_populations_modal

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


def crossover_time_bound(params, p0_hot, p0_cold):
    """Exact two-level crossing time, or None when the orderings never swap.

    t* = ln((p0_hot - p_eq)/(p0_cold - p_eq)) / (Gamma_hot - Gamma_cold) for
    preparations above equilibrium with Gamma_hot > Gamma_cold.  Identical
    preparations cross immediately (0.0).  The reference the detector is
    checked against.
    """
    p_eq = gibbs_population_qubit(params.omega0, params.temperature)
    if not (p0_hot >= p0_cold > p_eq):
        raise ValueError(
            f"need p0_hot >= p0_cold > p_eq, got ({p0_hot}, {p0_cold}) with p_eq={p_eq:.6g}"
        )
    if p0_hot == p0_cold:
        return 0.0
    rate_hot = effective_rate(params, p0_hot)
    rate_cold = effective_rate(params, p0_cold)
    if rate_hot <= rate_cold:
        return None
    return math.log((p0_hot - p_eq) / (p0_cold - p_eq)) / (rate_hot - rate_cold)


@pytest.fixture
def canonical_pair(canonical_params):
    return make_qubit_pair(canonical_params, P0_HOT, P0_COLD)


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


class TestPairOrdering:
    # on the canonical ladder: farther from equilibrium than the cold
    # preparation in total variation but nearer in the euclidean norm, and
    # the reverse
    TV_FARTHER = ([0.6145, 0.0892, 0.2963], [0.1597, 0.4252, 0.4151])
    TV_NEARER = ([0.5, 0.0, 0.5], [0.1, 0.35, 0.55])

    def test_ladder_checks_the_ordering_in_its_own_norm(self, ladder_matrix):
        pair = make_lambda_pair(ladder_matrix, *self.TV_FARTHER, norm_kind="total_variation")
        assert pair.detect().norm_kind == "total_variation"
        with pytest.raises(ValueError, match=r"starts nearer equilibrium .* in euclidean"):
            make_lambda_pair(ladder_matrix, *self.TV_FARTHER)
        assert make_lambda_pair(ladder_matrix, *self.TV_NEARER).detect().norm_kind == "euclidean"
        with pytest.raises(ValueError, match=r"starts nearer equilibrium .* in total_variation"):
            make_lambda_pair(ladder_matrix, *self.TV_NEARER, norm_kind="total_variation")

    def test_qubit_checks_the_ordering_in_scalar_abs(self, canonical_params):
        with pytest.raises(ValueError, match=r"starts nearer equilibrium .* in scalar_abs"):
            make_qubit_pair(canonical_params, P0_COLD, P0_HOT)
        assert make_qubit_pair(canonical_params, P0_HOT, P0_COLD).norm_kind == "scalar_abs"


class TestProbe:
    def test_qubit_probe_binds_the_closed_forms(self, canonical_params):
        times = np.linspace(0.0, 8.0, 41)
        hot = make_qubit_probe(canonical_params, P0_HOT)
        assert np.array_equal(
            hot.population(times), evolve_population(canonical_params, P0_HOT, times)
        )
        assert np.array_equal(
            hot.fisher(times), qfi_qubit_closed_form(canonical_params, P0_HOT, times)
        )
        # the thermalized probe holds the equilibrium values at every time
        thermal = make_qubit_probe(canonical_params, None)
        p_eq = gibbs_population_qubit(1.0, 0.5)
        assert thermal.population(2.0) == p_eq and isinstance(thermal.population(2.0), float)
        assert np.array_equal(thermal.population(times), np.full(times.shape, p_eq))
        f_eq = qfi_equilibrium(1.0, 0.5)
        assert np.array_equal(thermal.fisher(times), np.full(times.shape, f_eq))

    def test_ladder_probe_reads_the_top_level(self, ladder_matrix, ladder_pair):
        times = np.linspace(0.0, 10.0 / ladder_pair.slow_rate, 50)
        hot = make_lambda_probe(ladder_matrix, LADDER_HOT)
        p = ladder_pair.hot_population(times)[:, -1]
        dp = dT_populations_modal(
            ladder_pair.decomposition, ladder_pair.amps_hot, ladder_pair.derivatives, times
        )[:, -1]
        assert np.array_equal(hot.population(times), p)
        assert hot.population(1.5) == ladder_pair.hot_population(1.5)[-1]
        assert np.array_equal(hot.fisher(times), binomial_fisher(p, dp))
        assert hot.fisher(times)[1:] == pytest.approx(dp[1:] ** 2 / (p[1:] * (1 - p[1:])))
        thermal = make_lambda_probe(ladder_matrix, None)
        top, d_top = ladder_pair.equilibrium[-1], ladder_pair.derivatives.d_stationary[-1]
        assert np.array_equal(thermal.population(times), np.full(times.shape, top))
        assert thermal.fisher(3.0) == binomial_fisher(top, d_top)

    @pytest.mark.parametrize("state", [0.3, [0.2, 0.3, 0.5]])
    def test_measured_level(self, state):
        # a scalar state is its own level; a vector, and each row of a stack
        # of vectors, reads its top level
        level = np.ravel(state)[-1]
        assert measured_level(state) == level
        assert np.array_equal(measured_level(np.array([state, state]), state), [level, level])


class TestThermalDistance:
    def test_scalar_abs(self):
        assert thermal_distance(0.9, 0.12, "scalar_abs") == pytest.approx(0.78)

    def test_euclidean(self):
        d = thermal_distance(np.array([0.5, 0.5, 0.0]), np.array([0.4, 0.4, 0.2]), "euclidean")
        assert d == pytest.approx(math.sqrt(0.01 + 0.01 + 0.04), rel=1e-12)

    def test_total_variation(self):
        d = thermal_distance(
            np.array([0.5, 0.5, 0.0]),
            np.array([0.4, 0.4, 0.2]),
            norm_kind="total_variation",
        )
        assert d == pytest.approx(0.2, rel=1e-12)

    def test_no_norm_is_inferred(self):
        # every caller names the distance; none is read off the states' shape
        for distance in (thermal_distance, distance_series):
            with pytest.raises(TypeError):
                distance(0.9, 0.12)
        with pytest.raises(TypeError):
            detect_inversion(np.asarray, np.asarray, 0.0, [0.0, 1.0])

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            thermal_distance(0.5, 0.2, norm_kind="chebyshev")

    def test_scalar_norm_on_vector_rejected(self):
        with pytest.raises(ValueError):
            thermal_distance(np.array([0.5, 0.5]), np.array([0.4, 0.6]), "scalar_abs")

    @given(
        rows=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3), min_size=1, max_size=8
        ),
        eq=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_series_follows_the_single_state_rules(self, rows, eq):
        rows, eq = np.array(rows), np.array(eq)
        for kind in ("euclidean", "total_variation"):
            expected = [thermal_distance(row, eq, kind) for row in rows]
            assert distance_series(rows, eq, kind).tolist() == expected
        scalars = rows[:, 0]
        expected = [abs(p - eq[0]) for p in scalars.tolist()]
        assert distance_series(scalars, eq[0], "scalar_abs").tolist() == expected
        with pytest.raises(ValueError):
            distance_series(rows, eq, "scalar_abs")

    @pytest.mark.parametrize("kind", ["euclidean", "total_variation"])
    def test_vector_norm_on_scalar_series_rejected(self, kind):
        with pytest.raises(ValueError, match="does not fit scalar states"):
            distance_series(np.array([0.9, 0.1]), 0.12, kind)


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
            pair = make_qubit_pair(params, p0_hot, p0_cold)
            if exact * effective_rate(params, p0_cold) > 8.0:
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
        pair = make_qubit_pair(QubitBathParams(1.0, 1.0, 0.5, 0.0), 0.9, 0.5)
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
                norm_kind="scalar_abs",
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
        times = np.linspace(0.0, 10.0 / pair.slow_rate, 400)
        hot, cold = Recorder(pair.hot_population), Recorder(pair.cold_population)
        record = detect_inversion(hot, cold, pair.equilibrium, times, norm_kind=pair.norm_kind)
        assert record.t_star == pair.detect(times=times).t_star
        first = int(np.searchsorted(times, record.t_star))
        for recorder in (hot, cold):
            grid, *bisection = recorder.calls
            assert grid is times
            assert bisection and all(np.ndim(t) == 0 for t in bisection)
            assert all(times[first - 1] <= t <= times[first] for t in bisection)

    def test_tie_at_the_previous_grid_point_keeps_it(self):
        # D_hot = |2 - 2t| meets D_cold = 1 exactly at t = 0.5, the grid point
        # before the first strict inversion: no bracket to bisect, so the
        # crossing is that grid point
        record = detect_inversion(
            lambda t: 2.0 - 2.0 * np.asarray(t),
            lambda t: np.ones_like(np.asarray(t)),
            0.0,
            [0.0, 0.5, 1.0],
            norm_kind="scalar_abs",
        )
        assert record.t_star == 0.5
        assert record.persistent is True

    @given(delta=st.floats(0.0, 0.01))
    @settings(max_examples=30, deadline=None)
    def test_larger_deadband_never_detects_earlier(self, delta):
        pair = make_qubit_pair(QubitBathParams(**CANONICAL), P0_HOT, P0_COLD)
        times = np.linspace(0.0, 8.0, 400)
        base = detect_inversion(
            pair.hot_population, pair.cold_population, pair.equilibrium, times,
            norm_kind="scalar_abs",
        )
        widened = detect_inversion(
            pair.hot_population, pair.cold_population, pair.equilibrium, times, delta_tol=delta,
            norm_kind="scalar_abs",
        )
        if widened.detected:
            assert base.detected
            assert widened.t_star >= base.t_star - 1e-12


class TestRecordLines:
    # the relax trailer and the theorem certificate write these lines, one renderer
    def test_a_detected_record(self):
        record = InversionRecord(T_STAR_QUBIT, 0.0, "scalar_abs", persistent=True)
        assert record.to_lines() == [
            "inversion_detected = true",
            "t_star = 1.3671541640340499",
            "delta_tol = 0",
            "norm_kind = scalar_abs",
            "persistent = true",
        ]

    def test_a_record_without_an_inversion(self):
        record = InversionRecord(None, 1e-3, "euclidean", persistent=None)
        assert record.to_lines() == [
            "inversion_detected = false",
            "t_star = none",
            "delta_tol = 0.001",
            "norm_kind = euclidean",
            "persistent = none",
        ]


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

    @pytest.mark.parametrize(
        "reference", [0.0, -1.0, math.nan, np.array([1.0, math.nan])], ids=repr
    )
    def test_a_nan_or_non_positive_reference_is_rejected(self, reference):
        # a NaN reference used to give a NaN gain
        expected = "^reference Fisher information must be strictly positive$"
        with pytest.raises(ValueError, match=expected):
            qfi_gain(1.0, reference)

    @pytest.mark.parametrize("hot", [-1e-300, math.nan, np.array([1.0, math.nan])], ids=repr)
    def test_hot_must_be_non_negative(self, hot):
        # a NaN hot Fisher information used to give a NaN gain
        with pytest.raises(ValueError, match="^Fisher information must be non-negative$"):
            qfi_gain(hot, 1.0)


class TestHierarchyReport:
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
        assert report.times[0] == pytest.approx(T_STAR_QUBIT)
        # measured behaviour of this model: the claimed orderings do not hold
        # at the crossing — the equilibrium value dominates both trajectories
        assert not bool(report.hot_gt_cold[0])
        assert not bool(report.cold_ge_eq[0])
        assert report.first_violation_time == pytest.approx(T_STAR_QUBIT)
        assert not report.all_hold
