"""Finite-shot estimation pipeline: counter-based sampling, isotonic
regularization, calibration, the Fisher map, and the likelihood machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpemba_thermometry import QubitBathParams, protocol
from mpemba_thermometry.fisher import qfi_equilibrium
from mpemba_thermometry.protocol import (
    CELLS_DYNAMICAL,
    CELLS_ESTIMATE,
    CELLS_FISHER_MAP,
    BoundaryMaximumWarning,
    CalibrationCurve,
    DegenerateModelError,
    MultimodalLikelihoodWarning,
    ShotRecord,
    calibrate_equilibrium,
    dynamical_calibration,
    effective_temperature,
    fisher_map,
    mle_temperature,
    pav_isotonic,
    sample_population,
    sampling_stream,
)
from mpemba_thermometry.qubit import evolve_population, gibbs_population_qubit


def eq_model(t: float, temp: float) -> float:
    return gibbs_population_qubit(1.0, temp)


def hot_model(t, temp: float):
    return evolve_population(QubitBathParams(1.0, 1.0, temp, 1.0), 0.9, t)


def sampled_frequency(p: float, shots: int, seed: int, cell: int) -> float:
    record = sample_population(p, shots, seed, cell=cell)
    return record.successes / record.shots


def recording_sampler(monkeypatch) -> list[int]:
    """Record every cell the stage sampler draws, in draw order."""
    drawn: list[int] = []
    real = protocol._stage_sampler

    def recording(shots, seed):
        frequency = real(shots, seed)

        def recorded(p, cell):
            drawn.append(cell)
            return frequency(p, cell)

        return recorded

    monkeypatch.setattr(protocol, "_stage_sampler", recording)
    return drawn


def per_row_slopes(knots: np.ndarray, row: np.ndarray) -> np.ndarray:
    """One 5-point quadratic fit per knot, one row at a time."""
    n = knots.size
    slopes = np.empty(n)
    for j in range(n):
        lo = min(max(j - 2, 0), n - 5)
        window = slice(lo, lo + 5)
        slopes[j] = np.polyfit(knots[window] - knots[j], row[window], 2)[1]
    return slopes


class TestSamplingStreams:
    def test_reproducible(self):
        a = sample_population(0.3, 1000, seed=1234, cell=7)
        b = sample_population(0.3, 1000, seed=1234, cell=7)
        assert a.successes == b.successes == 322  # frozen draw

    def test_cells_are_independent_of_draw_order(self):
        first = [sample_population(0.4, 500, seed=9, cell=c).successes for c in (3, 5)]
        second = [
            sample_population(0.4, 500, seed=9, cell=c).successes for c in (5, 3)
        ]
        assert first == [second[1], second[0]]

    def test_distinct_cells_decorrelate(self):
        draws = {
            sampling_stream(11, cell).integers(0, 2**62) for cell in range(20)
        }
        assert len(draws) == 20

    def test_pipeline_cell_bases_are_disjoint(self):
        assert CELLS_DYNAMICAL < CELLS_FISHER_MAP < CELLS_ESTIMATE
        assert CELLS_FISHER_MAP - CELLS_DYNAMICAL >= 2**32

    def test_validation(self):
        with pytest.raises(ValueError):
            sampling_stream(-1, 0)
        with pytest.raises(ValueError):
            sample_population(1.2, 10, seed=0)
        with pytest.raises(ValueError):
            sample_population(0.5, 0, seed=0)

    @given(
        seed=st.integers(0, 2**63),
        shots=st.one_of(st.sampled_from([1, 7, 100, 10_000, 50_000]), st.integers(1, 10**6)),
        cells=st.lists(
            st.tuples(
                st.integers(0, 2**40),
                st.one_of(st.sampled_from([0.0, 1.0, 0.3]), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_stage_sampler_draws_what_sample_population_draws(self, seed, shots, cells, order):
        cells = cells + cells[:3]  # repeated cells and repeated (p, shots) pairs
        order.shuffle(cells)
        frequency = protocol._stage_sampler(shots, seed)
        for cell, p in cells:
            assert frequency(p, cell) == sampled_frequency(p, shots, seed, cell)

    @pytest.mark.parametrize(
        "p, shots, seed, cell",
        [(1.2, 10, 0, 0), (-0.1, 10, 0, 0), (0.5, 0, 0, 0), (0.5, -3, 0, 0),
         (0.5, 10, -1, 0), (0.5, 10, 0, -4), (2.0, 0, -1, -1)],
    )
    def test_stage_sampler_rejects_what_sample_population_rejects(self, p, shots, seed, cell):
        with pytest.raises(ValueError) as expected:
            sample_population(p, shots, seed, cell=cell)
        with pytest.raises(ValueError) as got:
            protocol._stage_sampler(shots, seed)(p, cell)
        assert str(got.value) == str(expected.value)

    def test_only_public_entry_points_build_streams(self, monkeypatch):
        # the per-cell stages draw through the re-keyed stage sampler; only
        # calibration and single records build a generator per cell
        built: list[tuple[int, int]] = []
        real = protocol.sampling_stream

        def counting(seed, cell):
            built.append((seed, cell))
            return real(seed, cell)

        monkeypatch.setattr(protocol, "sampling_stream", counting)
        temps = np.linspace(0.3, 0.7, 7)
        fisher_map(hot_model, np.linspace(0.0, 3.0, 11), temps, shots=1000, seed=3)
        dynamical_calibration(
            lambda T: QubitBathParams(1.0, 1.0, T, 0.0), 0.9, 0.5, temps,
            np.linspace(0.0, 4.0, 21), shots=1000, seed=3,
        )
        assert built == []
        calibrate_equilibrium(1.0, temps, shots=1000, seed=3)
        assert built == [(3, j) for j in range(temps.size)]
        built.clear()
        sample_population(0.4, 100, seed=3, cell=9)
        assert built == [(3, 9)]


class TestIsotonicFit:
    def test_sorted_input_unchanged(self):
        y = np.array([0.1, 0.2, 0.2, 0.5])
        assert np.array_equal(pav_isotonic(y), y)

    def test_simple_violation_pooled(self):
        out = pav_isotonic(np.array([3.0, 1.0, 2.0]))
        assert np.allclose(out, [2.0, 2.0, 2.0], rtol=0, atol=1e-15)

    def test_weighted_pool(self):
        out = pav_isotonic(np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        assert np.allclose(out, [1.0, 7 / 3, 7 / 3], rtol=0, atol=1e-14)

    def test_decreasing_direction(self):
        out = pav_isotonic(np.array([1.0, 3.0, 2.0]), increasing=False)
        assert np.all(np.diff(out) <= 0)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=30),
    )
    @settings(max_examples=80)
    def test_output_monotone_mean_preserving_idempotent(self, raw):
        y = np.asarray(raw)
        out = pav_isotonic(y)
        assert np.all(np.diff(out) >= -1e-12)
        assert out.mean() == pytest.approx(y.mean(), rel=1e-9, abs=1e-9)
        assert np.allclose(pav_isotonic(out), out, rtol=0, atol=1e-12)


class TestCalibration:
    def test_noiseless_reproduces_gibbs(self):
        temps = np.linspace(0.3, 0.7, 9)
        curve = calibrate_equilibrium(1.0, temps, shots=0, seed=0)
        exact = [gibbs_population_qubit(1.0, float(t)) for t in temps]
        assert np.allclose(curve.values, exact, rtol=0, atol=1e-15)

    def test_sampled_curve_is_monotone_and_close(self):
        temps = np.linspace(0.3, 0.7, 9)
        curve = calibrate_equilibrium(1.0, temps, shots=1_000_000, seed=7)
        assert np.all(np.diff(curve.values) >= 0)
        exact = np.array([gibbs_population_qubit(1.0, float(t)) for t in temps])
        assert np.max(np.abs(curve.values - exact)) < 2e-3

    def test_interpolation_clamps_outside_knots(self):
        curve = CalibrationCurve(
            knots=np.array([0.3, 0.5]), values=np.array([0.1, 0.2])
        )
        assert curve(0.1) == pytest.approx(0.1)
        assert curve(0.9) == pytest.approx(0.2)
        assert curve(0.4) == pytest.approx(0.15)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            CalibrationCurve(
                knots=np.array([0.3, 0.5]), values=np.array([0.2, 0.1])
            )

    def test_needs_increasing_temperatures(self):
        with pytest.raises(ValueError):
            calibrate_equilibrium(1.0, [0.5, 0.4], shots=0, seed=0)


def reference_dynamical_calibration(
    factory, p0_hot, p0_cold, temps, grid, shots, seed, delta_policy="3se"
):
    """The crossing search one cell at a time: float model calls and one
    ``sample_population`` per cell; returns the crossings and the drawn cells."""
    drawn: list[int] = []

    def observe(p: float, cell: int) -> float:
        if shots == 0:
            return p
        drawn.append(cell)
        return sampled_frequency(p, shots, seed, cell)

    out = {}
    stride = 2 * len(grid) + 1
    for j, temp in enumerate(temps):
        params = factory(float(temp))
        base = CELLS_DYNAMICAL + j * stride
        p_eq = observe(gibbs_population_qubit(params.omega0, params.temperature), base)
        crossing = None
        for i, t in enumerate(grid):
            hot = observe(evolve_population(params, p0_hot, float(t)), base + 1 + 2 * i)
            cold = observe(evolve_population(params, p0_cold, float(t)), base + 2 + 2 * i)
            if shots == 0:
                delta = 0.0
            elif isinstance(delta_policy, str):
                lo = 1.0 / (2.0 * shots)
                ph = min(max(hot, lo), 1.0 - lo)
                pc = min(max(cold, lo), 1.0 - lo)
                delta = 3.0 * math.sqrt(ph * (1.0 - ph) / shots + pc * (1.0 - pc) / shots)
            else:
                delta = float(delta_policy)
            if abs(hot - p_eq) < abs(cold - p_eq) - delta:
                crossing = float(t)
                break
        out[float(temp)] = crossing
    return out, drawn


class TestDynamicalCalibration:
    FACTORY = staticmethod(lambda T: QubitBathParams(1.0, 1.0, T, 1.0))
    NO_FEEDBACK = staticmethod(lambda T: QubitBathParams(1.0, 1.0, T, 0.0))
    GRID = np.linspace(0.0, 8.0, 161)
    # the settings of the tests below: (factory, temperatures, shots, seed, delta_policy)
    SETTINGS = [
        ("FACTORY", [0.5], 0, 0, "3se"),
        ("NO_FEEDBACK", [0.5], 0, 0, "3se"),
        ("FACTORY", [0.4, 0.5, 0.6], 10_000, 42, "3se"),
        ("NO_FEEDBACK", [0.5], 10_000, 42, 0.0),
    ]

    @pytest.mark.parametrize("factory, temps, shots, seed, policy", SETTINGS)
    def test_equals_per_cell_reference(self, monkeypatch, factory, temps, shots, seed, policy):
        drawn = recording_sampler(monkeypatch)
        args = (getattr(self, factory), 0.9, 0.5, temps, self.GRID)
        got = dynamical_calibration(*args, shots=shots, seed=seed, delta_policy=policy)
        expected, expected_cells = reference_dynamical_calibration(
            *args, shots, seed, delta_policy=policy
        )
        assert got == expected
        # the same cells in the same order: none past the first crossing
        assert drawn == expected_cells

    def test_noiseless_crossing_matches_grid_resolution(self):
        out = dynamical_calibration(
            self.FACTORY, 0.9, 0.5, [0.5], self.GRID, shots=0, seed=0
        )
        # exact crossing 1.36715...; first grid time strictly past it is 1.4
        assert out[0.5] == pytest.approx(1.4, abs=1e-12)

    def test_no_feedback_never_crosses(self):
        out = dynamical_calibration(
            lambda T: QubitBathParams(1.0, 1.0, T, 0.0),
            0.9,
            0.5,
            [0.5],
            self.GRID,
            shots=0,
            seed=0,
        )
        assert out[0.5] is None

    def test_sampled_margin_policy_vetoes_shallow_crossing(self):
        # the true distance gap (~3e-3) is far below three binomial standard
        # errors at 1e4 shots (~1.9e-2), so the guarded detector must pass
        out = dynamical_calibration(
            self.FACTORY, 0.9, 0.5, [0.4, 0.5, 0.6], self.GRID, shots=10_000, seed=42
        )
        assert out == {0.4: None, 0.5: None, 0.6: None}

    def test_zero_margin_produces_false_positives(self):
        # same shot budget, no margin, no true crossing: sampling noise alone
        # reports one — the reason the default policy carries the margin
        out = dynamical_calibration(
            lambda T: QubitBathParams(1.0, 1.0, T, 0.0),
            0.9,
            0.5,
            [0.5],
            self.GRID,
            shots=10_000,
            seed=42,
            delta_policy=0.0,
        )
        assert out[0.5] is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            dynamical_calibration(
                self.FACTORY, 0.9, 0.5, [0.5], self.GRID, shots=100, seed=0,
                delta_policy="5se",
            )


class TestFisherMap:
    def test_noiseless_map_tracks_closed_form(self):
        temps = np.linspace(0.3, 0.7, 21)
        fm = fisher_map(eq_model, [0.0], temps)
        exact = np.array([qfi_equilibrium(1.0, float(t)) for t in temps])
        rel = np.abs(fm.values[0] - exact) / exact
        # local-quadratic slope bias: ~1.5% two knots in, worse at the edges
        assert rel[2:-2].max() < 0.02
        assert rel.max() < 0.25

    def test_refining_knots_shrinks_bias(self):
        coarse = fisher_map(eq_model, [0.0], np.linspace(0.3, 0.7, 9))
        fine = fisher_map(eq_model, [0.0], np.linspace(0.3, 0.7, 33))
        exact = qfi_equilibrium(1.0, 0.5)
        err_c = abs(coarse.values[0][4] - exact)
        err_f = abs(fine.values[0][16] - exact)
        assert err_f < err_c

    def test_flat_populations_flagged_zero(self):
        temps = np.linspace(0.3, 0.7, 7)
        fm = fisher_map(lambda t, T: 0.0, [0.0, 1.0], temps)
        assert np.all(fm.zero_flags)
        assert np.all(fm.values == 0.0)

    def test_argmax_time(self):
        temps = np.linspace(0.3, 0.7, 5)
        times = np.linspace(0.0, 3.0, 31)
        params = QubitBathParams(1.0, 1.0, 0.5, 1.0)

        from mpemba_thermometry.qubit import evolve_population

        def hot_model(t: float, temp: float) -> float:
            moved = QubitBathParams(1.0, 1.0, temp, 1.0)
            return evolve_population(moved, 0.9, t)

        fm = fisher_map(hot_model, times, temps)
        t_best = fm.argmax_time(2)
        col = fm.values[:, 2]
        assert col[np.flatnonzero(times == t_best)[0]] == col.max()

    def test_needs_five_knots(self):
        with pytest.raises(ValueError):
            fisher_map(eq_model, [0.0], np.linspace(0.3, 0.7, 4))

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots must be non-negative"):
            fisher_map(eq_model, [0.0], np.linspace(0.3, 0.7, 5), shots=-5)

    def test_sampled_map_regularized_monotone_rowwise(self):
        temps = np.linspace(0.3, 0.7, 9)
        fm = fisher_map(eq_model, [0.0], temps, shots=50_000, seed=5)
        assert np.all(fm.values[0] >= 0.0)
        assert fm.values.shape == (1, 9)

    @given(
        n_knots=st.integers(5, 41),
        n_rows=st.integers(1, 40),
        uniform=st.booleans(),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @example(n_knots=5, n_rows=1, uniform=True, data_seed=0)
    @example(n_knots=5, n_rows=1, uniform=False, data_seed=1)
    @example(n_knots=5, n_rows=7, uniform=False, data_seed=2)
    @settings(max_examples=60, deadline=None)
    def test_batched_slopes_equal_per_row_fits_bit_for_bit(
        self, n_knots, n_rows, uniform, data_seed
    ):
        rng = np.random.default_rng(data_seed)
        if uniform:
            knots = np.linspace(0.2, 1.4, n_knots)
        else:
            knots = 0.2 + np.cumsum(rng.uniform(0.01, 0.3, n_knots))
        rows = rng.uniform(0.0, 1.0, (n_rows, n_knots))
        got = protocol._local_quadratic_slopes(knots, rows)
        expected = np.array([per_row_slopes(knots, row) for row in rows])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_model_called_once_per_temperature_with_all_times(self, shots):
        times = np.linspace(0.0, 3.0, 31)
        temps = np.linspace(0.3, 0.7, 9)
        calls = []

        def counting(t, temp):
            calls.append((t, temp))
            return hot_model(t, temp)

        fisher_map(counting, times, temps, shots=shots, seed=1)
        assert [temp for _, temp in calls] == temps.tolist()
        assert all(np.array_equal(t, times) for t, _ in calls)

    @pytest.mark.parametrize(
        "model", [hot_model, eq_model, lambda t, T: 0.0], ids=["hot", "equilibrium", "empty"]
    )
    def test_sampled_map_equals_per_cell_reference(self, model):
        times = np.linspace(0.0, 3.0, 13)
        temps = np.linspace(0.3, 0.7, 9)
        shots, seed = 10_000, 8
        values = np.empty((times.size, temps.size))
        flags = np.empty(values.shape, dtype=bool)
        for i, t in enumerate(times):
            sampled = np.array(
                [
                    sampled_frequency(
                        model(float(t), float(temp)), shots, seed,
                        CELLS_FISHER_MAP + i * temps.size + j,
                    )
                    for j, temp in enumerate(temps)
                ]
            )
            weights = np.full(temps.size, float(shots))
            inc = pav_isotonic(sampled, weights, increasing=True)
            dec = pav_isotonic(sampled, weights, increasing=False)
            row = inc if np.sum((inc - sampled) ** 2) <= np.sum((dec - sampled) ** 2) else dec
            slopes = per_row_slopes(temps, row)
            variance = row * (1.0 - row)
            flags[i] = variance < 1e-12
            values[i] = np.where(flags[i], 0.0, slopes**2 / np.where(flags[i], 1.0, variance))
        fm = fisher_map(model, times, temps, shots=shots, seed=seed)
        assert np.array_equal(fm.values, values)
        assert np.array_equal(fm.zero_flags, flags)


class TestMleTemperature:
    def test_noiseless_record_recovers_temperature(self):
        rec = ShotRecord(
            shots=1,
            successes=gibbs_population_qubit(1.0, 0.5),
            time=0.0,
            preparation="equilibrium",
            seed=0,
        )
        res = mle_temperature(
            [rec], eq_model, (0.2, 1.0), fisher_fn=lambda t, T: qfi_equilibrium(1.0, T)
        )
        # localization is noise-floor limited: likelihood differences fall
        # below double-precision resolution ~1e-8 away from the optimum
        assert abs(res.t_hat - 0.5) < 5e-8
        assert res.stderr == pytest.approx(qfi_equilibrium(1.0, 0.5) ** -0.5, rel=1e-6)
        assert not res.boundary and not res.multimodal

    def test_sampled_record_consistent_with_error_bar(self):
        rec = sample_population(
            gibbs_population_qubit(1.0, 0.5), 100_000, seed=99, cell=3
        )
        res = mle_temperature(
            [rec], eq_model, (0.2, 1.0), fisher_fn=lambda t, T: qfi_equilibrium(1.0, T)
        )
        assert abs(res.t_hat - 0.5) < 5.0 * res.stderr
        assert res.stderr == pytest.approx(
            1.0 / math.sqrt(100_000 * qfi_equilibrium(1.0, res.t_hat)), rel=1e-9
        )

    def test_records_pool_information(self):
        records = [
            sample_population(
                gibbs_population_qubit(1.0, 0.5), 10_000, seed=17, cell=c
            )
            for c in range(5)
        ]
        res = mle_temperature(
            [records[0]], eq_model, (0.2, 1.0),
            fisher_fn=lambda t, T: qfi_equilibrium(1.0, T),
        )
        pooled = mle_temperature(
            records, eq_model, (0.2, 1.0),
            fisher_fn=lambda t, T: qfi_equilibrium(1.0, T),
        )
        assert pooled.stderr < res.stderr

    def test_boundary_maximum_flagged(self):
        rec = ShotRecord(
            shots=1,
            successes=gibbs_population_qubit(1.0, 0.5),
            time=0.0,
            preparation="equilibrium",
            seed=0,
        )
        with pytest.warns(BoundaryMaximumWarning):
            res = mle_temperature([rec], eq_model, (0.6, 0.9))
        assert res.boundary
        assert res.t_hat == pytest.approx(0.6, abs=1e-6)

    def test_multimodal_scan_flagged(self):
        rec = ShotRecord(
            shots=1000, successes=500.0, time=0.0, preparation="equilibrium", seed=0
        )
        with pytest.warns(MultimodalLikelihoodWarning):
            res = mle_temperature(
                [rec], lambda t, T: 0.4 + 0.2 * math.sin(3.0 * T), (0.05, 4.0)
            )
        assert res.multimodal

    def test_grid_scan_evaluates_the_model_once_per_grid_point(self, monkeypatch):
        # one record: each likelihood evaluation is one model call, so the
        # calls are the 64-point grid once, the golden-section points, and
        # the final evaluation at t_hat
        calls = []

        def model(t, temp):
            calls.append(temp)
            return eq_model(t, temp)

        golden = []
        real = protocol._golden_section_maximize

        def recording(f, lo, hi, xtol):
            def g(x):
                golden.append(x)
                return f(x)

            return real(g, lo, hi, xtol)

        monkeypatch.setattr(protocol, "_golden_section_maximize", recording)
        rec = ShotRecord(
            shots=1000, successes=120.0, time=0.0, preparation="equilibrium", seed=0
        )
        res = mle_temperature(
            [rec], model, (0.2, 1.0), fisher_fn=lambda t, T: qfi_equilibrium(1.0, T)
        )
        assert golden
        assert calls[:64] == np.linspace(0.2, 1.0, 64).tolist()
        assert calls[64:-1] == golden
        assert calls[-1] == res.t_hat
        assert len(calls) == 64 + len(golden) + 1

    def test_flat_model_is_unidentifiable(self):
        rec = ShotRecord(
            shots=100, successes=37.0, time=0.0, preparation="equilibrium", seed=0
        )
        with pytest.raises(DegenerateModelError):
            mle_temperature([rec], lambda t, T: 0.37, (0.2, 1.0))

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError):
            mle_temperature([], eq_model, (0.2, 1.0))


class TestEffectiveTemperature:
    def test_round_trip(self):
        for temp in (0.3, 0.5, 1.2):
            p = gibbs_population_qubit(1.0, temp)
            assert effective_temperature(p, 1.0) == pytest.approx(temp, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_temperature(0.5, 1.0)
        with pytest.raises(ValueError):
            effective_temperature(0.0, 1.0)
        with pytest.raises(ValueError):
            effective_temperature(0.2, -1.0)
