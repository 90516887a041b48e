"""Finite-shot estimation pipeline: counter-based sampling, isotonic
regularization, calibration, the Fisher map, and the likelihood machinery."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpemba_thermometry import QubitBathParams, make_qubit_pair, protocol
from mpemba_thermometry.fisher import qfi_equilibrium
from mpemba_thermometry.mpemba import distance_series
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
    fisher_map,
    mle_temperature,
    nearest_knot,
    pav_isotonic,
    sample_population,
    sampling_stream,
)
from mpemba_thermometry.qubit import evolve_population, gibbs_population_qubit
from mpemba_thermometry.spectral import dT_gibbs_vector, gibbs_vector


def eq_model(t: float, temp: float) -> float:
    return gibbs_population_qubit(1.0, temp)


def hot_model(t, temp: float):
    return evolve_population(QubitBathParams(1.0, 1.0, temp, 1.0), 0.9, t)


def eq_fisher(t: float, temp: float) -> float:
    return qfi_equilibrium(1.0, temp)


def qubit_probe(factory=lambda T: QubitBathParams(1.0, 1.0, T, 1.0), p0_hot=0.9, p0_cold=0.5):
    """``probe_at(T)``: the qubit pair on the bath ``factory(T)``."""
    return lambda T: make_qubit_pair(factory(T), p0_hot, p0_cold)


def sampled_frequency(p: float, shots: int, seed: int, cell: int) -> float:
    """The success frequency of a fresh stream for ``cell``: the independent reference."""
    return int(sampling_stream(seed, cell).binomial(shots, p)) / shots


def recording_sampler(monkeypatch) -> list[int]:
    """Record every cell a stage draws, in draw order, as the block iterator yields it."""
    drawn: list[int] = []
    real = protocol._sampler

    def recording(shots, seed):
        draws = real(shots, seed)

        def recorded(p_true, first_cell):
            block = draws(p_true, first_cell)  # the block's checks run here, as in the stage

            def yielded():
                for cell, successes in enumerate(block, first_cell):
                    drawn.append(cell)
                    yield successes

            return yielded()

        return recorded

    monkeypatch.setattr(protocol, "_sampler", recording)
    return drawn


def recording_root(monkeypatch, brackets: list | None = None) -> list[float]:
    """Record every temperature the root finder evaluates (and, if given, each bracket)."""
    points: list[float] = []
    real = protocol._bracketed_root

    def recording(g, a, b, ga, gb):
        if brackets is not None:
            brackets.append((a, b))

        def recorded(x):
            points.append(x)
            return g(x)

        return real(recorded, a, b, ga, gb)

    monkeypatch.setattr(protocol, "_bracketed_root", recording)
    return points


def message(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


def refuse(name: str):
    def refused(*args):
        raise AssertionError(f"the {name} ran")

    return refused


def refined_brackets(monkeypatch) -> list[tuple[float, float]]:
    """Record the bracket that the root finder or the golden search is given."""
    brackets: list[tuple[float, float]] = []
    recording_root(monkeypatch, brackets)
    golden = protocol._golden_section_maximize

    def recording_golden(f, lo, hi, xtol):
        brackets.append((lo, hi))
        return golden(f, lo, hi, xtol)

    monkeypatch.setattr(protocol, "_golden_section_maximize", recording_golden)
    return brackets


def scalar_scan(rec, population_fn, interval) -> tuple[list[float], int, bool]:
    """The scan grid, best index and multimodal flag by the scalar rule, one math.log at a time."""
    grid = np.linspace(*interval, 64).tolist()
    scores = []
    for temp in grid:
        p = min(max(population_fn(rec.time, temp), 1e-12), 1.0 - 1e-12)
        scores.append(rec.successes * math.log(p) + (rec.shots - rec.successes) * math.log(1.0 - p))
    best = max(range(64), key=scores.__getitem__)  # the first maximum, as np.argmax
    peaks = sum(scores[i - 1] <= scores[i] >= scores[i + 1] for i in range(1, 63))
    return grid, best, peaks > 1


def bisection_root(g, a: float, b: float, steps: int = 200) -> float:
    """The sign change of ``g`` on [a, b], halved ``steps`` times: the independent reference."""
    ga = g(a)
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if (g(mid) > 0) == (ga > 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


P_HALF = gibbs_population_qubit(1.0, 0.5)
LADDER_ENERGIES = np.array([0.0, 0.0, 1.0])
# the equilibrium population each model's probe reads, as ``population_fn(t, T)``
EQUILIBRIA = {
    "qubit": lambda t, T: gibbs_population_qubit(1.0, T),
    "ladder": lambda t, T: float(gibbs_vector(LADDER_ENERGIES, T)[-1]),
}


def per_row_slopes(knots: np.ndarray, row: np.ndarray) -> np.ndarray:
    """One 5-point quadratic fit per knot, one row at a time."""
    n = knots.size
    slopes = np.empty(n)
    for j in range(n):
        lo = min(max(j - 2, 0), n - 5)
        window = slice(lo, lo + 5)
        slopes[j] = np.polyfit(knots[window] - knots[j], row[window], 2)[1]
    return slopes


def reference_pav(y: np.ndarray, w: np.ndarray, increasing: bool = True) -> np.ndarray:
    """Pool-adjacent-violators one row at a time: a sequential stack of blocks."""
    if not increasing:
        return -reference_pav(-y, w)
    block_w: list[float] = []
    block_mean: list[float] = []
    block_n: list[int] = []
    for yi, wi in zip(y.tolist(), w.tolist()):
        block_w.append(wi)
        block_mean.append(yi)
        block_n.append(1)
        while len(block_mean) > 1 and block_mean[-2] > block_mean[-1]:
            wa, wb = block_w[-2], block_w[-1]
            merged = (wa * block_mean[-2] + wb * block_mean[-1]) / (wa + wb)
            block_w[-2] = wa + wb
            block_mean[-2] = merged
            block_n[-2] += block_n[-1]
            del block_w[-1], block_mean[-1], block_n[-1]
    return np.repeat(block_mean, block_n)


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
        with pytest.raises(ValueError, match="shots must be non-negative"):
            sample_population(0.5, -1, seed=0)

    def test_noiseless_record_is_the_population_out_of_one_shot(self, monkeypatch):
        built = []
        monkeypatch.setattr(protocol, "sampling_stream", lambda *key: built.append(key))
        record = sample_population(0.37, 0, seed=5, time=1.5, preparation="hot", cell=3)
        assert record == ShotRecord(
            shots=1, successes=0.37, time=1.5, preparation="hot", seed=5
        )
        assert built == []
        for p in (-0.1, 1.2, math.nan):
            with pytest.raises(ValueError, match="p_true must lie in"):
                sample_population(p, 0, seed=5)
        with pytest.raises(ValueError, match="shots must be non-negative"):
            sample_population(0.37, -1, seed=5)

    @given(
        seed=st.one_of(st.integers(0, 2**63), st.integers(2**64 - 2**10, 2**64 - 1)),
        shots=st.one_of(st.sampled_from([1, 7, 100, 10_000, 50_000]), st.integers(1, 10**6)),
        blocks=st.lists(
            st.tuples(
                st.integers(0, 2**40),
                st.lists(
                    st.one_of(st.sampled_from([0.0, 1.0, 0.3]), st.floats(0.0, 1.0)),
                    min_size=1,
                    max_size=6,
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampler_draws_what_a_fresh_stream_draws(self, seed, shots, blocks, order):
        def fresh(first_cell, ps):
            return [
                int(sampling_stream(seed, first_cell + k).binomial(shots, p))
                for k, p in enumerate(ps)
            ]

        # repeated blocks, and one-cell blocks of the same cells, in shuffled order
        one_cell = [(first + k, [p]) for first, ps in blocks for k, p in enumerate(ps)]
        blocks = blocks + blocks[:3] + one_cell
        order.shuffle(blocks)
        draw = protocol._sampler(shots, seed)
        for first, ps in blocks:
            expected = fresh(first, ps)
            assert list(draw(ps, first)) == expected
            assert list(draw(np.array(ps), first)) == expected
            if len(ps) == 1:
                assert sample_population(ps[0], shots, seed, cell=first).successes == expected[0]
        # every draw re-keys, so the iterators of several blocks may be read interleaved
        iterators = [draw(ps, first) for first, ps in blocks]
        interleaved = [[] for _ in blocks]
        for step in range(max(len(ps) for _, ps in blocks)):
            for got, it, (_, ps) in zip(interleaved, iterators, blocks):
                if step < len(ps):
                    got.append(next(it))
        assert interleaved == [fresh(first, ps) for first, ps in blocks]
        # a rejected call leaves nothing behind for the next draw
        first, ps = blocks[0]
        with pytest.raises(ValueError):
            draw(ps + [1.5], first)
        with pytest.raises(ValueError):
            draw([0.5, 0.5], 2**64 - 1)
        first, ps = blocks[-1]
        assert list(draw(ps, first)) == fresh(first, ps)

    @pytest.mark.parametrize(
        "p, shots, seed, cell, message",
        [(1.2, 10, 0, 0, "p_true"), (-0.1, 10, 0, 0, "p_true"), (math.nan, 0, 0, 0, "p_true"),
         (0.5, -3, 0, 0, "shots must be non-negative"),
         (0.5, 10, -1, 0, "must be non-negative"), (0.5, 10, 0, -4, "must be non-negative"),
         (2.0, 0, -1, -1, "p_true"), (0.5, 10, 2**64, 0, "below 2"),
         (0.5, 10, 0, 2**64, "below 2"), (0.5, 10, 2**65, 2**64 + 1, "below 2")],
    )
    def test_sampler_rejects_what_sample_population_rejects(self, p, shots, seed, cell, message):
        with pytest.raises(ValueError, match=message) as expected:
            sample_population(p, shots, seed, cell=cell)
        # a one-cell block raises at the call, before its iterator exists
        with pytest.raises(ValueError) as got:
            protocol._sampler(shots, seed)([p], cell)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("shots", [0, 10])
    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_a_block_is_checked_whole_before_any_draw(self, monkeypatch, shots, bad, where):
        drawn = recording_sampler(monkeypatch)
        block = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        block[where] = bad
        expected = message(sample_population, bad, shots, 4, cell=9)
        assert expected == f"p_true must lie in [0, 1], got {bad}"
        assert message(protocol._sampler(shots, 4), block, 9) == expected
        if where < len(block) - 1:
            block[-1] = -7.0  # a later bad value is not the one reported
            assert message(protocol._sampler(shots, 4), block, 9) == expected
        assert drawn == []

    def test_a_block_ending_on_an_invalid_cell_raises_before_any_draw(self, monkeypatch):
        drawn = recording_sampler(monkeypatch)
        draw = protocol._sampler(10, 4)
        expected = message(sample_population, 0.5, 10, 4, cell=2**64)
        assert message(draw, [0.5] * 3, 2**64 - 2) == expected
        assert expected == f"seed and cell must be below 2**64, got (4, {2**64})"
        assert drawn == []
        # the last valid cells still draw, and noiseless blocks check no key
        assert list(draw([0.5] * 2, 2**64 - 2)) == [
            int(sampling_stream(4, cell).binomial(10, 0.5)) for cell in (2**64 - 2, 2**64 - 1)
        ]
        assert list(protocol._sampler(0, 4)([0.5] * 3, 2**64 - 2)) == [0.5] * 3

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_each_sampled_stage_builds_one_stream(self, monkeypatch, shots):
        # a stage re-keys one stream per draw; the noiseless stages build none
        built: list[tuple[int, int]] = []
        real = protocol.sampling_stream

        def counting(seed, cell):
            built.append((seed, cell))
            return real(seed, cell)

        monkeypatch.setattr(protocol, "sampling_stream", counting)
        temps = np.linspace(0.3, 0.7, 7)
        one_stream = [(3, 0)] if shots else []
        stages = [
            lambda: fisher_map(hot_model, np.linspace(0.0, 3.0, 11), temps, shots=shots, seed=3),
            lambda: dynamical_calibration(
                qubit_probe(lambda T: QubitBathParams(1.0, 1.0, T, 0.0)), temps,
                np.linspace(0.0, 4.0, 21), shots=shots, seed=3,
            ),
            lambda: calibrate_equilibrium(qubit_probe(), temps, shots=shots, seed=3),
            lambda: sample_population(0.4, shots, seed=3, cell=9),
        ]
        for stage in stages:
            built.clear()
            stage()
            assert built == one_stream


class TestIsotonicFit:
    def test_sorted_input_unchanged(self):
        y = np.array([0.1, 0.2, 0.2, 0.5])
        assert np.array_equal(pav_isotonic(y, np.ones(4)), y)

    def test_simple_violation_pooled(self):
        out = pav_isotonic(np.array([3.0, 1.0, 2.0]), np.ones(3))
        assert np.allclose(out, [2.0, 2.0, 2.0], rtol=0, atol=1e-15)

    def test_weighted_pool(self):
        out = pav_isotonic(np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        assert np.allclose(out, [1.0, 7 / 3, 7 / 3], rtol=0, atol=1e-14)

    def test_decreasing_direction(self):
        out = -pav_isotonic(-np.array([1.0, 3.0, 2.0]), np.ones(3))
        assert np.all(np.diff(out) <= 0)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=30),
    )
    @settings(max_examples=80)
    def test_output_monotone_mean_preserving_idempotent(self, raw):
        y = np.asarray(raw)
        out = pav_isotonic(y, np.ones(y.size))
        assert np.all(np.diff(out) >= -1e-12)
        assert out.mean() == pytest.approx(y.mean(), rel=1e-9, abs=1e-9)
        assert np.allclose(pav_isotonic(out, np.ones(y.size)), out, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "values, weights",
        [([1.0, 2.0], [math.nan, 1.0]), ([3.0, math.nan, 1.0], np.ones(3)),
         ([1.0, 2.0], [math.inf, 1.0]), ([math.inf, 0.0], np.ones(2))],
        ids=["nan-weight", "nan-value", "inf-weight", "inf-value"],
    )
    def test_non_finite_input_rejected(self, values, weights):
        with pytest.raises(ValueError, match="finite"):
            pav_isotonic(values, weights)

    @given(
        rows=st.integers(1, 6).flatmap(
            lambda r: st.integers(1, 41).flatmap(
                lambda n: st.tuples(
                    st.lists(
                        st.one_of(
                            st.lists(st.sampled_from([0.1, 0.2, 0.3]), min_size=n, max_size=n),
                            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                            st.sampled_from([[0.0] * n, [1.0] * n]),
                        ),
                        min_size=r,
                        max_size=r,
                    ),
                    st.one_of(
                        st.none(),
                        st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n),
                        st.lists(st.sampled_from([1.0, 2.0, 1e4]), min_size=n, max_size=n),
                    ),
                )
            )
        ),
    )
    @example(rows=([[3.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [1.0, 1.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_sequential_stack_loop_bit_for_bit(self, rows):
        values, weights = rows
        y = np.array(values, dtype=float)
        w = np.ones(y.shape[1]) if weights is None else np.array(weights)

        def bits(a):
            return np.asarray(a).view(np.int64).tolist()

        for row in y:
            for increasing in (True, False):
                got = pav_isotonic(row, w) if increasing else -pav_isotonic(-row, w)
                assert bits(got) == bits(reference_pav(row, w, increasing))
        # the Fisher map's layout: every row, then every row negated
        stacked = np.vstack([y, -y])
        got = protocol._pav_rows(stacked, np.broadcast_to(w, stacked.shape))
        expected = [reference_pav(row, w) for row in stacked]
        assert bits(got) == bits(expected)


class TestCalibration:
    def test_noiseless_reproduces_gibbs(self):
        temps = np.linspace(0.3, 0.7, 9)
        curve = calibrate_equilibrium(qubit_probe(), temps, shots=0, seed=0)
        exact = [gibbs_population_qubit(1.0, float(t)) for t in temps]
        assert np.allclose(curve.values, exact, rtol=0, atol=1e-15)

    def test_sampled_curve_is_monotone_and_close(self):
        temps = np.linspace(0.3, 0.7, 9)
        curve = calibrate_equilibrium(qubit_probe(), temps, shots=1_000_000, seed=7)
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
            calibrate_equilibrium(qubit_probe(), [0.5, 0.4], shots=0, seed=0)


def reference_dynamical_calibration(
    factory, p0_hot, p0_cold, temps, grid, shots, seed, delta_policy="3se"
):
    """The crossing search one cell at a time: float model calls and one
    fresh stream per sampled cell; returns the crossings and the drawn cells."""
    drawn: list[int] = []

    def observe(p: float, cell: int) -> float:
        drawn.append(cell)
        return p if shots == 0 else sampled_frequency(p, shots, seed, cell)

    out = []
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
        out.append(crossing)
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
        factory = getattr(self, factory)
        got = dynamical_calibration(
            qubit_probe(factory), temps, self.GRID, shots=shots, seed=seed, delta_policy=policy
        )
        expected, expected_cells = reference_dynamical_calibration(
            factory, 0.9, 0.5, temps, self.GRID, shots, seed, delta_policy=policy
        )
        assert got == expected
        # the same cells in the same order: none past the first crossing
        assert drawn == expected_cells

    def test_noiseless_crossing_matches_grid_resolution(self):
        out = dynamical_calibration(qubit_probe(self.FACTORY), [0.5], self.GRID, shots=0, seed=0)
        # exact crossing 1.36715...; first grid time strictly past it is 1.4
        assert out[0] == pytest.approx(1.4, abs=1e-12)

    @pytest.mark.parametrize("factory", ["FACTORY", "NO_FEEDBACK"])
    @pytest.mark.parametrize("temp", [0.35, 0.5, 0.8])
    def test_noiseless_crossing_is_the_scalar_distance_kernel(self, factory, temp):
        # the inline |p - p_eq| comparison is distance_series' scalar_abs case
        params = getattr(self, factory)(temp)
        p_eq = gibbs_population_qubit(params.omega0, params.temperature)
        hot = distance_series(evolve_population(params, 0.9, self.GRID), p_eq, "scalar_abs")
        cold = distance_series(evolve_population(params, 0.5, self.GRID), p_eq, "scalar_abs")
        crossed = np.flatnonzero(hot < cold)
        expected = float(self.GRID[crossed[0]]) if crossed.size else None
        out = dynamical_calibration(
            qubit_probe(getattr(self, factory)), [temp], self.GRID, shots=0, seed=0
        )
        assert out == [expected]

    def test_no_feedback_never_crosses(self):
        out = dynamical_calibration(
            qubit_probe(self.NO_FEEDBACK), [0.5], self.GRID, shots=0, seed=0
        )
        assert out[0] is None

    def test_sampled_margin_policy_vetoes_shallow_crossing(self):
        # the true distance gap (~3e-3) is far below three binomial standard
        # errors at 1e4 shots (~1.9e-2), so the guarded detector must pass
        out = dynamical_calibration(
            qubit_probe(self.FACTORY), [0.4, 0.5, 0.6], self.GRID, shots=10_000, seed=42
        )
        assert out == [None, None, None]

    def test_zero_margin_produces_false_positives(self):
        # same shot budget, no margin, no true crossing: sampling noise alone
        # reports one — the reason the default policy carries the margin
        out = dynamical_calibration(
            qubit_probe(self.NO_FEEDBACK), [0.5], self.GRID, shots=10_000, seed=42,
            delta_policy=0.0,
        )
        assert out[0] is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            dynamical_calibration(
                qubit_probe(self.FACTORY), [0.5], self.GRID, shots=100, seed=0,
                delta_policy="5se",
            )

    @pytest.mark.parametrize("shots", [0, 100])
    @pytest.mark.parametrize("policy", [-0.5, -1e-300, -math.inf, math.inf, math.nan])
    def test_negative_or_non_finite_margin_rejected(self, shots, policy):
        # a negative margin reports a crossing wherever the distances tie, at t = 0
        with pytest.raises(ValueError, match="finite non-negative number"):
            dynamical_calibration(
                qubit_probe(self.FACTORY), [0.5], self.GRID, shots=shots, seed=0,
                delta_policy=policy,
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
            inc = reference_pav(sampled, weights, increasing=True)
            dec = reference_pav(sampled, weights, increasing=False)
            row = inc if np.sum((inc - sampled) ** 2) <= np.sum((dec - sampled) ** 2) else dec
            slopes = per_row_slopes(temps, row)
            variance = row * (1.0 - row)
            flags[i] = variance < 1e-12
            values[i] = np.where(flags[i], 0.0, slopes**2 / np.where(flags[i], 1.0, variance))
        fm = fisher_map(model, times, temps, shots=shots, seed=seed)
        assert np.array_equal(fm.values, values)
        assert np.array_equal(fm.zero_flags, flags)


def flat_pair(equilibrium: float, hot, cold):
    """A pair whose populations along any grid are ``hot`` and ``cold`` (one per time)."""
    return SimpleNamespace(
        equilibrium=equilibrium,
        hot_population=lambda t: np.asarray(hot, dtype=float),
        cold_population=lambda t: np.asarray(cold, dtype=float),
    )


class TestStageBlocks:
    """Each stage draws through checked blocks: a bad population anywhere in a
    block raises before any of the block's cells is drawn, and the checks run
    once per block, not once per cell."""

    GRID = np.linspace(0.0, 1.0, 5)
    BAD = [1.2, -0.1, math.nan]

    @pytest.mark.parametrize("shots", [0, 10])
    @pytest.mark.parametrize("bad", BAD)
    def test_calibration_checks_every_knot_first(self, monkeypatch, shots, bad):
        drawn = recording_sampler(monkeypatch)
        probe_at = lambda T: SimpleNamespace(equilibrium=bad if T == 0.6 else 0.3)  # noqa: E731
        got = message(calibrate_equilibrium, probe_at, [0.3, 0.4, 0.5, 0.6], shots, 2)
        assert got == f"p_true must lie in [0, 1], got {bad}"
        assert drawn == []

    @pytest.mark.parametrize("shots", [0, 10])
    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("preparation", ["hot", "cold", "equilibrium"])
    def test_inversion_map_checks_each_temperature_block_first(
        self, monkeypatch, shots, bad, preparation
    ):
        drawn = recording_sampler(monkeypatch)
        # at T = 0.4 nothing moves (every draw is 0, so no crossing); T = 0.5 is spoiled
        rows = {"equilibrium": 0.0, "hot": [0.0] * 5, "cold": [0.0] * 5}
        if preparation == "equilibrium":
            rows["equilibrium"] = bad
        else:
            rows[preparation][-1] = bad
        pairs = {0.4: flat_pair(0.0, [0.0] * 5, [0.0] * 5), 0.5: flat_pair(**rows)}
        got = message(dynamical_calibration, pairs.get, [0.4, 0.5], self.GRID, shots, 2)
        assert got == f"p_true must lie in [0, 1], got {bad}"
        # the first temperature's whole block, and not one cell of the second
        stride = 2 * self.GRID.size + 1
        assert drawn == list(range(CELLS_DYNAMICAL, CELLS_DYNAMICAL + stride))

    @pytest.mark.parametrize("bad", BAD)
    def test_noiseless_bad_value_past_the_crossing_raises(self, monkeypatch, bad):
        drawn = recording_sampler(monkeypatch)
        hot, cold = [0.9, 0.5, 0.5, 0.5, 0.5], [0.1, 0.1, 0.1, 0.1, 0.1]
        # the clean pair crosses at the second time and draws nothing past it
        out = dynamical_calibration(lambda T: flat_pair(0.5, hot, cold), [0.5], self.GRID, 0, 2)
        assert out == [0.25]
        assert drawn == list(range(CELLS_DYNAMICAL, CELLS_DYNAMICAL + 5))
        drawn.clear()
        # a bad value after that crossing was never reached per cell; the block sees it
        cold[-1] = bad
        got = message(
            dynamical_calibration, lambda T: flat_pair(0.5, hot, cold), [0.5], self.GRID, 0, 2
        )
        assert got == f"p_true must lie in [0, 1], got {bad}"
        assert drawn == []

    @pytest.mark.parametrize("bad", BAD)
    def test_sampled_fisher_map_checks_the_whole_grid_first(self, monkeypatch, bad):
        drawn = recording_sampler(monkeypatch)

        def spoiled(t, temp):
            row = np.full(t.size, 0.4)
            if temp == 0.7:
                row[-1] = bad
            return row

        temps = np.linspace(0.3, 0.7, 5)
        got = message(fisher_map, spoiled, self.GRID, temps, shots=10, seed=2)
        assert got == f"p_true must lie in [0, 1], got {bad}"
        assert drawn == []

    def test_checks_run_per_block_not_per_cell(self, monkeypatch):
        calls = {"check_probability": 0, "_check_key": 0}
        for name in calls:
            real = getattr(protocol, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(protocol, name, counted)
        temps = np.linspace(0.3, 0.7, 9)

        def checks(stage, points: int) -> dict[str, int]:
            for name in calls:
                calls[name] = 0
            stage(np.linspace(0.0, 8.0, points))
            return dict(calls)

        stages = {
            "dynamical_calibration": lambda grid: dynamical_calibration(
                qubit_probe(), temps, grid, shots=10_000, seed=3
            ),
            "fisher_map": lambda grid: fisher_map(hot_model, grid, temps, shots=10_000, seed=3),
        }
        for name, stage in stages.items():
            small, large = checks(stage, 51), checks(stage, 201)
            # the stream's key, then the first and last key of each block
            blocks = temps.size if name == "dynamical_calibration" else 1
            assert small == large == {"check_probability": 0, "_check_key": 1 + 2 * blocks}


# (t_hat, stderr, log_likelihood) of mle_temperature before the scan was scored
# as one array expression; the refinement and the reported values keep their bits
FROZEN_ESTIMATES = {
    "sampled_root": (0.5000406651248973, 0.0024400704603689213, -36536.80096541005),
    "noiseless_root": (0.5, 0.771540317407622, -0.36533385508720767),
    "no_successes": (0.20000000004489538, 0.049058315832171795, -0.671534849663003),
    "hot_probe": (0.4828387627998405, 0.01, -3665.2631575488394),
    "ladder_top": (0.7798202347573564, 0.018593820736118146, -3704.960904018718),
    "multimodal": (0.17453292519943286, 0.03162277660168379, -693.1471805599452),
}


def wavy_model(t: float, temp: float) -> float:
    return 0.4 + 0.2 * math.sin(3.0 * temp)


def linear_model(t: float, temp: float) -> float:
    return 0.25 * temp


def frozen_case(name: str):
    """(records, population_fn, interval, fisher_fn) of one frozen estimate."""

    top = EQUILIBRIA["ladder"]

    def top_fisher(t, T):
        p = top(t, T)
        return float(dT_gibbs_vector(LADDER_ENERGIES, T)[-1]) ** 2 / (p * (1.0 - p))

    def unit(t, T):
        return 1.0

    qubit = (eq_model, (0.2, 1.0), eq_fisher)
    hot_k = sample_population(hot_model(2.0, 0.5), 10_000, 5, 0).successes
    top_record = sample_population(top(0.0, 0.8), 10_000, 11, 2)
    return {
        "sampled_root": ([sample_population(P_HALF, 100_000, 99, 3)], *qubit),
        "noiseless_root": ([ShotRecord(1, P_HALF, 0.0, "equilibrium", 0)], *qubit),
        "no_successes": ([ShotRecord(100, 0.0, 0.0, "equilibrium", 0)], *qubit),
        "hot_probe": ([ShotRecord(10_000, hot_k, 2.0, "hot", 5)], hot_model, (0.2, 1.0), unit),
        "ladder_top": ([top_record], top, (0.4, 1.2), top_fisher),
        "multimodal": ([ShotRecord(1000, 500.0, 0.0, "hot", 0)], wavy_model, (0.05, 4.0), unit),
    }[name]


class TestMleTemperature:
    def test_noiseless_record_recovers_temperature(self):
        rec = ShotRecord(
            shots=1,
            successes=gibbs_population_qubit(1.0, 0.5),
            time=0.0,
            preparation="equilibrium",
            seed=0,
        )
        res = mle_temperature([rec], eq_model, (0.2, 1.0), fisher_fn=eq_fisher)
        # one record: the estimate is the root of p(T) = k/n, to the last bits
        assert abs(res.t_hat - 0.5) <= 1e-14 * 0.5
        assert res.stderr == pytest.approx(qfi_equilibrium(1.0, 0.5) ** -0.5, rel=1e-6)
        assert not res.boundary and not res.multimodal

    def test_sampled_record_consistent_with_error_bar(self):
        rec = sample_population(
            gibbs_population_qubit(1.0, 0.5), 100_000, seed=99, cell=3
        )
        res = mle_temperature([rec], eq_model, (0.2, 1.0), fisher_fn=eq_fisher)
        assert abs(res.t_hat - 0.5) < 5.0 * res.stderr
        assert res.stderr == pytest.approx(
            1.0 / math.sqrt(100_000 * qfi_equilibrium(1.0, res.t_hat)), rel=1e-9
        )

    def test_boundary_maximum_flagged(self):
        rec = ShotRecord(
            shots=1,
            successes=gibbs_population_qubit(1.0, 0.5),
            time=0.0,
            preparation="equilibrium",
            seed=0,
        )
        with pytest.warns(BoundaryMaximumWarning):
            res = mle_temperature([rec], eq_model, (0.6, 0.9), fisher_fn=eq_fisher)
        assert res.boundary
        assert res.t_hat == pytest.approx(0.6, abs=1e-6)

    def test_multimodal_scan_flagged(self):
        rec = ShotRecord(
            shots=1000, successes=500.0, time=0.0, preparation="equilibrium", seed=0
        )
        with pytest.warns(MultimodalLikelihoodWarning):
            res = mle_temperature(
                [rec], lambda t, T: 0.4 + 0.2 * math.sin(3.0 * T), (0.05, 4.0),
                fisher_fn=lambda t, T: 1.0,
            )
        assert res.multimodal

    def test_grid_scan_evaluates_the_model_once_per_grid_point(self, monkeypatch):
        # one interior record: the calls are the 64-point grid once, the root
        # finder's points, and the final evaluation at t_hat; the
        # golden-section search never runs
        calls = []

        def model(t, temp):
            calls.append(temp)
            return eq_model(t, temp)

        roots = recording_root(monkeypatch)
        monkeypatch.setattr(protocol, "_golden_section_maximize", refuse("golden search"))
        rec = ShotRecord(
            shots=1000, successes=120.0, time=0.0, preparation="equilibrium", seed=0
        )
        res = mle_temperature([rec], model, (0.2, 1.0), fisher_fn=eq_fisher)
        # interpolation steps, not the ~45 halvings of the bracket to the last bits
        assert 0 < len(roots) <= 8
        assert calls[:64] == np.linspace(0.2, 1.0, 64).tolist()
        assert calls[64:-1] == roots
        assert calls[-1] == res.t_hat
        assert len(calls) == 64 + len(roots) + 1

    @pytest.mark.parametrize(
        "rec, interval",
        [
            # k = 0 and k = n: the maximum is where p is smallest or largest
            (ShotRecord(1000, 0.0, 0.0, "equilibrium", 0), (0.2, 1.0)),
            (ShotRecord(1000, 1000.0, 0.0, "equilibrium", 0), (0.2, 1.0)),
            # p(T) > k/n over the whole interval: no root on the bracket
            (ShotRecord(1, P_HALF, 0.0, "equilibrium", 0), (0.6, 0.9)),
        ],
        ids=["no_successes", "all_successes", "no_sign_change"],
    )
    def test_golden_search_refines_what_has_no_root(self, monkeypatch, rec, interval):
        golden = []
        real = protocol._golden_section_maximize

        def recording(f, lo, hi, xtol):
            golden.append(lo)
            return real(f, lo, hi, xtol)

        monkeypatch.setattr(protocol, "_golden_section_maximize", recording)
        monkeypatch.setattr(protocol, "_bracketed_root", refuse("root finder"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMaximumWarning)
            mle_temperature([rec], eq_model, interval, fisher_fn=eq_fisher)
        assert len(golden) == 1

    @given(
        model=st.sampled_from(["qubit", "ladder"]),
        temp=st.floats(0.3, 2.0),
        seed=st.integers(0, 2**32),
        cell=st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_record_estimate_is_the_root_of_p_equals_k_over_n(self, model, temp, seed, cell):
        population = EQUILIBRIA[model]
        rec = sample_population(population(0.0, temp), 10_000, seed, cell)
        target = rec.successes / rec.shots
        interval = (0.5 * temp, 1.5 * temp)
        brackets: list[tuple[float, float]] = []
        with pytest.MonkeyPatch.context() as patch:
            roots = recording_root(patch, brackets)
            res = mle_temperature([rec], population, interval, fisher_fn=lambda t, T: 1.0)
        assert roots and len(brackets) == 1
        reference = bisection_root(lambda T: population(0.0, T) - target, *brackets[0])
        assert abs(res.t_hat - reference) <= 1e-14 * reference
        grid = np.linspace(*interval, 64)
        p = np.clip([population(0.0, T) for T in grid.tolist()], 1e-12, 1.0 - 1e-12)
        scores = rec.successes * np.log(p) + (rec.shots - rec.successes) * np.log1p(-p)
        assert res.log_likelihood >= scores.max() - 1e-9 * abs(scores.max())
        assert not res.boundary and not res.multimodal

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_model_in_the_root_raises(self, bad):
        # finite on every scan point, not finite between them: the first root
        # step, inside the bracket, must raise rather than steer the search
        grid = set(np.linspace(0.2, 1.0, 64).tolist())
        calls = []

        def model(t, temp):
            calls.append(temp)
            return eq_model(t, temp) if temp in grid else bad

        rec = ShotRecord(
            shots=1000, successes=120.0, time=0.0, preparation="equilibrium", seed=0
        )
        with pytest.raises(DegenerateModelError, match="not finite") as info:
            mle_temperature([rec], model, (0.2, 1.0), fisher_fn=eq_fisher)
        assert len(calls) == 65
        assert repr(calls[-1]) in str(info.value)

    @pytest.mark.parametrize(
        "bad, bad_at, first",
        [
            (math.nan, lambda T: T == 1.0, 1.0),
            (math.nan, lambda T: True, 0.2),
            (math.inf, lambda T: T > 0.6, np.linspace(0.2, 1.0, 64)[32]),
            (-math.inf, lambda T: T < 0.3, 0.2),
        ],
        ids=["nan_at_the_top", "nan_everywhere", "inf_upper_half", "minus_inf_low_end"],
    )
    def test_non_finite_model_on_the_scan_raises(self, bad, bad_at, first):
        # the scan checks its model values before the spread test, which a NaN
        # spread would pass as "constant" and an inf spread would pass silently
        rec = ShotRecord(
            shots=1000, successes=120.0, time=0.0, preparation="equilibrium", seed=0
        )
        model = lambda t, T: bad if bad_at(T) else eq_model(t, T)  # noqa: E731
        with pytest.raises(DegenerateModelError, match="not finite") as info:
            mle_temperature([rec], model, (0.2, 1.0), fisher_fn=eq_fisher)
        message = str(info.value)
        assert f"model population {bad} at temperature {float(first)!r}" in message
        assert "constant" not in message

    @pytest.mark.parametrize(
        "population, interval",
        [
            (eq_model, (0.2, 1.0)),
            (EQUILIBRIA["ladder"], (0.25, 0.75)),
            (hot_model, (0.2, 1.0)),
            (wavy_model, (0.05, 4.0)),
        ],
        ids=["qubit", "ladder", "hot_qubit", "multimodal"],
    )
    def test_scan_picks_the_scalar_rules_best_and_multimodal(
        self, monkeypatch, population, interval
    ):
        time = 2.0 if population is hot_model else 0.0
        cases = [(1, population(time, 0.5))]  # noiseless
        for shots in (1, 100, 10_000):
            cases += [(shots, float(k)) for k in sorted({0, 1, shots // 2, shots - 1, shots})]
        brackets = refined_brackets(monkeypatch)
        for shots, successes in cases:
            rec = ShotRecord(shots, successes, time, "hot", 0)
            grid, best, multimodal = scalar_scan(rec, population, interval)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryMaximumWarning)
                warnings.simplefilter("ignore", MultimodalLikelihoodWarning)
                res = mle_temperature([rec], population, interval, fisher_fn=lambda t, T: 1.0)
            assert brackets.pop() == (grid[max(best - 1, 0)], grid[min(best + 1, 63)])
            assert res.multimodal == multimodal, (shots, successes)

    @pytest.mark.parametrize(
        "successes, refused",
        [
            (500.0, "_golden_section_maximize"),
            (0.0, "_bracketed_root"),
            (1000.0, "_bracketed_root"),
        ],
        ids=["root", "no_successes", "all_successes"],
    )
    def test_reported_log_likelihood_is_the_array_rule_at_t_hat(
        self, monkeypatch, successes, refused
    ):
        # k = n/2 is refined by the root, k = 0 and k = n by golden-section
        # search; either way the value reported is the one array rule
        monkeypatch.setattr(protocol, refused, refuse(refused))
        rec = ShotRecord(1000, successes, 0.0, "equilibrium", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMaximumWarning)
            res = mle_temperature([rec], linear_model, (0.3, 3.0), fisher_fn=lambda t, T: 1.0)
        p = min(max(linear_model(0.0, res.t_hat), 1e-12), 1.0 - 1e-12)
        k, n = rec.successes, rec.shots
        assert res.log_likelihood == k * np.log(p) + (n - k) * np.log(1.0 - p)

    @pytest.mark.parametrize("name", sorted(FROZEN_ESTIMATES))
    def test_estimates_keep_their_bits(self, name):
        records, population, interval, fisher = frozen_case(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMaximumWarning)
            warnings.simplefilter("ignore", MultimodalLikelihoodWarning)
            res = mle_temperature(records, population, interval, fisher_fn=fisher)
        assert (res.t_hat, res.stderr, res.log_likelihood) == FROZEN_ESTIMATES[name]

    @pytest.mark.parametrize("temp", [0.3, 0.8, 2.0])
    def test_ladder_closure_makes_69_to_72_model_calls(self, temp):
        # the library-validation closure: the ladder's equilibrium top level at
        # 10^4 shots, estimated on (T/2, 3T/2); a count of work, not a timer
        calls = []

        def top_population(t, T):
            calls.append(T)
            return float(gibbs_vector(LADDER_ENERGIES, T)[-1])

        for cell in range(4):
            rec = sample_population(top_population(0.0, temp), 10_000, 31, cell)
            calls.clear()
            mle_temperature(
                [rec], top_population, (0.5 * temp, 1.5 * temp), fisher_fn=lambda t, T: 1.0
            )
            assert 69 <= len(calls) <= 72

    def test_flat_model_is_unidentifiable(self):
        rec = ShotRecord(
            shots=100, successes=37.0, time=0.0, preparation="equilibrium", seed=0
        )
        with pytest.raises(DegenerateModelError):
            mle_temperature([rec], lambda t, T: 0.37, (0.2, 1.0), fisher_fn=eq_fisher)

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError):
            mle_temperature([], eq_model, (0.2, 1.0), fisher_fn=eq_fisher)

    @pytest.mark.parametrize("count", [0, 2])
    def test_the_estimate_models_exactly_one_record(self, count):
        records = [sample_population(P_HALF, 10_000, 17, c) for c in range(count)]
        with pytest.raises(ValueError, match=f"need exactly one observation, got {count}$"):
            mle_temperature(records, eq_model, (0.2, 1.0), fisher_fn=eq_fisher)

    @pytest.mark.parametrize(
        "shots, successes, field",
        [(0, 0.0, "shots"), (10, 12.0, "successes"), (10, -1.0, "successes"),
         (10, math.nan, "successes")],
        ids=["no_shots", "more_successes_than_shots", "negative_successes", "nan_successes"],
    )
    def test_a_record_that_is_not_binomial_is_rejected(self, shots, successes, field):
        # each used to return an estimate: the lower edge, about 1.0, or 0.2 with stderr inf
        rec = ShotRecord(shots, successes, 0.0, "equilibrium", 0)
        with pytest.raises(ValueError, match=f"^{field} must"):
            mle_temperature([rec], eq_model, (0.2, 1.0), fisher_fn=eq_fisher)


def equilibrium_probe(omega0: float):
    """``probe_at(T)`` reduced to what ``nearest_knot`` reads: the qubit's equilibrium."""
    return lambda T: SimpleNamespace(equilibrium=gibbs_population_qubit(omega0, T))


def closed_form_knot(knots: np.ndarray, p: float, omega0: float) -> int:
    """The knot nearest the closed-form inversion T = omega0 / ln(1/p - 1)."""
    if p <= 0.0:
        return 0
    if p >= 0.5:
        return knots.size - 1
    return int(np.argmin(np.abs(knots - omega0 / math.log(1.0 / p - 1.0))))


class TestNearestKnot:
    @pytest.mark.parametrize("data_seed", range(20))
    def test_equals_the_closed_form_argmin(self, data_seed):
        rng = np.random.default_rng(data_seed)
        for _ in range(10):
            omega0 = float(rng.uniform(0.5, 2.0))
            n = int(rng.integers(2, 42))
            if rng.random() < 0.5:
                knots = np.linspace(*np.sort(rng.uniform(0.1, 3.0, 2)), n)
            else:
                knots = 0.1 + np.cumsum(rng.uniform(0.005, 0.3, n))
            lo = gibbs_population_qubit(omega0, 0.5 * float(knots[0]))
            hi = gibbs_population_qubit(omega0, 2.0 * float(knots[-1]))
            for p in rng.uniform(lo, hi, 20).tolist():
                got = nearest_knot(equilibrium_probe(omega0), knots, p)
                assert got == closed_form_knot(knots, p, omega0), (omega0, knots, p)

    def test_qubit_pairs_pick_the_closed_form_knot(self):
        knots = np.linspace(0.3, 0.7, 9)
        for p in (0.02, 0.08, 0.1, 0.13, 0.16, 0.2):
            assert nearest_knot(qubit_probe(), knots, p) == closed_form_knot(knots, p, 1.0)

    @pytest.mark.parametrize("p, expected", [(0.0, 0), (0.5, 8), (0.7, 8), (1.0, 8)])
    def test_out_of_range_clamps_to_the_edge_knot(self, p, expected):
        knots = np.linspace(0.3, 0.7, 9)
        assert nearest_knot(equilibrium_probe(1.0), knots, p) == expected
        assert closed_form_knot(knots, p, 1.0) == expected

    def test_midpoint_tie_goes_to_the_lower_knot(self):
        knots = np.linspace(0.3, 0.7, 9)
        for k in range(knots.size - 1):
            mid = 0.5 * (knots[k] + knots[k + 1])
            p = gibbs_population_qubit(1.0, float(mid))
            assert nearest_knot(equilibrium_probe(1.0), knots, p) == k
            assert nearest_knot(equilibrium_probe(1.0), knots, math.nextafter(p, 1.0)) == k + 1

    @pytest.mark.parametrize(
        "equilibrium",
        [lambda T: 0.2, lambda T: 1.0 - T / 2.0, lambda T: 0.1 if T < 0.5 else 0.3],
        ids=["flat", "decreasing", "step"],
    )
    def test_non_increasing_model_rejected(self, equilibrium):
        probe_at = lambda T: SimpleNamespace(equilibrium=equilibrium(T))  # noqa: E731
        with pytest.raises(DegenerateModelError):
            nearest_knot(probe_at, np.linspace(0.3, 0.7, 9), 0.1)
