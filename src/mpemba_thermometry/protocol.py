"""Operational thermometry pipeline: sampling, calibration, mapping, estimation.

Everything here works on finite-shot binomial records of a two-level probe's
excited population (the estimation pipeline is two-level end to end; the
multi-level machinery feeds it only through model evaluators).  Randomness is
counter-based for reproducibility *and* order-independence: every sampling
cell draws from ``Philox(key=(seed, cell_index))``, so re-running any subset
of cells, in any order, reproduces the same draws.  Pipeline stages use
disjoint cell ranges (the ``cell_base`` arguments) to stay non-overlapping
under a shared seed.

The per-cell stages (the dynamical calibration and the sampled Fisher map)
draw through one Philox per stage, reset to counter 0 and re-keyed to
``(seed, cell)`` before each draw: the same draws as a fresh
``sampling_stream(seed, cell)``, without building a generator per cell.

``shots = 0`` selects the noiseless idealization everywhere: empirical
frequencies are replaced by exact model populations (and success counts become
fractional).  That mode exists for validating the pipeline against closed
forms, not for simulating experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .qubit import QubitBathParams, evolve_population, gibbs_population_qubit

__all__ = [
    "DegenerateModelError",
    "BoundaryMaximumWarning",
    "MultimodalLikelihoodWarning",
    "ShotRecord",
    "CalibrationCurve",
    "FisherMap",
    "MleResult",
    "sampling_stream",
    "sample_population",
    "pav_isotonic",
    "calibrate_equilibrium",
    "dynamical_calibration",
    "fisher_map",
    "mle_temperature",
    "effective_temperature",
    "CELLS_DYNAMICAL",
    "CELLS_FISHER_MAP",
    "CELLS_ESTIMATE",
]

# default cell-range bases for the pipeline stages (calibration starts at 0)
CELLS_DYNAMICAL = 2**32
CELLS_FISHER_MAP = 2**33
CELLS_ESTIMATE = 2**34


class DegenerateModelError(RuntimeError):
    """The model populations do not vary over the search interval."""


class BoundaryMaximumWarning(RuntimeWarning):
    """The likelihood maximum sits on the search-interval boundary."""


class MultimodalLikelihoodWarning(RuntimeWarning):
    """The coarse likelihood scan found more than one local maximum."""


@dataclass(frozen=True)
class ShotRecord:
    """One binomial measurement record.

    ``successes`` counts excited outcomes; it is fractional only in the
    noiseless idealization.
    """

    shots: int
    successes: float
    time: float
    preparation: str
    seed: int


@dataclass(frozen=True)
class CalibrationCurve:
    """Monotone piecewise-linear population-vs-temperature curve."""

    knots: np.ndarray
    values: np.ndarray
    monotone: str = "increasing"

    def __post_init__(self) -> None:
        if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
            raise ValueError("knots and values must be matching 1-d arrays")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        diffs = np.diff(self.values)
        if self.monotone == "increasing":
            if np.any(diffs < 0):
                raise ValueError("values are not non-decreasing")
        elif self.monotone == "decreasing":
            if np.any(diffs > 0):
                raise ValueError("values are not non-increasing")
        else:
            raise ValueError(f"unknown monotone kind {self.monotone!r}")

    def __call__(self, temperature):
        # np.interp clamps outside the knot range, which is the documented
        # extrapolation policy
        return np.interp(temperature, self.knots, self.values)


@dataclass(frozen=True)
class FisherMap:
    """Per-shot Fisher information on a (time x temperature) grid.

    ``zero_flags`` marks cells where the population variance vanished and the
    value was set to 0 instead of dividing by it.
    """

    times: np.ndarray
    temperatures: np.ndarray
    values: np.ndarray
    zero_flags: np.ndarray

    def argmax_time(self, column: int) -> float:
        return float(self.times[int(np.argmax(self.values[:, column]))])


@dataclass(frozen=True)
class MleResult:
    t_hat: float
    log_likelihood: float
    fisher_at_hat: float
    stderr: float
    boundary: bool = False
    multimodal: bool = False


def _check_key(seed: int, cell: int) -> None:
    if seed < 0 or cell < 0:
        raise ValueError(f"seed and cell must be non-negative, got ({seed}, {cell})")


def _check_draw(p_true: float, shots: int) -> None:
    if not 0.0 <= p_true <= 1.0:
        raise ValueError(f"p_true must lie in [0, 1], got {p_true}")
    if shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots}")


def sampling_stream(seed: int, cell: int) -> np.random.Generator:
    """Counter-based generator for one sampling cell."""
    _check_key(seed, cell)
    key = np.array([seed, cell], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_population(
    p_true: float,
    shots: int,
    seed: int,
    time: float = 0.0,
    preparation: str = "equilibrium",
    cell: int = 0,
) -> ShotRecord:
    """Draw a binomial record of ``shots`` measurements at success rate ``p_true``."""
    _check_draw(p_true, shots)
    rng = sampling_stream(seed, cell)
    successes = int(rng.binomial(shots, p_true))
    return ShotRecord(
        shots=shots, successes=successes, time=time, preparation=preparation, seed=seed
    )


def pav_isotonic(
    values: Sequence[float] | np.ndarray,
    weights: Sequence[float] | np.ndarray | None = None,
    increasing: bool = True,
) -> np.ndarray:
    """Weighted least-squares isotonic fit by pool-adjacent-violators."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("values must be a non-empty 1-d array")
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != y.shape or np.any(w <= 0):
        raise ValueError("weights must be positive and match values in shape")
    if not increasing:
        return -pav_isotonic(-y, w, increasing=True)

    # blocks of (weight, mean, count), merged while out of order
    block_w: list[float] = []
    block_mean: list[float] = []
    block_n: list[int] = []
    for yi, wi in zip(y, w):
        block_w.append(float(wi))
        block_mean.append(float(yi))
        block_n.append(1)
        while len(block_mean) > 1 and block_mean[-2] > block_mean[-1]:
            wa, wb = block_w[-2], block_w[-1]
            merged = (wa * block_mean[-2] + wb * block_mean[-1]) / (wa + wb)
            block_w[-2] = wa + wb
            block_mean[-2] = merged
            block_n[-2] += block_n[-1]
            del block_w[-1], block_mean[-1], block_n[-1]
    out = np.empty_like(y)
    pos = 0
    for mean, count in zip(block_mean, block_n):
        out[pos : pos + count] = mean
        pos += count
    return out


def calibrate_equilibrium(
    omega0: float,
    temperatures: Sequence[float] | np.ndarray,
    shots: int,
    seed: int,
    cell_base: int = 0,
) -> CalibrationCurve:
    """Sampled equilibrium populations per temperature, isotonized.

    The equilibrium population increases with temperature, so the empirical
    frequencies are regularized by a non-decreasing isotonic fit before
    interpolation.  Cell indices are ``cell_base + j`` for temperature j.
    """
    temps = np.asarray(temperatures, dtype=float)
    if temps.ndim != 1 or temps.size < 2:
        raise ValueError("need at least two calibration temperatures")
    if np.any(np.diff(temps) <= 0):
        raise ValueError("temperatures must be strictly increasing")
    if shots == 0:
        observed = np.array([gibbs_population_qubit(omega0, t) for t in temps])
        weights = None
    else:
        observed = np.empty_like(temps)
        for j, t in enumerate(temps):
            record = sample_population(
                gibbs_population_qubit(omega0, t), shots, seed, cell=cell_base + j
            )
            observed[j] = record.successes / record.shots
        weights = np.full_like(temps, float(shots))
    fitted = pav_isotonic(observed, weights, increasing=True)
    return CalibrationCurve(knots=temps, values=fitted, monotone="increasing")


def _stage_sampler(shots: int, seed: int) -> Callable[[float, int], float]:
    """``frequency(p_true, cell)``: the success frequency of ``sample_population``.

    One Philox serves the whole stage.  Before each draw it is reset to
    counter 0, an empty buffer and the key ``(seed, cell)``, which is the state
    of a fresh ``Philox(key=(seed, cell))``, so the draws equal those of
    :func:`sampling_stream`.  Building a Philox per cell would also build a
    ``SeedSequence`` from OS entropy that the key then overrides.
    """
    bitgen = np.random.Philox(0)
    generator = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh Philox's: counter 0, buffer_pos 4, has_uint32 0

    def frequency(p_true: float, cell: int) -> float:
        _check_draw(p_true, shots)
        _check_key(seed, cell)
        state["state"]["key"] = np.array([seed, cell], dtype=np.uint64)
        bitgen.state = state
        return int(generator.binomial(shots, p_true)) / shots

    return frequency


def dynamical_calibration(
    params_factory: Callable[[float], QubitBathParams],
    p0_hot: float,
    p0_cold: float,
    temperatures: Sequence[float] | np.ndarray,
    time_grid: Sequence[float] | np.ndarray,
    shots: int,
    seed: int,
    delta_policy: str | float = "3se",
    cell_base: int = CELLS_DYNAMICAL,
) -> dict[float, float | None]:
    """Empirical crossing times from finite-shot distance comparisons.

    For each temperature, both preparations are sampled along the time grid
    together with an equilibrium reference, and the first grid time where
    D_hot < D_cold - delta is recorded (None when no crossing clears the
    margin).  The default margin policy ``"3se"`` sets delta to three combined
    binomial standard errors, with frequencies clipped to [1/(2 shots),
    1 - 1/(2 shots)] so empty cells do not produce a zero margin; a float sets
    a constant margin; the noiseless mode (shots = 0) uses delta = 0.

    Cell layout per temperature j, with M time points: equilibrium reference
    at ``cell_base + j (2 M + 1)``, then hot/cold pairs at the following
    ``2 M`` cells in time order.  Each preparation's populations come from
    one ``evolve_population`` call over the whole grid per temperature; the
    cells are drawn in time order and no cell past the first crossing is
    drawn.
    """
    temps = np.asarray(temperatures, dtype=float)
    times = np.asarray(time_grid, dtype=float)
    if np.any(np.diff(times) <= 0) or times.size < 2:
        raise ValueError("time_grid must be strictly increasing with at least two points")
    if isinstance(delta_policy, str) and delta_policy != "3se":
        raise ValueError(f"unknown delta policy {delta_policy!r}")
    frequency = (lambda p, cell: p) if shots == 0 else _stage_sampler(shots, seed)
    out: dict[float, float | None] = {}
    stride = 2 * times.size + 1
    for j, temp in enumerate(temps.tolist()):
        params = params_factory(temp)
        base = cell_base + j * stride
        p_eq_hat = frequency(
            gibbs_population_qubit(params.omega0, params.temperature), base
        )
        hot = evolve_population(params, p0_hot, times).tolist()
        cold = evolve_population(params, p0_cold, times).tolist()
        crossing: float | None = None
        for i, t in enumerate(times.tolist()):
            hot_hat = frequency(hot[i], base + 1 + 2 * i)
            cold_hat = frequency(cold[i], base + 2 + 2 * i)
            if shots == 0:
                delta = 0.0
            elif isinstance(delta_policy, str):
                lo = 1.0 / (2.0 * shots)
                ph = min(max(hot_hat, lo), 1.0 - lo)
                pc = min(max(cold_hat, lo), 1.0 - lo)
                delta = 3.0 * math.sqrt(
                    ph * (1.0 - ph) / shots + pc * (1.0 - pc) / shots
                )
            else:
                delta = float(delta_policy)
            if abs(hot_hat - p_eq_hat) < abs(cold_hat - p_eq_hat) - delta:
                crossing = t
                break
        out[temp] = crossing
    return out


def _local_quadratic_slopes(knots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Derivative at each knot of each row from 5-point local least-squares quadratics.

    One ``polyfit`` per knot fits every row's window at once; each column of
    the result equals the single-row fit bit for bit.
    """
    n = knots.size
    slopes = np.empty(rows.shape)
    for j in range(n):
        lo = min(max(j - 2, 0), n - 5)
        window = slice(lo, lo + 5)
        slopes[:, j] = np.polyfit(knots[window] - knots[j], rows[:, window].T, 2)[1]
    return slopes


def fisher_map(
    population_fn: Callable[[np.ndarray, float], np.ndarray | float],
    times: Sequence[float] | np.ndarray,
    temperatures: Sequence[float] | np.ndarray,
    shots: int = 0,
    seed: int = 0,
    cell_base: int = CELLS_FISHER_MAP,
) -> FisherMap:
    """Per-shot Fisher information over a (time x temperature) grid.

    Populations come from ``population_fn(times, T)``, called once per
    temperature with the whole time array; it returns one population per time,
    or a scalar that broadcasts over them.  They are sampled binomially when
    ``shots >= 1``, cell index ``cell_base + i * len(temperatures) + j``.
    Sampled rows are regularized with an isotonic fit in the better-fitting
    direction; exactly computed rows are used as-is (smooth non-monotone rows
    must not be flattened).  The temperature derivative at each knot comes
    from a 5-point local least-squares quadratic, and cells whose population
    variance falls below 1e-12 are flagged and set to 0 rather than divided.
    """
    times = np.asarray(times, dtype=float)
    temps = np.asarray(temperatures, dtype=float)
    if shots < 0:
        raise ValueError(f"shots must be non-negative (0 = noiseless), got {shots}")
    if temps.size < 5:
        raise ValueError("need at least 5 temperature knots for local quadratic fits")
    if np.any(np.diff(temps) <= 0):
        raise ValueError("temperatures must be strictly increasing")
    rows = np.empty((times.size, temps.size))
    for j, temp in enumerate(temps.tolist()):
        rows[:, j] = population_fn(times, temp)
    if shots >= 1:
        frequency = _stage_sampler(shots, seed)
        weights = np.full(temps.size, float(shots))
        for i, row in enumerate(rows.tolist()):
            base = cell_base + i * temps.size
            sampled = np.array([frequency(p, base + j) for j, p in enumerate(row)])
            inc = pav_isotonic(sampled, weights, increasing=True)
            dec = pav_isotonic(sampled, weights, increasing=False)
            sse_inc = float(np.sum((inc - sampled) ** 2))
            sse_dec = float(np.sum((dec - sampled) ** 2))
            rows[i] = inc if sse_inc <= sse_dec else dec
    slopes = _local_quadratic_slopes(temps, rows)
    variance = rows * (1.0 - rows)
    zero = variance < 1e-12
    safe = np.where(zero, 1.0, variance)
    values = np.where(zero, 0.0, slopes**2 / safe)
    return FisherMap(times=times, temperatures=temps, values=values, zero_flags=zero)


def _golden_section_maximize(
    f: Callable[[float], float], lo: float, hi: float, xtol: float
) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def mle_temperature(
    observations: Sequence[ShotRecord],
    population_fn: Callable[[float, float], float],
    t_interval: tuple[float, float],
    fisher_fn: Callable[[float, float], float] | None = None,
    grid_points: int = 64,
) -> MleResult:
    """Maximum-likelihood temperature from binomial records.

    ``population_fn(time, T)`` must model every supplied record (single
    preparation per call; estimate heterogeneous record sets with separate
    closures).  A 64-point scan brackets the maximum and golden-section search
    refines it to 1e-8 absolute; boundary maxima and multimodal scans are
    flagged on the result and warned about.  The error bar comes from the
    total Fisher information of the records at the estimate, using
    ``fisher_fn(time, T)`` when given and a central-difference fallback
    otherwise.
    """
    records = list(observations)
    if not records:
        raise ValueError("need at least one observation")
    t_lo, t_hi = float(t_interval[0]), float(t_interval[1])
    if not 0 < t_lo < t_hi:
        raise ValueError(f"invalid temperature interval ({t_lo}, {t_hi})")

    def records_log_likelihood(populations: Iterable[float]) -> float:
        # ``populations`` holds the model value of each record, in record order
        total = 0.0
        for rec, value in zip(records, populations):
            p = min(max(value, 1e-12), 1.0 - 1e-12)
            total += rec.successes * math.log(p) + (rec.shots - rec.successes) * math.log(
                1.0 - p
            )
        return total

    def log_likelihood(temp: float) -> float:
        return records_log_likelihood(population_fn(rec.time, temp) for rec in records)

    grid = np.linspace(t_lo, t_hi, grid_points)
    # one model column per record, shared by the degeneracy test and the scan
    columns = np.array(
        [[population_fn(rec.time, float(temp)) for temp in grid] for rec in records]
    )
    model_spread = max(0.0, *(float(column.max() - column.min()) for column in columns))
    if model_spread < 1e-14:
        raise DegenerateModelError(
            "model populations are constant over the search interval; "
            "temperature is unidentifiable"
        )

    scores = np.array([records_log_likelihood(columns[:, g]) for g in range(grid_points)])
    interior = np.flatnonzero(
        (scores[1:-1] >= scores[:-2]) & (scores[1:-1] >= scores[2:])
    )
    multimodal = interior.size > 1
    if multimodal:
        warnings.warn(
            f"likelihood scan found {interior.size} local maxima; refining the global one",
            MultimodalLikelihoodWarning,
            stacklevel=2,
        )
    best = int(np.argmax(scores))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid_points - 1)])
    # 1e-10 stopping width leaves comfortable margin on the documented
    # 1e-8 localization guarantee
    t_hat = _golden_section_maximize(log_likelihood, lo, hi, 1e-10)

    span = t_hi - t_lo
    boundary = (t_hat - t_lo) < 1e-6 * span or (t_hi - t_hat) < 1e-6 * span
    if boundary:
        warnings.warn(
            f"likelihood maximum {t_hat:.6g} sits on the interval boundary",
            BoundaryMaximumWarning,
            stacklevel=2,
        )

    def fallback_fisher(time: float, temp: float) -> float:
        h = 1e-6 * temp
        slope = (population_fn(time, temp + h) - population_fn(time, temp - h)) / (2.0 * h)
        p = min(max(population_fn(time, temp), 1e-12), 1.0 - 1e-12)
        return slope * slope / (p * (1.0 - p))

    per_shot = fisher_fn if fisher_fn is not None else fallback_fisher
    total_info = sum(rec.shots * per_shot(rec.time, t_hat) for rec in records)
    total_shots = sum(rec.shots for rec in records)
    stderr = math.inf if total_info <= 0 else total_info**-0.5
    return MleResult(
        t_hat=t_hat,
        log_likelihood=log_likelihood(t_hat),
        fisher_at_hat=total_info / total_shots if total_shots else 0.0,
        stderr=stderr,
        boundary=boundary,
        multimodal=multimodal,
    )


def effective_temperature(p_measured: float, omega0: float) -> float:
    """Invert the equilibrium population: T_eff = omega0 / ln(1/p - 1).

    Defined for 0 < p < 1/2 (a two-level probe in equilibrium is never more
    than half excited).
    """
    if omega0 <= 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    if not 0.0 < p_measured < 0.5:
        raise ValueError(
            f"measured population {p_measured} outside (0, 0.5); no equilibrium "
            "temperature reproduces it"
        )
    return omega0 / math.log(1.0 / p_measured - 1.0)
