"""Operational thermometry pipeline: sampling, calibration, mapping, estimation.

Everything here works on finite-shot binomial records of one measured
population: the state's :func:`~.instances.measured_level`, the top level of a
population vector.  The calibration stages and the column choice of the
estimate read the model from one factory, ``probe_at(T) -> ProbePair``, through
the pair's ``equilibrium``, ``hot_population`` and ``cold_population``; the
Fisher map and the likelihood take closures over the interrogated preparation
(one :class:`~.instances.Probe` per temperature in the CLI).  No model module
is imported here.  Randomness is counter-based for reproducibility *and*
order-independence: every sampling cell draws from
``Philox(key=(seed, cell_index))``, so re-running any subset of cells, in any
order, reproduces the same draws.  Pipeline stages use disjoint cell ranges
(calibration from 0, then ``CELLS_DYNAMICAL``, ``CELLS_FISHER_MAP`` and
``CELLS_ESTIMATE``) to stay non-overlapping under a shared seed.

Every draw goes through one sampler per stage (a single record is a stage of
one draw).  It takes one generator from :func:`sampling_stream` and draws a
stage's cells as blocks: one call per block checks every population of the
block and its whole cell range at once, then hands back a lazy iterator that,
before each draw, resets the generator to counter 0 and re-keys it to
``(seed, cell)``: the same draws as a fresh ``sampling_stream(seed, cell)``,
without building a generator or repeating a check per cell.  A stage that
stops early, as the inversion map does at its first crossing, draws no cell
past it.  Seeds and cells are Philox key words, so both must lie in
[0, 2**64).  The sampled Fisher map fits all its rows, in both monotone
directions, with one lock-step pool-adjacent-violators pass; ``pav_isotonic``,
the calibration's weighted non-decreasing fit, is that pass's one-row case.

``shots = 0`` selects the noiseless idealization, and the sampler alone
decides it: a draw returns the exact model population as the successes of
one shot (so success counts become fractional), and no generator is built.
That mode exists for validating the pipeline against closed forms, not for
simulating experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .grids import check_grid, check_probability, check_times
from .instances import ProbePair, measured_level

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
    "nearest_knot",
    "CELLS_DYNAMICAL",
    "CELLS_FISHER_MAP",
    "CELLS_ESTIMATE",
]

# cell-range bases of the pipeline stages (calibration starts at 0)
CELLS_DYNAMICAL = 2**32
CELLS_FISHER_MAP = 2**33
CELLS_ESTIMATE = 2**34
# temperatures in the likelihood scan that brackets the maximum
_SCAN_POINTS = 64
# the likelihood clamps model populations to [_P_CLAMP, 1 - _P_CLAMP]
_P_CLAMP = 1e-12


class DegenerateModelError(RuntimeError):
    """The model populations do not vary, or are not finite, over the search interval."""


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
    """Non-decreasing piecewise-linear population-vs-temperature curve."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
            raise ValueError("knots and values must be matching 1-d arrays")
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values are not non-decreasing")

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
    # a Philox key is two unsigned 64-bit words
    if seed >= 2**64 or cell >= 2**64:
        raise ValueError(f"seed and cell must be below 2**64, got ({seed}, {cell})")


def sampling_stream(seed: int, cell: int) -> np.random.Generator:
    """Counter-based generator for one sampling cell."""
    _check_key(seed, cell)
    key = np.array([seed, cell], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _checked_block(p_true: Sequence[float] | np.ndarray) -> list[float]:
    """The populations of a block, each checked to lie in [0, 1], as a list of floats.

    One vectorised test checks the whole block, and NaN fails it too; the
    message names the block's first bad value.
    """
    values = np.asarray(p_true, dtype=float)
    inside = (values >= 0.0) & (values <= 1.0)
    if not inside.all():
        check_probability("p_true", float(values[np.argmin(inside)]))
    return values.tolist()


def _rekeyed_draws(
    rng: np.random.Generator, state: dict, shots: int, p_values: Sequence[float], cell: int
) -> Iterator[int]:
    """Binomial draws of ``shots`` at each of ``p_values``, one cell each from ``cell`` on.

    Before each draw ``rng``'s bit generator is set to ``state``, whose key's
    second word is the cell.  It lives at module level so that a sampler
    builds no generator function of its own.
    """
    bitgen, binomial, key = rng.bit_generator, rng.binomial, state["state"]["key"]
    for p_true in p_values:
        key[1] = cell
        bitgen.state = state
        yield binomial(shots, p_true)
        cell += 1


def _sampler(
    shots: int, seed: int
) -> Callable[[Sequence[float] | np.ndarray, int], Iterator[float]]:
    """``draws(p_true, first_cell)``: binomial draws of ``shots`` for a block of cells.

    ``p_true[k]`` is drawn from cell ``first_cell + k``.  The call checks the
    whole block at once: every population (one vectorised [0, 1] test) and,
    when sampling, the first and last cell of its range.  A bad block raises
    before any of its cells is drawn.  It then returns a lazy iterator over the
    block's successes in cell order, so a stage that stops reading draws no
    further cell; a single record is a one-cell block.  With ``shots = 0`` the
    successes are the populations themselves, out of one shot; no generator is
    built and no key is checked.  Otherwise one generator from
    ``sampling_stream(seed, 0)`` serves every draw: its Philox is reset to
    counter 0, an empty buffer and the key ``(seed, cell)`` before each draw,
    the state of a fresh ``sampling_stream(seed, cell)``.  That state is held
    as plain Python ints, since the ``Philox.state`` setter reads it element
    by element, and only ``key[1]`` changes per draw (a Philox per cell would
    also build a ``SeedSequence`` from OS entropy that the key overrides).
    Since every draw re-keys, the iterators of several blocks may be read in
    any interleaving.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative (0 = noiseless), got {shots}")
    if shots == 0:

        def exact(p_true: Sequence[float] | np.ndarray, first_cell: int) -> Iterator[float]:
            return iter(_checked_block(p_true))

        return exact
    rng = sampling_stream(seed, 0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def draws(p_true: Sequence[float] | np.ndarray, first_cell: int) -> Iterator[int]:
        values = _checked_block(p_true)
        # the cells ascend, so the first and the last bound the whole range
        _check_key(seed, first_cell)
        if values:
            _check_key(seed, first_cell + len(values) - 1)
        return _rekeyed_draws(rng, state, shots, values, first_cell)

    return draws


def sample_population(
    p_true: float,
    shots: int,
    seed: int,
    time: float = 0.0,
    preparation: str = "equilibrium",
    cell: int = 0,
) -> ShotRecord:
    """Draw a binomial record of ``shots`` measurements at success rate ``p_true``.

    ``shots = 0`` gives the noiseless record: ``p_true`` successes out of one shot.
    """
    successes = next(_sampler(shots, seed)((p_true,), cell))
    # positional: keywords cost this frozen dataclass about 0.2 µs more per record
    return ShotRecord(shots or 1, successes, time, preparation, seed)


def _pav_rows(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Non-decreasing pool-adjacent-violators fit of every row of ``y``, in lock-step.

    Each row keeps its own stack of blocks (weight, mean, count).  Column k is
    pushed onto every stack at once; then, while some rows have their top two
    blocks out of order, those rows merge them with
    ``(wa * ma + wb * mb) / (wa + wb)``, elementwise.  Each row gets the same
    float operations in the same order as a sequential stack loop over it.
    """
    rows, n = y.shape
    # the stacks, flat: row r's blocks sit at r * n, r * n + 1, ..., tip[r]
    block_w = np.empty(rows * n)
    block_mean = np.empty(rows * n)
    block_n = np.empty(rows * n, dtype=np.intp)
    first = np.arange(0, rows * n, n)
    tip = first - 1
    for k in range(n):
        tip += 1
        block_w[tip] = w[:, k]
        block_mean[tip] = y[:, k]
        block_n[tip] = 1
        live = np.flatnonzero(tip > first)  # rows with at least two blocks
        while live.size:
            b = tip[live]
            a = b - 1
            mean_a = block_mean[a]
            mean_b = block_mean[b]
            out_of_order = mean_a > mean_b
            if not out_of_order.any():
                break
            live, a, b = live[out_of_order], a[out_of_order], b[out_of_order]
            wa, wb = block_w[a], block_w[b]
            block_mean[a] = (wa * mean_a[out_of_order] + wb * mean_b[out_of_order]) / (wa + wb)
            block_w[a] = wa + wb
            block_n[a] += block_n[b]
            tip[live] = a
            live = live[a > first[live]]
    filled = (np.arange(n) <= (tip - first)[:, None]).ravel()
    return np.repeat(block_mean[filled], block_n[filled]).reshape(rows, n)


def pav_isotonic(
    values: Sequence[float] | np.ndarray, weights: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Weighted least-squares non-decreasing fit by pool-adjacent-violators (the
    non-increasing fit of ``y`` is ``-pav_isotonic(-y, weights)``)."""
    y = np.asarray(values, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("values must be a non-empty 1-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("values must be finite")
    w = np.asarray(weights, dtype=float)
    if w.shape != y.shape or not np.all((w > 0) & np.isfinite(w)):
        raise ValueError("weights must be finite, positive and match values in shape")
    return _pav_rows(y[None], w[None])[0]


def calibrate_equilibrium(
    probe_at: Callable[[float], ProbePair],
    temperatures: Sequence[float] | np.ndarray,
    shots: int,
    seed: int,
) -> CalibrationCurve:
    """Sampled equilibrium populations per temperature, isotonized.

    The populations are ``probe_at(T).equilibrium`` on its measured level, one pair per T.
    The equilibrium population increases with temperature, so the empirical
    frequencies are regularized by a non-decreasing isotonic fit before
    interpolation.  Temperature j draws from cell j.
    """
    temps = check_grid(temperatures, "temperatures", 2)
    exact = [measured_level(probe_at(t).equilibrium) for t in temps.tolist()]
    per_draw = shots or 1  # a noiseless draw is one shot: unit weights
    observed = np.fromiter(_sampler(shots, seed)(exact, 0), float, len(exact)) / per_draw
    weights = np.full_like(temps, float(per_draw))
    return CalibrationCurve(knots=temps, values=pav_isotonic(observed, weights))


def dynamical_calibration(
    probe_at: Callable[[float], ProbePair],
    temperatures: Sequence[float] | np.ndarray,
    time_grid: Sequence[float] | np.ndarray,
    shots: int,
    seed: int,
    delta_policy: str | float = "3se",
) -> list[float | None]:
    """Empirical crossing times from finite-shot distance comparisons.

    For each temperature T, the measured level of both preparations of
    ``probe_at(T)`` is sampled along the time grid together with an
    equilibrium reference, and the first grid time where D_hot < D_cold - delta
    is listed, in temperature order (None when no crossing clears the margin).
    The default margin policy ``"3se"`` sets delta to three combined binomial
    standard errors, with frequencies clipped to [1/(2 shots), 1 - 1/(2 shots)]
    so empty cells do not produce a zero margin; a float sets a constant
    margin; the noiseless mode (shots = 0) uses delta = 0.  Both grids follow
    the scan-grid rule, and the time grid the time rule as well.

    Cell layout per temperature j, with M time points: equilibrium reference
    at ``CELLS_DYNAMICAL + j (2 M + 1)``, then hot/cold pairs at the following
    ``2 M`` cells in time order.  Each preparation's populations come from
    one pair evaluation over the whole grid per temperature, and the
    temperature's cells are one sampler block: every population in it is
    checked before its first cell is drawn, even one past the crossing.  The
    block's iterator is read lazily, the reference and then a hot/cold pair
    per time, so no cell past the first crossing is drawn.  That lazy stop is
    why the distances are written inline, one cell at a time:
    ``abs(p_hat - p_eq_hat)`` is the scalar case of
    :func:`mpemba.distance_series`' ``scalar_abs`` kernel.  So a ladder's
    sampled crossing compares ``scalar_abs`` distances of its top level, while
    the pair's ordering check keeps the pair's own norm.  The ``"3se"`` margin
    is computed only where D_hot < D_cold: elsewhere D_cold - delta, with
    delta >= 0, cannot exceed D_hot, so skipping it changes no crossing.
    """
    temps = check_grid(temperatures, "temperatures", 1)
    times = check_times(check_grid(time_grid, "time_grid", 2))
    if isinstance(delta_policy, str):
        if delta_policy != "3se":
            raise ValueError(f"unknown delta policy {delta_policy!r}")
    elif not 0.0 <= delta_policy < math.inf:
        raise ValueError(
            f"delta_policy must be '3se' or a finite non-negative number, got {delta_policy!r}"
        )
    draw = _sampler(shots, seed)
    per_draw = shots or 1  # a noiseless draw is one shot
    # the margin: three pooled standard errors per time point, else a constant
    three_se = shots != 0 and isinstance(delta_policy, str)
    delta = 0.0 if shots == 0 or three_se else float(delta_policy)
    lo = 1.0 / (2.0 * shots) if three_se else 0.0
    hi = 1.0 - lo
    out: list[float | None] = []
    stride = 2 * times.size + 1
    for j, temp in enumerate(temps.tolist()):
        pair = probe_at(temp)
        block = np.empty(stride)
        block[0] = measured_level(pair.equilibrium)
        block[1::2] = measured_level(pair.hot_population(times), pair.equilibrium)
        block[2::2] = measured_level(pair.cold_population(times), pair.equilibrium)
        cells = draw(block, CELLS_DYNAMICAL + j * stride)
        p_eq_hat = next(cells) / per_draw
        crossing: float | None = None
        for t, hot, cold in zip(times.tolist(), cells, cells):
            hot_hat, cold_hat = hot / per_draw, cold / per_draw
            d_hot, d_cold = abs(hot_hat - p_eq_hat), abs(cold_hat - p_eq_hat)
            if d_hot < d_cold:
                if three_se:
                    ph = min(max(hot_hat, lo), hi)
                    pc = min(max(cold_hat, lo), hi)
                    delta = 3.0 * math.sqrt(
                        ph * (1.0 - ph) / shots + pc * (1.0 - pc) / shots
                    )
                if d_hot < d_cold - delta:
                    crossing = t
                    break
        out.append(crossing)
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
) -> FisherMap:
    """Per-shot Fisher information over a (time x temperature) grid.

    ``times`` is a strictly increasing grid of finite times t >= 0.
    Populations come from ``population_fn(times, T)``, called once per
    temperature with the whole time array; it returns one population per time,
    or a scalar that broadcasts over them.  They are sampled binomially when
    ``shots >= 1``, cell index ``CELLS_FISHER_MAP + i * len(temperatures) + j``.
    Sampled rows are regularized with an isotonic fit in the better-fitting
    direction; exactly computed rows are used as-is (smooth non-monotone rows
    must not be flattened).  The temperature derivative at each knot comes
    from a 5-point local least-squares quadratic, and cells whose population
    variance falls below 1e-12 are flagged and set to 0 rather than divided.
    """
    times = check_times(check_grid(times, "times", 1))
    draw = _sampler(shots, seed)  # rejects shots < 0; exact rows are not drawn
    temps = check_grid(temperatures, "temperatures", 5)  # the 5-point slope stencil
    rows = np.empty((times.size, temps.size))
    for j, temp in enumerate(temps.tolist()):
        rows[:, j] = population_fn(times, temp)
    if shots >= 1:
        successes = draw(rows.ravel(), CELLS_FISHER_MAP)  # one block, row-major
        sampled = np.fromiter(successes, float, rows.size).reshape(rows.shape) / shots
        # both directions of every row in one pass: decreasing = -increasing(-y)
        both = np.vstack([sampled, -sampled])
        fits = _pav_rows(both, np.full(both.shape, float(shots)))
        inc, dec = fits[: times.size], -fits[times.size :]
        sse_inc = np.sum((inc - sampled) ** 2, axis=1)
        sse_dec = np.sum((dec - sampled) ** 2, axis=1)
        rows = np.where((sse_inc <= sse_dec)[:, None], inc, dec)
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


def _bracketed_root(
    g: Callable[[float], float], a: float, b: float, ga: float, gb: float
) -> float:
    """A root of ``g`` on [a, b], where ``ga = g(a)`` and ``gb = g(b)`` differ in sign or one is 0.

    Brent's zero (Brent 1973, ch. 4): inverse quadratic or secant steps while
    they stay well inside the bracket and shrink it fast enough, bisection
    otherwise.  It stops once the bracket is 2·eps·|b| wide, the last bits of b.
    """
    eps = np.finfo(float).eps
    c, gc = a, ga
    d = e = b - a
    while True:
        if abs(gc) < abs(gb):
            # b is the best iterate; c keeps the sign change with it
            a, b, c = b, c, b
            ga, gb, gc = gb, gc, gb
        tol = 2.0 * eps * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or gb == 0.0:
            return b
        if abs(e) < tol or abs(ga) <= abs(gb):
            d = e = m
        else:
            s = gb / ga
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, ga = b, gb
        b += d if abs(d) > tol else math.copysign(tol, m)
        gb = g(b)
        if (gb > 0) == (gc > 0):
            c, gc = a, ga
            d = e = b - a


def mle_temperature(
    observations: Sequence[ShotRecord],
    population_fn: Callable[[float, float], float],
    t_interval: tuple[float, float],
    fisher_fn: Callable[[float, float], float],
) -> MleResult:
    """Maximum-likelihood temperature from one binomial record.

    ``observations`` holds exactly one record of k successes in n >= 1 shots,
    0 <= k <= n (k is fractional only in the noiseless record), and
    ``population_fn(time, T)`` models it at the record's time.  A 64-point
    scan brackets the maximum between the neighbours of its best temperature.
    A model value on the scan that is not finite raises
    :class:`DegenerateModelError` naming the first one, and so do model
    values that are constant over the interval.  One array rule scores the
    likelihood, k log p + (n - k) log(1 - p) with p clamped to
    [1e-12, 1 - 1e-12], over a row of model values: the scan's 64 at once,
    and one for each golden-section step and for the reported
    ``log_likelihood``.  With k/n inside the clamp, the likelihood is largest
    exactly where p(T) = k/n, so a root of p(T) - k/n is a global maximizer.
    When the scan's model values at the bracket ends straddle k/n (or one
    equals it), Brent's root finder refines the estimate to the last bits in
    a few model calls; a model value that is not finite there raises
    :class:`DegenerateModelError`.  Every other case (k = 0, k = n, no
    crossing on the bracket as at a boundary maximum) is refined by
    golden-section search on log-likelihood values, which are flat to
    rounding within about 1e-7 relative of the maximum, so its last digits
    (1e-8 to 1e-7 relative) are search noise.  Boundary maxima and multimodal
    scans are flagged on the result and warned about.  The error bar is
    (n F)^-1/2, with F = ``fisher_fn(time, t_hat)`` the per-shot Fisher
    information at the estimate, reported as ``fisher_at_hat``.
    """
    if len(observations) != 1:
        raise ValueError(f"need exactly one observation, got {len(observations)}")
    (rec,) = observations
    if not rec.shots >= 1:
        raise ValueError(f"shots must be at least 1, got {rec.shots}")
    if not 0 <= rec.successes <= rec.shots:  # NaN fails too
        raise ValueError(f"successes must lie in [0, {rec.shots}], got {rec.successes}")
    t_lo, t_hi = float(t_interval[0]), float(t_interval[1])
    if not 0 < t_lo < t_hi:
        raise ValueError(f"invalid temperature interval ({t_lo}, {t_hi})")

    successes, failures = float(rec.successes), float(rec.shots - rec.successes)

    def scores(row: np.ndarray) -> np.ndarray:
        # the log-likelihood at each temperature whose model value is in row
        p = np.minimum(np.maximum(row, _P_CLAMP), 1.0 - _P_CLAMP)
        return successes * np.log(p) + failures * np.log(1.0 - p)

    def log_likelihood(temp: float) -> float:
        return float(scores(np.array([population_fn(rec.time, temp)]))[0])

    grid = np.linspace(t_lo, t_hi, _SCAN_POINTS)
    scan_temps = grid.tolist()
    # the model row, shared by the checks, the scan and the root
    row = np.array([population_fn(rec.time, temp) for temp in scan_temps])
    non_finite = np.flatnonzero(~np.isfinite(row))
    if non_finite.size:
        g = int(non_finite[0])
        raise DegenerateModelError(
            f"model population {row[g]} at temperature {scan_temps[g]!r} is not "
            "finite; the likelihood cannot be scanned"
        )
    if float(row.max() - row.min()) < 1e-14:
        raise DegenerateModelError(
            "model populations are constant over the search interval; "
            "temperature is unidentifiable"
        )

    scanned = scores(row)
    interior = np.flatnonzero(
        (scanned[1:-1] >= scanned[:-2]) & (scanned[1:-1] >= scanned[2:])
    )
    multimodal = interior.size > 1
    if multimodal:
        warnings.warn(
            f"likelihood scan found {interior.size} local maxima; refining the global one",
            MultimodalLikelihoodWarning,
            stacklevel=2,
        )
    best = int(np.argmax(scanned))
    i_lo, i_hi = max(best - 1, 0), min(best + 1, _SCAN_POINTS - 1)
    lo, hi = float(grid[i_lo]), float(grid[i_hi])
    target = rec.successes / rec.shots
    # the residuals p - k/n at the bracket ends are scan values: no model call
    g_lo, g_hi = float(row[i_lo]) - target, float(row[i_hi]) - target
    if _P_CLAMP < target < 1.0 - _P_CLAMP and g_lo * g_hi <= 0.0:

        def residual(temp: float) -> float:
            value = population_fn(rec.time, temp)
            if not math.isfinite(value):
                raise DegenerateModelError(
                    f"model population {value} at temperature {temp!r} is not finite; "
                    "the likelihood maximum cannot be refined"
                )
            return value - target

        t_hat = _bracketed_root(residual, lo, hi, g_lo, g_hi)
    else:
        # below about 1e-7 relative the compared values are flat to rounding, so
        # the 1e-10 stopping width ends the search inside that flat region
        t_hat = _golden_section_maximize(log_likelihood, lo, hi, 1e-10)

    span = t_hi - t_lo
    boundary = (t_hat - t_lo) < 1e-6 * span or (t_hi - t_hat) < 1e-6 * span
    if boundary:
        warnings.warn(
            f"likelihood maximum {t_hat:.6g} sits on the interval boundary",
            BoundaryMaximumWarning,
            stacklevel=2,
        )

    fisher = fisher_fn(rec.time, t_hat)
    info = rec.shots * fisher
    return MleResult(
        t_hat=t_hat,
        log_likelihood=log_likelihood(t_hat),
        fisher_at_hat=fisher,
        stderr=math.inf if info <= 0 else info**-0.5,
        boundary=boundary,
        multimodal=multimodal,
    )


def nearest_knot(
    probe_at: Callable[[float], ProbePair], knots: Sequence[float] | np.ndarray, p_measured: float
) -> int:
    """Index of the knot whose temperature best reproduces an equilibrium population.

    With g the measured level of ``probe_at(m).equilibrium`` at each midpoint m
    between neighbouring knots, knot k is chosen when g[k-1] < p <= g[k]: the
    knot nearest the temperature whose equilibrium is ``p_measured``.  A
    population outside the calibrated range clamps to the edge knot, and a
    population equal to a midpoint's equilibrium goes to the lower knot.  The
    knots pass :func:`.grids.check_grid` (at least one), ``p_measured`` the
    probability rule, and the equilibrium must increase strictly across the midpoints.
    """
    knots = check_grid(knots, "knots", 1)
    check_probability("p_measured", p_measured)
    midpoints = 0.5 * (knots[:-1] + knots[1:])
    g = np.array([measured_level(probe_at(m).equilibrium) for m in midpoints.tolist()])
    if np.any(np.diff(g) <= 0):
        raise DegenerateModelError(
            "the equilibrium population does not increase strictly across the "
            "calibration knots; the measured population cannot pick one"
        )
    return int(np.searchsorted(g, p_measured))
