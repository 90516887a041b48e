"""Fisher information carried by population measurements about temperature.

For a diagonal (classical) probe state the quantum Fisher information of the
temperature parameter equals the classical Fisher information of the
population distribution, F = sum_i (dT p_i)^2 / p_i, so projective population
readout already saturates the quantum bound.  All the estimation theory in
this package runs on that quantity.
"""

from __future__ import annotations

import math

import numpy as np

from .qubit import (
    QubitBathParams,
    _check_times,
    _decay,
    _dT_gibbs,
    _dT_rate,
    _rate,
    dT_gibbs,
    gibbs_population_qubit,
    thermal_quantities,
)

__all__ = [
    "DivergentFisherError",
    "fisher_from_populations",
    "qfi_qubit_closed_form",
    "qfi_equilibrium",
    "qfi_short_time",
    "cramer_rao_bound",
]

# Below these floors a vanishing population is treated as a genuinely empty
# level (contributing nothing) rather than a divergence, provided its
# sensitivity vanishes with it.
_POPULATION_FLOOR = 1e-15
_SENSITIVITY_FLOOR = 1e-12


class DivergentFisherError(ZeroDivisionError):
    """A population hit 0 or 1 while its temperature sensitivity did not vanish."""


def fisher_from_populations(populations, d_populations):
    """F = sum_i (dT p_i)^2 / p_i for a population vector and its sensitivity.

    A level with p_i < 1e-15 contributes 0 if |dT p_i| < 1e-12 (an empty level
    carries no information) and raises :class:`DivergentFisherError` otherwise.

    Stacked rows (one distribution per row, e.g. one per time) give one value
    per row.  Each row follows the single-vector rules, the first failing row
    raises what the single-vector call on it would raise, and levels are
    summed in level order, so a row's value equals that call bit for bit.
    """
    p = np.asarray(populations, dtype=float)
    dp = np.asarray(d_populations, dtype=float)
    if p.shape != dp.shape:
        raise ValueError(f"shape mismatch: populations {p.shape} vs sensitivities {dp.shape}")
    rows_p = p.reshape(-1, p.shape[-1])
    rows_dp = dp.reshape(rows_p.shape)
    lowest = rows_p.min(axis=1)
    sums = rows_dp.sum(axis=1)
    empty = rows_p < _POPULATION_FLOOR
    divergent = empty & ~(np.abs(rows_dp) < _SENSITIVITY_FLOOR)
    failing = np.flatnonzero((lowest < -1e-12) | (np.abs(sums) > 1e-8) | divergent.any(axis=1))
    if failing.size:
        row = int(failing[0])
        if lowest[row] < -1e-12:
            raise ValueError(f"negative population {lowest[row]:.3g}")
        if abs(sums[row]) > 1e-8:
            raise ValueError(
                f"sensitivities sum to {sums[row]:.3g}; dT of a normalized "
                "distribution must sum to zero"
            )
        level = int(np.flatnonzero(divergent[row])[0])
        raise DivergentFisherError(
            f"population {rows_p[row, level]:.3g} vanishes while its sensitivity "
            f"{rows_dp[row, level]:.3g} does not"
        )
    total = np.zeros(rows_p.shape[0])
    for level in range(rows_p.shape[1]):
        occupied = ~empty[:, level]
        pi = np.where(occupied, rows_p[:, level], 1.0)
        dpi = rows_dp[:, level]
        total += np.where(occupied, dpi * dpi / pi, 0.0)
    return float(total[0]) if p.ndim == 1 else total.reshape(p.shape[:-1])


def _square(x):
    """x**2 as Python squares a float, through libm ``pow``, also per array element.

    numpy's ``x**2`` on an array is x*x, which differs from ``pow`` in the
    last bit for a small share of values; ``float_power`` calls ``pow``.
    """
    return np.float_power(x, 2.0) if isinstance(x, np.ndarray) else x**2


def qfi_qubit_closed_form(params: QubitBathParams, p0: float, t):
    """Exact trajectory Fisher information of the relaxing two-level probe.

    With E = exp(-Gamma t) the squared sensitivity expands into three terms —
    the equilibrium-gradient part, the rate-dispersion part, and their cross
    term:

        F(t) = [ (dT p_eq)^2 (1-E)^2
                 + (p0 - p_eq)^2 t^2 E^2 (dT Gamma)^2
                 - 2 (p0 - p_eq) (dT p_eq) t E (1-E) dT Gamma ] / (p (1-p)).

    ``t`` is a float or a 1-D array; array entries equal the float call at
    that time bit for bit.  A deterministic time, p (1 - p) < 1e-15, follows
    :func:`fisher_from_populations`: it gives 0 when |dT p| < 1e-12 and raises
    :class:`DivergentFisherError` otherwise.
    """
    t = _check_times(t)
    q = thermal_quantities(params)
    rate = _rate(params, p0, q)
    d_rate = _dT_rate(params, p0, q)
    d_peq = _dT_gibbs(params, q)
    decay = _decay(rate, t)
    excess = p0 - q.p_eq
    p_t = q.p_eq + excess * decay  # evolve_population's expression and bits
    variance = p_t * (1.0 - p_t)
    empty = variance < _POPULATION_FLOOR
    if np.any(empty):
        # dT_population's expression: the sensitivity the squared terms expand
        slope = d_peq * (1.0 - decay) - excess * t * decay * d_rate
        divergent = np.flatnonzero(empty & ~(np.abs(slope) < _SENSITIVITY_FLOOR))
        if divergent.size:
            raise DivergentFisherError(
                f"population {np.atleast_1d(p_t)[divergent[0]]:.3g} is deterministic "
                "while its sensitivity is not; Fisher information diverges"
            )
    numerator = (
        d_peq**2 * _square(1.0 - decay)
        + excess**2 * _square(t) * _square(decay) * d_rate**2
        - 2.0 * excess * d_peq * t * decay * (1.0 - decay) * d_rate
    )
    # a deterministic time that got past the check carries no information
    if isinstance(t, np.ndarray):
        return np.where(empty, 0.0, numerator / np.where(empty, 1.0, variance))
    return 0.0 if empty else numerator / variance


def qfi_equilibrium(omega0: float, temperature: float) -> float:
    """Fisher information of the thermalized probe, (dT p_eq)^2 / (p_eq (1 - p_eq))."""
    p_eq = gibbs_population_qubit(omega0, temperature)
    variance = p_eq * (1.0 - p_eq)
    if variance < _POPULATION_FLOOR:
        raise DivergentFisherError(
            f"equilibrium population {p_eq:.3g} is deterministic at T={temperature}"
        )
    return dT_gibbs(omega0, temperature) ** 2 / variance


def qfi_short_time(params: QubitBathParams, p0: float, t: float) -> float:
    """Leading t^2 behaviour of the trajectory Fisher information.

    F(t) ~ [dT p_eq * Gamma - (p0 - p_eq) * dT Gamma]^2 t^2 / (p0 (1 - p0)).
    Valid for Gamma t << 1; provided for expansion cross-checks, not as a
    substitute for the closed form.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    variance = p0 * (1.0 - p0)
    if variance < _POPULATION_FLOOR:
        raise DivergentFisherError(f"preparation p0={p0} is deterministic")
    q = thermal_quantities(params)
    rate = _rate(params, p0, q)
    d_rate = _dT_rate(params, p0, q)
    d_peq = _dT_gibbs(params, q)
    slope = d_peq * rate - (p0 - q.p_eq) * d_rate
    return slope**2 * t**2 / variance


def cramer_rao_bound(fisher: float, shots: int) -> float:
    """Variance floor 1 / (shots * F); infinite when F vanishes."""
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if fisher < 0:
        raise ValueError(f"Fisher information must be non-negative, got {fisher}")
    if fisher == 0.0:
        return math.inf
    return 1.0 / (shots * fisher)
