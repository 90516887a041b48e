"""Fisher information carried by population measurements about temperature.

For a diagonal (classical) probe state the quantum Fisher information of the
temperature parameter equals the classical Fisher information of the
population distribution, F = sum_i (dT p_i)^2 / p_i, so projective population
readout already saturates the quantum bound.  All the estimation theory in
this package runs on that quantity.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .bath import dT_gibbs, gibbs_population_qubit
from .qubit import QubitBathParams, dT_population, evolve_population

__all__ = [
    "DivergentFisherError",
    "fisher_from_populations",
    "binomial_fisher",
    "qfi_qubit_closed_form",
    "qfi_equilibrium",
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
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError(f"populations need a last axis of at least one level, got shape {p.shape}")
    rows_p = p.reshape(-1, p.shape[-1])
    rows_dp = dp.reshape(rows_p.shape)
    # per-row reductions run level by level: numpy reduces a short last axis
    # row by row, ~20x slower on a (5001, 2) grid
    lowest = reduce(np.minimum, rows_p.T)
    sums = reduce(np.add, rows_dp.T)
    empty = rows_p < _POPULATION_FLOOR
    divergent = empty & ~(np.abs(rows_dp) < _SENSITIVITY_FLOOR)
    failing = np.flatnonzero(
        (lowest < -1e-12) | (np.abs(sums) > 1e-8) | reduce(np.logical_or, divergent.T)
    )
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


def qfi_qubit_closed_form(params: QubitBathParams, p0: float, t):
    """Exact trajectory Fisher information of the relaxing two-level probe.

    With E = exp(-Gamma t) the squared sensitivity expands into three terms —
    the equilibrium-gradient part, the rate-dispersion part, and their cross
    term:

        F(t) = [ (dT p_eq)^2 (1-E)^2
                 + (p0 - p_eq)^2 t^2 E^2 (dT Gamma)^2
                 - 2 (p0 - p_eq) (dT p_eq) t E (1-E) dT Gamma ] / (p (1-p)).

    It is evaluated unexpanded, as :func:`binomial_fisher` of p from
    :func:`~.qubit.evolve_population` and dT p from :func:`~.qubit.dT_population`;
    the expansion would cancel near a zero of dT p.  So the floor and divergence
    rules are :func:`fisher_from_populations`', and ``t`` is a float (a float is
    returned) or a 1-D array whose entries equal the float call at that time bit
    for bit.
    """
    return binomial_fisher(evolve_population(params, p0, t), dT_population(params, p0, t))


def binomial_fisher(p, dp):
    """Fisher information (dT p)^2 / (p (1 - p)) of reading one level.

    It is :func:`fisher_from_populations` over (1 - p, p) and (-dT p, dT p), for
    a float (a float is returned) or a 1-D array (one value per entry).
    """
    return fisher_from_populations(np.array([1.0 - p, p]).T, np.array([-dp, dp]).T)


def qfi_equilibrium(omega0: float, temperature: float) -> float:
    """Fisher information of the thermalized probe, (dT p_eq)^2 / (p_eq (1 - p_eq))."""
    p_eq = gibbs_population_qubit(omega0, temperature)
    variance = p_eq * (1.0 - p_eq)
    if variance < _POPULATION_FLOOR:
        raise DivergentFisherError(
            f"equilibrium population {p_eq:.3g} is deterministic at T={temperature}"
        )
    return dT_gibbs(omega0, temperature) ** 2 / variance
