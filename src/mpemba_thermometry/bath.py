"""The bosonic bath every probe couples to: its occupation and its Gibbs weights.

Units hbar = k_B = 1.  The temperature is positive, and finite for the scalar
forms, which return zero-temperature limits past ``COLD_CUTOFF`` with a
:class:`ColdLimitWarning`.  The derivatives are exact and overflow-safe, and
each squares T by :func:`_squared`, whose overflow message names the temperature:

    dT nbar = (omega0 / T^2) nbar (1 + nbar)
    dT p_eq = (omega0 / T^2) p_eq (1 - p_eq)
    dT pi_i = pi_i (E_i - <E>) / T^2

The two-level population has two routes, the scalar
:func:`gibbs_population_qubit` (``math``) and :func:`gibbs_vector` (numpy, any
level set).  They differ in the last bits on about two in five random
(omega0, T), so routing the qubit through the vector would move every qubit
artifact at rounding level: a decision of its own.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .grids import check_positive

__all__ = [
    "ColdLimitWarning", "bose_occupation", "gibbs_population_qubit", "dT_gibbs", "dT_bose",
    "gibbs_vector", "dT_gibbs_vector",
]

# exp(omega0/T) overflows float64 a little above omega0/T = 709; past this the
# probe is numerically at zero temperature, so limit values are returned with
# a warning instead of raising OverflowError.
COLD_CUTOFF = 700.0


class ColdLimitWarning(RuntimeWarning):
    """omega0/T exceeded the overflow cutoff; zero-temperature limits returned."""


def _cold(omega0: float, temperature: float) -> bool:
    check_positive("omega0", omega0)
    check_positive("temperature", temperature)
    if temperature == math.inf:  # the occupation would divide by expm1(0) = 0
        raise ValueError(f"temperature must be finite, got {temperature}")
    if omega0 / temperature > COLD_CUTOFF:
        # attributed to this line, not to the caller, so that the default
        # filter shows a cold run's warning once whichever callers reach it
        warnings.warn(
            f"omega0/T = {omega0 / temperature:.3g} exceeds the overflow cutoff; "
            "returning zero-temperature limit",
            ColdLimitWarning,
        )
        return True
    return False


def bose_occupation(omega0: float, temperature: float) -> float:
    """Mean bath occupation 1 / (exp(omega0/T) - 1)."""
    if _cold(omega0, temperature):
        return 0.0
    return 1.0 / math.expm1(omega0 / temperature)


def gibbs_population_qubit(omega0: float, temperature: float) -> float:
    """Equilibrium excited population 1 / (1 + exp(omega0/T))."""
    if _cold(omega0, temperature):
        return 0.0
    return 1.0 / (1.0 + math.exp(omega0 / temperature))


def _squared(temperature: float) -> float:
    try:
        return temperature**2
    except OverflowError as exc:
        message = f"temperature {temperature:.6g} squared overflows a float (limit about 1.34e154)"
        raise OverflowError(message) from exc


def dT_gibbs(omega0: float, temperature: float) -> float:
    """Temperature derivative of the equilibrium population (factorized form)."""
    p_eq = gibbs_population_qubit(omega0, temperature)
    return (omega0 / _squared(temperature)) * p_eq * (1.0 - p_eq)


def dT_bose(omega0: float, temperature: float) -> float:
    """Temperature derivative of the bath occupation (factorized form)."""
    n_bar = bose_occupation(omega0, temperature)
    return (omega0 / _squared(temperature)) * n_bar * (1.0 + n_bar)


def gibbs_vector(energies: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized Boltzmann weights exp(-E_i / T), overflow-safe.

    The energies are shifted by their minimum, so the largest weight is 1.
    The exponent is (E_i - E_min) / -T, which equals -(E_i - E_min) / T bit
    for bit in IEEE arithmetic.  The temperature follows :func:`.grids.check_positive`.
    """
    check_positive("temperature", temperature)
    energies = np.asarray(energies, dtype=float)
    weights = np.exp((energies - np.minimum.reduce(energies, axis=None)) / -temperature)
    return weights / np.add.reduce(weights, axis=None)


def dT_gibbs_vector(energies: np.ndarray, temperature: float) -> np.ndarray:
    """dT pi_i = pi_i (E_i - <E>) / T^2, which sums to zero exactly."""
    energies = np.asarray(energies, dtype=float)
    pi = gibbs_vector(energies, temperature)
    mean_energy = float(pi @ energies)
    return pi * (energies - mean_energy) / _squared(temperature)
