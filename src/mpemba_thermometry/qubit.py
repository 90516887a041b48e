"""Two-level probe relaxing toward a thermal bath.

The excited-state population obeys dp/dt = -Gamma (p - p_eq) with

    Gamma = Gamma0 * (1 + alpha * (p0 - p_eq)),    Gamma0 = gamma * (2 nbar + 1),

so preparations farther above equilibrium relax *faster* whenever alpha > 0.
That preparation-dependent rate is the anomalous-relaxation mechanism the rest
of the package studies; alpha = 0 recovers the ordinary linear-response decay.
All results here are exact closed forms (units hbar = k_B = 1), including the
temperature derivatives; the bath's occupation, equilibrium population and
their derivatives come from :mod:`.bath`.

The time-dependent closed forms take ``t`` as a float or as a 1-D array (one
value per time) and evaluate both on one path: ``t`` becomes a float array
(0-d for a float) by :func:`.grids.check_times`, the package's one time rule,
the decay factor is one ``np.exp``, and a float ``t`` gets a Python float
back.  numpy's ``exp`` gives the same bits for a 0-d and an n-d argument, so
each array entry equals the float call at that time bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import bose_occupation, dT_bose, dT_gibbs, gibbs_population_qubit
from .grids import check_non_negative, check_positive, check_probability, check_times

__all__ = [
    "UnphysicalRateError",
    "QubitBathParams",
    "ThermalQuantities",
    "thermal_quantities",
    "effective_rate",
    "evolve_population",
    "dT_rate",
    "dT_population",
]


class UnphysicalRateError(ValueError):
    """The effective relaxation rate came out non-positive or infinite."""


@dataclass(frozen=True)
class QubitBathParams:
    """Probe splitting, bare coupling, bath temperature, and rate-mixing strength:
    the first three positive, alpha non-negative, NaN rejected (:mod:`.grids` rules)."""

    omega0: float
    gamma: float
    temperature: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        check_positive("omega0", self.omega0)
        check_positive("gamma", self.gamma)
        check_positive("temperature", self.temperature)
        check_non_negative("alpha", self.alpha)


@dataclass(frozen=True)
class ThermalQuantities:
    """Bath occupation, equilibrium population, and bare relaxation rate."""

    n_bar: float
    p_eq: float
    gamma0: float


def thermal_quantities(params: QubitBathParams) -> ThermalQuantities:
    n_bar = bose_occupation(params.omega0, params.temperature)
    return ThermalQuantities(
        n_bar=n_bar,
        p_eq=gibbs_population_qubit(params.omega0, params.temperature),
        gamma0=params.gamma * (2.0 * n_bar + 1.0),
    )


def _rate(params: QubitBathParams, p0: float, q: ThermalQuantities) -> float:
    check_probability("p0", p0)
    rate = q.gamma0 * (1.0 + params.alpha * (p0 - q.p_eq))
    if not 0.0 < rate < math.inf:  # NaN included
        kind = "infinite" if rate == math.inf else "non-positive"
        raise UnphysicalRateError(
            f"effective rate {rate:.6g} is {kind} (alpha={params.alpha}, "
            f"p0={p0}, p_eq={q.p_eq:.6g})"
        )
    return rate


def effective_rate(params: QubitBathParams, p0: float) -> float:
    """Preparation-dependent rate Gamma0 * (1 + alpha * (p0 - p_eq))."""
    return _rate(params, p0, thermal_quantities(params))


def evolve_population(params: QubitBathParams, p0: float, t):
    """Exact solution p(t) = p_eq + (p0 - p_eq) exp(-Gamma t); ``t`` a float or 1-D array."""
    times = check_times(t)
    q = thermal_quantities(params)
    p = q.p_eq + (p0 - q.p_eq) * np.exp(-_rate(params, p0, q) * times)
    return p if times.ndim else float(p)


def _dT_rate(params: QubitBathParams, p0: float, q: ThermalQuantities) -> float:
    # callers check the rate by _rate first, p0 included
    d_gamma0 = 2.0 * params.gamma * dT_bose(params.omega0, params.temperature)
    d_peq = dT_gibbs(params.omega0, params.temperature)
    return d_gamma0 * (1.0 + params.alpha * (p0 - q.p_eq)) - params.alpha * q.gamma0 * d_peq


def dT_rate(params: QubitBathParams, p0: float) -> float:
    """Temperature derivative of the effective rate at fixed preparation.

    dT Gamma = dT Gamma0 * (1 + alpha (p0 - p_eq)) - alpha Gamma0 * dT p_eq;
    the second term is the anomalous contribution (p0 is held fixed while the
    equilibrium point moves with T).  A rate that is not positive and finite
    raises :class:`UnphysicalRateError`, as in :func:`effective_rate`.
    """
    q = thermal_quantities(params)
    _rate(params, p0, q)
    return _dT_rate(params, p0, q)


def dT_population(params: QubitBathParams, p0: float, t):
    """Temperature sensitivity of the relaxing population at fixed (p0, t).

    dT p(t) = dT p_eq (1 - e^{-Gamma t}) - (p0 - p_eq) t e^{-Gamma t} dT Gamma,
    with ``t`` a float or a 1-D array.
    """
    times = check_times(t)
    q = thermal_quantities(params)
    decay = np.exp(-_rate(params, p0, q) * times)
    d_peq = dT_gibbs(params.omega0, params.temperature)
    dp = d_peq * (1.0 - decay) - (p0 - q.p_eq) * times * decay * _dT_rate(params, p0, q)
    return dp if times.ndim else float(dp)
