"""Paired hot/cold relaxation experiments against a common bath.

These wrappers bundle a model, a pair of preparations, and the derived
spectral/sensitivity data into one object exposing the uniform surface the
detection, certification, and CLI layers consume: populations, temperature
sensitivities, Fisher information, distances, and a default time grid scaled
to the slowest rate present.

Every ``hot_*``/``cold_*`` method takes ``t`` as a float or as a 1-D array of
times and answers with one value (or population row) per time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import qubit as qb
from .fisher import fisher_from_populations, qfi_equilibrium, qfi_qubit_closed_form
from .mpemba import InversionRecord, detect_inversion
from .spectral import (
    ModalAmplitudes,
    RateMatrix,
    SpectralDecomposition,
    SpectralDerivatives,
    amplitudes_with_derivatives,
    decompose,
    dT_populations_modal,
    modal_trajectory,
    temperature_derivatives,
)

__all__ = ["QubitPair", "LambdaPair", "make_lambda_pair"]


@dataclass(frozen=True)
class QubitPair:
    """Two-level probe prepared hot and cold against the same bath."""

    params: qb.QubitBathParams
    p0_hot: float
    p0_cold: float

    kind = "qubit"

    def __post_init__(self) -> None:
        q = qb.thermal_quantities(self.params)
        if abs(self.p0_hot - q.p_eq) < abs(self.p0_cold - q.p_eq):
            raise ValueError(
                f"hot preparation {self.p0_hot} starts nearer equilibrium than "
                f"cold {self.p0_cold} (p_eq={q.p_eq:.6g})"
            )

    @property
    def equilibrium(self) -> float:
        return qb.gibbs_population_qubit(self.params.omega0, self.params.temperature)

    @property
    def rate_hot(self) -> float:
        return qb.effective_rate(self.params, self.p0_hot)

    @property
    def rate_cold(self) -> float:
        return qb.effective_rate(self.params, self.p0_cold)

    @property
    def slow_rate(self) -> float:
        return min(self.rate_hot, self.rate_cold)

    def hot_population(self, t):
        return qb.evolve_population(self.params, self.p0_hot, t)

    def cold_population(self, t):
        return qb.evolve_population(self.params, self.p0_cold, t)

    def hot_dT_population(self, t):
        return qb.dT_population(self.params, self.p0_hot, t)

    def cold_dT_population(self, t):
        return qb.dT_population(self.params, self.p0_cold, t)

    def hot_fisher(self, t):
        return qfi_qubit_closed_form(self.params, self.p0_hot, t)

    def cold_fisher(self, t):
        return qfi_qubit_closed_form(self.params, self.p0_cold, t)

    def equilibrium_fisher(self) -> float:
        return qfi_equilibrium(self.params.omega0, self.params.temperature)

    def default_time_grid(self, points: int = 2000) -> np.ndarray:
        return np.linspace(0.0, 10.0 / self.slow_rate, points)

    def detect(
        self,
        delta_tol: float = 0.0,
        norm_kind: str | None = None,
        times: Sequence[float] | np.ndarray | None = None,
    ) -> InversionRecord:
        grid = self.default_time_grid() if times is None else np.asarray(times, dtype=float)
        return detect_inversion(
            self.hot_population,
            self.cold_population,
            self.equilibrium,
            grid,
            delta_tol=delta_tol,
            norm_kind=norm_kind,
        )


@dataclass(frozen=True, eq=False)
class LambdaPair:
    """Three-level ladder probe with hot/cold preparations and cached spectral data."""

    rate_matrix: RateMatrix
    p_hot: np.ndarray
    p_cold: np.ndarray
    decomposition: SpectralDecomposition
    derivatives: SpectralDerivatives
    amps_hot: ModalAmplitudes
    amps_cold: ModalAmplitudes
    norm_kind: str = "euclidean"

    kind = "lambda"

    @property
    def equilibrium(self) -> np.ndarray:
        return self.decomposition.stationary

    @property
    def slow_rate(self) -> float:
        return float(self.decomposition.eigenvalues[1])

    def _populations(self, amplitudes: ModalAmplitudes, t) -> np.ndarray:
        # a float is a one-row grid
        rows = modal_trajectory(self.decomposition, amplitudes, np.atleast_1d(t))
        return rows if np.ndim(t) else rows[0]

    def hot_population(self, t) -> np.ndarray:
        return self._populations(self.amps_hot, t)

    def cold_population(self, t) -> np.ndarray:
        return self._populations(self.amps_cold, t)

    def hot_dT_population(self, t) -> np.ndarray:
        return dT_populations_modal(self.decomposition, self.amps_hot, self.derivatives, t)

    def cold_dT_population(self, t) -> np.ndarray:
        return dT_populations_modal(self.decomposition, self.amps_cold, self.derivatives, t)

    def hot_fisher(self, t):
        return fisher_from_populations(self.hot_population(t), self.hot_dT_population(t))

    def cold_fisher(self, t):
        return fisher_from_populations(self.cold_population(t), self.cold_dT_population(t))

    def equilibrium_fisher(self) -> float:
        return fisher_from_populations(
            self.decomposition.stationary, self.derivatives.d_stationary
        )

    def default_time_grid(self, points: int = 2000) -> np.ndarray:
        return np.linspace(0.0, 10.0 / self.slow_rate, points)

    def detect(
        self,
        delta_tol: float = 0.0,
        norm_kind: str | None = None,
        times: Sequence[float] | np.ndarray | None = None,
    ) -> InversionRecord:
        grid = self.default_time_grid() if times is None else np.asarray(times, dtype=float)
        kind = self.norm_kind if norm_kind is None else norm_kind
        return detect_inversion(
            self.hot_population,
            self.cold_population,
            self.equilibrium,
            grid,
            delta_tol=delta_tol,
            norm_kind=kind,
        )


def make_lambda_pair(
    rate_matrix: RateMatrix,
    p_hot: Sequence[float] | np.ndarray,
    p_cold: Sequence[float] | np.ndarray,
    norm_kind: str = "euclidean",
) -> LambdaPair:
    """Decompose once and bundle both preparations with their sensitivities."""
    decomposition = decompose(rate_matrix)
    derivatives = temperature_derivatives(rate_matrix, decomposition)
    p_hot = np.asarray(p_hot, dtype=float)
    p_cold = np.asarray(p_cold, dtype=float)
    amps_hot = amplitudes_with_derivatives(decomposition, derivatives, p_hot)
    amps_cold = amplitudes_with_derivatives(decomposition, derivatives, p_cold)
    d_hot = float(np.linalg.norm(p_hot - decomposition.stationary))
    d_cold = float(np.linalg.norm(p_cold - decomposition.stationary))
    if d_hot < d_cold:
        raise ValueError(
            f"hot preparation starts nearer equilibrium ({d_hot:.6g} < {d_cold:.6g})"
        )
    return LambdaPair(
        rate_matrix=rate_matrix,
        p_hot=p_hot,
        p_cold=p_cold,
        decomposition=decomposition,
        derivatives=derivatives,
        amps_hot=amps_hot,
        amps_cold=amps_cold,
        norm_kind=norm_kind,
    )
