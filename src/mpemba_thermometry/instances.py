"""Paired hot/cold relaxation experiments against a common bath.

One :class:`ProbePair` serves both probes.  :func:`make_qubit_pair` binds the
two-level closed forms; :func:`make_lambda_pair` decomposes the generator once,
binds the modal sums and keeps the spectral data.  Detection, certification
and the CLI see one surface: populations, temperature sensitivities, Fisher
information, a default time grid scaled to the slowest rate present, and the
slow-mode data the theorem certificate compares.  Every ``hot_*``/``cold_*``
evaluator takes ``t`` as a float or a 1-D array and answers per time.  A pair
fixes its norm when it is made; the ordering check and every detection use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import qubit as qb
from .fisher import fisher_from_populations, qfi_equilibrium, qfi_qubit_closed_form
from .mpemba import InversionRecord, detect_inversion, thermal_distance
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

__all__ = ["ProbePair", "make_qubit_pair", "make_lambda_pair"]


@dataclass(frozen=True, eq=False)
class ProbePair:
    """A probe prepared hot and cold against the same bath.

    ``slow_amplitude`` is the hot preparation's loading of the slowest
    decaying mode (p0_hot - p_eq for the qubit, a_2 for the ladder), and
    ``d_slow_rates`` the temperature derivatives of the slow rate seen by the
    hot and the cold preparation.  The qubit's rate depends on the
    preparation; the ladder's preparations share one generator, so its two
    entries are the same dT lambda_2.  ``decomposition`` and the fields after
    it are the ladder's spectral data, None for the qubit.
    """

    kind: str
    p_hot: float | np.ndarray
    p_cold: float | np.ndarray
    equilibrium: float | np.ndarray
    norm_kind: str
    slow_rate: float
    slow_amplitude: float
    d_slow_rates: tuple[float, float]
    hot_population: Callable
    cold_population: Callable
    hot_dT_population: Callable
    cold_dT_population: Callable
    hot_fisher: Callable
    cold_fisher: Callable
    equilibrium_fisher: Callable[[], float]
    decomposition: SpectralDecomposition | None = None
    derivatives: SpectralDerivatives | None = None
    amps_hot: ModalAmplitudes | None = None
    amps_cold: ModalAmplitudes | None = None

    def default_time_grid(self, points: int = 2000) -> np.ndarray:
        return np.linspace(0.0, 10.0 / self.slow_rate, points)

    def detect(
        self, delta_tol: float = 0.0, times: Sequence[float] | np.ndarray | None = None
    ) -> InversionRecord:
        """Inversion scan of the two populations in the pair's own norm."""
        grid = self.default_time_grid() if times is None else np.asarray(times, dtype=float)
        return detect_inversion(
            self.hot_population,
            self.cold_population,
            self.equilibrium,
            grid,
            delta_tol=delta_tol,
            norm_kind=self.norm_kind,
        )


def _check_ordering(p_hot, p_cold, equilibrium, norm_kind: str) -> None:
    d_hot = thermal_distance(p_hot, equilibrium, norm_kind)
    d_cold = thermal_distance(p_cold, equilibrium, norm_kind)
    if d_hot < d_cold:
        raise ValueError(
            f"hot preparation starts nearer equilibrium ({d_hot:.6g} < {d_cold:.6g} "
            f"in {norm_kind})"
        )


def make_qubit_pair(params: qb.QubitBathParams, p0_hot: float, p0_cold: float) -> ProbePair:
    """Bind the two-level closed forms to both preparations."""
    q = qb.thermal_quantities(params)
    _check_ordering(p0_hot, p0_cold, q.p_eq, "scalar_abs")
    return ProbePair(
        kind="qubit",
        p_hot=p0_hot,
        p_cold=p0_cold,
        equilibrium=q.p_eq,
        norm_kind="scalar_abs",
        slow_rate=min(qb.effective_rate(params, p0_hot), qb.effective_rate(params, p0_cold)),
        slow_amplitude=p0_hot - q.p_eq,
        d_slow_rates=(qb.dT_rate(params, p0_hot), qb.dT_rate(params, p0_cold)),
        hot_population=partial(qb.evolve_population, params, p0_hot),
        cold_population=partial(qb.evolve_population, params, p0_cold),
        hot_dT_population=partial(qb.dT_population, params, p0_hot),
        cold_dT_population=partial(qb.dT_population, params, p0_cold),
        hot_fisher=partial(qfi_qubit_closed_form, params, p0_hot),
        cold_fisher=partial(qfi_qubit_closed_form, params, p0_cold),
        equilibrium_fisher=partial(qfi_equilibrium, params.omega0, params.temperature),
    )


def _modal_populations(
    decomposition: SpectralDecomposition, amplitudes: ModalAmplitudes, t
) -> np.ndarray:
    # a float is a one-row grid
    rows = modal_trajectory(decomposition, amplitudes, np.atleast_1d(t))
    return rows if np.ndim(t) else rows[0]


def _modal_fisher(
    decomposition: SpectralDecomposition,
    derivatives: SpectralDerivatives,
    amplitudes: ModalAmplitudes,
    t,
):
    return fisher_from_populations(
        _modal_populations(decomposition, amplitudes, t),
        dT_populations_modal(decomposition, amplitudes, derivatives, t),
    )


def make_lambda_pair(
    rate_matrix: RateMatrix,
    p_hot: Sequence[float] | np.ndarray,
    p_cold: Sequence[float] | np.ndarray,
    norm_kind: str = "euclidean",
) -> ProbePair:
    """Decompose once and bind the modal sums to both preparations."""
    decomposition = decompose(rate_matrix)
    derivatives = temperature_derivatives(rate_matrix, decomposition)
    p_hot = np.asarray(p_hot, dtype=float)
    p_cold = np.asarray(p_cold, dtype=float)
    amps_hot = amplitudes_with_derivatives(decomposition, derivatives, p_hot)
    amps_cold = amplitudes_with_derivatives(decomposition, derivatives, p_cold)
    _check_ordering(p_hot, p_cold, decomposition.stationary, norm_kind)
    d_slow_rate = float(derivatives.d_eigenvalues[1])
    return ProbePair(
        kind="lambda",
        p_hot=p_hot,
        p_cold=p_cold,
        equilibrium=decomposition.stationary,
        norm_kind=norm_kind,
        slow_rate=float(decomposition.eigenvalues[1]),
        slow_amplitude=float(amps_hot.amplitudes[1]),
        d_slow_rates=(d_slow_rate, d_slow_rate),
        hot_population=partial(_modal_populations, decomposition, amps_hot),
        cold_population=partial(_modal_populations, decomposition, amps_cold),
        hot_dT_population=partial(dT_populations_modal, decomposition, amps_hot, derivatives),
        cold_dT_population=partial(dT_populations_modal, decomposition, amps_cold, derivatives),
        hot_fisher=partial(_modal_fisher, decomposition, derivatives, amps_hot),
        cold_fisher=partial(_modal_fisher, decomposition, derivatives, amps_cold),
        equilibrium_fisher=partial(
            fisher_from_populations, decomposition.stationary, derivatives.d_stationary
        ),
        decomposition=decomposition,
        derivatives=derivatives,
        amps_hot=amps_hot,
        amps_cold=amps_cold,
    )
