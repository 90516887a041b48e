"""Anomalous-relaxation enhanced temperature estimation for dissipative probes.

The package follows the physics pipeline: exact two-level relaxation
(:mod:`.qubit`), spectral calculus of detailed-balance generators
(:mod:`.spectral`), Fisher information of population readout (:mod:`.fisher`),
inversion detection (:mod:`.mpemba`), checkable certificates for the
transient-advantage argument (:mod:`.certificates`), and the finite-shot
estimation pipeline (:mod:`.protocol`).  :mod:`.oracle` holds the independent
numerical back-ends used for cross-checks, and :mod:`.cli` the command-line
front end.
"""

from .fisher import (
    DivergentFisherError,
    cramer_rao_bound,
    fisher_from_populations,
    qfi_equilibrium,
    qfi_qubit_closed_form,
    qfi_short_time,
)
from .instances import ProbePair, make_lambda_pair, make_qubit_pair
from .mpemba import (
    InversionRecord,
    TrajectoryOrderingError,
    crossover_time_bound,
    detect_inversion,
    qfi_gain,
    theorem_hierarchy_check,
    thermal_distance,
)
from .qubit import (
    QubitBathParams,
    ThermalQuantities,
    UnphysicalRateError,
    bose_occupation,
    dT_gibbs,
    dT_population,
    dT_rate,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
    thermal_quantities,
)
from .spectral import (
    DegenerateSpectrumError,
    RateMatrix,
    RateMatrixError,
    SpectralDecomposition,
    build_lambda_rate_matrix,
    build_qubit_rate_matrix,
    decompose,
    dT_populations_modal,
    gibbs_vector,
    modal_trajectory,
    project_initial,
    temperature_derivatives,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QubitBathParams",
    "ThermalQuantities",
    "UnphysicalRateError",
    "bose_occupation",
    "gibbs_population_qubit",
    "thermal_quantities",
    "effective_rate",
    "evolve_population",
    "dT_gibbs",
    "dT_rate",
    "dT_population",
    "RateMatrix",
    "RateMatrixError",
    "DegenerateSpectrumError",
    "SpectralDecomposition",
    "build_qubit_rate_matrix",
    "build_lambda_rate_matrix",
    "gibbs_vector",
    "decompose",
    "temperature_derivatives",
    "dT_populations_modal",
    "project_initial",
    "modal_trajectory",
    "DivergentFisherError",
    "fisher_from_populations",
    "qfi_qubit_closed_form",
    "qfi_equilibrium",
    "qfi_short_time",
    "cramer_rao_bound",
    "InversionRecord",
    "TrajectoryOrderingError",
    "thermal_distance",
    "detect_inversion",
    "crossover_time_bound",
    "qfi_gain",
    "theorem_hierarchy_check",
    "ProbePair",
    "make_qubit_pair",
    "make_lambda_pair",
]
