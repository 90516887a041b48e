"""The bath at an infinite temperature, its one T^2 rule, and the agreement of
its two Gibbs routes."""

import math
import re

import numpy as np
import pytest

from mpemba_thermometry import bath
from mpemba_thermometry.qubit import QubitBathParams, thermal_quantities
from mpemba_thermometry.spectral import build_lambda_rate_matrix

ENERGIES = np.array([0.0, 0.0, 1.0])
# the bath's functions of T, at one temperature
AT_TEMPERATURE = {
    "bose_occupation": lambda T: bath.bose_occupation(1.0, T),
    "gibbs_population_qubit": lambda T: bath.gibbs_population_qubit(1.0, T),
    "dT_bose": lambda T: bath.dT_bose(1.0, T),
    "dT_gibbs": lambda T: bath.dT_gibbs(1.0, T),
    "dT_gibbs_vector": lambda T: bath.dT_gibbs_vector(ENERGIES, T),
}
SCALAR = [name for name in AT_TEMPERATURE if name != "dT_gibbs_vector"]


class TestInfiniteTemperature:
    @pytest.mark.parametrize(
        "call",
        [
            *(AT_TEMPERATURE[name] for name in SCALAR),
            lambda T: thermal_quantities(QubitBathParams(1.0, 1.0, T)),
            lambda T: build_lambda_rate_matrix(0.0, 0.0, 1.0, 1.0, 1.0, T),
        ],
        ids=[*SCALAR, "thermal_quantities", "build_lambda_rate_matrix"],
    )
    def test_the_scalar_forms_raise_a_value_error_naming_the_temperature(self, call):
        # the occupation divided by expm1(0) = 0: a bare ZeroDivisionError
        with pytest.raises(ValueError, match=r"^temperature must be finite, got inf$"):
            call(math.inf)

    def test_the_gibbs_vector_takes_its_limit(self):
        assert bath.gibbs_vector(ENERGIES, math.inf).tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert bath.dT_gibbs_vector(ENERGIES, math.inf).tolist() == [0.0, 0.0, 0.0]


class TestSquaredTemperature:
    @pytest.mark.parametrize("name", ["dT_bose", "dT_gibbs", "dT_gibbs_vector"])
    def test_every_derivative_names_the_temperature_on_overflow(self, name):
        # dT_gibbs_vector squared T itself and raised a bare (34, 'Numerical result out of range')
        message = "temperature 1e+200 squared overflows a float (limit about 1.34e154)"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            AT_TEMPERATURE[name](1e200)

    def test_the_two_gibbs_derivatives_agree_to_rounding(self):
        for temperature in (0.05, 0.5, 5.0, 1e150):
            vector = bath.dT_gibbs_vector(np.array([0.0, 1.0]), temperature)
            scalar = bath.dT_gibbs(1.0, temperature)
            assert vector[1] == pytest.approx(scalar, rel=1e-12)
