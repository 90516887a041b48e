"""The one rule for times, the one rule for scan grids and the three rules for
scalar parameters, held by every caller.

Every time evaluator takes ``t`` by :func:`grids.check_times`: a float gives a
float (or one population vector, the one-row grid's row), a 1-D array one row
per time, an empty array an empty result, and 2-D, negative and non-finite
times raise the rule's own ``ValueError``.  The lemma certificates take a
float ``t`` only.  Every scan takes its grid by :func:`grids.check_grid`, and
a grid of times follows the time rule as well.  Every scalar parameter is
checked by :func:`grids.check_positive`, :func:`grids.check_non_negative` or
:func:`grids.check_probability`, so NaN and the edge value raise the rule's
own message at every site.
The t = 0 regime is pinned here too: the preparation itself, exact zero
sensitivity and Fisher information, and thermalized probes that hold pi.
"""

import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from mpemba_thermometry import (
    QubitBathParams,
    bose_occupation,
    build_lambda_rate_matrix,
    decompose,
    dT_population,
    dT_populations_modal,
    detect_inversion,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
    make_lambda_pair,
    make_qubit_pair,
    modal_trajectory,
    qfi_qubit_closed_form,
    temperature_derivatives,
    theorem_hierarchy_check,
)
from mpemba_thermometry.certificates import (
    compute_lemma_constants,
    lemma1_remainder_check,
    lemma2_slow_mode,
    lemma3_fi_gap_bound,
    slow_mode_split,
    verify_theorem,
)
from mpemba_thermometry.grids import (
    check_grid,
    check_non_negative,
    check_positive,
    check_probability,
    check_times,
)
from mpemba_thermometry.instances import make_lambda_probe, make_qubit_probe
from mpemba_thermometry.protocol import (
    calibrate_equilibrium,
    dynamical_calibration,
    fisher_map,
    nearest_knot,
    sample_population,
)
from mpemba_thermometry.qubit import dT_rate
from mpemba_thermometry.spectral import amplitudes_with_derivatives, gibbs_vector

from conftest import CANONICAL, LADDER, LADDER_COLD, LADDER_HOT, P0_COLD, P0_HOT

QUBIT = QubitBathParams(**CANONICAL)
LADDER_MATRIX = build_lambda_rate_matrix(**LADDER)
DEC = decompose(LADDER_MATRIX)
DER = temperature_derivatives(LADDER_MATRIX, DEC)
AMPS = {
    "hot": amplitudes_with_derivatives(DEC, DER, LADDER_HOT),
    "cold": amplitudes_with_derivatives(DEC, DER, LADDER_COLD),
}
PAIRS = {
    "qubit": make_qubit_pair(QUBIT, P0_HOT, P0_COLD),
    "ladder": make_lambda_pair(LADDER_MATRIX, LADDER_HOT, LADDER_COLD),
}
PROBES = {
    "qubit_hot": make_qubit_probe(QUBIT, P0_HOT),
    "qubit_thermalized": make_qubit_probe(QUBIT, None),
    "ladder_hot": make_lambda_probe(LADDER_MATRIX, LADDER_HOT),
    "ladder_thermalized": make_lambda_probe(LADDER_MATRIX, None),
}

# every function of t the package offers, bound to the canonical instances
EVALUATORS = {
    "qubit.evolve_population": partial(evolve_population, QUBIT, P0_HOT),
    "qubit.dT_population": partial(dT_population, QUBIT, P0_HOT),
    "fisher.qfi_qubit_closed_form": partial(qfi_qubit_closed_form, QUBIT, P0_HOT),
    "spectral.modal_trajectory": partial(modal_trajectory, DEC, AMPS["hot"]),
    "spectral.dT_populations_modal": lambda t: dT_populations_modal(DEC, AMPS["hot"], DER, t),
    **{
        f"{model}_pair.{side}_{kind}": getattr(pair, f"{side}_{kind}")
        for model, pair in PAIRS.items()
        for side in ("hot", "cold")
        for kind in ("population", "fisher")
    },
    **{
        f"{name}_probe.{kind}": getattr(probe, kind)
        for name, probe in PROBES.items()
        for kind in ("population", "fisher")
    },
}
# the certificates at one time: a float t only
LEMMAS = {
    "lemma1_remainder_check": partial(lemma1_remainder_check, DEC, AMPS["hot"], DER),
    "lemma2_slow_mode": partial(lemma2_slow_mode, DEC, AMPS["hot"], DER),
    "slow_mode_split": partial(slow_mode_split, DEC, AMPS["hot"], DER),
    "compute_lemma_constants": lambda t: compute_lemma_constants(
        DEC, DER, AMPS["hot"], t, DEC.stationary[None, :]
    ),
}
BAD_TIMES = [-1.0, -1e-9, math.nan, math.inf, -math.inf]


def message(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestTimeContract:
    @pytest.mark.parametrize("t", [0.0, 0.7, 12.5])
    @pytest.mark.parametrize("name", EVALUATORS)
    def test_a_float_gives_the_one_row_grid_row(self, name, t):
        value = EVALUATORS[name](t)
        assert isinstance(value, float) or value.shape == (3,)
        row = EVALUATORS[name](np.array([t]))[0]
        assert np.asarray(value).tobytes() == np.asarray(row).tobytes()

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_an_array_gives_one_row_per_time(self, name):
        values = EVALUATORS[name](np.array([0.0, 0.5, 2.0, 7.0]))
        assert values.shape in ((4,), (4, 3))

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_an_empty_array_gives_an_empty_result(self, name):
        values = EVALUATORS[name](np.array([]))
        assert values.shape in ((0,), (0, 3))

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_a_2d_array_is_rejected(self, name):
        # it used to be flattened into one row per entry by the ladder's sums
        grid = np.zeros((2, 2))
        assert message(EVALUATORS[name], grid) == message(check_times, grid)

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("name", EVALUATORS)
    def test_a_bad_time_is_rejected_alone_or_in_an_array(self, name, bad):
        # a float takes the 0-d shortcut past min/max: the same check, the same
        # message as the one-element array and as the bad entry of a longer one
        expected = message(check_times, bad)
        for t in (bad, np.array([bad]), np.array([0.0, 1.0, bad])):
            assert message(EVALUATORS[name], t) == expected

    @pytest.mark.parametrize("name", LEMMAS)
    def test_a_lemma_keeps_its_float_time(self, name):
        for t in (0.7, np.float64(0.7), np.array(0.7)):
            result = LEMMAS[name](t)
            if hasattr(result, "t"):
                assert type(result.t) is float and result.t == 0.7

    @pytest.mark.parametrize("shape", [(2,), (0,), (1, 1)], ids=str)
    @pytest.mark.parametrize("name", LEMMAS)
    def test_a_lemma_rejects_a_time_array(self, name, shape):
        # a 1-D t passed the time rule, then died inside numpy
        t = np.full(shape, 0.7)
        assert message(LEMMAS[name], t) == f"t must be a float, got shape {shape}"

    @pytest.mark.parametrize("bad", BAD_TIMES)
    @pytest.mark.parametrize("name", LEMMAS)
    def test_a_lemma_rejects_a_bad_time(self, name, bad):
        # a NaN or infinite t used to give NaN certificates
        assert message(LEMMAS[name], bad) == message(check_times, bad)


class TestTimeZero:
    """At t = 0 every trajectory is its preparation, and nothing has been learnt."""

    @pytest.mark.parametrize(
        "evaluate, preparation",
        [
            (partial(evolve_population, QUBIT, P0_HOT), P0_HOT),
            (partial(modal_trajectory, DEC, AMPS["hot"]), LADDER_HOT),
            (partial(modal_trajectory, DEC, AMPS["cold"]), LADDER_COLD),
            (PAIRS["qubit"].hot_population, P0_HOT),
            (PAIRS["qubit"].cold_population, P0_COLD),
            (PAIRS["ladder"].hot_population, LADDER_HOT),
            (PAIRS["ladder"].cold_population, LADDER_COLD),
            (PROBES["qubit_hot"].population, P0_HOT),
            (PROBES["ladder_hot"].population, LADDER_HOT[-1]),
        ],
    )
    def test_populations_are_the_preparation(self, evaluate, preparation):
        for value in (evaluate(0.0), evaluate(np.array([0.0]))[0]):
            assert np.max(np.abs(value - preparation)) <= 1e-15

    @pytest.mark.parametrize(
        "evaluate",
        [
            partial(dT_population, QUBIT, P0_HOT),
            partial(dT_populations_modal, DEC, AMPS["hot"], DER),
            partial(dT_populations_modal, DEC, AMPS["cold"], DER),
            partial(qfi_qubit_closed_form, QUBIT, P0_HOT),
            *(getattr(pair, f"{side}_fisher") for pair in PAIRS.values() for side in ("hot", "cold")),
            PROBES["qubit_hot"].fisher,
            PROBES["ladder_hot"].fisher,
        ],
    )
    def test_sensitivity_and_fisher_information_are_exact_zeros(self, evaluate):
        # the preparation is held fixed, so dT p(0) = 0, not rounding residue
        assert not np.any(evaluate(0.0))
        assert not np.any(evaluate(np.array([0.0, 0.0])))

    @pytest.mark.parametrize(
        "name, pi",
        [
            ("qubit_thermalized", gibbs_population_qubit(QUBIT.omega0, QUBIT.temperature)),
            ("ladder_thermalized", DEC.stationary[-1]),  # read on the top level
        ],
    )
    def test_thermalized_probes_hold_pi(self, name, pi):
        probe = PROBES[name]
        assert probe.population(0.0) == pi
        assert np.array_equal(probe.population(np.array([0.0, 1.0, 40.0])), np.full(3, pi))
        assert probe.fisher(0.0) == probe.fisher(40.0)


def qubit_pair_at(temperature: float):
    return make_qubit_pair(QubitBathParams(1.0, 1.0, temperature, 1.0), P0_HOT, P0_COLD)


def qubit_population(t, temperature: float):
    return evolve_population(QubitBathParams(1.0, 1.0, temperature, 1.0), P0_HOT, t)


def constant(value: float):
    """A function of t that checks no time: ``value`` at every time."""
    return lambda t: np.full(np.shape(t), value)


# closures that check no time, so the scans must check their times themselves
DRIFTING_PAIR = SimpleNamespace(
    equilibrium=0.5,
    hot_population=lambda t: 0.6 - 0.05 * np.asarray(t),
    cold_population=constant(0.7),
)
FLAT_FISHER = SimpleNamespace(
    hot_fisher=constant(2.0), cold_fisher=constant(1.5), equilibrium_fisher=lambda: 1.0
)


# each scan with the argument name its grid is reported under and its minimum size
SCANS = {
    "detect_inversion": (
        lambda grid: detect_inversion(
            PAIRS["qubit"].hot_population,
            PAIRS["qubit"].cold_population,
            PAIRS["qubit"].equilibrium,
            grid,
            norm_kind="scalar_abs",
        ),
        "times",
        2,
    ),
    "calibrate_equilibrium": (
        lambda grid: calibrate_equilibrium(qubit_pair_at, grid, shots=0, seed=0),
        "temperatures",
        2,
    ),
    "dynamical_calibration": (
        lambda grid: dynamical_calibration(qubit_pair_at, [0.5], grid, shots=0, seed=0),
        "time_grid",
        2,
    ),
    "dynamical_calibration temperatures": (
        lambda grid: dynamical_calibration(
            qubit_pair_at, grid, np.linspace(0.0, 4.0, 21), shots=100, seed=1
        ),
        "temperatures",
        1,
    ),
    "fisher_map": (
        lambda grid: fisher_map(qubit_population, [0.0, 1.0], grid),
        "temperatures",
        5,
    ),
    # a closure that ignores t, so checks no time: the map must check its times itself
    "fisher_map times": (
        lambda grid: fisher_map(
            lambda t, T: gibbs_population_qubit(1.0, T), grid, np.linspace(0.3, 0.7, 5)
        ),
        "times",
        1,
    ),
    "detect_inversion times": (
        lambda grid: detect_inversion(
            lambda t: 0.8 - 0.1 * np.asarray(t), constant(0.25), 0.5, grid, norm_kind="scalar_abs"
        ),
        "times",
        2,
    ),
    "dynamical_calibration times": (
        lambda grid: dynamical_calibration(lambda T: DRIFTING_PAIR, [0.5], grid, shots=0, seed=0),
        "time_grid",
        2,
    ),
    # repeated knots picked the later one, reversed ones raised DegenerateModelError,
    # and an empty list gave knot 0
    "nearest_knot": (lambda grid: nearest_knot(qubit_pair_at, grid, 0.1), "knots", 1),
}
THERMAL = {"omega0": 1.0, "temperature": 0.5}
# each site of a scalar parameter rule: (a call of the value, the parameter's
# name, the rule, a valid value)
PARAMETERS = {
    **{
        f"QubitBathParams {name}": (
            lambda value, name=name: QubitBathParams(**{**CANONICAL, name: value}),
            name,
            check_non_negative if name == "alpha" else check_positive,
            CANONICAL[name],
        )
        for name in CANONICAL
    },
    **{
        f"{law.__name__} {name}": (
            lambda value, law=law, name=name: law(**{**THERMAL, name: value}),
            name,
            check_positive,
            0.5,
        )
        for law in (bose_occupation, gibbs_population_qubit)
        for name in ("omega0", "temperature")
    },
    "gibbs_vector temperature": (
        partial(gibbs_vector, np.array([0.0, 0.0, 1.0])), "temperature", check_positive, 0.5
    ),
    **{
        f"build_lambda_rate_matrix {name}": (
            lambda value, name=name: build_lambda_rate_matrix(**{**LADDER, name: value}),
            name,
            check_positive,
            1.0,
        )
        for name in ("kappa1", "kappa2")
    },
    "effective_rate p0": (partial(effective_rate, QUBIT), "p0", check_probability, P0_HOT),
    "dT_rate p0": (partial(dT_rate, QUBIT), "p0", check_probability, P0_HOT),
    # a NaN population picked the last knot
    "nearest_knot p_measured": (
        lambda value: nearest_knot(qubit_pair_at, np.linspace(0.3, 0.7, 9), value),
        "p_measured",
        check_probability,
        0.1,
    ),
    "sample_population p_true": (
        lambda value: sample_population(value, 10, 0), "p_true", check_probability, 0.5
    ),
    "detect_inversion delta_tol": (
        lambda value: detect_inversion(
            PAIRS["qubit"].hot_population,
            PAIRS["qubit"].cold_population,
            PAIRS["qubit"].equilibrium,
            np.linspace(0.0, 4.0, 41),
            value,
            norm_kind="scalar_abs",
        ),
        "delta_tol",
        check_non_negative,
        0.0,
    ),
    "ProbePair.detect delta_tol": (PAIRS["qubit"].detect, "delta_tol", check_non_negative, 0.0),
    "verify_theorem delta_tol": (
        lambda value: verify_theorem(PAIRS["qubit"], delta_tol=value),
        "delta_tol",
        check_non_negative,
        0.0,
    ),
    "lemma3_fi_gap_bound m_low": (
        partial(lemma3_fi_gap_bound, 0.5, 0.1, np.zeros(3), np.zeros(3), np.ones(3)),
        "m_low",
        check_positive,
        2.0,
    ),
}
# the nearest value each rule rejects
EDGES = {check_positive: 0.0, check_non_negative: -1e-300, check_probability: 1 + 1e-15}

# the scans whose grid holds times, so that it follows the time rule too; the
# Fisher hierarchy takes its grid by the time rule alone
TIME_SCANS = {
    **{name: SCANS[name][0] for name in SCANS if name.endswith(" times")},
    "theorem_hierarchy_check": lambda grid: theorem_hierarchy_check(FLAT_FISHER, 0.5, grid),
}


def _bad_grids(good: np.ndarray, min_points: int) -> list[np.ndarray]:
    repeated, with_nan = good.copy(), good.copy()
    repeated[1] = repeated[0]
    with_nan[1] = math.nan
    return [good[: min_points - 1], good.reshape(1, -1), repeated, good[::-1], with_nan]


class TestGridRule:
    @pytest.mark.parametrize("name", SCANS)
    def test_every_scan_rejects_bad_grids_with_the_rule_message(self, name):
        scan, label, min_points = SCANS[name]
        good = np.linspace(0.3, 0.7, max(min_points, 2))  # two points to repeat or reverse
        scan(good)
        for grid in _bad_grids(good, min_points):
            assert message(scan, grid) == message(check_grid, grid, label, min_points)

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0], [0.0, math.inf]])
    def test_the_fisher_map_times_follow_the_time_rule_too(self, grid):
        scan = SCANS["fisher_map times"][0]
        assert message(scan, grid) == message(check_times, grid)

    @pytest.mark.parametrize("grid", [[-1.0, 0.0, 1.0], [0.0, math.inf], [0.5, 1.0, math.inf]])
    @pytest.mark.parametrize("name", TIME_SCANS)
    def test_every_time_grid_follows_the_time_rule(self, name, grid):
        # negative times gave crossings, and reports, before t = 0
        assert message(TIME_SCANS[name], grid) == message(check_times, grid)

    def test_the_rule_returns_a_float_array(self):
        grid = check_grid([0, 1, 3], "times", 2)
        assert grid.dtype == float and grid.tolist() == [0.0, 1.0, 3.0]

    @pytest.mark.parametrize("t_star", BAD_TIMES)
    def test_the_hierarchy_start_follows_the_time_rule(self, t_star):
        # a negative t_star gave a report from before t = 0, a NaN one a report at nan
        check = partial(theorem_hierarchy_check, FLAT_FISHER, t_grid=[0.0, 1.0])
        assert message(check, t_star) == message(check_times, t_star)

    @pytest.mark.parametrize("shape", [(1,), (2,), (0,)], ids=str)
    def test_the_hierarchy_start_is_one_time(self, shape):
        t_star = np.full(shape, 0.5)
        got = message(theorem_hierarchy_check, FLAT_FISHER, t_star, [0.0, 1.0])
        assert got == f"t_star must be a float, got shape {shape}"

    @pytest.mark.parametrize("t_star", [0.5, np.float64(0.5), np.array(0.5)], ids=repr)
    def test_the_hierarchy_starts_at_a_float_t_star(self, t_star):
        report = theorem_hierarchy_check(FLAT_FISHER, t_star, [0.0, 1.0])
        assert report.times.tolist() == [0.5, 1.0] and report.all_hold


class TestParameterRule:
    @pytest.mark.parametrize("name", PARAMETERS)
    def test_every_site_rejects_nan_and_the_edge_with_the_rule_message(self, name):
        # NaN slipped past alpha, kappa1, kappa2, delta_tol and m_low, whose
        # checks compared with < or <=
        call, parameter, rule, valid = PARAMETERS[name]
        call(valid)
        for bad in (math.nan, EDGES[rule]):
            assert message(call, bad) == message(rule, parameter, bad)

    @pytest.mark.parametrize(
        "rule, value, expected",
        [
            (check_positive, 0.0, "x must be positive, got 0.0"),
            (check_positive, -0.0, "x must be positive, got -0.0"),
            (check_positive, -math.inf, "x must be positive, got -inf"),
            (check_positive, math.nan, "x must be positive, got nan"),
            (check_positive, 0, "x must be positive, got 0"),
            (check_non_negative, -1e-300, "x must be non-negative, got -1e-300"),
            (check_non_negative, -math.inf, "x must be non-negative, got -inf"),
            (check_non_negative, np.float64(math.nan), "x must be non-negative, got nan"),
            (check_probability, 1 + 1e-15, "x must lie in [0, 1], got 1.000000000000001"),
            (check_probability, -1e-300, "x must lie in [0, 1], got -1e-300"),
            (check_probability, math.inf, "x must lie in [0, 1], got inf"),
            (check_probability, math.nan, "x must lie in [0, 1], got nan"),
        ],
    )
    def test_a_rule_rejects_with_its_own_message(self, rule, value, expected):
        assert message(rule, "x", value) == expected

    @pytest.mark.parametrize(
        "rule, value",
        [
            (check_positive, 5e-324),
            (check_positive, math.inf),
            (check_non_negative, 0.0),
            (check_non_negative, -0.0),
            (check_non_negative, 0),
            (check_probability, 0.0),
            (check_probability, -0.0),
            (check_probability, 1.0),
            (check_probability, np.float64(0.25)),
        ],
    )
    def test_a_rule_passes_its_valid_values(self, rule, value):
        assert rule("x", value) is None
