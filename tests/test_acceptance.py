"""Acceptance gate: ten end-to-end checks, one report line each.

Every test prints (and records) a single ``[criterion N] PASS/FAIL`` line;
the conftest terminal-summary hook replays the collected lines at the end of
the run so the verdict is visible even when output capture is on.

Three checks (criteria 3, 7 and 9) assert that the hot preparation carries
more information than the cold one or than equilibrium, and the implemented
models do not deliver that; everything structural around them (crossings,
certificates, estimator calibration) holds.  The failure messages carry the
measured numbers.  The causes:

* The two-level rate is frozen at preparation, so
  dT p(t) = dT p_eq (1 - E) - (p0 - p_eq) t E dT Gamma with E = exp(-Gamma t).
  For p0 > p_eq the rate term works against the equilibrium gradient, and
  sup_t F(t) / F_eq stays at or below 1 (1 - 9e-12 at p0 = 0.13, exactly 1 at
  p0 = 0.9).  Only preparations below p_eq rise above F_eq (1.0031 at
  p0 = 0.01).  Criterion 3 tests the hot preparation, and criterion 9, whose
  best map time is the end of the grid, inherits the same ordering.
* The hot ladder preparation has no amplitude on the slow (1, -1, 0) mode, so
  it crosses the cold one in the fast-mode era (t* x slow rate = 0.0764), where
  its two sensitivity terms cancel and F_hot is about 1e-4 (criterion 7).

Whether the models or these criteria are at fault is open: the paper's
abstract does not give the feedback law, whether preparations carry
coherences, or the three-level generator.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from conftest import (
    LADDER,
    LADDER_COLD,
    LADDER_HOT,
    random_ladder,
    random_preparation,
    random_qubit,
)
from mpemba_thermometry.certificates import (
    lemma1_remainder_check,
    lemma2_slow_mode,
    lemma3_metric_bounds,
)
from mpemba_thermometry.fisher import qfi_equilibrium, qfi_qubit_closed_form
from mpemba_thermometry.instances import ProbePair, make_lambda_pair, make_qubit_pair
from mpemba_thermometry.oracle import finite_difference_dT, integrate_rate_equation
from mpemba_thermometry.protocol import (
    ShotRecord,
    fisher_map,
    mle_temperature,
    sample_population,
)
from mpemba_thermometry.qubit import (
    QubitBathParams,
    dT_population,
    effective_rate,
    evolve_population,
    gibbs_population_qubit,
)
from mpemba_thermometry.spectral import (
    amplitudes_with_derivatives,
    build_lambda_rate_matrix,
    decompose,
    dT_populations_modal,
    finite_difference_spectrum,
    modal_trajectory,
    project_initial,
    temperature_derivatives,
)

CRITERION_LINES: list[str] = []

OMEGA0, GAMMA, T_TRUE, ALPHA = 1.0, 1.0, 0.5, 1.0
P0_HOT, P0_COLD = 0.9, 0.5
F_EQ_QUOTED = 1.6799
T_STAR_QUOTED = 1.36714
CRB_STD = 0.0077153  # 1 / sqrt(1e4 shots * equilibrium Fisher information)

ARTIFACT_DIR = Path(__file__).parent / "artifacts"


def record(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def canonical_params() -> QubitBathParams:
    return QubitBathParams(OMEGA0, GAMMA, T_TRUE, ALPHA)


def canonical_pair() -> ProbePair:
    return make_qubit_pair(params=canonical_params(), p0_hot=P0_HOT, p0_cold=P0_COLD)


def canonical_ladder_pair():
    return make_lambda_pair(build_lambda_rate_matrix(**LADDER), LADDER_HOT, LADDER_COLD)


def eq_model(t: float, temp: float) -> float:
    return gibbs_population_qubit(OMEGA0, temp)


def eq_fisher(t: float, temp: float) -> float:
    return qfi_equilibrium(OMEGA0, temp)


def test_criterion_01_crossing_time_and_reference_integrator():
    start = time.perf_counter()
    pair = canonical_pair()
    p_eq = gibbs_population_qubit(OMEGA0, T_TRUE)
    rate_hot = effective_rate(canonical_params(), P0_HOT)
    rate_cold = effective_rate(canonical_params(), P0_COLD)
    t_closed = math.log((P0_HOT - p_eq) / (P0_COLD - p_eq)) / (rate_hot - rate_cold)

    detected = pair.detect()
    gap_detector = abs(detected.t_star - t_closed)
    gap_quoted = abs(t_closed - T_STAR_QUOTED)

    times = np.linspace(0.0, 8.0, 33)
    gap_rk4 = 0.0
    for p0, rate in ((P0_HOT, rate_hot), (P0_COLD, rate_cold)):
        ref = integrate_rate_equation(
            lambda s, p, r=rate: -r * (p - p_eq), p0, times, dt=5e-4
        )
        closed = p_eq + (p0 - p_eq) * np.exp(-rate * times)
        gap_rk4 = max(gap_rk4, float(np.max(np.abs(ref.states - closed))))
    elapsed = time.perf_counter() - start

    ok = (
        detected.detected
        and gap_detector < 1e-8
        and gap_quoted < 2e-5
        and gap_rk4 < 1e-8
        and elapsed < 1.0
    )
    record(
        1,
        ok,
        f"distance crossing at t*={detected.t_star:.10f} "
        f"(detector vs closed form {gap_detector:.1e}, closed form vs quoted "
        f"{gap_quoted:.1e}, reference integrator vs closed form {gap_rk4:.1e}, "
        f"{elapsed:.2f} s)",
    )


def test_criterion_02_equilibrium_fisher_value_and_sampled_check():
    f_eq = qfi_equilibrium(OMEGA0, T_TRUE)
    gap_quoted = abs(f_eq - F_EQ_QUOTED)

    h, shots, seed = 0.02, 10**6, 2024
    up = sample_population(gibbs_population_qubit(OMEGA0, T_TRUE + h), shots, seed, cell=0)
    dn = sample_population(gibbs_population_qubit(OMEGA0, T_TRUE - h), shots, seed, cell=1)
    slope = (up.successes / up.shots - dn.successes / dn.shots) / (2.0 * h)
    p_mid = gibbs_population_qubit(OMEGA0, T_TRUE)
    fi_sampled = slope**2 / (p_mid * (1.0 - p_mid))
    rel = abs(fi_sampled - f_eq) / f_eq

    ok = gap_quoted < 1e-3 and rel < 0.10
    record(
        2,
        ok,
        f"equilibrium Fisher information {f_eq:.6f} (quoted-value gap "
        f"{gap_quoted:.1e}); sampled finite-difference estimate {fi_sampled:.4f} "
        f"deviates {rel:.1%} at {shots} shots",
    )


def test_criterion_03_information_hierarchy_at_crossing():
    pair = canonical_pair()
    detected = pair.detect()
    t_star = detected.t_star
    f_hot = pair.hot_fisher(t_star)
    f_cold = pair.cold_fisher(t_star)
    f_eq = pair.equilibrium_fisher()
    grid = pair.default_time_grid()[1:]
    gains = np.log10([pair.hot_fisher(t) / f_eq for t in grid])
    max_gain = float(np.max(gains))

    ok = f_hot > f_cold >= f_eq and max_gain > 0.0
    record(
        3,
        ok,
        f"at t*={t_star:.5f}: F_hot={f_hot:.6f}, F_cold={f_cold:.6f}, "
        f"F_eq={f_eq:.6f}; hot-over-equilibrium log10 gain peaks at "
        f"{max_gain:.2e} — the crossing reorders distances, never information",
    )


def test_criterion_04_modal_evolution_against_reference_integrator():
    rng = np.random.default_rng(41)
    times = np.linspace(0.0, 20.0, 21)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        matrix = random_ladder(rng, min_gap=0.1)
        dec = decompose(matrix)
        if dec.eigenvalues[1] <= 0.1:
            continue
        accepted += 1
        p0 = random_preparation(rng, dec.stationary, max_tv=0.6)
        amps = project_initial(dec, p0)
        modal = modal_trajectory(dec, amps, times)
        ref = integrate_rate_equation(matrix.entries, p0, times, dt=2e-3)
        worst = max(worst, float(np.max(np.abs(modal - ref.states))))

    ok = worst < 1e-8
    record(
        4,
        ok,
        f"modal propagation vs fixed-step reference integrator on 100 random "
        f"three-level systems over [0, 20]: worst componentwise gap {worst:.2e}",
    )


def test_criterion_05_temperature_derivative_routes_against_stencils():
    rng = np.random.default_rng(51)
    worst_scalar = 0.0
    worst_vector = 0.0

    for _ in range(25):
        params = random_qubit(rng)
        p0 = float(rng.uniform(0.05, 0.95))
        if 1.0 + params.alpha * (p0 - gibbs_population_qubit(params.omega0, params.temperature)) <= 0.05:
            continue
        for t in (0.2, 1.0, 3.0):
            fd = finite_difference_dT(
                lambda temp: evolve_population(
                    QubitBathParams(params.omega0, params.gamma, temp, params.alpha),
                    p0,
                    t,
                ),
                params.temperature,
            )
            scale = max(abs(fd.value), 1e-10)
            worst_scalar = max(
                worst_scalar, abs(dT_population(params, p0, t) - fd.value) / scale
            )

    for _ in range(25):
        matrix = random_ladder(rng, min_gap=0.1)
        dec = decompose(matrix)
        der = temperature_derivatives(matrix, dec)
        fd = finite_difference_spectrum(matrix, dec)

        scale = max(float(np.max(np.abs(fd.d_eigenvalues[1:]))), 1e-10)
        worst_scalar = max(
            worst_scalar,
            float(np.max(np.abs(der.d_eigenvalues[1:] - fd.d_eigenvalues[1:]))) / scale,
        )
        scale = max(float(np.max(np.abs(fd.d_right_modes[:, 1:]))), 1e-10)
        worst_vector = max(
            worst_vector,
            float(np.max(np.abs(der.d_right_modes[:, 1:] - fd.d_right_modes[:, 1:])))
            / scale,
        )

        p0 = random_preparation(rng, dec.stationary)
        amps = amplitudes_with_derivatives(dec, der, p0)
        for t in (0.3, 2.0):
            analytic = dT_populations_modal(dec, amps, der, t)

            def populations_at(temp: float, t=t, p0=p0):
                dec_t = decompose(matrix.family(temp))
                amps_t = project_initial(dec_t, p0)
                return modal_trajectory(dec_t, amps_t, np.array([t]))[0]

            fd_pop = finite_difference_dT(populations_at, matrix.temperature)
            scale = max(float(np.max(np.abs(fd_pop.value))), 1e-10)
            worst_vector = max(
                worst_vector, float(np.max(np.abs(analytic - fd_pop.value))) / scale
            )

    ok = worst_scalar < 1e-5 and worst_vector < 1e-4
    record(
        5,
        ok,
        f"analytic temperature derivatives vs central stencils on 50 random "
        f"instances: scalar routes off by {worst_scalar:.2e} (tol 1e-5), "
        f"vector routes by {worst_vector:.2e} (tol 1e-4)",
    )


def test_criterion_06_certificate_slacks_non_negative():
    rng = np.random.default_rng(61)
    violations: list[dict] = []
    worst_slack = np.inf

    for index in range(100):
        matrix = random_ladder(rng, min_gap=0.1)
        dec = decompose(matrix)
        der = temperature_derivatives(matrix, dec)
        p0 = random_preparation(rng, dec.stationary, max_tv=0.3)
        amps = amplitudes_with_derivatives(dec, der, p0)

        slacks: dict[str, float] = {}
        for t in (0.05, 0.6, 2.5):
            l1 = lemma1_remainder_check(dec, amps, der, t)
            l2 = lemma2_slow_mode(dec, amps, der, t)
            slacks[f"fast_slack@{t}"] = l1.fast_slack
            slacks[f"remainder_slack@{t}"] = l1.remainder_slack
            slacks[f"triangle_slack@{t}"] = l2.triangle_slack
            slacks[f"amp_bound_slack@{t}"] = l2.amp_bound_slack
        cloud = np.array(
            [dec.stationary]
            + [random_preparation(rng, dec.stationary, max_tv=0.3) for _ in range(8)]
        )
        m_low, m_high = lemma3_metric_bounds(cloud)
        slacks["metric_low"] = m_low
        slacks["metric_spread"] = m_high - m_low

        worst_slack = min(worst_slack, min(slacks.values()))
        bad = {name: value for name, value in slacks.items() if value < -1e-12}
        if bad:
            violations.append(
                {
                    "index": index,
                    "energies": matrix.energies.tolist(),
                    "temperature": matrix.temperature,
                    "preparation": p0.tolist(),
                    "violated": bad,
                }
            )

    if violations:
        ARTIFACT_DIR.mkdir(exist_ok=True)
        artifact = ARTIFACT_DIR / "certificate_counterexamples.json"
        artifact.write_text(json.dumps(violations, indent=2))
        record(
            6,
            False,
            f"{len(violations)}/100 random instances violate a certified "
            f"inequality (worst slack {worst_slack:.2e}); counterexamples "
            f"written to {artifact}",
        )
    else:
        record(
            6,
            True,
            f"all certified inequalities hold on 100 random instances "
            f"(smallest slack {worst_slack:.2e} >= -1e-12)",
        )


def test_criterion_07_three_level_crossing_window_and_information():
    pair = canonical_ladder_pair()
    detected = pair.detect()
    t_star = detected.t_star
    slow = pair.slow_rate
    window = (0.1 / slow, 10.0 / slow)
    in_window = detected.detected and window[0] <= t_star <= window[1]
    f_hot = pair.hot_fisher(t_star)
    f_cold = pair.cold_fisher(t_star)

    ok = in_window and f_hot > f_cold
    record(
        7,
        ok,
        f"three-level crossing at t*={t_star:.5f} (t* x slow rate = "
        f"{t_star * slow:.4f}, window [0.1, 10]); F_hot(t*)={f_hot:.3e} vs "
        f"F_cold(t*)={f_cold:.3e} — the crossing happens in the fast-mode era, "
        f"before the hot branch accumulates information",
    )


def test_criterion_08_monte_carlo_estimator_calibration():
    start = time.perf_counter()
    shots, replicas, seed = 10_000, 200, 777
    p_true = gibbs_population_qubit(OMEGA0, T_TRUE)
    hats = np.empty(replicas)
    errs = np.empty(replicas)
    for r in range(replicas):
        rec = sample_population(p_true, shots, seed, cell=r)
        res = mle_temperature([rec], eq_model, (0.3, 0.7), fisher_fn=eq_fisher)
        hats[r] = res.t_hat
        errs[r] = res.stderr
    elapsed = time.perf_counter() - start

    mean_abs = float(np.mean(np.abs(hats - T_TRUE)))
    spread = float(np.std(hats, ddof=1))
    ratio = spread / CRB_STD
    ok = (
        mean_abs < 3.0 * float(np.mean(errs))
        and 0.8 <= ratio <= 1.25
        and elapsed < 30.0
    )
    record(
        8,
        ok,
        f"{replicas} replicas at {shots} shots: mean |error| {mean_abs:.5f} vs "
        f"reported stderr {float(np.mean(errs)):.5f}, spread/limit ratio "
        f"{ratio:.3f} (band [0.8, 1.25]), {elapsed:.1f} s",
    )


def test_criterion_09_prepared_probe_variance_paired_comparison():
    shots, replicas, seed = 10_000, 200, 555
    times = np.linspace(0.0, 8.0, 81)
    temps = np.linspace(0.3, 0.7, 9)

    def hot_pop(t: float, temp: float) -> float:
        return evolve_population(QubitBathParams(OMEGA0, GAMMA, temp, ALPHA), P0_HOT, t)

    fm = fisher_map(hot_pop, times, temps)
    column = int(np.argmin(np.abs(temps - T_TRUE)))
    t_opt = fm.argmax_time(column)
    p_eq = gibbs_population_qubit(OMEGA0, T_TRUE)
    p_hot = hot_pop(t_opt, T_TRUE)

    def hot_fisher(t: float, temp: float) -> float:
        return qfi_qubit_closed_form(
            QubitBathParams(OMEGA0, GAMMA, temp, ALPHA), P0_HOT, t_opt
        )

    hats_eq = np.empty(replicas)
    hats_hot = np.empty(replicas)
    for r in range(replicas):
        #  common random numbers: one uniform vector decides both arms' shots
        u = Generator(Philox(key=[seed, r])).random(shots)
        rec_eq = ShotRecord(
            shots=shots, successes=float((u < p_eq).sum()), time=0.0,
            preparation="equilibrium", seed=seed,
        )
        rec_hot = ShotRecord(
            shots=shots, successes=float((u < p_hot).sum()), time=t_opt,
            preparation="hot", seed=seed,
        )
        hats_eq[r] = mle_temperature(
            [rec_eq], eq_model, (0.3, 0.7), fisher_fn=eq_fisher
        ).t_hat
        hats_hot[r] = mle_temperature(
            [rec_hot], lambda t, temp: hot_pop(t_opt, temp), (0.3, 0.7),
            fisher_fn=hot_fisher,
        ).t_hat

    var_eq = float(np.var(hats_eq, ddof=1))
    var_hot = float(np.var(hats_hot, ddof=1))
    ok = var_hot < var_eq
    record(
        9,
        ok,
        f"paired {replicas}-replica comparison at the map's best interrogation "
        f"time t={t_opt:g}: prepared-probe variance {var_hot:.4e} vs "
        f"equilibrium {var_eq:.4e} (ratio {var_hot / var_eq:.7f}) — the "
        f"prepared probe never beats its own equilibrium ceiling",
    )


def test_criterion_10_no_feedback_means_no_crossing():
    params = QubitBathParams(OMEGA0, GAMMA, T_TRUE, 0.0)
    detections = 0
    for p0_cold in np.linspace(0.13, 0.55, 10):
        for offset in np.linspace(0.03, 0.40, 10):
            pair = make_qubit_pair(params=params, p0_hot=p0_cold + offset, p0_cold=p0_cold)
            if pair.detect(delta_tol=0.0).detected:
                detections += 1

    ok = detections == 0
    record(
        10,
        ok,
        f"without preparation feedback the distance ordering is preserved: "
        f"{detections}/100 grid preparations report a crossing",
    )
