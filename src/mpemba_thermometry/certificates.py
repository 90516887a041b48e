"""Checkable certificates for the transient-advantage argument.

The argument that an anomalous-relaxation crossing pays off metrologically
rests on three bounding steps: (1) after the crossing the fast modes and the
sensitivity remainder are exponentially suppressed, (2) the slow-mode
sensitivity admits explicit two-sided envelopes, (3) the population-space
metric is bounded on a neighbourhood of the trajectories, which converts modal
separations into Fisher-information gaps.  Each step is implemented here as a
certificate: the exact quantity, its claimed bound, and the slack between
them.  Certificates never assert the *conclusion* — the empirical Fisher
orderings are reported alongside, and on instances where the bounding route's
validity condition fails (remainders comparable to the slow-mode signal) the
certificate says so rather than extrapolating.

All modal machinery requires at least three levels; pairs without a spectral
decomposition (the two-level probe) get the case split and the closed-form
Fisher comparisons only.  :func:`verify_theorem` detects the crossing in the
pair's own norm and checks the Fisher hierarchy only when there is one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .grids import check_positive, check_times
from .instances import ProbePair
from .mpemba import HierarchyReport, InversionRecord, theorem_hierarchy_check
from .spectral import ModalAmplitudes, SpectralDecomposition, SpectralDerivatives

__all__ = [
    "LemmaConstants",
    "SlowModeSensitivity",
    "Lemma1Certificate",
    "Lemma2Certificate",
    "TheoremCertificate",
    "compute_lemma_constants",
    "lemma1_remainder_check",
    "lemma2_slow_mode",
    "lemma3_metric_bounds",
    "lemma3_fi_gap_bound",
    "slow_mode_split",
    "verify_theorem",
]

_METRIC_EPS = 1e-6  # populations at or below it make the Lemma 3 metric 1/p_i unbounded


@dataclass(frozen=True)
class LemmaConstants:
    """Instance constants entering the three bounding steps.

    Norm conventions: a_max, v_max, v_prime_max, lambda_t range over the
    decaying modes (fast modes only for lambda_t); r_t, w_op_norm, v_op_norm
    are spectral (operator 2-) norms; d2/e2/w_norm are the perturbation-sum
    constants of the slow mode, with the stationary mode included in their
    sums; m_low/m_high bound the inverse populations over the supplied
    neighbourhood.
    """

    a_max: float
    v_max: float
    v_prime_max: float
    gap_delta: float
    lambda_max: float
    lambda_t: float
    r_t: float
    c1: float
    c_r: float
    w_norm: float
    d2: float
    e2: float
    m_low: float
    m_high: float
    w_op_norm: float
    v_op_norm: float


@dataclass(frozen=True)
class SlowModeSensitivity:
    """Slow-mode part of dT p(t): S(t) v_2 with envelope B(t)."""

    s_of_t: float
    b_of_t: float
    a2: float
    dT_a2: float
    dT_lambda2: float


@dataclass(frozen=True)
class Lemma1Certificate:
    """Fast-mode and remainder suppression bounds at one time."""

    t: float
    fast_lhs: float
    fast_rhs: float
    fast_slack: float
    remainder_lhs: float
    remainder_rhs: float
    remainder_slack: float


@dataclass(frozen=True)
class Lemma2Certificate:
    """Slow-mode envelope and amplitude-sensitivity bounds at one time."""

    t: float
    sensitivity: SlowModeSensitivity
    triangle_lhs: float
    triangle_rhs: float
    triangle_slack: float
    amp_bound_lhs: float
    amp_bound_rhs: float
    amp_bound_slack: float


def _check_certifiable(
    decomposition: SpectralDecomposition, amplitudes: ModalAmplitudes, t: float
) -> float:
    """``t`` as a Python float, once the instance and the time are certifiable."""
    if decomposition.dim < 3:
        raise ValueError(
            f"modal certificates need at least 3 levels, got {decomposition.dim}"
        )
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a float, got shape {np.shape(t)}")
    t = float(check_times(t))
    if amplitudes.dT_amplitudes is None:
        raise ValueError("amplitudes carry no dT_amplitudes")
    return t


def _instance_constants(
    decomposition: SpectralDecomposition,
    derivatives: SpectralDerivatives,
    amplitudes: ModalAmplitudes,
    t: float,
) -> dict[str, float]:
    """Every bounding constant of one instance at time t, computed in one place.

    The keys are the :class:`LemmaConstants` fields except m_low and m_high
    (which need a neighbourhood), plus the pieces the lemmas combine: c_r1,
    c_r2, w2_norm, delta_norm (||p0 - pi||) and d_pi_norm (||dT pi||).  Only
    c_r1, and c_r through it, depend on t; the rest comes from
    :func:`_time_free_constants`, once per instance.
    """
    c = _time_free_constants(decomposition, derivatives, amplitudes)
    n = decomposition.dim
    a_max, v_max, lambda_t, c_r2 = c["a_max"], c["v_max"], c["lambda_t"], c["c_r2"]
    c_r1 = v_max * (n - 2) * c["c1"] + v_max * t * lambda_t * (n - 2) * a_max
    c_r = max(c_r1, c_r2 / a_max) if a_max > 1e-300 else c_r1
    return {**c, "c_r1": c_r1, "c_r": c_r}


@functools.lru_cache(maxsize=8)
def _time_free_constants(
    decomposition: SpectralDecomposition,
    derivatives: SpectralDerivatives,
    amplitudes: ModalAmplitudes,
) -> Mapping[str, float]:
    """The bounding constants of one instance that do not depend on t.

    The result is cached per instance, so the lemma certificates at several
    times of one instance compute it once.  The three argument types are
    frozen dataclasses with ``eq=False``: they hash and compare by identity,
    so two distinct instances never share an entry, and a key's id cannot be
    reused while the cache holds it.  The arrays they carry are treated as
    immutable.  The mapping is read-only, because every caller shares it.
    """
    lam = decomposition.eigenvalues
    n = lam.size
    right = decomposition.right_modes
    left = decomposition.left_modes
    a = amplitudes.amplitudes

    a_max = float(np.max(np.abs(a[1:])))
    v_max = float(np.max(np.linalg.norm(right[:, 1:], axis=0)))
    v_prime_max = float(np.max(np.linalg.norm(derivatives.d_right_modes[:, 1:], axis=0)))
    lambda_t = float(np.max(np.abs(derivatives.d_eigenvalues[2:])))
    w_op_norm = float(np.linalg.norm(left[:, 1:].T, ord=2))

    delta_norm = float(np.linalg.norm(right[:, 1:] @ a[1:]))
    d_pi_norm = float(np.linalg.norm(derivatives.d_stationary))
    max_dw = float(np.max(np.linalg.norm(derivatives.d_left_modes[:, 1:], axis=0)))
    c1 = max_dw * delta_norm + w_op_norm * d_pi_norm
    c_r2 = (n - 1) * a_max * v_prime_max

    # perturbation sums of the slow mode (index 1), stationary mode included
    w_norms = np.linalg.norm(left, axis=0)
    v_norms = np.linalg.norm(right, axis=0)
    others = [j for j in range(n) if j != 1]
    gaps = lam[others] - lam[1]
    return MappingProxyType(
        {
            "a_max": a_max,
            "v_max": v_max,
            "v_prime_max": v_prime_max,
            "gap_delta": float(lam[2] - lam[1]),
            "lambda_max": float(lam[-1]),
            "lambda_t": lambda_t,
            "r_t": float(np.linalg.norm(derivatives.d_rate_matrix, ord=2)),
            "c1": c1,
            "w_norm": float(np.sqrt(np.sum(w_norms[others] ** 2))),
            "d2": float(np.sqrt(np.sum((w_norms[others] / gaps) ** 2))),
            "e2": float(np.sqrt(np.sum((v_norms[others] / gaps) ** 2))),
            "w_op_norm": w_op_norm,
            "v_op_norm": float(np.linalg.norm(right[:, 1:], ord=2)),
            "c_r2": c_r2,
            "w2_norm": float(w_norms[1]),
            "delta_norm": delta_norm,
            "d_pi_norm": d_pi_norm,
        }
    )


def compute_lemma_constants(
    decomposition: SpectralDecomposition,
    derivatives: SpectralDerivatives,
    amplitudes: ModalAmplitudes,
    t: float,
    neighborhood: np.ndarray,
) -> LemmaConstants:
    """Assemble every bounding constant for one instance at evaluation time t."""
    t = _check_certifiable(decomposition, amplitudes, t)
    c = _instance_constants(decomposition, derivatives, amplitudes, t)
    m_low, m_high = lemma3_metric_bounds(neighborhood)
    constants = LemmaConstants(
        **{f.name: c[f.name] for f in fields(LemmaConstants) if f.name in c},
        m_low=m_low,
        m_high=m_high,
    )
    for f in fields(constants):
        value = getattr(constants, f.name)
        if not math.isfinite(value):
            raise ValueError(f"lemma constant {f.name} is not finite: {value}")
    if c["gap_delta"] <= 0:
        raise ValueError(f"spectral gap lambda_3 - lambda_2 = {c['gap_delta']} is not positive")
    return constants


def _slow_mode_split_at(
    decomposition: SpectralDecomposition,
    amplitudes: ModalAmplitudes,
    derivatives: SpectralDerivatives,
    t: float,
) -> tuple[np.ndarray, float, SlowModeSensitivity, np.ndarray]:
    """The lemmas' modal quantities at time t, each computed once: the decay
    factors e^{-lambda_k t}, the envelope e^{-lambda_2 t}, S(t) and the remainder
    R(t) = sum_{k>=3} (dT a_k - a_k t dT lambda_k) e^{-lambda_k t} v_k
           + sum_{k>=2} a_k e^{-lambda_k t} dT v_k,
    everything in dT p(t) beyond dT pi and the slow-mode term."""
    a = amplitudes.amplitudes
    da = amplitudes.dT_amplitudes
    decay = np.exp(-decomposition.eigenvalues * t)
    fast = (da[2:] - a[2:] * t * derivatives.d_eigenvalues[2:]) * decay[2:]
    remainder = (
        decomposition.right_modes[:, 2:] @ fast
        + derivatives.d_right_modes[:, 1:] @ (a[1:] * decay[1:])
    )
    a2 = float(a[1])
    da2 = float(da[1])
    dlam2 = float(derivatives.d_eigenvalues[1])
    envelope = math.exp(-float(decomposition.eigenvalues[1]) * t)
    sensitivity = SlowModeSensitivity(
        s_of_t=(da2 - a2 * t * dlam2) * envelope,
        b_of_t=(abs(da2) + abs(a2 * dlam2)) * envelope,
        a2=a2,
        dT_a2=da2,
        dT_lambda2=dlam2,
    )
    return decay, envelope, sensitivity, remainder


def lemma1_remainder_check(
    decomposition: SpectralDecomposition,
    amplitudes: ModalAmplitudes,
    derivatives: SpectralDerivatives,
    t: float,
) -> Lemma1Certificate:
    """Certify fast-mode and sensitivity-remainder suppression at time t.

    Fast part:   || sum_{k>=3} a_k e^{-lambda_k t} v_k ||
                   <= A_max V_max (N-2) e^{-lambda_3 t}
    Remainder:   || R(t) || <= C_R1(t) e^{-lambda_3 t} + C_R2 e^{-lambda_2 t}
    """
    t = _check_certifiable(decomposition, amplitudes, t)
    c = _instance_constants(decomposition, derivatives, amplitudes, t)
    decay, _, _, remainder = _slow_mode_split_at(decomposition, amplitudes, derivatives, t)

    fast = decomposition.right_modes[:, 2:] @ (amplitudes.amplitudes[2:] * decay[2:])
    fast_lhs = float(np.linalg.norm(fast))
    fast_rhs = c["a_max"] * c["v_max"] * (decomposition.dim - 2) * float(decay[2])

    remainder_lhs = float(np.linalg.norm(remainder))
    remainder_rhs = c["c_r1"] * float(decay[2]) + c["c_r2"] * float(decay[1])

    return Lemma1Certificate(
        t=t,
        fast_lhs=fast_lhs,
        fast_rhs=fast_rhs,
        fast_slack=fast_rhs - fast_lhs,
        remainder_lhs=remainder_lhs,
        remainder_rhs=remainder_rhs,
        remainder_slack=remainder_rhs - remainder_lhs,
    )


def lemma2_slow_mode(
    decomposition: SpectralDecomposition,
    amplitudes: ModalAmplitudes,
    derivatives: SpectralDerivatives,
    t: float,
) -> Lemma2Certificate:
    """Certify the slow-mode sensitivity envelopes at time t.

    S(t) = (dT a_2 - a_2 t dT lambda_2) e^{-lambda_2 t} is the slow-mode
    coefficient of dT p(t); B(t) = (|dT a_2| + |a_2 dT lambda_2|) e^{-lambda_2 t}
    its crude envelope.  Certified inequalities:

        |S(t)| >= t |a_2| |dT lambda_2| e^{-lambda_2 t} - B(t)
        |dT a_2| <= R_T ||w_2|| E_2 W_norm ||p0 - pi|| + ||w_2|| ||dT pi||
    """
    t = _check_certifiable(decomposition, amplitudes, t)
    _, envelope, sensitivity, _ = _slow_mode_split_at(decomposition, amplitudes, derivatives, t)
    a2, dlam2 = sensitivity.a2, sensitivity.dT_lambda2
    triangle_rhs = t * abs(a2) * abs(dlam2) * envelope - sensitivity.b_of_t
    triangle_lhs = abs(sensitivity.s_of_t)

    c = _time_free_constants(decomposition, derivatives, amplitudes)  # no bound here depends on t
    amp_bound_lhs = abs(sensitivity.dT_a2)
    amp_bound_rhs = (
        c["r_t"] * c["w2_norm"] * c["e2"] * c["w_norm"] * c["delta_norm"]
        + c["w2_norm"] * c["d_pi_norm"]
    )
    return Lemma2Certificate(
        t=t,
        sensitivity=sensitivity,
        triangle_lhs=triangle_lhs,
        triangle_rhs=triangle_rhs,
        triangle_slack=triangle_lhs - triangle_rhs,
        amp_bound_lhs=amp_bound_lhs,
        amp_bound_rhs=amp_bound_rhs,
        amp_bound_slack=amp_bound_rhs - amp_bound_lhs,
    )


def lemma3_metric_bounds(neighborhood: np.ndarray) -> tuple[float, float]:
    """Extremes of the diagonal metric 1/p_i over a point cloud.

    Returns (m_low, m_high) with m_low = min over points and levels of 1/p_i
    and m_high the corresponding max.  Because the extremes of coordinatewise
    1/p over a convex hull are attained at vertices, passing the sampled
    trajectory points is exact for their hull.  Populations at or below
    ``_METRIC_EPS`` make the metric unbounded and raise.
    """
    points = np.atleast_2d(np.asarray(neighborhood, dtype=float))
    low = float(points.min())
    if low <= _METRIC_EPS:
        raise ValueError(
            f"neighbourhood touches the simplex boundary (min population {low:.3g} "
            f"<= {_METRIC_EPS:.1g}); metric bounds are unbounded"
        )
    return 1.0 / float(points.max()), 1.0 / low


def lemma3_fi_gap_bound(
    s_hot: float,
    s_cold: float,
    remainder_hot: np.ndarray,
    remainder_cold: np.ndarray,
    v2: np.ndarray,
    m_low: float,
) -> float:
    """Metric lower bound on F_hot - F_cold from the slow-mode separation.

    m_low (|dS| ||v_2||)^2 - 2 m_low |dS| ||v_2|| ||dR|| - m_low ||dR||^2 with
    dS = S_hot - S_cold and dR the remainder difference, for m_low > 0 (NaN raises).
    Meaningful (positive) only when the slow-mode separation dominates the remainders;
    callers must treat non-positive values as "no certified gap", and even a positive
    value is a *claimed* bound whose validity condition (remainders small in the metric
    sense) is checked empirically by the verification layer.
    """
    check_positive("m_low", m_low)
    ds = abs(s_hot - s_cold) * float(np.linalg.norm(v2))
    dr = float(np.linalg.norm(np.asarray(remainder_hot) - np.asarray(remainder_cold)))
    return m_low * (ds * ds - 2.0 * ds * dr - dr * dr)


def slow_mode_split(
    decomposition: SpectralDecomposition,
    amplitudes: ModalAmplitudes,
    derivatives: SpectralDerivatives,
    t: float,
) -> tuple[float, np.ndarray]:
    """Split dT p(t) = dT pi + S(t) v_2 + R(t); returns (S(t), R(t)).

    Both pieces come from their own modal sums, so reassembling the three
    reproduces :func:`~mpemba_thermometry.spectral.dT_populations_modal` to
    rounding as an identity of the perturbation route, not by construction.
    """
    t = _check_certifiable(decomposition, amplitudes, t)
    _, _, sensitivity, remainder = _slow_mode_split_at(decomposition, amplitudes, derivatives, t)
    return sensitivity.s_of_t, remainder


@dataclass(frozen=True)
class TheoremCertificate:
    """Everything the transient-advantage verification produced for one pair.

    The fields after ``f_eq`` stay None when there is nothing to report: all of
    them without an inversion, the modal ones (lemma1 onwards) for the qubit.
    """

    applicable: bool
    kind: str
    inversion: InversionRecord
    f_eq: float
    case: str | None = None
    kappa0: float | None = None
    f_hot_tstar: float | None = None
    f_cold_tstar: float | None = None
    hot_gt_cold_at_tstar: bool | None = None
    cold_ge_eq_at_tstar: bool | None = None
    hierarchy: HierarchyReport | None = None
    lemma1: Lemma1Certificate | None = None
    lemma2: Lemma2Certificate | None = None
    constants: LemmaConstants | None = None
    gap_bound: float | None = None
    gap_bound_positive: bool | None = None
    gap_bound_valid: bool | None = None
    residual_ratio: float | None = None

    def to_text(self) -> str:
        def fmt(value) -> str:
            if value is None:
                return "none"
            if isinstance(value, (bool, np.bool_)):
                return "true" if value else "false"
            if isinstance(value, (float, np.floating)):
                return format(float(value), ".17g")
            return str(value)

        lines = [
            f"applicable = {fmt(self.applicable)}",
            f"model_kind = {self.kind}",
            f"case = {fmt(self.case)}",
            f"kappa0 = {fmt(self.kappa0)}",
            *self.inversion.to_lines(),
            f"f_eq = {fmt(self.f_eq)}",
            f"f_hot_at_t_star = {fmt(self.f_hot_tstar)}",
            f"f_cold_at_t_star = {fmt(self.f_cold_tstar)}",
            f"hot_gt_cold_at_t_star = {fmt(self.hot_gt_cold_at_tstar)}",
            f"cold_ge_eq_at_t_star = {fmt(self.cold_ge_eq_at_tstar)}",
        ]
        if self.hierarchy is not None:
            lines.append(f"hierarchy_holds_after_t_star = {fmt(self.hierarchy.all_hold)}")
            lines.append(
                f"hierarchy_first_violation_time = {fmt(self.hierarchy.first_violation_time)}"
            )
        if self.lemma1 is not None:
            lines.append(f"lemma1_fast_slack = {fmt(self.lemma1.fast_slack)}")
            lines.append(f"lemma1_remainder_slack = {fmt(self.lemma1.remainder_slack)}")
        if self.lemma2 is not None:
            lines.append(f"lemma2_triangle_slack = {fmt(self.lemma2.triangle_slack)}")
            lines.append(f"lemma2_amp_bound_slack = {fmt(self.lemma2.amp_bound_slack)}")
        if self.constants is not None:
            for f in fields(self.constants):
                lines.append(f"constant_{f.name} = {fmt(getattr(self.constants, f.name))}")
        lines.append(f"gap_bound = {fmt(self.gap_bound)}")
        lines.append(f"gap_bound_positive = {fmt(self.gap_bound_positive)}")
        lines.append(f"gap_bound_valid = {fmt(self.gap_bound_valid)}")
        lines.append(f"residual_ratio = {fmt(self.residual_ratio)}")
        return "\n".join(lines) + "\n"


def verify_theorem(
    pair: ProbePair,
    t_grid: Sequence[float] | np.ndarray | None = None,
    delta_tol: float = 0.0,
) -> TheoremCertificate:
    """Run detection, certify the bounding steps, and report the FI orderings.

    Detection runs in the pair's own norm.  With no inversion on the grid the
    result is a not-applicable record (the claim is vacuous), not an error, and
    the Fisher hierarchy is not checked.  Both models get the same case split and
    the Fisher comparisons at t*: case A when the hot preparation loads the
    slow mode, with kappa0 = |dT lambda_2,hot| - |dT lambda_2,cold| from the
    pair's ``d_slow_rates`` (exactly 0 for a ladder, whose preparations share
    one generator).  Pairs that carry a spectral decomposition also get the
    lemma certificates and the metric gap bound at t*.  ``gap_bound_valid``
    reports whether a positive claimed bound is actually below the directly
    computed F_hot - F_cold; it is None when the bound is non-positive
    (nothing certified).
    """
    grid = pair.default_time_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    record = pair.detect(delta_tol=delta_tol, times=grid)
    f_eq = pair.equilibrium_fisher()
    if not record.detected:
        return TheoremCertificate(applicable=False, kind=pair.kind, inversion=record, f_eq=f_eq)

    t_star = record.t_star
    f_hot = pair.hot_fisher(t_star)
    f_cold = pair.cold_fisher(t_star)
    if abs(pair.slow_amplitude) < 1e-10:
        case, kappa0 = "B", None
    else:
        d_rate_hot, d_rate_cold = pair.d_slow_rates
        case, kappa0 = "A", abs(d_rate_hot) - abs(d_rate_cold)
    certificate = TheoremCertificate(
        applicable=True,
        kind=pair.kind,
        inversion=record,
        f_eq=f_eq,
        case=case,
        kappa0=kappa0,
        f_hot_tstar=f_hot,
        f_cold_tstar=f_cold,
        hot_gt_cold_at_tstar=bool(f_hot > f_cold),
        cold_ge_eq_at_tstar=bool(f_cold >= f_eq),
        hierarchy=theorem_hierarchy_check(pair, t_star, grid),
    )
    if pair.decomposition is None:
        return certificate

    dec, der, amps_hot = pair.decomposition, pair.derivatives, pair.amps_hot
    sample_times = grid[:: max(1, grid.size // 64)]
    cloud = np.vstack(
        [
            pair.hot_population(sample_times),
            pair.cold_population(sample_times),
            pair.equilibrium[None, :],
        ]
    )
    constants = compute_lemma_constants(dec, der, amps_hot, t_star, cloud)
    lemma1 = lemma1_remainder_check(dec, amps_hot, der, t_star)
    lemma2 = lemma2_slow_mode(dec, amps_hot, der, t_star)
    s_hot, r_hot = slow_mode_split(dec, amps_hot, der, t_star)
    s_cold, r_cold = slow_mode_split(dec, pair.amps_cold, der, t_star)
    v2 = dec.right_modes[:, 1]
    bound = lemma3_fi_gap_bound(s_hot, s_cold, r_hot, r_cold, v2, constants.m_low)
    positive = bool(bound > 0)
    slow_scale = abs(s_hot - s_cold) * float(np.linalg.norm(v2))
    residual_scale = float(np.linalg.norm(r_hot - r_cold))
    return replace(
        certificate,
        lemma1=lemma1,
        lemma2=lemma2,
        constants=constants,
        gap_bound=bound,
        gap_bound_positive=positive,
        gap_bound_valid=bool(bound <= (f_hot - f_cold) + 1e-12) if positive else None,
        residual_ratio=residual_scale / slow_scale if slow_scale > 0 else math.inf,
    )
