"""Detection of anomalous-relaxation (Mpemba) inversions and their FI payoff.

An inversion is the event that the initially-farther ("hot") trajectory gets
closer to equilibrium than the initially-nearer ("cold") one and stays there:
D_hot(t) < D_cold(t) - delta for a distance D and tolerance delta.  The
crossing time t* is the operationally interesting instant — after it, the hot
preparation is the better thermometer in the sense quantified by the Fisher
information comparisons elsewhere in the package.

The three distances (|p - p_eq| for scalar states, euclidean and total
variation for population vectors) are written once, in
:func:`distance_series`; :func:`thermal_distance` is its one-row case.
:func:`detect_inversion` takes both trajectories as callables of time: one
call each on the whole grid, then float calls while bisecting the bracketing
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qubit import QubitBathParams, effective_rate, thermal_quantities

__all__ = [
    "TrajectoryOrderingError",
    "InversionRecord",
    "HierarchyReport",
    "thermal_distance",
    "distance_series",
    "detect_inversion",
    "crossover_time_bound",
    "qfi_gain",
    "theorem_hierarchy_check",
]

_NORM_KINDS = ("scalar_abs", "euclidean", "total_variation")


class TrajectoryOrderingError(ValueError):
    """The 'hot' trajectory did not start farther from equilibrium."""


@dataclass(frozen=True)
class InversionRecord:
    """Outcome of an inversion scan.

    ``t_star`` is None when no inversion occurred; ``persistent`` records
    whether the inverted ordering held for every later grid point (None when
    there was nothing to check).
    """

    t_star: float | None
    delta_tol: float
    norm_kind: str
    persistent: bool | None

    @property
    def detected(self) -> bool:
        return self.t_star is not None


@dataclass(frozen=True)
class HierarchyReport:
    """Pointwise Fisher-information ordering after the crossover."""

    times: np.ndarray
    hot_gt_cold: np.ndarray
    cold_ge_eq: np.ndarray
    first_violation_time: float | None

    @property
    def all_hold(self) -> bool:
        return bool(np.all(self.hot_gt_cold) and np.all(self.cold_ge_eq))


def _norm_for(values: np.ndarray, norm_kind: str | None) -> str:
    """Which distance fits: scalar_abs for a 1-D series of scalar states, a
    vector norm (euclidean unless given) for 2-D population rows."""
    vector = values.ndim == 2
    if norm_kind is None:
        return "euclidean" if vector else "scalar_abs"
    if norm_kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm_kind {norm_kind!r}; expected one of {_NORM_KINDS}")
    if (norm_kind == "scalar_abs") == vector:
        states = "population vectors" if vector else "scalar states"
        raise ValueError(f"norm_kind {norm_kind!r} does not fit {states}")
    return norm_kind


def distance_series(values, equilibrium, norm_kind: str | None = None) -> np.ndarray:
    """Distance from equilibrium at each time: the one place the distances live.

    ``values`` is a series of scalar states (|p - p_eq| each) or of stacked
    population rows (the euclidean or total-variation norm of each row).
    """
    arr = np.asarray(values, dtype=float)
    norm_kind = _norm_for(arr, norm_kind)
    if norm_kind == "scalar_abs":
        return np.abs(arr - float(equilibrium))
    diff = arr - np.asarray(equilibrium, dtype=float)[None, :]
    if norm_kind == "euclidean":
        return np.linalg.norm(diff, axis=1)
    return 0.5 * np.abs(diff).sum(axis=1)


def thermal_distance(state, equilibrium, norm_kind: str | None = None) -> float:
    """Distance of one state from equilibrium: the one-row :func:`distance_series`."""
    return float(distance_series(np.asarray(state, dtype=float)[None], equilibrium, norm_kind)[0])


def detect_inversion(
    hot: Callable,
    cold: Callable,
    equilibrium,
    times: Sequence[float] | np.ndarray,
    delta_tol: float = 0.0,
    norm_kind: str | None = None,
) -> InversionRecord:
    """Scan for the first time D_hot < D_cold - delta_tol on a grid.

    ``hot`` and ``cold`` map times to states.  Each receives the whole grid
    once and returns one state per time (a scalar or a population row); the
    grid crossing is then refined by bisection to 1e-9 in t, calling each with
    a float t on the bracketing interval only.  Requires D_hot(0) >= D_cold(0):
    the labels encode the initial ordering.
    """
    if delta_tol < 0:
        raise ValueError(f"delta_tol must be non-negative, got {delta_tol}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("times must contain at least two points")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")

    hot_values = np.asarray(hot(times), dtype=float)
    cold_values = np.asarray(cold(times), dtype=float)
    if hot_values.shape[0] != times.size or cold_values.shape[0] != times.size:
        raise ValueError("trajectory length does not match the time grid")
    norm_kind = _norm_for(hot_values, norm_kind)
    d_hot = distance_series(hot_values, equilibrium, norm_kind)
    d_cold = distance_series(cold_values, equilibrium, norm_kind)

    if d_hot[0] < d_cold[0]:
        raise TrajectoryOrderingError(
            f"hot trajectory starts nearer equilibrium ({d_hot[0]:.6g} < {d_cold[0]:.6g}); "
            "swap the labels"
        )

    inverted = d_hot < d_cold - delta_tol
    hits = np.flatnonzero(inverted)
    if hits.size == 0:
        return InversionRecord(
            t_star=None, delta_tol=delta_tol, norm_kind=norm_kind, persistent=None
        )
    first = int(hits[0])
    persistent = bool(np.all(inverted[first:]))

    t_star = float(times[first])
    if first > 0:

        def gap(t: float) -> float:
            d_cold_t, d_hot_t = distance_series([cold(t), hot(t)], equilibrium, norm_kind)
            return d_cold_t - d_hot_t - delta_tol

        lo, hi = float(times[first - 1]), float(times[first])
        if gap(lo) >= 0.0:
            # already inverted at the previous grid point to within delta;
            # keep the grid answer rather than bisecting a non-bracketing pair
            t_star = lo
        else:
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                if gap(mid) < 0.0:
                    lo = mid  # not yet inverted at mid; crossing lies later
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
    return InversionRecord(
        t_star=t_star, delta_tol=delta_tol, norm_kind=norm_kind, persistent=persistent
    )


def crossover_time_bound(
    params: QubitBathParams, p0_hot: float, p0_cold: float
) -> float | None:
    """Exact two-level crossing time, or None when the orderings never swap.

    t* = ln((p0_hot - p_eq)/(p0_cold - p_eq)) / (Gamma_hot - Gamma_cold) for
    preparations above equilibrium with Gamma_hot > Gamma_cold.  Identical
    preparations cross immediately (0.0).
    """
    q = thermal_quantities(params)
    if not (p0_hot >= p0_cold > q.p_eq):
        raise ValueError(
            f"need p0_hot >= p0_cold > p_eq, got ({p0_hot}, {p0_cold}) with "
            f"p_eq={q.p_eq:.6g}"
        )
    if p0_hot == p0_cold:
        return 0.0
    rate_hot = effective_rate(params, p0_hot)
    rate_cold = effective_rate(params, p0_cold)
    if rate_hot <= rate_cold:
        return None
    return math.log((p0_hot - q.p_eq) / (p0_cold - q.p_eq)) / (rate_hot - rate_cold)


def qfi_gain(fisher_hot, fisher_reference):
    """log10(F_hot / F_ref); -inf where F_hot vanishes.  Requires F_ref > 0."""
    hot = np.asarray(fisher_hot, dtype=float)
    ref = np.asarray(fisher_reference, dtype=float)
    if np.any(ref <= 0):
        raise ValueError("reference Fisher information must be strictly positive")
    if np.any(hot < 0):
        raise ValueError("Fisher information cannot be negative")
    with np.errstate(divide="ignore"):
        out = np.log10(hot) - np.log10(ref)
    return float(out) if out.ndim == 0 else out


def theorem_hierarchy_check(
    instance,
    t_star: float,
    t_grid: Sequence[float] | np.ndarray,
) -> HierarchyReport:
    """Check F_hot(t) > F_cold(t) >= F_eq pointwise for t >= t_star.

    ``instance`` provides hot_fisher(t), cold_fisher(t), equilibrium_fisher().
    Each of hot_fisher and cold_fisher is called once, with the whole array of
    checked times, and returns one value per time.
    """
    grid = np.asarray(t_grid, dtype=float)
    after = grid[grid >= t_star]
    if after.size == 0 or after[0] > t_star:
        after = np.concatenate(([t_star], after))
    f_hot = np.asarray(instance.hot_fisher(after))
    f_cold = np.asarray(instance.cold_fisher(after))
    f_eq = instance.equilibrium_fisher()
    hot_gt_cold = f_hot > f_cold
    cold_ge_eq = f_cold >= f_eq
    holds = hot_gt_cold & cold_ge_eq
    violations = np.flatnonzero(~holds)
    first_violation = float(after[violations[0]]) if violations.size else None
    return HierarchyReport(
        times=after,
        hot_gt_cold=hot_gt_cold,
        cold_ge_eq=cold_ge_eq,
        first_violation_time=first_violation,
    )
