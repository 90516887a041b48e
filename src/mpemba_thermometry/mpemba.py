"""Detection of anomalous-relaxation (Mpemba) inversions and their FI payoff.

An inversion is the event that the initially-farther ("hot") trajectory gets
closer to equilibrium than the initially-nearer ("cold") one and stays there:
D_hot(t) < D_cold(t) - delta for a distance D and tolerance delta.  The
crossing time t* is the operationally interesting instant — after it, the hot
preparation is the better thermometer in the sense quantified by the Fisher
information comparisons elsewhere in the package.

The three distances (|p - p_eq| for scalar states, euclidean and total
variation for population vectors) are written once, in
:func:`distance_series`; :func:`thermal_distance` is its one-row case.  Every
caller names the norm, as a pair names its own; none is inferred from the states.
:func:`detect_inversion` takes both trajectories as callables of time: one
call each on the whole grid, then float calls while bisecting the bracketing
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import check_grid, check_non_negative, check_times

__all__ = [
    "TrajectoryOrderingError",
    "InversionRecord",
    "HierarchyReport",
    "thermal_distance",
    "distance_series",
    "detect_inversion",
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

    def to_lines(self) -> list[str]:
        """The ``key = value`` lines of the ``relax`` trailer and the theorem certificate."""
        flags = {None: "none", True: "true", False: "false"}
        return [
            f"inversion_detected = {flags[self.detected]}",
            f"t_star = {'none' if self.t_star is None else format(self.t_star, '.17g')}",
            f"delta_tol = {format(self.delta_tol, '.17g')}",
            f"norm_kind = {self.norm_kind}",
            f"persistent = {flags[self.persistent]}",
        ]


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


def _check_norm(values: np.ndarray, norm_kind: str) -> None:
    """Reject a norm that is unknown or does not fit ``values``: scalar_abs fits a
    1-D series of scalar states, euclidean and total_variation 2-D population rows."""
    if norm_kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm_kind {norm_kind!r}; expected one of {_NORM_KINDS}")
    vector = values.ndim == 2
    if (norm_kind == "scalar_abs") == vector:
        states = "population vectors" if vector else "scalar states"
        raise ValueError(f"norm_kind {norm_kind!r} does not fit {states}")


def distance_series(values, equilibrium, norm_kind: str) -> np.ndarray:
    """Distance from equilibrium at each time: the one place the distances live.

    ``values`` is a series of scalar states (``scalar_abs``: |p - p_eq| each) or of
    stacked population rows (the ``euclidean`` or ``total_variation`` norm of each).
    """
    arr = np.asarray(values, dtype=float)
    _check_norm(arr, norm_kind)
    if norm_kind == "scalar_abs":
        return np.abs(arr - float(equilibrium))
    diff = arr - np.asarray(equilibrium, dtype=float)[None, :]
    if norm_kind == "euclidean":
        return np.linalg.norm(diff, axis=1)
    return 0.5 * np.abs(diff).sum(axis=1)


def thermal_distance(state, equilibrium, norm_kind: str) -> float:
    """Distance of one state from equilibrium: the one-row :func:`distance_series`."""
    return float(distance_series(np.asarray(state, dtype=float)[None], equilibrium, norm_kind)[0])


def detect_inversion(
    hot: Callable,
    cold: Callable,
    equilibrium,
    times: Sequence[float] | np.ndarray,
    delta_tol: float = 0.0,
    *,
    norm_kind: str,
) -> InversionRecord:
    """Scan for the first time D_hot < D_cold - delta_tol on a grid, in ``norm_kind``.

    ``times`` passes the grid and time rules of :mod:`.grids`, ``delta_tol`` the
    non-negative rule (NaN raises).  ``hot`` and ``cold`` map the whole grid, once, to
    one state per time (a scalar or a population row); the crossing is then bisected
    to 1e-9 in t with float calls on the bracketing interval only.
    Requires D_hot(0) >= D_cold(0): the labels encode the initial ordering.
    """
    check_non_negative("delta_tol", delta_tol)
    times = check_times(check_grid(times, "times", 2))

    hot_values = np.asarray(hot(times), dtype=float)
    cold_values = np.asarray(cold(times), dtype=float)
    if hot_values.shape[0] != times.size or cold_values.shape[0] != times.size:
        raise ValueError("trajectory length does not match the time grid")
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


def qfi_gain(fisher_hot, fisher_reference):
    """log10(F_hot / F_ref); -inf where F_hot is 0.  Requires F_ref > 0, F_hot >= 0, not NaN."""
    hot = np.asarray(fisher_hot, dtype=float)
    ref = np.asarray(fisher_reference, dtype=float)
    if not np.all(ref > 0):  # NaN included
        raise ValueError("reference Fisher information must be strictly positive")
    if not np.all(hot >= 0):
        raise ValueError("Fisher information must be non-negative")
    with np.errstate(divide="ignore"):
        out = np.log10(hot) - np.log10(ref)
    return float(out) if out.ndim == 0 else out


def theorem_hierarchy_check(
    instance,
    t_star: float,
    t_grid: Sequence[float] | np.ndarray,
) -> HierarchyReport:
    """Check F_hot(t) > F_cold(t) >= F_eq pointwise for t >= t_star.

    ``instance`` provides hot_fisher(t), cold_fisher(t), equilibrium_fisher().  A float
    ``t_star`` and ``t_grid`` follow :func:`.grids.check_times`; hot_fisher and cold_fisher
    are each called once, on the whole array of times, and return one value per time.
    """
    if np.ndim(t_star) != 0:
        raise ValueError(f"t_star must be a float, got shape {np.shape(t_star)}")
    t_star = float(check_times(t_star))
    grid = check_times(t_grid)
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
