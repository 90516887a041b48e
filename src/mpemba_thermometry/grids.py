"""The package's three families of input rules: times ``t``, scan grids, scalar parameters.

Each rule rejects NaN and owns its message.  It imports nothing from the
package, so every module can import it.
"""

import math

import numpy as np

__all__ = ["check_times", "check_grid", "check_positive", "check_non_negative", "check_probability"]


def check_times(t) -> np.ndarray:
    """``t`` as a float array, 0-d for a float; negative and non-finite times rejected."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {times.shape}")
    if times.size:
        # min and max propagate NaN, so one pair of reductions sees every bad
        # entry; a float is its own min and max, without the reductions' cost
        if times.ndim:
            low, high = float(times.min()), float(times.max())
        else:
            low = high = float(times)
        if low < 0:
            raise ValueError(f"t must be non-negative, got {low}")
        if not high < math.inf:
            raise ValueError(f"t must be finite, got {high}")
    return times


def check_grid(values, name: str, min_points: int) -> np.ndarray:
    """``values`` as a 1-D float array of at least ``min_points`` strictly increasing entries."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < min_points:
        raise ValueError(f"{name} must be 1-D with at least {min_points} points, got {grid.shape}")
    if not np.all(np.diff(grid) > 0):  # a NaN compares false, so it fails here too
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def check_positive(name: str, value: float) -> None:
    """Reject ``value`` unless it is > 0; NaN is rejected."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_non_negative(name: str, value: float) -> None:
    """Reject ``value`` unless it is >= 0 (-0.0 passes); NaN is rejected."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def check_probability(name: str, value: float) -> None:
    """Reject ``value`` unless it lies in [0, 1]; NaN is rejected."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
