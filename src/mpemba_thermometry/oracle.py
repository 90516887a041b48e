"""Independent numerical back-ends: fixed-step RK4 and central finite differences.

Everything in this module deliberately avoids the closed forms implemented in
the rest of the package, so that agreement between an analytic result and its
oracle value is evidence rather than tautology.  Keep it that way: no imports
from the model modules, no exponential-decay shortcuts on the solution side.

These routines serve the test suite and explicit cross-checks; no module of
the package imports them, and no model result uses them.

With a constant generator R, one RK4 step of size h is y -> P y with
P = I + a and a = hR + (hR)^2/2 + (hR)^3/6 + (hR)^4/24, so the state after
k + 1 steps of a segment is y + d[k] y with d[k] = P^(k+1) - I.  Matrix mode
builds that increment table by doubling (the parallel-prefix form of a linear
recurrence) and still computes and checks every step's state.  The table
holds P^k - I rather than P^k: a product of powers of P carries rounding of
order 1 in each factor, so squaring P^k doubles its error at every level,
while the increments carry rounding of order |P^k - I| and the identity is
added back exactly once, when the state is formed.  The table depends only on
its step h and its length, so within one call every segment with a bit-equal
h and the same length reuses it; and since nearly every block is physical,
each block is first checked as a whole with one min/max pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "IntegrationUnstableError",
    "Trajectory",
    "DerivativeEstimate",
    "integrate_rate_equation",
    "finite_difference_dT",
]

# A population coordinate may legitimately sit on 0 or 1 and wobble by a few
# ulp; anything beyond this margin means the integrator has genuinely left the
# physical region.
_POPULATION_MARGIN = 1e-6

# Matrix mode's increment table holds at most this many floats (4096 rows of a
# 3-level generator), so a long checkpoint gap or a large generator never
# allocates more; each block of states is checked in one pair of reductions.
_BLOCK_FLOATS = 4096 * 9

# One call keeps at most this many increment tables for reuse by later
# segments, so the cache never holds more than _TABLES_KEPT * _BLOCK_FLOATS.
_TABLES_KEPT = 8


class IntegrationUnstableError(RuntimeError):
    """A state component left [0 - margin, 1 + margin], or became NaN, during integration."""


@dataclass(frozen=True)
class Trajectory:
    """States recorded on the requested checkpoint grid.

    ``states`` has one row per checkpoint for vector systems, and is a flat
    array of the same length as ``times`` for scalar systems.
    """

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class DerivativeEstimate:
    """Central-difference derivative with a two-step error estimate.

    ``value`` is the half-step estimate D_{h/2}; ``error_estimate`` bounds its
    truncation error via Richardson comparison of the h and h/2 stencils.
    """

    value: float | np.ndarray
    error_estimate: float


def _rk4_step_scalar(f: Callable[[float, float], float], t: float, y: float, h: float) -> float:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_propagator(generator: np.ndarray, h: float) -> np.ndarray:
    # For the linear system dp/dt = R p a fixed RK4 step is algebraically the
    # degree-4 Taylor polynomial of expm(hR).  This returns its increment
    # a = P - I: the identity is never added, so the table built from it keeps
    # rounding relative to |P^k - I| rather than to 1.
    hr = h * generator
    a = hr
    term = hr
    for k in (2, 3, 4):
        term = term @ hr / k
        a = a + term
    return a


def _increment_table(increment: np.ndarray, m: int) -> np.ndarray:
    # d[k] = P^(k+1) - I for k < m, with P = I + increment.  Doubling uses
    # P^(j+1) P^k = I + d[j] + d[k-1] + d[j] d[k-1]: ceil(log2 m) batched
    # products instead of m sequential ones.
    n = increment.shape[0]
    d = np.empty((m, n, n))
    d[0] = increment
    k = 1
    while k < m:
        r = min(k, m - k)
        np.add(d[:r], d[k - 1], out=d[k : k + r])
        d[k : k + r] += d[:r] @ d[k - 1]
        k += r
    return d


def _check_physical(states: np.ndarray, t0: float, h: float) -> None:
    # Row k of ``states`` is the state at time t0 + k h; the first row that
    # is not inside the physical region (NaN included) is the one reported.
    # A NaN anywhere makes the whole-block min NaN, so it takes the row scan.
    if states.min() >= -_POPULATION_MARGIN and states.max() <= 1.0 + _POPULATION_MARGIN:
        return
    lo = states.min(axis=1)
    hi = states.max(axis=1)
    bad = np.flatnonzero(~((lo >= -_POPULATION_MARGIN) & (hi <= 1.0 + _POPULATION_MARGIN)))
    if bad.size:
        k = bad[0]
        raise IntegrationUnstableError(
            f"state left the physical region at t={t0 + k * h:.6g}: "
            f"min={lo[k]:.6g}, max={hi[k]:.6g}"
        )


def integrate_rate_equation(
    system: Callable[[float, float], float] | np.ndarray,
    initial_state: float | np.ndarray,
    times: np.ndarray,
    dt: float = 1e-4,
) -> Trajectory:
    """March dp/dt = f(t, p) (or dp/dt = R p) with classical fixed-step RK4.

    ``times`` is the checkpoint grid; each consecutive gap is covered with
    ``round(gap / dt)`` equal steps (at least one), so the effective step never
    exceeds ~dt.  ``system`` is either a scalar right-hand side ``f(t, p)`` or
    a constant generator matrix.  A state component escaping [0, 1] by more
    than 1e-6, or turning NaN, raises :class:`IntegrationUnstableError`.

    Matrix mode marches each segment from a table of P^k - I (see the module
    docstring), built once per distinct (step, length) within the call and
    reused by every segment that matches it bit for bit; scalar mode steps
    sequentially.  Either way every step's state is checked (a block at a
    time in matrix mode), and the error names the first failing step.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be positive and finite, got {dt}")

    matrix_mode = isinstance(system, np.ndarray)
    if matrix_mode:
        y = np.array(initial_state, dtype=float)
        if y.shape != (system.shape[0],):
            raise ValueError(
                f"initial state shape {y.shape} does not match generator "
                f"dimension {system.shape[0]}"
            )
        n = y.size
        table_rows = max(1, _BLOCK_FLOATS // n**2)
        tables = {}
    else:
        y = float(initial_state)

    records = []
    t = times[0]
    _check_physical(np.reshape(y, (1, -1)), t, 0.0)
    records.append(np.array(y, copy=True) if matrix_mode else y)

    for target in times[1:]:
        gap = target - t
        n_steps = max(1, int(round(gap / dt)))
        h = gap / n_steps
        if matrix_mode:
            # an unstable march may overflow in the steps after its first bad
            # one; the block check reports that first step
            with np.errstate(over="ignore", invalid="ignore"):
                key = (min(n_steps, table_rows), h)
                table = tables.get(key)
                if table is None:
                    if len(tables) == _TABLES_KEPT:
                        tables.clear()
                    table = tables[key] = _increment_table(_rk4_propagator(system, h), key[0])
                for first in range(0, n_steps, table_rows):
                    r = min(table_rows, n_steps - first)
                    rows = (table[:r].reshape(r * n, n) @ y).reshape(r, n)
                    rows += y
                    _check_physical(rows, t + (first + 1) * h, h)
                    y = rows[-1]
        else:
            for k in range(n_steps):
                y = _rk4_step_scalar(system, t + k * h, y, h)
            _check_physical(np.reshape(y, (1, -1)), target, 0.0)
        t = target
        records.append(np.array(y, copy=True) if matrix_mode else y)

    return Trajectory(times=times, states=np.array(records))


def finite_difference_dT(
    f: Callable[[float], float | np.ndarray],
    temperature: float,
    h: float | None = None,
) -> DerivativeEstimate:
    """Central difference of ``f`` at ``temperature`` with step halving.

    The default step is 1e-5 * temperature.  A temperature that is not positive
    and finite, or a step that is not finite or outside (0, temperature),
    raises ``ValueError``.  Evaluation failures inside ``f`` propagate
    unchanged.
    """
    if not np.isfinite(temperature) or temperature <= 0:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if h is None:
        h = 1e-5 * temperature
    if not np.isfinite(h):
        raise ValueError(f"step h must be finite, got {h}")
    if h <= 0 or h >= temperature:
        raise ValueError(f"step h={h} must lie in (0, temperature)")

    def central(step: float):
        hi = np.asarray(f(temperature + step), dtype=float)
        lo = np.asarray(f(temperature - step), dtype=float)
        return (hi - lo) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(0.5 * h)
    err = (4.0 / 3.0) * float(np.max(np.abs(d_h - d_h2)))
    return DerivativeEstimate(value=float(d_h2) if d_h2.ndim == 0 else d_h2, error_estimate=err)
