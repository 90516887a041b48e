"""Independent numerical back-ends: fixed-step RK4 and central finite differences.

Everything in this module deliberately avoids the closed forms implemented in
the rest of the package, so that agreement between an analytic result and its
oracle value is evidence rather than tautology.  Keep it that way: no imports
from the model modules, no exponential-decay shortcuts on the solution side.

These routines serve the test suite, explicit cross-checks and the
finite-difference spectrum oracle in :mod:`.spectral`; no model result uses them.
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

# Matrix mode buffers the states of up to this many steps and checks them in
# one pair of reductions; the cap keeps the buffer small however long a
# checkpoint gap is.
_BLOCK_STEPS = 4096


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
    truncation error via Richardson comparison of the h and h/2 stencils;
    ``richardson`` is the fourth-order extrapolant (4 D_{h/2} - D_h)/3.
    """

    value: float | np.ndarray
    error_estimate: float
    richardson: float | np.ndarray


def _rk4_step_scalar(f: Callable[[float, float], float], t: float, y: float, h: float) -> float:
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_propagator(generator: np.ndarray, h: float) -> np.ndarray:
    # For the linear system dp/dt = R p a fixed RK4 step is algebraically the
    # degree-4 Taylor polynomial of expm(hR); building it once per segment
    # keeps long sweeps cheap without changing the method.
    n = generator.shape[0]
    hr = h * generator
    p = np.eye(n) + hr
    term = hr
    for k in (2, 3, 4):
        term = term @ hr / k
        p = p + term
    return p


def _check_physical(states: np.ndarray, t0: float, h: float) -> None:
    # Row k of ``states`` is the state at time t0 + k h; the first row that
    # is not inside the physical region (NaN included) is the one reported.
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
    clamp_negative: bool = False,
) -> Trajectory:
    """March dp/dt = f(t, p) (or dp/dt = R p) with classical fixed-step RK4.

    ``times`` is the checkpoint grid; each consecutive gap is covered with
    ``round(gap / dt)`` equal steps (at least one), so the effective step never
    exceeds ~dt.  ``system`` is either a scalar right-hand side ``f(t, p)`` or
    a constant generator matrix.  A state component escaping [0, 1] by more
    than 1e-6, or turning NaN, raises :class:`IntegrationUnstableError`; with
    ``clamp_negative=True`` small negative entries are clamped to 0 in the
    *recorded* states (the marching state is left untouched).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")

    matrix_mode = isinstance(system, np.ndarray)
    if matrix_mode:
        y = np.array(initial_state, dtype=float)
        if y.shape != (system.shape[0],):
            raise ValueError(
                f"initial state shape {y.shape} does not match generator "
                f"dimension {system.shape[0]}"
            )
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
            prop = _rk4_propagator(system, h)
            block = np.empty((min(n_steps, _BLOCK_STEPS), y.size))
            for first in range(0, n_steps, len(block)):
                rows = block[: n_steps - first]
                # an unstable march may overflow in the steps after its first
                # bad one; the block check below reports that first step
                with np.errstate(over="ignore", invalid="ignore"):
                    for k in range(len(rows)):
                        y = prop @ y
                        rows[k] = y
                _check_physical(rows, t + (first + 1) * h, h)
        else:
            for k in range(n_steps):
                y = _rk4_step_scalar(system, t + k * h, y, h)
            _check_physical(np.reshape(y, (1, -1)), target, 0.0)
        t = target
        records.append(np.array(y, copy=True) if matrix_mode else y)

    states = np.array(records)
    if clamp_negative:
        states = np.where(states < 0.0, 0.0, states)
    return Trajectory(times=times, states=states)


def finite_difference_dT(
    f: Callable[[float], float | np.ndarray],
    temperature: float,
    h: float | None = None,
) -> DerivativeEstimate:
    """Central difference of ``f`` at ``temperature`` with step halving.

    The default step is 1e-5 * temperature.  Evaluation failures inside ``f``
    propagate unchanged.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if h is None:
        h = 1e-5 * temperature
    if h <= 0 or h >= temperature:
        raise ValueError(f"step h={h} must lie in (0, temperature)")

    def central(step: float):
        hi = np.asarray(f(temperature + step), dtype=float)
        lo = np.asarray(f(temperature - step), dtype=float)
        return (hi - lo) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(0.5 * h)
    err = (4.0 / 3.0) * float(np.max(np.abs(d_h - d_h2)))
    rich = (4.0 * d_h2 - d_h) / 3.0
    if d_h2.ndim == 0:
        return DerivativeEstimate(value=float(d_h2), error_estimate=err, richardson=float(rich))
    return DerivativeEstimate(value=d_h2, error_estimate=err, richardson=rich)
