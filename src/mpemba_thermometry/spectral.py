"""Detailed-balance rate matrices and their biorthonormal spectral calculus.

A classical generator R(T) (columns summing to zero, non-negative off-diagonal
entries, detailed balance against the Gibbs vector pi) is diagonalized through
the similarity transform S = diag(pi)^{-1/2} R diag(pi)^{1/2}, which detailed
balance makes symmetric.  The spectrum is therefore real and is reported as
decay rates 0 = lambda_1 < lambda_2 <= ... (R v_k = -lambda_k v_k), with
left/right pairs (w_k, v_k) biorthonormal: w_j . v_k = delta_jk.

Canonical gauge of a decomposition snapshot: v_1 = pi (summing to one) with
w_1 = (1, ..., 1); every decaying mode has unit-norm v_k whose first
appreciable component is positive, and w_k rescaled to keep w_k . v_k = 1.

Temperature derivatives use first-order perturbation theory in the
constant-overlap gauge (w_k . dT v_k = 0 and dT w_k . v_k = 0):

    dT lambda_k = - w_k . (dT R) v_k
    dT v_k      = sum_{j != k} [w_j . (dT R) v_k / (lambda_j - lambda_k)] v_j
    dT w_k      = sum_{j != k} [w_k . (dT R) v_j / (lambda_j - lambda_k)] w_j

(The k = 1 row of the second formula reproduces dT pi, which is forced by
R pi = 0 and serves as an internal consistency check.)  With the overlap
matrix O[j, k] = w_j . (dT R) v_k and the gap matrix G[j, k] =
1 / (lambda_j - lambda_k) (zero on the diagonal) the two sums are the matrix
products W (G * O) and V (G * O^T).

dT R itself is exact: the generator builders write it next to R from the
closed-form dT nbar of :mod:`.bath`, which also gives pi and dT pi.  Finite
differences appear only in :func:`finite_difference_spectrum`, the oracle the
perturbation route is checked against.  The modal sums take ``t`` by
:func:`.grids.check_times`: a float gives one vector, a 1-D array one row per time.

A note on the three-level ladder in its symmetric configuration (degenerate
lower doublet, equal couplings kappa): direct diagonalization gives nonzero
decay rates kappa * nbar and kappa * (3 nbar + 2).  Closed forms
kappa (2 nbar + 1) and kappa (3 nbar + 1) that circulate for this model do not
solve the stated generator, so this module never substitutes a quoted formula
for the numerical spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bath import bose_occupation, dT_bose, dT_gibbs_vector, gibbs_vector
from .grids import check_positive, check_times

__all__ = [
    "RateMatrixError",
    "DegenerateSpectrumError",
    "AmbiguousTrackingError",
    "SimplexError",
    "RateMatrix",
    "SpectralDecomposition",
    "SpectralDerivatives",
    "ModalAmplitudes",
    "build_qubit_rate_matrix",
    "build_lambda_rate_matrix",
    "validate_rate_matrix",
    "decompose",
    "project_initial",
    "modal_trajectory",
    "temperature_derivatives",
    "amplitudes_with_derivatives",
    "dT_populations_modal",
    "finite_difference_spectrum",
]

_GAP_FLOOR = 1e-9  # eigenvalue pairs closer than this are treated as degenerate


class RateMatrixError(ValueError):
    """The matrix is not a detailed-balance generator to working tolerance."""


class DegenerateSpectrumError(RuntimeError):
    """Two decay rates coincide within the resolvable gap."""


class AmbiguousTrackingError(RuntimeError):
    """Mode identification between two decompositions is not clear-cut."""


class SimplexError(ValueError):
    """A population vector is not on the probability simplex."""


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator entries plus the physical data they were built from.

    ``d_entries`` is the exact dT R in the layout of ``entries``, and
    ``family`` maps a temperature to the same physical model's generator (the
    finite-difference oracle's input); both are None for matrices supplied
    without provenance.
    """

    entries: np.ndarray
    energies: np.ndarray
    temperature: float
    family: Callable[[float], "RateMatrix"] | None = field(default=None, repr=False)
    d_entries: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Decay rates (ascending, first exactly 0) with biorthonormal mode pairs.

    ``right_modes[:, k]`` is v_k and ``left_modes[:, k]`` is w_k in the
    canonical gauge described in the module docstring; ``stationary`` is pi.
    """

    eigenvalues: np.ndarray
    right_modes: np.ndarray
    left_modes: np.ndarray
    stationary: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDerivatives:
    """Temperature derivatives of a decomposition in the constant-overlap gauge."""

    d_rate_matrix: np.ndarray
    d_eigenvalues: np.ndarray
    d_right_modes: np.ndarray
    d_left_modes: np.ndarray
    d_stationary: np.ndarray


@dataclass(frozen=True, eq=False)
class ModalAmplitudes:
    """Mode coordinates a_k = w_k . (p0 - pi), optionally with dT a_k."""

    amplitudes: np.ndarray
    dT_amplitudes: np.ndarray | None = None


def build_qubit_rate_matrix(omega0: float, gamma: float, temperature: float) -> RateMatrix:
    """Two-level generator with raising rate gamma*nbar, lowering gamma*(nbar+1)."""

    def layout(n: float, one: float) -> np.ndarray:
        up = gamma * n
        down = gamma * (n + one)
        return np.array([[-up, down], [up, -down]])

    return RateMatrix(
        entries=layout(bose_occupation(omega0, temperature), 1.0),
        energies=np.array([0.0, omega0]),
        temperature=temperature,
        family=lambda t: build_qubit_rate_matrix(omega0, gamma, t),
        d_entries=layout(dT_bose(omega0, temperature), 0.0),
    )


def build_lambda_rate_matrix(
    e1: float,
    e2: float,
    e3: float,
    kappa1: float,
    kappa2: float,
    temperature: float,
) -> RateMatrix:
    """Three-level ladder: two low states (1, 2) each exchanging with the top (3).

    Excitation i -> 3 proceeds at kappa_i * nbar(e3 - e_i) and decay 3 -> i at
    kappa_i * (nbar(e3 - e_i) + 1); there is no direct 1 <-> 2 channel.  The
    column-sum-zero layout makes conservation exact by construction, for R
    and for dT R (nbar -> dT nbar, the "+1" dropped) alike.  A NaN level or kappa raises.
    """
    if not (e3 > e1 and e3 > e2):  # NaN included
        raise ValueError(f"top level must lie above both low levels, got ({e1}, {e2}, {e3})")
    check_positive("kappa1", kappa1)
    check_positive("kappa2", kappa2)

    def layout(n1: float, n2: float, one: float) -> np.ndarray:
        up1 = kappa1 * n1
        up2 = kappa2 * n2
        down1 = kappa1 * (n1 + one)
        down2 = kappa2 * (n2 + one)
        return np.array(
            [
                [-up1, 0.0, down1],
                [0.0, -up2, down2],
                [up1, up2, -(down1 + down2)],
            ]
        )

    return RateMatrix(
        entries=layout(
            bose_occupation(e3 - e1, temperature), bose_occupation(e3 - e2, temperature), 1.0
        ),
        energies=np.array([e1, e2, e3]),
        temperature=temperature,
        family=lambda t: build_lambda_rate_matrix(e1, e2, e3, kappa1, kappa2, t),
        d_entries=layout(dT_bose(e3 - e1, temperature), dT_bose(e3 - e2, temperature), 0.0),
    )


def validate_rate_matrix(rate_matrix: RateMatrix) -> np.ndarray:
    """Check finite entries (first: NaN fails no later comparison), column sums,
    off-diagonal signs, and detailed balance against pi; returns that pi."""
    r = rate_matrix.entries
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise RateMatrixError(f"entries must be square, got shape {r.shape}")
    n = r.shape[0]
    if not np.isfinite(r).all():
        i, j = np.argwhere(~np.isfinite(r))[0].tolist()
        raise RateMatrixError(f"rate matrix entry ({i}, {j}) is {r[i, j]}, not finite")
    scale = max(1.0, float(np.max(np.abs(r))))
    col_sums = np.abs(r.sum(axis=0))
    if col_sums.max() > 1e-12 * scale:
        raise RateMatrixError(f"column sums deviate from zero by {col_sums.max():.3g}")
    off = r - np.diag(np.diag(r))
    if off.min() < -1e-14 * scale:
        raise RateMatrixError(f"negative off-diagonal entry {off.min():.3g}")
    pi = gibbs_vector(rate_matrix.energies, rate_matrix.temperature)
    for i in range(n):
        for j in range(i + 1, n):
            flow_ij = r[i, j] * pi[j]
            flow_ji = r[j, i] * pi[i]
            ref = max(abs(flow_ij), abs(flow_ji))
            if ref > 0 and abs(flow_ij - flow_ji) > 1e-12 * ref:
                raise RateMatrixError(
                    f"detailed balance violated on pair ({i}, {j}): "
                    f"{flow_ij:.9g} vs {flow_ji:.9g}"
                )
    return pi


def decompose(rate_matrix: RateMatrix) -> SpectralDecomposition:
    """Diagonalize through the symmetrizing similarity transform.

    Raises :class:`RateMatrixError` if a stationary population underflows
    (the transform divides by sqrt(pi)) or if the transform fails to
    symmetrize the generator (the real-spectrum guarantee rests on it), and
    :class:`DegenerateSpectrumError` if two decay rates collide.
    """
    pi = validate_rate_matrix(rate_matrix)
    n = rate_matrix.dim
    empty = int(np.argmin(pi))
    if pi[empty] < np.finfo(float).tiny:
        raise RateMatrixError(
            f"stationary population of level {empty + 1} is {pi[empty]:.3g}, below the "
            "smallest normal float; the symmetrizing transform needs every level populated"
        )
    s = np.sqrt(pi)
    sym = rate_matrix.entries * (s[None, :] / s[:, None])
    asym = float(np.max(np.abs(sym - sym.T)))
    scale = max(1.0, float(np.max(np.abs(sym))))
    if asym > 1e-8 * scale:
        raise RateMatrixError(
            f"symmetrized generator is not symmetric (max asymmetry {asym:.3g}); "
            "the spectrum is not guaranteed real"
        )
    sym = 0.5 * (sym + sym.T)
    vals, phi = np.linalg.eigh(sym)
    # eigh returns ascending eigenvalues of sym = -decay rates; flip to get
    # decay rates ascending from 0.
    rates = -vals[::-1]
    phi = phi[:, ::-1]
    if abs(rates[0]) > _GAP_FLOOR:
        raise RateMatrixError(f"no stationary eigenvalue found (lambda_1 = {rates[0]:.3g})")
    rates = rates.copy()
    rates[0] = 0.0
    gaps = np.diff(rates)
    if np.any(gaps < _GAP_FLOOR):
        k = int(np.argmin(gaps))
        raise DegenerateSpectrumError(
            f"decay rates {k + 1} and {k + 2} coincide within {_GAP_FLOOR:.0e}: "
            f"{rates[k]:.12g} vs {rates[k + 1]:.12g}"
        )

    right = np.empty((n, n))
    left = np.empty((n, n))
    right[:, 0] = pi
    left[:, 0] = 1.0
    for k in range(1, n):
        v_raw = s * phi[:, k]
        norm = float(np.linalg.norm(v_raw))
        lead = np.flatnonzero(np.abs(v_raw) > 1e-10 * norm)[0]
        sign = 1.0 if v_raw[lead] > 0 else -1.0
        right[:, k] = v_raw * (sign / norm)
        left[:, k] = (phi[:, k] / s) * (norm / sign)

    residual = float(
        np.max(np.abs(rate_matrix.entries @ right + right * rates[None, :]))
    )
    if residual > 1e-9 * (1.0 + rates[-1]):
        raise RateMatrixError(f"eigenvector residual {residual:.3g} exceeds tolerance")
    gram = left.T @ right - np.eye(n)
    if float(np.max(np.abs(gram))) > 1e-9:
        raise RateMatrixError(
            f"biorthonormality defect {float(np.max(np.abs(gram))):.3g} exceeds tolerance"
        )
    return SpectralDecomposition(
        eigenvalues=rates, right_modes=right, left_modes=left, stationary=pi
    )


def _check_simplex(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if abs(float(p.sum()) - 1.0) > 1e-12:
        raise SimplexError(f"populations sum to {float(p.sum()):.15g}, not 1")
    if float(p.min()) < -1e-12:
        raise SimplexError(f"negative population {float(p.min()):.3g}")
    return p


def project_initial(decomposition: SpectralDecomposition, p0: np.ndarray) -> ModalAmplitudes:
    """Coordinates of p0 - pi on the decaying modes: a_k = w_k . (p0 - pi)."""
    p0 = _check_simplex(p0)
    delta = p0 - decomposition.stationary
    return ModalAmplitudes(amplitudes=decomposition.left_modes.T @ delta)


def modal_trajectory(
    decomposition: SpectralDecomposition, amplitudes: ModalAmplitudes, times: np.ndarray
) -> np.ndarray:
    """p(t) = pi + sum_{k >= 2} a_k exp(-lambda_k t) v_k, one row per time.

    ``times`` is a 1-D array (one row per time, none for an empty array) or a
    float (one vector, the one-row grid's row), checked by
    :func:`.grids.check_times`.  Populations negative within 1e-12 of zero are
    clamped to 0; larger negatives raise :class:`RateMatrixError`.
    """
    times = check_times(times)
    a = amplitudes.amplitudes[1:]
    decay = np.exp(-np.outer(times, decomposition.eigenvalues[1:]))
    traj = decomposition.stationary[None, :] + (decay * a[None, :]) @ decomposition.right_modes[:, 1:].T
    low = float(traj.min(initial=0.0))
    if low < -1e-12:
        raise RateMatrixError(f"modal populations went negative by {low:.3g}")
    traj = np.where(traj < 0.0, 0.0, traj)
    return traj if times.ndim else traj[0]


def temperature_derivatives(
    rate_matrix: RateMatrix, decomposition: SpectralDecomposition
) -> SpectralDerivatives:
    """All first-order temperature derivatives from the exact dT R.

    Raises :class:`DegenerateSpectrumError` when two decay rates lie closer
    than the gap floor, before any division by their gap.
    """
    d_r = rate_matrix.d_entries
    if d_r is None:
        raise ValueError("rate matrix carries no dT R (d_entries); cannot differentiate")
    lam = decomposition.eigenvalues
    gaps = lam[:, None] - lam[None, :]  # gaps[j, k] = lambda_j - lambda_k
    off = ~np.eye(decomposition.dim, dtype=bool)
    close = off & (np.abs(gaps) < _GAP_FLOOR)
    if close.any():
        j, k = np.argwhere(close)[0]
        raise DegenerateSpectrumError(
            f"cannot differentiate mode {k + 1}: gap to mode {j + 1} is {gaps[j, k]:.3g}"
        )
    inverse_gaps = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=off)
    # overlap[j, k] = w_j . (dT R) v_k
    overlap = decomposition.left_modes.T @ d_r @ decomposition.right_modes
    d_vals = -np.diag(overlap).copy()
    d_vals[0] = 0.0
    d_right = decomposition.right_modes @ (inverse_gaps * overlap)
    d_left = decomposition.left_modes @ (inverse_gaps * overlap.T)
    # The stationary mode has its own exact closed form; the k = 1 column of
    # the perturbation sum must (and does) agree with it, which the test suite
    # checks — but the closed form is what gets reported.
    d_pi = dT_gibbs_vector(rate_matrix.energies, rate_matrix.temperature)
    d_right[:, 0] = d_pi
    return SpectralDerivatives(
        d_rate_matrix=d_r,
        d_eigenvalues=d_vals,
        d_right_modes=d_right,
        d_left_modes=d_left,
        d_stationary=d_pi,
    )


def amplitudes_with_derivatives(
    decomposition: SpectralDecomposition,
    derivatives: SpectralDerivatives,
    p0: np.ndarray,
) -> ModalAmplitudes:
    """a_k = w_k . (p0 - pi) and, at fixed preparation,
    dT a_k = (dT w_k) . (p0 - pi) - w_k . (dT pi), from one simplex check and
    one p0 - pi; the a_k are :func:`project_initial`'s bit for bit."""
    delta = _check_simplex(p0) - decomposition.stationary
    left = decomposition.left_modes
    return ModalAmplitudes(
        amplitudes=left.T @ delta,
        dT_amplitudes=derivatives.d_left_modes.T @ delta - left.T @ derivatives.d_stationary,
    )


def dT_populations_modal(
    decomposition: SpectralDecomposition,
    amplitudes: ModalAmplitudes,
    derivatives: SpectralDerivatives,
    t,
) -> np.ndarray:
    """Total temperature sensitivity of the modal solution at fixed (p0, t).

    dT p(t) = dT pi + sum_{k>=2} [(dT a_k - a_k t dT lambda_k) e^{-lambda_k t}] v_k
              + sum_{k>=2} a_k e^{-lambda_k t} dT v_k

    The value is gauge-invariant even though the two sums individually are not.
    ``t`` is a float (one vector) or a 1-D array (one row per time), checked
    as in :func:`modal_trajectory`; a float is evaluated as a one-row grid.  Rows at
    t = 0 are exact zeros: the preparation is held fixed, so dT p(0) = 0, and
    the modal sums would only return their rounding residue.
    """
    times = check_times(t)
    if amplitudes.dT_amplitudes is None:
        raise ValueError("amplitudes carry no dT_amplitudes; use amplitudes_with_derivatives")
    a = amplitudes.amplitudes[1:]
    da = amplitudes.dT_amplitudes[1:]
    lam = decomposition.eigenvalues[1:]
    dlam = derivatives.d_eigenvalues[1:]
    column = times.reshape(-1, 1)
    decay = np.exp(-lam * column)
    modal = (da - a * column * dlam) * decay
    rows = (
        derivatives.d_stationary
        + modal @ decomposition.right_modes[:, 1:].T
        + (a * decay) @ derivatives.d_right_modes[:, 1:].T
    )
    rows[column.ravel() == 0.0] = 0.0
    return rows if times.ndim else rows[0]


def _match_modes(
    base: SpectralDecomposition, other: SpectralDecomposition
) -> np.ndarray:
    """Identify other's modes with base's by left/right overlap.

    Returns perm with other mode perm[k] corresponding to base mode k.  Raises
    :class:`AmbiguousTrackingError` when the best overlap fails to dominate the
    runner-up by a factor of 2 or the assignment is not a bijection.
    """
    overlap = np.abs(base.left_modes.T @ other.right_modes)
    perm = np.empty(base.dim, dtype=int)
    for k in range(base.dim):
        order = np.argsort(overlap[k])[::-1]
        best, second = order[0], (order[1] if base.dim > 1 else order[0])
        if base.dim > 1 and overlap[k, best] < 2.0 * overlap[k, second]:
            raise AmbiguousTrackingError(
                f"mode {k + 1}: best overlap {overlap[k, best]:.3g} does not dominate "
                f"runner-up {overlap[k, second]:.3g}"
            )
        perm[k] = best
    if len(set(perm.tolist())) != base.dim:
        raise AmbiguousTrackingError(f"mode assignment is not a bijection: {perm.tolist()}")
    return perm


def finite_difference_spectrum(
    rate_matrix: RateMatrix, decomposition: SpectralDecomposition
) -> SpectralDerivatives:
    """Finite-difference oracle for the perturbation formulas.

    Builds the family's generators at T +- h (h = 1e-5 T) and takes central
    differences.  dT R is the difference of their entries.  The spectral
    fields decompose both generators, identify their modes with the base
    decomposition, and rescale them into the base's biorthonormal gauge
    (w_k(T) . v_k(T') = 1 for right modes, w_k(T') . v_k(T) = 1 for left
    ones — both agree with the constant-overlap gauge to O(h^2)).
    """
    family = rate_matrix.family
    if family is None:
        raise ValueError("rate matrix carries no temperature family; cannot differentiate")
    t0 = rate_matrix.temperature
    h = 1e-5 * t0
    plus, minus = family(t0 + h), family(t0 - h)

    def aligned(matrix: RateMatrix):
        dec = decompose(matrix)
        perm = _match_modes(decomposition, dec)
        lam = dec.eigenvalues[perm]
        right = dec.right_modes[:, perm].copy()
        left = dec.left_modes[:, perm].copy()
        for k in range(decomposition.dim):
            if k == 0:
                continue  # stationary mode already normalized to sum 1
            c = float(decomposition.left_modes[:, k] @ right[:, k])
            d = float(left[:, k] @ decomposition.right_modes[:, k])
            right[:, k] /= c
            left[:, k] /= d
        return lam, right, left

    lam_p, right_p, left_p = aligned(plus)
    lam_m, right_m, left_m = aligned(minus)
    inv = 1.0 / (2.0 * h)
    return SpectralDerivatives(
        d_rate_matrix=(plus.entries - minus.entries) / (2.0 * h),
        d_eigenvalues=(lam_p - lam_m) * inv,
        d_right_modes=(right_p - right_m) * inv,
        d_left_modes=(left_p - left_m) * inv,
        d_stationary=(right_p[:, 0] - right_m[:, 0]) * inv,
    )
