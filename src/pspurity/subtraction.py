"""Single-photon subtraction on Gaussian states, in phase space.

Subtracting a photon from mode g of a Gaussian state produces a non-Gaussian
state whose Wigner function is a quadratic polynomial times the original
Gaussian.  This module builds that polynomial, extracts the mode-transform
(Bogoliubov) coefficients from the normal-mode decomposition, and evaluates
purities and quadrature moments of the subtracted state in closed form.  Two
independent routes give the purity: the Bogoliubov-row formula
``relative_purity_closed_form``, and the second moment of the prefactor under
a Gaussian, which for P(w) = d0 + d1.w + w^T C w and w ~ N(0, Sigma) is

    E[P^2] = (d0 + tr C Sigma)^2 + d1^T Sigma d1 + 2 tr(C Sigma C Sigma)

(Isserlis pairings of the degree-4 terms).

Two displacement conventions meet here and are converted in exactly one
place, ``extract_bogoliubov``: phase-space vectors carry ``(2 Re<a>,
2 Im<a>)`` while the complex amplitude ``alpha_g`` of a mode is ``<a_g>``
itself.  Keeping the conversion at a single boundary avoids silent
factor-of-two errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentRowError, SubtractionFromVacuumError
from .gaussian import (
    GaussianState,
    ModeSelector,
    gaussian_wigner_fn,
    mean_photon,
    purity_gaussian,
    reduce_modes,
    williamson,
)

#: photon subtraction is undefined below this mean-photon-scaled threshold
VACUUM_THRESHOLD = 1e-12


# ---------------------------------------------------------------------------
# subtracted states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubtractedState:
    """Photon-subtracted state: Gaussian core times a quadratic prefactor.

    The Wigner function is
    ``W(b) = (c0 + c1.b + b^T c2 b) * W_gauss(b) / normalization``
    where ``W_gauss`` is the Wigner function of ``base`` and the
    normalization equals ``|a_g|^2 + tr(V_g) - 2`` (four times the mean
    photon number of the subtracted mode).

    ``selector`` is None for marginals of subtracted states, where the
    original subtraction mode is no longer expressible.
    """

    base: GaussianState
    selector: Optional[ModeSelector]
    c0: float
    c1: np.ndarray
    c2: np.ndarray
    normalization: float

    def __post_init__(self):
        if self.normalization <= VACUUM_THRESHOLD:
            raise SubtractionFromVacuumError(
                "cannot subtract a photon from an empty mode"
            )
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        if np.abs(c2 - c2.T).max() > 1e-10 * max(1.0, np.abs(c2).max()):
            raise ValueError("quadratic prefactor must be symmetric")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", 0.5 * (c2 + c2.T))

    def prefactor_centered(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(d0, d1, C2) of the prefactor in w = b - displacement."""
        alpha = self.base.displacement
        d1 = self.c1 + 2.0 * self.c2 @ alpha
        d0 = self.c0 + self.c1 @ alpha + alpha @ self.c2 @ alpha
        return float(d0), d1, self.c2


@dataclass(frozen=True)
class BogoliubovRow:
    """Coefficients expressing the subtracted mode in the normal-mode frame.

    ``a_g`` transforms to ``alpha_g + sum_i k_i a_i^dag + l_i a_i`` where the
    ``a_i`` are the thermal normal modes with noise factors ``noise``.
    """

    alpha_g: complex
    k: np.ndarray
    l: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=complex)
        l = np.asarray(self.l, dtype=complex)
        noise = np.asarray(self.noise, dtype=float)
        if not (k.shape == l.shape == noise.shape) or k.ndim != 1:
            raise ValueError("k, l, noise must be equal-length vectors")
        if not (np.isfinite(self.alpha_g) and np.isfinite(k).all()
                and np.isfinite(l).all() and np.isfinite(noise).all()):
            raise ValueError("alpha_g, k, l and noise must be finite")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "noise", noise)

    def constraint_defect(self) -> float:
        """Deviation of sum(|l|^2 - |k|^2) from 1."""
        return float(abs(np.sum(np.abs(self.l) ** 2 - np.abs(self.k) ** 2) - 1.0))

    def cross_sum_real(self) -> float:
        """Re sum(k_i l_i^*).

        A textbook Bogoliubov row would have this vanish; rows extracted
        from squeezed states generally do not (see tests), so it is exposed
        for inspection rather than enforced.
        """
        return float(np.real(np.sum(self.k * np.conj(self.l))))


@dataclass(frozen=True)
class MomentReport:
    """First and second moments plus purity of a (possibly non-Gaussian) state."""

    mean: np.ndarray
    covariance: np.ndarray
    purity: float


@dataclass(frozen=True)
class RowAggregates:
    """Scalar combinations of a Bogoliubov row used by purity formulas.

    x = sum(Ntilde_i / n_i); y = sum(N_i);
    cross = sum(k_i l_i (n_i^2 - 1) / (2 n_i)) (complex, phase-bearing);
    z = 2 * sum(|k_i| |l_i| (n_i^2 - 1) / (2 n_i)) (nonnegative envelope).
    """

    x: float
    y: float
    z: float
    cross: complex


def row_aggregates(row: BogoliubovRow) -> RowAggregates:
    n = row.noise
    k2 = np.abs(row.k) ** 2
    l2 = np.abs(row.l) ** 2
    big_n = k2 * (n + 1.0) / 2.0 + l2 * (n - 1.0) / 2.0
    small_n = k2 * (n + 1.0) / 2.0 - l2 * (n - 1.0) / 2.0
    weight = (n**2 - 1.0) / (2.0 * n)
    cross = complex(np.sum(row.k * row.l * weight))
    z = 2.0 * float(np.sum(np.abs(row.k) * np.abs(row.l) * weight))
    return RowAggregates(
        x=float(np.sum(small_n / n)), y=float(np.sum(big_n)), z=z, cross=cross
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def subtract_photon(state: GaussianState, selector: ModeSelector) -> SubtractedState:
    """Construct the state after annihilating one photon in the selected mode.

    The quadratic prefactor is
    ``|X V^-1 (b - a0) + a_g|^2 + tr(V_g - X V^-1 X^T) - 2`` with
    ``X = G^T (V - 1)``, ``V_g = G^T V G`` and ``a_g = G^T a0`` (phase-space
    two-vector).  The relative sign between the two terms inside the norm is
    fixed by cross-checking subtracted-state means against a number-basis
    oracle; see the test suite.
    """
    if 2 * state.mode_count != selector.basis_x.size:
        raise ValueError("selector dimension does not match the state")
    norm = 4.0 * mean_photon(state, selector)
    if norm <= VACUUM_THRESHOLD:
        raise SubtractionFromVacuumError(
            f"selected mode holds {norm / 4.0:.2e} photons"
        )
    v = state.covariance
    g = selector.matrix
    alpha = state.displacement
    x_mat = g.T @ (v - np.eye(v.shape[0]))
    m_mat = np.linalg.solve(v.T, x_mat.T).T  # X V^-1
    a_g = g.T @ alpha
    v_g = g.T @ v @ g
    trace_term = float(np.trace(v_g - m_mat @ x_mat.T)) - 2.0
    # expand |M (b - a0) + a_g|^2 + trace_term into b-monomials
    c2 = m_mat.T @ m_mat
    lin_w = 2.0 * m_mat.T @ a_g  # linear coefficient in w = b - a0
    c1 = lin_w - 2.0 * c2 @ alpha
    c0 = float(alpha @ c2 @ alpha - lin_w @ alpha + a_g @ a_g + trace_term)
    return SubtractedState(
        base=state, selector=selector, c0=c0, c1=c1, c2=c2, normalization=float(norm)
    )


def subtracted_wigner_fn(sub: SubtractedState):
    """Vectorized evaluator for the subtracted-state Wigner function."""
    gauss = gaussian_wigner_fn(sub.base)
    c0, c1, c2 = sub.c0, sub.c1, sub.c2
    norm = sub.normalization

    def wigner(points):
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        flat = pts.reshape(-1, c1.size)
        quad = np.einsum("ni,ij,nj->n", flat, c2, flat)
        pref = c0 + flat @ c1 + quad
        vals = pref * np.ravel(gauss(flat)) / norm
        return float(vals[0]) if scalar else vals.reshape(pts.shape[:-1])

    return wigner


def wigner_subtracted_at(sub: SubtractedState, point) -> float | np.ndarray:
    """Subtracted-state Wigner function at a point; may be negative."""
    return subtracted_wigner_fn(sub)(point)


def extract_bogoliubov(state: GaussianState, selector: ModeSelector) -> BogoliubovRow:
    """Mode-transform coefficients of the selected mode in the thermal frame.

    From the normal-mode decomposition V = S diag(n, n) S^T, the annihilation
    operator of the selected mode transforms (in the Heisenberg sense) into
    ``alpha_g + sum_i k_i a_i^dag + l_i a_i``.  With u = S^T g_x and
    v = S^T g_p:

        k_i = (u_i - v_{m+i}) / 2 + i (v_i + u_{m+i}) / 2
        l_i = (u_i + v_{m+i}) / 2 + i (v_i - u_{m+i}) / 2

    and ``alpha_g = (a0.g_x + i a0.g_p) / 2`` converts the phase-space
    displacement to a complex amplitude.  This is the single place where the
    two displacement scales are converted.
    """
    decomp = williamson(state)
    m = state.mode_count
    s = decomp.symplectic.matrix
    u = s.T @ selector.basis_x
    v = s.T @ selector.basis_p
    k = (u[:m] - v[m:]) / 2.0 + 1j * (v[:m] + u[m:]) / 2.0
    l = (u[:m] + v[m:]) / 2.0 + 1j * (v[:m] - u[m:]) / 2.0
    alpha_g = (
        state.displacement @ selector.basis_x
        + 1j * (state.displacement @ selector.basis_p)
    ) / 2.0
    row = BogoliubovRow(alpha_g=complex(alpha_g), k=k, l=l, noise=decomp.noise_factors)
    if row.constraint_defect() > 1e-9:
        raise InconsistentRowError(
            f"normalization defect {row.constraint_defect():.3e} after extraction"
        )
    return row


def relative_purity_closed_form(row: BogoliubovRow) -> float:
    """Ratio of purities after/before subtraction, from the row coefficients.

    With N_i = |k_i|^2 (n_i+1)/2 + |l_i|^2 (n_i-1)/2 and
    Ntilde_i = |k_i|^2 (n_i+1)/2 - |l_i|^2 (n_i-1)/2 the ratio is

        1/2 + [x^2/2 + |a|^4/2 + |cross|^2 + 2 Re(conj(a)^2 cross)
               + |a|^2 y] / (y + |a|^2)^2

    and always lies in [1/2, 1.2).
    """
    if row.constraint_defect() > 1e-6:
        raise InconsistentRowError(
            f"row violates normalization by {row.constraint_defect():.3e}"
        )
    agg = row_aggregates(row)
    a2 = abs(row.alpha_g) ** 2
    denom = agg.y + a2
    if denom <= VACUUM_THRESHOLD:
        raise SubtractionFromVacuumError("row describes an empty mode")
    num = (
        0.5 * agg.x**2
        + 0.5 * a2**2
        + abs(agg.cross) ** 2
        + 2.0 * np.real(np.conj(row.alpha_g) ** 2 * agg.cross)
        + a2 * agg.y
    )
    return float(0.5 + num / denom**2)


def purity_subtracted(sub: SubtractedState) -> float:
    """Purity of the subtracted state, exactly, from the prefactor moments.

    The squared Wigner function integrates against a Gaussian of covariance
    Sigma = V/2, so the purity is mu * E[P(w)^2] / normalization^2 with P the
    centered prefactor and E[P^2] the matrix identity in the module
    docstring.  Agrees with ``relative_purity_closed_form * purity_gaussian``
    to near machine precision.
    """
    d0, d1, c2 = sub.prefactor_centered()
    sigma = sub.base.covariance / 2.0
    cs = c2 @ sigma
    ep2 = (d0 + np.trace(cs)) ** 2 + d1 @ sigma @ d1 + 2.0 * np.sum(cs * cs.T)
    return float(purity_gaussian(sub.base) * ep2 / sub.normalization**2)


def relative_purity_subtracted(sub: SubtractedState) -> float:
    """purity(subtracted) / purity(base), via the prefactor moments."""
    return purity_subtracted(sub) / purity_gaussian(sub.base)


def moments_subtracted(sub: SubtractedState) -> MomentReport:
    """Mean vector and covariance matrix of the subtracted state.

    First and second moments of the polynomial-times-Gaussian Wigner
    function, exactly: the mean shifts by V d1 / normalization and the
    covariance gains 2 V C V / normalization less the outer product of that
    shift.  The purity comes from ``purity_subtracted``.
    """
    d0, d1, c2 = sub.prefactor_centered()
    cov = sub.base.covariance
    alpha = sub.base.displacement
    norm = sub.normalization
    sd1 = cov @ d1
    mean = alpha + sd1 / norm
    second = cov + 2.0 * cov @ c2 @ cov / norm
    cov_sub = second - np.outer(sd1, sd1) / norm**2
    return MomentReport(
        mean=mean, covariance=cov_sub, purity=purity_subtracted(sub)
    )


def marginal_subtracted(sub: SubtractedState, modes) -> SubtractedState:
    """Reduced state of a subtracted state on a subset of modes.

    Integrating the polynomial-times-Gaussian Wigner function over the
    dropped quadratures leaves the same functional form on the kept ones:
    the Gaussian marginalizes, and the prefactor becomes its conditional
    expectation (quadratic again, since the conditional mean is affine).
    The normalization constant is untouched.
    """
    modes = list(modes)
    base = reduce_modes(sub.base, modes)
    m = sub.base.mode_count
    keep = np.array(modes + [m + j for j in modes])
    drop = np.array([i for i in range(2 * m) if i not in set(keep)])
    d0, d1, c2 = sub.prefactor_centered()
    if drop.size == 0:
        q0, q1, q2 = d0, d1[keep], c2[np.ix_(keep, keep)]
    else:
        v = sub.base.covariance
        vaa = v[np.ix_(keep, keep)]
        vab = v[np.ix_(keep, drop)]
        vbb = v[np.ix_(drop, drop)]
        reg = np.linalg.solve(vaa.T, vab).T  # V_ba V_aa^-1, transposed build
        cond_cov = vbb - reg @ vab
        c2aa = c2[np.ix_(keep, keep)]
        c2ab = c2[np.ix_(keep, drop)]
        c2bb = c2[np.ix_(drop, drop)]
        q2 = c2aa + c2ab @ reg + reg.T @ c2ab.T + reg.T @ c2bb @ reg
        q1 = d1[keep] + reg.T @ d1[drop]
        q0 = d0 + float(np.trace(c2bb @ cond_cov))
    # back to absolute coordinates of the reduced state
    alpha = base.displacement
    c1 = q1 - 2.0 * q2 @ alpha
    c0 = float(q0 - q1 @ alpha + alpha @ q2 @ alpha)
    return SubtractedState(
        base=base, selector=None, c0=c0, c1=c1, c2=q2,
        normalization=sub.normalization,
    )
