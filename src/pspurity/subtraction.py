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

``extract_bogoliubov`` takes a stack of states (see ``gaussian``), with one
selector for all or a stack of selectors, and returns a stack of rows.  A row
sums itself, once and over the whole stack, into the four aggregates x, y, z
and cross that the closed form and the purification conditions (``bounds``)
read, its normalization defect and the squared magnitudes |alpha_g|^2 and
|cross|^2.  ``relative_purity_closed_form`` takes a stack of rows and returns
one ratio per row; the purification conditions, the prefactor-moment
purities and ``subtract_photon`` take one state or one row, ``rows[i]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentRowError, NumericDegenerateError, SubtractionFromVacuumError
from .gaussian import (
    GaussianState,
    ModeSelector,
    _check_selector,
    _first_failing_row,
    _Stack,
    _stacked,
    gaussian_wigner_fn,
    mean_photon,
    purity_gaussian,
    reduce_modes,
    require_single,
    williamson,
)

#: photon subtraction is undefined below this mean-photon-scaled threshold
VACUUM_THRESHOLD = 1e-12

#: how far a row's normalization may stray from 1, and a noise factor below 1
ROW_TOL = 1e-6


# ---------------------------------------------------------------------------
# subtracted states
# ---------------------------------------------------------------------------

def _refuse_normalization(norm: float):
    """The refusal of a subtracted mode whose normalization 4<n_g> squares
    past float64: its purity and moments divide by that square."""
    raise NumericDegenerateError(f"normalization 4<n_g> = {norm:.3e} of the subtracted mode "
                                 "overflows float64 when squared")


@dataclass(frozen=True)
class SubtractedState:
    """Photon-subtracted state: Gaussian core times a quadratic prefactor.

    The Wigner function is
    ``W(b) = (c0 + c1.b + b^T c2 b) * W_gauss(b) / normalization``
    where ``W_gauss`` is the Wigner function of ``base`` and the
    normalization equals ``|a_g|^2 + tr(V_g) - 2`` (four times the mean
    photon number of the subtracted mode).
    """

    base: GaussianState
    c0: float
    c1: np.ndarray
    c2: np.ndarray
    normalization: float

    def __post_init__(self):
        require_single(self.base, "SubtractedState")
        if self.normalization <= VACUUM_THRESHOLD:
            raise SubtractionFromVacuumError(
                "cannot subtract a photon from an empty mode"
            )
        norm = float(self.normalization)
        if not math.isfinite(norm * norm):
            _refuse_normalization(norm)
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
class BogoliubovRow(_Stack):
    """Coefficients expressing the subtracted mode in the normal-mode frame.

    ``a_g`` transforms to ``alpha_g + sum_i k_i a_i^dag + l_i a_i`` where the
    ``a_i`` are the thermal normal modes with noise factors ``noise`` (each
    at least 1).  A stack of N rows holds N x m arrays and N amplitudes
    ``alpha_g``.  The constructor sums each row into the aggregates that
    every purity formula reads, with N_i = |k_i|^2 (n_i+1)/2 +
    |l_i|^2 (n_i-1)/2, Ntilde_i the same with a minus sign and the weight
    w_i = (n_i^2 - 1) / (2 n_i):

        x = sum Ntilde_i / n_i (may be negative),  y = sum N_i >= 0,
        z = 2 sum |k_i| |l_i| w_i >= 0,  cross = sum k_i l_i w_i (complex,
        phase-bearing, |cross| <= z / 2),

    the normalization defect |sum(|l_i|^2 - |k_i|^2) - 1|, and
    ``alpha_sq`` = |alpha_g|^2 and ``cross_sq`` = |cross|^2, each the product
    ``abs(c) * abs(c)`` of Python's ``abs``; N-vectors on a stack, whose
    ``rows[i]`` carries row i's as Python scalars.
    """

    alpha_g: complex
    k: np.ndarray
    l: np.ndarray
    noise: np.ndarray
    x: float = field(init=False, repr=False, compare=False)
    y: float = field(init=False, repr=False, compare=False)
    z: float = field(init=False, repr=False, compare=False)
    cross: complex = field(init=False, repr=False, compare=False)
    defect: float = field(init=False, repr=False, compare=False)
    alpha_sq: float = field(init=False, repr=False, compare=False)
    cross_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha_g, dtype=complex)
        k = np.asarray(self.k, dtype=complex)
        l = np.asarray(self.l, dtype=complex)
        n = np.asarray(self.noise, dtype=float)
        if (not (k.shape == l.shape == n.shape) or k.ndim not in (1, 2)
                or alpha.shape != k.shape[:-1]):
            raise ValueError("k, l, noise must be equal-length vectors "
                             "(a stack: N x m arrays and N amplitudes alpha_g)")
        with _first_failing_row(len(k) if k.ndim == 2 else 0,
                                lambda i: BogoliubovRow(alpha[i], k[i], l[i], n[i])):
            if not all(np.isfinite(a).all() for a in (alpha, k, l, n)):
                raise ValueError("alpha_g, k, l and noise must be finite")
            low = n < 1.0 - ROW_TOL  # the aggregates divide by n
            if low.any():
                raise ValueError(f"noise factors must be at least 1, got {n[low][0]}")
        ak, al = np.abs(k), np.abs(l)
        ak2, al2 = ak**2, al**2
        plus, minus = ak2 * (n + 1.0) / 2.0, al2 * (n - 1.0) / 2.0
        weight = (n**2 - 1.0) / (2.0 * n)
        # ndarray.sum: the same reduction as np.sum without its Python wrapper
        sums = ((plus - minus) / n, plus + minus, 2.0 * ak * al * weight, k * l * weight,
                al2 - ak2)
        x, y, z, cross, norm = (a.sum(axis=-1) for a in sums)
        # hypot is what Python's abs(complex) computes; NumPy's complex abs rounds otherwise
        mag = np.hypot(alpha.real, alpha.imag)
        # every row passed the checks above, so the first row to fail here fails first
        for a, b in zip(mag.reshape(-1).tolist(), y.reshape(-1).tolist()):
            norm4 = 4.0 * (b + a * a)  # Python floats: past float64 is inf, with no warning
            if not math.isfinite(norm4 * norm4):
                _refuse_normalization(norm4)
        alpha_sq, cross_sq = np.square(mag), np.square(np.hypot(cross.real, cross.imag))
        fields = dict(x=x, y=y, z=z, cross=cross, defect=np.abs(norm - 1.0),
                      alpha_sq=alpha_sq, cross_sq=cross_sq, k=k, l=l, noise=n, alpha_g=alpha)
        for name, value in fields.items():
            object.__setattr__(self, name, value.item() if value.ndim == 0 else value)

    _AXIS = ("k", 1)

    def cross_sum_real(self):
        """Re sum(k_i l_i^*) (one per row of a stack).

        A textbook Bogoliubov row would have this vanish; rows extracted
        from squeezed states generally do not (see tests), so it is exposed
        for inspection rather than enforced.
        """
        total = (self.k * np.conj(self.l)).sum(axis=-1).real
        return total if self.stacked else float(total)


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of a (possibly non-Gaussian) state."""

    mean: np.ndarray
    covariance: np.ndarray


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
    require_single(state, "subtract_photon")
    require_single(selector, "subtract_photon")
    # a normalization that squares past float64 is refused by SubtractedState
    with np.errstate(over="ignore", invalid="ignore"):
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
    return SubtractedState(base=state, c0=c0, c1=c1, c2=c2, normalization=float(norm))


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
    two displacement scales are converted.  A stack of states gives a stack
    of rows, with one selector for all or a stack of selectors, one per state.
    """
    _check_selector(state, selector)
    with _first_failing_row(len(state.covariance) if state.stacked else 0,
                            lambda i: extract_bogoliubov(
                                state[i], selector[i] if selector.stacked else selector)):
        decomp = williamson(state)
        m = state.mode_count
        s = _stacked(decomp.symplectic.matrix, 2).swapaxes(-1, -2)
        # column vectors: one selector broadcasts over the stack, a stack pairs row by row
        bx = _stacked(selector.basis_x, 1)[..., None]
        bp = _stacked(selector.basis_p, 1)[..., None]
        u, v = (s @ bx)[..., 0], (s @ bp)[..., 0]
        k = (u[:, :m] - v[:, m:]) / 2.0 + 1j * (v[:, :m] + u[:, m:]) / 2.0
        l = (u[:, :m] + v[:, m:]) / 2.0 + 1j * (v[:, :m] - u[:, m:]) / 2.0
        # one dot product per row: a single gemv over the stack sums in another order
        disp = _stacked(state.displacement, 1)[:, None, :]
        alpha_g = (disp @ bx + 1j * (disp @ bp))[:, 0, 0] / 2.0
        if not state.stacked:
            alpha_g, k, l = alpha_g[0], k[0], l[0]
        row = BogoliubovRow(alpha_g=alpha_g, k=k, l=l, noise=decomp.noise_factors)
        for defect in np.atleast_1d(row.defect).tolist():
            if defect > 1e-9:
                raise InconsistentRowError(f"normalization defect {defect:.3e} after extraction")
    return row


def relative_purity_closed_form(row: BogoliubovRow) -> float | np.ndarray:
    """Ratio of purities after/before subtraction, from the row's aggregates.

    With x, y and cross as in ``BogoliubovRow`` and a = alpha_g the ratio is

        1/2 + [x^2/2 + |a|^4/2 + |cross|^2 + 2 Re(conj(a)^2 cross)
               + |a|^2 y] / (y + |a|^2)^2

    and always lies in [1/2, 1.2).  A stack of rows gives an N-vector, one
    row a Python float.  Only +, -, * and / act on the row's fields, so each
    entry of a stack rounds as its row alone; the rows are checked in order,
    so a stack raises its first failing row's error.
    """
    denom = row.y + row.alpha_sq
    for defect, d in zip(np.atleast_1d(row.defect).tolist(), np.atleast_1d(denom).tolist()):
        if defect > ROW_TOL:
            raise InconsistentRowError(f"row violates normalization by {defect:.3e}")
        if d <= VACUUM_THRESHOLD:
            raise SubtractionFromVacuumError("row describes an empty mode")
    a2, ar, ai, cross = row.alpha_sq, row.alpha_g.real, row.alpha_g.imag, row.cross
    num = (
        0.5 * (row.x * row.x)
        + 0.5 * (a2 * a2)
        + row.cross_sq
        + 2.0 * ((ar * ar - ai * ai) * cross.real + 2.0 * (ar * ai) * cross.imag)
        + a2 * row.y
    )
    return 0.5 + num / (denom * denom)


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


def moments_subtracted(sub: SubtractedState) -> MomentReport:
    """Mean vector and covariance matrix of the subtracted state.

    First and second moments of the polynomial-times-Gaussian Wigner
    function, exactly: the mean shifts by V d1 / normalization and the
    covariance gains 2 V C V / normalization less the outer product of that
    shift.
    """
    d0, d1, c2 = sub.prefactor_centered()
    cov = sub.base.covariance
    alpha = sub.base.displacement
    norm = sub.normalization
    sd1 = cov @ d1
    mean = alpha + sd1 / norm
    second = cov + 2.0 * cov @ c2 @ cov / norm
    cov_sub = second - np.outer(sd1, sd1) / norm**2
    return MomentReport(mean=mean, covariance=cov_sub)


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
    return SubtractedState(base=base, c0=c0, c1=c1, c2=q2, normalization=sub.normalization)
