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
sums itself, once and over the whole stack, into its normalization defect
and the aggregates that the closed form and the purification conditions
(``bounds``) read: x, y, z, cross, |alpha_g|^2, |cross|^2 and the alignment
term Re(conj(alpha_g)^2 cross).  ``relative_purity_closed_form`` takes a
stack of rows and returns one ratio per row; the purification conditions
take one row, ``rows[i]``.  A row refuses a defect above ``ROW_TOL`` and an
empty mode when it is built, by the empty-mode rule ``SubtractedState``
keeps too, so those two functions raise nothing.

The prefactor-moment route takes stacks too: ``subtract_photon`` of a stack
of states (one selector or a stack of them) is a stacked
``SubtractedState``, and ``purity_subtracted`` and ``moments_subtracted``
of it give an N-vector and a stacked ``MomentReport``.  It reads no
Bogoliubov row and no normal-mode decomposition, so it checks the closed
form.  Each row is bit for bit its state's single call.  The marginals and
the Wigner evaluators take one subtracted state, ``sub[i]``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentRowError, NumericDegenerateError, SubtractionFromVacuumError
from .gaussian import (
    GaussianState,
    ModeSelector,
    _check_selector,
    _first_failing_row,
    _mode_subset,
    _purity_gaussian,
    _selected_mode,
    _Stack,
    _stacked,
    gaussian_wigner_fn,
    reduce_modes,
    require_single,
    williamson,
)

#: photon subtraction is undefined from a mode with <n_g> at or below this
VACUUM_THRESHOLD = 1e-12

#: how far a row's normalization may stray from 1, and a noise factor below 1
ROW_TOL = 1e-6

#: the largest float whose square is finite
_ROOT_MAX = math.sqrt(sys.float_info.max)


# ---------------------------------------------------------------------------
# subtracted states
# ---------------------------------------------------------------------------

def _check_normalization(norm: float):
    """The one rule for 4<n_g> on both routes: an empty mode, <n_g> <=
    ``VACUUM_THRESHOLD``, has no photon to subtract, and a norm that squares
    past float64 (or NaN) cannot divide the purity and moments."""
    if norm <= 4.0 * VACUUM_THRESHOLD:  # the factor 4 is exact
        raise SubtractionFromVacuumError(
            f"cannot subtract a photon from an empty mode: <n_g> = {norm / 4.0:.3e}")
    if not norm <= _ROOT_MAX:
        raise NumericDegenerateError(f"normalization 4<n_g> = {norm:.3e} of the subtracted mode "
                                     "overflows float64 when squared")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; the caller's array keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SubtractedState(_Stack):
    """Photon-subtracted state: Gaussian core times a quadratic prefactor.

    The Wigner function is
    ``W(b) = (c0 + c1.b + b^T c2 b) * W_gauss(b) / normalization``
    where ``W_gauss`` is the Wigner function of ``base`` and the
    normalization equals ``|a_g|^2 + tr(V_g) - 2`` (four times the mean
    photon number of the subtracted mode).  ``d0`` and ``d1`` are the
    constant and linear coefficients of the same prefactor in
    w = b - displacement, which the purity, the moments and the marginals
    read.  A builder that has them passes them: recovered from c0 and c1
    they cancel by about |displacement|^2.  Left out, they are recovered.
    A stack of N subtracted states has a stacked ``base``, N-vectors ``c0``,
    ``d0`` and ``normalization``, N x 2m ``c1`` and ``d1`` and N x 2m x 2m
    ``c2``; one state holds Python floats.
    """

    base: GaussianState
    c0: float
    c1: np.ndarray
    c2: np.ndarray
    normalization: float
    d0: float = field(default=None, kw_only=True, repr=False, compare=False)
    d1: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        c0 = np.asarray(self.c0, dtype=float)
        c1 = np.asarray(self.c1, dtype=float)
        c2 = np.asarray(self.c2, dtype=float)
        norm = np.asarray(self.normalization, dtype=float)
        stacked = c1.ndim == 2
        if (c1.shape != self.base.displacement.shape or c2.shape != self.base.covariance.shape
                or not c0.shape == norm.shape == c1.shape[:-1]):
            raise ValueError("c0, c1, c2 and normalization must match the base state "
                             "(a stack: N-vectors, N x 2m and N x 2m x 2m)")
        rows = _stacked(c2, 2)
        c2t = rows.swapaxes(-1, -2)
        asym = np.abs(rows - c2t).max(axis=(1, 2)).tolist()
        scale = np.abs(rows).max(axis=(1, 2)).tolist()
        # every check of a row before the next row: the first failing row raises
        for n, a, c in zip(np.ravel(norm).tolist(), asym, scale):
            _check_normalization(n)
            if a > 1e-10 * max(1.0, c):
                raise ValueError("quadratic prefactor must be symmetric")
        c2 = (0.5 * (rows + c2t)).reshape(c2.shape)
        if (self.d0 is None) != (self.d1 is None):
            raise ValueError("give both d0 and d1 or neither")
        if self.d0 is None:  # recovered from the b-monomials
            alpha = _stacked(self.base.displacement, 1)
            c1s, c2s, col = _stacked(c1, 1), _stacked(c2, 2), alpha[..., None]
            d1 = (c1s + (2.0 * c2s @ col)[..., 0]).reshape(c1.shape)
            d0 = (np.ravel(c0) + (c1s[:, None] @ col)[:, 0, 0]
                  + (alpha[:, None] @ c2s @ col)[:, 0, 0]).reshape(c0.shape)
        else:
            d0 = np.asarray(self.d0, dtype=float)
            d1 = np.asarray(self.d1, dtype=float)
            if d0.shape != c0.shape or d1.shape != c1.shape:
                raise ValueError("d0 and d1 must match c0 and c1")
        # read-only: the purity, the moments and the marginals all read them
        for name, value in (("c0", c0), ("c1", c1), ("c2", c2), ("normalization", norm),
                            ("d0", d0), ("d1", d1)):
            object.__setattr__(self, name, _read_only(value) if value.ndim else value.item())

    _AXIS = ("c1", 1)

    @property
    def _centered(self) -> tuple:
        """(d0, d1, C2) with a leading state axis, N = 1 for one state."""
        return np.array(self.d0, ndmin=1), _stacked(self.d1, 1), _stacked(self.c2, 2)

    def prefactor_centered(self) -> tuple:
        """(d0, d1, C2) of the prefactor in w = b - displacement (an N-vector,
        N x 2m and N x 2m x 2m for a stack)."""
        return self.d0, self.d1, self.c2


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

    the normalization defect |sum(|l_i|^2 - |k_i|^2) - 1|,
    ``alpha_sq`` = |alpha_g|^2 and ``cross_sq`` = |cross|^2, each the product
    ``abs(c) * abs(c)`` of Python's ``abs``, and the alignment term
    ``align`` = Re(conj(alpha_g)^2 cross), expanded in real arithmetic;
    N-vectors on a stack, whose ``rows[i]`` carries row i's as Python scalars.
    A row refuses a defect above ``ROW_TOL`` and an empty mode,
    <n_g> = y + |alpha_g|^2, when it is built.
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
    align: float = field(init=False, repr=False, compare=False)

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
            huge = n > _ROOT_MAX  # the weight squares n
            if huge.any():
                raise NumericDegenerateError(
                    f"noise factor {n[huge][0]:.3e} overflows float64 when squared")
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
        defect = np.abs(norm - 1.0)
        # every row passed the checks above, so the first row to fail here fails first
        for a, b, d in zip(*(v.reshape(-1).tolist() for v in (mag, y, defect))):
            _check_normalization(4.0 * (b + a * a))  # Python floats: no overflow warning
            if d > ROW_TOL:
                raise InconsistentRowError(f"row violates normalization by {d:.3e}")
        alpha_sq, cross_sq = np.square(mag), np.square(np.hypot(cross.real, cross.imag))
        ar, ai = alpha.real, alpha.imag
        align = (ar * ar - ai * ai) * cross.real + 2.0 * (ar * ai) * cross.imag
        fields = dict(x=x, y=y, z=z, cross=cross, defect=defect, alpha_sq=alpha_sq,
                      cross_sq=cross_sq, align=align, k=k, l=l, noise=n, alpha_g=alpha)
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
class MomentReport(_Stack):
    """First and second moments of a (possibly non-Gaussian) state (N x 2m
    and N x 2m x 2m for a stack)."""

    mean: np.ndarray
    covariance: np.ndarray

    _AXIS = ("mean", 1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _square(x):
    """x ** 2 by libm pow, which is what ``** 2`` on a Python float or a NumPy
    scalar computes; ``**`` on an array squares by x * x, which differs in
    the last bit for some x, so a stack keeps its rows' single-state bits."""
    return np.float_power(x, 2.0)


def subtract_photon(state: GaussianState, selector: ModeSelector) -> SubtractedState:
    """Construct the state after annihilating one photon in the selected mode.

    The quadratic prefactor is
    ``|X V^-1 (b - a0) + a_g|^2 + tr(V_g - X V^-1 X^T) - 2`` with
    ``X = G^T (V - 1)``, ``V_g = G^T V G`` and ``a_g = G^T a0`` (phase-space
    two-vector).  The relative sign between the two terms inside the norm is
    fixed by cross-checking subtracted-state means against a number-basis
    oracle; see the test suite.  A stack of states, with one selector for all
    or a stack of selectors, gives a stack of subtracted states, each row bit
    for bit its state's own.
    """
    _check_selector(state, selector)
    with _first_failing_row(len(state.covariance) if state.stacked else 0,
                            lambda i: subtract_photon(
                                state[i], selector[i] if selector.stacked else selector)):
        v = _stacked(state.covariance, 2)
        alpha = _stacked(state.displacement, 1)
        g = selector.matrix
        # SubtractedState refuses an empty mode and a norm that squares past float64
        with np.errstate(over="ignore", invalid="ignore"):
            photons, v_g, a_g = _selected_mode(v, alpha, g)
            norm = 4.0 * photons
            gt, col = g.swapaxes(-1, -2), alpha[..., None]
            x_t = (gt @ (v - np.eye(v.shape[-1]))).swapaxes(-1, -2)  # X^T
            m_t = np.linalg.solve(v.swapaxes(-1, -2), x_t)  # (X V^-1)^T
            m_mat = m_t.swapaxes(-1, -2)
            t = v_g - m_mat @ x_t  # V_g - X V^-1 X^T
            trace_term = t[:, 0, 0] + t[:, 1, 1] - 2.0
            # expand |M (b - a0) + a_g|^2 + trace_term into b-monomials
            c2 = m_t @ m_mat
            lin_w = 2.0 * m_t @ a_g  # linear coefficient in w = b - a0
            a_sq = (a_g.swapaxes(-1, -2) @ a_g)[:, 0, 0]
            c1 = lin_w - 2.0 * c2 @ col
            c0 = ((alpha[:, None] @ c2 @ col - lin_w.swapaxes(-1, -2) @ col)[:, 0, 0]
                  + a_sq + trace_term)
            d0 = a_sq + trace_term
        c1, d1 = c1[..., 0], lin_w[..., 0]
        if not state.stacked:
            c0, c1, c2, norm, d0, d1 = c0[0], c1[0], c2[0], norm[0], d0[0], d1[0]
        return SubtractedState(base=state, c0=c0, c1=c1, c2=c2, normalization=norm, d0=d0, d1=d1)


def subtracted_wigner_fn(sub: SubtractedState):
    """Vectorized evaluator for the subtracted-state Wigner function."""
    require_single(sub, "subtracted_wigner_fn")
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
    require_single(sub, "wigner_subtracted_at")
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

    With the aggregates of ``BogoliubovRow`` and a = alpha_g the ratio is

        1/2 + [x^2/2 + |a|^4/2 + |cross|^2 + 2 align + |a|^2 y] / (y + |a|^2)^2,
        align = Re(conj(a)^2 cross),

    and always lies in [1/2, 1.2).  A stack of rows gives an N-vector, one
    row a Python float.  Only +, -, * and / act on the row's fields, so each
    entry of a stack rounds as its row alone.  A built row is normalized and
    not empty, so this raises nothing.
    """
    denom = row.y + row.alpha_sq
    a2 = row.alpha_sq
    num = 0.5 * (row.x * row.x) + 0.5 * (a2 * a2) + row.cross_sq + 2.0 * row.align + a2 * row.y
    return 0.5 + num / (denom * denom)


def purity_subtracted(sub: SubtractedState) -> float | np.ndarray:
    """Purity of the subtracted state, exactly, from the prefactor moments.

    The squared Wigner function integrates against a Gaussian of covariance
    Sigma = V/2, so the purity is mu * E[P(w)^2] / normalization^2 with P the
    centered prefactor and E[P^2] the matrix identity in the module
    docstring.  Agrees with ``relative_purity_closed_form * purity_gaussian``
    to near machine precision.  A stack gives an N-vector, one state a
    Python float.
    """
    d0, d1, c2 = sub._centered
    cov = _stacked(sub.base.covariance, 2)
    sigma = cov / 2.0
    cs = c2 @ sigma
    ep2 = (_square(d0 + cs.trace(0, -2, -1))
           + (d1[:, None] @ sigma @ d1[..., None])[:, 0, 0]
           + 2.0 * (cs * cs.swapaxes(-1, -2)).sum(axis=(-2, -1)))
    mu = _purity_gaussian(cov) * ep2 / _square(sub.normalization)
    return mu if sub.stacked else float(mu[0])


def moments_subtracted(sub: SubtractedState) -> MomentReport:
    """Mean vector and covariance matrix of the subtracted state.

    First and second moments of the polynomial-times-Gaussian Wigner
    function, exactly: the mean shifts by V d1 / normalization and the
    covariance gains 2 V C V / normalization less the outer product of that
    shift.  A stack gives a stacked report.
    """
    d0, d1, c2 = sub._centered
    cov = _stacked(sub.base.covariance, 2)
    alpha = _stacked(sub.base.displacement, 1)
    norm = np.array(sub.normalization, ndmin=1)[:, None]
    sd1 = (cov @ d1[..., None])[..., 0]
    mean = alpha + sd1 / norm
    second = cov + 2.0 * cov @ c2 @ cov / norm[..., None]
    cov_sub = second - sd1[..., None] * sd1[:, None] / _square(norm)[..., None]
    if not sub.stacked:
        mean, cov_sub = mean[0], cov_sub[0]
    return MomentReport(mean=mean, covariance=cov_sub)


def marginal_subtracted(sub: SubtractedState, modes) -> SubtractedState:
    """Reduced state of a subtracted state on a subset of modes.

    Integrating the polynomial-times-Gaussian Wigner function over the
    dropped quadratures leaves the same functional form on the kept ones:
    the Gaussian marginalizes, and the prefactor becomes its conditional
    expectation (quadratic again, since the conditional mean is affine).
    The normalization constant is untouched.
    """
    require_single(sub, "marginal_subtracted")
    m = sub.base.mode_count
    modes = _mode_subset(modes, m)
    base = reduce_modes(sub.base, modes)
    keep = modes + [m + j for j in modes]
    kept = set(keep)
    order = np.array(keep + [i for i in range(2 * m) if i not in kept])
    k = len(keep)  # the kept quadratures lead, the dropped ones follow
    d0, d1, c2 = sub.prefactor_centered()
    d1 = d1[order]
    if k == 2 * m:
        q0, q1, q2 = d0, d1, c2[np.ix_(order, order)]
    else:
        v = sub.base.covariance[np.ix_(order, order)]
        c2 = c2[np.ix_(order, order)]
        vaa, vab, vbb = v[:k, :k], v[:k, k:], v[k:, k:]
        reg = np.linalg.solve(vaa.T, vab).T  # V_ba V_aa^-1, transposed build
        cond_cov = vbb - reg @ vab
        c2aa, c2ab, c2bb = c2[:k, :k], c2[:k, k:], c2[k:, k:]
        q2 = c2aa + c2ab @ reg + reg.T @ c2ab.T + reg.T @ c2bb @ reg
        q1 = d1[:k] + reg.T @ d1[k:]
        q0 = d0 + float(np.trace(c2bb @ cond_cov))
    # back to absolute coordinates of the reduced state
    alpha = base.displacement
    c1 = q1 - 2.0 * q2 @ alpha
    c0 = float(q0 - q1 @ alpha + alpha @ q2 @ alpha)
    return SubtractedState(base=base, c0=c0, c1=c1, c2=q2, normalization=sub.normalization,
                           d0=q0, d1=q1)
