"""Multimode Gaussian states in the covariance-matrix representation.

Conventions used throughout the package:

* Quadratures are ``x = a^dag + a`` and ``p = i(a^dag - a)``, so the vacuum
  covariance matrix is the identity and ``[x, p] = 2i``.
* Phase-space vectors are ordered ``(x_1 .. x_m, p_1 .. p_m)``.
* A displacement with complex amplitude ``<a>`` appears in phase space as
  ``(2 Re<a>, 2 Im<a>)``.
* Squeezing strengths quoted in dB map to the variance factor
  ``s = 10**(db / 10)`` and the squeezing parameter ``r = ln(s) / 2``.

Validation and ``williamson`` share one symplectic-spectrum route,
``_normal_form``: ``GaussianState`` keeps the normal form its check computes
and ``williamson`` starts from it.  Its range is cond(V) <= ``MAX_CONDITION``;
beyond it float64 no longer resolves the spectrum: ``NumericDegenerateError``.

Stacks: ``GaussianState``, ``SymplecticTransform`` and
``WilliamsonDecomposition`` also hold N objects at once, with a leading state
axis (covariance N x 2m x 2m), and ``williamson`` decomposes such a stack in
one pass.  A single object is the N = 1 case of the same code.  Every check
runs on every row of the whole stack, in whatever order is cheapest.  A stack
raises the error its first failing row raises alone: when a check fails,
``_replay_rows`` rebuilds the rows alone and in order until one raises, which
costs time only on that failure path.  ``stack[i]`` is row i, ``stack[i:j]`` a
smaller stack; functions that take one state refuse a stack through
``require_single``.  Of the purity formulas, only the closed form
(``subtraction.relative_purity_closed_form``) takes a stack, of rows.

Gates: ``_gate_block`` checks a gate and builds its block.  The four gate
constructors, ``CircuitDescription`` (at construction) and
``circuit_to_gaussian`` (one state per circuit) all call it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NumericDegenerateError, UnphysicalStateError

#: tolerance of symplectic eigenvalues below 1 (cond(V) * eps where larger)
PHYSICALITY_TOL = 1e-9

#: largest covariance condition number cond(V) = lambda_max / lambda_min that
#: is accepted: about 40 dB of single-mode squeezing (cond = s^2)
MAX_CONDITION = 1e8

#: relative tolerance on covariance symmetry
SYMMETRY_TOL = 1e-12

#: tolerance on the symplectic-form invariant of transforms
SYMPLECTIC_TOL = 1e-10

_EPS = float(np.finfo(float).eps)  # a Python float: a product past float64 is inf, no warning


@lru_cache(maxsize=None)
def symplectic_form(num_modes: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form Omega = [[0, I], [-I, 0]] (read-only)."""
    omega = np.eye(2 * num_modes, k=num_modes) - np.eye(2 * num_modes, k=-num_modes)
    omega.flags.writeable = False
    return omega


def _stacked(a: np.ndarray, ndim: int) -> np.ndarray:
    """``a`` with a leading state axis: a single ``ndim``-D item becomes a stack of one."""
    return a if a.ndim > ndim else a[None]


def _replay_rows(exc: ValueError, count: int, alone):
    """Raise the error the first failing row of a stack raises alone.

    ``exc`` is what a check on the whole stack raised; an earlier row may
    fail a check that ran later.  ``alone(i)`` rebuilds row i by itself, for
    i = 0 .. count - 1, until one raises.  If none does, ``exc`` is raised.
    """
    for i in range(count):
        alone(i)
    raise exc


def require_single(obj, caller: str):
    """The check of every function that takes one state (or one row), not a stack."""
    if obj.stacked:
        raise ValueError(f"{caller} takes a single {type(obj).__name__}, not a stack; "
                         "pass one row, stack[i]")


def _rows(obj, index):
    """Row(s) ``index`` of a stack, as views.  Every check runs per row, so
    rows of a checked stack need no new check; a 0-d entry becomes a Python
    scalar, as the constructor stores it."""
    if not obj.stacked:
        raise TypeError(f"a single {type(obj).__name__} has no rows")
    out = object.__new__(type(obj))
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)[index]
        object.__setattr__(out, name, value.item() if isinstance(value, np.generic) else value)
    return out


def _vacuum_tolerance(cov: np.ndarray) -> list:
    """How far below 1 a symplectic eigenvalue of each covariance of a stack
    may round.

    An eigenvalue below zero by more than rounding is unphysical; one within
    rounding of zero, like any cond(V) > ``MAX_CONDITION``, is out of range
    unless the uncertainty relation lambda_min lambda_max >= 1 fails by more
    than that rounding, which is unphysical at any condition number.
    """
    lam = np.linalg.eigvalsh(cov)
    tol = []  # every check of a row before the next row: the first failing row raises
    for low, high in zip(lam[:, 0].tolist(), lam[:, -1].tolist()):
        rounding = cov.shape[-1] * _EPS * high
        if high <= 0.0 or low < -rounding:
            raise UnphysicalStateError(f"covariance is not positive definite ({low:.3e})")
        if low * MAX_CONDITION < high:
            if (low + rounding) * high < 1.0:
                raise UnphysicalStateError(
                    f"covariance eigenvalues {low:.3e} .. {high:.3e} violate the "
                    "uncertainty relation lambda_min lambda_max >= 1")
            raise NumericDegenerateError(
                f"covariance eigenvalues {low:.3e} .. {high:.3e}: "
                f"cond(V) > {MAX_CONDITION:.0e}")
        tol.append(max(PHYSICALITY_TOL, high / low * _EPS))
    return tol


def _normal_form(cov: np.ndarray):
    """(L, nu, E) of a covariance (or a stack) inside the supported range:
    V = L L^T, the spectrum nu sorted descending and the unit eigenvectors of
    the Hermitian ``i L^T Omega L``, whose eigenvalues are +/- nu (column i
    for +nu_i)."""
    m = cov.shape[-1] // 2
    chol = np.linalg.cholesky(cov)
    evals, evecs = np.linalg.eigh(1j * (chol.swapaxes(-1, -2) @ symplectic_form(m) @ chol))
    return chol, evals[..., m:][..., ::-1], evecs[..., m:][..., ::-1]


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a positive-definite matrix, one value per mode,
    sorted descending (errors as for ``GaussianState``; a stack of matrices
    gives one spectrum per row)."""
    cov = np.asarray(covariance, dtype=float)
    _vacuum_tolerance(_stacked(cov, 2))
    return _normal_form(cov)[1]


def _checked_covariance(cov: np.ndarray, disp: np.ndarray):
    """The checks of ``GaussianState`` on a stack; returns the symmetrized
    covariances and their normal form.

    Each check reduces every row with NumPy and compares the per-row values
    as Python floats, which costs less than further array calls on small
    stacks.
    """
    # a row's largest magnitude is finite exactly when all its entries are
    scale = np.abs(cov).max(axis=(1, 2)).tolist()
    shift = np.abs(disp).max(axis=1).tolist()
    if not all(map(math.isfinite, scale + shift)):
        raise UnphysicalStateError("covariance and displacement must be finite")
    asym = np.abs(cov - cov.swapaxes(-1, -2)).max(axis=(1, 2)).tolist()
    for a, c in zip(asym, scale):
        if a > SYMMETRY_TOL * max(c, 1.0):
            raise UnphysicalStateError("covariance matrix is not symmetric")
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    tol = _vacuum_tolerance(cov)
    normal = _normal_form(cov)
    for nu, t in zip(normal[1][:, -1].tolist(), tol):
        if nu < 1.0 - t:
            raise UnphysicalStateError(f"minimal symplectic eigenvalue {nu} is below 1")
    return cov, normal


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: covariance matrix plus displacement vector.

    Attributes:
        covariance: real symmetric 2m x 2m matrix, vacuum-normalized
            (vacuum covariance is the identity); N x 2m x 2m for a stack of
            N states.
        displacement: real 2m-vector of quadrature means,
            ``(2 Re<a_i>, 2 Im<a_i>)`` per mode; N x 2m for a stack.
    """

    covariance: np.ndarray
    displacement: np.ndarray
    # the normal form (L, nu, E) of the physicality check, which williamson reuses
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _nu: np.ndarray = field(init=False, repr=False, compare=False)
    _vecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        disp = np.asarray(self.displacement, dtype=float)
        if (cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2]
                or cov.shape[-1] % 2 or cov.size == 0):
            raise UnphysicalStateError(
                f"covariance must be 2m x 2m (N x 2m x 2m for a stack), got {cov.shape}")
        if disp.shape != cov.shape[:-1]:
            raise UnphysicalStateError(
                f"displacement shape {disp.shape} does not match covariance {cov.shape}"
            )
        try:
            sym, normal = _checked_covariance(_stacked(cov, 2), _stacked(disp, 1))
        except ValueError as exc:
            if cov.ndim == 3:
                _replay_rows(exc, len(cov), lambda i: GaussianState(cov[i], disp[i]))
            raise
        sym = sym.reshape(cov.shape)  # a new array: no copy needed
        sym.flags.writeable = False
        object.__setattr__(self, "covariance", sym)
        object.__setattr__(self, "displacement", _as_readonly(disp))
        chol, nu, vecs = normal if cov.ndim == 3 else (a[0] for a in normal)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_nu", nu)
        object.__setattr__(self, "_vecs", vecs)

    __getitem__ = _rows

    @property
    def stacked(self) -> bool:
        return self.covariance.ndim == 3

    @property
    def mode_count(self) -> int:
        return self.covariance.shape[-1] // 2


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear phase-space transform S with S Omega S^T = Omega (N x 2m x 2m
    for a stack)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if (mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]
                or mat.shape[-1] % 2 or mat.size == 0):
            raise ValueError(f"symplectic matrix must be 2m x 2m, got {mat.shape}")
        omega = symplectic_form(mat.shape[-1] // 2)
        stack = _stacked(mat, 2)
        # a row's largest magnitude is finite exactly when all its entries
        # are; a NaN defect would compare False against the bound below
        scale = np.abs(stack).max(axis=(1, 2)).tolist()
        try:
            if not all(map(math.isfinite, scale)):
                raise ValueError("symplectic matrix has non-finite entries")
            defect = np.abs(stack @ omega @ stack.swapaxes(-1, -2) - omega).max(axis=(1, 2))
            for d, c in zip(defect.tolist(), scale):
                if d > SYMPLECTIC_TOL * max(1.0, c * c):  # c * c overflows to inf, c ** 2 raises
                    raise ValueError(f"matrix is not symplectic (defect {d:.3e})")
        except ValueError as exc:
            if mat.ndim == 3:
                _replay_rows(exc, len(mat), lambda i: SymplecticTransform(mat[i]))
            raise
        object.__setattr__(self, "matrix", _as_readonly(mat))

    __getitem__ = _rows

    @property
    def stacked(self) -> bool:
        return self.matrix.ndim == 3

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[-1] // 2


@dataclass(frozen=True)
class ModeSelector:
    """Phase-space basis pair (g_x, g_p) singling out one bosonic mode.

    The pair must be orthonormal with ``g_p = Omega^T g_x`` so that the mode
    quadratures obey the canonical commutator ``[x_g, p_g] = 2i``.
    """

    basis_x: np.ndarray
    basis_p: np.ndarray

    def __post_init__(self):
        gx = np.asarray(self.basis_x, dtype=float)
        gp = np.asarray(self.basis_p, dtype=float)
        if gx.ndim != 1 or gx.shape != gp.shape or gx.size % 2:
            raise ValueError("selector vectors must be equal-length 2m vectors")
        if not (np.isfinite(gx).all() and np.isfinite(gp).all()):
            raise ValueError("selector vectors must be finite")
        m = gx.size // 2
        if abs(np.linalg.norm(gx) - 1.0) > 1e-10 or abs(np.linalg.norm(gp) - 1.0) > 1e-10:
            raise ValueError("selector vectors must be unit norm")
        if abs(gx @ gp) > 1e-10:
            raise ValueError("selector vectors must be orthogonal")
        if np.abs(gp - symplectic_form(m).T @ gx).max() > 1e-10:
            raise ValueError("selector pair must satisfy g_p = Omega^T g_x")
        object.__setattr__(self, "basis_x", _as_readonly(gx))
        object.__setattr__(self, "basis_p", _as_readonly(gp))

    @classmethod
    def for_mode(cls, mode: int, num_modes: int) -> "ModeSelector":
        """Selector for computational mode ``mode`` of an m-mode system."""
        _check_mode(mode, num_modes)
        gx = np.zeros(2 * num_modes)
        gp = np.zeros(2 * num_modes)
        gx[mode] = 1.0
        gp[num_modes + mode] = 1.0
        return cls(gx, gp)

    @classmethod
    def from_direction(cls, direction: np.ndarray) -> "ModeSelector":
        """Selector for the superposition mode along a phase-space direction:
        a finite 2m-vector of nonzero norm."""
        gx = np.asarray(direction, dtype=float)
        if gx.ndim != 1 or gx.size % 2:
            raise ValueError(f"direction must be a 2m-vector, got shape {gx.shape}")
        if not np.isfinite(gx).all():
            raise ValueError("direction must be finite")
        norm = np.linalg.norm(gx)
        if not 0.0 < norm < math.inf:
            raise ValueError(f"direction must have a finite nonzero norm, got {norm}")
        gx = gx / norm
        m = gx.size // 2
        return cls(gx, symplectic_form(m).T @ gx)

    @property
    def matrix(self) -> np.ndarray:
        """The 2m x 2 selector matrix with columns (g_x, g_p)."""
        return np.column_stack([self.basis_x, self.basis_p])


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Normal-mode factorization V = S diag(n, n) S^T with S symplectic
    (a stacked S with N x m noise factors for a stack)."""

    symplectic: SymplecticTransform
    noise_factors: np.ndarray = field(repr=True)

    def __post_init__(self):
        n = _as_readonly(self.noise_factors)
        matrix = self.symplectic.matrix
        modes = self.symplectic.mode_count
        expected = matrix.shape[:-2] + (modes,)
        if n.shape != expected:
            raise ValueError(
                f"noise_factors of shape {n.shape} for a {modes}-mode symplectic "
                f"transform: need one entry per mode, shape {expected}")
        object.__setattr__(self, "noise_factors", n)
        rows = _stacked(n, 1)
        try:
            if not np.isfinite(rows).all():
                raise ValueError(f"noise factors must be finite, got {n}")
            # the covariance's own tolerance, as GaussianState applies it
            tol = _vacuum_tolerance(_stacked(self.reconstruct(), 2))
            for k, (low, t) in enumerate(zip(rows.min(axis=1).tolist(), tol)):
                if low < 1.0 - t:
                    raise UnphysicalStateError(f"noise factors below vacuum: {rows[k]}")
            if (np.diff(rows, axis=1) > 1e-12).any():
                raise ValueError("noise factors must be sorted descending")
        except ValueError as exc:
            if n.ndim == 2:
                _replay_rows(exc, len(n),
                             lambda i: WilliamsonDecomposition(self.symplectic[i], n[i]))
            raise

    __getitem__ = _rows

    @property
    def stacked(self) -> bool:
        return self.noise_factors.ndim == 2

    def reconstruct(self) -> np.ndarray:
        s = self.symplectic.matrix
        d = np.concatenate([self.noise_factors, self.noise_factors], axis=-1)
        return (s * d[..., None, :]) @ s.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_vacuum(num_modes: int) -> GaussianState:
    """The m-mode vacuum: identity covariance, zero displacement."""
    if num_modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.eye(2 * num_modes), np.zeros(2 * num_modes))


def make_thermal(noise_factors) -> GaussianState:
    """Product of thermal modes with covariance diag(n_1..n_m, n_1..n_m).

    Noise factor 1 is vacuum; a single-mode thermal state with factor n has
    purity 1/n and mean photon number (n - 1) / 2.
    """
    n = np.asarray(noise_factors, dtype=float)
    if n.ndim != 1 or n.size < 1:
        raise ValueError("noise_factors must be a non-empty 1-D sequence")
    if np.any(n < 1.0):
        raise UnphysicalStateError(f"thermal noise factors must be >= 1, got {n}")
    return GaussianState(np.diag(np.concatenate([n, n])), np.zeros(2 * n.size))


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def db_to_variance_factor(db: float) -> float:
    """dB -> variance factor: s = 10**(db/10), so 10 dB means s = 10.

    A non-finite ``db``, or one whose factor overflows float64 or underflows
    it to 0, raises ValueError.
    """
    try:
        factor = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise ValueError(f"squeezing of {db} dB gives a non-finite or zero variance factor")
    return factor


def db_to_squeezing_parameter(db: float) -> float:
    """dB -> squeezing parameter r = ln(s)/2 with s = 10**(db/10)."""
    return 0.5 * np.log(db_to_variance_factor(db))


def _check_mode(mode, num_modes: int):
    if (isinstance(mode, bool) or not isinstance(mode, numbers.Integral)
            or not 0 <= mode < num_modes):
        raise ValueError(f"mode {mode!r} out of range for {num_modes} modes")


def _resolve_squeezing(r, db) -> float:
    """The squeezing parameter of a gate given by r or by db (the other is
    None); its variance factor e^(2|r|) must be a finite float64."""
    r = float(r) if r is not None else db_to_squeezing_parameter(db)
    try:
        finite = math.isfinite(math.exp(2.0 * abs(r)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"squeezing parameter r = {r} gives a non-finite variance factor")
    return r


#: each gate kind's number of modes, the parameter-name sets it accepts and
#: how to say so; a displacement's missing re or im is 0
_GATES = {
    "displacement": (1, ({"re", "im"}, {"re"}, {"im"}), "re, im or both"),
    "phase_rotation": (1, ({"theta"},), "theta"),
    "single_mode_squeezer": (1, ({"r"}, {"db"}), "r or db (give exactly one of r or db)"),
    "two_mode_squeezer": (2, ({"r"}, {"db"}), "r or db (give exactly one of r or db)"),
    "beamsplitter": (2, ({"transmittance"},), "transmittance"),
}


def _gate_block(kind: str, params: dict, modes, num_modes: int):
    """Check one gate and return its symplectic block, or None for a displacement.

    Checked: a known kind, its number of distinct modes, all in range, its
    parameter names; real, finite, non-bool values; a displacement whose
    phase-space shift is finite (else ``NumericDegenerateError``); a
    transmittance in [0, 1] and a squeezing with a finite variance factor.
    The block acts on ``(x_modes, p_modes)`` in the order of ``modes``, built
    from Python floats, so a float32 or float16 parameter gives its float64
    value's block.
    """
    if kind not in _GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    arity, param_sets, accepted = _GATES[kind]
    for mode in modes:
        _check_mode(mode, num_modes)
    if len(modes) != arity or len(set(modes)) != arity:
        raise ValueError(f"{kind} needs {arity} distinct mode(s), got {tuple(modes)}")
    if set(params) not in param_sets:
        raise ValueError(f"{kind} takes parameters {accepted}, got {sorted(params)}")
    for key, value in params.items():
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{kind} parameter {key} = {value!r} is not finite or not real "
                             "(bools, strings and non-finite values are refused)")
    p = {key: float(value) for key, value in params.items()}
    if kind == "displacement":
        # the phase-space shift is (2 re, 2 im): Python floats, so no warning
        if not all(math.isfinite(2.0 * v) for v in p.values()):
            raise NumericDegenerateError(
                f"displacement {p} overflows float64 in phase space (2 Re<a>, 2 Im<a>)")
        return None
    if kind == "phase_rotation":
        c, s = np.cos(p["theta"]), np.sin(p["theta"])
        return np.array([[c, s], [-s, c]])
    if kind == "beamsplitter":
        t = p["transmittance"]
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmittance must lie in [0, 1], got {t}")
        ct, st = np.sqrt(t), np.sqrt(1.0 - t)
        return np.array([[ct, st, 0.0, 0.0], [-st, ct, 0.0, 0.0],
                         [0.0, 0.0, ct, st], [0.0, 0.0, -st, ct]])
    r = _resolve_squeezing(p.get("r"), p.get("db"))
    if kind == "single_mode_squeezer":
        return np.diag([np.exp(r), np.exp(-r)])
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array([[ch, sh, 0.0, 0.0], [sh, ch, 0.0, 0.0],
                     [0.0, 0.0, ch, -sh], [0.0, 0.0, -sh, ch]])


def _embed(block: np.ndarray, modes, num_modes: int) -> np.ndarray:
    """The 2m x 2m identity with ``block`` on the x and p rows and columns of ``modes``."""
    s = np.eye(2 * num_modes)
    idx = [*modes, *(num_modes + j for j in modes)]
    s[np.ix_(idx, idx)] = block
    return s


def _gate_transform(kind: str, params: dict, modes, num_modes: int) -> SymplecticTransform:
    """The checked gate on all m modes: what every gate constructor returns."""
    return SymplecticTransform(_embed(_gate_block(kind, params, modes, num_modes), modes,
                                      num_modes))


def _squeezing(r, db) -> dict:
    """A squeezer's parameter dict from the constructor's r and db, given or None."""
    return {key: value for key, value in (("r", r), ("db", db)) if value is not None}


def phase_rotation(theta: float, mode: int, num_modes: int) -> SymplecticTransform:
    """Rotation: x -> cos(theta) x + sin(theta) p, p -> cos(theta) p - sin(theta) x."""
    return _gate_transform("phase_rotation", {"theta": theta}, (mode,), num_modes)


def single_mode_squeezer(
    r: float | None = None, *, db: float | None = None, mode: int = 0, num_modes: int = 1
) -> SymplecticTransform:
    """Squeezer acting as x -> sqrt(s) x, p -> p / sqrt(s) with s = exp(2r).

    Exactly one of ``r`` (squeezing parameter) or ``db`` may be given.
    """
    return _gate_transform("single_mode_squeezer", _squeezing(r, db), (mode,), num_modes)


def two_mode_squeezer(
    r: float | None = None,
    *,
    db: float | None = None,
    mode_a: int,
    mode_b: int,
    num_modes: int,
) -> SymplecticTransform:
    """Two-mode squeezer with +sinh coupling on x-x and -sinh on p-p.

    On a vacuum pair this produces cosh(2r) diagonal blocks and
    +/- sinh(2r) cross blocks; either marginal is thermal with n = cosh(2r).
    The x-x coupling sign is a fixed convention of this package.
    """
    return _gate_transform("two_mode_squeezer", _squeezing(r, db), (mode_a, mode_b), num_modes)


def beamsplitter(
    transmittance: float, mode_a: int, mode_b: int, num_modes: int
) -> SymplecticTransform:
    """Beamsplitter: x_a -> sqrt(t) x_a + sqrt(1-t) x_b (same on p)."""
    return _gate_transform("beamsplitter", {"transmittance": transmittance}, (mode_a, mode_b),
                           num_modes)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """One circuit element: kind, parameter dict, target modes."""

    kind: str
    params: dict
    modes: tuple

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "modes": list(self.modes)}

    @classmethod
    def from_dict(cls, data: dict) -> "Gate":
        return cls(data["kind"], dict(data["params"]), tuple(data["modes"]))


@dataclass(frozen=True)
class CircuitDescription:
    """Ordered gate list on a fixed number of modes; JSON round-trippable."""

    mode_count: int
    gates: tuple

    def __post_init__(self):
        # circuits enter here from JSON: both routes may assume valid gates
        m = self.mode_count
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"mode_count must be a positive integer, got {m!r}")
        for gate in self.gates:
            _gate_block(gate.kind, gate.params, gate.modes, m)
        # Python numbers: both routes and the JSON text read the checked values
        object.__setattr__(self, "gates", tuple(
            Gate(g.kind, {key: float(v) for key, v in g.params.items()},
                 tuple(int(j) for j in g.modes)) for g in self.gates))

    def to_json(self) -> str:
        return json.dumps(
            {"mode_count": self.mode_count,
             "gates": [g.to_dict() for g in self.gates]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CircuitDescription":
        data = json.loads(text)
        return cls(data["mode_count"], tuple(Gate.from_dict(g) for g in data["gates"]))


def circuit_to_gaussian(circuit: CircuitDescription) -> GaussianState:
    """Covariance-route realization of a circuit: its gates multiply into one
    symplectic S and displacement d, checked once as GaussianState(S S^T, d)."""
    m = circuit.mode_count
    s, d = np.eye(2 * m), np.zeros(2 * m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for gate in circuit.gates:
            block = _gate_block(gate.kind, gate.params, gate.modes, m)
            if block is None:  # a displacement by <a> = re + i im
                j = gate.modes[0]
                d[j] += 2.0 * gate.params.get("re", 0.0)
                d[m + j] += 2.0 * gate.params.get("im", 0.0)
            else:
                g = _embed(block, gate.modes, m)
                s, d = g @ s, g @ d
        cov = s @ s.T
    if not (np.isfinite(cov).all() and np.isfinite(d).all()):
        raise NumericDegenerateError("the circuit's moments overflow float64")
    return GaussianState(cov, d)


# ---------------------------------------------------------------------------
# state operations
# ---------------------------------------------------------------------------

def apply_symplectic(state: GaussianState, transform: SymplecticTransform) -> GaussianState:
    """V -> S V S^T and displacement -> S displacement. Purity is preserved."""
    require_single(state, "apply_symplectic")
    require_single(transform, "apply_symplectic")
    s = transform.matrix
    if s.shape[0] != 2 * state.mode_count:
        raise ValueError(
            f"{transform.mode_count}-mode transform applied to "
            f"{state.mode_count}-mode state"
        )
    return GaussianState(s @ state.covariance @ s.T, s @ state.displacement)


def apply_displacement(state: GaussianState, delta) -> GaussianState:
    """Shift the displacement vector by ``delta``; covariance unchanged."""
    require_single(state, "apply_displacement")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != state.displacement.shape:
        raise ValueError("displacement vector has wrong length")
    return GaussianState(state.covariance, state.displacement + delta)


def reduce_modes(state: GaussianState, modes) -> GaussianState:
    """Marginal state on a subset of modes (partial trace over the rest)."""
    require_single(state, "reduce_modes")
    modes = list(modes)
    if not modes:
        raise ValueError("mode subset must be non-empty")
    m = state.mode_count
    for j in modes:
        _check_mode(j, m)
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode indices")
    idx = np.array(modes + [m + j for j in modes])
    return GaussianState(
        state.covariance[np.ix_(idx, idx)], state.displacement[idx]
    )


def mean_photon(state: GaussianState, selector: ModeSelector) -> float:
    """Mean photon number of the selected mode: (tr V_g - 2 + |a_g|^2) / 4."""
    require_single(state, "mean_photon")
    g = selector.matrix
    vg = g.T @ state.covariance @ g
    ag = g.T @ state.displacement
    return float((np.trace(vg) - 2.0 + ag @ ag) / 4.0)


def purity_gaussian(state: GaussianState) -> float:
    """Purity of a Gaussian state, 1 / sqrt(det V)."""
    require_single(state, "purity_gaussian")
    sign, logdet = np.linalg.slogdet(state.covariance)
    if sign <= 0:
        raise UnphysicalStateError("covariance determinant is not positive")
    return float(np.exp(-0.5 * logdet))


def gaussian_wigner_fn(state: GaussianState):
    """Vectorized evaluator for the Gaussian Wigner function.

    Returns a callable mapping an array of shape (..., 2m) to values of
    exp(-(b - a)^T V^-1 (b - a) / 2) / ((2 pi)^m sqrt(det V)).
    """
    from scipy.linalg import solve_triangular  # the only scipy use: import it here

    require_single(state, "gaussian_wigner_fn")
    cov = state.covariance
    mean = state.displacement
    m = state.mode_count
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or logdet < -690.0:  # det underflows float64
        raise NumericDegenerateError("covariance determinant degenerate")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericDegenerateError("covariance not positive definite") from exc
    log_norm = -(m * np.log(2.0 * np.pi) + 0.5 * logdet)

    def wigner(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        flat = pts.reshape(-1, 2 * m) - mean
        # quadratic form via the Cholesky factor: |L^-1 (b - a)|^2
        z = solve_triangular(chol, flat.T, lower=True, check_finite=False)
        q = np.einsum("ij,ij->j", z, z)
        vals = np.exp(-0.5 * q + log_norm)
        return float(vals[0]) if scalar else vals.reshape(pts.shape[:-1])

    return wigner


def wigner_gaussian_at(state: GaussianState, point) -> float | np.ndarray:
    """Gaussian Wigner function at one phase-space point (or a batch)."""
    require_single(state, "wigner_gaussian_at")
    return gaussian_wigner_fn(state)(point)


# ---------------------------------------------------------------------------
# normal-mode decomposition
# ---------------------------------------------------------------------------

def williamson(state_or_cov) -> WilliamsonDecomposition:
    """Decompose V = S diag(n_1..n_m, n_1..n_m) S^T with S symplectic.

    With V = L L^T and E the +n eigenvectors of ``i L^T Omega L`` (see
    ``_normal_form``), S = L sqrt(2) [Re E, -Im E] diag(n, n)^(-1/2).  The
    gauge is deterministic: noise factors sorted descending, and each
    normal-mode plane rotated so that mode i's own 2x2 block of S (rows and
    columns i, m + i) is symmetric with non-negative trace; for one mode
    S = (V / n)^(1/2).  Accepts a GaussianState or a bare covariance matrix,
    which is validated as the covariance of an undisplaced GaussianState; a
    stack of either gives a stacked decomposition, row by row.
    """
    if not isinstance(state_or_cov, GaussianState):
        cov = np.asarray(state_or_cov, dtype=float)
        state_or_cov = GaussianState(cov, np.zeros(cov.shape[:-1]))
    state = state_or_cov
    cov = _stacked(state.covariance, 2)
    try:
        chol, nu, vecs = _stacked(state._chol, 2), _stacked(state._nu, 1), _stacked(state._vecs, 2)
        m = nu.shape[-1]
        scale = np.concatenate([nu, nu], axis=-1)
        basis = np.sqrt(2.0) * np.concatenate([vecs.real, -vecs.imag], axis=-1)
        s = chol @ basis / np.sqrt(scale)[:, None, :]
        i = np.arange(m)  # turn plane i by the angle of (trace, asymmetry) of its block
        cos, sin = s[:, i, i] + s[:, m + i, m + i], s[:, i, m + i] - s[:, m + i, i]
        norm = np.hypot(cos, sin)
        cos[norm == 0.0], norm[norm == 0.0] = 1.0, 1.0  # a vanishing block: any angle
        cos, sin = (cos / norm)[:, None, :], (sin / norm)[:, None, :]
        x, p = s[..., :m], s[..., m:]
        s = np.concatenate([x * cos + p * sin, p * cos - x * sin], axis=-1)
        recon = (s * scale[:, None, :]) @ s.swapaxes(-1, -2)
        misfit = np.abs(recon - cov).max(axis=(1, 2)).tolist()
        for e, c in zip(misfit, np.abs(cov).max(axis=(1, 2)).tolist()):
            err = e / max(1.0, c)
            if err > 1e-9:
                raise NumericDegenerateError(f"normal-mode reconstruction failed ({err:.3e})")
        if not state.stacked:
            s, nu = s[0], nu[0]
        return WilliamsonDecomposition(SymplecticTransform(s), nu)
    except ValueError as exc:
        if state.stacked:
            _replay_rows(exc, len(cov), lambda i: williamson(state[i]))
        raise
