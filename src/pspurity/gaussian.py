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
raises the error its first failing row raises alone: the checks run inside
``_first_failing_row``, which on a failure rebuilds the rows alone and in
order until one raises, so it costs time only on that failure path.  Every
stackable class (these three, ``ModeSelector``, one direction per state of a
stack, and ``subtraction``'s ``BogoliubovRow``, ``SubtractedState`` and
``MomentReport``) inherits the row protocol from
``_Stack``: ``stacked``, from the field that carries the state axis, then
``stack[i]`` for row i, ``stack[i:j]`` for a smaller stack, and
``for row in stack`` for the rows ``stack[i]`` gives, in one pass.  Functions
that take one state refuse a stack through ``require_single``.  Of the purity
formulas, the closed form (``subtraction.relative_purity_closed_form``) takes
a stack of rows, and the prefactor-moment route (``subtract_photon``,
``purity_subtracted``, ``moments_subtracted``) a stack of states.

Gates: ``_gate_block`` checks a gate and builds its block.  The four gate
constructors and ``CircuitDescription`` call it; a circuit keeps the blocks
its check built, and ``circuit_to_gaussian`` multiplies them.
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


class _first_failing_row:
    """Make a stack of ``count`` rows raise the error its first failing row
    raises alone: a context for the checks of a stack.

    A check on the whole stack may fail on a later row than one that fails a
    check run after it.  On a ValueError inside the block, ``alone(i)``
    rebuilds row i by itself, for i = 0 .. count - 1, until one raises; if
    none does, the block's own error stands.  A single object passes
    count = 0.  The replay costs time only when a check fails.
    """

    def __init__(self, count: int, alone):
        self.count, self.alone = count, alone

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValueError):
            for i in range(self.count):
                self.alone(i)


def require_single(obj, caller: str):
    """The check of every function that takes one state (or one row), not a stack."""
    if obj.stacked:
        raise ValueError(f"{caller} takes a single {type(obj).__name__}, not a stack; "
                         "pass one row, stack[i]")


class _Stack:
    """The row protocol of every stackable class.

    A subclass is a frozen dataclass whose ``_AXIS`` names the field that
    carries the state axis and that field's ndim for one object; a stack's
    field has one more, leading, axis.  ``stack[i]`` is row i and
    ``stack[i:j]`` a smaller stack, as views: every check runs per row, so
    rows of a checked stack need no new check.  ``iter(stack)`` yields the
    rows ``stack[i]`` gives, in one pass.  A single object has no rows.
    """

    @property
    def stacked(self) -> bool:
        name, ndim = self._AXIS
        return getattr(self, name).ndim > ndim

    def _fields(self) -> list:
        if not self.stacked:
            raise TypeError(f"a single {type(self).__name__} has no rows")
        return list(self.__dataclass_fields__)

    def __getitem__(self, index):
        out = object.__new__(type(self))
        for name in self._fields():
            value = getattr(self, name)[index]
            # a 0-d entry becomes a Python scalar, as the constructor stores it
            object.__setattr__(out, name, value.item() if isinstance(value, np.generic) else value)
        return out

    def __iter__(self):
        names = self._fields()  # here, so that iter() of a single object raises
        # a 1-D field becomes Python scalars with one tolist, an N-D field row views
        columns = [c.tolist() if isinstance(c, np.ndarray) and c.ndim == 1 else c
                   for c in (getattr(self, name) for name in names)]

        def rows():
            for values in zip(*columns):
                out = object.__new__(type(self))
                for name, value in zip(names, values):
                    object.__setattr__(out, name, value)
                yield out

        return rows()


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
    sorted descending (errors as for ``GaussianState``, but no value need
    reach 1; a stack of matrices gives one spectrum per row)."""
    cov = _real_array(covariance, UnphysicalStateError)
    disp = np.zeros(cov.shape[:-1])
    _check_shapes(cov, disp)
    with _first_failing_row(len(cov) if cov.ndim == 3 else 0,
                            lambda i: symplectic_eigenvalues(cov[i])):
        nu = _checked_covariance(_stacked(cov, 2), _stacked(disp, 1))[1][1]
    return nu if cov.ndim == 3 else nu[0]


def _check_shapes(cov: np.ndarray, disp: np.ndarray):
    """The shape checks of ``GaussianState``, which run before its stack checks."""
    if (cov.ndim not in (2, 3) or cov.shape[-1] != cov.shape[-2]
            or cov.shape[-1] % 2 or cov.size == 0):
        raise UnphysicalStateError(
            f"covariance must be 2m x 2m (N x 2m x 2m for a stack), got {cov.shape}")
    if disp.shape != cov.shape[:-1]:
        raise UnphysicalStateError(
            f"displacement shape {disp.shape} does not match covariance {cov.shape}")


def _checked_covariance(cov: np.ndarray, disp: np.ndarray):
    """The checks of ``GaussianState`` on a stack, but nu >= 1; returns the
    symmetrized covariances, their normal form and ``_vacuum_tolerance``.

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
    return cov, _normal_form(cov), tol


def _real_array(value, error=ValueError) -> np.ndarray:
    """``value`` as a float64 array, the one cast of every checking
    constructor.  Only bool, integer and float entries are taken: any other
    dtype (complex, which would lose its imaginary part, strings, bytes,
    objects, dates and times) raises ``error`` instead of being parsed or
    cast."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise error(f"entries must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GaussianState(_Stack):
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
        cov = _real_array(self.covariance, UnphysicalStateError)
        disp = _real_array(self.displacement, UnphysicalStateError)
        _check_shapes(cov, disp)
        with _first_failing_row(len(cov) if cov.ndim == 3 else 0,
                                lambda i: GaussianState(cov[i], disp[i])):
            sym, normal, tol = _checked_covariance(_stacked(cov, 2), _stacked(disp, 1))
            for nu, t in zip(normal[1][:, -1].tolist(), tol):
                if nu < 1.0 - t:
                    raise UnphysicalStateError(f"minimal symplectic eigenvalue {nu} is below 1")
        sym = sym.reshape(cov.shape)  # a new array: no copy needed
        sym.flags.writeable = False
        object.__setattr__(self, "covariance", sym)
        object.__setattr__(self, "displacement", _as_readonly(disp))
        chol, nu, vecs = normal if cov.ndim == 3 else (a[0] for a in normal)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_nu", nu)
        object.__setattr__(self, "_vecs", vecs)

    _AXIS = ("covariance", 2)

    @property
    def mode_count(self) -> int:
        return self.covariance.shape[-1] // 2


@dataclass(frozen=True)
class SymplecticTransform(_Stack):
    """A linear phase-space transform S with S Omega S^T = Omega (N x 2m x 2m
    for a stack)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _real_array(self.matrix)
        if (mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]
                or mat.shape[-1] % 2 or mat.size == 0):
            raise ValueError(f"symplectic matrix must be 2m x 2m, got {mat.shape}")
        omega = symplectic_form(mat.shape[-1] // 2)
        stack = _stacked(mat, 2)
        # a row's largest magnitude is finite exactly when all its entries
        # are; a NaN defect would compare False against the bound below
        scale = np.abs(stack).max(axis=(1, 2)).tolist()
        with _first_failing_row(len(mat) if mat.ndim == 3 else 0,
                                lambda i: SymplecticTransform(mat[i])):
            if not all(map(math.isfinite, scale)):
                raise ValueError("symplectic matrix has non-finite entries")
            defect = np.abs(stack @ omega @ stack.swapaxes(-1, -2) - omega).max(axis=(1, 2))
            for d, c in zip(defect.tolist(), scale):
                if d > SYMPLECTIC_TOL * max(1.0, c * c):  # c * c overflows to inf, c ** 2 raises
                    raise ValueError(f"matrix is not symplectic (defect {d:.3e})")
        object.__setattr__(self, "matrix", _as_readonly(mat))

    _AXIS = ("matrix", 2)

    @property
    def mode_count(self) -> int:
        return self.matrix.shape[-1] // 2


@dataclass(frozen=True)
class ModeSelector(_Stack):
    """The bosonic mode g along a phase-space direction g_x.

    Built from a finite 2m-vector of nonzero norm, stored normalized as
    ``basis_x``.  The conjugate quadrature ``basis_p`` = g_p = Omega^T g_x
    follows from it, so the mode quadratures obey the canonical commutator
    ``[x_g, p_g] = 2i``.  An N x 2m array gives a stack of N selectors, each
    direction normalized alone, for a stack of N states.
    """

    basis_x: np.ndarray
    basis_p: np.ndarray = field(init=False)

    def __post_init__(self):
        gx = _real_array(self.basis_x)
        if gx.ndim not in (1, 2) or gx.shape[-1] % 2 or gx.ndim == 2 and not len(gx):
            raise ValueError(f"direction must be a 2m-vector (N x 2m for a stack), "
                             f"got shape {gx.shape}")
        rows = _stacked(gx, 1)
        # sqrt(g.g), as np.linalg.norm takes it; a norm past float64 is refused below
        with np.errstate(over="ignore"):
            norm = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
        for i, value in enumerate(norm.tolist()):  # NaN or inf entries fail here too
            if not 0.0 < value < math.inf:
                if not np.isfinite(rows[i]).all():
                    raise ValueError("direction must be finite")
                raise ValueError(f"direction must have a finite nonzero norm, got {value}")
        gx = (rows / norm[:, None]).reshape(gx.shape)
        gx.flags.writeable = False  # a new array: no copy needed
        gp = gx @ symplectic_form(gx.shape[-1] // 2)  # Omega^T g_x, row by row
        gp.flags.writeable = False
        object.__setattr__(self, "basis_x", gx)
        object.__setattr__(self, "basis_p", gp)

    _AXIS = ("basis_x", 1)

    @classmethod
    def for_mode(cls, mode, num_modes: int) -> "ModeSelector":
        """Selector for computational mode ``mode`` of an m-mode system; a 1-D
        sequence of modes gives a stack, one selector per entry."""
        stacked = not _is_integer(mode) and np.ndim(mode) > 0
        modes = list(mode) if stacked else mode
        for j in modes if stacked else (mode,):
            _check_mode(j, num_modes)
        return cls(np.eye(2 * num_modes)[modes])  # a row of the identity per mode

    @property
    def matrix(self) -> np.ndarray:
        """The 2m x 2 selector matrix with columns (g_x, g_p) (N x 2m x 2 for a stack)."""
        return np.stack([self.basis_x, self.basis_p], axis=-1)


@dataclass(frozen=True)
class WilliamsonDecomposition(_Stack):
    """Normal-mode factorization V = S diag(n, n) S^T with S symplectic
    (a stacked S with N x m noise factors for a stack)."""

    symplectic: SymplecticTransform
    noise_factors: np.ndarray = field(repr=True)

    def __post_init__(self):
        n = _as_readonly(_real_array(self.noise_factors))
        matrix = self.symplectic.matrix
        modes = self.symplectic.mode_count
        expected = matrix.shape[:-2] + (modes,)
        if n.shape != expected:
            raise ValueError(
                f"noise_factors of shape {n.shape} for a {modes}-mode symplectic "
                f"transform: need one entry per mode, shape {expected}")
        object.__setattr__(self, "noise_factors", n)
        rows = _stacked(n, 1)
        with _first_failing_row(len(n) if n.ndim == 2 else 0,
                                lambda i: WilliamsonDecomposition(self.symplectic[i], n[i])):
            if not np.isfinite(rows).all():
                raise ValueError(f"noise factors must be finite, got {n}")
            # the covariance's own tolerance, as GaussianState applies it
            tol = _vacuum_tolerance(_stacked(self.reconstruct(), 2))
            for k, (low, t) in enumerate(zip(rows.min(axis=1).tolist(), tol)):
                if low < 1.0 - t:
                    raise UnphysicalStateError(f"noise factors below vacuum: {rows[k]}")
            if (np.diff(rows, axis=1) > 1e-12).any():
                raise ValueError("noise factors must be sorted descending")

    _AXIS = ("noise_factors", 1)

    def reconstruct(self) -> np.ndarray:
        s = self.symplectic.matrix
        d = np.concatenate([self.noise_factors, self.noise_factors], axis=-1)
        return (s * d[..., None, :]) @ s.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def make_vacuum(num_modes: int) -> GaussianState:
    """The m-mode vacuum: identity covariance, zero displacement."""
    if not _is_integer(num_modes) or num_modes < 1:
        raise ValueError(f"num_modes must be an integer of at least 1, got {num_modes!r}")
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


def _is_integer(value) -> bool:
    """An integer of any integral type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_mode(mode, num_modes: int):
    if not _is_integer(mode) or not 0 <= mode < num_modes:
        raise ValueError(f"mode {mode!r} out of range for {num_modes} modes")


def _mode_subset(modes, num_modes: int) -> list:
    """The check of every function that traces modes out, on either route: a
    non-empty sequence of distinct modes of an m-mode state, as a list."""
    try:
        subset = list(modes)
    except TypeError:  # an int, say: not a sequence
        raise ValueError(f"modes must be a sequence of mode indices, got {modes!r}") from None
    if not subset:
        raise ValueError("mode subset must be non-empty")
    for j in subset:
        _check_mode(j, num_modes)
    if len(set(subset)) != len(subset):
        raise ValueError("duplicate mode indices")
    return subset


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
    # each gate's symplectic block (None for a displacement), which circuit_to_gaussian multiplies
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # circuits enter here from JSON: both routes may assume valid gates
        m = self.mode_count
        if not _is_integer(m) or m < 1:
            raise ValueError(f"mode_count must be a positive integer, got {m!r}")
        object.__setattr__(self, "_blocks", tuple(
            _gate_block(gate.kind, gate.params, gate.modes, m) for gate in self.gates))
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
    """Covariance-route realization of a circuit: the blocks of its checked
    gates multiply into one symplectic S and displacement d, checked once as
    GaussianState(S S^T, d)."""
    m = circuit.mode_count
    s, d = np.eye(2 * m), np.zeros(2 * m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for gate, block in zip(circuit.gates, circuit._blocks):
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
    m = state.mode_count
    modes = _mode_subset(modes, m)
    idx = np.array(modes + [m + j for j in modes])
    return GaussianState(
        state.covariance[np.ix_(idx, idx)], state.displacement[idx]
    )


def _check_selector(state: GaussianState, selector: ModeSelector):
    """The check of every function that applies a selector to a state (or a
    stack): a stack of selectors needs a stack of states of its length."""
    if selector.basis_x.shape[-1] != 2 * state.mode_count:
        raise ValueError(f"selector dimension does not match the state ({state.mode_count} modes)")
    if selector.stacked and (not state.stacked or len(state.covariance) != len(selector.basis_x)):
        got = f"{len(state.covariance)} states" if state.stacked else "a single state"
        raise ValueError(f"a stack of {len(selector.basis_x)} selectors needs a stack of as "
                         f"many states, got {got}")


def _selected_mode(cov: np.ndarray, disp: np.ndarray, g: np.ndarray) -> tuple:
    """The mean photon numbers (tr V_g - 2 + |a_g|^2) / 4 of the selected
    mode of a stack of covariances (N x 2m x 2m) and displacements (N x 2m),
    an N-vector, with V_g = G^T V G (N x 2 x 2) and a_g = G^T a (N x 2 x 1)
    for one selector matrix G (2m x 2) or a stack of them.  No range check:
    past float64 a mean is inf or NaN (with a warning unless the caller
    ignores it)."""
    gt = g.swapaxes(-1, -2)
    vg = gt @ cov @ g
    ag = gt @ disp[..., None]  # one gemv per row
    photons = (vg[:, 0, 0] + vg[:, 1, 1] - 2.0 + (ag.swapaxes(-1, -2) @ ag)[:, 0, 0]) / 4.0
    return photons, vg, ag


def mean_photon(state: GaussianState, selector: ModeSelector) -> float:
    """Mean photon number of the selected mode: (tr V_g - 2 + |a_g|^2) / 4.

    A value past float64 raises ``NumericDegenerateError``."""
    require_single(state, "mean_photon")
    require_single(selector, "mean_photon")
    _check_selector(state, selector)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        photons = _selected_mode(state.covariance[None], state.displacement[None],
                                 selector.matrix)[0].item()
    if not math.isfinite(photons):
        raise NumericDegenerateError(
            f"mean photon number {photons} of the selected mode: past float64")
    return photons


def _purity_gaussian(covariance: np.ndarray) -> np.ndarray:
    """1 / sqrt(det V) of a covariance or of each of a stack."""
    return np.exp(-0.5 * np.linalg.slogdet(covariance)[1])


def purity_gaussian(state: GaussianState) -> float:
    """Purity of a Gaussian state, 1 / sqrt(det V)."""
    require_single(state, "purity_gaussian")
    return float(_purity_gaussian(state.covariance))


def gaussian_wigner_fn(state: GaussianState):
    """Vectorized evaluator for the Gaussian Wigner function.

    Returns a callable mapping an array of shape (..., 2m) to values of
    exp(-(b - a)^T V^-1 (b - a) / 2) / ((2 pi)^m sqrt(det V)).  The quadratic
    form is |L^-1 (b - a)|^2 with L the Cholesky factor of V that the
    state's physicality check computed.  A checked state has det V =
    prod nu_i^2 >= (1 - tol)^(2m), so det V is positive and far from
    underflow.
    """
    require_single(state, "gaussian_wigner_fn")
    chol = state._chol
    mean = state.displacement
    m = state.mode_count
    log_norm = -(m * np.log(2.0 * np.pi) + 0.5 * np.linalg.slogdet(state.covariance)[1])

    def wigner(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar = pts.ndim == 1
        flat = pts.reshape(-1, 2 * m) - mean
        z = np.linalg.solve(chol, flat.T)
        q = np.einsum("ij,ij->j", z, z)
        vals = np.exp(-0.5 * q + log_norm)
        return float(vals[0]) if scalar else vals.reshape(pts.shape[:-1])

    return wigner


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
        cov = _real_array(state_or_cov, UnphysicalStateError)
        state_or_cov = GaussianState(cov, np.zeros(cov.shape[:-1]))
    state = state_or_cov
    cov = _stacked(state.covariance, 2)
    with _first_failing_row(len(cov) if state.stacked else 0, lambda i: williamson(state[i])):
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
