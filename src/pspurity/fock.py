"""Truncated number-basis oracle.

Brute-force verification backend with one gate engine: a circuit of the
five standard gates is run in a truncated product Fock basis, each gate as
the exact exponential of its generator on the sectors of its conserved
number, which are tridiagonal chains stated in closed form: a displacement
is one chain n -> n + 1, a single-mode squeezer conserves n mod 2 along
n -> n + 2, a two-mode squeezer n_a - n_b along (n_a + 1, n_b + 1), a
beamsplitter n_a + n_b along (n_a + 1, n_b - 1), and a phase rotation is
diagonal.  Row-major order over the gate's modes runs up every chain, so
each chain is a strided set of the amplitude matrix's rows, found with no
sort.  A chain's generator is a real antisymmetric tridiagonal with a zero
diagonal (up to a diagonal phase), whose exponential follows from the SVD
of a bidiagonal half the chain's size; a gate's occupied chains go through
one stacked NumPy SVD and four batched real products.  Only the chains that
hold amplitude are exponentiated; an empty chain maps to exact zeros, so
skipping it is exact.
A Gaussian state's centered part is compiled to such a circuit: ancilla
two-mode squeezers purify its thermal normal modes (every measurement
helper traces the ancillas out and takes only physical modes, those
``FockState.mode_count`` counts), Bloch-Messiah and beamsplitter meshes
give its symplectic part.  Its displacement is not a gate: the state
carries it as a frame, ``FockState.frame`` = beta, and stands for
D(beta)|amplitudes>.  Since a D(beta) = D(beta)(a + beta), photon
subtraction applies a + beta to the amplitudes, a as a row shift along the
mode, and keeps the frame; a mean gains beta, a variance and a purity do
not see it, and purities come from partial traces (the smaller-side Gram
matrix).  The module needs NumPy alone.  Nothing here shares code with the
covariance-matrix purity and moment machinery, which is the point; the
covariance route only sizes the initial cutoffs, supplies the normal modes
of a Gaussian input and checks a mode or a mode subset for both routes.

Truncation bookkeeping: unitaries of truncated anti-Hermitian generators
preserve the norm exactly, so lost-norm is not a usable error signal.  The
reported ``deficiency`` is instead the largest top-level occupation seen on
any mode after any gate.  Both preparation routes size their own cutoffs:
they start from a photon-number estimate and grow every mode whose
deficiency exceeds ``LEAKAGE_TOL`` to the cutoff a geometric tail through
its measured leak would need (its ratio read from the mode's last two
leaks once it has grown; at least one level more, at most twice as many),
within the memory budget, and record on the state how many runs that took
(``attempts``).

Quadrature moments come from the ladder operators: <a>, <a^2> and <a^dag a>
of the amplitudes are sums over neighbouring rows of the mode-first
amplitude matrix, so no reduced density matrix is formed; the variances
are read in the centered frame, and the means and photon number add beta.
"""

from __future__ import annotations

import math
import numbers
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericDegenerateError,
    SubtractionFromVacuumError,
    TruncationInsufficientError,
)
from .gaussian import (
    CircuitDescription,
    Gate,
    GaussianState,
    _check_mode,
    _mode_subset,
    _resolve_squeezing,
    circuit_to_gaussian,
    require_single,
    williamson,
)

#: largest top-level occupation a prepared state may carry on any mode
LEAKAGE_TOL = 1e-8

MEMORY_ENV_VAR = "PSPURITY_FOCK_MEMORY_MB"
DEFAULT_MEMORY_MB = 2048.0


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode Fock cutoffs: integers of at least 2, not bools."""

    cutoffs: tuple

    def __post_init__(self):
        cut = tuple(self.cutoffs)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) and c >= 2
                   for c in cut):
            raise ValueError(f"cutoffs must be integers of at least 2, got {cut!r}")
        object.__setattr__(self, "cutoffs", tuple(map(int, cut)))


@dataclass(frozen=True)
class FockState:
    """Pure state D(frame)|amplitudes> over a truncated product basis.

    ``amplitudes`` has one tensor axis per mode (physical modes first, then
    ``num_ancilla`` purification ancillas); ``mode_count`` counts the
    physical modes, the only ones a measurement names.  ``frame`` holds one
    complex beta_j = <a_j> per physical mode (zeros by default, as for a
    circuit), and the state is the product of displacements D(beta_j)
    applied to ``amplitudes``, which ``gaussian_state_to_fock`` prepares
    centered.  ``deficiency`` is the worst top-level occupation recorded
    while preparing the state, and ``attempts`` the number of circuit runs
    the preparation took before its cutoffs met ``LEAKAGE_TOL``.

    A frame of the wrong length or with a non-finite entry raises
    ValueError, and one whose |beta|^2 overflows float64 raises
    NumericDegenerateError, since every photon number would carry it.
    """

    amplitudes: np.ndarray
    truncation: TruncationSpec
    deficiency: float = 0.0
    num_ancilla: int = 0
    attempts: int = 1
    frame: tuple | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.truncation.cutoffs:
            raise ValueError("amplitude tensor does not match the truncation")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails too
            raise ValueError(f"state vector norm {norm} is not 1")
        count = self.num_ancilla  # as TruncationSpec takes its integers
        if (not isinstance(count, numbers.Integral) or isinstance(count, bool)
                or not 0 <= count < amp.ndim):
            raise ValueError(f"num_ancilla must be an integer from 0 to {amp.ndim - 1}, "
                             f"got {count!r}")
        physical = amp.ndim - count
        frame = np.zeros(physical, complex) if self.frame is None else np.asarray(self.frame)
        if frame.shape != (physical,) or frame.dtype.kind not in "biufc":
            raise ValueError(f"frame must hold one number per physical mode ({physical}), "
                             f"got {self.frame!r}")
        frame = frame.astype(complex)
        values = tuple(map(complex, frame))
        if not np.all(np.isfinite(frame)):
            raise ValueError(f"frame must be finite, got {values}")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(frame.real ** 2 + frame.imag ** 2)):
                raise NumericDegenerateError(f"|frame|^2 overflows float64: {values}")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "frame", values)

    @property
    def mode_count(self) -> int:
        """The number of physical modes, the only ones a measurement takes."""
        return self.amplitudes.ndim - self.num_ancilla


def _memory_budget_bytes() -> float:
    """The budget that ``PSPURITY_FOCK_MEMORY_MB`` sets, read on each call;
    a value that is not a finite number of megabytes above 0 raises ValueError."""
    text = os.environ.get(MEMORY_ENV_VAR, DEFAULT_MEMORY_MB)
    try:
        megabytes = float(text)
    except ValueError:
        megabytes = math.nan  # refused below, as the other bad values are
    if not 0.0 < megabytes < math.inf:
        raise ValueError(f"{MEMORY_ENV_VAR} must be a finite number of megabytes above 0, "
                         f"got {text!r}")
    return megabytes * 1e6


def annihilator(cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix, a[n-1, n] = sqrt(n); ``subtract_photon_fock``
    applies the same map as a row shift."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _top_level_population(psi: np.ndarray, axis: int) -> float:
    # top two levels: even- or odd-parity states leave one of them empty
    sl = [slice(None)] * psi.ndim
    sl[axis] = slice(-2, None)
    return float(np.sum(np.abs(psi[tuple(sl)]) ** 2))


def _gate_chains(kind: str, cutoffs: tuple, rows: np.ndarray) -> tuple:
    """Conserved-number chains of one gate on its own modes, in label order,
    and the chain that each of the row-major ``rows`` lies on.

    Row i = n_a c_b + n_b runs up every chain, so chain j is the strided set
    of rows start[j] + stride k, k < length[j]: a displacement's one chain
    n -> n + 1; a single-mode squeezer's parity p; a two-mode squeezer's
    delta = n_a - n_b (label delta + c_b - 1), starting at
    (max(delta, 0), max(-delta, 0)); a beamsplitter's N = n_a + n_b, starting
    at n_a = max(0, N - c_b + 1).  A one-mode gate reads n as n_b.
    """
    ca, cb = cutoffs[0], cutoffs[-1]
    na, nb = np.divmod(rows, cb)
    if kind == "displacement":
        return np.zeros(1, int), 1, np.array([cb]), np.zeros_like(rows)
    if kind == "single_mode_squeezer":
        parity = np.arange(2)
        return parity, 2, (cb - parity + 1) // 2, rows % 2
    if kind == "two_mode_squeezer":
        delta = np.arange(1 - cb, ca)
        a0, b0 = np.maximum(delta, 0), np.maximum(-delta, 0)
        return a0 * cb + b0, cb + 1, np.minimum(ca - a0, cb - b0), na - nb + cb - 1
    if kind == "beamsplitter":
        total = np.arange(ca + cb - 1)
        a0 = np.maximum(total - cb + 1, 0)
        return a0 * cb + total - a0, cb - 1, np.minimum(total, ca - 1) - a0 + 1, na + nb
    raise ValueError(f"unknown gate kind {kind!r}")


def _chain_scale(kind: str, params: dict) -> tuple[complex, Callable]:
    """H = -i gen's element <next|H|state> up a chain as scale * base: the
    gate's complex scalar, and the parameter-free base as a function of the
    state's (n_a, n_b) (a one-mode gate reads n as n_b)."""
    if kind == "displacement":
        amp = complex(params.get("re", 0.0), params.get("im", 0.0))
        return -1j * amp, lambda na, nb: np.sqrt(nb + 1.0)
    if kind == "single_mode_squeezer":
        r = _resolve_squeezing(params.get("r"), params.get("db"))
        return -0.5j * r, lambda na, nb: np.sqrt((nb + 1.0) * (nb + 2.0))
    if kind == "two_mode_squeezer":
        r = _resolve_squeezing(params.get("r"), params.get("db"))
        return -1j * r, lambda na, nb: np.sqrt((na + 1.0) * (nb + 1.0))
    if kind == "beamsplitter":
        theta = np.arccos(np.sqrt(params["transmittance"]))
        return -1j * theta, lambda na, nb: np.sqrt((na + 1.0) * nb)
    raise ValueError(f"unknown gate kind {kind!r}")


def _apply_gate(psi: np.ndarray, kind: str, params: dict, modes: tuple) -> np.ndarray:
    """Apply exp(gen) of one gate on the given modes of the amplitude tensor.

    A phase rotation is diagonal in the number basis: one broadcast multiply
    by e^{-i theta n} along its mode.  For the other kinds the gate's modes
    go first in one private C-ordered copy, whose rows are row-major over
    them; ``_gate_chains`` states each conserved-number chain as a strided
    set of those rows, on which gen is tridiagonal with a zero diagonal and
    the element i s * base up the chain (``_chain_scale``), and
    ``_exponentiate_chains`` exponentiates the occupied chains in one batch.

    Chains of one state and chains that hold no amplitude are left as they
    are, which is exact: exp(gen) is linear and block diagonal, so a chain
    whose rows are all exactly zero maps to exact zeros.  The occupancy test
    is ``!= 0`` per row with no threshold, and the chain of each occupied
    row comes from its closed-form label, with no sort.  A gate on the
    vacuum, such as an ancilla two-mode squeezer, solves one chain, and a
    gate with a zero parameter is the identity.
    """
    if kind == "phase_rotation":
        (axis,) = modes
        shape = [1] * psi.ndim
        shape[axis] = -1
        n = np.arange(psi.shape[axis], dtype=float)
        return np.exp(1j * (-params["theta"] * n)).reshape(shape) * psi
    scale, base = _chain_scale(kind, params)
    if scale == 0:
        return psi.copy()
    lead = tuple(psi.shape[m] for m in modes)
    out = np.array(np.moveaxis(psi, modes, range(len(modes))), dtype=complex, order="C")
    mat = out.reshape(math.prod(lead), -1)
    rows = np.flatnonzero(np.any(mat != 0, axis=1))
    start, stride, length, label = _gate_chains(kind, lead, rows)
    chains = np.flatnonzero((np.bincount(label, minlength=start.size) > 0) & (length > 1))
    if chains.size:
        _exponentiate_chains(mat, start[chains], stride, length[chains], 1j * scale,
                             base, lead[-1])
    return np.moveaxis(out, range(len(modes)), modes)


def _exponentiate_chains(mat, start, stride, length, gain, base, width):
    """Apply exp(gen) in place to the rows start + stride k, k < length, of
    ``mat``, one chain per entry, where gen's element up a chain is
    gain * base(n_a, n_b) (``width`` splits a row into n_a, n_b).

    With w = gain / |gain| and D = (1, w, w^2, ...), gen = D A D^dag for the
    real antisymmetric tridiagonal A with A[k + 1, k] = t_k = |gain| base;
    a real gain (every gate but a displacement of complex amplitude) is t_k's
    scale, sign included, and D is the identity.  Each chain is stored evens
    first, e then o, where A = [[0, -C^T], [C, 0]] with C the
    (size // 2) x ceil(size / 2) upper bidiagonal C[p, p] = t_2p,
    C[p, p + 1] = -t_2p+1 (Golub and Kahan, SIAM J. Numer. Anal. B 2, 205,
    1965).  With C = U diag(sigma) V^T from one SVD and full V, exp(A) maps
    a = V^T e and b = U^T o to a_1 <- cos(sigma) a_1 - sin(sigma) b and
    b <- sin(sigma) a_1 + cos(sigma) b, leaves V's null part a_0 as it is,
    and returns e = V a and o = U b: four real gemms of half the chain's
    size on the float64 view of the complex rows.

    The chains are padded with zero couplings to the longest and go through
    one stacked SVD and one set of batched products.  Padding is exact: a
    zero singular value acts as the identity, padded rows are zero on the
    way in and dropped on the way out.
    """
    count, size = start.size, int(length.max())
    half, full = size // 2, size - size // 2
    order = np.concatenate((np.arange(0, size, 2), np.arange(1, size, 2)))  # evens first
    live = order < length[:, None]
    index = (start[:, None] + stride * order)[live]
    block = np.zeros((count, size, mat.shape[1]), dtype=complex)
    block[live] = mat[index]
    k = np.arange(size - 1)
    couplings = base(*np.divmod(start[:, None] + stride * k, width))
    couplings[k + 1 >= length[:, None]] = 0.0  # the padding
    couplings *= abs(gain) if gain.imag else gain.real
    # row-major, C's diagonal is every (full + 1)-th entry and its superdiagonal
    # the next: t_0, t_2, ... and -t_1, -t_3, ...
    bidiagonal = np.zeros((count, half * full))
    bidiagonal[:, ::full + 1] = couplings[:, ::2]
    bidiagonal[:, 1::full + 1] = -couplings[:, 1::2]
    if gain.imag:
        phase = np.cumprod(np.concatenate(([1.0], np.full(size - 1, gain / abs(gain)))))[order]
        block *= phase.conj()[:, None]
    u, sigma, vt = np.linalg.svd(bidiagonal.reshape(count, half, full))
    flat = block.view(float)
    even, odd = flat[:, :full], flat[:, full:]
    a = vt @ even
    b = np.swapaxes(u, 1, 2) @ odd
    cos, sin = np.cos(sigma)[..., None], np.sin(sigma)[..., None]
    a1, turned = a[:, :half], sin * b
    b *= cos
    b += sin * a1
    a1 *= cos
    a1 -= turned
    np.matmul(np.swapaxes(vt, 1, 2), a, out=even)
    np.matmul(u, b, out=odd)
    if gain.imag:
        block *= phase[:, None]
    mat[index] = block[live]


def _vacuum_tensor(cutoffs: tuple) -> np.ndarray:
    psi = np.zeros(cutoffs, dtype=complex)
    psi[(0,) * len(cutoffs)] = 1.0
    return psi


def _check_budget(cutoffs: tuple):
    need = 16 * int(np.prod([float(c) for c in cutoffs]))
    budget = _memory_budget_bytes()
    if need > budget:
        raise TruncationInsufficientError(
            f"state of {need / 1e6:.0f} MB exceeds the {budget / 1e6:.0f} MB "
            f"budget ({MEMORY_ENV_VAR})"
        )


def run_circuit_fock(circuit) -> FockState:
    """Run a gate circuit on the vacuum in the truncated number basis.

    ``circuit`` provides ``mode_count`` and ``gates`` (each with ``kind``,
    ``params`` and ``modes``).  The cutoffs start from the covariance-route
    mean photon numbers and grow as ``_converge_cutoffs`` decides.
    """
    cutoffs = _cutoffs_from_mean_photons(_per_mode_photons(circuit_to_gaussian(circuit)))
    return _converge_cutoffs(lambda cut: _run_gates(circuit, cut), cutoffs,
                             num_ancilla=0)


def _grown_cutoff(cutoff: int, leak: float, before: tuple | None = None) -> int:
    """The cutoff a mode that leaks ``leak`` at ``cutoff`` runs at next.

    A Gaussian mode's photon-number tail falls about geometrically,
    p_n ~ A q^n (Marian and Marian, PRA 47, 4474, 1993).  ``before`` is the
    mode's (cutoff, leak) on the previous run, if it leaked then: the two
    leaks give the ratio q, and the tail is extended from the measured level
    to a decade below LEAKAGE_TOL, c' = c + ln(LEAKAGE_TOL / (10 leak)) / ln q.
    The decade covers what a ratio read across two runs misses: a squeezed
    mode's tail decays more slowly further out and fills every other level,
    and falling short by a level costs a whole run.  Without ``before`` the
    tail is read from level 0 with A = 1, c' = c ln(LEAKAGE_TOL) / ln(leak),
    which undershoots when A < 1.  The step is at least one level and at
    most a doubling, which is also taken for leak >= 1 and for a leak that
    did not fall.
    """
    if leak >= 1.0:
        return 2 * cutoff
    if before is None:
        need = cutoff * math.log(LEAKAGE_TOL) / math.log(leak)
    elif before[1] <= leak:
        return 2 * cutoff
    else:
        log_q = math.log(leak / before[1]) / (cutoff - before[0])
        need = cutoff + math.log(0.1 * LEAKAGE_TOL / leak) / log_q
    return min(2 * cutoff, max(cutoff + 1, math.ceil(need)))


def _converge_cutoffs(attempt, cutoffs: tuple, num_ancilla: int, frame=None) -> FockState:
    """Re-run ``attempt``, growing leaking modes by ``_grown_cutoff``, until
    ``LEAKAGE_TOL`` is met.

    Every attempt is checked against the memory budget first.  The state
    records the cutoffs and deficiency of its last run and, as ``attempts``,
    how many runs it took, and takes ``frame`` as it is.
    """
    before = [None] * len(cutoffs)
    for attempts in range(1, 7):
        _check_budget(cutoffs)
        psi, leak = attempt(cutoffs)
        deficiency = float(leak.max())
        if deficiency <= LEAKAGE_TOL:
            return FockState(psi, TruncationSpec(cutoffs), deficiency,
                             num_ancilla=num_ancilla, attempts=attempts, frame=frame)
        tried = cutoffs
        cutoffs = tuple(
            _grown_cutoff(c, leak[j], before[j]) if leak[j] > LEAKAGE_TOL else c
            for j, c in enumerate(cutoffs)
        )
        before = [(c, leak[j]) if leak[j] > LEAKAGE_TOL else None
                  for j, c in enumerate(tried)]
    raise TruncationInsufficientError(
        f"leakage {deficiency:.3e} persists at cutoffs {tried}"
    )


def _run_gates(circuit, cutoffs: tuple) -> tuple[np.ndarray, np.ndarray]:
    psi = _vacuum_tensor(tuple(cutoffs))
    leak = np.zeros(len(cutoffs))
    for gate in circuit.gates:
        psi = _apply_gate(psi, gate.kind, gate.params, gate.modes)
        for m in gate.modes:
            leak[m] = max(leak[m], _top_level_population(psi, m))
    return psi, leak


def _per_mode_photons(state: GaussianState) -> np.ndarray:
    m = state.mode_count
    v = np.diag(state.covariance)
    d = state.displacement
    return (v[:m] + v[m:] - 2.0 + d[:m] ** 2 + d[m:] ** 2) / 4.0


def _cutoffs_from_mean_photons(photons) -> tuple:
    return tuple(int(math.ceil(4.0 * n + 10.0)) for n in photons)


def _cutoffs_for_state(state: GaussianState) -> tuple:
    """Initial cutoffs of the centered state: mean-photon rule or the
    Gaussian-tail estimate, from the covariance alone.

    The occupation tail of a strongly squeezed mode extends to roughly
    (6.5 sigma)^2 / 4 quanta, beyond 4<n> + 10; take the larger of the two
    estimates per mode.  The displacement is the state's frame and sizes
    nothing.
    """
    m = state.mode_count
    v = np.diag(state.covariance)
    base = _cutoffs_from_mean_photons((v[:m] + v[m:] - 2.0) / 4.0)
    reach = 6.5 * np.sqrt(np.maximum(v[:m], v[m:]))
    return tuple(max(b, int(math.ceil(0.25 * r * r)) + 14) for b, r in zip(base, reach))


def gaussian_state_to_fock(state: GaussianState) -> FockState:
    """Exact number-basis representation of a Gaussian state.

    The centered state (covariance only) is compiled to a gate circuit
    (``_gaussian_circuit``) and run on the vacuum by the same engine as
    ``run_circuit_fock``; its displacement d becomes the frame,
    beta_j = (d_j + i d_{m+j}) / 2, so the result is D(beta)|centered>.
    Ancilla modes trail the physical ones; measurement helpers trace over
    them.  Cutoffs start from the Gaussian tail estimates of the covariance
    and grow as ``_converge_cutoffs`` decides.
    """
    require_single(state, "gaussian_state_to_fock")
    circuit, noise = _gaussian_circuit(state)
    anc = []
    for n in noise:
        ratio = (n - 1.0) / (n + 1.0)  # thermal tail base
        geom = int(math.ceil(math.log(1e-9) / math.log(ratio))) + 14
        anc.append(max(geom, int(math.ceil(2.0 * (n - 1.0) + 10.0))))
    cutoffs = _cutoffs_for_state(state) + tuple(anc)
    m, d = state.mode_count, state.displacement
    return _converge_cutoffs(lambda cut: _run_gates(circuit, cut), cutoffs,
                             num_ancilla=len(noise), frame=d[:m] / 2.0 + 0.5j * d[m:])


def _gaussian_circuit(state: GaussianState) -> tuple[CircuitDescription, np.ndarray]:
    """Gates preparing the centered ``state`` from the vacuum, and its thermal
    noise factors; the displacement is left to the frame.

    With V = S diag(n, n) S^T (n sorted descending), thermal normal mode i is
    purified by a two-mode squeezer of parameter acosh(n_i)/2 with ancilla
    mode m + i (marginal noise exactly n_i); the gates of
    ``_symplectic_gates(S)`` follow.
    """
    decomp = williamson(state)
    m = state.mode_count
    noise = decomp.noise_factors[decomp.noise_factors > 1.0 + 1e-10]
    gates = [Gate("two_mode_squeezer", {"r": float(np.arccosh(n)) / 2.0}, (i, m + i))
             for i, n in enumerate(noise)]
    gates += _symplectic_gates(decomp.symplectic.matrix)
    return CircuitDescription(m + noise.size, tuple(gates)), noise


def _symplectic_gates(s: np.ndarray) -> list:
    """Phase rotations, beamsplitters and single-mode squeezers whose product,
    in circuit order, is the symplectic matrix ``s``.

    Bloch-Messiah S = O1 Z O2 with no threshold on the squeezing: the m
    eigenvectors of S^T S with the largest eigenvalues, read as complex
    columns x + ip and snapped to the nearest unitary U, give the passive
    Q = O2^T = [[Re U, -Im U], [Im U, Re U]]; Z = diag(z, 1/z) with z the
    column norms of S Q[:, :m], and O1 = S Q Z^-1.  Gates with zero angle or
    squeezing are left out, so the identity compiles to no gates.
    """
    m = s.shape[0] // 2
    evals, evecs = np.linalg.eigh(s.T @ s)
    top = evecs[:, np.argsort(-evals, kind="stable")[:m]]
    left, _, right = np.linalg.svd(top[:m] + 1j * top[m:])
    u = left @ right
    q = np.block([[u.real, -u.imag], [u.imag, u.real]])
    z = np.linalg.norm(s @ q[:, :m], axis=0)
    gates = (_passive_gates(q.T)
             + [Gate("single_mode_squeezer", {"r": float(np.log(z[j]))}, (j,))
                for j in range(m)]
             + _passive_gates(s @ q / np.concatenate([z, 1.0 / z])))
    trivial = ({"r": 0.0}, {"theta": 0.0}, {"transmittance": 1.0})
    return [g for g in gates if g.params not in trivial]


def _passive_gates(o: np.ndarray) -> list:
    """Beamsplitters and phase rotations, in circuit order, realizing the
    orthogonal symplectic ``o``, which maps amplitudes by U = A + iB with
    A = o[:m, :m] and B = o[m:, :m].

    Givens steps on adjacent rows (i - 1, i) zero U below its diagonal, column
    by column: phase rotations make both entries real and non-negative
    (``phase_rotation(theta)`` multiplies <a> by e^{-i theta}), then a
    beamsplitter with t = cos^2(theta), theta in [0, pi/2], zeroes row i.  The
    circuit applies the remaining diagonal phases, then the inverse steps in
    reverse order; the inverse of the rotation on rows (i - 1, i) is the
    beamsplitter on modes (i, i - 1).
    """
    m = o.shape[0] // 2
    u = o[:m, :m] + 1j * o[m:, :m]
    steps = []
    for j in range(m - 1):
        for i in range(m - 1, j, -1):
            top, low = u[i - 1, j], u[i, j]
            if low == 0.0:
                continue
            angles = np.angle([top, low])
            theta = math.atan2(abs(low), abs(top))
            c, s = math.cos(theta), math.sin(theta)
            rows = np.exp(-1j * angles)[:, None] * u[[i - 1, i]]
            u[[i - 1, i]] = np.array([[c, s], [-s, c]]) @ rows
            steps.append((i, angles, c * c))
    gates = [Gate("phase_rotation", {"theta": -float(np.angle(u[k, k]))}, (k,))
             for k in range(m)]
    for i, angles, t in reversed(steps):
        gates.append(Gate("beamsplitter", {"transmittance": t}, (i, i - 1)))
        gates += [Gate("phase_rotation", {"theta": -float(a)}, (k,))
                  for k, a in zip((i - 1, i), angles)]
    return gates


# ---------------------------------------------------------------------------
# measurements and operations
# ---------------------------------------------------------------------------

def subtract_photon_fock(state: FockState, mode: int) -> FockState:
    """Apply the annihilation operator on one mode and renormalize.

    In the state's frame a D(beta) = D(beta)(a + beta), so the amplitudes
    take a + beta_mode and the frame is kept.  a is a row shift along the
    mode's axis: psi'[n] = sqrt(n + 1) psi[n + 1], and the top level keeps
    only beta's share; ``annihilator`` is the same map as a matrix.
    """
    _check_mode(mode, state.mode_count)
    amp = state.amplitudes
    lower, upper, root = [slice(None)] * amp.ndim, [slice(None)] * amp.ndim, [1] * amp.ndim
    lower[mode], upper[mode], root[mode] = slice(None, -1), slice(1, None), -1
    shift = np.sqrt(np.arange(1.0, amp.shape[mode])).reshape(root)
    psi = state.frame[mode] * amp
    psi[tuple(lower)] += shift * amp[tuple(upper)]
    norm = np.linalg.norm(psi)
    if norm < 1e-10:
        raise SubtractionFromVacuumError(
            f"mode {mode} holds no photons to subtract"
        )
    return FockState(psi / norm, state.truncation, state.deficiency,
                     state.num_ancilla, state.attempts, state.frame)


def _split_modes(state: FockState, modes) -> np.ndarray:
    """Amplitudes as a matrix: rows over the physical ``modes``, columns over
    every other axis, ancillas included."""
    modes = _mode_subset(modes, state.mode_count)
    rest = [j for j in range(state.amplitudes.ndim) if j not in modes]
    dim_keep = int(np.prod([state.truncation.cutoffs[j] for j in modes]))
    return np.transpose(state.amplitudes, modes + rest).reshape(dim_keep, -1)


def _centered_modes(state: FockState, modes, what: str) -> list:
    """``modes`` as ``_mode_subset`` checks them; a kept mode with a nonzero
    frame raises ValueError, since ``what`` is read off the amplitudes.  A
    displaced mode that is traced out changes nothing."""
    modes = _mode_subset(modes, state.mode_count)
    displaced = [j for j in modes if state.frame[j] != 0]
    if displaced:
        raise ValueError(f"{what} of displaced modes {displaced} is not formed; "
                         f"their frame is {[state.frame[j] for j in displaced]}")
    return modes


def reduced_density_matrix(state: FockState, modes) -> np.ndarray:
    """Density matrix of a subset of modes (complement traced out); the kept
    modes must have a zero frame."""
    mat = _split_modes(state, _centered_modes(state, modes, "the density matrix"))
    return mat @ mat.conj().T


def reduced_purity_fock(state: FockState, modes) -> float:
    """Purity of the reduced state on the given modes.

    The frame is a local unitary, so the amplitudes give the purity.  Uses
    the Gram matrix on the smaller side of the bipartition, so tracing
    out many modes costs no more than keeping them: G = M M^dag or M^dag M
    by one complex matmul, and tr(rho^2) = sum |G_ij|^2 = Re vdot(G, G).
    """
    mat = _split_modes(state, modes)
    gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    return float(np.vdot(gram, gram).real)


def _ladder_moments(state: FockState, mode: int) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a^dag a> of one mode of the amplitudes, the centered
    state (the other modes traced out).

    With rows of the mode-first amplitude matrix indexed by n,
    <a> = sum sqrt(n) <row n-1|row n> and
    <a^2> = sum sqrt(n (n-1)) <row n-2|row n>.
    """
    mat = _split_modes(state, [mode])
    n = np.arange(mat.shape[0])
    root = np.sqrt(n)
    a1 = np.sum(root[1:] * np.sum(mat[:-1].conj() * mat[1:], axis=1))
    a2 = np.sum(root[2:] * root[1:-1] * np.sum(mat[:-2].conj() * mat[2:], axis=1))
    photons = np.sum(n * np.sum(np.abs(mat) ** 2, axis=1))
    return complex(a1), complex(a2), float(photons)


def mean_photon_fock(state: FockState, mode: int) -> float:
    """<a^dag a> in the frame: <(a^dag + conj beta)(a + beta)> over the
    amplitudes."""
    a1, _, photons = _ladder_moments(state, mode)
    beta = state.frame[mode]
    return photons + 2.0 * (beta.conjugate() * a1).real + abs(beta) ** 2


def quadrature_moments_fock(state: FockState, mode: int) -> dict:
    """Means and variances of x = a + a^dag and p = i(a^dag - a) for one mode.

    x^2 = a^2 + a^dag^2 + 2 a^dag a + 1 and p^2 = -a^2 - a^dag^2 + 2 a^dag a + 1,
    so both variances follow from the three ladder moments of the centered
    amplitudes, which a displacement leaves alone; the means gain the frame,
    <a> + beta.
    """
    a1, a2, photons = _ladder_moments(state, mode)
    cx, cp = 2.0 * a1.real, 2.0 * a1.imag
    mean = a1 + state.frame[mode]
    return {
        "mean_x": 2.0 * mean.real,
        "mean_p": 2.0 * mean.imag,
        "var_x": 2.0 * a2.real + 2.0 * photons + 1.0 - cx * cx,
        "var_p": -2.0 * a2.real + 2.0 * photons + 1.0 - cp * cp,
    }


def wigner_origin_fock(state: FockState, modes) -> float:
    """W(0, ..., 0) of the reduced state on ``modes`` via the parity operator.

    In this package's convention W(0) = (1/2pi)^m * <parity>.  The kept
    modes must have a zero frame.
    """
    modes = _centered_modes(state, modes, "W(0)")
    # parity is diagonal: only the populations, the squared row norms of
    # the mode-first amplitude matrix, enter
    populations = np.sum(np.abs(_split_modes(state, modes)) ** 2, axis=1)
    parity = np.array([1.0])
    for j in modes:
        parity = np.kron(parity, (-1.0) ** np.arange(state.truncation.cutoffs[j]))
    return float(np.sum(parity * populations)) / (2.0 * np.pi) ** len(modes)


def state_overlap_fock(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for two states over the same truncation and frame."""
    if a.truncation.cutoffs != b.truncation.cutoffs:
        raise ValueError("states live in different truncations")
    if a.frame != b.frame:
        raise ValueError(f"states live in different frames, {a.frame} and {b.frame}")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
