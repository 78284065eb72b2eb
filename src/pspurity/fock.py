"""Truncated number-basis oracle.

Brute-force verification backend with one gate engine: a circuit of the
five standard gates is run in a truncated product Fock basis, each gate as
the exact exponential of its generator on the sectors of its conserved
number, which are tridiagonal chains stated in closed form: a displacement
is one chain n -> n + 1, a single-mode squeezer conserves n mod 2 along
n -> n + 2, a two-mode squeezer n_a - n_b along (n_a + 1, n_b + 1), a
beamsplitter n_a + n_b along (n_a + 1, n_b - 1), and a phase rotation is
diagonal.  Only the sectors that hold amplitude are exponentiated; an empty
sector maps to exact zeros, so skipping it is exact.
A Gaussian state is compiled to such a circuit: ancilla two-mode squeezers
purify its thermal normal modes (the ancillas are traced out by all
measurement helpers), Bloch-Messiah and beamsplitter meshes give its
symplectic part, displacements close it.  Photon subtraction is the literal
annihilation matrix, and purities come from partial traces.  Nothing here
shares code with the covariance-matrix purity and moment machinery, which
is the point; the covariance route only sizes the initial cutoffs and
supplies the normal modes of a Gaussian input.

Truncation bookkeeping: unitaries of truncated anti-Hermitian generators
preserve the norm exactly, so lost-norm is not a usable error signal.  The
reported ``deficiency`` is instead the largest top-level occupation seen on
any mode after any gate.  Both preparation routes size their own cutoffs:
they start from a photon-number estimate and double every mode whose
deficiency exceeds ``LEAKAGE_TOL``, within the memory budget, and record
on the state how many runs that took (``attempts``).

Quadrature moments come from the ladder operators: <a>, <a^2> and <a^dag a>
are sums over neighbouring rows of the mode-first amplitude matrix, so no
reduced density matrix is formed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd

from .errors import SubtractionFromVacuumError, TruncationInsufficientError
from .gaussian import (
    CircuitDescription,
    Gate,
    GaussianState,
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
    """Per-mode Fock cutoffs."""

    cutoffs: tuple

    def __post_init__(self):
        cut = tuple(int(c) for c in self.cutoffs)
        if any(c < 2 for c in cut):
            raise ValueError("cutoffs must be at least 2")
        object.__setattr__(self, "cutoffs", cut)


@dataclass(frozen=True)
class FockState:
    """Pure state vector over a truncated product basis.

    ``amplitudes`` has one tensor axis per mode (physical modes first, then
    ``num_ancilla`` purification ancillas).  ``deficiency`` is the worst
    top-level occupation recorded while preparing the state, and
    ``attempts`` the number of circuit runs the preparation took before its
    cutoffs met ``LEAKAGE_TOL``.
    """

    amplitudes: np.ndarray
    truncation: TruncationSpec
    deficiency: float = 0.0
    num_ancilla: int = 0
    attempts: int = 1

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.truncation.cutoffs:
            raise ValueError("amplitude tensor does not match the truncation")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state vector norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def mode_count(self) -> int:
        return self.amplitudes.ndim

    @property
    def physical_modes(self) -> int:
        return self.mode_count - self.num_ancilla


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
    """Truncated annihilation matrix, a[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _top_level_population(psi: np.ndarray, axis: int) -> float:
    # top two levels: even- or odd-parity states leave one of them empty
    sl = [slice(None)] * psi.ndim
    sl[axis] = slice(-2, None)
    return float(np.sum(np.abs(psi[tuple(sl)]) ** 2))


def _gate_chains(kind: str, params: dict, cutoffs: tuple) -> tuple:
    """Conserved-number chains of one gate's H = -i gen on its own modes.

    For each basis state (row-major over the gate's modes): its sector label,
    the conserved number, and H's element <next|H|state> to the next state
    up its chain.  H's diagonal is zero for every gate kind here.  Row-major
    order runs up every chain, so a stable sort by label lays each sector out
    as its chain in order; the element of a chain's last state points out of
    the truncation and is never read.
    """
    n = np.indices(cutoffs, dtype=float).reshape(len(cutoffs), -1)
    na, nb = n[0], n[-1]
    if kind == "displacement":
        amp = complex(params.get("re", 0.0), params.get("im", 0.0))
        return np.zeros(na.size), -1j * amp * np.sqrt(na + 1)
    if kind == "single_mode_squeezer":
        r = _resolve_squeezing(params.get("r"), params.get("db"))
        return na % 2, -0.5j * r * np.sqrt((na + 1) * (na + 2))
    if kind == "two_mode_squeezer":
        r = _resolve_squeezing(params.get("r"), params.get("db"))
        return na - nb, -1j * r * np.sqrt((na + 1) * (nb + 1))
    if kind == "beamsplitter":
        theta = np.arccos(np.sqrt(params["transmittance"]))
        return na + nb, -1j * theta * np.sqrt((na + 1) * nb)
    raise ValueError(f"unknown gate kind {kind!r}")


def _apply_gate(psi: np.ndarray, kind: str, params: dict, modes: tuple) -> np.ndarray:
    """Apply exp(gen) of one gate on the given modes of the amplitude tensor.

    A phase rotation is diagonal in the number basis: one broadcast multiply
    by e^{-i theta n} along its mode.  For the other kinds,
    ``_gate_chains`` states gen's conserved-number sectors in closed form;
    one stable sort by sector orders the states so that every sector is a
    contiguous chain on which H = -i gen is tridiagonal with a zero
    diagonal.  A one-state sector is left as it is.  On a longer one with
    sub-diagonal h, the diagonal unitary D, the running product of h / |h|
    (1 where h = 0), makes T = D^dag H D real symmetric tridiagonal; with
    T = Q diag(w) Q^T from LAPACK dstevd, exp(gen) = D Q exp(iw) Q^T D^dag.

    Only sectors holding amplitude are exponentiated.  exp(gen) is linear
    and block diagonal, so a sector whose rows of the amplitude matrix are
    all exactly zero maps to exact zeros: skipping it is exact, not an
    approximation, and the test is ``!= 0`` with no threshold.  A gate on
    the vacuum, such as an ancilla two-mode squeezer, solves one sector.
    """
    if kind == "phase_rotation":
        (axis,) = modes
        shape = [1] * psi.ndim
        shape[axis] = -1
        n = np.arange(psi.shape[axis], dtype=float)
        return np.exp(1j * (-params["theta"] * n)).reshape(shape) * psi
    moved = np.moveaxis(psi, modes, range(len(modes)))
    lead = moved.shape[: len(modes)]
    mat = moved.reshape(int(np.prod(lead)), -1)
    sector, up = _gate_chains(kind, params, lead)
    order = np.argsort(sector, kind="stable")
    sector, up = sector[order], up[order]
    # in sorted order, chain c is the slice bounds[c]:bounds[c + 1]
    bounds = np.flatnonzero(np.concatenate(([True], sector[1:] != sector[:-1], [True])))
    lo, hi = bounds[:-1], bounds[1:]
    occupied = np.logical_or.reduceat(np.any(mat != 0, axis=1)[order], lo)
    out = np.zeros(mat.shape, dtype=complex)
    single = lo[hi - lo == 1]
    out[order[single]] = mat[order[single]]
    chains = (hi - lo > 1) & occupied
    for start, stop in zip(lo[chains], hi[chains]):
        h = up[start:stop - 1]
        mag = np.abs(h)
        unit = np.divide(h, mag, out=np.ones_like(h), where=mag > 0)
        phase = np.concatenate(([1.0], np.cumprod(unit)))
        w, q, info = dstevd(np.zeros(stop - start), mag)
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed with info {info}")
        idx = order[start:stop]
        rotated = q.T @ (phase.conj()[:, None] * mat[idx])
        out[idx] = phase[:, None] * ((q * np.exp(1j * w)) @ rotated)
    out = out.reshape(lead + moved.shape[len(modes):])
    return np.moveaxis(out, range(len(modes)), modes)


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


def _converge_cutoffs(attempt, cutoffs: tuple, num_ancilla: int) -> FockState:
    """Re-run ``attempt`` doubling leaking modes until ``LEAKAGE_TOL`` is met.

    Every attempt is checked against the memory budget first.  The state
    records the cutoffs and deficiency of its last run and, as ``attempts``,
    how many runs it took.
    """
    for attempts in range(1, 7):
        _check_budget(cutoffs)
        psi, leak = attempt(cutoffs)
        deficiency = float(leak.max())
        if deficiency <= LEAKAGE_TOL:
            return FockState(psi, TruncationSpec(cutoffs), deficiency,
                             num_ancilla=num_ancilla, attempts=attempts)
        tried = cutoffs
        cutoffs = tuple(
            2 * c if leak[j] > LEAKAGE_TOL else c for j, c in enumerate(cutoffs)
        )
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
    """Initial cutoffs: mean-photon rule or the Gaussian-tail estimate.

    The occupation tail of a displaced, strongly squeezed mode extends to
    roughly (|mean| + 6.5 sigma)^2 / 4 quanta, far beyond 4<n> + 10; take
    the larger of the two estimates per mode.
    """
    m = state.mode_count
    v = np.diag(state.covariance)
    d = state.displacement
    base = _cutoffs_from_mean_photons(_per_mode_photons(state))
    out = []
    for j in range(m):
        reach = max(
            abs(d[j]) + 6.5 * math.sqrt(v[j]), abs(d[m + j]) + 6.5 * math.sqrt(v[m + j])
        )
        out.append(max(base[j], int(math.ceil(0.25 * reach * reach)) + 14))
    return tuple(out)


def gaussian_state_to_fock(state: GaussianState) -> FockState:
    """Exact number-basis representation of a Gaussian state.

    The state is compiled to a gate circuit (``_gaussian_circuit``) and run
    on the vacuum by the same engine as ``run_circuit_fock``.  Ancilla modes
    trail the physical ones; measurement helpers trace over them.  Cutoffs
    start from the Gaussian tail estimates and grow as ``_converge_cutoffs``
    decides.
    """
    require_single(state, "gaussian_state_to_fock")
    circuit, noise = _gaussian_circuit(state)
    anc = []
    for n in noise:
        ratio = (n - 1.0) / (n + 1.0)  # thermal tail base
        geom = int(math.ceil(math.log(1e-9) / math.log(ratio))) + 14
        anc.append(max(geom, int(math.ceil(2.0 * (n - 1.0) + 10.0))))
    cutoffs = _cutoffs_for_state(state) + tuple(anc)
    return _converge_cutoffs(lambda cut: _run_gates(circuit, cut), cutoffs,
                             num_ancilla=len(noise))


def _gaussian_circuit(state: GaussianState) -> tuple[CircuitDescription, np.ndarray]:
    """Gates preparing ``state`` from the vacuum, and its thermal noise factors.

    With V = S diag(n, n) S^T (n sorted descending), thermal normal mode i is
    purified by a two-mode squeezer of parameter acosh(n_i)/2 with ancilla
    mode m + i (marginal noise exactly n_i); the gates of
    ``_symplectic_gates(S)`` and the displacements follow.
    """
    decomp = williamson(state)
    m = state.mode_count
    noise = decomp.noise_factors[decomp.noise_factors > 1.0 + 1e-10]
    gates = [Gate("two_mode_squeezer", {"r": float(np.arccosh(n)) / 2.0}, (i, m + i))
             for i, n in enumerate(noise)]
    gates += _symplectic_gates(decomp.symplectic.matrix)
    d = state.displacement
    gates += [Gate("displacement", {"re": d[j] / 2.0, "im": d[m + j] / 2.0}, (j,))
              for j in range(m) if d[j] != 0.0 or d[m + j] != 0.0]
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
    """Apply the annihilation matrix on one mode and renormalize."""
    if not 0 <= mode < state.mode_count:
        raise ValueError(f"mode {mode} out of range")
    a = annihilator(state.truncation.cutoffs[mode])
    psi = np.tensordot(a, state.amplitudes, axes=([1], [mode]))
    psi = np.moveaxis(psi, 0, mode)
    norm = np.linalg.norm(psi)
    if norm < 1e-10:
        raise SubtractionFromVacuumError(
            f"mode {mode} holds no photons to subtract"
        )
    return FockState(psi / norm, state.truncation, state.deficiency,
                     state.num_ancilla, state.attempts)


def _split_modes(state: FockState, modes) -> np.ndarray:
    """Amplitudes as a matrix: rows over ``modes``, columns over the rest."""
    modes = list(modes)
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode indices")
    for j in modes:
        if not 0 <= j < state.mode_count:
            raise ValueError(f"mode {j} out of range")
    rest = [j for j in range(state.mode_count) if j not in modes]
    dim_keep = int(np.prod([state.truncation.cutoffs[j] for j in modes]))
    return np.transpose(state.amplitudes, modes + rest).reshape(dim_keep, -1)


def reduced_density_matrix(state: FockState, modes) -> np.ndarray:
    """Density matrix of a subset of modes (complement traced out)."""
    mat = _split_modes(state, modes)
    return mat @ mat.conj().T


def reduced_purity_fock(state: FockState, modes) -> float:
    """Purity of the reduced state on the given modes.

    Uses the Gram matrix on the smaller side of the bipartition, so tracing
    out many modes costs no more than keeping them.
    """
    mat = _split_modes(state, modes)
    if mat.shape[0] <= mat.shape[1]:
        gram = mat @ mat.conj().T
    else:
        gram = mat.conj().T @ mat
    return float(np.real(np.sum(np.abs(gram) ** 2)))


def _ladder_moments(state: FockState, mode: int) -> tuple[complex, complex, float]:
    """<a>, <a^2> and <a^dag a> of one mode (the other modes traced out).

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
    return _ladder_moments(state, mode)[2]


def quadrature_moments_fock(state: FockState, mode: int) -> dict:
    """Means and variances of x = a + a^dag and p = i(a^dag - a) for one mode.

    x^2 = a^2 + a^dag^2 + 2 a^dag a + 1 and p^2 = -a^2 - a^dag^2 + 2 a^dag a + 1,
    so both variances follow from the three ladder moments.
    """
    a1, a2, photons = _ladder_moments(state, mode)
    mx, mp = 2.0 * a1.real, 2.0 * a1.imag
    return {
        "mean_x": mx,
        "mean_p": mp,
        "var_x": 2.0 * a2.real + 2.0 * photons + 1.0 - mx * mx,
        "var_p": -2.0 * a2.real + 2.0 * photons + 1.0 - mp * mp,
    }


def wigner_origin_fock(state: FockState, modes) -> float:
    """W(0, ..., 0) of the reduced state on ``modes`` via the parity operator.

    In this package's convention W(0) = (1/2pi)^m * <parity>.
    """
    modes = list(modes)
    # parity is diagonal: only the populations, the squared row norms of
    # the mode-first amplitude matrix, enter
    populations = np.sum(np.abs(_split_modes(state, modes)) ** 2, axis=1)
    parity = np.array([1.0])
    for j in modes:
        parity = np.kron(parity, (-1.0) ** np.arange(state.truncation.cutoffs[j]))
    return float(np.sum(parity * populations)) / (2.0 * np.pi) ** len(modes)


def state_overlap_fock(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for two states over the same truncation."""
    if a.truncation.cutoffs != b.truncation.cutoffs:
        raise ValueError("states live in different truncations")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
