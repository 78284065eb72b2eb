"""Truncated number-basis oracle.

Brute-force verification backend: circuits are run by exponentiating the
standard quadratic generators in a truncated product Fock basis, photon
subtraction is the literal annihilation matrix, and purities come from
partial traces.  Nothing here shares code with the covariance-matrix
purity and moment machinery, which is the point; the covariance route only
sizes the initial cutoffs and supplies the normal modes of a Gaussian input.

Mixed Gaussian states are realized by purification: every thermal normal
mode is entangled with one ancilla mode through a two-mode squeezer, and
the ancillas are ignored (traced out) by all measurement helpers.

Truncation bookkeeping: unitaries of truncated anti-Hermitian generators
preserve the norm exactly, so lost-norm is not a usable error signal.  The
reported ``deficiency`` is instead the largest top-level occupation seen on
any mode after any gate; raising cutoffs drives it to zero for the states
considered here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from .errors import SubtractionFromVacuumError, TruncationInsufficientError
from .gaussian import (
    GaussianState,
    circuit_to_gaussian,
    symplectic_form,
    williamson,
)

#: per conserved-number block of a gate generator: blocks up to this
#: dimension use dense expm, larger ones sparse expm_multiply on the state
#: (same truncated generator either way)
DENSE_EXPM_LIMIT = 1024

MEMORY_ENV_VAR = "PSPURITY_FOCK_MEMORY_MB"
DEFAULT_MEMORY_MB = 2048.0


@dataclass(frozen=True)
class TruncationSpec:
    """Per-mode Fock cutoffs plus the acceptable leakage level."""

    cutoffs: tuple
    deficiency_tolerance: float = 1e-8

    def __post_init__(self):
        cut = tuple(int(c) for c in self.cutoffs)
        if any(c < 2 for c in cut):
            raise ValueError("cutoffs must be at least 2")
        object.__setattr__(self, "cutoffs", cut)

    def state_bytes(self) -> int:
        return 16 * int(np.prod(self.cutoffs))


@dataclass(frozen=True)
class FockState:
    """Pure state vector over a truncated product basis.

    ``amplitudes`` has one tensor axis per mode (physical modes first, then
    ``num_ancilla`` purification ancillas).  ``deficiency`` is the worst
    top-level occupation recorded while preparing the state.
    """

    amplitudes: np.ndarray
    truncation: TruncationSpec
    deficiency: float = 0.0
    num_ancilla: int = 0

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


def _memory_budget_bytes() -> int:
    return int(float(os.environ.get(MEMORY_ENV_VAR, DEFAULT_MEMORY_MB)) * 1e6)


def annihilator(cutoff: int) -> np.ndarray:
    """Truncated annihilation matrix, a[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    a = annihilator(cutoff)
    return a + a.T, 1j * (a.T - a)


def _top_level_population(psi: np.ndarray, axis: int) -> float:
    # top two levels: even- or odd-parity states leave one of them empty
    sl = [slice(None)] * psi.ndim
    sl[axis] = slice(-2, None)
    return float(np.sum(np.abs(psi[tuple(sl)]) ** 2))


def _apply_generator(psi: np.ndarray, gen: sp.spmatrix, modes: tuple) -> np.ndarray:
    """Apply exp(gen) on the given modes of the amplitude tensor.

    The basis states split into the connected components of the generator's
    nonzero pattern, and gen is block diagonal over them: the sectors of a
    conserved number (n_a - n_b for a two-mode squeezer, n_a + n_b for a
    beamsplitter, total parity for a quadratic generator).  Each block is
    exponentiated on its own: a one-state block is a phase, blocks up to
    ``DENSE_EXPM_LIMIT`` states get a dense expm, and the larger ones go
    together through sparse expm_multiply.
    """
    modes = tuple(modes)
    dim = gen.shape[0]
    moved = np.moveaxis(psi, modes, range(len(modes)))
    lead = moved.shape[: len(modes)]
    mat = moved.reshape(dim, -1)
    gen = sp.csr_matrix(gen)
    count, labels = connected_components(abs(gen), directed=False)
    sizes = np.bincount(labels, minlength=count)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    order = np.argsort(labels, kind="stable")
    # in block order, block c is the diagonal square starts[c]:starts[c + 1]
    perm = gen[order][:, order].tocoo()
    entry_starts = np.searchsorted(perm.row, starts)
    out = np.empty(mat.shape, dtype=complex)
    single = sizes[labels] == 1
    out[single] = np.exp(gen.diagonal()[single])[:, None] * mat[single]
    for c in np.flatnonzero((sizes > 1) & (sizes <= DENSE_EXPM_LIMIT)):
        span = slice(entry_starts[c], entry_starts[c + 1])
        block = np.zeros((sizes[c], sizes[c]), dtype=gen.dtype)
        block[perm.row[span] - starts[c], perm.col[span] - starts[c]] = perm.data[span]
        idx = order[starts[c]:starts[c + 1]]
        out[idx] = expm(block) @ mat[idx]
    large = np.flatnonzero(sizes[labels] > DENSE_EXPM_LIMIT)
    if large.size:
        out[large] = expm_multiply(gen[large][:, large].tocsc(), mat[large])
    out = out.reshape(lead + moved.shape[len(modes):])
    return np.moveaxis(out, range(len(modes)), modes)


def _gate_generator(kind: str, params: dict, cutoffs: tuple) -> sp.spmatrix:
    """Sparse anti-Hermitian generator of one gate on its own mode space."""
    if kind == "displacement":
        amp = complex(params.get("re", 0.0), params.get("im", 0.0))
        a = sp.csr_matrix(annihilator(cutoffs[0]))
        return amp * a.conj().T - np.conj(amp) * a
    if kind == "phase_rotation":
        n = sp.diags(np.arange(cutoffs[0], dtype=float))
        return -1j * params["theta"] * n
    if kind == "single_mode_squeezer":
        r = _squeeze_param(params)
        a = sp.csr_matrix(annihilator(cutoffs[0]))
        return (r / 2.0) * (a.conj().T @ a.conj().T - a @ a)
    if kind == "two_mode_squeezer":
        r = _squeeze_param(params)
        a = sp.kron(sp.csr_matrix(annihilator(cutoffs[0])), sp.eye(cutoffs[1]))
        b = sp.kron(sp.eye(cutoffs[0]), sp.csr_matrix(annihilator(cutoffs[1])))
        return r * (a.conj().T @ b.conj().T - a @ b)
    if kind == "beamsplitter":
        theta = np.arccos(np.sqrt(params["transmittance"]))
        a = sp.kron(sp.csr_matrix(annihilator(cutoffs[0])), sp.eye(cutoffs[1]))
        b = sp.kron(sp.eye(cutoffs[0]), sp.csr_matrix(annihilator(cutoffs[1])))
        return theta * (a.conj().T @ b - a @ b.conj().T)
    raise ValueError(f"unknown gate kind {kind!r}")


def _squeeze_param(params: dict) -> float:
    if "r" in params and params["r"] is not None:
        return float(params["r"])
    return 0.5 * np.log(10.0 ** (params["db"] / 10.0))


def _apply_gate(psi: np.ndarray, kind: str, params: dict, modes: tuple,
                cutoffs: tuple, leak: np.ndarray) -> np.ndarray:
    gate_cut = tuple(cutoffs[m] for m in modes)
    gen = _gate_generator(kind, params, gate_cut)
    psi = _apply_generator(psi, gen, modes)
    for m in modes:
        leak[m] = max(leak[m], _top_level_population(psi, m))
    return psi


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


def run_circuit_fock(circuit, truncation: TruncationSpec | None = None) -> FockState:
    """Run a gate circuit on the vacuum in the truncated number basis.

    ``circuit`` provides ``mode_count`` and ``gates`` (each with ``kind``,
    ``params`` and ``modes``).  Without an explicit truncation the cutoffs
    start from the covariance-route mean photon numbers and any mode whose
    leakage exceeds the tolerance is doubled, up to the memory budget.
    """
    if truncation is not None:
        if len(truncation.cutoffs) != circuit.mode_count:
            raise ValueError("truncation does not match the circuit")
        psi, leak = _run_gates(circuit, truncation.cutoffs)
        deficiency = float(leak.max())
        if deficiency > truncation.deficiency_tolerance:
            raise TruncationInsufficientError(
                f"leakage {deficiency:.3e} above tolerance "
                f"{truncation.deficiency_tolerance:.1e}"
            )
        return FockState(psi, truncation, deficiency)
    cutoffs = _cutoffs_from_mean_photons(_per_mode_photons(circuit_to_gaussian(circuit)))
    tol = 1e-8

    def attempt(cut):
        return _run_gates(circuit, cut)

    return _converge_cutoffs(attempt, cutoffs, tol, num_ancilla=0)


def _converge_cutoffs(attempt, cutoffs: tuple, tol: float, num_ancilla: int) -> FockState:
    """Re-run ``attempt`` doubling leaking modes until the tolerance is met."""
    for _ in range(6):
        _check_budget(cutoffs)
        psi, leak = attempt(tuple(cutoffs))
        deficiency = float(leak.max())
        if deficiency <= tol:
            return FockState(psi, TruncationSpec(tuple(cutoffs), tol), deficiency,
                             num_ancilla=num_ancilla)
        cutoffs = tuple(
            2 * c if leak[j] > tol else c for j, c in enumerate(cutoffs)
        )
    raise TruncationInsufficientError(
        f"leakage {deficiency:.3e} persists at cutoffs {cutoffs}"
    )


def _run_gates(circuit, cutoffs: tuple) -> tuple[np.ndarray, np.ndarray]:
    psi = _vacuum_tensor(tuple(cutoffs))
    leak = np.zeros(len(cutoffs))
    for gate in circuit.gates:
        psi = _apply_gate(psi, gate.kind, dict(gate.params),
                          tuple(gate.modes), tuple(cutoffs), leak)
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


def gaussian_state_to_fock(
    state: GaussianState, truncation: TruncationSpec | None = None
) -> FockState:
    """Exact number-basis representation of a Gaussian state.

    The normal-mode decomposition gives thermal factors and a symplectic
    matrix.  Thermal modes are purified with ancilla two-mode squeezers of
    parameter acosh(n)/2 (marginal noise exactly n), the symplectic part is
    applied as a quadratic-generator exponential on the physical modes, and
    the displacement closes the preparation.  Ancilla modes trail the
    physical ones; measurement helpers trace over them.
    """
    decomp = williamson(state)
    m = state.mode_count
    noise = decomp.noise_factors
    thermal = [i for i in range(m) if noise[i] > 1.0 + 1e-10]

    def attempt(cut):
        return _prepare_gaussian(state, decomp, thermal, cut)

    if truncation is None:
        anc = []
        for i in thermal:
            ratio = (noise[i] - 1.0) / (noise[i] + 1.0)  # thermal tail base
            geom = int(math.ceil(math.log(1e-9) / math.log(ratio))) + 14
            anc.append(max(geom, int(math.ceil(2.0 * (noise[i] - 1.0) + 10.0))))
        cutoffs = _cutoffs_for_state(state) + tuple(anc)
        return _converge_cutoffs(attempt, cutoffs, 1e-8, num_ancilla=len(thermal))
    if len(truncation.cutoffs) != m + len(thermal):
        raise ValueError(
            f"need {m} physical + {len(thermal)} ancilla cutoffs, "
            f"got {len(truncation.cutoffs)}"
        )
    _check_budget(truncation.cutoffs)
    psi, leak = _prepare_gaussian(state, decomp, thermal, truncation.cutoffs)
    deficiency = float(leak.max())
    if deficiency > truncation.deficiency_tolerance:
        raise TruncationInsufficientError(
            f"leakage {deficiency:.3e} above tolerance "
            f"{truncation.deficiency_tolerance:.1e}"
        )
    return FockState(psi, truncation, deficiency, num_ancilla=len(thermal))


def _prepare_gaussian(state, decomp, thermal, cutoffs) -> tuple[np.ndarray, np.ndarray]:
    m = state.mode_count
    cutoffs = tuple(cutoffs)
    psi = _vacuum_tensor(cutoffs)
    leak = np.zeros(len(cutoffs))
    for slot, i in enumerate(thermal):
        r = float(np.arccosh(decomp.noise_factors[i])) / 2.0
        psi = _apply_gate(psi, "two_mode_squeezer", {"r": r}, (i, m + slot),
                          cutoffs, leak)
    psi = _apply_symplectic_fock(psi, decomp.symplectic.matrix, cutoffs, m, leak)
    d = state.displacement
    for j in range(m):
        if d[j] != 0.0 or d[m + j] != 0.0:
            psi = _apply_gate(
                psi,
                "displacement",
                {"re": d[j] / 2.0, "im": d[m + j] / 2.0},
                (j,),
                cutoffs,
                leak,
            )
    return psi, leak


def _apply_symplectic_fock(psi, s_matrix, cutoffs, m, leak) -> np.ndarray:
    """Apply the Gaussian unitary of a symplectic matrix to the first m modes.

    The matrix is split by polar decomposition into a positive (active)
    factor with a real symmetric logarithm and an orthogonal (passive)
    factor whose logarithm comes from the corresponding unitary; each factor
    maps to a quadratic generator (i/4) r^T (Omega log S) r.
    """
    if np.abs(s_matrix - np.eye(2 * m)).max() < 1e-14:
        return psi
    omega = symplectic_form(m)
    gram = s_matrix.T @ s_matrix
    evals, evecs = np.linalg.eigh(gram)
    pos = (evecs * np.sqrt(evals)) @ evecs.T  # (S^T S)^(1/2)
    log_pos = (evecs * (0.5 * np.log(evals))) @ evecs.T
    ortho = s_matrix @ np.linalg.inv(pos)
    u = ortho[:m, :m] - 1j * ortho[:m, m:]
    log_u = _unitary_log(u)
    log_ortho = np.block(
        [[log_u.real, -log_u.imag], [log_u.imag, log_u.real]]
    )
    for log_s in (log_pos, log_ortho):
        if np.abs(log_s).max() < 1e-14:
            continue
        gen = _quadratic_generator(omega @ log_s, cutoffs[:m])
        psi = _apply_generator(psi, gen, tuple(range(m)))
        for j in range(m):
            leak[j] = max(leak[j], _top_level_population(psi, j))
    return psi


def _unitary_log(u: np.ndarray) -> np.ndarray:
    """Principal anti-Hermitian logarithm of a unitary matrix."""
    evals, evecs = np.linalg.eig(u)
    phases = np.angle(evals)
    return (evecs * (1j * phases)) @ np.linalg.inv(evecs)


def _quadratic_generator(coeff: np.ndarray, cutoffs) -> sp.spmatrix:
    """(i/4) r^T coeff r as a sparse operator on the product space."""
    coeff = 0.5 * (coeff + coeff.T)
    m = len(cutoffs)
    dims = [int(c) for c in cutoffs]
    r_ops = []
    for j in range(m):
        x, p = _quadratures(dims[j])
        for op in (x, p):
            mats = [sp.eye(dims[t], format="csr") for t in range(m)]
            mats[j] = sp.csr_matrix(op)
            acc = mats[0]
            for t in range(1, m):
                acc = sp.kron(acc, mats[t], format="csr")
            r_ops.append(acc)
    r_ops = r_ops[0::2] + r_ops[1::2]  # reorder to (x_1..x_m, p_1..p_m)
    dim = int(np.prod(dims))
    gen = sp.csr_matrix((dim, dim), dtype=complex)
    for a in range(2 * m):
        for b in range(2 * m):
            if coeff[a, b] != 0.0:
                gen = gen + (0.25j * coeff[a, b]) * (r_ops[a] @ r_ops[b])
    return gen


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
                     state.num_ancilla)


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


def mean_photon_fock(state: FockState, mode: int) -> float:
    rho = reduced_density_matrix(state, [mode])
    n = np.arange(rho.shape[0])
    return float(np.real(np.sum(n * np.diag(rho))))


def quadrature_moments_fock(state: FockState, mode: int) -> dict:
    """Means and variances of x and p for one mode (ancillas traced out)."""
    rho = reduced_density_matrix(state, [mode])
    x, p = _quadratures(rho.shape[0])
    mx = float(np.real(np.trace(x @ rho)))
    mp = float(np.real(np.trace(p @ rho)))
    vx = float(np.real(np.trace(x @ x @ rho))) - mx * mx
    vp = float(np.real(np.trace(p @ p @ rho))) - mp * mp
    return {"mean_x": mx, "mean_p": mp, "var_x": vx, "var_p": vp}


def wigner_origin_fock(state: FockState, modes) -> float:
    """W(0, ..., 0) of the reduced state on ``modes`` via the parity operator.

    In this package's convention W(0) = (1/2pi)^m * <parity>.
    """
    modes = list(modes)
    rho = reduced_density_matrix(state, modes)
    dims = [state.truncation.cutoffs[j] for j in modes]
    parity = np.array([1.0])
    for d in dims:
        parity = np.kron(parity, (-1.0) ** np.arange(d))
    val = float(np.real(np.sum(parity * np.diag(rho).real)))
    return val / (2.0 * np.pi) ** len(modes)


def state_overlap_fock(a: FockState, b: FockState) -> float:
    """|<a|b>|^2 for two states over the same truncation."""
    if a.truncation.cutoffs != b.truncation.cutoffs:
        raise ValueError("states live in different truncations")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
