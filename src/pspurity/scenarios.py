"""Worked examples, random-state fuzzing and parameter sweeps.

The single-mode family diag(n s, n/s) with a displacement covers the full
phenomenology of subtraction-based purification; the three-mode circuit
(one displaced beam threaded through three two-mode squeezers) shows
purification and entanglement growth coexisting.  ``topology_search``
resolves which squeezer pairing reproduces the published sign pattern
rather than hard-coding one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SubtractionFromVacuumError
from .gaussian import (
    CircuitDescription,
    Gate,
    GaussianState,
    ModeSelector,
    circuit_to_gaussian,
    db_to_squeezing_parameter,
    db_to_variance_factor,
    purity_gaussian,
    reduce_modes,
)
from .subtraction import (
    extract_bogoliubov,
    marginal_subtracted,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
)
from .bounds import purification_conditions

#: squeezer pairings searched for the three-mode example (modes 0-indexed)
MODE_PAIRS = ((0, 1), (0, 2), (1, 2))

#: sign pattern of the published three-mode example: rows are the subtracted
#: mode, entries are +1 (ratio > 1) or -1 (ratio < 1) per observed mode
TARGET_SIGN_PATTERN = ((1, 1, 1), (-1, -1, -1), (1, 1, -1))


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep: named inputs and named outputs."""

    params: dict
    outputs: dict


# ---------------------------------------------------------------------------
# single-mode family
# ---------------------------------------------------------------------------

def single_mode_family(
    n_g: float, s_db: float, alpha_mag: float, phi: float
) -> GaussianState:
    """Squeezed thermal state diag(n s, n/s) displaced by amplitude alpha_mag.

    ``alpha_mag`` is the magnitude of the complex amplitude <a> and ``phi``
    its phase, so the phase-space displacement is
    (2 alpha_mag cos(phi), 2 alpha_mag sin(phi)).
    """
    if not np.isfinite([n_g, s_db, alpha_mag, phi]).all():
        raise ValueError("parameters must be finite")
    if n_g < 1.0:
        raise ValueError(f"thermal factor must be >= 1, got {n_g}")
    if alpha_mag < 0.0:
        raise ValueError("displacement magnitude must be nonnegative")
    s = db_to_variance_factor(s_db)
    cov = np.diag([n_g * s, n_g / s])
    disp = np.array([2.0 * alpha_mag * np.cos(phi), 2.0 * alpha_mag * np.sin(phi)])
    return GaussianState(cov, disp)


def reference_single_mode_state() -> GaussianState:
    """The showcase configuration: n = 10, 10 dB, amplitude 6 along x.

    Subtracting a photon from it yields a relative purity of about 1.1967,
    essentially saturating the attainable bound.
    """
    return single_mode_family(10.0, 10.0, 6.0, 0.0)


# ---------------------------------------------------------------------------
# three-mode circuit
# ---------------------------------------------------------------------------

def three_mode_circuit(
    topology=None, alpha: float = 1.6, s_db: float = 3.0
) -> CircuitDescription:
    """Displaced beam threaded through three two-mode squeezers.

    ``topology`` is a sequence of three mode pairs (0-indexed); default is
    the chain (0,1), (1,2), (0,2).  ``alpha`` is the displacement in
    half-scaled quadrature units: the injected beam has <x> = sqrt(2) alpha,
    i.e. <a> = alpha / sqrt(2).  (This scaling is what reproduces the
    published sign pattern; see the topology-search tests.)
    """
    if topology is None:
        topology = ((0, 1), (1, 2), (0, 2))
    topology = tuple(tuple(p) for p in topology)
    if len(topology) != 3:
        raise ValueError("topology must list exactly three pairs")
    for pair in topology:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"invalid mode pair {pair}")
        if not all(0 <= x < 3 for x in pair):
            raise ValueError(f"pair {pair} outside modes 0..2")
    r = db_to_squeezing_parameter(s_db)
    gates = [Gate("displacement", {"re": alpha / np.sqrt(2.0), "im": 0.0}, (0,))]
    for pair in topology:
        gates.append(Gate("two_mode_squeezer", {"r": r}, tuple(pair)))
    return CircuitDescription(3, tuple(gates))


def mode_ratio_table(state: GaussianState) -> np.ndarray:
    """3 x 3 (or m x m) table of per-mode relative purities.

    Entry (g, j): purity of mode j's marginal after subtracting one photon
    from mode g, over its purity before.  NaN marks modes that hold no
    photons (subtraction undefined).
    """
    m = state.mode_count
    table = np.full((m, m), np.nan)
    before = [purity_gaussian(reduce_modes(state, [j])) for j in range(m)]
    for g in range(m):
        try:
            sub = subtract_photon(state, ModeSelector.for_mode(g, m))
        except SubtractionFromVacuumError:
            continue
        for j in range(m):
            marg = marginal_subtracted(sub, [j])
            table[g, j] = purity_subtracted(marg) / before[j]
    return table


def topology_search(alpha: float = 1.6, s_db: float = 3.0):
    """Find the squeezer pairing that reproduces the published sign pattern.

    Enumerates all 27 ordered sequences of the three mode pairs (deterministic
    lexicographic order) and returns ``(topology, table)`` for the first one
    whose 9-entry table matches TARGET_SIGN_PATTERN, or ``(None, None)`` when
    none qualifies.
    """
    for topology in itertools.product(MODE_PAIRS, repeat=3):
        circuit = three_mode_circuit(topology, alpha=alpha, s_db=s_db)
        state = circuit_to_gaussian(circuit)
        table = mode_ratio_table(state)
        if np.isnan(table).any():
            continue
        if _matches_pattern(table, TARGET_SIGN_PATTERN):
            return topology, table
    return None, None


def _matches_pattern(table: np.ndarray, pattern) -> bool:
    for g in range(table.shape[0]):
        for j in range(table.shape[1]):
            if np.sign(table[g, j] - 1.0) != pattern[g][j]:
                return False
    return True


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def _random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_orthogonal_symplectic(m: int, rng: np.random.Generator) -> np.ndarray:
    u = _random_unitary(m, rng)
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def random_state(
    num_modes: int,
    seed: int,
    n_max: float = 20.0,
    r_max: float = 1.5,
    d_max: float = 8.0,
) -> GaussianState:
    """Seeded random physical state V = S diag(n, n) S^T plus displacement.

    S = O1 Z O2 with Haar-ish orthogonal-symplectic factors and squeezing
    magnitudes log-uniform in [0.01, r_max] (covers near-identity and
    strongly squeezed regimes).  Displacement amplitudes per mode are
    uniform in [0, d_max].  Identical seeds give byte-identical states.
    """
    rng = np.random.default_rng(seed)
    n = rng.uniform(1.0, n_max, num_modes)
    r = np.exp(rng.uniform(np.log(0.01), np.log(max(r_max, 0.01)), num_modes))
    r *= rng.choice([-1.0, 1.0], num_modes)
    if r_max == 0.0:
        r[:] = 0.0
    z = np.diag(np.exp(np.concatenate([r, -r])))
    s = (
        _random_orthogonal_symplectic(num_modes, rng)
        @ z
        @ _random_orthogonal_symplectic(num_modes, rng)
    )
    cov = s @ np.diag(np.concatenate([n, n])) @ s.T
    cov = 0.5 * (cov + cov.T)
    mag = rng.uniform(0.0, d_max, num_modes) if d_max > 0 else np.zeros(num_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, num_modes)
    disp = np.concatenate([2.0 * mag * np.cos(phase), 2.0 * mag * np.sin(phase)])
    return GaussianState(cov, disp)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

FIG1A_SQUEEZINGS_DB = (1.0, 10.0, 30.0)
FIG1B_ROWS = ((10.0, 0.0), (20.0, 0.0), (10.0, np.pi / 2.0), (20.0, np.pi / 2.0))


def sweep(figure: str, points: int = 241) -> list[SweepRecord]:
    """Relative-purity sweeps behind the shipped datasets.

    fig1a: ratio and envelope vs displacement direction phi in [0, 2 pi]
        for squeezing 1, 10, 30 dB at n = 10, amplitude 6.
    fig1b: ratio vs displacement amplitude in [0, 12] for four
        (n, phi) combinations at 10 dB.
    """
    if figure == "fig1a":
        return _sweep_fig1a(points)
    if figure == "fig1b":
        return _sweep_fig1b(points)
    raise ValueError(f"unknown sweep {figure!r}")


def _ratio_for(n_g: float, s_db: float, alpha_mag: float, phi: float) -> dict:
    state = single_mode_family(n_g, s_db, alpha_mag, phi)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    report = purification_conditions(row)
    return {
        "ratio": relative_purity_closed_form(row),
        "f_alpha": report.f_alpha,
        "purifiable": report.purifiable,
    }


def _sweep_fig1a(points: int) -> list[SweepRecord]:
    records = []
    for s_db in FIG1A_SQUEEZINGS_DB:
        for phi in np.linspace(0.0, 2.0 * np.pi, points):
            out = _ratio_for(10.0, s_db, 6.0, phi)
            records.append(
                SweepRecord({"phi": float(phi), "s_db": float(s_db)}, out)
            )
    return records


def _sweep_fig1b(points: int) -> list[SweepRecord]:
    records = []
    for n_g, phi in FIG1B_ROWS:
        for alpha_mag in np.linspace(0.0, 12.0, points):
            out = _ratio_for(n_g, 10.0, float(alpha_mag), phi)
            records.append(
                SweepRecord(
                    {"alpha_mag": float(alpha_mag), "n_g": float(n_g),
                     "phi": float(phi)},
                    out,
                )
            )
    return records
