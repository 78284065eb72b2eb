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
import math
import threading

import numpy as np

from .errors import SubtractionFromVacuumError
from .gaussian import (
    CircuitDescription,
    Gate,
    GaussianState,
    ModeSelector,
    _first_failing_row,
    _is_integer,
    circuit_to_gaussian,
    db_to_squeezing_parameter,
    db_to_variance_factor,
    purity_gaussian,
    reduce_modes,
    require_single,
)
from .subtraction import (
    extract_bogoliubov,
    marginal_subtracted,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
)
from .bounds import bound_f

#: squeezer pairings searched for the three-mode example (modes 0-indexed)
MODE_PAIRS = ((0, 1), (0, 2), (1, 2))

#: sign pattern of the published three-mode example: rows are the subtracted
#: mode, entries are +1 (ratio > 1) or -1 (ratio < 1) per observed mode
TARGET_SIGN_PATTERN = ((1, 1, 1), (-1, -1, -1), (1, 1, -1))


# ---------------------------------------------------------------------------
# single-mode family
# ---------------------------------------------------------------------------

def single_mode_family(n_g, s_db, alpha_mag, phi) -> GaussianState:
    """Squeezed thermal state diag(n s, n/s) displaced by amplitude alpha_mag.

    ``alpha_mag`` is the magnitude of the complex amplitude <a> and ``phi``
    its phase, so the phase-space displacement is
    (2 alpha_mag cos(phi), 2 alpha_mag sin(phi)).  Array arguments broadcast
    to a stack with one state per entry, which raises the error its first
    failing entry raises alone.
    """
    params = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                   for p in (n_g, s_db, alpha_mag, phi)))
    n_g, s_db, alpha_mag, phi = (p.ravel() for p in params)
    with _first_failing_row(n_g.size if params[0].ndim else 0,
                            lambda i: single_mode_family(n_g[i], s_db[i], alpha_mag[i], phi[i])):
        if not np.isfinite(params).all():
            raise ValueError("parameters must be finite")
        if (n_g < 1.0).any():
            raise ValueError(f"thermal factor must be >= 1, got {n_g.min()}")
        if (alpha_mag < 0.0).any():
            raise ValueError("displacement magnitude must be nonnegative")
        # Python's pow, entry by entry: NumPy's vectorized power rounds differently
        s = np.array([db_to_variance_factor(db) for db in s_db.tolist()])
        cov = np.zeros((n_g.size, 2, 2))
        cov[:, 0, 0], cov[:, 1, 1] = n_g * s, n_g / s
        disp = np.stack([2.0 * alpha_mag * np.cos(phi), 2.0 * alpha_mag * np.sin(phi)], axis=-1)
        if params[0].ndim == 0:
            cov, disp = cov[0], disp[0]
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
    r = db_to_squeezing_parameter(s_db)
    gates = [Gate("displacement", {"re": alpha / np.sqrt(2.0), "im": 0.0}, (0,))]
    for pair in topology:
        gates.append(Gate("two_mode_squeezer", {"r": r}, tuple(pair)))
    return CircuitDescription(3, tuple(gates))


def _ratio_entries(state: GaussianState):
    """(g, j, ratio) of every entry of the per-mode table, in row-major
    order, each computed as its turn comes; a consumer that stops early
    computes nothing past the entry it stopped at.  A row whose subtraction
    is undefined (mode g holds no photons) yields NaN entries."""
    m = state.mode_count
    before = []  # purity of mode j's marginal, computed by the first row that reaches j
    for g in range(m):
        try:
            sub = subtract_photon(state, ModeSelector.for_mode(g, m))
        except SubtractionFromVacuumError:
            sub = None
        for j in range(m):
            if sub is None:
                yield g, j, np.nan
                continue
            if j == len(before):
                before.append(purity_gaussian(reduce_modes(state, [j])))
            yield g, j, purity_subtracted(marginal_subtracted(sub, [j])) / before[j]


def mode_ratio_table(state: GaussianState) -> np.ndarray:
    """3 x 3 (or m x m) table of per-mode relative purities.

    Entry (g, j): purity of mode j's marginal after subtracting one photon
    from mode g, over its purity before.  NaN marks modes that hold no
    photons (subtraction undefined).
    """
    require_single(state, "mode_ratio_table")
    m = state.mode_count
    table = np.empty((m, m))
    for g, j, ratio in _ratio_entries(state):
        table[g, j] = ratio
    return table


def topology_search(alpha: float = 1.6, s_db: float = 3.0):
    """Find the squeezer pairing that reproduces the published sign pattern.

    Enumerates all 27 ordered sequences of the three mode pairs (deterministic
    lexicographic order) and returns ``(topology, table)`` for the first one
    whose 9-entry table matches TARGET_SIGN_PATTERN, or ``(None, None)`` when
    none qualifies.  Each candidate's table is built entry by entry in
    row-major order and dropped at its first NaN or wrong sign, so the
    winner's table is the only full one.
    """
    for topology in itertools.product(MODE_PAIRS, repeat=3):
        state = circuit_to_gaussian(three_mode_circuit(topology, alpha=alpha, s_db=s_db))
        table = np.empty((3, 3))
        for g, j, ratio in _ratio_entries(state):
            if np.sign(ratio - 1.0) != TARGET_SIGN_PATTERN[g][j]:  # NaN: never equal
                break
            table[g, j] = ratio
        else:
            return topology, table
    return None, None


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

#: a seed is Philox's 128-bit key, as the words seed mod 2**64 and seed // 2**64
_SEED_LIMIT = 2**128
_WORD = 2**64 - 1

#: each thread's Philox and its state at counter 0 with an empty buffer,
#: built on first use; every draw sets the key first
_PHILOX = threading.local()


def _thread_philox():
    """This thread's (Philox, start state).  Seeding with 0 builds it without
    the OS entropy that ``Philox(key=...)`` reads and discards."""
    if not hasattr(_PHILOX, "bits"):
        _PHILOX.bits = np.random.Philox(0)
        _PHILOX.start = _PHILOX.bits.state
    return _PHILOX.bits, _PHILOX.start


def _random_orthogonal_symplectic(z: np.ndarray) -> np.ndarray:
    """Orthogonal symplectic [[Re U, -Im U], [Im U, Re U]] of the Haar unitary
    U that QR makes of each complex Gaussian matrix of the stack ``z``."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    m = u.shape[-1]
    o = np.empty(u.shape[:-2] + (2 * m, 2 * m))
    o[..., :m, :m] = o[..., m:, m:] = u.real
    o[..., :m, m:] = -u.imag
    o[..., m:, :m] = u.imag
    return o


def random_state(
    num_modes: int,
    seed,
    n_max: float = 20.0,
    r_max: float = 1.5,
    d_max: float = 8.0,
) -> GaussianState:
    """Seeded random physical state V = S diag(n, n) S^T plus displacement.

    S = O1 Z O2 with Haar-ish orthogonal-symplectic factors and squeezing
    magnitudes log-uniform in [min(0.01, r_max), r_max] (covers
    near-identity and strongly squeezed regimes; r = 0 when r_max is 0).
    Displacement amplitudes per mode are uniform in [0, d_max].  Identical
    seeds give byte-identical states; a seed is an integer in [0, 2**128).
    The ranges must be finite with n_max >= 1, r_max >= 0 and d_max >= 0.

    ``seed`` may be a sequence: the result is then a stack with one state per
    seed, each bit for bit the state of its own seed, and ``d_max`` may be
    one value per seed.  A state reads NumPy's counter-based ``Philox``
    with key words (seed mod 2**64, seed // 2**64) from counter 0: one
    ``random`` fill of 5 m uniforms (n, log r, the sign of r from u < 1/2,
    the displacement amplitude, its phase) and one ``standard_normal`` fill
    of the two complex m x m Gaussian matrices.  Every draw is made whatever
    the ranges, so ``d_max`` only scales the amplitudes and a state is a
    function of (m, seed, ranges).  The maps ``low + (high - low) u``, as
    ``Generator.uniform`` applies them, and the matrix algebra run once on
    the stack.
    """
    if not _is_integer(num_modes) or num_modes < 1:
        raise ValueError(f"num_modes must be an integer of at least 1, got {num_modes!r}")
    m = int(num_modes)
    stacked = np.ndim(seed) > 0
    seeds = list(seed) if stacked else [seed]
    if not seeds:
        raise ValueError("need at least one seed")
    for i, one in enumerate(seeds):
        name = f"seed[{i}]" if stacked else "seed"
        if not _is_integer(one) or one < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {one!r}")
        seeds[i] = int(one)
        if seeds[i] >= _SEED_LIMIT:
            raise ValueError(f"{name} = {one} does not fit a 128-bit Philox key")
    d_max = np.asarray(d_max, dtype=float)
    if d_max.ndim and (not stacked or d_max.shape != (len(seeds),)):
        raise ValueError(f"d_max must be one value or one per seed, got shape {d_max.shape}")
    if not (math.isfinite(n_max) and math.isfinite(r_max) and n_max >= 1.0 and r_max >= 0.0
            and 0.0 <= d_max.min() and d_max.max() < math.inf):  # NaN fails both
        raise ValueError(
            f"random_state needs finite n_max >= 1, r_max >= 0 and d_max >= 0, "
            f"got {n_max}, {r_max}, {d_max}"
        )
    # per state: uniforms of n, log r, the sign of r, amplitude and phase; the
    # re and im of O1's and O2's Gaussian matrices
    u = np.empty((len(seeds), 5, m))
    gauss = np.empty((len(seeds), 2, 2, m, m))
    bits, start = _thread_philox()
    gen = np.random.Generator(bits)
    for one, uniforms, normals in zip(seeds, u, gauss):
        start["state"]["key"] = (one & _WORD, one >> 64)
        bits.state = start  # counter 0, empty buffer
        gen.random(out=uniforms)
        gen.standard_normal(out=normals)
    r_top = r_max or 0.01  # any finite map for r_max = 0: r is zeroed below
    r_low = math.log(min(0.01, r_top))
    low = np.array([[1.0], [r_low], [0.0], [0.0], [0.0]])
    span = np.array([[n_max - 1.0], [math.log(r_top) - r_low], [1.0], [1.0], [2.0 * math.pi]])
    n, r, sign, mag, phase = (low + span * u).swapaxes(0, 1)
    r = np.copysign(np.exp(r), sign - 0.5)  # negative where u < 1/2
    mag = mag * d_max[..., None]  # one d_max, or one per state
    z = gauss[:, :, 0] + 1j * gauss[:, :, 1]
    if r_max == 0.0:
        r[:] = 0.0
    o = _random_orthogonal_symplectic(z / np.sqrt(2.0))  # O1 and O2 of each state
    # a product with a diagonal matrix scales columns: the same bits, fewer flops
    s = (o[:, 0] * np.exp(np.concatenate([r, -r], axis=-1))[:, None, :]) @ o[:, 1]
    cov = (s * np.concatenate([n, n], axis=-1)[:, None, :]) @ s.swapaxes(-1, -2)
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    disp = np.concatenate([2.0 * mag * np.cos(phase), 2.0 * mag * np.sin(phase)], axis=-1)
    if not stacked:
        cov, disp = cov[0], disp[0]
    return GaussianState(cov, disp)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

FIG1A_SQUEEZINGS_DB = (1.0, 10.0, 30.0)
FIG1B_ROWS = ((10.0, 0.0), (20.0, 0.0), (10.0, np.pi / 2.0), (20.0, np.pi / 2.0))


def sweep(figure: str, points: int = 241) -> dict:
    """Relative-purity sweeps behind the shipped datasets, as the CSV's
    columns in order, each an array with one entry per grid point.

    fig1a: ratio and envelope f_alpha vs displacement direction phi in
        [0, 2 pi] for squeezing 1, 10, 30 dB at n = 10, amplitude 6
        (columns phi, s_db, ratio, f_alpha).
    fig1b: ratio vs displacement amplitude in [0, 12] for four (n, phi)
        combinations at 10 dB (columns alpha_mag, n_g, phi, ratio).

    Every grid point is one row of a single stack, extracted and put through
    the closed form in one pass.
    """
    if not _is_integer(points) or points < 1:
        raise ValueError(f"points must be an integer of at least 1, got {points!r}")
    if figure == "fig1a":
        s_db = np.repeat(FIG1A_SQUEEZINGS_DB, points)
        phi = np.tile(np.linspace(0.0, 2.0 * np.pi, points), len(FIG1A_SQUEEZINGS_DB))
        columns = {"phi": phi, "s_db": s_db}
        state = single_mode_family(10.0, s_db, 6.0, phi)
    elif figure == "fig1b":
        n_g, phi = (np.repeat(column, points) for column in zip(*FIG1B_ROWS))
        alpha_mag = np.tile(np.linspace(0.0, 12.0, points), len(FIG1B_ROWS))
        columns = {"alpha_mag": alpha_mag, "n_g": n_g, "phi": phi}
        state = single_mode_family(n_g, 10.0, alpha_mag, phi)
    else:
        raise ValueError(f"unknown sweep {figure!r}")
    rows = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    columns["ratio"] = relative_purity_closed_form(rows)
    if figure == "fig1a":
        aggregates = (rows.x.tolist(), rows.y.tolist(), rows.z.tolist(), rows.alpha_sq.tolist())
        columns["f_alpha"] = np.array([bound_f(*row) for row in zip(*aggregates)])
    return columns
