"""Number-basis oracle: gates, subtraction, partial traces, cross-checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg.lapack import dstevd
from scipy.sparse.csgraph import connected_components

from pspurity import (
    GaussianState,
    ModeSelector,
    SubtractionFromVacuumError,
    TruncationInsufficientError,
    extract_bogoliubov,
    gaussian_wigner_fn,
    make_thermal,
    make_vacuum,
    mean_photon,
    moments_subtracted,
    purity_gaussian,
    beamsplitter,
    db_to_squeezing_parameter,
    reduce_modes,
    relative_purity_closed_form,
    single_mode_squeezer,
    subtract_photon,
    subtracted_wigner_fn,
    wigner_subtracted_at,
)
from pspurity import fock
from pspurity.fock import (
    LEAKAGE_TOL,
    MEMORY_ENV_VAR,
    TruncationSpec,
    _apply_gate,
    _converge_cutoffs,
    _run_gates,
    _symplectic_gates,
    _vacuum_tensor,
    annihilator,
    gaussian_state_to_fock,
    mean_photon_fock,
    quadrature_moments_fock,
    reduced_density_matrix,
    reduced_purity_fock,
    run_circuit_fock,
    state_overlap_fock,
    subtract_photon_fock,
    wigner_origin_fock,
)
from pspurity.gaussian import _gate_transform
from pspurity.quadrature import GridSpec, variance_by_grid
from pspurity.scenarios import (
    CircuitDescription,
    Gate,
    circuit_to_gaussian,
    random_state,
    reference_single_mode_state,
    three_mode_circuit,
)


def circuit(mode_count, *gates):
    return CircuitDescription(mode_count, tuple(gates))


def test_displacement_mean_photon():
    state = run_circuit_fock(
        circuit(1, Gate("displacement", {"re": 1.6, "im": 0.0}, (0,)))
    )
    assert mean_photon_fock(state, 0) == pytest.approx(2.56, abs=1e-6)


def test_large_displacement_mean_photon():
    # amplitude 6 (phase-space shift 12): <n> = |<a>|^2 = 36
    state = run_circuit_fock(
        circuit(1, Gate("displacement", {"re": 6.0, "im": 0.0}, (0,)))
    )
    assert mean_photon_fock(state, 0) == pytest.approx(36.0, abs=1e-6)
    gauss = GaussianState(np.eye(2), np.array([12.0, 0.0]))
    assert mean_photon(gauss, ModeSelector.for_mode(0, 1)) == pytest.approx(
        mean_photon_fock(state, 0), abs=1e-6
    )


def test_coherent_amplitudes_closed_form():
    amp = 1.2
    state = run_circuit_fock(
        circuit(1, Gate("displacement", {"re": amp, "im": 0.0}, (0,)))
    )
    for n in range(6):
        closed = math.exp(-(amp**2) / 2) * amp**n / math.sqrt(math.factorial(n))
        assert state.amplitudes[n].real == pytest.approx(closed, abs=1e-10)


def test_squeezer_amplitudes_closed_form():
    r = 0.6
    state = run_circuit_fock(
        circuit(1, Gate("single_mode_squeezer", {"r": r}, (0,)))
    )
    for n in range(6):
        closed = (
            math.tanh(r) ** n
            * math.sqrt(math.factorial(2 * n))
            / (2**n * math.factorial(n))
            / math.sqrt(math.cosh(r))
        )
        assert state.amplitudes[2 * n].real == pytest.approx(closed, abs=1e-8)
        if 2 * n + 1 < state.truncation.cutoffs[0]:
            assert abs(state.amplitudes[2 * n + 1]) < 1e-14


def test_two_mode_squeezer_schmidt_form():
    r = 0.45
    state = run_circuit_fock(
        circuit(2, Gate("two_mode_squeezer", {"r": r}, (0, 1)))
    )
    for n in range(5):
        closed = math.tanh(r) ** n / math.cosh(r)
        assert state.amplitudes[n, n].real == pytest.approx(closed, abs=1e-10)


def test_two_mode_squeezer_marginal_purity():
    state = run_circuit_fock(
        circuit(2, Gate("two_mode_squeezer", {"db": 3.0}, (0, 1)))
    )
    s = 10 ** 0.3
    assert reduced_purity_fock(state, [0]) == pytest.approx(2 / (s + 1 / s), abs=1e-6)


def test_circuit_covariance_matches_gaussian_route():
    circ = three_mode_circuit()
    fock = run_circuit_fock(circ)
    gauss = circuit_to_gaussian(circ)
    for j in range(3):
        mm = quadrature_moments_fock(fock, j)
        assert mm["mean_x"] == pytest.approx(gauss.displacement[j], abs=1e-5)
        assert mm["var_x"] == pytest.approx(gauss.covariance[j, j], abs=1e-5)
        assert mm["var_p"] == pytest.approx(gauss.covariance[3 + j, 3 + j], abs=1e-5)


def test_three_mode_global_purity_is_one():
    state = run_circuit_fock(three_mode_circuit())
    assert reduced_purity_fock(state, [0, 1, 2]) == pytest.approx(1.0, abs=1e-7)


def test_subtract_coherent_is_fixed_point():
    state = run_circuit_fock(
        circuit(1, Gate("displacement", {"re": 1.6, "im": 0.4}, (0,)))
    )
    sub = subtract_photon_fock(state, 0)
    assert state_overlap_fock(state, sub) == pytest.approx(1.0, abs=1e-9)


def test_subtract_single_photon_gives_vacuum():
    cut = TruncationSpec((8,))
    psi = np.zeros(8, complex)
    psi[1] = 1.0
    from pspurity.fock import FockState

    one = FockState(psi, cut)
    sub = subtract_photon_fock(one, 0)
    assert abs(sub.amplitudes[0]) == pytest.approx(1.0)
    with pytest.raises(SubtractionFromVacuumError):
        subtract_photon_fock(sub, 0)


def test_subtract_squeezed_vacuum_raises_mean_photon():
    state = run_circuit_fock(
        circuit(1, Gate("single_mode_squeezer", {"r": 0.5}, (0,)))
    )
    sub = subtract_photon_fock(state, 0)
    assert mean_photon_fock(sub, 0) > mean_photon_fock(state, 0)


def test_subtracted_squeezed_vacuum_wigner_origin_sign():
    # parity route: origin value of the subtracted state is negative, and it
    # matches the phase-space evaluator
    gs = GaussianState(np.diag([4.0, 0.25]), np.zeros(2))
    analytic = wigner_subtracted_at(
        subtract_photon(gs, ModeSelector.for_mode(0, 1)), [0.0, 0.0]
    )
    state = run_circuit_fock(
        circuit(1, Gate("single_mode_squeezer", {"r": math.log(2.0)}, (0,)))
    )
    sub = subtract_photon_fock(state, 0)
    origin = wigner_origin_fock(sub, [0])
    assert origin < 0
    assert origin == pytest.approx(analytic, abs=1e-8)


def test_wigner_origin_of_two_mode_marginal():
    circ = three_mode_circuit()
    marginal = reduce_modes(circuit_to_gaussian(circ), [0, 2])
    want = gaussian_wigner_fn(marginal)(np.zeros(4))
    got = wigner_origin_fock(run_circuit_fock(circ), [0, 2])
    assert got == pytest.approx(want, rel=1e-6)


def test_partial_trace_order_consistency():
    state = run_circuit_fock(three_mode_circuit())
    rho_a = reduced_density_matrix(state, [0])
    sub2 = reduced_density_matrix(state, [0, 2])
    cut = state.truncation.cutoffs
    rho_via = sub2.reshape(cut[0], cut[2], cut[0], cut[2])
    rho_b = np.einsum("ikjk->ij", rho_via)
    assert np.abs(rho_a - rho_b).max() < 1e-12


def test_product_state_purity_one():
    state = run_circuit_fock(
        circuit(
            2,
            Gate("displacement", {"re": 0.7, "im": 0.0}, (0,)),
            Gate("single_mode_squeezer", {"r": 0.4}, (1,)),
        )
    )
    assert reduced_purity_fock(state, [0]) == pytest.approx(1.0, abs=1e-9)
    assert reduced_purity_fock(state, [1]) == pytest.approx(1.0, abs=1e-9)


def test_converge_cutoffs_raises_when_leakage_persists():
    tried = []

    def always_leaking(cut):
        tried.append(cut)
        return _vacuum_tensor(cut), np.array([1.0, 0.0])

    with pytest.raises(TruncationInsufficientError, match="persists") as info:
        _converge_cutoffs(always_leaking, (4, 3), num_ancilla=0)
    # only the leaking mode is doubled, once per round
    assert tried == [(4 * 2**k, 3) for k in range(6)]
    # the message names the last cutoffs that ran, not the next doubling
    assert "(128, 3)" in str(info.value)


def test_converge_cutoffs_counts_attempts():
    circ = circuit(1, Gate("displacement", {"re": 2.0, "im": 0.0}, (0,)))
    assert run_circuit_fock(circ).attempts == 1
    calls = []

    def leaks_once(cut):
        calls.append(cut)
        psi = np.zeros(cut, complex)
        psi[1, 0] = 1.0
        return psi, np.array([1.0 if len(calls) == 1 else 0.0, 0.0])

    state = _converge_cutoffs(leaks_once, (4, 3), num_ancilla=0)
    assert state.attempts == 2
    assert state.truncation.cutoffs == (8, 3)
    # subtraction keeps the preparation's truncation record
    assert subtract_photon_fock(state, 0).attempts == 2


def test_run_circuit_fock_checks_memory_budget(monkeypatch):
    circ = circuit(1, Gate("displacement", {"re": 2.0, "im": 0.0}, (0,)))
    assert run_circuit_fock(circ).deficiency <= LEAKAGE_TOL
    monkeypatch.setenv(MEMORY_ENV_VAR, "1e-6")  # 1 byte
    with pytest.raises(TruncationInsufficientError, match=MEMORY_ENV_VAR):
        run_circuit_fock(circ)


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "0", "-5", "abc"])
def test_memory_budget_refuses_bad_values(monkeypatch, value):
    monkeypatch.setenv(MEMORY_ENV_VAR, value)
    with pytest.raises(ValueError, match=MEMORY_ENV_VAR):
        gaussian_state_to_fock(make_thermal([2.0]))


def test_memory_budget_accepts_a_valid_value(monkeypatch):
    monkeypatch.setenv(MEMORY_ENV_VAR, "64")
    assert gaussian_state_to_fock(make_thermal([2.0])).deficiency <= LEAKAGE_TOL


def test_leakage_monotone_in_cutoff():
    circ = circuit(1, Gate("single_mode_squeezer", {"r": 0.7}, (0,)))
    leaks = [_run_gates(circ, (cut,))[1][0] for cut in (20, 30, 40)]
    assert leaks[0] > LEAKAGE_TOL
    assert leaks[2] <= leaks[1] <= leaks[0]


def test_moments_of_complex_displacement():
    # <a> = 0.8 - 1.3i: phase-space mean (1.6, -2.6), vacuum variances
    state = run_circuit_fock(
        circuit(1, Gate("displacement", {"re": 0.8, "im": -1.3}, (0,)))
    )
    mm = quadrature_moments_fock(state, 0)
    assert mm["mean_x"] == pytest.approx(1.6, abs=1e-9)
    assert mm["mean_p"] == pytest.approx(-2.6, abs=1e-9)
    assert mm["var_x"] == pytest.approx(1.0, abs=1e-9)
    assert mm["var_p"] == pytest.approx(1.0, abs=1e-9)
    assert mean_photon_fock(state, 0) == pytest.approx(0.8**2 + 1.3**2, abs=1e-9)


def test_grid_and_fock_moments_agree():
    """Both oracles return the same moment dict for one displaced, squeezed
    thermal state, before and after subtraction."""
    from pspurity import apply_displacement, apply_symplectic, make_thermal, single_mode_squeezer

    state = apply_displacement(
        apply_symplectic(make_thermal([1.8]), single_mode_squeezer(r=0.4, mode=0, num_modes=1)),
        [1.5, -0.8],
    )
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    fock = gaussian_state_to_fock(state)
    pairs = [
        (quadrature_moments_fock(fock, 0),
         variance_by_grid(gaussian_wigner_fn(state), 0, 1, GridSpec.for_state(state))),
        (quadrature_moments_fock(subtract_photon_fock(fock, 0), 0),
         variance_by_grid(subtracted_wigner_fn(sub), 0, 1, GridSpec.for_state(sub.base))),
    ]
    for by_fock, by_grid in pairs:
        assert by_grid.keys() == by_fock.keys()
        for key, value in by_fock.items():
            assert abs(by_grid[key] - value) <= 1e-4 * max(1.0, abs(value)), key


def test_gaussian_state_to_fock_vacuum():
    state = gaussian_state_to_fock(make_vacuum(1))
    assert abs(state.amplitudes[0]) == pytest.approx(1.0)
    assert state.num_ancilla == 0


def test_gaussian_state_to_fock_thermal():
    from pspurity import make_thermal

    state = gaussian_state_to_fock(make_thermal([3.0]))
    assert state.num_ancilla == 1
    assert reduced_purity_fock(state, [0]) == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert mean_photon_fock(state, 0) == pytest.approx(1.0, abs=1e-5)


def test_small_displaced_squeezed_thermal_full_agreement():
    """One displaced mixed state checked across every route at once."""
    state = GaussianState(np.diag([4.0, 1.0]), np.array([2.0, 0.0]))
    sel = ModeSelector.for_mode(0, 1)
    fock = gaussian_state_to_fock(state)
    mm = quadrature_moments_fock(fock, 0)
    assert mm["mean_x"] == pytest.approx(2.0, abs=1e-9)
    assert mm["var_x"] == pytest.approx(4.0, abs=1e-9)
    assert reduced_purity_fock(fock, [0]) == pytest.approx(0.5, abs=1e-9)
    sub_fock = subtract_photon_fock(fock, 0)
    sub = subtract_photon(state, sel)
    report = moments_subtracted(sub)
    mm2 = quadrature_moments_fock(sub_fock, 0)
    assert mm2["mean_x"] == pytest.approx(report.mean[0], abs=1e-8)
    assert mm2["var_x"] == pytest.approx(report.covariance[0, 0], abs=1e-8)
    assert mm2["var_p"] == pytest.approx(report.covariance[1, 1], abs=1e-8)
    ratio_fock = reduced_purity_fock(sub_fock, [0]) / reduced_purity_fock(fock, [0])
    ratio = relative_purity_closed_form(extract_bogoliubov(state, sel))
    assert ratio_fock == pytest.approx(ratio, abs=1e-9)


def test_rotated_mixed_state_prep():
    # a squeezer between two phase rotations after the ancilla squeezer
    from pspurity import apply_symplectic, make_thermal, phase_rotation, single_mode_squeezer

    state = apply_symplectic(
        apply_symplectic(make_thermal([2.5]), single_mode_squeezer(r=0.5, mode=0, num_modes=1)),
        phase_rotation(0.7, 0, 1),
    )
    fock = gaussian_state_to_fock(state)
    mm = quadrature_moments_fock(fock, 0)
    assert mm["var_x"] == pytest.approx(state.covariance[0, 0], abs=1e-6)
    assert mm["var_p"] == pytest.approx(state.covariance[1, 1], abs=1e-6)
    assert reduced_purity_fock(fock, [0]) == pytest.approx(
        purity_gaussian(state), abs=1e-6
    )


def test_two_mode_squeezed_reduced_ratios_undisplaced():
    """Subtracting from an undisplaced entangled state never raises any
    reduced purity (number-basis route)."""
    circ = circuit(2, Gate("two_mode_squeezer", {"r": 0.6}, (0, 1)))
    fock = run_circuit_fock(circ)
    before = [reduced_purity_fock(fock, [j]) for j in range(2)]
    sub = subtract_photon_fock(fock, 0)
    for j in range(2):
        after = reduced_purity_fock(sub, [j])
        assert after <= before[j] + 1e-10


@pytest.mark.slow
def test_reference_state_fock_cross_check():
    """Full-strength check on the showcase state: heavy but decisive."""
    state = reference_single_mode_state()
    sel = ModeSelector.for_mode(0, 1)
    fock = gaussian_state_to_fock(state)
    mm = quadrature_moments_fock(fock, 0)
    x_sq = mm["var_x"] + mm["mean_x"] ** 2
    assert mm["mean_x"] == pytest.approx(12.0, abs=1e-4)
    assert x_sq == pytest.approx(244.0, abs=244 * 1e-4)
    assert mean_photon_fock(fock, 0) == pytest.approx(
        mean_photon(state, sel), abs=1e-4
    )
    sub_fock = subtract_photon_fock(fock, 0)
    ratio_fock = reduced_purity_fock(sub_fock, [0]) / reduced_purity_fock(fock, [0])
    assert ratio_fock == pytest.approx(1.1966997, abs=1e-6)
    mm2 = quadrature_moments_fock(sub_fock, 0)
    assert mm2["mean_x"] == pytest.approx(21.7777778, abs=1e-4)
    assert mm2["var_x"] / mm["var_x"] == pytest.approx(0.85, abs=0.01)


def reference_generator(kind, params, cut):
    """Dense anti-Hermitian generator of one gate on its own modes, built
    from the annihilation matrices alone, independent of the chain labels."""
    a = annihilator(cut[0])
    if kind == "displacement":
        amp = complex(params.get("re", 0.0), params.get("im", 0.0))
        return amp * a.T - np.conj(amp) * a
    if kind == "phase_rotation":
        return -1j * params["theta"] * (a.T @ a)
    if kind.endswith("squeezer"):
        r = params["r"] if "r" in params else db_to_squeezing_parameter(params["db"])
    if kind == "single_mode_squeezer":
        return (r / 2.0) * (a.T @ a.T - a @ a)
    a = np.kron(a, np.eye(cut[1]))
    b = np.kron(np.eye(cut[0]), annihilator(cut[1]))
    if kind == "two_mode_squeezer":
        return r * (a.T @ b.T - a @ b)
    theta = np.arccos(np.sqrt(params["transmittance"]))
    return theta * (a.T @ b - a @ b.T)


# (kind, params, per-mode cutoffs) for every gate kind
GATE_CASES = [
    ("displacement", {"re": 0.7, "im": -0.4}, (9,)),
    ("phase_rotation", {"theta": 0.9}, (9,)),
    ("single_mode_squeezer", {"r": 0.5}, (10,)),
    ("single_mode_squeezer", {"db": 2.5}, (9,)),
    ("two_mode_squeezer", {"r": 0.4}, (7, 9)),
    ("two_mode_squeezer", {"r": -0.3}, (9, 4)),
    ("beamsplitter", {"transmittance": 0.3}, (8, 6)),
    # the truncation cuts the n_a + n_b chains unevenly
    ("beamsplitter", {"transmittance": 0.6}, (3, 7)),
    # zero parameters: every chain element is 0, the gate is the identity
    ("single_mode_squeezer", {"r": 0.0}, (6,)),
    ("two_mode_squeezer", {"r": 0.0}, (5, 4)),
    ("beamsplitter", {"transmittance": 1.0}, (4, 5)),
    ("displacement", {"re": 0.0, "im": 0.0}, (6,)),
    ("phase_rotation", {"theta": 0.0}, (5,)),
]


@pytest.mark.parametrize("spectator", [1024, 3])
def test_blockwise_generator_matches_dense_expm(spectator):
    """Sector-by-sector chain exponentials equal exp of the whole generator
    for every gate kind; a wide spectator mode applies each sector to more
    columns than the sector has states, a narrow one to fewer."""
    rng = np.random.default_rng(11)
    for kind, params, cut in GATE_CASES:
        gen = reference_generator(kind, params, cut)
        shape = (spectator,) + cut  # a spectator mode ahead of the gate's modes
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _apply_gate(psi, kind, params, tuple(range(1, len(cut) + 1)))
        mat = np.moveaxis(psi, 0, -1).reshape(gen.shape[0], -1)
        want = np.moveaxis((expm(gen) @ mat).reshape(cut + (spectator,)), -1, 0)
        assert np.abs(got - want).max() <= 1e-12, kind
        if not gen.any():  # a zero-parameter gate is exactly the identity
            assert np.array_equal(got, psi), kind


def _sector_labels(gen):
    return connected_components(np.abs(gen) > 0, directed=False)[1]


@pytest.mark.parametrize("input_kind", ["vacuum", "alternate_sectors"])
def test_occupied_sectors_match_dense_expm(input_kind):
    """Skipping the sectors that hold no amplitude is exact: the result
    equals exp of the whole generator, and empty sectors stay exactly 0.
    Some occupied sectors are faint (amplitudes near 1e-280), so a sector
    dropped by any threshold would show up as rows of zeros."""
    rng = np.random.default_rng(17)
    for kind, params, cut in GATE_CASES:
        gen = reference_generator(kind, params, cut)
        labels = _sector_labels(gen)
        shape = (3,) + cut  # a spectator mode ahead of the gate's modes
        if input_kind == "vacuum":
            psi = _vacuum_tensor(shape)
            empty = labels != labels[0]
        else:
            psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            empty = labels % 2 == 1
            psi.reshape(3, -1)[:, empty] = 0.0
            psi.reshape(3, -1)[:, labels % 4 == 2] *= 1e-280
        got = _apply_gate(psi, kind, params, tuple(range(1, len(cut) + 1)))
        mat = np.moveaxis(psi, 0, -1).reshape(gen.shape[0], -1)
        want = np.moveaxis((expm(gen) @ mat).reshape(cut + (3,)), -1, 0)
        assert np.abs(got - want).max() <= 1e-12, kind
        assert np.all(got.reshape(3, -1)[:, empty] == 0), kind
        if input_kind != "vacuum":
            assert np.all(got.reshape(3, -1)[:, ~empty] != 0), kind


def test_squeezer_on_vacuum_solves_one_sector(monkeypatch):
    calls = []

    def counting_dstevd(*args, **kwargs):
        calls.append(args)
        return dstevd(*args, **kwargs)

    monkeypatch.setattr(fock, "dstevd", counting_dstevd)
    _apply_gate(_vacuum_tensor((40, 30)), "two_mode_squeezer", {"r": 0.4}, (0, 1))
    assert len(calls) == 1


def _random_passive(m, rng):
    """Orthogonal symplectic [[Re U, -Im U], [Im U, Re U]] of a random unitary."""
    u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def _squeezed(r, rng):
    """O1 diag(e^r, e^-r) O2 with random passive O1, O2."""
    m = len(r)
    z = np.diag(np.exp(np.concatenate([r, -np.asarray(r)])))
    return _random_passive(m, rng) @ z @ _random_passive(m, rng)


def _compose(gates, m):
    total = np.eye(2 * m)
    for gate in gates:
        total = _gate_transform(gate.kind, gate.params, gate.modes, m).matrix @ total
    return total


def test_symplectic_gates_round_trip():
    """The compiled gates multiply back to S, random and degenerate."""
    rng = np.random.default_rng(5)
    cases = [_squeezed(rng.uniform(-1.5, 1.5, m), rng)
             for m in range(1, 5) for _ in range(5)]
    cases += [_random_passive(3, rng),
              beamsplitter(0.3, 0, 1, 2).matrix
              @ single_mode_squeezer(0.7, mode=0, num_modes=2).matrix
              @ single_mode_squeezer(0.7, mode=1, num_modes=2).matrix,
              _random_passive(3, rng) @ single_mode_squeezer(0.9, mode=1, num_modes=3).matrix
              @ _random_passive(3, rng)]
    cases += [_squeezed(np.full(m, r), rng) for r in (1e-13, 3e-9) for m in (1, 3)]
    for s in cases:
        m = s.shape[0] // 2
        err = np.abs(_compose(_symplectic_gates(s), m) - s).max() / np.abs(s).max()
        assert err <= 1e-12
    for m in (1, 3):
        assert _symplectic_gates(np.eye(2 * m)) == []


@pytest.mark.parametrize("seed", [0, 3])
def test_two_mode_mixed_state_prep(seed):
    """A random two-mode mixed state: moments, reduced and global purities
    and the subtracted ratio agree with the covariance route."""
    state = random_state(2, seed, n_max=2, r_max=0.4, d_max=1)
    fock = gaussian_state_to_fock(state)
    assert fock.num_ancilla == 2
    for j in range(2):
        mm = quadrature_moments_fock(fock, j)
        assert mm["mean_x"] == pytest.approx(state.displacement[j], abs=1e-8)
        assert mm["mean_p"] == pytest.approx(state.displacement[2 + j], abs=1e-8)
        assert mm["var_x"] == pytest.approx(state.covariance[j, j], abs=1e-8)
        assert mm["var_p"] == pytest.approx(state.covariance[2 + j, 2 + j], abs=1e-8)
        assert reduced_purity_fock(fock, [j]) == pytest.approx(
            purity_gaussian(reduce_modes(state, [j])), abs=1e-8)
    purity = reduced_purity_fock(fock, [0, 1])
    assert purity == pytest.approx(purity_gaussian(state), abs=1e-8)
    sub = subtract_photon_fock(fock, 0)
    ratio = relative_purity_closed_form(extract_bogoliubov(state, ModeSelector.for_mode(0, 2)))
    assert reduced_purity_fock(sub, [0, 1]) / purity == pytest.approx(ratio, abs=1e-8)
