"""Number-basis oracle: gates, subtraction, partial traces, cross-checks."""

import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
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
    marginal_subtracted,
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
)
from pspurity import fock
from pspurity.fock import (
    LEAKAGE_TOL,
    MEMORY_ENV_VAR,
    FockState,
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


@pytest.mark.parametrize("cutoffs", [(2.7, 3), (3.0,), (True, 3), (1,), ("4",)])
def test_truncation_refuses_non_integral_bool_and_small_cutoffs(cutoffs):
    with pytest.raises(ValueError, match="cutoffs must be integers of at least 2"):
        TruncationSpec(cutoffs)


def test_truncation_takes_numpy_integers():
    cut = TruncationSpec((np.int64(3), 2))
    assert cut.cutoffs == (3, 2) and all(type(c) is int for c in cut.cutoffs)


@pytest.mark.parametrize("mode", [0.5, True, -1, 2], ids=["float", "bool", "negative", "m"])
def test_oracle_refuses_bad_mode_naming_it(mode):
    """A mode that is not an integer of the state, or is a bool, stops at the
    boundary with a ValueError naming it, in subtraction and partial trace,
    worded as the covariance route words it."""
    state = run_circuit_fock(circuit(2, Gate("displacement", {"re": 0.7, "im": 0.0}, (0,))))
    message = rf"^mode {re.escape(repr(mode))} out of range for 2 modes$"
    with pytest.raises(ValueError, match=message):
        subtract_photon_fock(state, mode)
    with pytest.raises(ValueError, match=message):
        reduced_purity_fock(state, [mode])


@pytest.mark.parametrize("modes, message", [
    (0, "modes must be a sequence of mode indices, got 0"),
    ([], "mode subset must be non-empty"),
    ([1, 1], "duplicate mode indices")], ids=["int", "empty", "repeated"])
def test_every_partial_trace_refuses_a_bad_mode_subset_alike(modes, message):
    """Every function that traces modes out, on either route, takes a
    non-empty sequence of distinct modes of the state and refuses anything
    else with the same ValueError."""
    displaced = circuit(2, Gate("displacement", {"re": 0.7, "im": 0.0}, (0,)))
    state, number_state = circuit_to_gaussian(displaced), run_circuit_fock(displaced)
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    calls = ((reduce_modes, state), (marginal_subtracted, sub),
             (reduced_purity_fock, number_state), (reduced_density_matrix, number_state),
             (wigner_origin_fock, number_state))
    for function, argument in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            function(argument, modes)


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
    analytic = subtracted_wigner_fn(subtract_photon(gs, ModeSelector.for_mode(0, 1)))(
        [0.0, 0.0])
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


def test_measurements_take_only_physical_modes():
    """A purified thermal mode has one ancilla: the measurement helpers count
    and name only the physical mode, and trace the ancilla out.  Measured on
    the ancilla too, the global state would read purity 1, and a subtraction
    from it would change the physical mode's purity."""
    state = gaussian_state_to_fock(make_thermal([3.0]))
    assert state.amplitudes.ndim == 2 and state.mode_count == 1
    message = "^mode 1 out of range for 1 modes$"
    for call in (lambda: reduced_purity_fock(state, range(2)),
                 lambda: reduced_density_matrix(state, [1]),
                 lambda: wigner_origin_fock(state, [0, 1]),
                 lambda: quadrature_moments_fock(state, 1),
                 lambda: subtract_photon_fock(state, 1)):
        with pytest.raises(ValueError, match=message):
            call()
    assert reduced_purity_fock(state, range(1)) == pytest.approx(1.0 / 3.0, abs=1e-5)
    for count in (2, -1, True):  # at least one physical mode, and an integer
        with pytest.raises(ValueError, match="^num_ancilla must be an integer from 0 to 1"):
            FockState(state.amplitudes, state.truncation, num_ancilla=count)


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


def dense_exponential(gen):
    """exp(gen) as expm(gen / 16) squared four times.  On the r = 1 two-mode
    squeezer at (20, 25), expm(gen) alone is 4.6e-13 off a 40-digit mpmath
    exponential of each sector, and this form 1.3e-14."""
    return np.linalg.matrix_power(expm(gen / 16.0), 16)


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

# cases for the SVD kernel: large parameters give large singular values
SVD_GATE_CASES = [
    ("single_mode_squeezer", {"r": 1.5}, (40,)),
    ("displacement", {"re": 1.8, "im": -2.4}, (40,)),
    ("two_mode_squeezer", {"r": 1.0}, (20, 25)),
    # chains of length 1 and 2 share a padded batch with long ones
    ("beamsplitter", {"transmittance": 0.45}, (2, 12)),
    ("beamsplitter", {"transmittance": 0.45}, (12, 2)),
]


@pytest.mark.parametrize("spectator", [1024, 3])
def test_blockwise_generator_matches_dense_expm(spectator):
    """Sector-by-sector chain exponentials equal exp of the whole generator
    for every gate kind; a wide spectator mode applies each sector to more
    columns than the sector has states, a narrow one to fewer."""
    rng = np.random.default_rng(11)
    for kind, params, cut in GATE_CASES + SVD_GATE_CASES:
        gen = reference_generator(kind, params, cut)
        shape = (spectator,) + cut  # a spectator mode ahead of the gate's modes
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _apply_gate(psi, kind, params, tuple(range(1, len(cut) + 1)))
        mat = np.moveaxis(psi, 0, -1).reshape(gen.shape[0], -1)
        want = np.moveaxis((dense_exponential(gen) @ mat).reshape(cut + (spectator,)), -1, 0)
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
    for kind, params, cut in GATE_CASES + SVD_GATE_CASES:
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
        want = np.moveaxis((dense_exponential(gen) @ mat).reshape(cut + (3,)), -1, 0)
        assert np.abs(got - want).max() <= 1e-12, kind
        assert np.all(got.reshape(3, -1)[:, empty] == 0), kind
        if input_kind != "vacuum":
            assert np.all(got.reshape(3, -1)[:, ~empty] != 0), kind


def test_squeezer_on_vacuum_solves_one_sector(monkeypatch):
    """The gate's one stacked SVD receives the vacuum's chain alone."""
    stacks = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        stacks.append(a.shape[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _apply_gate(_vacuum_tensor((40, 30)), "two_mode_squeezer", {"r": 0.4}, (0, 1))
    assert stacks == [(1,)]


# a nonzero parameter per kind: the chain structure does not depend on its value
UNIT_PARAMS = {"displacement": {"re": 1.0, "im": 0.0}, "single_mode_squeezer": {"r": 1.0},
               "two_mode_squeezer": {"r": 1.0}, "beamsplitter": {"transmittance": 0.5}}


@pytest.mark.parametrize("kind, params, cut", [
    *GATE_CASES,
    ("displacement", {"re": 0.2, "im": 0.9}, (2,)),
    ("single_mode_squeezer", {"r": -0.3}, (2,)),
    ("single_mode_squeezer", {"r": 0.3}, (3,)),
    ("two_mode_squeezer", {"r": 0.2}, (2, 9)),
    ("two_mode_squeezer", {"r": 0.2}, (9, 2)),
    ("beamsplitter", {"transmittance": 0.1}, (9, 2)),
    ("beamsplitter", {"transmittance": 0.9}, (2, 9)),
    ("beamsplitter", {"transmittance": 0.5}, (5, 5)),
])
def test_strided_chains_are_the_generator_components(kind, params, cut):
    """Each strided chain of ``_gate_chains`` is one whole connected component
    of the dense generator, its rows in chain order, the chains in label
    order with every row on exactly one; the element up each chain is
    i * scale * base.  A phase rotation is diagonal and has no chains."""
    gen = reference_generator(kind, params, cut)
    if kind == "phase_rotation":
        assert np.array_equal(gen, np.diag(np.diag(gen)))
        return
    links = reference_generator(kind, UNIT_PARAMS[kind], cut) != 0
    components = _sector_labels(links)
    every_row = np.arange(gen.shape[0])
    start, stride, length, label = fock._gate_chains(kind, cut, every_row)
    scale, base = fock._chain_scale(kind, params)
    seen = []
    for j in range(start.size):
        rows = start[j] + stride * np.arange(length[j])
        assert np.all(label[rows] == j), kind
        assert np.all(components[rows] == components[rows[0]]), kind
        assert np.count_nonzero(components == components[rows[0]]) == length[j], kind
        assert np.all(links[rows[1:], rows[:-1]]), kind  # each row links to the next
        na, nb = np.divmod(rows[:-1], cut[-1])
        up = gen[rows[1:], rows[:-1]]
        assert np.allclose(up, 1j * scale * base(na, nb), rtol=1e-14, atol=0), kind
        seen.append(rows)
    assert np.array_equal(np.sort(np.concatenate(seen)), every_row), kind


def test_row_shift_subtraction_matches_annihilator():
    """The row shift on each mode of a random three-mode tensor equals the
    ``annihilator`` matrix applied by ``tensordot``."""
    rng = np.random.default_rng(23)
    cut = (7, 5, 6)
    psi = rng.normal(size=cut) + 1j * rng.normal(size=cut)
    state = fock.FockState(psi / np.linalg.norm(psi), TruncationSpec(cut))
    for mode in range(3):
        want = np.moveaxis(np.tensordot(annihilator(cut[mode]), state.amplitudes,
                                        axes=([1], [mode])), 0, mode)
        got = subtract_photon_fock(state, mode).amplitudes
        assert np.abs(got - want / np.linalg.norm(want)).max() <= 1e-15, mode


@pytest.mark.parametrize("modes", [[0], [1], [2], [0, 1], [1, 2], [2, 0]])
def test_hermitian_gram_purity_matches_general_product(modes):
    """The purity from the smaller-side Gram matrix and ``np.vdot`` equals
    sum |G_ij|^2 of that Gram matrix formed by a general product, for either
    side being the smaller."""
    rng = np.random.default_rng(29)
    cut = (9, 4, 6)
    psi = rng.normal(size=cut) + 1j * rng.normal(size=cut)
    state = fock.FockState(psi / np.linalg.norm(psi), TruncationSpec(cut))
    mat = fock._split_modes(state, modes)
    gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    want = float(np.sum(np.abs(gram) ** 2))
    assert reduced_purity_fock(state, modes) == pytest.approx(want, rel=1e-14)


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


def test_converge_cutoffs_grows_a_leaking_mode_by_its_measured_tail():
    """A mode that leaks 1e-6 at cutoff 20 grows to the cutoff a geometric
    tail through that leak needs, ceil(20 ln(1e-8) / ln(1e-6)) = 27, not 40;
    a mode within tolerance keeps its cutoff."""
    tried = []

    def leaks_at_twenty(cut):
        tried.append(cut)
        psi = np.zeros(cut, complex)
        psi[0, 0] = 1.0
        return psi, np.array([1e-6 if cut[0] == 20 else 1e-9, 1e-9])

    state = _converge_cutoffs(leaks_at_twenty, (20, 5), num_ancilla=0)
    assert tried == [(20, 5), (27, 5)] and state.attempts == 2
    assert state.truncation.cutoffs == (27, 5)
    # a slow tail still steps by at least one level, a fast one at most doubles
    assert fock._grown_cutoff(20, 0.99 * LEAKAGE_TOL ** 0.99) == 21
    assert fock._grown_cutoff(20, 0.5) == fock._grown_cutoff(20, 1.0) == 40


def test_converge_cutoffs_stops_at_the_sixth_attempt_when_a_leak_persists():
    tried = []

    def always_leaking(cut):
        tried.append(cut)
        return _vacuum_tensor(cut), np.array([1e-6])

    with pytest.raises(TruncationInsufficientError,
                       match=r"^leakage 1\.000e-06 persists at cutoffs \(432,\)$"):
        _converge_cutoffs(always_leaking, (20,), num_ancilla=0)
    # the first step reads the tail from level 0, ceil(20 ln(1e-8) / ln(1e-6))
    # = 27; a leak that then does not fall doubles the mode
    assert tried == [(20,), (27,), (54,), (108,), (216,), (432,)]


def test_converge_cutoffs_extends_the_tail_from_the_measured_level():
    """From the second step on, the ratio of a mode's last two leaks gives
    its tail's decay, whatever its prefactor: a thermal tail (1-q) q^(c-1)
    lands a decade below LEAKAGE_TOL, where the level-0 rule alone would
    undershoot."""
    q = 0.9
    tried = []

    def thermal(cut):
        tried.append(cut)
        return _vacuum_tensor(cut), np.array([(1 - q) * q ** (cut[0] - 1)])

    state = _converge_cutoffs(thermal, (100,), num_ancilla=0)
    # level 0 gives 145, where the tail still holds 2.5e-8; the ratio of the
    # two leaks then reaches 1e-9 at 176
    assert tried == [(100,), (145,), (176,)]
    assert state.attempts == 3 and state.deficiency <= 0.1 * LEAKAGE_TOL
    # two decades per 20 levels: the three decades to 1e-9 take 30 more;
    # a leak that did not fall doubles the mode
    assert fock._grown_cutoff(40, 1e-6, before=(20, 1e-4)) == 70
    assert fock._grown_cutoff(40, 1e-6, before=(20, 1e-6)) == 80


@pytest.mark.parametrize("gate", [
    Gate("two_mode_squeezer", {"db": 10.0}, (0, 1)),
    Gate("two_mode_squeezer", {"db": 20.0}, (0, 1)),
    Gate("single_mode_squeezer", {"db": 10.0}, (0,)),
    Gate("single_mode_squeezer", {"db": 20.0}, (0,)),
], ids=["tms-10dB", "tms-20dB", "sms-10dB", "sms-20dB"])
def test_strong_squeezing_takes_no_more_attempts_than_doubling(gate, monkeypatch):
    """A strongly squeezed vacuum, whose tail carries a prefactor far below
    1 (two-mode) or fills every other level and decays more slowly further
    out (single-mode), converges in no more runs than doubling every leaking
    mode takes, and at no larger cutoffs."""
    circ = circuit(len(gate.modes), gate)
    grown = run_circuit_fock(circ)
    monkeypatch.setattr(fock, "_grown_cutoff", lambda c, leak, before=None: 2 * c)
    doubled = run_circuit_fock(circ)
    assert grown.deficiency <= LEAKAGE_TOL and grown.attempts <= doubled.attempts
    assert all(g <= d for g, d in zip(grown.truncation.cutoffs, doubled.truncation.cutoffs))


def test_thirty_db_thermal_tail_converges_as_fast_as_doubling():
    """The marginal tail of a 30 dB two-mode squeezer, modelled as the
    thermal (1-q) q^(c-1) with mean photon number sinh^2 r, starting at
    4<n> + 10: three runs, as doubling takes, within the six allowed."""
    r = db_to_squeezing_parameter(30.0)
    n = math.sinh(r) ** 2
    q = n / (n + 1)
    tried = []

    def thermal(cut):
        tried.append(cut)
        return _vacuum_tensor(cut), np.array([(1 - q) * q ** (cut[0] - 1)])

    state = _converge_cutoffs(thermal, (math.ceil(4 * n + 10),), num_ancilla=0)
    assert state.attempts == 3 and state.deficiency <= LEAKAGE_TOL
    assert tried[-1][0] < 4 * tried[0][0]


def test_three_mode_circuit_cutoffs_grow_by_the_measured_tail():
    """The fig3 circuit leaks at its first cutoffs (19, 12, 13) and ends
    below the doubled (38, 24, 26), within LEAKAGE_TOL, in two attempts."""
    from pspurity.scenarios import topology_search

    topology, _ = topology_search(alpha=1.6, s_db=3.0)
    state = run_circuit_fock(three_mode_circuit(topology, alpha=1.6, s_db=3.0))
    assert state.attempts == 2 and state.deficiency <= LEAKAGE_TOL
    assert all(c < d for c, d in zip(state.truncation.cutoffs, (38, 24, 26)))
    assert state.truncation.cutoffs == (30, 18, 22)
