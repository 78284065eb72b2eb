"""Number-basis oracle: gates, subtraction, partial traces, cross-checks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from pspurity import fock as fock_module
from pspurity import (
    GaussianState,
    ModeSelector,
    SubtractionFromVacuumError,
    TruncationInsufficientError,
    extract_bogoliubov,
    make_vacuum,
    mean_photon,
    moments_subtracted,
    purity_gaussian,
    relative_purity_closed_form,
    subtract_photon,
    wigner_subtracted_at,
)
from pspurity.fock import (
    TruncationSpec,
    _apply_generator,
    _gate_generator,
    _quadratic_generator,
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
from pspurity.scenarios import (
    CircuitDescription,
    Gate,
    circuit_to_gaussian,
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


def test_explicit_truncation_too_small():
    with pytest.raises(TruncationInsufficientError):
        run_circuit_fock(
            circuit(1, Gate("displacement", {"re": 2.0, "im": 0.0}, (0,))),
            TruncationSpec((6,), 1e-8),
        )


def test_leakage_monotone_in_cutoff():
    circ = circuit(1, Gate("single_mode_squeezer", {"r": 0.7}, (0,)))
    lax = TruncationSpec((30,), 1.0)
    laxer = TruncationSpec((40,), 1.0)
    assert (
        run_circuit_fock(circ, laxer).deficiency
        <= run_circuit_fock(circ, lax).deficiency
    )


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
    # exercises both polar factors of the symplectic split
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


# (kind, params, per-mode cutoffs) for every gate kind of _gate_generator
GATE_CASES = [
    ("displacement", {"re": 0.7, "im": -0.4}, (9,)),
    ("phase_rotation", {"theta": 0.9}, (9,)),
    ("single_mode_squeezer", {"r": 0.5}, (10,)),
    ("two_mode_squeezer", {"r": 0.4}, (7, 9)),
    ("beamsplitter", {"transmittance": 0.3}, (8, 6)),
]


def _generators():
    for kind, params, cut in GATE_CASES:
        yield kind, _gate_generator(kind, params, cut), cut
    coeff = 0.3 * np.random.default_rng(3).normal(size=(4, 4))
    yield "quadratic", _quadratic_generator(coeff, (6, 5)), (6, 5)


@pytest.mark.parametrize("limit", [fock_module.DENSE_EXPM_LIMIT, 3])
def test_blockwise_generator_matches_dense_expm(monkeypatch, limit):
    """Block-by-block exponentials equal exp of the whole generator; with a
    small dense limit the larger blocks go through expm_multiply."""
    monkeypatch.setattr(fock_module, "DENSE_EXPM_LIMIT", limit)
    rng = np.random.default_rng(11)
    for kind, gen, cut in _generators():
        shape = (3,) + cut  # a spectator mode ahead of the gate's modes
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _apply_generator(psi, gen, tuple(range(1, len(cut) + 1)))
        mat = np.moveaxis(psi, 0, -1).reshape(gen.shape[0], -1)
        want = np.moveaxis((expm(gen.toarray()) @ mat).reshape(cut + (3,)), -1, 0)
        assert np.abs(got - want).max() <= 1e-12, kind
