"""Core Gaussian-state machinery: constructors, gates, decompositions."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from pspurity import (
    GaussianState,
    ModeSelector,
    NumericDegenerateError,
    SymplecticTransform,
    UnphysicalStateError,
    WilliamsonDecomposition,
    apply_displacement,
    apply_symplectic,
    beamsplitter,
    db_to_squeezing_parameter,
    db_to_variance_factor,
    make_thermal,
    make_vacuum,
    mean_photon,
    phase_rotation,
    purity_gaussian,
    reduce_modes,
    single_mode_squeezer,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    wigner_gaussian_at,
    williamson,
)
from pspurity.fock import run_circuit_fock
from pspurity.gaussian import CircuitDescription, Gate, circuit_to_gaussian
from pspurity.scenarios import random_state


def test_vacuum_basics():
    state = make_vacuum(1)
    assert np.array_equal(state.covariance, np.eye(2))
    assert np.array_equal(state.displacement, np.zeros(2))
    assert purity_gaussian(state) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_three_modes():
    state = make_vacuum(3)
    assert np.linalg.det(state.covariance) == pytest.approx(1.0)
    assert purity_gaussian(state) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        make_vacuum(0)


@pytest.mark.parametrize(
    "factors,expected",
    [([10.0], 0.1), ([1.0, 1.0], 1.0), ([2.0, 3.0], 1.0 / 6.0)],
)
def test_thermal_purity(factors, expected):
    assert purity_gaussian(make_thermal(factors)) == pytest.approx(expected, rel=1e-12)


def test_thermal_rejects_subunity_noise():
    with pytest.raises(UnphysicalStateError):
        make_thermal([0.5])


def test_unphysical_covariance_rejected():
    with pytest.raises(UnphysicalStateError):
        GaussianState(0.5 * np.eye(2), np.zeros(2))
    with pytest.raises(UnphysicalStateError):
        GaussianState(np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(UnphysicalStateError):
            GaussianState(np.eye(2), np.array([bad, 0.0]))
        with pytest.raises(UnphysicalStateError):
            GaussianState(np.array([[bad, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_squeezer_10db_on_vacuum():
    gate = single_mode_squeezer(db=10.0, mode=0, num_modes=1)
    state = apply_symplectic(make_vacuum(1), gate)
    # direct matrix arithmetic: x -> sqrt(10) x gives diag(10, 0.1)
    assert np.allclose(state.covariance, np.diag([10.0, 0.1]), atol=1e-12)


def test_db_conversion():
    assert db_to_variance_factor(10.0) == pytest.approx(10.0)
    assert db_to_variance_factor(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("db", [np.inf, -np.inf, np.nan, 1e4, -1e4, 3083.0, -3240.0])
def test_db_outside_float64_is_refused(db):
    # 3083 dB overflows the variance factor, -3240 dB underflows it to 0
    for call in (lambda: db_to_variance_factor(db),
                 lambda: db_to_squeezing_parameter(db),
                 lambda: single_mode_squeezer(db=db),
                 lambda: two_mode_squeezer(db=db, mode_a=0, mode_b=1, num_modes=2)):
        with pytest.raises(ValueError, match="non-finite"):
            call()
    # a circuit refuses the gate at construction, before either route runs
    with pytest.raises(ValueError, match="non-finite"):
        CircuitDescription(1, (Gate("single_mode_squeezer", {"db": db}, (0,)),))


@pytest.mark.parametrize("r", [np.inf, np.nan, 800.0, -800.0, 355.0])
def test_squeezing_parameter_outside_float64_is_refused(r):
    # r = 355 is the first whose variance factor e^(2r) overflows
    with pytest.raises(ValueError, match="non-finite"):
        single_mode_squeezer(r)
    with pytest.raises(ValueError, match="non-finite"):
        two_mode_squeezer(r, mode_a=0, mode_b=1, num_modes=2)
    with pytest.raises(ValueError, match="non-finite"):
        CircuitDescription(2, (Gate("two_mode_squeezer", {"r": r}, (0, 1)),))
    assert single_mode_squeezer(354.0).matrix[0, 0] == np.exp(354.0)


def test_circuit_overflowing_float64_is_out_of_range():
    """Gates that each pass their check can multiply past float64: such a
    circuit is out of range on both routes, with no overflow warning.  A
    displacement whose own shift (2 re, 2 im) overflows is refused when the
    circuit is built."""
    squeezed = tuple(Gate("single_mode_squeezer", {"r": 300.0}, (0,)) for _ in range(3))
    displaced = (Gate("displacement", {"re": 8e307}, (0,)),) * 2
    for gates in (squeezed, displaced):
        circuit = CircuitDescription(1, gates)
        for call in (circuit_to_gaussian, run_circuit_fock):
            with pytest.raises(NumericDegenerateError, match="overflow"):
                call(circuit)
    for params in ({"re": 1e308}, {"re": 0.0, "im": -1e308}):
        with pytest.raises(NumericDegenerateError, match="overflow"):
            CircuitDescription(1, (Gate("displacement", params, (0,)),))


def test_phase_rotation_zero_is_identity():
    gate = phase_rotation(0.0, 0, 2)
    assert np.array_equal(gate.matrix, np.eye(4))


def test_two_mode_squeezer_marginal_is_thermal():
    r = 0.7
    gate = two_mode_squeezer(r=r, mode_a=0, mode_b=1, num_modes=2)
    state = apply_symplectic(make_vacuum(2), gate)
    lone = reduce_modes(state, [0])
    assert np.allclose(lone.covariance, np.cosh(2 * r) * np.eye(2), atol=1e-12)
    # cross blocks: +sinh(2r) on x-x, -sinh(2r) on p-p
    assert state.covariance[0, 1] == pytest.approx(np.sinh(2 * r))
    assert state.covariance[2, 3] == pytest.approx(-np.sinh(2 * r))


def test_beamsplitter_range_checks():
    with pytest.raises(ValueError):
        beamsplitter(1.5, 0, 1, 2)
    with pytest.raises(ValueError):
        beamsplitter(0.5, 0, 5, 2)
    with pytest.raises(ValueError):
        single_mode_squeezer(r=0.1, mode=3, num_modes=2)


@pytest.mark.parametrize("db", [float("nan"), float("inf")])
def test_non_finite_squeezer_rejected(db):
    """A NaN or infinite matrix is refused before its symplectic defect is
    formed (the defect of a NaN matrix compares False against any bound)."""
    with pytest.raises(ValueError, match="non-finite"):
        single_mode_squeezer(db=db, mode=0, num_modes=1)


def test_gates_are_symplectic():
    """A gate of a float32 or float16 parameter is the float64 gate of the
    value that parameter holds, not one rounded to its precision."""
    omega = symplectic_form(2)
    for build in [
        lambda x: phase_rotation(x(0.83), 1, 2),
        lambda x: single_mode_squeezer(r=x(1.1), mode=0, num_modes=2),
        lambda x: two_mode_squeezer(r=x(0.5), mode_a=0, mode_b=1, num_modes=2),
        lambda x: beamsplitter(x(0.3), 0, 1, 2),
    ]:
        for dtype in (float, np.float32, np.float16):
            gate = build(dtype)
            assert np.abs(gate.matrix @ omega @ gate.matrix.T - omega).max() < 1e-12
            assert np.array_equal(gate.matrix, build(lambda v: float(dtype(v))).matrix)


def test_gates_refuse_bool_parameters():
    with pytest.raises(ValueError, match="theta = True"):
        phase_rotation(True, 0, 1)
    with pytest.raises(ValueError, match="transmittance = False"):
        beamsplitter(False, 0, 1, 2)


def test_symplectic_transform_rejects_nonsymplectic():
    with pytest.raises(ValueError):
        SymplecticTransform(2.0 * np.eye(2))


def test_symplectic_transform_accepts_entries_whose_square_overflows():
    # exactly symplectic; the defect bound scales with the largest entry squared
    mat = np.diag([1e200, 1e-200])
    assert np.array_equal(SymplecticTransform(mat).matrix, mat)


def test_apply_symplectic_preserves_purity():
    state = make_thermal([3.0, 1.5])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        gate = two_mode_squeezer(
            r=rng.uniform(-1, 1), mode_a=0, mode_b=1, num_modes=2
        )
        rotated = apply_symplectic(state, gate)
        assert purity_gaussian(rotated) == pytest.approx(
            purity_gaussian(state), rel=1e-12
        )


def test_squeezer_inverse_roundtrip():
    state = make_thermal([2.0])
    fwd = single_mode_squeezer(r=0.9, mode=0, num_modes=1)
    back = single_mode_squeezer(r=-0.9, mode=0, num_modes=1)
    restored = apply_symplectic(apply_symplectic(state, fwd), back)
    assert np.abs(restored.covariance - state.covariance).max() < 1e-12


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(make_vacuum(2), phase_rotation(0.3, 0, 1))


def test_displacement_properties():
    state = make_thermal([4.0])
    moved = apply_displacement(state, [1.0, -2.0])
    assert np.array_equal(moved.displacement, [1.0, -2.0])
    assert np.array_equal(moved.covariance, state.covariance)
    assert purity_gaussian(moved) == pytest.approx(purity_gaussian(state))
    again = apply_displacement(moved, [0.0, 0.0])
    assert np.array_equal(again.displacement, moved.displacement)


def test_coherent_mean_photon():
    # complex amplitude 6 enters phase space as (12, 0)
    state = apply_displacement(make_vacuum(1), [12.0, 0.0])
    assert mean_photon(state, ModeSelector.for_mode(0, 1)) == pytest.approx(36.0)


def test_thermal_mean_photon():
    state = make_thermal([7.0])
    assert mean_photon(state, ModeSelector.for_mode(0, 1)) == pytest.approx(3.0)
    assert mean_photon(make_vacuum(2), ModeSelector.for_mode(1, 2)) == pytest.approx(0.0)


def test_wigner_vacuum_values():
    vac = make_vacuum(1)
    assert wigner_gaussian_at(vac, [0.0, 0.0]) == pytest.approx(1 / (2 * np.pi))
    assert wigner_gaussian_at(vac, [2.0, 0.0]) == pytest.approx(
        np.exp(-2.0) / (2 * np.pi)
    )


def test_wigner_coarse_normalization():
    state = make_thermal([2.0])
    xs = np.linspace(-12, 12, 161)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    vals = wigner_gaussian_at(state, grid)
    step = xs[1] - xs[0]
    assert vals.sum() * step**2 == pytest.approx(1.0, abs=1e-3)


def test_selector_validation():
    with pytest.raises(ValueError):
        ModeSelector(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ModeSelector(np.array([np.nan, 0.0]), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        ModeSelector(np.array([np.inf, 0.0]), np.array([0.0, 1.0]))
    sel = ModeSelector.for_mode(0, 2)
    omega = symplectic_form(2)
    assert sel.basis_x @ omega @ sel.basis_p == pytest.approx(1.0)


def test_superposition_selector():
    sel = ModeSelector.from_direction(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.linalg.norm(sel.basis_x) == pytest.approx(1.0)
    state = make_thermal([3.0, 3.0])
    assert mean_photon(state, sel) == pytest.approx(1.0)


@pytest.mark.parametrize("direction, message", [
    (np.ones((2, 2)), "2m-vector"),
    (np.ones(3), "2m-vector"),
    (np.array([1.0, np.nan]), "finite"),
    (np.array([np.inf, 0.0]), "finite"),
    (np.zeros(4), "nonzero norm"),
])
def test_superposition_selector_refuses_bad_directions(direction, message):
    with pytest.raises(ValueError, match=message):
        ModeSelector.from_direction(direction)


def test_reduce_full_set_is_identity():
    state = make_thermal([2.0, 5.0])
    same = reduce_modes(state, [0, 1])
    assert np.array_equal(same.covariance, state.covariance)


def test_reduce_product_state():
    state = make_thermal([1.0, 5.0])
    part = reduce_modes(state, [1])
    assert np.allclose(part.covariance, 5.0 * np.eye(2))
    assert purity_gaussian(part) == pytest.approx(0.2)


def test_reduce_errors():
    state = make_vacuum(2)
    with pytest.raises(ValueError):
        reduce_modes(state, [])
    with pytest.raises(ValueError):
        reduce_modes(state, [2])


def test_williamson_diagonal_squeezed_thermal():
    n, s = 6.0, 4.0
    dec = williamson(GaussianState(np.diag([n * s, n / s]), np.zeros(2)))
    assert dec.noise_factors == pytest.approx([n])
    assert np.allclose(
        np.abs(dec.symplectic.matrix), np.diag([np.sqrt(s), 1 / np.sqrt(s)]), atol=1e-10
    )


def test_williamson_pure_two_mode_squeezed():
    gate = two_mode_squeezer(r=0.8, mode_a=0, mode_b=1, num_modes=2)
    state = apply_symplectic(make_vacuum(2), gate)
    dec = williamson(state)
    assert dec.noise_factors == pytest.approx([1.0, 1.0], abs=1e-10)


@pytest.mark.parametrize("modes", [1, 2, 3, 4])
def test_williamson_reconstruction_fuzz(modes):
    for seed in range(250):
        state = random_state(modes, 10_000 * modes + seed)
        dec = williamson(state)
        recon = dec.reconstruct()
        scale = np.abs(state.covariance).max()
        assert np.abs(recon - state.covariance).max() / scale < 1e-9
        omega = symplectic_form(modes)
        s = dec.symplectic.matrix
        assert np.abs(s @ omega @ s.T - omega).max() < 1e-9 * max(1.0, scale)


def test_williamson_bare_covariance():
    """A bare matrix is validated like a GaussianState covariance and then
    decomposed exactly as the state would be."""
    state = random_state(2, 5)
    bare = williamson(np.array(state.covariance))
    assert np.array_equal(bare.noise_factors, williamson(state).noise_factors)
    for cov in (np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.eye(3),
                np.diag([0.5, 0.5]), np.array([[1.0, 0.2], [0.0, 1.0]])):
        with pytest.raises(UnphysicalStateError):
            williamson(cov)


def test_williamson_gauge_deterministic():
    state = random_state(3, 42)
    a = williamson(state)
    b = williamson(state)
    assert np.array_equal(a.symplectic.matrix, b.symplectic.matrix)
    assert np.array_equal(a.noise_factors, b.noise_factors)


@pytest.mark.parametrize("seed", [49, 61, 159, 212])
def test_ill_conditioned_pure_states_accepted(seed):
    """Pure four-mode states with cond(V) between 5e7 and 1e8 lie inside the
    supported range: they are accepted and decomposed."""
    state = random_state(4, seed, n_max=1.0, r_max=4.6)
    dec = williamson(state)
    assert dec.noise_factors == pytest.approx(np.ones(4), abs=1e-6)
    scale = np.abs(state.covariance).max()
    assert np.abs(dec.reconstruct() - state.covariance).max() / scale < 1e-9


def test_williamson_single_mode_is_matrix_square_root():
    """The gauge makes a one-mode S symmetric positive: S = (V / n)^(1/2)."""
    state = apply_symplectic(
        GaussianState(np.diag([3.0 * 8.0, 3.0 / 8.0]), np.zeros(2)),
        phase_rotation(0.9, 0, 1),
    )
    dec = williamson(state)
    root = sqrtm(state.covariance / dec.noise_factors[0]).real
    assert dec.noise_factors == pytest.approx([3.0])
    assert np.abs(dec.symplectic.matrix - root).max() < 1e-12


def test_symplectic_eigenvalues_need_positive_definite_matrix():
    for cov in (np.diag([1.0, -1.0]), np.zeros((2, 2)), np.diag([4.0, 4.0, 1.0, -2.0])):
        with pytest.raises(UnphysicalStateError):
            symplectic_eigenvalues(cov)


@pytest.mark.parametrize("diag", [[1e-9, 1.0], [1.0, 0.0], [1e-5, 1e4]])
def test_uncertainty_violation_beyond_range_is_unphysical(diag):
    """cond(V) > MAX_CONDITION with lambda_min lambda_max < 1 is unphysical,
    not out of range."""
    with pytest.raises(UnphysicalStateError, match="uncertainty"):
        GaussianState(np.diag(diag), np.zeros(2))


def test_beyond_range_respecting_uncertainty_is_degenerate():
    # lambda_min lambda_max = 1: the test is necessary, not sufficient;
    # diag(1e200, 1e-200) also overflows the rounding bound of the test
    for diag in ([1e-5, 1e5, 1.0, 1.0], [1e200, 1e-200]):
        with pytest.raises(NumericDegenerateError):
            GaussianState(np.diag(diag), np.zeros(len(diag)))


@pytest.mark.parametrize("noise", [[1.0], [[1.0, 1.0]]])
def test_williamson_decomposition_checks_noise_length(noise):
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        WilliamsonDecomposition(SymplecticTransform(np.eye(4)), np.array(noise))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_williamson_decomposition_refuses_non_finite_noise(bad):
    with pytest.raises(ValueError, match="noise factors must be finite"):
        WilliamsonDecomposition(SymplecticTransform(np.eye(2)), np.array([bad]))
    with pytest.raises(ValueError, match="noise factors must be finite"):
        WilliamsonDecomposition(SymplecticTransform(np.eye(4)), np.array([bad, 1.0]))


def test_generated_states_physical():
    for seed in range(50):
        state = random_state(3, 777 + seed)
        assert symplectic_eigenvalues(state.covariance).min() >= 1 - 1e-9
        mu = purity_gaussian(state)
        assert 0.0 < mu <= 1.0 + 1e-12
