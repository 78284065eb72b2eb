"""Worked examples, topology search, random states, sweeps."""

import json

import numpy as np
import pytest

from pspurity import (
    GaussianState,
    ModeSelector,
    apply_displacement,
    apply_symplectic,
    extract_bogoliubov,
    gaussian,
    make_vacuum,
    purity_gaussian,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    symplectic_eigenvalues,
    two_mode_squeezer,
    williamson,
)
from pspurity.bounds import bound_f_max
from pspurity.scenarios import (
    CircuitDescription,
    Gate,
    TARGET_SIGN_PATTERN,
    circuit_to_gaussian,
    mode_ratio_table,
    random_state,
    reference_single_mode_state,
    single_mode_family,
    sweep,
    three_mode_circuit,
    topology_search,
)


def test_single_mode_family_reference():
    state = reference_single_mode_state()
    assert np.allclose(state.covariance, np.diag([100.0, 1.0]))
    assert np.allclose(state.displacement, [12.0, 0.0])
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    assert relative_purity_closed_form(row) == pytest.approx(1.1967, abs=5e-4)


def test_single_mode_family_vacuum_case():
    state = single_mode_family(1.0, 0.0, 0.0, 0.0)
    assert np.allclose(state.covariance, np.eye(2))
    assert np.allclose(state.displacement, 0.0)


def test_single_mode_family_validation():
    with pytest.raises(ValueError):
        single_mode_family(0.5, 10.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        single_mode_family(2.0, 10.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        single_mode_family(np.inf, 10.0, 1.0, 0.0)


def test_three_mode_circuit_structure():
    circ = three_mode_circuit()
    assert circ.mode_count == 3
    assert circ.gates[0].kind == "displacement"
    assert len(circ.gates) == 4
    with pytest.raises(ValueError):
        three_mode_circuit(topology=[(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        three_mode_circuit(topology=[(0, 0), (1, 2), (0, 2)])


def test_three_mode_circuit_global_purity():
    state = circuit_to_gaussian(three_mode_circuit())
    assert purity_gaussian(state) == pytest.approx(1.0, abs=1e-10)


def test_circuit_to_gaussian_builds_one_state(monkeypatch):
    """The gates multiply into one S and one d before a single state is
    checked; that state is the gate-by-gate one to rounding."""
    built = []
    monkeypatch.setattr(gaussian, "GaussianState",
                        lambda cov, disp: built.append(1) or GaussianState(cov, disp))
    circuit = three_mode_circuit()
    state = circuit_to_gaussian(circuit)
    assert len(built) == 1
    shift = np.zeros(6)
    shift[0] = 2.0 * circuit.gates[0].params["re"]
    ref = apply_displacement(make_vacuum(3), shift)
    for gate in circuit.gates[1:]:
        a, b = gate.modes
        ref = apply_symplectic(ref, two_mode_squeezer(gate.params["r"], mode_a=a, mode_b=b,
                                                      num_modes=3))
    assert np.abs(state.covariance - ref.covariance).max() < 1e-13
    assert np.abs(state.displacement - ref.displacement).max() < 1e-13


def test_circuit_stores_python_numbers():
    """NumPy scalars become the Python numbers both routes and JSON read."""
    gate = Gate("beamsplitter", {"transmittance": np.float32(0.3)}, (np.int64(1), np.int64(0)))
    circ = CircuitDescription(2, (gate,))
    assert circ.gates[0].params["transmittance"] == float(np.float32(0.3))
    assert CircuitDescription.from_json(circ.to_json()) == circ


def test_circuit_serialization_bit_exact():
    circ = three_mode_circuit(((0, 2), (1, 2), (0, 1)), alpha=1.6, s_db=3.0)
    text = circ.to_json()
    again = CircuitDescription.from_json(text)
    assert again.to_json() == text
    assert again.gates[1].params["r"] == circ.gates[1].params["r"]


def test_topology_search_finds_published_pattern():
    topology, table = topology_search()
    assert topology == ((0, 1), (1, 2), (0, 2))
    for g in range(3):
        for j in range(3):
            assert np.sign(table[g, j] - 1.0) == TARGET_SIGN_PATTERN[g][j]


def test_topology_search_no_match_without_displacement():
    topology, table = topology_search(alpha=0.0)
    assert topology is None and table is None


def test_zero_displacement_circuit_never_purifies_any_mode():
    for topology in [((0, 1), (1, 2), (0, 2)), ((0, 1), (0, 2), (1, 2))]:
        circ = three_mode_circuit(topology, alpha=0.0)
        state = circuit_to_gaussian(circ)
        table = mode_ratio_table(state)
        assert np.all(table <= 1.0 + 1e-10)


def test_mode_ratio_table_marks_empty_modes():
    circ = three_mode_circuit(((0, 1), (0, 1), (0, 1)), alpha=1.6)
    table = mode_ratio_table(circuit_to_gaussian(circ))
    assert np.isnan(table[2]).all()  # mode 2 stays vacuum: no subtraction
    assert not np.isnan(table[0]).any()


def test_subtraction_preserves_global_purity_on_found_topology():
    topology, _ = topology_search()
    state = circuit_to_gaussian(three_mode_circuit(topology))
    for g in range(3):
        sub = subtract_photon(state, ModeSelector.for_mode(g, 3))
        assert purity_subtracted(sub) == pytest.approx(1.0, abs=1e-7)


def test_random_state_deterministic():
    a = random_state(3, 2026)
    b = random_state(3, 2026)
    assert np.array_equal(a.covariance, b.covariance)
    assert np.array_equal(a.displacement, b.displacement)
    c = random_state(3, 2027)
    assert not np.array_equal(a.covariance, c.covariance)


@pytest.mark.parametrize("ranges", [
    {"n_max": float("nan")},
    {"d_max": float("inf")},
    {"r_max": -1.0},
    {"n_max": 0.5},
    {"d_max": -0.1},
])
def test_random_state_rejects_bad_ranges(ranges):
    with pytest.raises(ValueError, match="random_state needs"):
        random_state(1, 3, **ranges)


@pytest.mark.parametrize("r_max", [0.005, 0.001])
def test_random_state_squeezing_stays_below_small_r_max(r_max):
    # the singular values of S in V = S diag(n, n) S^T are e^(+-r)
    for m in (1, 2, 3):
        states = random_state(m, list(range(20)), r_max=r_max)
        s = williamson(states).symplectic.matrix
        r = np.log(np.linalg.svd(s, compute_uv=False))
        assert np.all(np.abs(r) <= r_max + 1e-12)


def test_random_state_physical():
    for seed in range(100):
        state = random_state(1 + seed % 4, 160_000 + seed)
        assert symplectic_eigenvalues(state.covariance).min() >= 1 - 1e-9


def test_random_pure_undisplaced_never_purify():
    for seed in range(100):
        m = 1 + seed % 3
        state = random_state(m, 600 + seed, n_max=1.0, d_max=0.0)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        assert relative_purity_closed_form(row) <= 1.0 + 1e-10


def test_sweep_fig1a_peak_at_multiples_of_pi():
    columns = sweep("fig1a", points=241)
    for s_db in (1.0, 10.0, 30.0):
        rows = columns["s_db"] == s_db
        phis = columns["phi"][rows]
        ratios = columns["ratio"][rows]
        peak = phis[np.argmax(ratios)] % np.pi
        assert min(peak, np.pi - peak) < (phis[1] - phis[0]) / 2 + 1e-12


def test_sweep_fig1a_periodic_and_symmetric():
    columns = sweep("fig1a", points=241)
    ratios = columns["ratio"][columns["s_db"] == 10.0]
    assert ratios[0] == pytest.approx(ratios[-1], abs=1e-9)  # 2 pi periodic
    assert np.abs(ratios - ratios[::-1]).max() < 1e-9  # symmetric about pi


def test_sweep_fig1b_orthogonal_rows_never_purify():
    columns = sweep("fig1b", points=121)
    bad = (columns["phi"] > 1.0) & (columns["ratio"] > 1.0 + 1e-9)
    assert not bad.any()


def test_sweep_fig1b_attains_envelope_maximum():
    columns = sweep("fig1b", points=241)
    rows = (columns["n_g"] == 10.0) & (columns["phi"] == 0.0)
    ratios = columns["ratio"][rows]
    alphas = columns["alpha_mag"][rows]
    best = np.argmax(ratios)
    row = extract_bogoliubov(
        single_mode_family(10.0, 10.0, 6.0, 0.0), ModeSelector.for_mode(0, 1)
    )
    alpha_star, f_max = bound_f_max(row.x, row.y, row.z)
    assert ratios[best] <= f_max + 1e-12
    assert f_max - ratios[best] < 5e-4
    assert alphas[best] ** 2 == pytest.approx(alpha_star, abs=1.0)


def test_sweep_records_recompute_identically():
    first = sweep("fig1a", points=41)
    second = sweep("fig1a", points=41)
    assert list(first) == list(second) == ["phi", "s_db", "ratio", "f_alpha"]
    assert np.array_equal(first["ratio"], second["ratio"])


def test_sweep_unknown_figure():
    with pytest.raises(ValueError):
        sweep("fig9")


def test_gate_targets_validated():
    with pytest.raises(ValueError):
        CircuitDescription(2, (Gate("displacement", {"re": 1.0}, (5,)),))


@pytest.mark.parametrize("gate, message", [
    ({"kind": "displacement", "params": {"re": 1.0}, "modes": [0, 1]}, "displacement needs 1"),
    ({"kind": "two_mode_squeezer", "params": {"r": 0.3}, "modes": [0]}, "two_mode_squeezer needs 2"),
    ({"kind": "beamsplitter", "params": {"transmittance": 0.5}, "modes": [1, 1]}, "distinct"),
    ({"kind": "phase_rotation", "params": {"theta": float("inf")}, "modes": [0]}, "theta"),
    ({"kind": "single_mode_squeezer", "params": {"r": "0.3"}, "modes": [0]}, "not finite"),
    ({"kind": "kerr", "params": {}, "modes": [0]}, "unknown gate kind 'kerr'"),
    ({"kind": "phase_rotation", "params": {"theta": True}, "modes": [0]}, "theta = True"),
    ({"kind": "beamsplitter", "params": {"transmittance": 1.5}, "modes": [0, 1]},
     r"transmittance must lie in \[0, 1\]"),
    ({"kind": "beamsplitter", "params": {"transmittance": -0.1}, "modes": [0, 1]},
     r"transmittance must lie in \[0, 1\]"),
    ({"kind": "two_mode_squeezer", "params": {"r": 400.0}, "modes": [0, 1]}, "non-finite"),
    ({"kind": "single_mode_squeezer", "params": {"db": 1e4}, "modes": [1]}, "non-finite"),
])
def test_circuit_json_refuses_malformed_gates(gate, message):
    text = json.dumps({"mode_count": 2, "gates": [gate]})
    with pytest.raises(ValueError, match=message):
        CircuitDescription.from_json(text)


@pytest.mark.parametrize("mode_count", [0, 2.5, True, "3"])
def test_circuit_refuses_bad_mode_count(mode_count):
    with pytest.raises(ValueError, match="mode_count must be a positive integer"):
        CircuitDescription(mode_count, ())


@pytest.mark.parametrize("kind, params, modes", [
    ("displacement", {"real": 1.0}, (0,)),
    ("phase_rotation", {}, (0,)),
    ("single_mode_squeezer", {"r": 0.3, "db": 3.0}, (0,)),
    ("two_mode_squeezer", {"s": 0.3}, (0, 1)),
    ("beamsplitter", {"transmittance": 0.5, "phase": 0.1}, (0, 1)),
])
def test_circuit_refuses_wrong_parameter_names(kind, params, modes):
    """Each kind takes its own parameter names, checked at construction:
    re/im, theta, exactly one of r/db, transmittance."""
    with pytest.raises(ValueError, match=f"{kind} takes parameters"):
        CircuitDescription(2, (Gate(kind, params, modes),))
