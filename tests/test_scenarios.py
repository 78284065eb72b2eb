"""Worked examples, topology search, random states, sweeps."""

import hashlib
import itertools
import json
import re

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
    scenarios,
    subtract_photon,
    symplectic_eigenvalues,
    two_mode_squeezer,
    williamson,
)
from pspurity.bounds import bound_f_max
from pspurity.scenarios import (
    CircuitDescription,
    Gate,
    MODE_PAIRS,
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


def test_circuit_to_gaussian_reads_the_checked_blocks(monkeypatch):
    """A circuit's gates are checked once: ``circuit_to_gaussian`` multiplies
    the blocks the check built, and its state is bit for bit the product of
    freshly built blocks; the kept blocks stay out of equality and repr."""
    circuit = three_mode_circuit()
    m = circuit.mode_count
    s, d = np.eye(2 * m), np.zeros(2 * m)
    for gate in circuit.gates:
        block = gaussian._gate_block(gate.kind, gate.params, gate.modes, m)
        if block is None:
            d[gate.modes[0]] += 2.0 * gate.params.get("re", 0.0)
            d[m + gate.modes[0]] += 2.0 * gate.params.get("im", 0.0)
        else:
            g = gaussian._embed(block, gate.modes, m)
            s, d = g @ s, g @ d
    ref = GaussianState(s @ s.T, d)
    calls = []
    real = gaussian._gate_block
    monkeypatch.setattr(gaussian, "_gate_block", lambda *args: calls.append(args) or real(*args))
    state = circuit_to_gaussian(circuit)
    assert calls == []
    assert state.covariance.tobytes() == ref.covariance.tobytes()
    assert state.displacement.tobytes() == ref.displacement.tobytes()
    assert "_blocks" not in repr(circuit)
    assert CircuitDescription.from_json(circuit.to_json()) == circuit


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


def _brute_force_search(alpha, s_db):
    """Every candidate's full table, then the sign match: the search's spec."""
    for topology in itertools.product(MODE_PAIRS, repeat=3):
        table = mode_ratio_table(circuit_to_gaussian(three_mode_circuit(topology, alpha, s_db)))
        if np.array_equal(np.sign(table - 1.0), TARGET_SIGN_PATTERN):  # NaN never matches
            return topology, table
    return None, None


@pytest.mark.parametrize("alpha, s_db", [(1.6, 3.0), (0.0, 3.0), (1.4, 6.0), (2.0, 5.0)])
def test_topology_search_equals_brute_force_scan(alpha, s_db):
    topology, table = topology_search(alpha, s_db)
    want_topology, want_table = _brute_force_search(alpha, s_db)
    assert topology == want_topology
    if want_table is None:
        assert table is None
    else:
        assert table.tobytes() == want_table.tobytes()


def test_topology_search_stops_each_candidate_at_its_first_wrong_sign(monkeypatch):
    """The seven candidates before the winner fail at entry (0, 0): one
    marginal each, then nine for the winner's table."""
    calls = []
    real = scenarios.marginal_subtracted
    monkeypatch.setattr(scenarios, "marginal_subtracted",
                        lambda sub, modes: calls.append(modes) or real(sub, modes))
    topology, _ = topology_search()
    assert topology == ((0, 1), (1, 2), (0, 2))
    assert len(calls) <= 7 + 9


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


class RecordingGenerator(np.random.Generator):
    """A Generator that keeps a copy of every array it fills."""

    fills = []

    def random(self, *args, out=None, **kwargs):
        result = super().random(*args, out=out, **kwargs)
        self.fills.append(("random", out.copy()))
        return result

    def standard_normal(self, *args, out=None, **kwargs):
        result = super().standard_normal(*args, out=out, **kwargs)
        self.fills.append(("standard_normal", out.copy()))
        return result


def recorded_draws(monkeypatch, m, seeds, **ranges):
    """(state, [(uniforms, normals) per seed]) of one ``random_state`` call."""
    RecordingGenerator.fills = []
    monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
    state = random_state(m, seeds, **ranges)
    monkeypatch.undo()
    kinds, arrays = zip(*RecordingGenerator.fills)
    assert kinds == ("random", "standard_normal") * (len(kinds) // 2)
    return state, list(zip(arrays[::2], arrays[1::2]))


@pytest.mark.parametrize("seed", [0, 7, 2**62, 2**64 + 5, 2**128 - 1])
def test_random_state_reads_philox_keyed_by_its_seed(monkeypatch, seed):
    """A state's uniforms and normals are the first 5 m and 4 m^2 draws of a
    fresh ``Generator(Philox(key=seed))``, bit for bit, in a stack as alone;
    the amplitudes and phases of its displacement are read from them."""
    for m in (1, 3):
        for seeds in (seed, [11, seed]):
            state, draws = recorded_draws(monkeypatch, m, seeds, d_max=2.0)
            uniforms, normals = draws[-1]
            fresh = np.random.Generator(np.random.Philox(key=seed))
            assert uniforms.tobytes() == fresh.random((5, m)).tobytes()
            assert normals.tobytes() == fresh.standard_normal((2, 2, m, m)).tobytes()
            mag, phase = 2.0 * uniforms[3], 2.0 * np.pi * uniforms[4]
            disp = np.concatenate([2.0 * mag * np.cos(phase), 2.0 * mag * np.sin(phase)])
            assert disp.tobytes() == np.atleast_2d(state.displacement)[-1].tobytes()


def test_random_state_seed_fills_both_key_words():
    """A seed is the 128-bit key: seeds that share their low 64 bits differ,
    the largest key is taken, and a larger seed is refused by name."""
    low = random_state(2, 5)
    for seed in (2**64 + 5, 2**127 + 5):
        assert low.covariance.tobytes() != random_state(2, seed).covariance.tobytes()
    random_state(2, [0, 2**128 - 1])
    for seeds, name in ((2**128, "seed"), ([3, 2**128 + 1], "seed[1]"),
                        (np.array([2**64 - 1, 2**130], dtype=object), "seed[1]")):
        bad = seeds if name == "seed" else seeds[1]
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} = {bad} does not fit a "
                                             rf"128-bit Philox key$"):
            random_state(1, seeds)


def test_random_state_squeezing_sign_is_read_from_a_uniform(monkeypatch):
    """r < 0 exactly when its uniform is below 1/2.  For one mode
    V = n O1 diag(e^{2r}, e^{-2r}) O1^T with O1 the rotation by the phase of
    the first Gaussian draw, so the sign shows as V's variance along O1's
    first axis against det(V)^{1/2} = n."""
    seeds = list(range(400))
    states, draws = recorded_draws(monkeypatch, 1, seeds)
    signs = set()
    for cov, (uniforms, normals) in zip(states.covariance, draws):
        theta = np.arctan2(normals[0, 1, 0, 0], normals[0, 0, 0, 0])
        axis = np.array([np.cos(theta), np.sin(theta)])
        stretched = axis @ cov @ axis > np.sqrt(np.linalg.det(cov))
        assert stretched == (uniforms[2, 0] >= 0.5)
        signs.add(stretched)
    assert signs == {True, False}


def test_random_state_takes_a_d_max_per_seed():
    """Each state of a stack with one d_max per seed is bit for bit its own
    single call; d_max only scales the amplitudes, so d_max = 0 zeroes the
    displacement of the state that d_max = 8 displaces."""
    seeds, d_max = [3, 4, 5, 2**64 + 6], [8.0, 0.0, 2.5, 0.0]
    for m in (1, 2, 4):
        stack = random_state(m, seeds, d_max=d_max)
        for i, (seed, d) in enumerate(zip(seeds, d_max)):
            alone = random_state(m, seed, d_max=d)
            assert stack.covariance[i].tobytes() == alone.covariance.tobytes()
            assert stack.displacement[i].tobytes() == alone.displacement.tobytes()
        undisplaced, displaced = random_state(m, 4, d_max=0.0), random_state(m, 4)
        assert undisplaced.covariance.tobytes() == displaced.covariance.tobytes()
        assert not undisplaced.displacement.any() and displaced.displacement.any()
    for seeds, d_max in ((3, [1.0]), ([3, 4], [1.0, 2.0, 3.0]), ([3, 4], [[1.0, 2.0]])):
        with pytest.raises(ValueError, match=r"^d_max must be one value or one per seed"):
            random_state(2, seeds, d_max=d_max)
    with pytest.raises(ValueError, match="random_state needs"):
        random_state(2, [3, 4], d_max=[1.0, -1.0])


#: sha256 of the covariance and displacement bytes of random_state(m, range(3000))
#: and of the single seeds 0, 7 and 2**62, for m = 1 .. 4 in turn, per range
#: setting; recorded when the draws moved to keyed Philox, so they pin the corpus
CORPUS_DIGESTS = {
    "default": ({}, "1de8df1c1df8172c664913bdbd6d7e075b1db2b56509794b11aa0050115b67bd"),
    "undisplaced": ({"d_max": 0.0},
                    "fb0062aa4417385b421d6466d4d52116d2239ed50777864b34804a619ddf9d80"),
    "unsqueezed": ({"r_max": 0.0},
                   "8ba8648f67266785c21bf249386f01bb0f6c16b103f463c0cf8261ef0b168bbe"),
    "narrow": ({"n_max": 3.0, "r_max": 0.6, "d_max": 2.0},
               "71bc3d70e3fc2eb8dd1790f40997bb1f4b3e050474bce07bb8965598c06f2cb3"),
    "pure": ({"n_max": 1.0}, "3451a92283902499ebcffa468847ddcfd4e9c47b5633e16bc0bcf8e21ffb2a34"),
}


@pytest.mark.parametrize("setting", list(CORPUS_DIGESTS))
def test_random_state_corpus_is_pinned(setting):
    ranges, digest = CORPUS_DIGESTS[setting]
    h = hashlib.sha256()
    for m in range(1, 5):
        for seeds in (range(3000), 0, 7, 2**62):
            state = random_state(m, seeds, **ranges)
            h.update(state.covariance.tobytes())
            h.update(state.displacement.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("num_modes", [0, -1, 2.5, 2.0, True, "2", None])
def test_random_state_refuses_bad_num_modes(num_modes):
    for seed in (3, [3, 4]):
        with pytest.raises(ValueError, match=rf"^num_modes must be an integer of at least 1, "
                                             rf"got {re.escape(repr(num_modes))}$"):
            random_state(num_modes, seed)


def test_random_state_takes_numpy_integer_mode_counts():
    for m in (np.int64(2), np.int32(3), np.uint8(1)):
        state, plain = random_state(m, [5, 6]), random_state(int(m), [5, 6])
        assert state.mode_count == m
        assert state.covariance.tobytes() == plain.covariance.tobytes()
        assert state.displacement.tobytes() == plain.displacement.tobytes()


@pytest.mark.parametrize("seed, name", [
    (2.5, "seed"), (-1, "seed"), (True, "seed"), ("3", "seed"), (None, "seed"),
    ([1.5], "seed[0]"), ([3, -2], "seed[1]"), ([4, 5, False], "seed[2]"),
    (np.array([1.0, 2.0]), "seed[0]"), ([[1, 2]], "seed[0]"),
])
def test_random_state_refuses_bad_seeds(seed, name):
    """Every seed is checked before any draw; a bad one is named, with its
    index when ``seed`` is a sequence."""
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a non-negative "
                                         rf"integer, got "):
        random_state(1, seed)


def test_random_state_takes_numpy_integer_and_range_seeds():
    plain = random_state(2, [0, 7, 2**62])
    for seeds in ([np.int64(0), np.uint8(7), np.uint64(2**62)], np.array([0, 7, 2**62]),
                  range(0, 14, 7)):
        state = random_state(2, seeds)
        n = len(state.covariance)
        assert state.covariance.tobytes() == plain.covariance[:n].tobytes()
        assert state.displacement.tobytes() == plain.displacement[:n].tobytes()
    one = random_state(2, np.int64(7))
    assert one.covariance.tobytes() == plain.covariance[1].tobytes()


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


@pytest.mark.parametrize("points", [0, -1, 2.5, 3.0, True, "41"])
def test_sweep_refuses_points_but_a_positive_integer(points):
    with pytest.raises(ValueError, match="points"):
        sweep("fig1a", points=points)


def test_sweep_takes_one_point_and_numpy_integers():
    assert sweep("fig1b", points=1)["ratio"].shape == (4,)
    assert np.array_equal(sweep("fig1a", points=np.int64(5))["ratio"],
                          sweep("fig1a", points=5)["ratio"])


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
