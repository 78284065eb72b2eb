"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs).  Tolerances are fixed here and nowhere else.
"""

import numpy as np
import pytest

from pspurity import (
    GaussianState,
    ModeSelector,
    extract_bogoliubov,
    purification_conditions,
    purity_gaussian,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    subtracted_wigner_fn,
    gaussian_wigner_fn,
    moments_subtracted,
)
from pspurity.bounds import bound_f
from pspurity.fock import reduced_purity_fock, run_circuit_fock, subtract_photon_fock
from pspurity.quadrature import GridSpec, purity_by_grid, variance_by_grid
from pspurity.scenarios import (
    TARGET_SIGN_PATTERN,
    random_state,
    reference_single_mode_state,
    single_mode_family,
    sweep,
    three_mode_circuit,
    topology_search,
)


def report(number: int, name: str, check):
    try:
        check()
    except AssertionError:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def fuzz_corpus():
    """10^4 seeded random states up to four modes, 20% undisplaced.

    State i has seed 1_000_000 + i; each (modes, subtracted mode, displaced)
    group is drawn and extracted as one stack, then checked state by state.
    """
    groups = {}
    for i in range(10_000):
        m = 1 + i % 4
        groups.setdefault((m, i % m, (i % 5) != 0), []).append(i)
    records = [None] * 10_000
    for (m, mode, displaced), members in groups.items():
        states = random_state(m, [1_000_000 + i for i in members],
                              d_max=8.0 if displaced else 0.0)
        rows = extract_bogoliubov(states, ModeSelector.for_mode(mode, m))
        for j, i in enumerate(members):
            state, row = states[j], rows[j]
            ratio = relative_purity_closed_form(row)
            verdict = purification_conditions(row)
            records[i] = (state, row, ratio, verdict, displaced)
    return records


def test_criterion_1_reference_ratio():
    def check():
        state = reference_single_mode_state()
        ratio = relative_purity_closed_form(
            extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
        )
        assert abs(ratio - 1.1967) <= 5e-4

    report(1, "reference-state relative purity 1.1967", check)


def test_criterion_2_variance_suppression():
    def check():
        state = reference_single_mode_state()
        sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
        mom = moments_subtracted(sub)
        assert abs(mom.covariance[0, 0] / state.covariance[0, 0] - 0.85) <= 0.01
        assert abs(mom.covariance[1, 1] / state.covariance[1, 1] - 1.0) <= 1e-9
        grid = GridSpec.for_state(sub.base)
        by_grid = variance_by_grid(subtracted_wigner_fn(sub), 0, 1, grid)
        assert abs(by_grid["var_x"] / state.covariance[0, 0] - 0.85) <= 0.01
        assert abs(by_grid["var_p"] / state.covariance[1, 1] - 1.0) <= 1e-4

    report(2, "quadrature variance ratios 0.85 and 1", check)


def test_criterion_3_triple_oracle():
    def check():
        # twenty seeded single-mode states: closed form vs moment engine
        # (1e-9) and vs grid quadrature (1e-4), whose n = 3 vs n = 5
        # witness must show the rule exact for each integrand
        worst_engine = worst_grid = worst_witness = 0.0
        for i in range(20):
            state = random_state(1, 1000 + i, n_max=15.0, r_max=1.2, d_max=6.0)
            sel = ModeSelector.for_mode(0, 1)
            ratio = relative_purity_closed_form(extract_bogoliubov(state, sel))
            sub = subtract_photon(state, sel)
            worst_engine = max(
                worst_engine,
                abs(ratio * purity_gaussian(state) - purity_subtracted(sub)),
            )
            mu, err = purity_by_grid(
                gaussian_wigner_fn(state), 1, GridSpec.for_state(state)
            )
            mu_sub, err_sub = purity_by_grid(
                subtracted_wigner_fn(sub), 1, GridSpec.for_state(sub.base)
            )
            worst_grid = max(worst_grid, abs(ratio - mu_sub / mu))
            worst_witness = max(worst_witness, err, err_sub)
        assert worst_engine < 1e-9
        assert worst_grid < 1e-4
        assert worst_witness <= 1e-12
        # three-mode circuit: analytic table vs number-basis table
        topology, analytic = topology_search()
        fock = run_circuit_fock(three_mode_circuit(topology))
        assert fock.deficiency <= 1e-8
        before = [reduced_purity_fock(fock, [j]) for j in range(3)]
        worst_fock = 0.0
        for g in range(3):
            sub_fock = subtract_photon_fock(fock, g)
            for j in range(3):
                fock_ratio = reduced_purity_fock(sub_fock, [j]) / before[j]
                worst_fock = max(worst_fock, abs(fock_ratio - analytic[g, j]))
        assert worst_fock < 1e-3

    report(3, "triple-oracle agreement", check)


def test_criterion_4_ratio_bounds(fuzz_corpus):
    def check():
        for state, row, ratio, verdict, displaced in fuzz_corpus:
            assert 0.5 - 1e-10 <= ratio < 1.2
            if not displaced:
                assert ratio <= 1.0 + 1e-10

    report(4, "ratio within [1/2, 1.2), undisplaced within 1", check)


def test_criterion_5_condition_soundness(fuzz_corpus):
    def check():
        for state, row, ratio, verdict, displaced in fuzz_corpus:
            assert verdict.purifiable == (ratio >= 1.0 - 1e-9)
        # states displaced exactly to the threshold sit on ratio = 1
        hits = 0
        for state, row, ratio, verdict, displaced in fuzz_corpus[:600]:
            if verdict.threshold_alpha_sq is None or verdict.threshold_alpha_sq <= 0:
                continue
            m = state.mode_count
            sel = ModeSelector.for_mode(0, m)
            base_row = extract_bogoliubov(state, sel)
            base_report = purification_conditions(base_row)
            if base_report.threshold_alpha_sq is None:
                continue
            if base_report.threshold_alpha_sq <= 0:
                continue
            phi = np.angle(base_row.alpha_g)
            mag = np.sqrt(base_report.threshold_alpha_sq)
            disp = 2 * mag * (np.cos(phi) * sel.basis_x + np.sin(phi) * sel.basis_p)
            pinned = GaussianState(state.covariance, disp)
            pinned_ratio = relative_purity_closed_form(
                extract_bogoliubov(pinned, sel)
            )
            assert abs(pinned_ratio - 1.0) <= 1e-8
            hits += 1
        assert hits >= 100

    report(5, "purification conditions sound and tight", check)


def test_criterion_6_extraction_closed_forms():
    def check():
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = rng.uniform(1.0, 40.0)
            s = rng.uniform(1.001, 60.0)
            state = GaussianState(np.diag([n * s, n / s]), np.zeros(2))
            row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
            assert abs(abs(row.k[0]) - (s - 1) / (2 * np.sqrt(s))) < 1e-10
            assert abs(abs(row.l[0]) - (s + 1) / (2 * np.sqrt(s))) < 1e-10

    report(6, "mode-transform magnitudes match closed forms", check)


def test_criterion_7_envelope_dominance(fuzz_corpus):
    def check():
        for state, row, ratio, verdict, displaced in fuzz_corpus:
            assert ratio <= verdict.f_alpha + 1e-9
            assert verdict.f_alpha <= verdict.f_max + 1e-9
        # dense displacement sweep under the envelope maximum
        for state, row, ratio, verdict, displaced in fuzz_corpus[:50]:
            if row.z <= 1e-12:
                continue
            for alpha in np.linspace(0.0, 400.0, 2001):
                assert bound_f(row.x, row.y, row.z, alpha) <= verdict.f_max + 1e-9

    report(7, "envelope dominates ratio and its own maximum", check)


def test_criterion_8_three_mode_sign_pattern():
    def check():
        topology, table = topology_search()
        assert topology is not None, "no squeezer pairing matches the pattern"
        for g in range(3):
            for j in range(3):
                assert np.sign(table[g, j] - 1.0) == TARGET_SIGN_PATTERN[g][j]
        from pspurity.scenarios import circuit_to_gaussian

        state = circuit_to_gaussian(three_mode_circuit(topology))
        for g in range(3):
            mu = purity_subtracted(subtract_photon(state, ModeSelector.for_mode(g, 3)))
            assert abs(mu - 1.0) <= 1e-7

    report(8, "three-mode sign pattern with pure global state", check)


def test_criterion_9_orthogonal_direction():
    def check():
        columns = sweep("fig1b", points=241)
        rows = columns["phi"] > 1.0
        assert rows.any() and columns["alpha_mag"][rows].max() == 12.0
        assert (columns["ratio"][rows] <= 1.0 + 1e-9).all()

    report(9, "orthogonal displacement never purifies", check)
