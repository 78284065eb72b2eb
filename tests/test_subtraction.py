"""Photon subtraction: prefactor, mode-transform extraction, purity routes."""

import numpy as np
import pytest

from pspurity import (
    BogoliubovRow,
    GaussianState,
    ModeSelector,
    SubtractionFromVacuumError,
    apply_displacement,
    extract_bogoliubov,
    make_vacuum,
    marginal_subtracted,
    moments_subtracted,
    purity_gaussian,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    wigner_gaussian_at,
    wigner_subtracted_at,
)
from pspurity.scenarios import random_state, reference_single_mode_state


def selector1():
    return ModeSelector.for_mode(0, 1)


# ---------------------------------------------------------------------------
# subtraction basics
# ---------------------------------------------------------------------------

def test_subtract_from_vacuum_raises():
    with pytest.raises(SubtractionFromVacuumError):
        subtract_photon(make_vacuum(1), selector1())


def test_coherent_state_is_fixed_point():
    state = apply_displacement(make_vacuum(1), [12.0, 0.0])
    sub = subtract_photon(state, selector1())
    # prefactor is constant: no linear or quadratic part
    assert np.abs(sub.c1).max() < 1e-12
    assert np.abs(sub.c2).max() < 1e-12
    pts = np.random.default_rng(0).uniform(-4, 16, size=(50, 2))
    assert np.abs(
        wigner_subtracted_at(sub, pts) - wigner_gaussian_at(state, pts)
    ).max() < 1e-10
    report = moments_subtracted(sub)
    assert np.allclose(report.mean, state.displacement, atol=1e-12)
    assert np.allclose(report.covariance, state.covariance, atol=1e-12)
    assert purity_subtracted(sub) == pytest.approx(1.0, abs=1e-12)


def test_subtracted_squeezed_vacuum_negative_at_origin():
    state = GaussianState(np.diag([4.0, 0.25]), np.zeros(2))
    sub = subtract_photon(state, selector1())
    assert wigner_subtracted_at(sub, [0.0, 0.0]) < 0.0


def test_normalization_equals_four_mean_photons():
    state = reference_single_mode_state()
    sub = subtract_photon(state, selector1())
    assert sub.normalization == pytest.approx(243.0, rel=1e-12)


# ---------------------------------------------------------------------------
# mode-transform extraction
# ---------------------------------------------------------------------------

def test_extraction_closed_forms_squeezed_thermal():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = rng.uniform(1.0, 30.0)
        s = rng.uniform(1.01, 40.0)
        state = GaussianState(np.diag([n * s, n / s]), np.zeros(2))
        row = extract_bogoliubov(state, selector1())
        assert abs(row.k[0]) == pytest.approx((s - 1) / (2 * np.sqrt(s)), abs=1e-10)
        assert abs(row.l[0]) == pytest.approx((s + 1) / (2 * np.sqrt(s)), abs=1e-10)
        assert row.noise[0] == pytest.approx(n, rel=1e-10)


def test_extraction_vacuum_row():
    state = GaussianState(np.eye(2), np.array([2.0, 0.0]))
    row = extract_bogoliubov(state, selector1())
    assert abs(row.k[0]) < 1e-12
    assert abs(row.l[0]) == pytest.approx(1.0, abs=1e-12)
    assert row.noise[0] == pytest.approx(1.0, abs=1e-10)
    assert row.alpha_g == pytest.approx(1.0 + 0.0j)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["alpha_g", "k", "l", "noise"])
def test_bogoliubov_row_rejects_non_finite(name, bad):
    fields = {
        "alpha_g": 0.5 + 0.25j,
        "k": np.array([0.3, 0.1]),
        "l": np.array([1.0, 0.2]),
        "noise": np.array([1.5, 2.0]),
    }
    BogoliubovRow(**fields)
    if name == "alpha_g":
        fields[name] = complex(bad, 0.0)
    else:
        fields[name][1] = bad
    with pytest.raises(ValueError, match="finite"):
        BogoliubovRow(**fields)


def test_extraction_ten_db_values():
    state = GaussianState(np.diag([100.0, 1.0]), np.zeros(2))
    row = extract_bogoliubov(state, selector1())
    assert abs(row.k[0]) == pytest.approx(9 / (2 * np.sqrt(10)), abs=1e-12)
    assert abs(row.l[0]) == pytest.approx(11 / (2 * np.sqrt(10)), abs=1e-12)


def test_extraction_normalization_constraint_fuzz():
    for seed in range(200):
        m = 1 + seed % 4
        state = random_state(m, 31_000 + seed)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        assert row.constraint_defect() < 1e-9


def test_cross_sum_not_imaginary_for_squeezed_states():
    # the real part of sum(k l*) does not vanish for squeezed modes, so it
    # is reported rather than enforced
    state = GaussianState(np.diag([100.0, 1.0]), np.zeros(2))
    row = extract_bogoliubov(state, selector1())
    assert row.cross_sum_real() > 0.5


# ---------------------------------------------------------------------------
# purity routes
# ---------------------------------------------------------------------------

def test_reference_state_ratio():
    state = reference_single_mode_state()
    row = extract_bogoliubov(state, selector1())
    ratio = relative_purity_closed_form(row)
    assert ratio == pytest.approx(1.1967, abs=5e-4)
    # and the two analytic routes agree to machine precision
    sub = subtract_photon(state, selector1())
    assert purity_subtracted(sub) == pytest.approx(
        ratio * purity_gaussian(state), abs=1e-12
    )


def test_coherent_row_ratio_is_one():
    row = extract_bogoliubov(
        apply_displacement(make_vacuum(1), [12.0, 0.0]), selector1()
    )
    assert relative_purity_closed_form(row) == pytest.approx(1.0, abs=1e-12)


def test_squeezed_vacuum_row_ratio_is_one():
    state = GaussianState(np.diag([9.0, 1 / 9.0]), np.zeros(2))
    row = extract_bogoliubov(state, selector1())
    assert relative_purity_closed_form(row) == pytest.approx(1.0, abs=1e-12)


def test_pipeline_consistency_fuzz():
    """Closed form times Gaussian purity equals the prefactor-moment purity,
    relative to it, on a thousand seeded states up to four modes plus a few
    at 8 and 16 modes, whose purities are far below one."""
    cases = [(1 + seed % 4, 50_000 + seed, seed) for seed in range(1000)]
    cases += [(m, 52_000 + 100 * m + k, k) for m in (8, 16) for k in range(3)]
    worst = 0.0
    for m, seed, k in cases:
        state = random_state(m, seed)
        sel = ModeSelector.for_mode(k % m, m)
        ratio = relative_purity_closed_form(extract_bogoliubov(state, sel))
        mu_sub = purity_subtracted(subtract_photon(state, sel))
        worst = max(worst, abs(ratio * purity_gaussian(state) - mu_sub) / mu_sub)
    assert worst < 1e-9


def test_global_purity_preserved_for_pure_states():
    for seed in range(30):
        state = random_state(3, 77_000 + seed, n_max=1.0, r_max=1.0, d_max=3.0)
        sub = subtract_photon(state, ModeSelector.for_mode(seed % 3, 3))
        assert purity_subtracted(sub) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_reference_state_moments():
    state = reference_single_mode_state()
    sub = subtract_photon(state, selector1())
    report = moments_subtracted(sub)
    # frozen from two independent derivations (operator algebra and the
    # closed matrix form of the Gaussian moments); number-basis check in
    # test_fock.py
    assert report.mean[0] == pytest.approx(21.7777778, abs=1e-6)
    assert report.mean[1] == pytest.approx(0.0, abs=1e-12)
    assert report.covariance[0, 0] == pytest.approx(85.0617284, abs=1e-6)
    assert report.covariance[0, 0] / 100.0 == pytest.approx(0.85, abs=0.01)
    assert report.covariance[1, 1] == pytest.approx(1.0, abs=1e-9)
    assert report.purity == pytest.approx(0.11966997, abs=1e-6)


def test_moments_covariance_symmetric():
    state = random_state(2, 4242)
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    report = moments_subtracted(sub)
    assert np.abs(report.covariance - report.covariance.T).max() < 1e-12


# ---------------------------------------------------------------------------
# marginals of subtracted states
# ---------------------------------------------------------------------------

def test_marginal_of_untouched_factor_is_unchanged():
    cov = np.diag([4.0, 5.0, 0.25, 5.0])
    state = GaussianState(cov, np.array([2.0, 0.0, 0.0, 0.0]))
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    marg = marginal_subtracted(sub, [1])
    ratio = purity_subtracted(marg) / purity_gaussian(marg.base)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_marginal_over_all_modes_matches_global():
    state = random_state(3, 909)
    sub = subtract_photon(state, ModeSelector.for_mode(1, 3))
    marg = marginal_subtracted(sub, [0, 1, 2])
    assert purity_subtracted(marg) == pytest.approx(purity_subtracted(sub), rel=1e-12)


def test_marginal_normalization_preserved():
    state = random_state(2, 31337)
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    marg = marginal_subtracted(sub, [1])
    # marginal Wigner must still integrate to one: E[Q] = normalization
    d0, d1, c2 = marg.prefactor_centered()
    expected = d0 + np.trace(c2 @ marg.base.covariance)
    assert expected == pytest.approx(marg.normalization, rel=1e-10)
