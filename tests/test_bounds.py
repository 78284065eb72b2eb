"""Purification conditions, the gain envelope and its bounds."""

import hashlib

import numpy as np
import pytest

from pspurity import (
    BogoliubovRow,
    InconsistentRowError,
    ModeSelector,
    bound_f,
    bound_f_max,
    extract_bogoliubov,
    purification_conditions,
    relative_purity_closed_form,
    zero_displacement_ratio_bound,
    zeta_bound,
)
from pspurity.bounds import ZERO_DISPLACEMENT_SQ
from pspurity.scenarios import random_state, single_mode_family


def ratio_for(n_g, s_db, alpha_mag, phi):
    state = single_mode_family(n_g, s_db, alpha_mag, phi)
    return relative_purity_closed_form(
        extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    )


# ---------------------------------------------------------------------------
# envelope function
# ---------------------------------------------------------------------------

def test_bound_f_showcase_numbers():
    # aggregates of the 10 dB / n = 10 configuration at displacement 6
    assert bound_f(-0.2475, 24.75, 24.5025, 36.0) == pytest.approx(1.1967, abs=5e-4)


def test_bound_f_vanishing_numerator():
    assert bound_f(3.0, 3.0, 0.0, 5.0) == pytest.approx(1.0, abs=1e-15)


def test_bound_f_large_alpha_limit_from_above():
    val = bound_f(-0.2475, 24.75, 24.5025, 1e9)
    assert 1.0 < val < 1.0 + 1e-6


def test_bound_f_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        bound_f(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", range(4))
def test_envelope_rejects_non_finite_aggregates(bad, position):
    args = [-0.2475, 24.75, 24.5025, 36.0]
    args[position] = bad
    with pytest.raises(ValueError, match="finite"):
        bound_f(*args)
    if position < 3:
        with pytest.raises(ValueError, match="finite"):
            bound_f_max(*args[:3])


def test_bound_f_max_against_numeric_scan():
    x, y, z = -0.2475, 24.75, 24.5025
    alpha_star, f_max = bound_f_max(x, y, z)
    assert alpha_star == pytest.approx(37.5, abs=0.1)
    assert f_max == pytest.approx(1.1968, abs=5e-4)
    # independent 1-D maximization: dense scan plus local refinement
    grid = np.linspace(0.0, 200.0, 400_001)
    vals = [bound_f(x, y, z, a) for a in grid]
    best = int(np.argmax(vals))
    assert abs(grid[best] - alpha_star) <= grid[1] - grid[0]
    assert vals[best] <= f_max + 1e-12
    assert f_max - vals[best] < 1e-8
    assert bound_f(x, y, z, alpha_star) == pytest.approx(f_max, abs=1e-12)


def test_bound_f_max_below_limit_on_admissible_triples():
    rng = np.random.default_rng(123)
    count = 100_000
    y = rng.uniform(0.05, 50.0, count)
    zeta = rng.uniform(0.0, 1.0, count)
    x = y * zeta * rng.choice([-1.0, 1.0], count)
    # realizable rows satisfy z <= y - |x|
    z = rng.uniform(0.0, 1.0, count) * (y - np.abs(x))
    ok = z > 1e-12
    f = 1.0 + z[ok] ** 2 / (2.0 * (y[ok] ** 2 - x[ok] ** 2 + 2 * y[ok] * z[ok]
                                   - 0.5 * z[ok] ** 2))
    assert np.all(f < 1.2)


def test_bound_f_max_degenerate_z():
    _, f_max = bound_f_max(0.3, 2.0, 1e-9)
    assert f_max == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        bound_f_max(0.3, 2.0, 0.0)


def test_zeta_bound_values():
    assert zeta_bound(1.0) == pytest.approx(1.0)
    assert zeta_bound(0.5) == pytest.approx(1.0 + 1.0 / 13.0, rel=1e-12)
    assert zeta_bound(1e-12) < 1.2
    assert zeta_bound(1e-12) > 1.2 - 1e-9
    with pytest.raises(ValueError):
        zeta_bound(0.0)
    with pytest.raises(ValueError):
        zeta_bound(1.5)


def test_zeta_bound_monotone():
    zs = np.linspace(1e-6, 1.0, 1000)
    vals = [zeta_bound(z) for z in zs]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# purification conditions
# ---------------------------------------------------------------------------

def test_threshold_against_scan_oracle():
    """The closed-form displacement threshold must agree with the ratio = 1
    crossing located by bisection over the displacement magnitude."""
    state = single_mode_family(10.0, 10.0, 6.0, 0.0)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    report = purification_conditions(row)
    assert report.threshold_alpha_sq == pytest.approx(6.3731, abs=1e-3)
    lo, hi = 0.1, 6.0
    assert ratio_for(10.0, 10.0, lo, 0.0) < 1.0 < ratio_for(10.0, 10.0, hi, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ratio_for(10.0, 10.0, mid, 0.0) < 1.0:
            lo = mid
        else:
            hi = mid
    assert report.threshold_alpha_sq == pytest.approx(lo**2, rel=1e-9)
    assert report.purifiable  # displacement 6 exceeds the threshold


def test_orthogonal_direction_never_purifies():
    for alpha_mag in np.linspace(0.1, 12.0, 40):
        state = single_mode_family(10.0, 10.0, alpha_mag, np.pi / 2)
        row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
        report = purification_conditions(row)
        assert not report.purifiable
        assert relative_purity_closed_form(row) < 1.0


def test_zero_displacement_not_purifiable():
    state = single_mode_family(10.0, 10.0, 0.0, 0.0)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    assert not purification_conditions(row).purifiable


def test_condition_soundness_mini_fuzz():
    for seed in range(2000):
        m = 1 + seed % 4
        state = random_state(m, 90_000 + seed)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        ratio = relative_purity_closed_form(row)
        verdict = purification_conditions(row).purifiable
        assert verdict == (ratio >= 1.0 - 1e-9), (seed, ratio, verdict)


def test_threshold_equality_gives_unity_ratio():
    from pspurity import GaussianState, apply_displacement

    hits = 0
    for seed in range(400):
        state = random_state(2, 13_000 + seed)
        sel = ModeSelector.for_mode(seed % 2, 2)
        row = extract_bogoliubov(state, sel)
        report = purification_conditions(row)
        if report.threshold_alpha_sq is None or report.threshold_alpha_sq <= 0:
            continue
        phi = np.angle(row.alpha_g)
        mag = np.sqrt(report.threshold_alpha_sq)
        disp = 2 * mag * (
            np.cos(phi) * sel.basis_x + np.sin(phi) * sel.basis_p
        )
        at_threshold = GaussianState(state.covariance, disp)
        row_t = extract_bogoliubov(at_threshold, sel)
        assert relative_purity_closed_form(row_t) == pytest.approx(1.0, abs=1e-8)
        assert purification_conditions(row_t).purifiable
        hits += 1
    assert hits > 100  # the construction must actually exercise the branch


def reference_direction(row) -> float:
    """The direction term as Re(e^{2i phi} conj(cross)) at the phase phi of
    alpha_g, taken as 0 when undisplaced: the conditions' own route before
    the row carried the alignment term."""
    phi = np.angle(row.alpha_g) if row.alpha_sq > ZERO_DISPLACEMENT_SQ else 0.0
    return float(np.real(np.exp(2j * phi) * np.conj(row.cross)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_conditions_agree_with_the_phase_route(m, d_max):
    """Read from the row's alignment term, the conditions give the verdicts
    of the phase route, and its direction and threshold to 1e-12 relative."""
    seeds = range(41_000 + 1_000 * m, 41_250 + 1_000 * m)
    states = random_state(m, list(seeds), d_max=d_max)
    rows = extract_bogoliubov(states, ModeSelector.for_mode([s % m for s in seeds], m))
    thresholds = 0
    for row in rows:
        report = purification_conditions(row)
        x, y, a2, cross_sq = row.x, row.y, row.alpha_sq, row.cross_sq
        direction = reference_direction(row)
        assert report.condition_direction == pytest.approx(direction, rel=1e-12, abs=1e-300)
        if a2 <= ZERO_DISPLACEMENT_SQ:
            assert report.threshold_alpha_sq is None and not report.purifiable
        elif direction > 0.0:
            threshold = (y * y - x * x - 2.0 * cross_sq) / (4.0 * direction)
            assert report.threshold_alpha_sq == pytest.approx(threshold, rel=1e-12)
            assert report.purifiable == (a2 >= threshold - 1e-12 * max(abs(threshold), 1.0))
            thresholds += 1
        else:
            gain = x * x + 2.0 * cross_sq - y * y + 4.0 * a2 * direction
            assert report.threshold_alpha_sq is None
            assert report.purifiable == (gain >= -1e-12 * max(y * y, 1.0))
    assert thresholds > 50 if d_max else thresholds == 0


def test_envelope_dominates_ratio_fuzz():
    for seed in range(2000):
        m = 1 + seed % 4
        state = random_state(m, 130_000 + seed)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        ratio = relative_purity_closed_form(row)
        report = purification_conditions(row)
        assert ratio <= report.f_alpha + 1e-9
        assert report.f_alpha <= report.f_max + 1e-9
        assert report.f_max < 1.2 + 1e-12


def test_f_max_dominates_dense_alpha_sweep():
    for seed in range(50):
        state = random_state(2, 501 + seed)
        row = extract_bogoliubov(state, ModeSelector.for_mode(0, 2))
        if row.z <= 1e-12:
            continue
        _, f_max = bound_f_max(row.x, row.y, row.z)
        for alpha in np.linspace(0.0, 300.0, 3001):
            assert bound_f(row.x, row.y, row.z, alpha) <= f_max + 1e-9


def test_zeta_bound_with_absolute_x():
    """The zeta-variable bound holds with |x| even where x < 0 (realizable
    rows satisfy z <= y - |x|, which is all the derivation needs)."""
    for seed in range(500):
        m = 1 + seed % 4
        state = random_state(m, 370_000 + seed)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        assert row.z <= row.y - abs(row.x) + 1e-9
        if row.z <= 1e-12 or row.y <= 0:
            continue
        _, f_max = bound_f_max(row.x, row.y, row.z)
        zeta = max(abs(row.x) / row.y, 1e-300)
        assert f_max < zeta_bound(min(zeta, 1.0)) + 1e-12


def test_row_carries_phase_bearing_cross_term():
    state = random_state(2, 2024)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 2))
    assert abs(row.cross) <= 0.5 * row.z + 1e-12
    report = purification_conditions(row)
    assert report.zeta is None or 0.0 < report.zeta <= 1.0


# ---------------------------------------------------------------------------
# undisplaced bound
# ---------------------------------------------------------------------------

def test_zero_displacement_bound_squeezed_vacuum():
    state = single_mode_family(1.0, 10.0, 0.0, 0.0)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    assert zero_displacement_ratio_bound(row) == pytest.approx(1.0, abs=1e-12)


def test_zero_displacement_bound_squeezed_thermal():
    state = single_mode_family(10.0, 10.0, 0.0, 0.0)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    val = zero_displacement_ratio_bound(row)
    assert 0.5 - 1e-10 <= val <= 1.0 + 1e-10


def test_zero_displacement_bound_rejects_displaced_rows():
    state = single_mode_family(10.0, 10.0, 2.0, 0.0)
    row = extract_bogoliubov(state, ModeSelector.for_mode(0, 1))
    with pytest.raises(ValueError):
        zero_displacement_ratio_bound(row)


def test_zero_displacement_fuzz():
    for seed in range(500):
        m = 1 + seed % 4
        state = random_state(m, 210_000 + seed, d_max=0.0)
        row = extract_bogoliubov(state, ModeSelector.for_mode(seed % m, m))
        val = zero_displacement_ratio_bound(row)
        assert 0.5 - 1e-10 <= val <= 1.0 + 1e-10


def test_undisplaced_rule_is_one_for_both_functions():
    """alpha_g = 1e-12 has |alpha_g|^2 = 1e-24 = ZERO_DISPLACEMENT_SQ: the
    conditions and the undisplaced bound both take the row as undisplaced."""
    row = BogoliubovRow(1e-12 + 0j, [0.3], [np.sqrt(1.09)], [2.0])
    assert row.alpha_sq == ZERO_DISPLACEMENT_SQ
    report = purification_conditions(row)
    assert report.threshold_alpha_sq is None and not report.purifiable
    assert zero_displacement_ratio_bound(row) == relative_purity_closed_form(row)
    with pytest.raises(ValueError, match="row is displaced"):
        zero_displacement_ratio_bound(BogoliubovRow(2e-12 + 0j, [0.3], [np.sqrt(1.09)], [2.0]))


def test_unnormalized_row_is_refused_when_built():
    """A row with normalization defect 0.75 never reaches the conditions."""
    with pytest.raises(InconsistentRowError, match=r"^row violates normalization by 7\.500e-01$"):
        BogoliubovRow(1.0, [0.0], [0.5], [2.0])


# sha256 of the repr of every (ratio, zeta, condition_direction,
# threshold_alpha_sq, f_alpha, f_max, purifiable) of the corpus below, recorded
# from the code whose closed form and conditions checked each row themselves
CORPUS_DIGEST = "181cfbd71bd79737e77646b6113b4898608ec89d30203ff6b673a0a7e04ad38e"


def test_checks_at_construction_keep_every_bit():
    """40,000 rows: m = 1..4, 5,000 displaced (seeds 10,000 m + 0..4,999) and
    5,000 undisplaced (10,000 m + 5,000..9,999), one stacked extraction each,
    subtracting mode seed mod m."""
    entries = []
    for m in range(1, 5):
        for start, d_max in ((0, 8.0), (5_000, 0.0)):
            seeds = [10_000 * m + start + i for i in range(5_000)]
            states = random_state(m, seeds, d_max=d_max)
            rows = extract_bogoliubov(states, ModeSelector.for_mode([s % m for s in seeds], m))
            for row, ratio in zip(rows, relative_purity_closed_form(rows).tolist()):
                r = purification_conditions(row)
                entries.append((ratio, r.zeta, r.condition_direction, r.threshold_alpha_sq,
                                r.f_alpha, r.f_max, r.purifiable))
    assert len(entries) == 40_000
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == CORPUS_DIGEST
