"""Photon subtraction: prefactor, mode-transform extraction, purity routes."""

import numpy as np
import pytest

from pspurity import (
    BogoliubovRow,
    purification_conditions,
    GaussianState,
    ModeSelector,
    NumericDegenerateError,
    SubtractedState,
    SubtractionFromVacuumError,
    apply_displacement,
    apply_symplectic,
    beamsplitter,
    extract_bogoliubov,
    make_thermal,
    make_vacuum,
    marginal_subtracted,
    mean_photon,
    moments_subtracted,
    purity_gaussian,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    two_mode_squeezer,
    wigner_gaussian_at,
    wigner_subtracted_at,
)
from pspurity.scenarios import (
    circuit_to_gaussian,
    random_state,
    reference_single_mode_state,
    single_mode_family,
    three_mode_circuit,
    topology_search,
)


def selector1():
    return ModeSelector.for_mode(0, 1)


# ---------------------------------------------------------------------------
# subtraction basics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [mean_photon, extract_bogoliubov, subtract_photon])
@pytest.mark.parametrize("selector_modes, state_modes", [(1, 2), (3, 1)])
def test_selector_of_another_mode_count_is_refused(call, selector_modes, state_modes):
    state = make_thermal([3.0] * state_modes)
    with pytest.raises(ValueError, match="selector dimension does not match the state"):
        call(state, ModeSelector.for_mode(0, selector_modes))


def test_subtract_from_vacuum_raises():
    with pytest.raises(SubtractionFromVacuumError):
        subtract_photon(make_vacuum(1), selector1())


def test_both_routes_share_one_empty_mode_rule():
    """<n_g> = 5.0e-13 lies between the two thresholds the routes once kept
    apart, (1/4) 1e-12 and 1e-12: the prefactor route and the row both
    refuse it, with one message; at <n_g> = 2e-12 both give a ratio."""
    sel = selector1()
    empty = make_thermal([1.0 + 1e-12])
    messages = []
    for route in (subtract_photon, extract_bogoliubov):
        with pytest.raises(SubtractionFromVacuumError) as info:
            route(empty, sel)
        messages.append(str(info.value))
    assert messages == ["cannot subtract a photon from an empty mode: <n_g> = 5.000e-13"] * 2
    state = make_thermal([1.0 + 4e-12])
    assert purity_subtracted(subtract_photon(state, sel)) / purity_gaussian(state) == \
        pytest.approx(1.0, abs=1e-10)
    assert relative_purity_closed_form(extract_bogoliubov(state, sel)) == \
        pytest.approx(1.0, abs=1e-10)


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
        "l": np.array([np.sqrt(1.06), 0.2]),  # normalized: 1.06 + 0.04 - 0.09 - 0.01 = 1
        "noise": np.array([1.5, 2.0]),
    }
    BogoliubovRow(**fields)
    if name == "alpha_g":
        fields[name] = complex(bad, 0.0)
    else:
        fields[name][1] = bad
    with pytest.raises(ValueError, match="finite"):
        BogoliubovRow(**fields)


@pytest.mark.parametrize("noise", [0.0, 0.5, 1.0 - 2e-6])
def test_bogoliubov_row_rejects_sub_vacuum_noise(noise):
    with pytest.raises(ValueError, match="at least 1"):
        BogoliubovRow(1.0, [0j], [1.0], [noise])
    BogoliubovRow(1.0, [0j], [1.0], [1.0 - 5e-7])  # rounding below 1 is accepted


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
        assert row.defect < 1e-9


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
    assert purity_subtracted(sub) == pytest.approx(0.11966997, abs=1e-6)


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


# ---------------------------------------------------------------------------
# supported range
# ---------------------------------------------------------------------------

#: closed form vs prefactor moments may differ by at most this many cond(V) * eps
RANGE_K = 20.0


def _one_mode_regime(db, n):
    s = 10.0 ** (db / 10.0)
    c, t = np.cos(0.7), np.sin(0.7)
    rot = np.array([[c, t], [-t, c]])
    return GaussianState(rot @ np.diag([n * s, n / s]) @ rot.T, np.array([3.0, -1.0]))


REGIMES = (
    [(_one_mode_regime, (db, n)) for db in range(0, 101, 10) for n in (1.0, 10.0)]
    + [(random_state, (4, seed, n_max, r_max)) for r_max in (1.5, 4.0, 6.0, 8.0, 10.0)
       for n_max in (1.0, 20.0) for seed in range(50)]
)


def test_regime_map():
    """Across squeezing regimes every state either lies outside the float64
    range and raises NumericDegenerateError, or its closed form agrees with
    the prefactor-moment purity within RANGE_K * cond(V) * eps.  Nothing
    returns NaN, a ratio of 1.2 or more, or an "unphysical" verdict."""
    eps = np.finfo(float).eps
    refused = accepted = 0
    for build, args in REGIMES:
        try:
            state = build(*args)
        except NumericDegenerateError:
            refused += 1
            continue
        sel = ModeSelector.for_mode(0, state.mode_count)
        ratio = relative_purity_closed_form(extract_bogoliubov(state, sel))
        exact = purity_subtracted(subtract_photon(state, sel))
        lam = np.linalg.eigvalsh(state.covariance)
        assert 0.5 <= ratio < 1.2, (build.__name__, args)
        dev = abs(ratio * purity_gaussian(state) - exact) / exact
        assert dev <= RANGE_K * (lam[-1] / lam[0]) * eps, (build.__name__, args, dev)
        accepted += 1
    assert accepted > 0 and refused > 0


@pytest.mark.parametrize("shift", [20.0, 100.0, 1000.0])
def test_moment_route_keeps_its_accuracy_at_large_displacement(shift):
    """A two-mode squeezer (r = 0.1) then a beamsplitter (t = 0.9), displaced
    by (0.3, -shift, 0.1, 0) and subtracted on mode 0: the prefactor-moment
    purity agrees with the closed form within RANGE_K cond(V) eps at every
    shift.  Recovered from the b-monomials, the centered prefactor cancels
    by about shift^2, which put the moment route 190, 2,864 and 6,319
    cond(V) eps from a 60-digit reference (the closed form: 1.5).  The
    marginals keep theirs: each integrates to its normalization, and the
    two one-mode marginals of this pure state are equally pure."""
    state = apply_symplectic(make_vacuum(2), two_mode_squeezer(0.1, mode_a=0, mode_b=1,
                                                                num_modes=2))
    state = apply_symplectic(state, beamsplitter(0.9, 0, 1, 2))
    state = GaussianState(state.covariance, np.array([0.3, -shift, 0.1, 0.0]))
    sel = ModeSelector.for_mode(0, 2)
    lam = np.linalg.eigvalsh(state.covariance)
    bound = RANGE_K * (lam[-1] / lam[0]) * np.finfo(float).eps
    closed = relative_purity_closed_form(extract_bogoliubov(state, sel)) * purity_gaussian(state)
    sub = subtract_photon(state, sel)
    assert abs(purity_subtracted(sub) - closed) / closed <= bound
    for modes in ([0], [1], [0, 1]):
        marg = marginal_subtracted(sub, modes)
        d0, _, c2 = marg.prefactor_centered()
        expected = d0 + np.trace(c2 @ marg.base.covariance)
        assert expected == pytest.approx(marg.normalization, rel=1e-13, abs=0.0)
    one, two = (purity_subtracted(marginal_subtracted(sub, [j])) for j in (0, 1))
    assert one == pytest.approx(two, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [1e60, 5.7e76, 5.8e76, 1e100, 1e160])
def test_displacement_range(alpha):
    """Both routes hold a displacement while the normalization 4<n_g>
    squares to a finite float64, |alpha_g| up to about 5.78e76, and give
    ratio 1 there; beyond it each refuses the row or the subtracted state
    with NumericDegenerateError, never a NaN, an OverflowError or an
    overflow warning."""
    state = single_mode_family(2.0, 3.0, alpha, 0.3)
    sel = selector1()
    routes = {
        "closed_form": lambda: relative_purity_closed_form(extract_bogoliubov(state, sel)),
        "conditions": lambda: purification_conditions(extract_bogoliubov(state, sel)).f_alpha,
        "prefactor": lambda: purity_subtracted(subtract_photon(state, sel))
        / purity_gaussian(state),
        "moments": lambda: moments_subtracted(subtract_photon(state, sel)).mean[0],
    }
    if alpha < 5.78e76:
        for name in ("closed_form", "prefactor"):
            assert routes[name]() == pytest.approx(1.0, abs=1e-12), name
        for name in ("conditions", "moments"):
            assert np.isfinite(routes[name]()), name
        return
    for name, route in routes.items():
        with pytest.raises(NumericDegenerateError, match="overflows float64 when squared"):
            route()


def test_displacement_range_in_a_stack():
    """A stack refuses with the error of its first row past the range."""
    states = single_mode_family(2.0, 3.0, np.array([1.0, 1e160, 1e60, 1e100]), 0.3)
    with pytest.raises(NumericDegenerateError) as alone:
        extract_bogoliubov(states[1], selector1())
    with pytest.raises(NumericDegenerateError) as stacked:
        extract_bogoliubov(states, selector1())
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(NumericDegenerateError, match="= 4.000e[+]200 "):
        extract_bogoliubov(states[[0, 3, 1]], selector1())


# ---------------------------------------------------------------------------
# complementary marginals of pure subtracted states (Schmidt)
# ---------------------------------------------------------------------------

def assert_complementary_marginals_agree(state):
    """Subtraction keeps a pure state pure, and the two sides of any cut of
    a pure state have equal purity: for each subtracted mode g and mode l,
    the marginal on {l} and the marginal on the other modes."""
    m = state.mode_count
    for g in range(m):
        sub = subtract_photon(state, ModeSelector.for_mode(g, m))
        assert purity_subtracted(sub) == pytest.approx(1.0, abs=1e-9)
        for l in range(m):
            rest = [j for j in range(m) if j != l]
            one = purity_subtracted(marginal_subtracted(sub, [l]))
            other = purity_subtracted(marginal_subtracted(sub, rest))
            assert abs(one - other) <= 1e-12, (g, l, one, other)


def test_complementary_marginals_of_fig3_state():
    topology, _ = topology_search(alpha=1.6, s_db=3.0)
    assert_complementary_marginals_agree(circuit_to_gaussian(three_mode_circuit(topology)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_complementary_marginals_of_pure_random_states(m):
    states = random_state(m, range(600, 620), n_max=1.0)
    for i in range(20):
        assert_complementary_marginals_agree(states[i])


# ---------------------------------------------------------------------------
# the stacked moment route, its independence and its range
# ---------------------------------------------------------------------------

def test_moment_route_reads_no_bogoliubov_row(monkeypatch):
    """The prefactor-moment route checks the closed form, so it must run
    with the normal-mode decomposition, the Bogoliubov extraction and the
    closed form all broken, and give the same bits."""
    import pspurity
    from pspurity import gaussian, subtraction

    states = random_state(3, range(40), d_max=4.0)
    sel = ModeSelector.for_mode([i % 3 for i in range(40)], 3)

    def route():
        sub = subtract_photon(states, sel)
        return purity_subtracted(sub), moments_subtracted(sub)

    purities, report = route()

    def broken(*args, **kwargs):
        raise AssertionError("the moment route called the closed-form machinery")

    for module in (pspurity, gaussian, subtraction):
        for name in ("extract_bogoliubov", "williamson", "relative_purity_closed_form"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, broken)
    with pytest.raises(AssertionError, match="closed-form machinery"):
        subtraction.extract_bogoliubov(states, sel)
    again, report_again = route()
    assert again.tobytes() == purities.tobytes()
    assert report_again.mean.tobytes() == report.mean.tobytes()
    assert report_again.covariance.tobytes() == report.covariance.tobytes()


@pytest.mark.parametrize("count", [None, 3])
def test_subtracted_state_arrays_are_read_only(count):
    """The purity, moments and marginals read a centered prefactor cached
    from c0, c1, c2 and the normalization, so none of them can be written
    in place; the arrays a caller passes keep their own flags."""
    seeds = 5 if count is None else range(count)
    sub = subtract_photon(random_state(2, seeds, d_max=2.0), ModeSelector.for_mode(0, 2))
    arrays = [sub.c1, sub.c2, *sub.prefactor_centered()[1:]]
    if count is not None:
        arrays += [sub.c0, sub.normalization, sub.prefactor_centered()[0], sub[1].c2]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    c1, c2 = np.zeros(4), np.eye(4)
    SubtractedState(base=GaussianState(np.eye(4), np.zeros(4)), c0=1.0, c1=c1, c2=c2,
                    normalization=4.0)
    assert c1.flags.writeable and c2.flags.writeable


def test_subtracted_state_reads_the_centered_prefactor_it_is_given():
    """``subtract_photon`` passes d0 and d1, which ``prefactor_centered``
    returns as given; left out, they are recovered from c0 and c1 (to
    rounding here, at a displacement of about 5); one without the other, or
    either of the wrong shape, is refused."""
    sub = subtract_photon(random_state(2, 5, d_max=2.0), ModeSelector.for_mode(0, 2))
    d0, d1, c2 = sub.prefactor_centered()
    assert (d0, d1.tobytes()) == (sub.d0, sub.d1.tobytes())
    plain = SubtractedState(sub.base, sub.c0, sub.c1, sub.c2, sub.normalization)
    r0, r1, r2 = plain.prefactor_centered()
    assert r0 == pytest.approx(d0, rel=1e-12) and np.allclose(r1, d1, rtol=1e-12, atol=1e-12)
    assert r2.tobytes() == c2.tobytes()
    for extra, message in (({"d0": d0}, "give both d0 and d1 or neither"),
                           ({"d0": d0, "d1": d1[:2]}, "d0 and d1 must match c0 and c1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SubtractedState(sub.base, sub.c0, sub.c1, sub.c2, sub.normalization, **extra)


def gathered_marginal(sub, modes):
    """``marginal_subtracted`` as one np.ix_ gather per block: the reference
    its block slices must equal bit for bit."""
    modes = list(modes)
    m = sub.base.mode_count
    keep = np.array(modes + [m + j for j in modes])
    drop = np.array([i for i in range(2 * m) if i not in set(keep)])
    d0, d1, c2 = sub.prefactor_centered()
    if drop.size == 0:
        return d0, d1[keep], c2[np.ix_(keep, keep)]
    v = sub.base.covariance
    vaa, vab, vbb = v[np.ix_(keep, keep)], v[np.ix_(keep, drop)], v[np.ix_(drop, drop)]
    reg = np.linalg.solve(vaa.T, vab).T
    cond_cov = vbb - reg @ vab
    c2aa, c2ab, c2bb = c2[np.ix_(keep, keep)], c2[np.ix_(keep, drop)], c2[np.ix_(drop, drop)]
    q2 = c2aa + c2ab @ reg + reg.T @ c2ab.T + reg.T @ c2bb @ reg
    q1 = d1[keep] + reg.T @ d1[drop]
    q0 = d0 + float(np.trace(c2bb @ cond_cov))
    return q0, q1, q2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_marginal_blocks_equal_per_block_gathers_bitwise(m):
    subsets = [[0], [m - 1], list(range(m)), list(range(m))[::-1], [0, m - 1][: min(m, 2)],
               list(range(1, m)) or [0], [m - 1, 0][: min(m, 2)]]
    states = random_state(m, range(10 * m, 10 * m + 6), d_max=3.0)
    for i in range(6):
        sub = subtract_photon(states[i], ModeSelector.for_mode(i % m, m))
        for modes in subsets:
            q0, q1, q2 = gathered_marginal(sub, modes)
            alpha = sub.base.displacement[modes + [m + j for j in modes]]
            marginal = marginal_subtracted(sub, modes)
            assert marginal.c2.tobytes() == (0.5 * (q2 + q2.T)).tobytes(), modes
            assert marginal.c1.tobytes() == (q1 - 2.0 * q2 @ alpha).tobytes(), modes
            assert marginal.c0 == float(q0 - q1 @ alpha + alpha @ q2 @ alpha), modes


def test_huge_noise_is_refused_before_it_is_squared():
    """A noise factor whose square overflows float64 is refused with
    NumericDegenerateError, with no warning (warnings are errors here)."""
    sel = selector1()
    state = GaussianState(1e160 * np.eye(2), np.zeros(2))
    with pytest.raises(NumericDegenerateError,
                       match=r"^noise factor 1\.000e\+160 overflows float64 when squared$"):
        extract_bogoliubov(state, sel)
    stack = GaussianState(np.stack([np.eye(2) * 3.0, 1e160 * np.eye(2), 1e200 * np.eye(2)]),
                          np.zeros((3, 2)))
    with pytest.raises(NumericDegenerateError, match="1.000e[+]160"):
        extract_bogoliubov(stack, sel)
    with pytest.raises(NumericDegenerateError, match="1.000e[+]200"):
        BogoliubovRow(np.zeros(2, dtype=complex), np.zeros((2, 1)), np.ones((2, 1)),
                      np.array([[3.0], [1e200]]))
    # in range, the rows keep their bits: the weight is (n * n - 1) / (2 n)
    row = BogoliubovRow(0j, np.zeros(1), np.ones(1), np.array([3.0]))
    assert row.z == 0.0 and row.y == 1.0 and row.x == -1.0 / 3.0


def test_mean_photon_past_float64_is_refused():
    sel = selector1()
    with pytest.raises(NumericDegenerateError, match="mean photon number inf"):
        mean_photon(GaussianState(np.eye(2), np.array([1e160, 0.0])), sel)
    assert mean_photon(GaussianState(np.eye(2), np.array([1e150, 0.0])), sel) == \
        pytest.approx(2.5e299, rel=1e-15)
    # the subtraction keeps its own refusal of the normalization's square
    with pytest.raises(NumericDegenerateError, match="overflows float64 when squared"):
        subtract_photon(GaussianState(np.eye(2), np.array([1e160, 0.0])), sel)
