"""Grid-integration oracle: purity and variance from pointwise Wigner values."""

import re

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from pspurity import (
    GaussianState,
    GridExtentError,
    ModeSelector,
    apply_displacement,
    apply_symplectic,
    gaussian_wigner_fn,
    make_thermal,
    make_vacuum,
    purity_gaussian,
    purity_subtracted,
    subtract_photon,
    subtracted_wigner_fn,
    two_mode_squeezer,
)
from pspurity.quadrature import GridSpec, _line_rule, purity_by_grid, variance_by_grid
from pspurity.scenarios import random_state, reference_single_mode_state
from pspurity.subtraction import moments_subtracted


def test_gridspec_validation():
    """A frame needs one entry per quadrature of the state it integrates."""
    with pytest.raises(ValueError):
        GridSpec(np.zeros(3), np.eye(2))
    two_mode = GridSpec.for_state(make_thermal([1.5, 1.2]))
    wig = gaussian_wigner_fn(make_vacuum(1))
    with pytest.raises(ValueError):
        purity_by_grid(wig, 1, two_mode)
    with pytest.raises(ValueError):
        variance_by_grid(wig, 0, 1, two_mode)


@pytest.mark.parametrize("center, cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, np.inf], np.eye(2)),
    ([0.0, 0.0], np.diag([np.inf, 1.0])),
    ([0.0, 0.0], np.diag([1.0, np.nan])),
])
def test_gridspec_refuses_non_finite_frames(center, cov):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(center, cov)


@pytest.mark.parametrize("entry", ["purity", "variance"])
def test_nan_wigner_values_raise_grid_extent_error(entry):
    """A total of NaN is not within the normalization tolerance of 1."""
    grid = GridSpec.for_state(make_vacuum(1))

    def wigner(points):
        return np.full(np.shape(points)[:-1], np.nan)

    with pytest.raises(GridExtentError):
        if entry == "purity":
            purity_by_grid(wigner, 1, grid)
        else:
            variance_by_grid(wigner, 0, 1, grid)


def test_vacuum_purity():
    vac = make_vacuum(1)
    value, err = purity_by_grid(gaussian_wigner_fn(vac), 1, GridSpec.for_state(vac))
    assert value == pytest.approx(1.0, abs=1e-6)
    assert err < 1e-6


def test_thermal_purity():
    th = make_thermal([10.0])
    value, _ = purity_by_grid(gaussian_wigner_fn(th), 1, GridSpec.for_state(th))
    assert value == pytest.approx(0.1, abs=1e-5)


def test_variance_reads_covariance_entry():
    state = GaussianState(np.diag([100.0, 1.0]), np.zeros(2))
    wig = gaussian_wigner_fn(state)
    grid = GridSpec.for_state(state)
    mom = variance_by_grid(wig, 0, 1, grid)
    assert mom["var_x"] == pytest.approx(100.0, abs=1e-3)
    assert mom["var_p"] == pytest.approx(1.0, abs=1e-6)
    assert mom["mean_x"] == pytest.approx(0.0, abs=1e-9)
    assert mom["mean_p"] == pytest.approx(0.0, abs=1e-9)


def test_vacuum_variance():
    vac = make_vacuum(1)
    mom = variance_by_grid(gaussian_wigner_fn(vac), 0, 1, GridSpec.for_state(vac))
    assert mom["var_x"] == pytest.approx(1.0, abs=1e-6)
    assert mom["var_p"] == pytest.approx(1.0, abs=1e-6)


def test_two_mode_variance_second_mode():
    """mode=1 of a two-mode state reads the (x_2, p_2) entries."""
    gate = two_mode_squeezer(r=0.3, mode_a=0, mode_b=1, num_modes=2)
    state = apply_displacement(
        apply_symplectic(make_thermal([1.5, 1.2]), gate), [0.4, -1.0, 0.7, 2.0]
    )
    mom = variance_by_grid(
        gaussian_wigner_fn(state), 1, 2, GridSpec.for_state(state)
    )
    assert mom["mean_x"] == pytest.approx(state.displacement[1], abs=1e-6)
    assert mom["mean_p"] == pytest.approx(state.displacement[3], abs=1e-6)
    assert mom["var_x"] == pytest.approx(state.covariance[1, 1], abs=1e-5)
    assert mom["var_p"] == pytest.approx(state.covariance[3, 3], abs=1e-5)
    with pytest.raises(ValueError):
        variance_by_grid(gaussian_wigner_fn(state), 2, 2, GridSpec.for_state(state))


def test_reference_subtracted_purity():
    state = reference_single_mode_state()
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    value, err = purity_by_grid(
        subtracted_wigner_fn(sub), 1, GridSpec.for_state(sub.base)
    )
    assert value == pytest.approx(0.11967, abs=1e-4)
    assert abs(value - 0.1196699691) <= max(err, 1e-7)


def test_subtracted_normalization():
    """purity_by_grid raises GridExtentError unless the frame holds unit
    probability to 1e-5; an undisplaced subtracted state passes that check
    and matches its exact purity."""
    state = GaussianState(np.diag([6.0, 0.5]), np.zeros(2))
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    value, err = purity_by_grid(
        subtracted_wigner_fn(sub), 1, GridSpec.for_state(sub.base)
    )
    assert abs(value - purity_subtracted(sub)) <= max(err, 1e-9)


def test_two_mode_purity():
    gate = two_mode_squeezer(r=0.4, mode_a=0, mode_b=1, num_modes=2)
    state = apply_symplectic(make_thermal([1.5, 1.0]), gate)
    value, err = purity_by_grid(
        gaussian_wigner_fn(state),
        2,
        GridSpec.for_state(state),
    )
    assert value == pytest.approx(purity_gaussian(state), abs=1e-4)


def test_two_mode_subtracted_normalization():
    """The 4-D rule of a displaced, entangled subtracted state holds unit
    probability to 1e-5 (checked inside purity_by_grid) and its purity
    matches the exact one."""
    gate = two_mode_squeezer(r=0.5, mode_a=0, mode_b=1, num_modes=2)
    state = apply_displacement(
        apply_symplectic(make_thermal([2.0, 1.2]), gate), [1.0, 0.5, -0.5, 0.0]
    )
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    value, _ = purity_by_grid(
        subtracted_wigner_fn(sub), 2, GridSpec.for_state(sub.base)
    )
    assert value == pytest.approx(purity_subtracted(sub), abs=1e-9)


def test_witness_flags_a_wrong_frame():
    """The n = 3 / n = 5 difference stays at rounding in the base state's
    frame, where W^2 is a Gaussian times a quartic, and rises well above it
    in a frame shifted by 0.1 sigma, where it is not."""
    state = reference_single_mode_state()
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    wig = subtracted_wigner_fn(sub)
    _, err = purity_by_grid(wig, 1, GridSpec.for_state(sub.base))
    assert err <= 1e-12
    shifted = state.displacement + 0.1 * np.sqrt(np.diag(state.covariance))
    _, err = purity_by_grid(wig, 1, GridSpec(shifted, state.covariance))
    assert err > 1e-6


def test_five_modes_unsupported():
    with pytest.raises(ValueError):
        purity_by_grid(lambda p: np.zeros(len(p)), 5, GridSpec.for_state(make_vacuum(5)))


@pytest.mark.parametrize("num_modes", [2.0, True, 0, 5, "2", None])
def test_grid_oracle_refuses_bad_mode_counts(num_modes):
    """Both entry points name num_modes before the rule is built."""
    state = make_vacuum(2)
    wig, grid = gaussian_wigner_fn(state), GridSpec.for_state(state)
    for call in (lambda: purity_by_grid(wig, num_modes, grid),
                 lambda: variance_by_grid(wig, 0, num_modes, grid)):
        with pytest.raises(ValueError, match=rf"^num_modes {re.escape(repr(num_modes))}: "
                                             "Gauss-Hermite quadrature supports 1 to 4 modes"):
            call()


@pytest.mark.parametrize("mode", [True, 0.5, 1.0, 2, -1, "0"])
def test_variance_by_grid_refuses_bad_modes(mode):
    state = make_vacuum(2)
    with pytest.raises(ValueError, match=rf"^mode {re.escape(repr(mode))} out of range "
                                         "for 2 modes$"):
        variance_by_grid(gaussian_wigner_fn(state), mode, 2, GridSpec.for_state(state))


def test_grid_oracle_takes_numpy_integers():
    state = make_thermal([2.0, 3.0])
    wig, grid = gaussian_wigner_fn(state), GridSpec.for_state(state)
    assert variance_by_grid(wig, np.int64(1), np.int64(2), grid) == variance_by_grid(
        wig, 1, 2, grid)
    assert purity_by_grid(wig, np.int32(2), grid) == purity_by_grid(wig, 2, grid)


@pytest.mark.parametrize("num_modes", [2, 3, 4])
def test_multimode_subtracted_exact(num_modes):
    """A mixed, displaced multimode state subtracted on mode 0: the rule
    reproduces the moment engine's purity and mode-0 moments."""
    state = random_state(num_modes, 1000 + num_modes, n_max=15.0, r_max=1.2, d_max=6.0)
    sub = subtract_photon(state, ModeSelector.for_mode(0, num_modes))
    wig = subtracted_wigner_fn(sub)
    grid = GridSpec.for_state(sub.base)
    value, _ = purity_by_grid(wig, num_modes, grid)
    assert value == pytest.approx(purity_subtracted(sub), rel=1e-9)
    report = moments_subtracted(sub)
    mom = variance_by_grid(wig, 0, num_modes, grid)
    want = {
        "mean_x": report.mean[0],
        "mean_p": report.mean[num_modes],
        "var_x": report.covariance[0, 0],
        "var_p": report.covariance[num_modes, num_modes],
    }
    for key, exact in want.items():
        assert mom[key] == pytest.approx(exact, rel=1e-9), key


def test_line_rule_is_cached_and_read_only():
    z, w = _line_rule(3)
    assert _line_rule(3)[0] is z
    for a in (z, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("num_modes", [1, 2])
def test_cached_rule_equals_an_uncached_build(n, num_modes):
    """The tensor rule from the cached line rule, against one built from a
    fresh ``hermegauss`` as before the cache."""
    state = random_state(num_modes, 40 + n, n_max=15.0, r_max=1.2, d_max=6.0)
    grid = GridSpec.for_state(state)
    nodes, weights = grid.rule(num_modes, 0.5, n)
    dim = 2 * num_modes
    z, w = hermegauss(n)
    w = w * np.exp(0.5 * z * z)
    chol = np.linalg.cholesky(0.5 * grid.covariance)
    index = np.indices((n,) * dim).reshape(dim, -1).T
    assert nodes.tobytes() == (grid.center + z[index] @ chol.T).tobytes()
    assert weights.tobytes() == (np.prod(w[index], axis=1) * np.prod(np.diag(chol))).tobytes()


def test_bad_extent_reported():
    th = make_thermal([10.0])
    lying = GridSpec(np.zeros(2), np.diag([0.1, 0.1]) ** 2)
    with pytest.raises(GridExtentError):
        purity_by_grid(gaussian_wigner_fn(th), 1, lying)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("m", [1, 2])
def test_rule_equals_the_uncached_tensor_rule_bitwise(n, m):
    """The cached whitened nodes and product weights, scaled by each call's
    own Cholesky factor, give every node and weight the bits of the rule
    built from the line rule on every call."""
    state = random_state(m, 17 + m, d_max=3.0)
    grid = GridSpec.for_state(state)
    for scale in (1.0, 0.5):
        nodes, weights = grid.rule(m, scale, n)
        chol = np.linalg.cholesky(scale * grid.covariance)
        z, w = _line_rule(n)
        index = np.indices((n,) * 2 * m).reshape(2 * m, -1).T
        assert nodes.tobytes() == (grid.center + z[index] @ chol.T).tobytes()
        assert weights.tobytes() == (np.prod(w[index], axis=1)
                                     * np.prod(np.diag(chol))).tobytes()
        assert nodes.flags.writeable and weights.flags.writeable
