"""Grid-integration oracle: purity and variance from pointwise Wigner values."""

import numpy as np
import pytest

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
from pspurity import quadrature
from pspurity.quadrature import (
    GridSpec,
    _grid_sums,
    purity_by_grid,
    variance_by_grid,
)
from pspurity.scenarios import reference_single_mode_state


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width_sigmas=3.0)
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=400)
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=403)  # odd but (n-1) % 4 != 0


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
        gaussian_wigner_fn(state), 1, 2, GridSpec.for_state(state, points_per_axis=41)
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
        subtracted_wigner_fn(sub), 1, GridSpec.for_subtracted(sub)
    )
    assert value == pytest.approx(0.11967, abs=1e-4)
    assert abs(value - 0.1196699691) <= max(err, 1e-7)


def test_subtracted_normalization():
    """purity_by_grid raises GridExtentError unless the grid holds unit
    probability to 1e-5; an undisplaced subtracted state passes that check
    and matches its exact purity."""
    state = GaussianState(np.diag([6.0, 0.5]), np.zeros(2))
    sub = subtract_photon(state, ModeSelector.for_mode(0, 1))
    value, err = purity_by_grid(
        subtracted_wigner_fn(sub), 1, GridSpec.for_subtracted(sub)
    )
    assert abs(value - purity_subtracted(sub)) <= max(err, 1e-9)


def test_two_mode_purity():
    gate = two_mode_squeezer(r=0.4, mode_a=0, mode_b=1, num_modes=2)
    state = apply_symplectic(make_thermal([1.5, 1.0]), gate)
    value, err = purity_by_grid(
        gaussian_wigner_fn(state),
        2,
        GridSpec.for_state(state, points_per_axis=81),
    )
    assert value == pytest.approx(purity_gaussian(state), abs=1e-4)


def test_two_mode_subtracted_normalization():
    """The 4-D grid of a displaced, entangled subtracted state holds unit
    probability to 1e-5 (checked inside purity_by_grid) and its purity
    matches the exact one."""
    gate = two_mode_squeezer(r=0.5, mode_a=0, mode_b=1, num_modes=2)
    state = apply_displacement(
        apply_symplectic(make_thermal([2.0, 1.2]), gate), [1.0, 0.5, -0.5, 0.0]
    )
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    value, _ = purity_by_grid(
        subtracted_wigner_fn(sub), 2, GridSpec.for_subtracted(sub, points_per_axis=81)
    )
    assert value == pytest.approx(purity_subtracted(sub), abs=1e-9)


def test_refinement_within_error_estimate():
    th = make_thermal([4.0])
    wig = gaussian_wigner_fn(th)
    coarse, err = purity_by_grid(
        wig, 1, GridSpec.for_state(th, points_per_axis=101)
    )
    fine, _ = purity_by_grid(wig, 1, GridSpec.for_state(th, points_per_axis=201))
    assert abs(fine - coarse) <= max(err, 1e-12)


def test_three_modes_unsupported():
    with pytest.raises(ValueError):
        purity_by_grid(lambda p: np.zeros(len(p)), 3, GridSpec())


def test_bad_extent_reported():
    th = make_thermal([10.0])
    lying = GridSpec(
        center=np.zeros(2), axis_sigmas=np.array([0.1, 0.1]), points_per_axis=101
    )
    with pytest.raises(GridExtentError):
        purity_by_grid(gaussian_wigner_fn(th), 1, lying)


def test_chunked_grid_sums_match_single_chunk(monkeypatch):
    """Chunks of whole rows, many starting at odd row indices and not on a
    plane boundary, give the same fine and stride-2 coarse sums as one chunk
    over the whole grid."""
    gate = two_mode_squeezer(r=0.5, mode_a=0, mode_b=1, num_modes=2)
    state = apply_displacement(
        apply_symplectic(make_thermal([2.0, 1.2]), gate), [1.0, 0.5, -0.5, 0.0]
    )
    sub = subtract_photon(state, ModeSelector.for_mode(0, 2))
    wig = subtracted_wigner_fn(sub)
    n = 21
    axes = GridSpec.for_subtracted(sub, points_per_axis=n).axes(2)
    calls = []

    def counted(points):
        calls.append(len(points))
        return wig(points)

    monkeypatch.setattr(quadrature, "GRID_CHUNK_POINTS", n**4)
    single = _grid_sums(counted, axes, moment_axes=(0, 1))
    assert calls == [n**4]
    calls.clear()
    # 999 rows of n points per chunk: chunks start at rows 0, 999, 1998, ...
    monkeypatch.setattr(quadrature, "GRID_CHUNK_POINTS", 999 * n + n - 1)
    chunked = _grid_sums(counted, axes, moment_axes=(0, 1))
    assert calls == [999 * n] * 9 + [(n**3 - 9 * 999) * n]
    for want, got in zip(single, chunked):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
