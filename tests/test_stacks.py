"""Stacked states: a leading state axis through construction, validation,
normal-mode decomposition and Bogoliubov extraction.

A stack must give each row bit for bit what that row gives alone, raise the
error its first failing row raises alone, and be refused by every function
that takes a single state.
"""

import inspect
import re

import numpy as np
import pytest

from pspurity import (
    GaussianState,
    ModeSelector,
    SubtractedState,
    SymplecticTransform,
    apply_displacement,
    apply_symplectic,
    bounds,
    extract_bogoliubov,
    fock,
    gaussian,
    gaussian_wigner_fn,
    mean_photon,
    phase_rotation,
    purification_conditions,
    purity_gaussian,
    reduce_modes,
    relative_purity_closed_form,
    scenarios,
    subtract_photon,
    subtraction,
    symplectic_eigenvalues,
    wigner_gaussian_at,
    williamson,
    zero_displacement_ratio_bound,
)
from pspurity.errors import (
    InconsistentRowError,
    NumericDegenerateError,
    SubtractionFromVacuumError,
    UnphysicalStateError,
)
from pspurity.fock import gaussian_state_to_fock
from pspurity.quadrature import GridSpec
from pspurity.scenarios import mode_ratio_table, random_state, single_mode_family

SEEDS = [1_000 + 37 * i for i in range(40)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_stack_rows_equal_single_calls_bitwise(m, d_max):
    states = random_state(m, SEEDS, d_max=d_max)
    selectors = [ModeSelector.for_mode(m - 1, m),
                 ModeSelector.from_direction(np.arange(1.0, 2 * m + 1))]
    rows = [extract_bogoliubov(states, sel) for sel in selectors]
    ratios = [relative_purity_closed_form(stacked_rows) for stacked_rows in rows]
    decomp = williamson(states)
    assert states.stacked and states.covariance.shape == (len(SEEDS), 2 * m, 2 * m)
    for i, seed in enumerate(SEEDS):
        alone = random_state(m, seed, d_max=d_max)
        assert not alone.stacked
        assert same_bits(states[i].covariance, alone.covariance)
        assert same_bits(states[i].displacement, alone.displacement)
        single = williamson(alone)
        assert same_bits(decomp[i].symplectic.matrix, single.symplectic.matrix)
        assert same_bits(decomp[i].noise_factors, single.noise_factors)
        for sel, stacked_rows, stacked_ratios in zip(selectors, rows, ratios):
            row, single_row = stacked_rows[i], extract_bogoliubov(alone, sel)
            assert type(row.alpha_g) is complex and row.alpha_g == single_row.alpha_g
            for name in ("k", "l", "noise", "x", "y", "z", "cross", "defect", "alpha_sq",
                         "cross_sq"):
                assert same_bits(getattr(row, name), getattr(single_row, name))
            assert type(row.x) is float and type(row.cross) is complex
            assert type(row.alpha_sq) is float and type(row.cross_sq) is float
            # hypot, as Python's abs(complex): NumPy's complex abs rounds otherwise
            assert row.alpha_sq == abs(row.alpha_g) * abs(row.alpha_g)
            assert row.cross_sq == abs(row.cross) * abs(row.cross)
            ratio = relative_purity_closed_form(single_row)
            assert type(ratio) is float
            assert same_bits(stacked_ratios[i], ratio)
            assert relative_purity_closed_form(row) == ratio


def test_stack_slices_and_single_rows():
    states = random_state(2, SEEDS[:5])
    assert states[1:3].covariance.shape == (2, 4, 4)
    assert same_bits(states[1:3][1].covariance, states[2].covariance)
    assert same_bits(symplectic_eigenvalues(states.covariance)[3],
                     symplectic_eigenvalues(states[3].covariance))
    with pytest.raises(TypeError):
        states[0][0]
    with pytest.raises(ValueError, match="at least one seed"):
        random_state(2, [])


def test_single_mode_family_broadcasts_bitwise():
    phi = np.linspace(0.0, 2.0 * np.pi, 9)
    alpha = np.linspace(0.0, 12.0, 9)
    s_db = np.array([1.0, 10.0, 30.0] * 3)
    stack = single_mode_family(10.0, s_db, alpha, phi)
    for i in range(phi.size):
        alone = single_mode_family(10.0, float(s_db[i]), float(alpha[i]), float(phi[i]))
        assert same_bits(stack[i].covariance, alone.covariance)
        assert same_bits(stack[i].displacement, alone.displacement)


def test_single_mode_family_reports_first_bad_entry():
    with pytest.raises(ValueError, match="got 0.5"):
        single_mode_family(np.array([2.0, 0.5, 0.25]), 3.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        single_mode_family(2.0, 3.0, np.array([1.0, -1.0]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        single_mode_family(2.0, 3.0, 1.0, np.array([0.0, np.nan]))


def bad_rows(m):
    """One failing covariance per check of GaussianState, for m modes."""
    nan = np.eye(2 * m)
    nan[0, 0] = np.nan
    asym = np.eye(2 * m)
    asym[0, 1] = 1e-3
    sub_vacuum = 0.5 * np.eye(2 * m)
    beyond = np.diag([1e-5, 1e5] + [1.0] * (2 * m - 2)) if m > 1 else np.diag([1e-5, 1e5])
    return {"nan": nan, "asymmetric": asym, "sub_vacuum": sub_vacuum,
            "not_positive": -np.eye(2 * m), "beyond_range": beyond}


def error_alone(cov):
    with pytest.raises(ValueError) as info:
        GaussianState(cov, np.zeros(cov.shape[0]))
    return info.value


@pytest.mark.parametrize("kind", ["nan", "asymmetric", "sub_vacuum", "not_positive",
                                  "beyond_range"])
@pytest.mark.parametrize("m", [1, 2])
def test_stack_raises_the_error_of_its_bad_row(kind, m):
    bad = bad_rows(m)[kind]
    alone = error_alone(bad)
    cov = random_state(m, SEEDS[:6]).covariance.copy()
    cov[3] = bad
    with pytest.raises(type(alone)) as info:
        GaussianState(cov, np.zeros((6, 2 * m)))
    assert str(info.value) == str(alone)


def test_stack_raises_first_failing_row_even_for_a_later_check():
    # row 1 fails the last check (sub-vacuum), row 4 the first (NaN)
    rows = bad_rows(1)
    cov = random_state(1, SEEDS[:6]).covariance.copy()
    cov[1], cov[4] = rows["sub_vacuum"], rows["nan"]
    with pytest.raises(UnphysicalStateError) as info:
        GaussianState(cov, np.zeros((6, 2)))
    assert str(info.value) == str(error_alone(rows["sub_vacuum"]))
    # and row 2 beyond range before row 3 asymmetric
    cov = random_state(2, SEEDS[:6]).covariance.copy()
    rows = bad_rows(2)
    cov[2], cov[3] = rows["beyond_range"], rows["asymmetric"]
    with pytest.raises(NumericDegenerateError) as info:
        GaussianState(cov, np.zeros((6, 4)))
    assert str(info.value) == str(error_alone(rows["beyond_range"]))


def test_stacked_transform_raises_the_error_of_its_bad_row():
    mats = np.stack([phase_rotation(0.1 * i, 0, 1).matrix for i in range(4)])
    mats[2] = np.diag([2.0, 2.0])
    with pytest.raises(ValueError) as alone:
        SymplecticTransform(mats[2])
    with pytest.raises(ValueError) as stacked:
        SymplecticTransform(mats)
    assert str(stacked.value) == str(alone.value)
    # row 1 fails the symplectic check, row 3 the finite check that runs first
    eye = np.eye(2)
    with pytest.raises(ValueError) as stacked:
        SymplecticTransform(np.stack([eye, 2.0 * eye, eye, np.diag([np.nan, 1.0])]))
    assert str(stacked.value) == "matrix is not symplectic (defect 3.000e+00)"


def test_stacked_decomposition_raises_the_error_of_its_first_bad_row():
    # row 0 fails the sorting check, row 1 the below-vacuum check that runs first
    transforms = SymplecticTransform(np.stack([np.eye(4)] * 2))
    noise = np.array([[1.0, 2.0], [0.5, 0.5]])
    with pytest.raises(ValueError) as alone:
        gaussian.WilliamsonDecomposition(transforms[0], noise[0])
    with pytest.raises(ValueError) as stacked:
        gaussian.WilliamsonDecomposition(transforms, noise)
    assert type(stacked.value) is type(alone.value) is ValueError
    assert str(stacked.value) == str(alone.value) == "noise factors must be sorted descending"
    # a non-finite row raises its own message, unless an earlier row fails first
    noise = np.array([[2.0, 1.0], [np.inf, 1.0]])
    with pytest.raises(ValueError) as alone:
        gaussian.WilliamsonDecomposition(transforms[1], noise[1])
    with pytest.raises(ValueError) as stacked:
        gaussian.WilliamsonDecomposition(transforms, noise)
    assert str(stacked.value) == str(alone.value) == "noise factors must be finite, got [inf  1.]"
    with pytest.raises(ValueError, match="sorted descending"):
        gaussian.WilliamsonDecomposition(transforms, np.array([[1.0, 2.0], [np.nan, 1.0]]))


def test_bogoliubov_stack_raises_the_error_of_its_bad_row():
    # row 0 fails the noise check, row 1 the finite check that comes first
    k, l = np.zeros((2, 1), dtype=complex), np.ones((2, 1), dtype=complex)
    noise = np.array([[0.5], [np.nan]])
    with pytest.raises(ValueError) as alone:
        subtraction.BogoliubovRow(0j, k[0], l[0], noise[0])
    with pytest.raises(ValueError) as stacked:
        subtraction.BogoliubovRow(np.zeros(2, dtype=complex), k, l, noise)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match="finite"):
        subtraction.BogoliubovRow(np.zeros(2, dtype=complex), k, l, np.array([[1.5], [np.nan]]))


def test_stacked_closed_form_raises_the_error_of_its_first_bad_row():
    # rows: good (y = 1), empty (y = 0, undisplaced), normalization defect 3
    good, empty, defect = (subtraction.BogoliubovRow(0j, np.zeros(1), np.array([l]),
                                                      np.array([n]))
                           for l, n in ((1.0, 3.0), (1.0, 1.0), (2.0, 3.0)))
    bad, errors = {"empty": empty, "defect": defect}, {}
    for name, row in bad.items():
        with pytest.raises(ValueError) as alone:
            relative_purity_closed_form(row)
        errors[name] = alone.value
    assert type(errors["empty"]) is SubtractionFromVacuumError
    assert type(errors["defect"]) is InconsistentRowError
    for order in (("empty", "defect"), ("defect", "empty")):
        rows = [good, *(bad[name] for name in order), good]
        stack = subtraction.BogoliubovRow(np.zeros(4, dtype=complex),
                                          np.stack([r.k for r in rows]),
                                          np.stack([r.l for r in rows]),
                                          np.stack([r.noise for r in rows]))
        with pytest.raises(ValueError) as stacked:
            relative_purity_closed_form(stack)
        first = errors[order[0]]
        assert type(stacked.value) is type(first) and str(stacked.value) == str(first)


def single_state_calls(state, rows, sel, transform):
    """Every public function that takes one state or one row, applied to
    ``state`` / ``rows``; keyed by name."""
    return {
        "apply_symplectic": lambda: apply_symplectic(state, transform),
        "apply_displacement": lambda: apply_displacement(state, np.zeros(2)),
        "reduce_modes": lambda: reduce_modes(state, [0]),
        "mean_photon": lambda: mean_photon(state, sel),
        "purity_gaussian": lambda: purity_gaussian(state),
        "gaussian_wigner_fn": lambda: gaussian_wigner_fn(state),
        "wigner_gaussian_at": lambda: wigner_gaussian_at(state, np.zeros(2)),
        "subtract_photon": lambda: subtract_photon(state, sel),
        "SubtractedState": lambda: SubtractedState(state, sel, 1.0, np.zeros(2),
                                                   np.zeros((2, 2)), 1.0),
        "GridSpec.for_state": lambda: GridSpec.for_state(state),
        "gaussian_state_to_fock": lambda: gaussian_state_to_fock(state),
        "mode_ratio_table": lambda: mode_ratio_table(state),
        "purification_conditions": lambda: purification_conditions(rows),
        "zero_displacement_ratio_bound": lambda: zero_displacement_ratio_bound(rows),
    }


def test_single_state_functions_refuse_stacks():
    # N = 2m: without the shared check subtract_photon would broadcast silently
    stack = random_state(1, SEEDS[:2])
    sel = ModeSelector.for_mode(0, 1)
    rows = extract_bogoliubov(stack, sel)
    calls = single_state_calls(stack, rows, sel, phase_rotation(0.3, 0, 1))
    for name, call in calls.items():
        refusal = rf"^{re.escape(name)} takes a single \w+, not a stack"
        with pytest.raises(ValueError, match=refusal):
            call()
    single = stack[0]
    stacked_transform = SymplecticTransform(np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError, match="not a stack"):
        apply_symplectic(single, stacked_transform)
    # one state and one row go through (the Fock oracle is left out: slow)
    for name, call in single_state_calls(single, rows[0], sel,
                                         phase_rotation(0.3, 0, 1)).items():
        if name not in ("gaussian_state_to_fock", "zero_displacement_ratio_bound"):
            call()


def test_refusal_table_covers_every_single_state_function():
    """Every public function whose parameters name a GaussianState or a
    BogoliubovRow is in the refusal table or takes stacks."""
    batched = {"extract_bogoliubov", "relative_purity_closed_form"}
    found = set()
    for module in (gaussian, subtraction, bounds, scenarios, fock):
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or func.__module__ != module.__name__:
                continue
            annotations = [str(p.annotation) for p in inspect.signature(func).parameters.values()]
            if any(a in ("GaussianState", "BogoliubovRow") for a in annotations):
                found.add(name)
    stack = random_state(1, SEEDS[:2])
    sel = ModeSelector.for_mode(0, 1)
    table = single_state_calls(stack, extract_bogoliubov(stack, sel), sel, None)
    assert len(found) > 10 and found - batched <= set(table)
