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


ROW_FIELDS = ("alpha_g", "k", "l", "noise", "x", "y", "z", "cross", "defect", "alpha_sq",
              "cross_sq")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_row(a, b) -> bool:
    """Two Bogoliubov rows hold the same bits and the same Python types in every field."""
    return all(type(getattr(a, name)) is type(getattr(b, name))
               and same_bits(getattr(a, name), getattr(b, name)) for name in ROW_FIELDS)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_stack_rows_equal_single_calls_bitwise(m, d_max):
    states = random_state(m, SEEDS, d_max=d_max)
    selectors = [ModeSelector.for_mode(m - 1, m),
                 ModeSelector(np.arange(1.0, 2 * m + 1))]
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
            assert type(row.alpha_g) is complex and same_row(row, single_row)
            assert type(row.x) is float and type(row.cross) is complex
            assert type(row.alpha_sq) is float and type(row.cross_sq) is float
            # hypot, as Python's abs(complex): NumPy's complex abs rounds otherwise
            assert row.alpha_sq == abs(row.alpha_g) * abs(row.alpha_g)
            assert row.cross_sq == abs(row.cross) * abs(row.cross)
            ratio = relative_purity_closed_form(single_row)
            assert type(ratio) is float
            assert same_bits(stacked_ratios[i], ratio)
            assert relative_purity_closed_form(row) == ratio


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_stacked_selector_rows_equal_single_calls_bitwise(m, d_max):
    """One selector per state: each row is its state's extraction with its
    own selector alone, for computational modes and general directions."""
    states = random_state(m, SEEDS, d_max=d_max)
    modes = [seed % m for seed in SEEDS]
    directions = np.random.default_rng(m).standard_normal((len(SEEDS), 2 * m))
    directions[0] = np.arange(1.0, 2 * m + 1)
    directions[1] *= 1e-3
    stacks = {"for_mode": (ModeSelector.for_mode(modes, m),
                           [ModeSelector.for_mode(g, m) for g in modes]),
              "directions": (ModeSelector(directions),
                             [ModeSelector(d) for d in directions])}
    for selectors, alone in stacks.values():
        assert selectors.stacked and not alone[0].stacked
        assert selectors.basis_x.shape == selectors.basis_p.shape == (len(SEEDS), 2 * m)
        rows = extract_bogoliubov(states, selectors)
        for i, sel in enumerate(alone):
            assert same_bits(selectors[i].basis_x, sel.basis_x)
            assert same_bits(selectors[i].basis_p, sel.basis_p)
            assert same_row(rows[i], extract_bogoliubov(states[i], sel))


def test_stacked_selector_raises_the_error_of_its_first_bad_row():
    # row 1 fails the norm check, row 2 the finite check that runs first
    directions = np.array([[1.0, 0.0], [0.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError) as alone:
        ModeSelector(directions[1])
    with pytest.raises(ValueError) as stacked:
        ModeSelector(directions)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value) == "direction must have a finite nonzero norm, got 0.0"
    with pytest.raises(ValueError, match="^direction must be finite$"):
        ModeSelector(directions[[0, 2, 1]])
    # a norm past float64 is refused, with no overflow warning
    with pytest.raises(ValueError, match="nonzero norm, got inf"):
        ModeSelector(np.array([[1.0, 0.0], [1e200, 0.0]]))
    with pytest.raises(ValueError, match="2m-vector"):
        ModeSelector(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="^mode 2 out of range for 2 modes$"):
        ModeSelector.for_mode([0, 2, 5], 2)
    for modes in ([0, True], [0, 1.0], [[0, 1]]):
        with pytest.raises(ValueError, match="out of range"):
            ModeSelector.for_mode(modes, 2)


def test_stacked_selectors_need_a_stack_of_their_length(monkeypatch):
    states = random_state(1, SEEDS[:3])
    selectors = ModeSelector.for_mode([0, 0, 0], 1)
    with pytest.raises(ValueError, match="^mean_photon takes a single ModeSelector, not a stack"):
        mean_photon(states[0], selectors)
    for call in (extract_bogoliubov, subtract_photon):
        with pytest.raises(ValueError, match="^a stack of 2 selectors needs a stack of as many "
                                             "states, got 3 states$"):
            call(states, ModeSelector.for_mode([0, 0], 1))
        with pytest.raises(ValueError, match="got a single state$"):
            call(states[0], ModeSelector.for_mode([0], 1))
        with pytest.raises(ValueError, match="selector dimension"):
            call(states, ModeSelector.for_mode([0, 1, 0], 2))
    # a failing stack replays each state with its own selector: here every
    # state passes alone, so the stack's own error is raised
    real = subtraction.williamson

    def fail_on_stacks(state):
        if state.stacked:
            raise NumericDegenerateError("injected")
        return real(state)

    monkeypatch.setattr(subtraction, "williamson", fail_on_stacks)
    with pytest.raises(NumericDegenerateError, match="^injected$"):
        extract_bogoliubov(states, selectors)


def same_fields(a, b) -> bool:
    """Two objects of one stacked class hold the same bits in every field."""
    if type(a) is not type(b):
        return False
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        nested = hasattr(x, "__dataclass_fields__")
        if not (same_fields(x, y) if nested else type(x) is type(y) and same_bits(x, y)):
            return False
    return True


def test_iterating_a_stack_gives_its_rows_bitwise():
    states = random_state(3, SEEDS[:7])
    stacks = {
        "GaussianState": states,
        "SymplecticTransform": williamson(states).symplectic,
        "WilliamsonDecomposition": williamson(states),
        "BogoliubovRow": extract_bogoliubov(states, ModeSelector.for_mode([0, 1, 2] * 2 + [1],
                                                                           3)),
        "ModeSelector": ModeSelector(np.arange(1.0, 43.0).reshape(7, 6)),
    }
    for name, stack in stacks.items():
        rows = list(stack)
        assert len(rows) == 7, name
        assert all(same_fields(row, stack[i]) for i, row in enumerate(rows)), name
        with pytest.raises(TypeError, match="has no rows"):
            iter(rows[0])
    assert type(rows[0].basis_x) is np.ndarray and not rows[0].basis_x.flags.writeable


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


def alignment_by_parts(row):
    """Re(conj(alpha_g)^2 cross) as the closed form spelled it out before
    the row carried it."""
    ar, ai, cross = row.alpha_g.real, row.alpha_g.imag, row.cross
    return (ar * ar - ai * ai) * cross.real + 2.0 * (ar * ai) * cross.imag


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_row_alignment_term_is_the_closed_forms_expression_bitwise(m, d_max):
    """``align`` holds the closed form's own expression, bit for bit, on a
    stack, on each of its rows and on each single extraction, so the closed
    form that reads it keeps its bits."""
    states = random_state(m, SEEDS, d_max=d_max)
    rows = extract_bogoliubov(states, ModeSelector.for_mode(m - 1, m))
    assert same_bits(rows.align, alignment_by_parts(rows))
    for i, row in enumerate(rows):
        alone = extract_bogoliubov(states[i], ModeSelector.for_mode(m - 1, m))
        for one in (row, rows[i], alone):
            assert type(one.align) is float
            assert same_bits(one.align, alignment_by_parts(one))
            assert same_bits(one.align, rows.align[i])


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


def test_single_mode_family_raises_its_first_failing_entry_for_any_check():
    """Entry 2 fails only the covariance's range check, entry 5 the
    thermal-factor check: the stack raises entry 2's error, as every
    stacked builder does, not the first error of a check run stack-wide."""
    n_g, s_db = [1.0, 1.0, 1.0, 1.0, 1.0, 0.5], [0.0, 0.0, 400.0, 0.0, 0.0, 0.0]
    with pytest.raises(NumericDegenerateError) as alone:
        single_mode_family(n_g[2], s_db[2], 0.0, 0.0)
    with pytest.raises(NumericDegenerateError) as stacked:
        single_mode_family(n_g, s_db, 0.0, 0.0)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(ValueError, match=r"^thermal factor must be >= 1, got 0\.5$"):
        single_mode_family(n_g[3:], s_db[3:], 0.0, 0.0)


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


def checking_constructors() -> dict:
    """Every checking constructor as (build from one array, a valid array,
    the error type it raises), keyed by class and the field it takes."""
    sub = subtract_photon(GaussianState(np.diag([2.0, 1.0]), np.array([0.5, 0.0])),
                          ModeSelector.for_mode(0, 1))
    fields = dict(base=sub.base, c0=sub.c0, c1=sub.c1, c2=sub.c2,
                  normalization=sub.normalization, d0=sub.d0, d1=sub.d1)

    def subtracted(name):
        return lambda value: SubtractedState(**{**fields, name: value})

    table = {
        "GaussianState.covariance": (lambda v: GaussianState(v, np.zeros(2)),
                                     np.diag([2.0, 1.0]), UnphysicalStateError),
        "GaussianState.displacement": (lambda v: GaussianState(np.eye(2), v), np.ones(2),
                                       UnphysicalStateError),
        "SymplecticTransform": (SymplecticTransform, np.eye(2), ValueError),
        "ModeSelector": (ModeSelector, np.array([1.0, 0.0]), ValueError),
        "WilliamsonDecomposition": (
            lambda v: gaussian.WilliamsonDecomposition(SymplecticTransform(np.eye(2)), v),
            np.array([2.0]), ValueError),
        "BogoliubovRow.noise": (
            lambda v: subtraction.BogoliubovRow(0.5 + 0j, np.zeros(1), np.ones(1), v),
            np.array([2.0]), ValueError),
        "GridSpec.center": (lambda v: GridSpec(v, np.eye(2)), np.zeros(2), ValueError),
        "GridSpec.covariance": (lambda v: GridSpec(np.zeros(2), v), np.eye(2), ValueError),
        "FockState": (lambda v: fock.FockState(v, fock.TruncationSpec((2, 2))),
                      np.full((2, 2), 0.5 + 0j), ValueError),
    }
    for name in ("c0", "c1", "c2", "d0", "d1"):
        table[f"SubtractedState.{name}"] = (subtracted(name), np.array(fields[name]), ValueError)
    return table


@pytest.mark.parametrize("name, entry", [
    (name, entry) for name in checking_constructors() for entry in ("nan", "inf", "complex")
    if (name, entry) != ("FockState", "complex")])  # Fock amplitudes are complex
def test_checking_constructors_refuse_non_finite_and_complex_entries(name, entry):
    """A NaN, an inf or a complex entry in any array a checking constructor
    takes raises that constructor's ValueError: no NaN compares its way past
    a check, and no imaginary part is dropped."""
    build, good, error = checking_constructors()[name]
    build(good)
    bad = good.astype(complex if entry == "complex" else good.dtype)
    bad.flat[0] += {"nan": np.nan, "inf": np.inf, "complex": 0.5j}[entry]
    with pytest.raises(error):
        build(bad)


NON_REAL_DTYPES = {
    "numeric-str": lambda good: good.astype(str),
    "word-str": lambda good: np.full(good.shape, "x"),
    "bytes": lambda good: good.astype("S32"),
    "object": lambda good: good.astype(object),
    "timedelta": lambda good: good.astype(int).astype("m8[s]"),
}


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in checking_constructors() if name != "FockState"
    for kind in NON_REAL_DTYPES])
def test_checking_constructors_refuse_every_non_real_dtype(name, kind):
    """Only bool, integer and float arrays are taken: a string or bytes
    array is not parsed, an object or time array is not cast, and each
    raises the constructor's own error type with one message, not NumPy's
    parse error."""
    build, good, error = checking_constructors()[name]
    with pytest.raises(error, match="^entries must be real numbers, got dtype "):
        build(NON_REAL_DTYPES[kind](good))


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
    # rows (l, noise): good (y = 1), empty (y = 0, undisplaced), normalization
    # defect 3; the bad rows are refused when they are built
    good, bad = (1.0, 3.0), {"empty": (1.0, 1.0), "defect": (2.0, 3.0)}
    errors = {}
    for name, (l, n) in bad.items():
        with pytest.raises(ValueError) as alone:
            subtraction.BogoliubovRow(0j, np.zeros(1), np.array([l]), np.array([n]))
        errors[name] = alone.value
    assert type(errors["empty"]) is SubtractionFromVacuumError
    assert type(errors["defect"]) is InconsistentRowError
    for order in (("empty", "defect"), ("defect", "empty")):
        rows = np.array([good, *(bad[name] for name in order), good])
        with pytest.raises(ValueError) as stacked:
            subtraction.BogoliubovRow(np.zeros(4, dtype=complex), np.zeros((4, 1)),
                                      rows[:, :1], rows[:, 1:])
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
    batched = {"extract_bogoliubov", "relative_purity_closed_form", "subtract_photon"}
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("d_max", [8.0, 0.0], ids=["displaced", "undisplaced"])
def test_moment_route_stack_rows_equal_single_calls_bitwise(m, d_max):
    """subtract_photon, purity_subtracted and moments_subtracted of a stack:
    each row is bit for bit its state's single call, with one selector for
    all and with one selector per state."""
    states = random_state(m, SEEDS, d_max=d_max)
    directions = np.random.default_rng(m).standard_normal((len(SEEDS), 2 * m))
    selectors = {"one": ModeSelector.for_mode(m - 1, m),
                 "one direction": ModeSelector(np.arange(1.0, 2 * m + 1)),
                 "for_mode": ModeSelector.for_mode([seed % m for seed in SEEDS], m),
                 "directions": ModeSelector(directions)}
    for name, sel in selectors.items():
        subs = subtract_photon(states, sel)
        purities = subtraction.purity_subtracted(subs)
        reports = subtraction.moments_subtracted(subs)
        assert subs.stacked and reports.stacked and purities.shape == (len(SEEDS),)
        assert same_fields(subs.base, states)
        for i, row in enumerate(subs):
            alone = subtract_photon(states[i], sel[i] if sel.stacked else sel)
            assert not alone.stacked and type(alone.c0) is type(alone.normalization) is float
            assert same_fields(row, alone) and same_fields(subs[i], alone), (name, i)
            purity = subtraction.purity_subtracted(alone)
            assert type(purity) is float and same_bits(purities[i], purity), (name, i)
            assert same_fields(reports[i], subtraction.moments_subtracted(alone)), (name, i)


def test_moment_route_stack_raises_the_error_of_its_first_bad_row():
    """A vacuum row and a row whose normalization squares past float64: the
    stack raises the error of whichever comes first, as that row alone."""
    good = random_state(1, SEEDS[:1], d_max=2.0)
    cov = np.repeat(good.covariance, 4, axis=0)
    disp = np.repeat(good.displacement, 4, axis=0)
    cov[1], disp[1] = np.eye(2), 0.0  # the vacuum: no photon to subtract
    disp[2] = [1e160, 0.0]  # 4<n_g> = 1e320 is inf already
    sel = ModeSelector.for_mode(0, 1)
    for order in ([0, 1, 2, 3], [0, 2, 1, 3]):
        states = GaussianState(cov[order], disp[order])
        with pytest.raises(ValueError) as alone:
            subtract_photon(states[1], sel)
        with pytest.raises(ValueError) as stacked:
            subtract_photon(states, sel)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
    assert type(stacked.value) is NumericDegenerateError
    # the constructor checks its rows in order too: row 1 empty or not finite
    # (the normalization first), row 2 asymmetric
    sub = subtract_photon(GaussianState(cov[[0, 0, 3]], disp[[0, 0, 3]]), sel)
    c2, nan_c2 = sub.c2.copy(), sub.c2.copy()
    c2[2, 0, 1] += 1.0
    nan_c2[2, 0, 1] += 1.0
    nan_c2[1, 0, 0] = np.nan
    norm = sub.normalization.copy()
    norm[1] = 0.0
    for bad_c2, bad_norm, error, message in (
            (c2, norm, SubtractionFromVacuumError, "empty mode"),
            (nan_c2, norm, SubtractionFromVacuumError, "empty mode"),
            (nan_c2, sub.normalization, ValueError, "^c0, c1, c2, d0 and d1 must be finite$"),
            (c2, sub.normalization, ValueError, "^quadratic prefactor must be symmetric$")):
        with pytest.raises(error, match=message) as info:
            SubtractedState(sub.base, sub.c0, sub.c1, bad_c2, bad_norm, d0=sub.d0, d1=sub.d1)
        assert type(info.value) is error


def test_subtracted_stacks_iterate_and_single_state_functions_refuse_them():
    states = random_state(2, SEEDS[:5], d_max=3.0)
    subs = subtract_photon(states, ModeSelector.for_mode(1, 2))
    reports = subtraction.moments_subtracted(subs)
    for stack in (subs, reports):
        rows = list(stack)
        assert len(rows) == 5 and all(same_fields(row, stack[i]) for i, row in enumerate(rows))
    assert same_fields(subs[1:3][1], subs[2])
    for call in (lambda s: subtraction.marginal_subtracted(s, [0]),
                 subtraction.subtracted_wigner_fn):
        with pytest.raises(ValueError, match=r"takes a single SubtractedState, not a stack"):
            call(subs)
        call(subs[0])
