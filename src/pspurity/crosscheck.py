"""Cross-oracle verification: closed form vs prefactor moments vs grid vs Fock.

The closed form works from the Bogoliubov row of the normal-mode
decomposition; the moment route integrates the subtracted state's quadratic
prefactor against its Gaussian covariance, with no normal-mode decomposition.

Each check returns a CheckResult with the worst deviation observed and the
tolerance it must stay under.  The CLI ``verify`` command prints them; the
test suite asserts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    reduced_purity_fock,
    run_circuit_fock,
    subtract_photon_fock,
)
from .gaussian import (
    GaussianState,
    ModeSelector,
    _purity_gaussian,
    circuit_to_gaussian,
    gaussian_wigner_fn,
)
from .quadrature import GridSpec, purity_by_grid, variance_by_grid
from .scenarios import (
    random_state,
    reference_single_mode_state,
    three_mode_circuit,
    topology_search,
)
from .subtraction import (
    extract_bogoliubov,
    moments_subtracted,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    subtracted_wigner_fn,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: max deviation {self.deviation:.3e}"
            f" (tolerance {self.tolerance:.1e})"
        )


#: subtraction from the only mode of a single-mode state
_MODE_0 = ModeSelector.for_mode(0, 1)


def _single_mode_corpus(count: int, seed0: int = 1000) -> GaussianState:
    """The states of seeds seed0 .. seed0 + count - 1 as one stack; each row
    is bit for bit its own seed's draw."""
    # moderate ranges keep every grid check honest at its tolerance
    return random_state(1, range(seed0, seed0 + count), n_max=15.0, r_max=1.2, d_max=6.0)


def _corpus_ratios(count: int):
    """The corpus and its closed-form ratios, from one stacked extraction."""
    states = _single_mode_corpus(count)
    return states, relative_purity_closed_form(extract_bogoliubov(states, _MODE_0))


def check_closed_form_vs_moments(count: int = 20) -> CheckResult:
    """Closed-form ratio against the prefactor-moment purity, single-mode
    states, each route in one stacked call."""
    states, ratios = _corpus_ratios(count)
    mu_sub = purity_subtracted(subtract_photon(states, _MODE_0))
    worst = np.abs(ratios * _purity_gaussian(states.covariance) - mu_sub).max()
    return CheckResult("closed form vs moment engine", float(worst), 1e-9)


def check_closed_form_vs_grid(count: int = 20) -> CheckResult:
    """Closed-form ratio against grid-integrated purities."""
    states, ratios = _corpus_ratios(count)
    subs = subtract_photon(states, _MODE_0)
    worst = 0.0
    for state, sub, ratio in zip(states, subs, ratios.tolist()):
        mu_grid, err = purity_by_grid(
            gaussian_wigner_fn(state), 1, GridSpec.for_state(state)
        )
        mu_sub_grid, err_sub = purity_by_grid(
            subtracted_wigner_fn(sub), 1, GridSpec.for_state(sub.base)
        )
        # the rule is exact only for a Gaussian times a quartic in the
        # base frame; its witnesses, carried into the ratio, say when not
        witness = (err_sub + ratio * err) / mu_grid
        worst = max(worst, abs(ratio - mu_sub_grid / mu_grid) + witness)
    return CheckResult("closed form vs grid quadrature", worst, 1e-4)


def check_three_mode_fock(
    alpha: float = 1.6, s_db: float = 3.0, search=None
) -> CheckResult:
    """Per-mode ratio table of the matched topology: analytic vs Fock.

    ``search`` is the ``topology_search(alpha, s_db)`` result when the caller
    already holds it; otherwise the search runs here.  The Fock circuit is
    built from the same topology, alpha and s_db as the analytic table.
    """
    topology, analytic = search if search is not None else topology_search(alpha, s_db)
    if topology is None:
        return CheckResult("three-mode table vs number basis", np.inf, 1e-3)
    circuit = three_mode_circuit(topology, alpha=alpha, s_db=s_db)
    fock = run_circuit_fock(circuit)
    worst = 0.0
    before = [reduced_purity_fock(fock, [j]) for j in range(3)]
    for g in range(3):
        sub = subtract_photon_fock(fock, g)
        for j in range(3):
            fock_ratio = reduced_purity_fock(sub, [j]) / before[j]
            worst = max(worst, abs(fock_ratio - analytic[g, j]))
    return CheckResult("three-mode table vs number basis", worst, 1e-3)


def check_three_mode_global_purity() -> CheckResult:
    """Global purity must survive subtraction on the pure three-mode state."""
    state = circuit_to_gaussian(three_mode_circuit())
    # the state three times, each row subtracted on its own mode, in one call
    stack = GaussianState(np.broadcast_to(state.covariance, (3, 6, 6)),
                          np.broadcast_to(state.displacement, (3, 6)))
    mu = purity_subtracted(subtract_photon(stack, ModeSelector.for_mode([0, 1, 2], 3)))
    return CheckResult("global purity preserved", float(np.abs(mu - 1.0).max()), 1e-7)


def check_reference_state() -> CheckResult:
    """Showcase configuration: ratio 1.1967, variance suppression 0.85."""
    state = reference_single_mode_state()
    ratio = relative_purity_closed_form(extract_bogoliubov(state, _MODE_0))
    sub = subtract_photon(state, _MODE_0)
    report = moments_subtracted(sub)
    dev = max(
        abs(ratio - 1.1967) / 5e-4,
        abs(report.covariance[0, 0] / state.covariance[0, 0] - 0.85) / 0.01,
        abs(report.covariance[1, 1] / state.covariance[1, 1] - 1.0) / 1e-9,
    )
    return CheckResult("reference-state values (scaled)", dev, 1.0)


def check_reference_variances_by_grid() -> CheckResult:
    """Grid-route variance ratios for the showcase configuration."""
    state = reference_single_mode_state()
    sub = subtract_photon(state, _MODE_0)
    grid = GridSpec.for_state(sub.base)
    mom = variance_by_grid(subtracted_wigner_fn(sub), 0, 1, grid)
    dev = max(
        abs(mom["var_x"] / state.covariance[0, 0] - 0.85) / 0.01,
        abs(mom["var_p"] / state.covariance[1, 1] - 1.0) / 1e-4,
    )
    return CheckResult("reference-state variances by grid (scaled)", dev, 1.0)


def verify_all() -> list[CheckResult]:
    """The full cross-oracle suite (used by the CLI)."""
    checks = [
        check_reference_state(),
        check_closed_form_vs_moments(),
        check_closed_form_vs_grid(),
        check_reference_variances_by_grid(),
        check_three_mode_global_purity(),
        check_three_mode_fock(),
    ]
    return checks
