"""The verify checks: the corpus they share, and their single-state routes."""

import numpy as np

from pspurity import (
    ModeSelector,
    extract_bogoliubov,
    purity_gaussian,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
)
from pspurity.crosscheck import _single_mode_corpus, check_closed_form_vs_moments
from pspurity.scenarios import random_state


def _per_seed_corpus(count=20, seed0=1000):
    return [random_state(1, seed0 + i, n_max=15.0, r_max=1.2, d_max=6.0) for i in range(count)]


def test_corpus_stack_equals_per_seed_draws():
    stack = _single_mode_corpus(20)
    alone = _per_seed_corpus()
    assert len(stack.covariance) == len(alone)
    for row, state in zip(stack, alone):
        assert row.covariance.tobytes() == state.covariance.tobytes()
        assert row.displacement.tobytes() == state.displacement.tobytes()
        for name in ("_chol", "_nu", "_vecs"):
            assert getattr(row, name).tobytes() == getattr(state, name).tobytes(), name


def test_moment_check_equals_a_per_seed_loop():
    """The stacked extraction gives each seed's own ratio, so the check's
    worst deviation is the one a state-by-state loop finds, bit for bit."""
    sel = ModeSelector.for_mode(0, 1)
    worst = 0.0
    for state in _per_seed_corpus():
        ratio = relative_purity_closed_form(extract_bogoliubov(state, sel))
        mu_sub = purity_subtracted(subtract_photon(state, sel))
        worst = max(worst, abs(ratio * purity_gaussian(state) - mu_sub))
    assert np.float64(check_closed_form_vs_moments().deviation).tobytes() == \
        np.float64(worst).tobytes()
