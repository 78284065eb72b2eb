"""Gauss–Hermite oracle for Wigner-integral purities and moments.

Numerical evaluation of the defining phase-space integrals for states of one
to four modes.  Deliberately independent of the closed-form machinery: it
only ever sees a pointwise-evaluatable Wigner function and the Gaussian frame
N(mean, V) of the base Gaussian state, ``GridSpec.for_state(sub.base)``.

The rule is exact, not converged.  A photon-subtracted Wigner function is
the base Gaussian times a quadratic, W = G_V P_2, so W^2 = G_{V/2} P_4 up to
a constant: every integrand below is a Gaussian times a polynomial of degree
at most 4.  A tensor Gauss–Hermite rule with 3 nodes per axis (exact to
degree 5 per axis), whitened by the Cholesky factor of the frame covariance,
integrates such a product exactly:

* purity: the nodes of N(mean, V/2), where W^2 / pdf is P_4;
* normalization and moments: the nodes of N(mean, V), where W / pdf is P_2
  and x^2 W / pdf is x^2 P_2.

``purity_by_grid`` also reruns its rule with 5 nodes per axis and returns the
difference as an exactness witness: it stays at rounding unless the
integrand is not a Gaussian times a quartic in the given frame (a wrong frame
or a Wigner function of another form).  Both entry points reject a frame in
which W does not integrate to one, or to a NaN; ``GridSpec`` refuses a
non-finite frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, ClassVar

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import GridExtentError
from .gaussian import GaussianState, _check_mode, _is_integer, _real_array, require_single

#: relative tolerance on the total-probability check of every frame
NORMALIZATION_TOL = 1e-5


@lru_cache(maxsize=None)
def _line_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w exp(z^2 / 2) of the n-point Gauss-Hermite rule
    of weight exp(-z^2 / 2), read-only: one build per n, shared by every
    frame.  The factor exp(z^2 / 2) divides the rule's weight back out of f."""
    z, w = hermegauss(n)
    w = w * np.exp(0.5 * z * z)
    z.flags.writeable = w.flags.writeable = False
    return z, w


@lru_cache(maxsize=None)
def _tensor_rule(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Whitened nodes (n^dim x dim) and product weights of the n-point
    tensor rule in dim coordinates, read-only: one build per (n, dim), which
    every frame scales by its own Cholesky factor.  The largest the oracle
    uses, n = 5 at four modes, keeps 28 MB."""
    z, w = _line_rule(n)
    index = np.indices((n,) * dim).reshape(dim, -1).T
    nodes, weights = z[index], np.prod(w[index], axis=1)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class GridSpec:
    """Gaussian frame N(center, covariance) that places the quadrature nodes.

    One entry per quadrature, ordered like the state's phase-space vectors.
    """

    center: np.ndarray
    covariance: np.ndarray

    #: nodes per axis of the rule every returned value comes from
    points_per_axis: ClassVar[int] = 3

    def __post_init__(self):
        center = _real_array(self.center).copy()
        cov = _real_array(self.covariance).copy()
        if center.ndim != 1 or cov.shape != (center.size, center.size):
            raise ValueError(
                f"frame needs a k-vector and a k x k covariance, got "
                f"{center.shape} and {cov.shape}"
            )
        if not (np.isfinite(center).all() and np.isfinite(cov).all()):
            raise ValueError("frame center and covariance must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "covariance", cov)

    @classmethod
    def for_state(cls, state: GaussianState) -> "GridSpec":
        require_single(state, "GridSpec.for_state")
        return cls(state.displacement, state.covariance)

    def rule(self, num_modes: int, scale: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the n-point tensor rule of N(center, scale V).

        ``weights @ f(nodes)`` is the integral of f, exact when f / pdf is a
        polynomial of degree at most 2n - 1 in each whitened coordinate.
        """
        dim = 2 * num_modes
        if self.center.size != dim:
            raise ValueError(
                f"frame has {self.center.size} entries, {num_modes} mode(s) need {dim}"
            )
        try:
            chol = np.linalg.cholesky(scale * self.covariance)
        except np.linalg.LinAlgError as exc:
            raise ValueError("frame covariance is not positive definite") from exc
        z, w = _tensor_rule(n, dim)
        return self.center + z @ chol.T, w * np.prod(np.diag(chol))


def _check_modes(num_modes: int):
    # the n = 5 witness evaluates 5^(2m) nodes: 390,625 at m = 4
    if not _is_integer(num_modes) or not 1 <= num_modes <= 4:
        raise ValueError(
            f"num_modes {num_modes!r}: Gauss-Hermite quadrature supports 1 to 4 "
            "modes; use the number-basis oracle beyond that"
        )


def _weighted_wigner(wigner: Callable, num_modes: int, grid: GridSpec):
    """Nodes of the 3-point rule of N(center, V) and weight * W at them,
    after checking that W integrates to one in that frame."""
    nodes, weights = grid.rule(num_modes, 1.0, grid.points_per_axis)
    weighted = weights * np.asarray(wigner(nodes))
    total = weighted.sum()
    if not abs(total - 1.0) <= NORMALIZATION_TOL:  # a NaN total fails too
        raise GridExtentError(
            f"frame captures total probability {total:.8f}; use the base "
            "state's mean and covariance"
        )
    return nodes, weighted


def purity_by_grid(
    wigner: Callable, num_modes: int, grid: GridSpec
) -> tuple[float, float]:
    """(4 pi)^m integral of W^2, with the n = 3 / n = 5 exactness witness.

    Raises GridExtentError when W does not integrate to one in the frame
    (beyond 1e-5), which signals an unusable result rather than silently
    returning it.
    """
    _check_modes(num_modes)
    _weighted_wigner(wigner, num_modes, grid)
    sums = []
    for n in (grid.points_per_axis, 5):
        nodes, weights = grid.rule(num_modes, 0.5, n)
        sums.append(weights @ np.asarray(wigner(nodes)) ** 2)
    scale = (4.0 * np.pi) ** num_modes
    return float(scale * sums[0]), float(scale * abs(sums[0] - sums[1]))


def variance_by_grid(
    wigner: Callable, mode: int, num_modes: int, grid: GridSpec
) -> dict:
    """Means and variances of x and p for one mode.

    Returns the keys of ``fock.quadrature_moments_fock``: ``mean_x``,
    ``mean_p``, ``var_x`` and ``var_p``.
    """
    _check_modes(num_modes)
    _check_mode(mode, num_modes)
    nodes, weighted = _weighted_wigner(wigner, num_modes, grid)
    moments = {}
    for name, axis in (("x", mode), ("p", num_modes + mode)):
        coord = nodes[:, axis]
        mean = weighted @ coord
        moments[f"mean_{name}"] = float(mean)
        moments[f"var_{name}"] = float(weighted @ (coord * coord) - mean * mean)
    return moments
