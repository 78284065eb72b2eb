"""Grid-quadrature oracle for Wigner-integral purities and moments.

Brute-force numerical evaluation of the defining phase-space integrals for
one- and two-mode states.  Deliberately independent of the closed-form
machinery: it only ever sees a pointwise-evaluatable Wigner function.
Composite Simpson rule on a tensor grid, evaluated in chunks of whole
last-axis rows with one Wigner call per chunk; the error estimate comes from
comparing against the stride-2 subgrid of the same samples (Richardson).

Two entry points, one grid pass each: ``purity_by_grid`` for the purity and
``variance_by_grid`` for the means and variances of one mode's x and p.
Both reject a grid whose total probability is off unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridExtentError
from .gaussian import GaussianState, require_single
from .subtraction import SubtractedState, moments_subtracted

#: relative tolerance on the total-probability check of every evaluated grid
NORMALIZATION_TOL = 1e-5

#: most grid points handed to one Wigner call: the grid is evaluated in
#: chunks of whole last-axis rows under this budget (a one-mode 401 x 401
#: grid takes three calls).  Larger chunks leave the cache and cost more
#: per point.
GRID_CHUNK_POINTS = 2**16


@dataclass(frozen=True)
class GridSpec:
    """Tensor-product grid for phase-space integration.

    One axis per quadrature.  Each axis spans
    ``center +- half_width_sigmas * sigma`` with ``points_per_axis`` nodes;
    per-axis standard deviations keep strongly anisotropic states resolved.
    ``points_per_axis - 1`` must be divisible by 4 so the stride-2 subgrid
    is itself a valid Simpson grid.
    """

    half_width_sigmas: float = 8.0
    points_per_axis: int = 401
    center: Optional[np.ndarray] = None
    axis_sigmas: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.half_width_sigmas < 5.0:
            raise ValueError("grid must extend at least 5 standard deviations")
        n = self.points_per_axis
        if n < 5 or (n - 1) % 4:
            raise ValueError("points_per_axis must be odd with (n - 1) % 4 == 0")

    @classmethod
    def for_state(cls, state: GaussianState, **kwargs) -> "GridSpec":
        require_single(state, "GridSpec.for_state")
        return cls(
            center=np.array(state.displacement),
            axis_sigmas=np.sqrt(np.diag(state.covariance)),
            **kwargs,
        )

    @classmethod
    def for_subtracted(cls, sub: SubtractedState, **kwargs) -> "GridSpec":
        report = moments_subtracted(sub)
        sigmas = np.sqrt(
            np.maximum(np.diag(report.covariance), np.diag(sub.base.covariance))
        )
        return cls(center=np.array(report.mean), axis_sigmas=sigmas, **kwargs)

    def axes(self, num_modes: int) -> list[np.ndarray]:
        if self.center is None or self.axis_sigmas is None:
            raise ValueError("grid needs explicit center and axis_sigmas")
        center = np.asarray(self.center, dtype=float)
        sigmas = np.asarray(self.axis_sigmas, dtype=float)
        if center.size != 2 * num_modes or sigmas.size != 2 * num_modes:
            raise ValueError("grid vectors must have one entry per quadrature")
        half = self.half_width_sigmas * np.maximum(sigmas, 1e-6)
        return [
            np.linspace(center[i] - half[i], center[i] + half[i], self.points_per_axis)
            for i in range(2 * num_modes)
        ]


def _simpson_weights(n: int, step: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _fine_coarse_weights(axis: np.ndarray) -> np.ndarray:
    """Simpson weights of one axis as columns (fine, coarse).

    The coarse column is the Simpson rule of the stride-2 subgrid, placed on
    the even nodes and zero on the odd ones, so both sums contract the same
    contiguous samples in one pass.
    """
    step = axis[1] - axis[0]
    coarse = np.zeros(axis.size)
    coarse[::2] = _simpson_weights((axis.size + 1) // 2, 2.0 * step)
    return np.stack([_simpson_weights(axis.size, step), coarse], axis=-1)


def _grid_sums(
    wigner: Callable, axes: list[np.ndarray], moment_axes: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Simpson sums of W, W^2 and requested coordinate moments of W.

    The grid is a stack of rows along its last axis, one row per index of
    the leading axes (row-major).  It is evaluated in chunks of whole rows,
    at most ``GRID_CHUNK_POINTS`` points per Wigner call, so two-mode (4-D)
    grids never materialize in memory.  Returns (fine, coarse) integral
    vectors ordered [norm, square, (first, second moment) per requested
    axis]; the coarse value uses the stride-2 subgrid of the same samples.
    """
    dim = len(axes)
    weights = [_fine_coarse_weights(a) for a in axes]
    lead_shape = tuple(a.size for a in axes[:-1])
    total_rows = math.prod(lead_shape)
    chunk_rows = max(1, GRID_CHUNK_POINTS // axes[-1].size)
    sums = np.zeros((2 + 2 * len(moment_axes), 2))
    for start in range(0, total_rows, chunk_rows):
        index = np.unravel_index(
            np.arange(start, min(start + chunk_rows, total_rows)), lead_shape
        )
        coords = [a[i][:, None] for a, i in zip(axes, index)] + [axes[-1]]
        pts = np.empty((index[0].size, axes[-1].size, dim))
        for k, x in enumerate(coords):
            pts[..., k] = x
        vals = np.asarray(wigner(pts.reshape(-1, dim))).reshape(pts.shape[:-1])
        integrands = [vals, vals * vals]
        for ax in moment_axes:
            integrands += [vals * coords[ax], vals * coords[ax] * coords[ax]]
        row_weights = np.prod([w[i] for w, i in zip(weights, index)], axis=0)
        for t, arr in enumerate(integrands):
            sums[t] += np.sum((arr @ weights[-1]) * row_weights, axis=0)
    return sums[:, 0], sums[:, 1]


def _check_modes(num_modes: int):
    if num_modes not in (1, 2):
        raise ValueError(
            "grid quadrature supports 1 or 2 modes; use the number-basis "
            "oracle beyond that"
        )


def _check_normalization(total: float):
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise GridExtentError(
            f"grid captures total probability {total:.8f}; extend or re-center"
        )


def purity_by_grid(
    wigner: Callable, num_modes: int, grid: GridSpec
) -> tuple[float, float]:
    """(4 pi)^m integral of W^2, with a Richardson error estimate.

    Raises GridExtentError when the grid misses probability
    (integral of W off unity beyond 1e-5), which signals an unusable result
    rather than silently returning it.
    """
    _check_modes(num_modes)
    fine, coarse = _grid_sums(wigner, grid.axes(num_modes))
    _check_normalization(fine[0])
    scale = (4.0 * np.pi) ** num_modes
    value = scale * fine[1]
    error = abs(value - scale * coarse[1]) / 15.0
    return float(value), float(error)


def variance_by_grid(
    wigner: Callable, mode: int, num_modes: int, grid: GridSpec
) -> dict:
    """Means and variances of x and p for one mode, in one grid pass.

    Returns the keys of ``fock.quadrature_moments_fock``: ``mean_x``,
    ``mean_p``, ``var_x`` and ``var_p``.  The first moments are subtracted,
    so the grid center does not need to match the state mean exactly.
    """
    _check_modes(num_modes)
    if not 0 <= mode < num_modes:
        raise ValueError(f"mode {mode} out of range")
    fine, _ = _grid_sums(
        wigner, grid.axes(num_modes), moment_axes=(mode, num_modes + mode)
    )
    _check_normalization(fine[0])
    mean_x, second_x, mean_p, second_p = fine[2:]
    return {
        "mean_x": float(mean_x),
        "mean_p": float(mean_p),
        "var_x": float(second_x - mean_x * mean_x),
        "var_p": float(second_p - mean_p * mean_p),
    }
