"""Purification conditions and upper bounds on the purity gain.

Photon subtraction can raise the purity of a Gaussian state, but never to
1.2 times the original value.  This module evaluates the necessary and
sufficient purification conditions for a given mode-transform row, the
reachable envelope ``bound_f`` obtained by aligning all angle factors, its
maximum over the displacement, and the monotone bound in the noise-balance
variable zeta.  Every one of them reads the four aggregates x, y, z and cross
that a ``BogoliubovRow`` sums when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InconsistentRowError, SubtractionFromVacuumError
from .gaussian import require_single
from .subtraction import VACUUM_THRESHOLD, BogoliubovRow, relative_purity_closed_form

#: displacement-squared below this counts as undisplaced
ZERO_DISPLACEMENT_SQ = 1e-24


@dataclass(frozen=True)
class BoundReport:
    """Verdicts and bounds for one subtraction row.

    The aggregates x, y, z and cross they derive from are fields of the row
    (see ``BogoliubovRow``).

    Attributes:
        alpha: squared displacement magnitude |alpha_g|^2.
        zeta: x / y when y > 0 and x > 0, else None (the zeta bound is then
            evaluated with |x|; see tests).
        condition_direction: sum k~_i l~_i (n_i^2-1)/(2 n_i)
            cos(2 phi - phi_i - theta_i); purification requires it positive.
        threshold_alpha_sq: displacement-squared threshold beyond which the
            purity gain is >= 1, or None when the direction term is not
            positive.
        f_alpha: envelope value at this row's displacement.
        f_max: maximum of the envelope over displacement.
        purifiable: verdict of the two purification conditions.
    """

    alpha: float
    zeta: Optional[float]
    condition_direction: float
    threshold_alpha_sq: Optional[float]
    f_alpha: float
    f_max: float
    purifiable: bool


def _require_finite(*values: float):
    if not all(map(math.isfinite, values)):
        raise ValueError(f"aggregates must be finite, got {values}")


def bound_f(x: float, y: float, z: float, alpha: float) -> float:
    """Reachable upper envelope of the relative purity at displacement^2 = alpha.

    f = 1 + (x^2 - y^2 + z^2/2 + 2 alpha z) / (2 (y + alpha)^2).
    """
    _require_finite(x, y, z, alpha)
    denom = y + alpha
    if denom <= 0.0:
        raise ZeroDivisionError("y + alpha must be positive")
    return float(1.0 + 0.5 * (x * x - y * y + 0.5 * z * z + 2.0 * alpha * z) / denom**2)


def bound_f_max(x: float, y: float, z: float) -> tuple[float, float]:
    """Location and value of the maximum of the envelope over displacement.

    Returns (alpha_star, f_max) with
    alpha_star = (y^2 - x^2 + y z - z^2/2) / z and
    f_max = 1 + z^2 / (2 (y^2 - x^2 + 2 y z - z^2/2)).
    """
    _require_finite(x, y, z)
    if z <= 0.0:
        raise ValueError("no interior maximum without a cross aggregate (z <= 0)")
    disc = y * y - x * x + 2.0 * y * z - 0.5 * z * z
    if disc <= 0.0:
        raise ValueError(f"inadmissible aggregates: y^2-x^2+2yz-z^2/2 = {disc}")
    alpha_star = (y * y - x * x + y * z - 0.5 * z * z) / z
    f_max = 1.0 + z * z / (2.0 * disc)
    return float(alpha_star), float(f_max)


def zeta_bound(zeta: float) -> float:
    """Upper bound 1 + 1 / (5 + 8 zeta / (1 - zeta)) for zeta in (0, 1].

    Strictly decreasing; approaches 1.2 (exclusive) as zeta -> 0+ and
    equals 1 at zeta = 1.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if zeta == 1.0:
        return 1.0
    return float(1.0 + 1.0 / (5.0 + 8.0 * zeta / (1.0 - zeta)))


def purification_conditions(row: BogoliubovRow) -> BoundReport:
    """Evaluate the purification conditions and bounds for one row.

    The verdict is positive iff (i) the displacement direction is aligned
    well enough that the cross term helps
    (``condition_direction > 0``) and (ii) the squared displacement reaches
    ``threshold_alpha_sq``.  Undisplaced rows are never purifiable (the
    ratio then never exceeds 1).  When the direction term vanishes the
    threshold is undefined and the verdict falls back to the exact boundary
    check (gain numerator >= 0, i.e. ratio = 1).
    """
    require_single(row, "purification_conditions")
    x, y, z, cross, a2 = row.x, row.y, row.z, row.cross, row.alpha_sq
    if y + a2 <= VACUUM_THRESHOLD:
        raise SubtractionFromVacuumError("row describes an empty mode")
    phi = np.angle(row.alpha_g) if a2 > ZERO_DISPLACEMENT_SQ else 0.0
    direction = float(np.real(np.exp(2j * phi) * np.conj(cross)))
    # gain numerator: ratio >= 1  iff  x^2 + 2|cross|^2 - y^2 + 4 a2 dir >= 0
    gain = x**2 + 2.0 * row.cross_sq - y**2 + 4.0 * a2 * direction
    if a2 <= ZERO_DISPLACEMENT_SQ:
        threshold = None
        purifiable = False
    elif direction > 0.0:
        threshold = (y**2 - x**2 - 2.0 * row.cross_sq) / (4.0 * direction)
        purifiable = a2 >= threshold - 1e-12 * max(abs(threshold), 1.0)
    else:
        threshold = None
        purifiable = gain >= -1e-12 * max(y**2, 1.0)
    f_alpha = bound_f(x, y, z, a2)
    if z > 1e-15 * max(y, 1.0):
        _, f_max = bound_f_max(x, y, z)
    else:
        f_max = 1.0  # supremum of f over alpha when the cross aggregate vanishes
    zeta = x / y if (y > 0.0 and x > 0.0) else None
    return BoundReport(alpha=a2, zeta=zeta, condition_direction=direction,
                       threshold_alpha_sq=threshold, f_alpha=f_alpha, f_max=f_max,
                       purifiable=bool(purifiable))


def zero_displacement_ratio_bound(row: BogoliubovRow) -> float:
    """Relative purity of an undisplaced row; provably in [1/2, 1].

    Raises if the row is displaced, and treats a value outside the proven
    interval as an internal inconsistency.
    """
    require_single(row, "zero_displacement_ratio_bound")
    if abs(row.alpha_g) >= 1e-12:
        raise ValueError("row is displaced; the undisplaced bound does not apply")
    ratio = relative_purity_closed_form(row)
    if not 0.5 - 1e-10 <= ratio <= 1.0 + 1e-10:
        raise InconsistentRowError(
            f"undisplaced ratio {ratio} escaped the proven interval [1/2, 1]"
        )
    return ratio
