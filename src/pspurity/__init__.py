"""Photon subtraction on multimode Gaussian states.

Covariance-matrix representation of Gaussian states, exact phase-space
treatment of single-photon subtraction, closed-form relative purities,
purification conditions with the <1.2 gain bound, and two independent
numerical oracles (truncated number basis and grid quadrature).

``import pspurity`` loads NumPy only.  The oracle and CLI modules (``fock``,
``quadrature``, ``crosscheck``, ``scenarios``, ``cli``) load on first use,
as ``pspurity.fock`` or ``from pspurity import fock``, and need NumPy alone.
"""

import importlib

from .bounds import (
    BoundReport,
    bound_f,
    bound_f_max,
    purification_conditions,
    zero_displacement_ratio_bound,
    zeta_bound,
)
from .errors import (
    GridExtentError,
    InconsistentRowError,
    NumericDegenerateError,
    PspurityError,
    SubtractionFromVacuumError,
    TruncationInsufficientError,
    UnphysicalStateError,
)
from .gaussian import (
    GaussianState,
    ModeSelector,
    SymplecticTransform,
    WilliamsonDecomposition,
    apply_displacement,
    apply_symplectic,
    beamsplitter,
    db_to_squeezing_parameter,
    db_to_variance_factor,
    gaussian_wigner_fn,
    make_thermal,
    make_vacuum,
    mean_photon,
    phase_rotation,
    purity_gaussian,
    reduce_modes,
    single_mode_squeezer,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    williamson,
)
from .subtraction import (
    BogoliubovRow,
    MomentReport,
    SubtractedState,
    extract_bogoliubov,
    marginal_subtracted,
    moments_subtracted,
    purity_subtracted,
    relative_purity_closed_form,
    subtract_photon,
    subtracted_wigner_fn,
)

__version__ = "0.1.0"

_SUBMODULES = ("cli", "crosscheck", "fock", "quadrature", "scenarios")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
