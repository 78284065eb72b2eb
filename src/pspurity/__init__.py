"""Photon subtraction on multimode Gaussian states.

Covariance-matrix representation of Gaussian states, exact phase-space
treatment of single-photon subtraction, closed-form relative purities,
purification conditions with the <1.2 gain bound, and two independent
numerical oracles (truncated number basis and grid quadrature).
"""

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
    symplectic_gate,
    two_mode_squeezer,
    wigner_gaussian_at,
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
    relative_purity_subtracted,
    subtract_photon,
    subtracted_wigner_fn,
    wigner_subtracted_at,
)

__version__ = "0.1.0"
