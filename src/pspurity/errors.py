"""Exception types raised by the library."""


class PspurityError(Exception):
    """Base of every exception type below."""


class UnphysicalStateError(PspurityError, ValueError):
    """Covariance matrix violates the uncertainty principle or is malformed."""


class SubtractionFromVacuumError(PspurityError, ValueError):
    """Photon subtraction attempted on a mode with (numerically) zero photons."""


class InconsistentRowError(PspurityError, ValueError):
    """Mode-transform coefficients violate the Bogoliubov normalization."""


class NumericDegenerateError(PspurityError, ValueError):
    """A determinant or denominator underflowed past the point of usability."""


class TruncationInsufficientError(PspurityError, RuntimeError):
    """Number-basis cutoff too small: leaked population exceeds the tolerance."""


class GridExtentError(PspurityError, RuntimeError):
    """W does not integrate to one in the quadrature frame; use the base
    state's mean and covariance."""
