"""Exception types raised across the package."""


class FpoptError(Exception):
    """Base class for every package-specific error."""


class InvalidMatrix(FpoptError):
    """Input is not a finite, square matrix of the required shape."""


class NotSymmetric(FpoptError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPSD(FpoptError):
    """A matrix required to be positive (semi-)definite is not."""


class EigenFailure(FpoptError):
    """The nonsymmetric eigensolver did not converge; no silent fallback."""


class TraceBudgetExceeded(FpoptError):
    """The diffusion trace exceeds the dimension budget Tr(D) <= d."""


class InvalidConstant(FpoptError):
    """A multiplicative envelope constant must be strictly greater than 1."""


class InvalidArgument(FpoptError, ValueError):
    """A rate, horizon, grid size or direction is not a usable value: a
    rate or horizon that is not positive and finite, a grid size that is
    not an integer of at least 2 or does not fit in memory, or a direction
    that is not a finite unit vector of length at least 2."""


class InvalidInterval(FpoptError):
    """A decay curve or envelope was requested on a horizon too long for the
    problem's time scale, or one over which the weighted propagator is not
    finite."""


class RateTooLarge(FpoptError):
    """The requested envelope rate exceeds the asymptotic decay; the
    envelope supremum diverges instead of being attained."""


class NotApplicable2D(FpoptError):
    """The closed-form 2D constant needs a diagonalisable 2x2 whitened drift
    whose two eigenvalues share their real part."""


class MixedEquilibria(FpoptError):
    """An operation combined coefficient pairs or schedules that do not share
    the same Gaussian equilibrium."""
