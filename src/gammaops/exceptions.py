"""Exception types shared across the package."""


class GammaOpsError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GammaOpsError):
    """Operands have incompatible or invalid shapes."""


class NotHermitian(GammaOpsError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(GammaOpsError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class NotCommuting(GammaOpsError):
    """Two operators required to commute do not, beyond tolerance."""


class NotContraction(GammaOpsError):
    """An operator norm exceeds the contraction bound."""


class NotPure(GammaOpsError):
    """The spectral radius of P is not strictly below one."""


class SingularDenominator(GammaOpsError):
    """A scalar Moebius denominator vanishes at the requested point."""


class SingularResolvent(GammaOpsError):
    """An operator resolvent is numerically singular."""


class NotInvertible(GammaOpsError):
    """A matrix required to be positive definite is numerically singular."""


class OutsideLambdaP(GammaOpsError):
    """The evaluation point makes I - z P* numerically singular."""


class TruncationCapExceeded(GammaOpsError):
    """Automatic truncation did not reach the tail target below the hard cap."""


class NotIntertwining(GammaOpsError):
    """A map expected to intertwine two operator pairs does not."""


class TriangularizationFailure(GammaOpsError):
    """No common unitary triangularization was found within tolerance."""


class NumericalContractBreach(GammaOpsError):
    """An internal identity that must hold to rounding accuracy failed."""


class PairFileError(GammaOpsError):
    """A pair file is malformed; the message names the offending field."""
