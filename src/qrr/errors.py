"""Exception hierarchy shared by all qrr modules."""


class QrrError(Exception):
    """Base class for every error raised by this package."""


class PoleError(QrrError):
    """A q-shifted factorial in a denominator vanished."""


class NonConvergenceError(QrrError):
    """A series or product did not converge within the term budget."""


class RatioTestError(QrrError):
    """Terms became small but no decay certificate could be established."""


class DomainError(QrrError):
    """An argument lies outside the domain of the requested evaluation."""


class AnnulusError(DomainError):
    """Bilateral series argument outside its annulus of convergence."""


class SeriesMismatchError(QrrError):
    """Arithmetic between truncated series with different base or order."""


class NotUnitError(QrrError):
    """Inversion of a truncated series with zero constant term."""


class ExponentError(QrrError):
    """A q-power exponent is not representable in the series ring."""


class ValuationError(QrrError):
    """A formal product or sum would not stop at the ring order: a
    q-shifted factorial with a non-positive exponent step, or a sum whose
    term exponents do not grow."""


class SingularDeltaError(QrrError):
    """The 2x2 inversion determinant vanished at the sampled point."""


class SizeError(QrrError):
    """Enumeration request above the configured size cap."""


class UnknownIdentityError(QrrError):
    """No registry entry with the requested id."""


class UnsupportedModeError(QrrError):
    """The requested check mode is not available for this identity."""


class ConfigError(QrrError):
    """Malformed harness configuration."""


class EmptyDomainError(QrrError):
    """A parameter domain admits no sample."""


class PrecisionLossError(QrrError):
    """A fixed-point sum cancelled below the requested precision.

    ``bits``: the working bits the sum lacks; ``cancels``: those it cancels a priori.
    """

    def __init__(self, message: str, bits: int, cancels: int = 0):
        super().__init__(message)
        self.bits, self.cancels = bits, cancels
