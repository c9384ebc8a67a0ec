"""qrr: exact and arbitrary-precision q-series computations with an
identity-verification harness.

The numeric layer runs on mpmath at a context-controlled precision; the
exact layer is a truncated power-series ring over the rationals plus exact
polynomial families; the harness (``qrr.harness``, CLI ``qrr``) re-verifies
every registered identity by evaluating both sides independently.
"""

from .context import QContext, powq, scaled_deviation, to_mp, widening
from .errors import (AnnulusError, ConfigError, DomainError, EmptyDomainError,
                     ExponentError, NonConvergenceError, NotUnitError,
                     PoleError, PrecisionLossError, QrrError, RatioTestError,
                     SeriesMismatchError,
                     SingularDeltaError, SizeError, UnknownIdentityError,
                     UnsupportedModeError, ValuationError)
from .exactpoly import BivariatePoly, EisensteinRational, QPoly
from .formal import FormalSeries, fs_pochhammer_infinite
from .pochhammer import (QPow, infinite_product, pochhammer_finite,
                         pochhammer_infinite, pochhammer_ratio, q_binomial)
from .summation import SumOutcome, sum_bilateral, sum_series

__all__ = [
    "QContext", "powq", "scaled_deviation", "to_mp", "widening",
    "QPow", "pochhammer_finite", "pochhammer_infinite", "infinite_product",
    "pochhammer_ratio", "q_binomial",
    "SumOutcome", "sum_series", "sum_bilateral",
    "FormalSeries", "fs_pochhammer_infinite",
    "QPoly", "BivariatePoly", "EisensteinRational",
    "QrrError", "PoleError", "NonConvergenceError", "RatioTestError",
    "PrecisionLossError",
    "DomainError", "AnnulusError", "SeriesMismatchError", "NotUnitError",
    "ExponentError", "ValuationError", "SingularDeltaError", "SizeError",
    "UnknownIdentityError", "UnsupportedModeError", "ConfigError",
    "EmptyDomainError",
]

__version__ = "0.1.0"
