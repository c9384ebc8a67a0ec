"""Evaluation contexts and small numeric helpers.

Numeric work takes and returns mpmath real/complex numbers at ``precision``
target digits plus a fixed guard allowance; its series, infinite products and
slice sums run in binary fixed point (:mod:`qrr.fixedpoint`) at
:attr:`QContext.fixed_bits` and give up after ``MAX_TERMS`` terms or factors.
A sum that cancels raises PrecisionLossError; :func:`widening` evaluates the
whole computation again wider and deeper (:meth:`QContext.wider`).  Exact
work runs on ``fractions.Fraction`` (or on the truncated series ring in
:mod:`qrr.formal`).  All functions are pure for a fixed context, so values
may be shared freely.  They are shared in one place: within a
:func:`keeping_values` block, which the check driver opens for each check, a
:func:`kept` kernel computes each value once and returns it again on a
repeated call; an exact kernel, one that takes no context, is kept in the
same block by its arguments alone.  A stream that several readers share,
such as a kept one, is read through a :class:`_Shared`, which keeps its
terms as they are first read.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, wraps

import mpmath as mp

from .errors import DomainError, ExponentError, PrecisionLossError
from .fixedpoint import LOG2_10, Fixed, bits_for_digits, rounding_bits

# Series of a few hundred terms lose at most a couple of digits, so a fixed
# guard is enough to report residuals well below the pass threshold.
GUARD_DIGITS = 15

DEFAULT_PRECISION = 50
# The term budget of every numeric series and infinite product.
MAX_TERMS = 8000
DEFAULT_BASE_EXPONENT = 12
DEFAULT_ORDER = 100
RERUN_MARGIN_BITS = 16
MAX_WIDENING = 4


@dataclass(frozen=True)
class QContext:
    """Shared evaluation environment, made by one of two constructors.

    :meth:`numeric`
        ``q`` is an mpmath number with ``|q| < 1``; results carry
        ``precision`` target digits (guard digits are internal).
    :meth:`formal`
        ``q`` is None; computation happens in the exact truncated ring in the
        auxiliary variable ``u`` with ``q = u**base_exponent``, truncated so
        the series is exact through ``q**order``.
    """

    q: object = None
    precision: int = DEFAULT_PRECISION
    base_exponent: int = DEFAULT_BASE_EXPONENT
    order: int = DEFAULT_ORDER
    extra_bits: int = 0     # width added by :meth:`wider`

    @classmethod
    def numeric(cls, q, precision: int = DEFAULT_PRECISION) -> "QContext":
        with mp.workdps(precision + GUARD_DIGITS):
            qv = to_mp(q)
            if abs(qv) >= 1:
                raise DomainError(f"numeric mode requires |q| < 1, got q={qv}")
        return cls(qv, precision=precision)

    @classmethod
    def formal(cls, order: int = DEFAULT_ORDER,
               base_exponent: int = DEFAULT_BASE_EXPONENT) -> "QContext":
        if base_exponent < 1 or order < 1:
            raise DomainError("formal mode needs base_exponent >= 1 and order >= 1")
        return cls(base_exponent=base_exponent, order=order)

    def wider(self, bits: int) -> "QContext":
        """``bits`` more fixed-point bits and working digits, every stop level ``bits`` lower."""
        return replace(self, extra_bits=self.extra_bits + bits)

    def at(self, q) -> "QContext":
        """A numeric context at base ``q`` as wide and as deep as this one."""
        return replace(QContext.numeric(q, self.precision), extra_bits=self.extra_bits)

    @property
    def working_dps(self) -> int:
        return self.precision + GUARD_DIGITS + math.ceil(self.extra_bits / LOG2_10)

    @property
    def fixed_bits(self) -> int:
        """Fixed-point working precision of a numeric series: the working
        digits plus the guard bits of a sum of ``MAX_TERMS`` terms."""
        digits = self.precision + GUARD_DIGITS
        return bits_for_digits(digits) + rounding_bits(MAX_TERMS) + self.extra_bits

    def fixed(self, x) -> Fixed:
        """``x`` in fixed point at :attr:`fixed_bits`."""
        return Fixed.of(x, self.fixed_bits)

    def workdps(self):
        """Context manager entering the working precision."""
        return mp.workdps(self.working_dps)

    @cached_property
    def fixed_q(self) -> Fixed:
        """The base q at :attr:`fixed_bits`, made once per context: every
        numeric series reads it."""
        return self.fixed(self.q)

    # The tolerances below are made once per context: every sum reads them.
    # The stop levels lie extra_bits below the first pass's; the target stays.

    @cached_property
    def stop_tol(self):
        """Terms below 10^-(precision + 10) 2^-extra_bits are negligible for stopping."""
        with mp.workdps(self.precision + GUARD_DIGITS):
            return mp.ldexp(mp.mpf(10) ** (-(self.precision + 10)), -self.extra_bits)

    @cached_property
    def stop_log2(self) -> float:
        """Float log2 of :attr:`stop_tol`, the per-term stop test's bound."""
        return -(self.precision + 10) * LOG2_10 - self.extra_bits

    @cached_property
    def tail_log2(self) -> float:
        """Float log2 of 10^-(precision + GUARD_DIGITS) 2^-extra_bits, one
        unit of the working digits: a sum that declares its ratio bound stops
        once its tail bound lies below this, or below the last kept bit of
        its running sum (:func:`~qrr.summation.sum_series`)."""
        return -(self.precision + GUARD_DIGITS) * LOG2_10 - self.extra_bits

    @cached_property
    def target_tol(self):
        """A sum or product whose tail bound lies below this, 10^-precision,
        counts as converged."""
        with mp.workdps(self.precision + GUARD_DIGITS):
            return mp.mpf(10) ** (-self.precision)

    @property
    def u_order(self) -> int:
        """Truncation order of the formal ring in the base variable u."""
        return self.order * self.base_exponent


def widening(evaluate, ctx: QContext):
    """``evaluate(ctx)`` in its working precision, evaluated again whole at
    ``ctx.wider(bits + RERUN_MARGIN_BITS)``, as much deeper, while a sum in it
    lacks ``bits``; beyond MAX_WIDENING times the first width plus the most
    bits a sum cancels a priori, PrecisionLossError with bits 0."""
    wide, widest = ctx, MAX_WIDENING * ctx.fixed_bits
    while True:
        try:
            with wide.workdps():
                return evaluate(wide)
        except PrecisionLossError as exc:
            widest = max(widest, MAX_WIDENING * ctx.fixed_bits + exc.cancels)
            if not exc.bits or wide.fixed_bits + exc.bits > widest:
                raise PrecisionLossError(f"{exc} (beyond {widest} bits)", 0) from exc
            wide = wide.wider(exc.bits + RERUN_MARGIN_BITS)


_KEPT = ContextVar("kept kernel values", default=None)


@contextmanager
def keeping_values():
    """Keep the values of every :func:`kept` kernel for the block; none outlive it."""
    token = _KEPT.set({})
    try:
        yield
    finally:
        _KEPT.reset(token)


def _exact(x):
    """Four keys for mpf(1), mpc(1, 0), 1 and Fraction(1); sequences go by element."""
    if isinstance(x, mp.mpf):
        return "f", x._mpf_
    if isinstance(x, mp.mpc):
        return "c", x._mpc_
    if isinstance(x, (list, tuple)):
        return type(x), tuple(map(_exact, x))
    return type(x), x


def kept(kernel):
    """``kernel(*args, ctx)``, computed once in a :func:`keeping_values` block
    (and on every call outside one) per exact form of its arguments, ``ctx.q``,
    ``ctx.precision`` and ``ctx.extra_bits``.  The kernel enters
    ``ctx.workdps()`` itself, so its value depends on that key alone; errors
    are raised again on every call.  An exact kernel, whose last argument is
    not a :class:`QContext`, is keyed on the exact form of its arguments
    alone."""
    @wraps(kernel)
    def lookup(*args):
        values = _KEPT.get()
        if values is None:
            return kernel(*args)
        ctx = args[-1]
        if isinstance(ctx, QContext):
            key = (kernel, _exact(args[:-1]), _exact(ctx.q), ctx.precision, ctx.extra_bits)
        else:
            key = (kernel, _exact(args))
        if key not in values:
            values[key] = kernel(*args)
        return values[key]
    return lookup


class _Shared:
    """The terms of one stream, kept as they are first read, for any number
    of readers.  An exception that ends the stream (a pole) is kept too and
    raised to every reader that reaches it, not only to the first."""

    def __init__(self, stream):
        self.stream = stream
        self.terms = []
        self.error = None

    def __getitem__(self, n):
        terms = self.terms
        while n >= len(terms):
            if self.error is not None:
                raise self.error
            try:
                terms.append(next(self.stream))
            except Exception as exc:
                self.error = exc
                raise
        return terms[n]


def to_mp(x):
    """Convert ints, floats, complex, Fractions, strings ("-0.3", "1/3",
    "0.2+0.1j") and mp numbers to mpf/mpc at the working precision."""
    if isinstance(x, (mp.mpf, mp.mpc)):
        return x
    if isinstance(x, Fixed):
        return x.to_mp()
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpmathify(x)


def powq(base, exponent):
    """``base ** exponent`` for integer or Fraction exponents.

    A Fraction base with an integer exponent stays a Fraction; one with a
    fractional exponent raises ExponentError (pass exact roots explicitly).
    A fractional power of an mp number, a negative or complex q included,
    takes the principal branch; a Fixed base stays Fixed.
    """
    if isinstance(exponent, Fraction) and exponent.denominator == 1:
        exponent = int(exponent)
    if isinstance(exponent, int) or isinstance(base, Fixed):
        return base ** exponent
    if not isinstance(exponent, Fraction):
        raise ExponentError(f"exponent must be int or Fraction, got {exponent!r}")
    if isinstance(base, Fraction):
        raise ExponentError(f"no exact power {exponent} of the Fraction {base}")
    b = to_mp(base)
    return b ** (mp.mpf(exponent.numerator) / exponent.denominator)


def scaled_deviation(lhs, rhs):
    """|lhs - rhs| / max(1, |lhs|, |rhs|): residual insensitive to magnitude."""
    l, r = to_mp(lhs), to_mp(rhs)
    scale = max(mp.mpf(1), abs(l), abs(r))
    return abs(l - r) / scale

