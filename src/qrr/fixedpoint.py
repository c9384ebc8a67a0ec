"""Binary fixed point on Python ints: the number type of every numeric series.

A :class:`Fixed` is ``(re + i im) * 2**e`` with integer mantissas, ``im`` is
None for a real value, and ``wp`` is the working precision in bits.  Every
rounded result is cut back to a mantissa of at most ``wp`` bits by one right
shift (floor), so one rounding errs by less than one unit in the last place,
2**(1 - wp) relative.  Exact inputs (ints, mpf mantissas shorter than ``wp``)
keep their short mantissas and round nothing.  The exponent floats with the
value, so the magnitude is free: a running product such as q^(n^2) x^n may
reach 10^-5000 or 10^5000 with the cost of a ``wp``-bit multiply per step.

Values enter fixed point through :meth:`Fixed.of` (ints, Fractions, floats,
mpf and mpc are read exactly, then rounded once to ``wp`` bits) and leave it
through :meth:`Fixed.to_mp`.  Mixed arithmetic with those types converts the
other operand the same way, so the generic stream helpers of
:mod:`qrr.qfunctions` run unchanged on Fractions and on Fixed values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp

LOG2_10 = math.log2(10)
LN2 = math.log(2)


def bits_for_digits(digits) -> int:
    """Bits that carry ``digits`` decimal digits."""
    return math.ceil(digits * LOG2_10)


# Roundings per step charged to a stream term: term n of a stream is the end
# of at most ROUNDINGS * (n + 1)**2 roundings.  A running product carries one
# rounding per step; q^(alpha n^2) x^n is a running product of a running
# product, whose step has itself n roundings; a factor 1 - c q^k carries the
# k roundings of its power c q^k, weighted by |c q^k / (1 - c q^k)|, taken as
# about 1 (factors well away from zero); complex products count twice.
ROUNDINGS = 8


def rounding_bits(n_terms: int) -> int:
    """log2 of 2 R N^3 + N, rounded up: N terms at stream indices n < N,
    each at most R (n + 1)^2 roundings of 2^(1 - wp) relative away from
    exact and none above the peak, plus N additions floored into the running
    sum, err by less than 2^(rounding_bits(N) + top(peak) - wp)."""
    return (2 * ROUNDINGS * n_terms ** 3 + n_terms).bit_length()


def _real(m, e, wp):
    n = m.bit_length() - wp
    if n > 0:
        return Fixed(m >> n, None, e + n, wp)
    return Fixed(m, None, e, wp)


def _complex(re, im, e, wp):
    n = re.bit_length()
    ni = im.bit_length()
    if ni > n:
        n = ni
    n -= wp
    if n > 0:
        return Fixed(re >> n, im >> n, e + n, wp)
    return Fixed(re, im, e, wp)


def shifted(m, d):
    """m * 2**d, floored when d < 0."""
    return m << d if d >= 0 else m >> -d


def parts(x: "Fixed"):
    """(re, im, e) of a Fixed, im 0 for a real value: the form fused loops
    carry a running value in."""
    return x.re, x.im or 0, x.e


def cut(re, im, e, wp):
    """(re, im, e) with the mantissas cut back to wp bits."""
    n, m = re.bit_length(), im.bit_length()
    n = (m if m > n else n) - wp
    if n > 0:
        return re >> n, im >> n, e + n
    return re, im, e


def one_minus(re, im, e, wp):
    """1 - (re + i im) 2^e as (re, im, e); exactly 1 when the power lies
    below a quarter ulp of 1."""
    if e >= 0:
        return 1 - (re << e), -(im << e), 0
    if re.bit_length() + e < -wp - 2 and im.bit_length() + e < -wp - 2:
        return 1, 0, 0
    return (1 << -e) - re, -im, e


class Fixed:
    """``(re + i im) * 2**e`` with int mantissas of at most ``wp`` bits."""

    __slots__ = ("re", "im", "e", "wp")

    def __init__(self, re, im, e, wp):
        self.re = re
        self.im = im
        self.e = e
        self.wp = wp

    # -- conversion ---------------------------------------------------------

    @classmethod
    def of(cls, x, wp: int) -> "Fixed":
        """``x`` (Fixed, int, Fraction, float, complex, mpf or mpc) at ``wp`` bits."""
        if isinstance(x, Fixed):
            if x.wp == wp:
                return x
            if x.im is None:
                return _real(x.re, x.e, wp)
            return _complex(x.re, x.im, x.e, wp)
        if isinstance(x, int):
            return _real(x, 0, wp)
        if isinstance(x, Fraction):
            return _real(x.numerator, 0, wp) / _real(x.denominator, 0, wp)
        if isinstance(x, (float, complex)):
            x = mp.mpmathify(x)
        if isinstance(x, mp.mpf):
            m, e = _man_exp(x._mpf_)
            return _real(m, e, wp)
        if isinstance(x, mp.mpc):
            (re, er), (im, ei) = (_man_exp(p) for p in x._mpc_)
            e = min(er, ei) if re and im else (er if re else ei)
            return _complex(shifted(re, er - e), shifted(im, ei - e), e, wp)
        raise TypeError(f"no fixed-point value for {type(x).__name__}")

    def _coerce(self, x):
        try:
            return Fixed.of(x, self.wp)
        except TypeError:
            return NotImplemented

    def like(self, x) -> "Fixed":
        """``x`` at this value's precision."""
        return Fixed.of(x, self.wp)

    def to_mp(self):
        """The mpf (real) or mpc value, rounded to the current mp precision."""
        prec, rnd = mp.mp._prec_rounding
        re = from_man_exp(self.re, self.e, prec, rnd)
        if self.im is None:
            return mp.mpf(re)
        return mp.mpc(re, from_man_exp(self.im, self.e, prec, rnd))

    def top(self) -> int:
        """Exponent bound: each part is below 2**top, so |value| lies in
        [2**(top - 1), 2**(top + 1/2)) unless 0."""
        n = self.re.bit_length()
        if self.im is not None:
            n = max(n, self.im.bit_length())
        return n + self.e

    def __repr__(self):
        return f"Fixed({self.re}, {self.im}, {self.e}, wp={self.wp})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, o):
        if o.__class__ is not Fixed:
            o = self._coerce(o)
            if o is NotImplemented:
                return o
        a, b, c, d = self.re, self.im, o.re, o.im
        e, wp = self.e + o.e, self.wp
        if b is None:
            if d is None:
                m = a * c
                n = m.bit_length() - wp
                if n > 0:
                    return Fixed(m >> n, None, e + n, wp)
                return Fixed(m, None, e, wp)
            return _complex(a * c, a * d, e, wp)
        if d is None:
            return _complex(a * c, b * c, e, wp)
        return _complex(a * c - b * d, a * d + b * c, e, wp)

    __rmul__ = __mul__

    def __add__(self, o):
        if o.__class__ is not Fixed:
            o = self._coerce(o)
            if o is NotImplemented:
                return o
        if not (o.re or o.im):
            return self
        if not (self.re or self.im):
            return o
        x, y = (self, o) if self.e >= o.e else (o, self)
        wp = self.wp
        # A summand below a quarter ulp of the other one's top is rounded away.
        ty, tx = y.top(), x.top()
        if ty < tx - wp - 2:
            return x
        if tx < ty - wp - 2:
            return y
        d = x.e - y.e
        re = (x.re << d) + y.re
        if x.im is None and y.im is None:
            return _real(re, y.e, wp)
        im = ((x.im or 0) << d) + (y.im or 0)
        return _complex(re, im, y.e, wp)

    __radd__ = __add__

    def __neg__(self):
        return Fixed(-self.re, None if self.im is None else -self.im, self.e, self.wp)

    def __sub__(self, o):
        if o.__class__ is not Fixed:
            o = self._coerce(o)
            if o is NotImplemented:
                return o
        return self + (-o)

    def __rsub__(self, o):
        if o.__class__ is not int:
            return (-self) + o
        # c - x for an int c, as in every factor 1 - a q^k
        re, im, e, wp = self.re, self.im, self.e, self.wp
        if e >= 0:
            d, e = o - (re << e), 0
        elif self.top() < -wp - 2 and o:
            return Fixed(o, None if im is None else 0, 0, wp)
        else:
            d = (o << -e) - re
        if im is None:
            return _real(d, e, wp)
        return _complex(d, -shifted(im, self.e - e), e, wp)

    def __truediv__(self, o):
        if o.__class__ is not Fixed:
            o = self._coerce(o)
            if o is NotImplemented:
                return o
        a, b, c, d = self.re, self.im, o.re, o.im
        e, wp = self.e - o.e, self.wp
        if d:
            # (a + ib) / (c + id) = (a + ib)(c - id) / (c^2 + d^2)
            a, b = a * c + (b or 0) * d, (b or 0) * c - a * d
            c = c * c + d * d
        elif c == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        n = a.bit_length()
        if b is not None and b.bit_length() > n:
            n = b.bit_length()
        s = wp + 1 + c.bit_length() - n
        if b is None:
            return _real(shifted(a, s) // c, e - s, wp)
        return _complex(shifted(a, s) // c, shifted(b, s) // c, e - s, wp)

    def __rtruediv__(self, o):
        o = self._coerce(o)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, n):
        if isinstance(n, Fraction) and n.denominator == 1:
            n = int(n)
        if isinstance(n, Fraction):
            with mp.workprec(self.wp):
                return self.like(self.to_mp() ** (mp.mpf(n.numerator) / n.denominator))
        if n < 0:
            return 1 / self ** -n
        result, base = Fixed(1, None, 0, self.wp), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        if o.__class__ is int and o == 0:
            return not (self.re or self.im)
        if o.__class__ is not Fixed:
            o = self._coerce(o)
            if o is NotImplemented:
                return o
        return not (self - o)

    __hash__ = None


def _man_exp(mpf_tuple):
    """(signed mantissa, exponent) of an mpf tuple; rejects inf and nan."""
    sign, man, exp, bc = mpf_tuple
    if not man and bc:
        raise ValueError("inf or nan has no fixed-point value")
    return (-man if sign else man), exp

