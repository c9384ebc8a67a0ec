"""Exact truncated power series in u with q = u**D, over the rationals.

This ring is where coefficient-exact identity checks happen.  Every
coefficient is exact (an int or a Fraction); multiplication truncates at the
ring order.  Series are built as on the numeric side, by term ratio, through
two helpers, and both walk integer numerators over one int denominator,
forming each result coefficient as a reduced Fraction once, at the end:

* every factor 1 - c q^e of a product goes through :func:`_one_minus`, which
  multiplies or divides a numerator list in place in O(N) and returns the
  new denominator, takes e = 0 as the exact unit 1 - c and skips a factor
  past the ring order.  The factor walk :func:`fs_pochhammer` applies a
  whole (c q^a; q^s)_n, finite or infinite, to one series that way, so a
  reciprocal product is never a dense inversion;
* every sum is one :func:`fs_ratio_sum` call, the exact-ring mirror of the
  numeric ``_ratio_terms``: t_0 = 1 and t_{k+1} = t_k c q^{e + growth k}
  prod (1 - a_i q^{base k + alpha_i}) / prod (1 - b_j q^{base k + beta_j}).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat
from math import lcm
from operator import mul

import mpmath as mp

from .context import QContext, to_mp
from .errors import (ExponentError, NotUnitError, SeriesMismatchError,
                     ValuationError)
from .exactpoly import QPoly


class FormalSeries:
    """Truncated series sum_{k=0}^{N} c_k u^k, exact through order N."""

    __slots__ = ("D", "N", "c")

    def __init__(self, D: int, N: int, coeffs=None):
        self.D = D
        self.N = N
        if coeffs is None:
            self.c = [0] * (N + 1)
        else:
            c = list(coeffs)
            if len(c) < N + 1:
                c.extend([0] * (N + 1 - len(c)))
            self.c = c[:N + 1]

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx: QContext) -> "FormalSeries":
        return cls(ctx.base_exponent, ctx.u_order)

    @classmethod
    def one(cls, ctx: QContext) -> "FormalSeries":
        s = cls.zero(ctx)
        s.c[0] = 1
        return s

    @classmethod
    def monomial(cls, ctx: QContext, coeff, u_exp: int) -> "FormalSeries":
        if u_exp < 0:
            raise ExponentError(f"negative u-exponent {u_exp}")
        s = cls.zero(ctx)
        if u_exp <= s.N:
            s.c[u_exp] = coeff
        return s

    @classmethod
    def from_qpoly(cls, ctx: QContext, poly: QPoly) -> "FormalSeries":
        s = cls.zero(ctx)
        for k, a in enumerate(poly.coeffs()):
            e = k * ctx.base_exponent
            if e > s.N:
                break
            s.c[e] = a
        return s

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "FormalSeries"):
        if self.D != other.D or self.N != other.N:
            raise SeriesMismatchError(
                f"series rings differ: (D={self.D}, N={self.N}) vs (D={other.D}, N={other.N})")

    def __add__(self, other):
        self._check(other)
        return FormalSeries(self.D, self.N, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        self._check(other)
        return FormalSeries(self.D, self.N, [a - b for a, b in zip(self.c, other.c)])

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries(self.D, self.N, [a * factor for a in self.c])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        a, b = self.c, other.c
        nza = [k for k, v in enumerate(a) if v != 0]
        nzb = [k for k, v in enumerate(b) if v != 0]
        if len(nzb) < len(nza):
            a, b, nza = b, a, nzb
        out = [0] * (self.N + 1)
        top = self.N
        for i in nza:
            ai = a[i]
            stop = top - i + 1
            for j in range(stop):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return FormalSeries(self.D, self.N, out)

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "FormalSeries":
        """Multiply by u**k (k >= 0)."""
        if k < 0:
            raise ExponentError("shift_up needs k >= 0")
        return FormalSeries(self.D, self.N, [0] * k + self.c[:self.N + 1 - k])

    def invert(self) -> "FormalSeries":
        """Multiplicative inverse up to order N (constant term must be a unit)."""
        a0 = self.c[0]
        if a0 == 0:
            raise NotUnitError("cannot invert a series with zero constant term")
        inv0 = Fraction(1) / Fraction(a0)
        out = [0] * (self.N + 1)
        out[0] = inv0
        nza = [k for k, v in enumerate(self.c) if v != 0 and k > 0]
        for n in range(1, self.N + 1):
            acc = 0
            for k in nza:
                if k > n:
                    break
                acc += self.c[k] * out[n - k]
            if acc != 0:
                out[n] = -inv0 * acc
        return FormalSeries(self.D, self.N, out)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_zero() if other == 0 else self == FormalSeries(
                self.D, self.N, [other])
        if not isinstance(other, FormalSeries):
            return NotImplemented
        self._check(other)
        return all(a == b for a, b in zip(self.c, other.c))

    def __hash__(self):
        return hash((self.D, self.N, tuple(self.c)))

    def first_difference(self, other) -> int | None:
        """Smallest u-exponent where the two series differ, or None."""
        self._check(other)
        for k, (a, b) in enumerate(zip(self.c, other.c)):
            if a != b:
                return k
        return None

    def coeff_u(self, k: int):
        return self.c[k] if 0 <= k <= self.N else 0

    def coeff_q(self, k):
        """Coefficient of q**k (k may be a Fraction with denominator | D)."""
        e = Fraction(k) * self.D
        if e.denominator != 1:
            raise ExponentError(f"q^{k} is not on the u-grid with D={self.D}")
        return self.coeff_u(int(e))

    def eval_at(self, q, dps: int = 50):
        """Numeric value of the truncated series at real q in (0, 1)."""
        with mp.workdps(dps + 10):
            u = to_mp(q) ** (mp.mpf(1) / self.D)
            acc = mp.mpf(0)
            for a in reversed(self.c):
                acc = acc * u + (to_mp(a) if a else 0)
            return acc

    def __repr__(self):
        nz = [(k, v) for k, v in enumerate(self.c) if v != 0][:8]
        body = " + ".join(f"{v}*u^{k}" for k, v in nz) or "0"
        return f"FormalSeries(D={self.D}, N={self.N}: {body} + ...)"


# -- the factor walk and the term-ratio sum --------------------------------

def qexp_to_u(r, ctx: QContext) -> int:
    """Exact u-exponent of q**r; raises if off-grid or negative."""
    e = Fraction(r) * ctx.base_exponent
    if e.denominator != 1:
        raise ExponentError(f"q^{r} off the u-grid for D={ctx.base_exponent}")
    if e < 0:
        raise ExponentError(f"negative exponent q^{r}")
    return int(e)


def _numerators(c: list):
    """Integer numerators over one positive common denominator of the exact
    values ``c``, as (numerators, denominator)."""
    d = lcm(*{a.denominator for a in c})
    return [a.numerator * (d // a.denominator) for a in c], d


def _fractions(m: list, d: int) -> list:
    """The exact values m_k / d: the ints themselves when d = 1, else each
    reduced once to a Fraction."""
    if d == 1:
        return m
    return [Fraction(a, d) if a else 0 for a in m]


def _one_minus(m: list, d: int, coeff, e: int, inverse: bool = False) -> int:
    """Multiply the values m_k / d in place by 1 - coeff u^e, or divide them
    by it if ``inverse``, and return the new denominator; the numerators
    ``m`` stay ints.  At e = 0 the factor is the exact unit 1 - coeff; past
    the end of ``m`` it is 1.

    With coeff = A/B, multiplying sets m_k <- B m_k - A m_{k-e} and d <- d B.
    Dividing carries B^(k//e) at index k: t_k = m_k B^(k//e) + A t_{k-e},
    then m_k = t_k B^(J - k//e) and d <- d B^J with J = top // e.  For B = 1
    both walks skip zero entries and leave d alone, so integer series stay
    on int-only work.
    """
    A, B = coeff.numerator, coeff.denominator
    top = len(m) - 1
    if A == 0:
        return d
    if e == 0:
        unit = B - A
        if inverse:
            if unit == 0:
                raise NotUnitError("a vanishing constant factor has no inverse")
            unit, B = (B, unit) if unit > 0 else (-B, -unit)
        m[:] = [a * unit for a in m]
        return d * B
    if not inverse:
        if B == 1:
            m[e:] = [a - A * b if b else a for a, b in zip(m[e:], m)]
            return d
        m[:] = [B * a for a in m[:e]] + [B * a - A * b for a, b in zip(m[e:], m)]
        return d * B
    if B != 1:
        J = top // e
        power = list(accumulate(repeat(B, J), mul, initial=1))
        m[:] = [a * power[k // e] if a else 0 for k, a in enumerate(m)]
    # the iterator reads m[k - e] after step k - e has replaced it by t_{k-e}
    for k, b in zip(range(e, top + 1), m):
        if b:
            m[k] += A * b
    if B == 1:
        return d
    m[:] = [t * power[J - k // e] if t else 0 for k, t in enumerate(m)]
    return d * power[J]


def fs_pochhammer(series: FormalSeries, coeff, q_exp, step, ctx: QContext,
                  n: int | None = None, inverse: bool = False) -> FormalSeries:
    """series times (c q^{q_exp}; q^{step})_n, or divided by it if
    ``inverse``; n = None is the infinite product.

    The factors are 1 - c u^{D(q_exp + k step)}, applied one by one; step > 0,
    so the walk ends at the first factor past the ring order.
    """
    q_exp, step = Fraction(q_exp), Fraction(step)
    if step <= 0:
        raise ValuationError("a q-shifted factorial needs a positive exponent step")
    out, d = _numerators(series.c)
    for k in (count() if n is None else range(n)):
        e = qexp_to_u(q_exp + k * step, ctx)
        if e > ctx.u_order:
            break
        d = _one_minus(out, d, coeff, e, inverse)
    return FormalSeries(series.D, series.N, _fractions(out, d))


def fs_pochhammer_infinite(coeff, q_exp, step, ctx: QContext,
                           inverse: bool = False) -> FormalSeries:
    """(c q^{q_exp}; q^{step})_infinity, or its reciprocal, exactly truncated."""
    return fs_pochhammer(FormalSeries.one(ctx), coeff, q_exp, step, ctx,
                         inverse=inverse)


def fs_ratio_sum(ctx: QContext, coeff, e, growth, num=(), den=(),
                 base=1) -> FormalSeries:
    """sum_k t_k in the exact ring, by term ratio: t_0 = 1 and

        t_{k+1} = t_k c q^{e + growth k} prod_i (1 - a_i q^{base k + alpha_i})
                                         / prod_j (1 - b_j q^{base k + beta_j}),

    ``num`` and ``den`` holding the pairs (a_i, alpha_i) and (b_j, beta_j).
    Term k is kept as c^k q^{E_k} times the running factor product, so an
    exponent step e + growth k < 0 loses no coefficient.  The sum stops at
    the first term whose q^{E_k} passes the ring order; a negative or
    off-grid E_k raises ExponentError.
    """
    e, growth = Fraction(e), Fraction(growth)
    if growth < 0 or (growth == 0 and e <= 0):
        raise ValuationError("a formal sum needs term exponents that grow")
    top = ctx.u_order
    # acc / d_acc and ratio / d_ratio: integer numerators over one
    # denominator; the monomial coefficient c^k is mono / d_mono
    acc, d_acc = [0] * (top + 1), 1
    ratio, d_ratio = [1] + [0] * top, 1
    mono, d_mono = 1, 1
    E, u, k = e, 0, 0
    while True:
        d_term = d_mono * d_ratio
        d_new = lcm(d_acc, d_term)
        if d_new != d_acc:
            acc = [a * (d_new // d_acc) for a in acc]
            d_acc = d_new
        f = mono * (d_acc // d_term)
        acc[u:] = [a + f * r if r else a for a, r in zip(acc[u:], ratio)]
        u = qexp_to_u(E, ctx)
        if u > top:
            return FormalSeries(ctx.base_exponent, top, _fractions(acc, d_acc))
        mono, d_mono = mono * coeff.numerator, d_mono * coeff.denominator
        for a, alpha in num:
            d_ratio = _one_minus(ratio, d_ratio, a,
                                 qexp_to_u(base * k + Fraction(alpha), ctx))
        for b, beta in den:
            d_ratio = _one_minus(ratio, d_ratio, b,
                                 qexp_to_u(base * k + Fraction(beta), ctx), True)
        k += 1
        E += e + growth * k
