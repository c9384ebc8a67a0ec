"""q-shifted factorials, their ratios, and q-binomial coefficients.

The finite product (a;q)_n extends to negative n through the ratio
convention (a;q)_{-k} = 1/((a q^{-k}; q)_k).  Every finite value and every
ratio of two (:func:`pochhammer_ratio`) is one factor walk, :func:`_product`,
over the factors of :func:`_factors`, or of :func:`_pole_factors` where the
walk is a denominator.  The numeric kernels carry their Pochhammer ratios as
streams (:mod:`qrr.qfunctions`); these values serve exact sums, prefactors
and the tests' per-term oracles.

Arguments may be plain numbers or :class:`QPow` pairs ``c * q**e``.  The
structured form keeps exponent bookkeeping exact, so a factor such as
1 - a*q^0 at a = 1 vanishes identically rather than to roundoff.

Every numeric quotient of infinite products over one base is one
:func:`infinite_product` walk, which returns its value certified to
10^-precision relative or raises NonConvergenceError.  A vanishing
denominator factor, here or in any series, is the PoleError of :func:`pole`,
which names that factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import prod
from typing import NamedTuple

import mpmath as mp

from .context import MAX_TERMS, QContext, kept, powq, to_mp
from .errors import DomainError, NonConvergenceError, PoleError
from .exactpoly import QPoly
from .fixedpoint import Fixed, cut, one_minus, parts


class QPow(NamedTuple):
    """A coefficient times an exact power of q: ``coeff * q**exponent``."""

    coeff: object
    exponent: object  # int or Fraction


def _as_qpow(a) -> QPow:
    return a if isinstance(a, QPow) else QPow(a, 0)


def _factors(a: QPow, q, j=0, step=1):
    """Yield 1 - coeff * q**(exponent + i) for i = j, j + step, j + 2*step, ...

    ``step`` is a nonzero integer.  The power coeff * q**(exponent + i) is
    carried from one factor to the next, so each factor costs one
    multiplication.  A factor whose exact joint exponent is 0 is
    ``1 - coeff`` exactly, never a rounded value.
    """
    c, e = a.coeff * _one_like(q), a.exponent + j
    p = powq(q, e) * c
    shift = powq(q, step)
    while True:
        yield 1 - c if e == 0 else 1 - p
        e += step
        p = p * shift


def pole(coeff, e, where) -> PoleError:
    """The error of a vanishing denominator factor 1 - coeff q^e of ``where``."""
    return PoleError(f"denominator factor 1 - {mp.nstr(to_mp(coeff), 8)} q^({e}) "
                     f"of the {where} vanished")


def _pole_factors(a: QPow, q, j=0, step=1, where="pole sum"):
    """Yield the factors of :func:`_factors` as denominator factors: a
    vanishing one raises :func:`pole`."""
    for i, f in enumerate(_factors(a, q, j, step)):
        if not f:
            raise pole(a.coeff, a.exponent + j + i * step, where)
        yield f


def _product(a: QPow, q, n: int, pole_in=None):
    """The product of the |n| factors of (a;q)_n for n >= 0, or of
    (a q^n;q)_{-n} for n < 0, walked from 1 - a q^0 up or from 1 - a q^-1
    down.  With ``pole_in`` the product is a denominator of that name, read
    from :func:`_pole_factors`."""
    j, step = (0, 1) if n >= 0 else (-1, -1)
    factors = (_factors(a, q, j, step) if pole_in is None
               else _pole_factors(a, q, j, step, pole_in))
    return prod(islice(factors, abs(n)), start=_one_like(q))


def pochhammer_finite(a, q, n: int):
    """(a;q)_n for any integer n.

    Exact finite product for n >= 0; for n < 0 the ratio convention gives
    1/((a q^n; q)_{-n}) and a vanishing denominator factor raises PoleError.
    Works on mp numbers and on Fractions alike.
    """
    a = _as_qpow(a)
    return _product(a, q, n) if n >= 0 else 1 / _product(a, q, n, f"(a;q)_{n}")


def pochhammer_ratio(a, b, q, n: int):
    """(a;q)_n / (b;q)_n with exact-zero and pole handling on both tails.

    For n = -k the ratio equals (b q^{-k};q)_k / (a q^{-k};q)_k, so the two
    walks swap by the sign of n: a vanishing numerator factor kills the term
    exactly, and a vanishing denominator factor is a pole, even where the
    numerator vanishes too.
    """
    num, den = (a, b) if n >= 0 else (b, a)
    return (_product(_as_qpow(num), q, n)
            / _product(_as_qpow(den), q, n, f"(a;q)_{n}/(b;q)_{n}"))


@kept
def infinite_product(nums, dens, q, ctx: QContext):
    """(a_1, ..., a_k; q)_inf / (b_1, ..., b_l; q)_inf over numbers or QPows.

    Each factor c walks to its own stop count, the first k with |c q^k| below
    the stop tolerance, read off log |c| and log |q|.  Numerator, denominator
    and each carried power c q^k are fixed-point ints at ``ctx.fixed_bits``,
    cut back once per factor; one division ends the walk.  Exponent 0 gives
    1 - c exactly.  Denominators walk first: a vanishing one is a PoleError
    naming it, and a vanishing numerator factor then makes the product 0.
    NonConvergenceError: a relative error bound exp(L) - 1, L the summed log
    tails, not below 10^-precision, or a factor past ``MAX_TERMS`` steps.
    """
    with ctx.workdps():
        qv = to_mp(q)
        if abs(qv) >= 1:
            raise DomainError(f"infinite product needs |q| < 1, got {qv}")
        absq = abs(qv)
        qf = ctx.fixed(qv)
        wp, one = qf.wp, qf.like(1)
        qr, qi, qe = parts(qf)
        complex_value = qf.im is not None
        tail_log, products = 0, []
        for is_den, group in ((True, dens), (False, nums)):
            vr, vi, ve = 1, 0, 0
            for a in map(_as_qpow, group):
                mag0 = abs(to_mp(a.coeff)) * powq(absq, a.exponent)  # |a q^0|
                last = (0 if mag0 < ctx.stop_tol else
                        int(mp.floor(mp.log(mag0 / ctx.stop_tol) / -mp.log(absq))) + 1)
                if last >= MAX_TERMS:
                    raise NonConvergenceError(
                        f"(a;q)_inf needs {last + 1} factors, over the budget of {MAX_TERMS}")
                power = powq(qf, a.exponent) * a.coeff
                complex_value = complex_value or power.im is not None
                pr, pi, pe = parts(power)
                exact = parts(one - a.coeff)
                k0 = -a.exponent  # the step whose joint exponent is 0, as an int or None
                zero_at = int(k0) if k0 >= 0 and k0 == int(k0) else None
                for k in range(last + 1):
                    fr, fi, fe = exact if k == zero_at else one_minus(pr, pi, pe, wp)
                    if not (fr or fi):
                        if is_den:
                            raise pole(a.coeff, a.exponent + k, "infinite product")
                        return mp.mpf(0)
                    vr, vi, ve = cut(vr * fr - vi * fi, vr * fi + vi * fr, ve + fe, wp)
                    pr, pi, pe = cut(pr * qr - pi * qi, pr * qi + pi * qr, pe + qe, wp)
                # |log tail| <= sum_{j>k} |a q^j| / (1 - |a q^j|)
                mag = mag0 * absq ** last
                tail_log += mag * absq / ((1 - absq) * (1 - mag))
            products.append(Fixed(vr, vi if complex_value else None, ve, wp))
        bound = mp.expm1(tail_log)
        if not bound < ctx.target_tol:
            raise NonConvergenceError(
                f"infinite product not certified: relative tail bound {mp.nstr(bound, 3)}")
        den, num = products
        return (num / den if dens else num).to_mp()


def pochhammer_infinite(a, q, ctx: QContext):
    """(a;q)_infinity: the one-factor :func:`infinite_product`."""
    return infinite_product([a], [], q, ctx)


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient as an exact integer-coefficient QPoly;
    zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return QPoly.zero()
    poly = QPoly.one()
    for i in range(1, k + 1):
        poly = poly.times_one_minus(n - k + i).divexact_one_minus(i)
    return poly


def _one_like(q):
    if isinstance(q, (int, Fraction)):
        return Fraction(1)
    if isinstance(q, Fixed):
        return q.like(1)
    return mp.mpf(1)
