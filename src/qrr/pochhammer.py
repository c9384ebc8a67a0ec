"""q-shifted factorials, safe reciprocals, and q-binomial coefficients.

The finite product (a;q)_n extends to negative n through the ratio
convention (a;q)_{-k} = 1/((a q^{-k}; q)_k).  Reciprocals are exposed
separately (:func:`inv_pochhammer`) so that 1/(q;q)_{-k} can be an exact
zero instead of a division by an infinity: bilateral sums rely on that
vanishing to collapse onto their unilateral halves.

Arguments may be plain numbers or :class:`QPow` pairs ``c * q**e``.  The
structured form keeps exponent bookkeeping exact, so a factor such as
1 - a*q^0 at a = 1 vanishes identically rather than to roundoff.

Every numeric quotient of infinite products over one base is one
:func:`infinite_product` walk, which returns its value certified to
10^-precision relative or raises NonConvergenceError; a vanishing
denominator factor is a PoleError naming that factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import mpmath as mp

from .context import MAX_TERMS, QContext, powq, to_mp
from .errors import NonConvergenceError, PoleError
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


def pochhammer_finite(a, q, n: int):
    """(a;q)_n for any integer n.

    Exact finite product for n >= 0; for n < 0 the ratio convention gives
    1/((a q^n; q)_{-n}) and a vanishing denominator factor raises PoleError.
    Works on mp numbers and on Fractions alike.
    """
    a = _as_qpow(a)
    if n >= 0:
        prod = _one_like(q)
        for f in islice(_factors(a, q), n):
            prod = prod * f
        return prod
    denom = _one_like(q)
    for j, f in enumerate(islice(_factors(a, q, -1, -1), -n), 1):
        if f == 0:
            raise PoleError(f"(a;q)_{n} hits zero factor at q^(-{j})")
        denom = denom * f
    return 1 / denom


def inv_pochhammer(a, q, n: int):
    """1 / (a;q)_n, with the n < 0 case returned as an exact finite product.

    1/(a;q)_{-k} = (a q^{-k}; q)_k may legitimately be zero (for instance
    1/(q;q)_{-k} = 0), which is why this path never divides.
    """
    a = _as_qpow(a)
    if n < 0:
        prod = _one_like(q)
        for f in islice(_factors(a, q, -1, -1), -n):
            if f == 0:
                return 0 * _one_like(q)
            prod = prod * f
        return prod
    denom = pochhammer_finite(a, q, n)
    if denom == 0:
        raise PoleError(f"(a;q)_{n} vanished; reciprocal undefined")
    return 1 / denom


def pochhammer_ratio(a, b, q, n: int):
    """(a;q)_n / (b;q)_n with exact-zero and pole handling on both tails.

    For n = -k the ratio equals (b q^{-k};q)_k / (a q^{-k};q)_k; a vanishing
    numerator kills the term exactly, a vanishing denominator is a pole, and
    both vanishing at once is reported as a pole (indeterminate).
    """
    a, b = _as_qpow(a), _as_qpow(b)
    if n >= 0:
        num = pochhammer_finite(a, q, n)
        den = pochhammer_finite(b, q, n)
        if den == 0:
            raise PoleError(f"(b;q)_{n} vanished in denominator")
        return num / den
    k = -n
    num = _one_like(q)
    num_zero = False
    for f in islice(_factors(b, q, -1, -1), k):
        if f == 0:
            num_zero = True
            break
        num = num * f
    den = _one_like(q)
    for f in islice(_factors(a, q, -1, -1), k):
        if f == 0:
            if num_zero:
                raise PoleError(f"indeterminate (a;q)_{n}/(b;q)_{n}: both tails vanish")
            raise PoleError(f"(a;q)_{n} infinite: zero factor in its reciprocal")
        den = den * f
    if num_zero:
        return 0 * _one_like(q)
    return num / den


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
            raise PoleError(f"infinite product needs |q| < 1, got {qv}")
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
                            c = mp.nstr(to_mp(a.coeff), 8)
                            raise PoleError(f"denominator factor 1 - {c} q^({a.exponent + k}) "
                                            "of the infinite product vanished")
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
        poly = poly - poly.shift(n - k + i)  # multiply by (1 - q^{n-k+i})
        poly = poly.divexact_one_minus(i)
    return poly


def _one_like(q):
    if isinstance(q, (int, Fraction)):
        return Fraction(1)
    if isinstance(q, Fixed):
        return q.like(1)
    return mp.mpf(1)
