"""q-shifted factorials, their ratios, and q-binomial coefficients.

The finite product (a;q)_n extends to negative n through the ratio
convention (a;q)_{-k} = 1/((a q^{-k}; q)_k).  Every finite value and every
ratio of two (:func:`pochhammer_ratio`) is one factor walk, :func:`_product`,
over the factors of :func:`_factors`, or of :func:`_pole_factors` where the
walk is a denominator.  The numeric kernels carry their Pochhammer ratios as
one fused stream, :func:`~qrr.summation._ratio_terms`; these values serve
exact sums, prefactors and the tests' per-term oracles.  The generic stream
helpers live here too: :func:`_ratios_up`, the Gaussian weights of
:func:`_gaussian` and the powers of :func:`_geometric`, exact for Fraction q
and Fixed for a Fixed q.

Arguments may be plain numbers or :class:`QPow` pairs ``c * q**e``.  The
structured form keeps exponent bookkeeping exact, so a factor such as
1 - a*q^0 at a = 1 vanishes identically rather than to roundoff.

Every numeric quotient of infinite products over one base is one
:func:`infinite_product` call, a short walk of each factor and one log
series shared by all of them, which returns its value certified to
10^-precision relative or raises NonConvergenceError.  A vanishing
denominator factor, here or in any series, is the PoleError of :func:`pole`,
which names that factor.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import islice
from math import prod
from typing import NamedTuple

import mpmath as mp

from .context import MAX_TERMS, QContext, kept, powq, to_mp
from .errors import DomainError, NonConvergenceError, PoleError
from .exactpoly import QPoly
from .fixedpoint import LN2, Fixed, cut, one_minus, parts, shifted


class QPow(NamedTuple):
    """A coefficient times an exact power of q: ``coeff * q**exponent``."""

    coeff: object
    exponent: object  # int or Fraction


def _as_qpow(a) -> QPow:
    return a if isinstance(a, QPow) else QPow(a, 0)


_Q1 = QPow(1, 1)  # the parameter q itself, as in (q;q)_n


def _value(x, q):
    """Numeric value of a plain number or a QPow relative to q."""
    if isinstance(x, QPow):
        return to_mp(x.coeff) * powq(q, x.exponent)
    return to_mp(x)


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

    Two stages.  **Walk:** each factor c walks its factors 1 - c q^k in fixed
    point at ``ctx.fixed_bits`` while |c q^k| > 2^-b, b = sqrt(B log2(1/|q|))
    with B = -``ctx.tail_log2`` (clamped to [1, B]; about 19 at q = 0.3 and
    precision 50; a wider rerun raises B by its added bits), and always up to
    the factor whose joint exponent is 0, which is 1 - c exactly.  Denominators
    walk first: a vanishing one is a PoleError naming it, and a vanishing
    numerator factor then makes the product 0.  **Log series:** every factor
    left, from x = c q^N on, is one (x;q)_inf, and
    log (x;q)_inf = -sum_k x^k / (k (1 - q^k)) (Gasper and Rahman, ch. 1),
    so all of them are one series
    L = sum_k (sum_den y^k - sum_num x^k) / (k (1 - q^k)) with the divisor
    made once per k.  Each |x| is at most min(|c q^0|, 2^-b), and the series
    stops at the first K at which its remainder,
    sum_x |x|^(K+1) / ((K+1) (1 - |q|^(K+1)) (1 - |x|)) at most, bounded as
    in :func:`_log_terms`, lies below 2^``ctx.tail_log2``; the walk's
    quotient times exp(L) is the value, of relative error at most
    exp(bound) - 1 beyond rounding.  At precision 50 and q = 0.3, (q;q)_inf
    takes 11 walk steps and 10 log terms, where a walk to the stop tolerance
    takes 115.

    NonConvergenceError: that bound not below 10^-precision, or a factor past
    the budget: a walk to the first pass's stop tolerance may not take
    ``MAX_TERMS`` factors, counted from log |c| and log |q| (:func:`_budget`).
    """
    with ctx.workdps():
        qv = to_mp(q)
        if abs(qv) >= 1:
            raise DomainError(f"infinite product needs |q| < 1, got {qv}")
        qf = ctx.fixed_q if qv is ctx.q else ctx.fixed(qv)
        wp, one = qf.wp, qf.like(1)
        qr, qi, qe = parts(qf)
        lam = float(-mp.log(abs(qv), 2))   # log2 1/|q|, inf at q = 0
        bits = -ctx.tail_log2
        b = min(bits, max(1.0, math.sqrt(bits * lam)))
        complex_value = qf.im is not None
        # each factor's x = c q^N once walked: (re, im, sign) at 2^-wp, and
        # the float log2 of a bound on |x|
        products, xs, x_log2 = [], [], []
        first = replace(ctx, extra_bits=0)  # the first pass's context, for _budget
        for is_den, group in ((True, dens), (False, nums)):
            vr, vi, ve = 1, 0, 0
            for a in map(_as_qpow, group):
                power = powq(qf, a.exponent) * a.coeff
                complex_value = complex_value or power.im is not None
                pr, pi, pe = parts(power)
                top = _log2_abs(pr, pi, pe)   # log2 |a q^0|
                _budget(a, top, lam, qv, first)
                k0 = -a.exponent  # the step whose joint exponent is 0, as an int or None
                zero_at = int(k0) if k0 >= 0 and k0 == int(k0) else None
                steps = int((top + b) / lam) + 1 if top > -b else 0
                if zero_at is not None:
                    steps = max(steps, zero_at + 1)
                exact = parts(one - a.coeff)
                for k in range(steps):
                    fr, fi, fe = exact if k == zero_at else one_minus(pr, pi, pe, wp)
                    if not (fr or fi):
                        if is_den:
                            raise pole(a.coeff, a.exponent + k, "infinite product")
                        return mp.mpf(0)
                    vr, vi, ve = cut(vr * fr - vi * fi, vr * fi + vi * fr, ve + fe, wp)
                    pr, pi, pe = cut(pr * qr - pi * qi, pr * qi + pi * qr, pe + qe, wp)
                xs.append((shifted(pr, pe + wp), shifted(pi, pe + wp), 1 if is_den else -1))
                x_log2.append(min(top, -b))
            products.append(Fixed(vr, vi if complex_value else None, ve, wp))
        terms, log_bound = _log_terms(x_log2, lam, ctx.tail_log2)
        # below 2^tail_log2 the bound is far below 10^-precision
        if not log_bound < ctx.tail_log2:
            bound = mp.mpf(2) ** log_bound
            if not mp.expm1(bound) < ctx.target_tol:
                raise NonConvergenceError(
                    f"infinite product not certified: relative tail bound {mp.nstr(bound, 3)}")
        den, num = products
        value = (num / den if dens else num).to_mp()
        lr, li = _log_series(xs, terms, qf)
        if lr or li:
            value *= mp.exp(Fixed(lr, li if complex_value else None, -wp, wp).to_mp())
        return value


def _log2_abs(re, im, e) -> float:
    """Float log2 of |(re + i im) 2^e|, -inf at 0."""
    return 0.5 * math.log2(re * re + im * im) + e if re or im else -math.inf


def _budget(a: QPow, top, lam, qv, first: QContext):
    """NonConvergenceError when the walk of ``a`` to the stop tolerance of
    ``first``, the first pass's context (so that a rerun walks every product
    its first pass walked), would take ``MAX_TERMS`` factors or more.  The
    float count ``top``/``lam`` decides far from it, an mp count near it."""
    if top - first.stop_log2 < (MAX_TERMS - 2) * lam:
        return
    absq = abs(qv)
    mag0 = abs(to_mp(a.coeff)) * powq(absq, a.exponent)  # |a q^0|
    last = (0 if mag0 < first.stop_tol else
            int(mp.floor(mp.log(mag0 / first.stop_tol) / -mp.log(absq))) + 1)
    if last >= MAX_TERMS:
        raise NonConvergenceError(
            f"(a;q)_inf needs {last + 1} factors, over the budget of {MAX_TERMS}")


def _log_terms(x_log2, lam, level):
    """(K, log2 bound): the number K of log-series terms over factors
    |x| <= 2^t, t in ``x_log2``, whose remainder bound lies below 2^level,
    and that bound.  With T the largest t, for n = K + 1 >= 1,
    sum_x |x|^n / (n (1 - |q|^n) (1 - |x|))
    <= 2^(n T) sum_x 2^(t - T) / (1 - 2^t) / (n (1 - |q|^n)), |q| = 2^-lam.
    Float log2 throughout, each t raised by 2^-20 for its rounding."""
    x_log2 = [t + 2.0 ** -20 for t in x_log2 if t > -math.inf]
    if not x_log2:
        return 0, -math.inf
    top = max(x_log2)
    head = math.log2(sum(2.0 ** (t - top) / (1 - 2.0 ** t) for t in x_log2))
    for n in range(1, MAX_TERMS + 1):
        # log2 (1 - |q|^n), exact to a few ulps also for |q| near 1
        log_bound = (n * top + head - math.log2(n)
                     - math.log2(-math.expm1(-lam * n * LN2)))
        if log_bound < level:
            break
    return n - 1, log_bound


def _log_series(xs, terms: int, qf: Fixed):
    """The first ``terms`` terms of sum_k (sum_den y^k - sum_num x^k) /
    (k (1 - q^k)) in fixed point at 2^-wp, as the ints (re, im): ``xs``
    holds each x as (re, im, sign) at that scale, sign 1 for a denominator
    and -1 for a numerator factor."""
    wp = qf.wp
    unit = 1 << wp
    qr, qi, qe = parts(qf)
    qr, qi = shifted(qr, qe + wp), shifted(qi, qe + wp)
    powers = [(xr, xi) for xr, xi, _ in xs]
    kr, ki = qr, qi     # q^k
    lr = li = 0
    for k in range(1, terms + 1):
        sr = si = 0
        for i, (xr, xi, sign) in enumerate(xs):
            pr, pi = powers[i]
            sr += sign * pr
            si += sign * pi
            powers[i] = (pr * xr - pi * xi) >> wp, (pr * xi + pi * xr) >> wp
        dr, di = k * (unit - kr), -k * ki
        norm = dr * dr + di * di
        lr += ((sr * dr + si * di) << wp) // norm
        li += ((si * dr - sr * di) << wp) // norm
        kr, ki = (kr * qr - ki * qi) >> wp, (kr * qi + ki * qr) >> wp
    return lr, li


def _geometric(x0, ratio):
    """Yield x0, x0 * ratio, x0 * ratio**2, ..."""
    while True:
        yield x0
        x0 = x0 * ratio


def _gaussian(q, alpha, x, n=0):
    """Yield q^(alpha m^2) x^m for m = n, n + 1, ..., two multiplications each.

    The step q^(alpha (2m+1)) x is itself carried, growing by q^(2 alpha).
    """
    g = powq(q, alpha * n * n) * x ** n
    step = powq(q, alpha * (2 * n + 1)) * x
    q2a = powq(q, 2 * alpha)
    while True:
        yield g
        g = g * step
        step = step * q2a


def _ratios_up(a: QPow, q):
    """Yield (a;q)_n / (q;q)_n for n = 0, 1, 2, ..., exact for Fraction q,
    for finite exact or mpf sums; a fixed-point series is
    :func:`~qrr.summation._ratio_terms`.

    The factors 1 - q^(n+1) never vanish for 0 < |q| < 1.
    """
    r = _one_like(q)
    for fa, fb in zip(_factors(a, q), _factors(_Q1, q)):
        yield r
        r = r * fa / fb


def pochhammer_infinite(a, q, ctx: QContext):
    """(a;q)_infinity: the one-factor :func:`infinite_product`."""
    return infinite_product([a], [], q, ctx)


@cache
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient as an exact integer-coefficient QPoly;
    zero outside 0 <= k <= n.  Cached: the explicit sums of ``cd-three-way``
    and the Schur-type polynomials read each one for many indices."""
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
