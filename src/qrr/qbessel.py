"""The three modified q-Bessel functions and their special-point machinery.

Every kind, of either the I or the J form, sums the one series
sum_n x^n q^{alpha n^2} / ((q;q)_n (q^{nu+1};q)_n), where the kind sets
(alpha, x).  Integer orders take the prefactor (z/2)^m / (q;q)_m, negative
integer orders of kinds 1 and 2 the reflection I_{-m} = I_m; other orders use
the classical prefactor.  The analytic continuation of kind 1, the
order-generating function, the partial-fraction expansion and the
large-argument main term all live here.

Every numeric series is defined by its term ratio, as in
:mod:`qrr.qfunctions`: each term comes from the previous one by
multiplication, with the q-powers, x-powers and Pochhammer ratios carried as
running streams that live for one sum.  The Stieltjes-Wigert values
S_n(x q^{-n}) are one row walk, :func:`~qrr.qpolynomials._sw_shifted`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from operator import mul

import mpmath as mp

from .context import QContext, kept, powq, to_mp
from .errors import DomainError
from .pochhammer import (_Q1, QPow, _gaussian, _pole_factors, _value, infinite_product,
                         pochhammer_finite)
from .qfunctions import _series
from .qpolynomials import (_binomial_powers, _qbinomials, _sw_shifted, q_lommel_p,
                           stieltjes_wigert)
from .summation import _ratio_terms


def as_order(nu) -> Fraction:
    """Normalize an order to an exact Fraction (floats go through str)."""
    if isinstance(nu, float):
        return Fraction(str(nu))
    return Fraction(nu)


def bessel_i(kind: int, nu, z, ctx: QContext):
    """Modified q-Bessel function of the given kind (1, 2, or 3).

    Kind 1 uses the defining series and is restricted to |z| < 2 (use
    :func:`i1_continued` beyond); kinds 2 and 3 are entire apart from the
    z^nu prefactor.  Negative integer orders are supported for kinds 1 and 2
    through the reflection I_{-m} = I_m.
    """
    if kind not in (1, 2, 3):
        raise DomainError(f"kind must be 1, 2 or 3, got {kind}")
    with ctx.workdps():
        zv = to_mp(z)
        if kind == 1 and abs(zv) >= 2:
            raise DomainError("kind-1 series needs |z| < 2; use i1_continued")
        nu = as_order(nu)
        if nu < 0 and nu.denominator == 1:
            if kind == 3:
                raise DomainError("negative integer order implemented for kinds 1 and 2 only")
            nu = -nu
    return _bessel(kind, nu, zv, 1, ctx)


def bessel_j(kind: int, nu, z, ctx: QContext):
    """q-Bessel function of kind 1 or 2 (alternating series form)."""
    if kind not in (1, 2):
        raise DomainError("kinds 1 and 2 only")
    with ctx.workdps():
        zv = to_mp(z)
        if kind == 1 and abs(zv) >= 2:
            raise DomainError("kind-1 series needs |z| < 2")
    return _bessel(kind, as_order(nu), zv, -1, ctx)


@kept
def _bessel(kind: int, nu: Fraction, zv, sign: int, ctx: QContext):
    """(z/2)^nu (q^{nu+1};q)_inf / (q;q)_inf times the kind's series at
    x = sign (z/2)^2.  At an order m = 0, 1, ... the prefactor is
    (z/2)^m / (q;q)_m; at a negative integer order the series has a pole.

    Kind k weights term n by q^{w_k(n)}, w = 0, n(n + nu), binom(n, 2), that
    is by q^{alpha n^2} (q^shift)^n with the (alpha, shift) below.
    """
    q = ctx.q
    if zv == 0:
        if nu < 0:
            raise DomainError("z = 0 with negative order")
        return mp.mpf(1) if nu == 0 else mp.mpf(0)
    with ctx.workdps():
        half = zv / 2
        if nu.denominator == 1 and nu >= 0:
            pref = half ** int(nu) / pochhammer_finite(q, q, int(nu))
        else:
            pref = (mp.power(half, mp.mpf(nu.numerator) / nu.denominator)
                    * infinite_product([QPow(1, nu + 1)], [q], q, ctx))
        alpha, shift = {1: (0, 0), 2: (1, nu), 3: (Fraction(1, 2), Fraction(-1, 2))}[kind]
        return pref * _bessel_series(nu, alpha, sign * half ** 2 * powq(q, shift), ctx)


def _bessel_series(nu: Fraction, alpha, x, ctx: QContext):
    """sum_n x^n q^{alpha n^2} / ((q;q)_n (q^{nu+1};q)_n): the series of every
    kind, and of the special-value identity."""
    return _series(lambda q: _ratio_terms([], [_Q1, QPow(1, nu + 1)], q,
                                          powq(q, alpha) * x, powq(q, 2 * alpha)), ctx)


def _with_quarter_square(z, q):
    """(value of z, z^2/4 as a QPow) for a plain number or a QPow z = c q^e;
    an int or Fraction c keeps the coefficient of z^2/4 exact."""
    zv = _value(z, q)
    if not isinstance(z, QPow):
        return zv, QPow(zv ** 2 / 4, 0)
    c = (Fraction(z.coeff) if isinstance(z.coeff, (int, Fraction))
         else to_mp(z.coeff))
    return zv, QPow(c ** 2 / 4, 2 * Fraction(z.exponent))


def i1_continued(nu, z, ctx: QContext):
    """Kind-1 function continued to the plane: I^{(2)}_nu(z) / (z^2/4; q)_inf.

    ``z`` may be a QPow c*q^e so that poles z^2/4 = q^{-k} are detected
    exactly; a plain number raises PoleError only on an exact zero factor.
    """
    with ctx.workdps():
        q = ctx.q
        zv, z24 = _with_quarter_square(z, q)
        return infinite_product([], [z24], q, ctx) * bessel_i(2, nu, zv, ctx)


def special_value_sides(variant: int, nu, n: int, ctx: QContext):
    """Both sides of the special-point evaluation at z = 2 q^{-n/2}.

    variant 4: RHS = q^{nu n/2} S_n(-q^{-nu-n}; q) / (q^{n+1}; q)_inf;
    variant 5: RHS = q^{-nu n/2} S_n(-q^{nu-n}; q) / (q^{n+1}; q)_inf.
    """
    if variant not in (4, 5):
        raise DomainError("variant must be 4 or 5")
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        z = 2 * powq(q, Fraction(-n, 2))
        lhs = bessel_i(2, nu, z, ctx)
        tail = infinite_product([], [QPow(1, n + 1)], q, ctx)
        sign = 1 if variant == 4 else -1
        rhs = (powq(q, sign * nu * n / 2)
               * stieltjes_wigert(n, -powq(q, -sign * nu - n), q) * tail)
        return lhs, rhs


def sv_series_form_values(nu, n: int, ctx: QContext):
    """The three expressions of the special-value identity written as series.

    Returns (infinite series, first finite form, second finite form):
        sum_k q^{k(k+nu-n)} / ((q;q)_k (q^{nu+1};q)_k),
        q^{n nu}/(q^{nu+1};q)_inf * sum_k [n,k] q^{k^2 - k(nu+n)},
        1/(q^{nu+1};q)_inf * sum_k [n,k] q^{k^2 + k(nu-n)}.
    """
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        x = powq(q, nu - n)
        series = _bessel_series(nu, 1, x, ctx)
        tail = infinite_product([], [QPow(1, nu + 1)], q, ctx)
        qf = ctx.fixed_q
        binoms = list(_qbinomials(n, qf))
        s4, s5 = (sum(map(mul, binoms, _gaussian(qf, 1, powq(qf, e)))).to_mp()
                  for e in (-nu - n, nu - n))
        return series, powq(q, n * nu) * s4 * tail, s5 * tail


def gen_func_sides(z, t, ctx: QContext):
    """Order-generating function: bilateral sum of q^binom(m,2) I_m^{(2)} t^m
    against the closed two-factor product.  Returns (lhs, rhs)."""
    with ctx.workdps():
        q = ctx.q
        zv, tv = to_mp(z), to_mp(t)
        if tv == 0:
            raise DomainError("t must be nonzero")
        # at m = -k the weight q^binom(m,2) t^m is q^binom(k,2) (q/t)^k
        def streams(q):
            t = q.like(tv)
            return (map(mul, _binomial_powers(t, q),
                        (bessel_i(2, m, zv, ctx) for m in count())),
                    map(mul, islice(_binomial_powers(q / t, q), 1, None),
                        (bessel_i(2, m, zv, ctx) for m in count(-1, -1))))

        lhs = _series(streams, ctx)
        rhs = infinite_product([-tv * zv / 2, -q * zv / (2 * tv)], [], q, ctx)
        return lhs, rhs


def mittag_leffler_rhs(nu, z, ctx: QContext):
    """Partial-fraction expansion side of the continued kind-1 function.

    (z/2)^nu / (q;q)_inf^2 * sum_n (-1)^n q^binom(n+1,2) S_n(-q^{nu-n}; q)
    / (1 - z^2 q^n / 4).  Same pole set as i1_continued.
    """
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        zv, z24 = _with_quarter_square(z, q)

        def terms(q):
            # (-1)^n q^binom(n+1,2) = q^binom(n,2) (-q)^n
            for w, s, f in zip(_binomial_powers(-q, q), _sw_shifted(-powq(q, nu), q),
                               _pole_factors(z24, q, where="partial-fraction sum")):
                yield w * s / f

        series = _series(terms, ctx)
        pref = (mp.power(zv / 2, mp.mpf(nu.numerator) / nu.denominator)
                * infinite_product([], [q, q], q, ctx))
        return pref * series


def asymptotic_main_term(nu, r, ctx: QContext):
    """Leading large-argument term of the kind-2 function at positive r."""
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        rv = to_mp(r)
        if not rv > 0:
            raise DomainError("main term stated for r > 0")
        sq = mp.sqrt(q)
        arg = rv * powq(q, (nu + Fraction(1, 2)) / 2) / 2
        bracket = (infinite_product([arg], [], sq, ctx)
                   + infinite_product([-arg], [], sq, ctx))
        pref = (mp.power(rv / 2, mp.mpf(nu.numerator) / nu.denominator)
                * infinite_product([QPow(1, Fraction(1, 2))], [q], q, ctx) / 2)
        return pref * bracket


def lommel_relation_sides(n: int, nu, x, ctx: QContext):
    """The two sides of the three-term ladder relation for kind-2 functions:

    (-1)^n q^{n nu + n(n-1)/2} I_{nu+n} = p_{n,nu}(1/x) I_nu
                                          - p_{n-1,nu+1}(1/x) I_{nu-1}.

    Returns (lhs, rhs).
    """
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        if xv == 0:
            raise DomainError("x must be nonzero")
        lhs = ((-1) ** n * powq(q, n * nu + Fraction(n * (n - 1), 2))
               * bessel_i(2, nu + n, xv, ctx))
        qnu = powq(q, nu)
        rhs = (q_lommel_p(n, 1 / xv, q, qnu) * bessel_i(2, nu, xv, ctx)
               - q_lommel_p(n - 1, 1 / xv, q, qnu * q) * bessel_i(2, nu - 1, xv, ctx))
        return lhs, rhs


def lommel_relation_j_sides(n: int, nu, x, ctx: QContext):
    """Same ladder in its alternating-series (J) form, via h = i^n p(-i x).
    Returns (lhs, rhs)."""
    nu = as_order(nu)
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        i = mp.mpc(0, 1)
        qnu = powq(q, nu)

        def h(nn, qn, arg):
            return i ** nn * q_lommel_p(nn, -i * arg, q, qn)

        lhs = (powq(q, n * nu + Fraction(n * (n - 1), 2))
               * bessel_j(2, nu + n, xv, ctx))
        rhs = (h(n, qnu, 1 / xv) * bessel_j(2, nu, xv, ctx)
               - h(n - 1, qnu * q, 1 / xv) * bessel_j(2, nu - 1, xv, ctx))
        return lhs, rhs
