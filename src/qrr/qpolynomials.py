"""Polynomial families and the identities built around them.

Covers the q^{k^2}-weighted orthogonal polynomials S_n, the two Schur-type
sequences entering the shifted gap identities, the (a, q) recurrence pair
c_n / d_n with its three constructions, the normalized ladder polynomials
p_{n,nu} and their u_n(x, y) relatives, the inverse-base Hermite family, and
the section of product/series kernels that tie them together.

Scalar evaluators are generic over the coefficient type: Fractions in give
exact Fractions out, mp numbers give mp numbers.  Formal builders return
:class:`~qrr.formal.FormalSeries`.

Every numeric series, and every finite sum, is defined by its term ratio, as
in :mod:`qrr.qfunctions`: each term comes from the previous one by
multiplication, with the q-powers, x-powers, Gaussian binomials and
Pochhammer ratios carried as running streams that live for one sum.  A numeric
Pochhammer ratio and its q-power weight are one fused
:func:`~qrr.summation._ratio_terms` stream.  The values S_n(x q^{-n}), whose
degree moves with n, are one q-Pascal row walk, :func:`_sw_shifted`.  The
values A_q(x q^k) of ``st-5.3`` are one ladder, a backward recurrence from two
direct values (:func:`_entire_ladder`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, islice, repeat
from math import lcm
from operator import mul, truediv

import mpmath as mp

from .context import QContext, kept, powq, to_mp
from .errors import DomainError, PrecisionLossError, SingularDeltaError
from .exactpoly import BivariatePoly, QPoly
from .fixedpoint import bits_for_digits, rounding_bits
from .formal import (FormalSeries, _fractions, _one_minus, fs_pochhammer,
                     fs_pochhammer_infinite, fs_ratio_sum, qexp_to_u)
from .ladders import (_backward_ladder, _ladder_stream, _ladder_top, _log2_one_minus,
                      _log2_series)
from .pochhammer import (_Q1, QPow, _factors, _gaussian, _geometric, _one_like, _ratios_up,
                         _value, infinite_product, pochhammer_finite, q_binomial)
from .qfunctions import (_series, ramanujan_A, rr_product_formal, rr_sum_formal,
                         u_m_bilateral)
from .summation import _ratio_terms


# ---------------------------------------------------------------------------
# S_n and its immediate relations
# ---------------------------------------------------------------------------

def _qbinomials(n: int, q):
    """Yield the Gaussian binomials [n,k]_q for k = 0, ..., n, exact for
    Fraction q: term k + 1 is term k times (1 - q^{n-k}) / (1 - q^{k+1})."""
    return accumulate(map(truediv, islice(_factors(QPow(1, n), q, 0, -1), n),
                          _factors(_Q1, q)), mul, initial=_one_like(q))


def _binomial_powers(x, q):
    """Yield q^binom(k,2) x^k for k = 0, 1, ..., exact for Fraction inputs:
    term k + 1 is term k times x q^k."""
    return accumulate(_geometric(x, q), mul, initial=_one_like(q))


def _sw_shifted(x, q):
    """Yield S_n(x q^{-n}; q) for n = 0, 1, ... by one q-Pascal row walk.

    Row n holds u_n[k] = [n,k]_q q^{k(k-n)} (-x)^k, k = 0..n, and S_n(x q^{-n})
    = sum_k u_n[k] / (q;q)_n.  By [n,k] = q^k [n-1,k] + [n-1,k-1], u_n[k] =
    u_{n-1}[k] + g_{n-k} u_{n-1}[k-1] with g_j = -x q^{-j} (u_{n-1} is 0 off
    0..n-1), updated in place for falling k: one multiplication and one addition
    per entry, one division per degree.  Exact for Fraction inputs; for Fixed
    ones an entry of row n ends about 3n roundings, the sum adds n and (q;q)_n
    2n, well inside the ROUNDINGS * (n + 1)**2 of stream term n.
    """
    one = _one_like(q)
    row, g, gs = [one], [], _geometric(-x, 1 / q)
    for n, poch in enumerate(accumulate(_factors(_Q1, q), mul, initial=one)):
        yield sum(row) / poch
        g.append(next(gs))  # g_n; row n + 1 reads g_0 .. g_n
        row.append(g[0] * row[n])
        for k in range(n, 0, -1):
            row[k] = row[k] + g[n + 1 - k] * row[k - 1]


def stieltjes_wigert(n: int, x, q):
    """S_n(x; q) = (1/(q;q)_n) sum_k [n,k]_q q^{k^2} (-x)^k, exact for
    Fraction inputs."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    acc = sum(map(mul, _qbinomials(n, q), _gaussian(q, 1, -x)), 0 * _one_like(q))
    return acc / pochhammer_finite(q, q, n)


def stieltjes_wigert_second(n: int, x, q):
    """The equivalent base-shifted form of S_n(x; q):
    (1/(q;q)_n) sum_k (q^{-n};q)_k / (q;q)_k q^{binom(k+1,2)} (x q^n)^k."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    # q^binom(k+1,2) (x q^n)^k = q^binom(k,2) (x q^{n+1})^k
    terms = map(mul, _ratios_up(QPow(1, -n), q),
                _binomial_powers(x * q ** (n + 1), q))
    return sum(islice(terms, n + 1), 0 * _one_like(q)) / pochhammer_finite(q, q, n)


def sw_symmetry_sides(n: int, t, q):
    """q^{n^2} (-t)^n S_n(q^{-2n}/t; q) and S_n(t; q), as (lhs, rhs); equal
    for exact inputs."""
    lhs = q ** (n * n) * (-t) ** n * stieltjes_wigert(n, q ** (-2 * n) / t, q)
    return lhs, stieltjes_wigert(n, t, q)


def _sw_numerators(n: int, x_coeff, x_qexp, shift, ctx: QContext):
    """q^{shift} * S_n(c q^e; q) in the exact ring as integer numerators over
    one denominator, (numerators, c_den^n).

    With c = c_num / c_den, (-c)^k = (-c_num)^k c_den^(n-k) / c_den^n, so the
    k-sum of [n,k]_q q^{k^2} (-c q^e)^k has integer numerators, and the
    division by (q;q)_n, whose factors 1 - q^i have coefficient 1, keeps them
    integers (:func:`~qrr.formal._one_minus`).  The shift must absorb every
    negative exponent the k-sum produces; an out-of-ring monomial raises
    ExponentError, which always indicates a mis-normalized identity rather
    than an input error.
    """
    x_qexp, shift = Fraction(x_qexp), Fraction(shift)
    top, D = ctx.u_order, ctx.base_exponent
    acc = [0] * (top + 1)
    num, den = -x_coeff.numerator, x_coeff.denominator
    binom = QPoly.one()
    for k in range(n + 1):
        if k:  # [n,k] = [n,k-1] (1 - q^(n-k+1)) / (1 - q^k): one row walk
            binom = binom.times_one_minus(n - k + 1).divexact_one_minus(k)
        base = qexp_to_u(k * k + k * x_qexp + shift, ctx)
        coeff = num ** k * den ** (n - k)
        for j, a in enumerate(binom.coeffs()):
            e = base + j * D
            if e > top:
                break
            if a:
                acc[e] += coeff * a
    for i in range(1, n + 1):
        _one_minus(acc, 1, 1, i * D, inverse=True)
    return acc, den ** n


def sw_formal(n: int, x_coeff, x_qexp, shift, ctx: QContext) -> FormalSeries:
    """q^{shift} * S_n(c q^e; q) in the exact ring: the numerators of
    :func:`_sw_numerators` over their denominator, reduced once."""
    m, d = _sw_numerators(n, x_coeff, x_qexp, shift, ctx)
    return FormalSeries(ctx.base_exponent, ctx.u_order, _fractions(m, d))


# ---------------------------------------------------------------------------
# the two Schur-type sequences and the (a, q) recurrence pair
# ---------------------------------------------------------------------------

@cache
def schur_a(m: int) -> QPoly:
    """First Schur-type polynomial; closed form for m >= 2, recurrence seeds
    a_0 = 1, a_1 = 0 below that."""
    if m < 0:
        raise DomainError("index must be >= 0")
    if m == 0:
        return QPoly.one()
    if m == 1:
        return QPoly.zero()
    acc = QPoly.zero()
    j = 0
    while m - j - 2 >= j:
        acc = acc + q_binomial(m - j - 2, j).shift(j * j + j)
        j += 1
    return acc


@cache
def schur_b(m: int) -> QPoly:
    """Second Schur-type polynomial; closed form for m >= 1, b_0 = 0."""
    if m < 0:
        raise DomainError("index must be >= 0")
    if m == 0:
        return QPoly.zero()
    acc = QPoly.zero()
    j = 0
    while m - j - 1 >= j:
        acc = acc + q_binomial(m - j - 1, j).shift(j * j)
        j += 1
    return acc


def c_poly(n: int, construction: str = "recurrence") -> BivariatePoly:
    """First solution of y_{m+1} = q^{m-1} y_{m-1} + a y_m with (c_0, c_1) =
    (1, 0); ``construction`` in {recurrence, explicit, generating}."""
    return _cd_poly(n, construction, which="c")


def d_poly(n: int, construction: str = "recurrence") -> BivariatePoly:
    """Second solution, with (d_0, d_1) = (0, 1)."""
    return _cd_poly(n, construction, which="d")


def _cd_poly(n: int, construction: str, which: str) -> BivariatePoly:
    if n < 0:
        raise DomainError("index must be >= 0")
    if construction == "recurrence":
        y0 = BivariatePoly.one() if which == "c" else BivariatePoly.zero()
        y1 = BivariatePoly.zero() if which == "c" else BivariatePoly.one()
        if n == 0:
            return y0
        prev, cur = y0, y1
        for m in range(1, n):
            prev, cur = cur, prev.shift(0, m - 1) + cur.shift(1, 0)
        return cur
    if construction == "explicit":
        # sum_j [n-j-off, j] a^{n-2j-off} q^{j^2 + wj}: (off, w) = (2, 1) for c,
        # (1, 0) for d; the empty sum gives c_1 = d_0 = 0
        if which == "c" and n == 0:
            return BivariatePoly.one()
        # each j has its own power of a, so the coefficients go straight
        # into one map
        off, w = (2, 1) if which == "c" else (1, 0)
        terms = {}
        for j in range((n - off) // 2 + 1):
            for dq, coeff in enumerate(q_binomial(n - j - off, j).coeffs()):
                terms[n - 2 * j - off, dq + j * j + w * j] = coeff
        return BivariatePoly(terms)
    if construction == "generating":
        return _cd_from_generating(n, which)
    raise DomainError(f"unknown construction {construction!r}")


def _cd_from_generating(n: int, which: str) -> BivariatePoly:
    """Coefficient of t^n in the closed t-series for the chosen family:
    sum_m q^w t^(2m + off) / (a t; q)_(m + off), with (off, w) = (0, m(m - 1))
    for c and (1, m^2) for d.

    Term m reads the t-series of 1/(a t; q)_(m + off) at degree
    top = n - 2m - off only.  Coefficient k of a quotient by 1 - a q^i t
    depends only on the coefficients up to k, so the running series is kept
    to degree top, two degrees shorter for each m, and each division walks
    no further."""
    off = 0 if which == "c" else 1
    acc = BivariatePoly.zero()
    inv = [BivariatePoly.one()] + [BivariatePoly.zero()] * n
    for m in range((n - off) // 2 + 1):
        top = n - 2 * m - off
        del inv[top + 1:]
        if m + off:  # divide by 1 - a q^(m + off - 1) t in place
            for k in range(1, top + 1):
                inv[k] = inv[k] + inv[k - 1].shift(1, m + off - 1)
        acc = acc + inv[top].shift(0, m * (m - 1 + off))
    return acc


@cache
def _cd_pair(m: int):
    """(c_m, d_m), built once per m for the m-version sides and read by every
    sample and rerun.  The builders keep nothing: the exact checks build c_n
    and d_n in three constructions up to n = 20, about 0.9 MB of kept
    polynomials that a check would read once."""
    return c_poly(m), d_poly(m)


def checked_sum(terms, spare, cancels=0):
    """The mp sum of the finite list ``terms``, which may cancel ``spare`` bits
    below sum |t_k|.  Where it cancels more, by at least ``cancels`` (cancelled
    to its terms' rounding, it shows no more than their width), the error
    names the bits missing, for a rerun (:func:`~qrr.context.widening`)."""
    total = sum(terms)
    lost = mp.log(mp.fsum(map(abs, terms)) / abs(total), 2) if total else mp.mp.prec
    lost = max(lost, cancels) if lost > spare else lost
    missing = int(mp.ceil(lost - spare))
    if missing > 0:
        raise PrecisionLossError(f"finite sum cancelled {float(lost):.0f} bits below its "
                                 f"terms; {missing} more working bits needed", missing, cancels)
    return total


def m_shifted(terms, m: int, ctx: QContext):
    """(-1)^m q^(-m(m-1)/2) times the m-shifted difference (a_m P1 - b_m P2 or
    c_m u_0 - d_m u_1, the sum of ``terms``), which may lose 3 digits beyond
    the bits its context added; at a = 1 it cancels m(m-1)/2 log2(1/|q|) bits."""
    cancels = int(mp.ceil(m * (m - 1) / 2 * -mp.log(abs(ctx.q), 2)))
    diff = checked_sum(terms, ctx.extra_bits + bits_for_digits(3), cancels)
    return (-1) ** m * powq(ctx.q, Fraction(-m * (m - 1), 2)) * diff


def bilateral_m_version_sides(a, m: int, ctx: QContext, sign: int = -1):
    """The shifted bilateral sum u_m(a) and its (c, d) resolution, as (lhs, rhs).

    ``sign`` is the coefficient of the d-term: -1 is the reading forced by
    the recurrence seeds (and by the a = 1 specialization); +1 is the
    as-printed reading, kept available for the discrepancy record.  The
    difference c_m u_0 - d_m u_1 is checked (:func:`m_shifted`).
    """
    cm, dm = _cd_pair(m)
    with ctx.workdps():
        q, av = ctx.q, _value(a, ctx.q)
        return u_m_bilateral(a, m, ctx), m_shifted(
            [cm.eval(av, q) * u_m_bilateral(a, 0, ctx),
             sign * dm.eval(av, q) * u_m_bilateral(a, 1, ctx)], m, ctx)


def mform_diff_formal(m: int, ctx: QContext) -> FormalSeries:
    """q^binom(m,2) * (shifted gap series) minus its two-product resolution,
    in the exact ring; the zero series iff the m-shifted identity holds."""
    lhs = rr_sum_formal(m, ctx).shift_up(m * (m - 1) // 2 * ctx.base_exponent)
    p1 = rr_product_formal(1, ctx)
    p2 = rr_product_formal(2, ctx)
    am, bm = schur_a(m), schur_b(m)
    rhs = (FormalSeries.from_qpoly(ctx, am) * p1
           - FormalSeries.from_qpoly(ctx, bm) * p2).scale((-1) ** m)
    return lhs - rhs


# ---------------------------------------------------------------------------
# ladder polynomials
# ---------------------------------------------------------------------------

def _ladder(n: int, x, nu, q, weighted: bool):
    """sum_{0 <= j <= n/2} c_j with
    c_j = (nu, q;q)_{n-j} / ((q, nu;q)_j (q;q)_{n-2j}) w_j x^{n-2j} and
    w_j = q^{j(j-1)} nu^j, or 1 when not ``weighted``; 0 for n < 0.

    One running ratio: c_0 = (nu;q)_n x^n and
    c_{j+1} / c_j = (1 - q^{n-2j}) (1 - q^{n-2j-1}) q^{2j} nu
    / ((1 - nu q^{n-j-1}) (1 - q^{n-j}) (1 - q^{j+1}) (1 - nu q^j) x^2),
    without the q^{2j} nu when not weighted.  A factor 1 - nu q^i that is
    exactly 0 is counted, not multiplied in: the terms it kills are 0 and
    the later ones exact.  x = 0 leaves the one term j = n/2.
    """
    one = _one_like(q)
    m = n // 2
    if n < 0 or (not x and n % 2):
        return 0 * one
    if not x:
        return one * q ** (m * (m - 1)) * nu ** m if weighted else one
    powers = list(accumulate(repeat(q, n), mul, initial=one))   # q^0, ..., q^n
    ups = [1 - p for p in powers]
    lows = [1 - nu * p for p in powers[:n]]                      # 1 - nu q^i
    term, zeros, x2 = one * x ** n, 0, x * x
    for f in lows:
        if f:
            term = term * f
        else:
            zeros += 1
    acc = 0 * one if zeros else term
    for j in range(m):
        r = ups[n - 2 * j] * ups[n - 2 * j - 1] / (ups[n - j] * ups[j + 1] * x2)
        term = term * (r * powers[2 * j] * nu if weighted else r)
        for f in (lows[n - j - 1], lows[j]):
            if f:
                term = term / f
            else:
                zeros -= 1
        if not zeros:
            acc = acc + term
    return acc


def q_lommel_p(n: int, x, q, q_nu):
    """Normalized ladder polynomial of degree n in x; q_nu = q**nu:
    sum_j (q_nu, q;q)_{n-j} / ((q, q_nu;q)_j (q;q)_{n-2j})
    q^{j(j-1)} q_nu^j (2x)^{n-2j}, one :func:`_ladder` walk.

    p_{-1} = 0 by convention (the ladder identity's n = 0 edge).
    """
    return _ladder(n, 2 * x, q_nu, q, True)


def u_poly(n: int, x, y, q, weighted: bool = True):
    """u_n(x, y) = sum_j (y,q;q)_{n-j} / ((q,y;q)_j (q;q)_{n-2j})
    q^{j(j-1)} y^j x^{n-2j};  u_{-1} = 0.  One :func:`_ladder` walk.

    The q^{j(j-1)} y^j factor is what makes u_n(q^{k/2}, q^mu) coincide with
    the ladder polynomial p_{n,mu}(q^{k/2}/2) and the argument-shift
    functional equation hold; ``weighted=False`` evaluates the as-printed
    form (which carries no j-weight) for the discrepancy record.
    """
    return _ladder(n, x, y, q, weighted)


def sw_functional_sides(k: int, y, n: int, q, sq):
    """The two sides of the argument-shift functional equation for S_k, as
    (lhs, rhs):

    y^n q^{n(n+k-1)/2} S_k(y q^n) = u_n(q^{k/2}, -y q^k) S_k(y)
        - q^{k/2} u_{n-1}(q^{k/2}, -y q^{k+1}) S_k(y/q).

    ``sq`` is a square root of q (exact Fraction or mp number); exact inputs
    give equal sides.
    """
    xk = sq ** k
    lhs = y ** n * sq ** (n * (n + k - 1)) * stieltjes_wigert(k, y * q ** n, q)
    rhs = (u_poly(n, xk, -y * q ** k, q) * stieltjes_wigert(k, y, q)
           - xk * u_poly(n - 1, xk, -y * q ** (k + 1), q)
           * stieltjes_wigert(k, y / q, q))
    return lhs, rhs


def sw_inversion_sides(k: int, y, n: int, q, sq, reading: str = "corrected"):
    """S_k(y) against its reconstruction from S_k(y q^n) and S_k(y q^{n+1}).

    ``corrected`` uses the coefficients obtained by solving the 2x2 system of
    consecutive functional equations (second numerator u_{n-1}, argument
    y q^{n+1}); ``literal`` keeps the as-printed u_{n+1}.  Returns
    (S_k(y), reconstruction).
    """
    xk = sq ** k
    y1 = -y * q ** (k + 1)
    delta = inversion_delta(k, y, n, q, sq)
    if delta == 0:
        raise SingularDeltaError("inversion determinant vanished")
    a_n = y ** n * sq ** (n * (n + k - 1)) * stieltjes_wigert(k, y * q ** n, q)
    a_n1 = (y ** (n + 1) * sq ** ((n + 1) * (n + k))
            * stieltjes_wigert(k, y * q ** (n + 1), q))
    second = u_poly(n - 1 if reading == "corrected" else n + 1, xk, y1, q)
    recon = (a_n * u_poly(n, xk, y1, q) - a_n1 * second) / delta
    return stieltjes_wigert(k, y, q), recon


def inversion_delta(k: int, y, n: int, q, sq):
    """u_n(Y1) u_n(Y0) - u_{n+1}(Y0) u_{n-1}(Y1) with Y0 = -y q^k,
    Y1 = -y q^{k+1}."""
    xk = sq ** k
    y0, y1 = -y * q ** k, -y * q ** (k + 1)
    return (u_poly(n, xk, y1, q) * u_poly(n, xk, y0, q)
            - u_poly(n + 1, xk, y0, q) * u_poly(n - 1, xk, y1, q))


def inversion_delta_from_system(k: int, y, n: int, q, sq):
    """The same determinant recovered from the raw 2x2 linear system."""
    xk = sq ** k
    y0, y1 = -y * q ** k, -y * q ** (k + 1)
    det = (u_poly(n, xk, y0, q) * (-xk * u_poly(n, xk, y1, q))
           - (-xk * u_poly(n - 1, xk, y1, q)) * u_poly(n + 1, xk, y0, q))
    return -det / xk


def sw_lommel_special_sides(n: int, nu, k: int, ctx: QContext):
    """The two sides of the ladder relation pinched to the special points
    x = 2 q^{-k/2} (written in terms of S_k values), as (lhs, rhs)."""
    nu = Fraction(nu)
    with ctx.workdps():
        q = ctx.q
        sq = mp.sqrt(q)
        qnu = powq(q, nu)
        xk = sq ** k / 2
        lhs = ((-1) ** n * powq(q, Fraction(n * (n + 2 * nu + k - 1), 2))
               * stieltjes_wigert(k, -qnu * q ** n, q))
        rhs = (q_lommel_p(n, xk, q, qnu * q ** k) * stieltjes_wigert(k, -qnu, q)
               - sq ** k * q_lommel_p(n - 1, xk, q, qnu * q ** (k + 1))
               * stieltjes_wigert(k, -qnu / q, q))
        return lhs, rhs


# ---------------------------------------------------------------------------
# inverse-base Hermite family
# ---------------------------------------------------------------------------

def qinv_hermite(n: int, e_xi, q):
    """h_n(sinh xi | q) parameterized by E = e^{xi}:
    sum_k binom-q * (-1)^k q^{k(k-n)} E^{n-2k}."""
    if n < 0:
        raise DomainError("degree must be >= 0")
    # (-1)^k q^{k(k-n)} = q^{k^2} (-q^{-n})^k
    terms = map(mul, map(mul, _qbinomials(n, q), _gaussian(q, 1, -q ** -n)),
                _geometric(e_xi ** n, e_xi ** -2))
    return sum(terms, 0 * _one_like(q))


def sw_as_hermite_sides(n: int, E, q, reading: str = "corrected"):
    """The two sides of the S_n / h_n bridge, E = e^{xi}, as (lhs, rhs).

    ``corrected``: (q;q)_n S_n(E^{-2} q^{-n}; q) = E^{-n} h_n(sinh xi | q),
    which is an exact term-by-term match of the two finite sums.  The
    as-printed form omits the E^{-n} factor; ``literal`` evaluates that.
    """
    lhs = pochhammer_finite(q, q, n) * stieltjes_wigert(n, E ** -2 * q ** -n, q)
    scale = E ** -n if reading == "corrected" else _one_like(q)
    return lhs, scale * qinv_hermite(n, E, q)


# ---------------------------------------------------------------------------
# product/series kernels tying S_n to the entire function
# ---------------------------------------------------------------------------

def finite_qbinom_sides(n: int, x, q):
    """(x;q)_n against sum_j [n,j]_q (-x)^j q^binom(j,2) (exact)."""
    rhs = sum(map(mul, _qbinomials(n, q), _binomial_powers(-x, q)), 0 * _one_like(q))
    return pochhammer_finite(x, q, n), rhs


def st_5_1_sides(x, t, ctx: QContext):
    """(xt, -t; q)_inf against sum_n q^binom(n,2) t^n S_n(x q^{-n}; q)."""
    with ctx.workdps():
        q = ctx.q
        xv, tv = to_mp(x), to_mp(t)
        lhs = infinite_product([xv * tv, -tv], [], q, ctx)
        return lhs, _series(lambda q: map(mul, _binomial_powers(q.like(tv), q),
                                          _sw_shifted(q.like(xv), q)), ctx)


def st_5_1_diff_formal(x: Fraction, t: Fraction, ctx: QContext) -> FormalSeries:
    """Exact-ring difference of the same identity at rational (x, t).

    The right side is summed on integers: with t = t_num / t_den, term n is
    t_num^n times the numerators of q^binom(n,2) S_n(x q^{-n})
    (:func:`_sw_numerators`) over t_den^n x_den^n, added into one running
    numerator list over the lcm of the denominators so far, and reduced to
    Fractions once, as :func:`~qrr.formal.fs_ratio_sum` does."""
    lhs = fs_pochhammer(fs_pochhammer_infinite(x * t, 0, 1, ctx), -t, 0, 1, ctx)
    acc, d_acc = [0] * (ctx.u_order + 1), 1
    n = 0
    while True:
        # summand valuation grows ~ n^2/4; stop once past the ring order
        val = Fraction(n * (n - 1), 2) - Fraction(n * n, 4)
        if val * ctx.base_exponent > ctx.u_order:
            break
        m, d = _sw_numerators(n, x, -n, Fraction(n * (n - 1), 2), ctx)
        d *= t.denominator ** n
        d_new = lcm(d_acc, d)
        if d_new != d_acc:
            acc = [a * (d_new // d_acc) for a in acc]
            d_acc = d_new
        f = t.numerator ** n * (d_acc // d)
        acc = [a + f * b if b else a for a, b in zip(acc, m)]
        n += 1
    return lhs - FormalSeries(ctx.base_exponent, ctx.u_order, _fractions(acc, d_acc))


def st_5_2_sides(n: int, x, q):
    """q^binom(n,2) x^n / (q;q)_n against the alternating S_k reconstruction
    (finite; exact for exact inputs)."""
    lhs = q ** (n * (n - 1) // 2) * x ** n / pochhammer_finite(q, q, n)
    rhs = 0 * _one_like(q)
    for k, w, s in zip(range(n + 1), _binomial_powers(-1, q), _sw_shifted(x, q)):
        rhs = rhs + w * s / pochhammer_finite(q, q, n - k)
    return lhs, rhs


def _entire_ladder(xv, ctx: QContext):
    """(values, error bounds) of V_k = A_q(x q^k), k = 0, ..., M + 1, by
    backward recurrence (:func:`~qrr.ladders._backward_ladder`);
    ([], []) at x = 0 or without an M.

    A_q(z) - A_q(qz) = sum_n (-z)^n q^(n^2) (1 - q^n) / (q;q)_n
    = -qz A_q(q^2 z), so V_k = V_(k+1) - x q^(k+1) V_(k+2): delta = 1,
    beta = -x, gamma = 0.  V_k tends to 1, the minimal solution.  Near
    |q| = 1 the terms of A_q cancel (about 150 bits for A_q(0.7) at
    q = 0.99), and the majorant lies far above the values:
    :func:`_shifted_entire_values` asks each for relative digits.

    M is fixed from the decay bound of the outer terms q^binom(k+1,2)
    (x q^n)^k A_q(x q^k) / (q;q)_k of every n >= 0: the term bound steps by
    |x| |q|^(k+1) / (1 - |q|^(k+1)), and |A_q(x q^k)| <= B_k =
    sum_n |x q^k|^n |q|^(n^2) / (|q|;|q|)_n, which falls with k, is its rest
    (:func:`~qrr.ladders._ladder_top`); B at M and M + 1 sizes the start
    values."""
    if xv == 0:
        return [], []
    mq = abs(complex(ctx.q))
    ell, lx = math.log2(mq), math.log2(abs(xv))

    def rest(k):
        return _log2_series(lambda n: lx + (k + 2 * n + 1) * ell
                            - _log2_one_minus(mq ** (n + 1)))

    top = _ladder_top(lambda k: lx + (k + 1) * ell - _log2_one_minus(mq ** (k + 1)), rest,
                      ctx)
    if top is None:
        return [], []

    def start(c):
        y = xv * c.q ** top
        return ramanujan_A(y, c), ramanujan_A(y * c.q, c)

    return _backward_ladder(1, -xv, 0, top, start, (rest(top), rest(top + 1)), ctx)


@kept
def _shifted_entire_values(xv, ctx: QContext):
    """A_q(x q^k) for k = 0, 1, ..., the stream that every n of a check
    reads: the ladder of :func:`_entire_ladder` up to M + 1, each value with
    ``ctx.precision`` digits relative to itself
    (:func:`~qrr.ladders._ladder_stream`; at q = 0.995 the values lie near
    2^-229 and st-5.3's outer weights reach about 2^200), then direct
    :func:`ramanujan_A` sums, their argument x q^k formed in the reader's
    ``ctx.workdps()``."""
    with ctx.workdps():
        return _ladder_stream(
            _entire_ladder(xv, ctx),
            lambda k: (ctx.fixed(ramanujan_A(y, ctx)) for y in islice(_geometric(xv, ctx.q), k, None)),
            ctx)


def st_5_3_sides(n: int, x, ctx: QContext):
    """S_n(x) against its expansion over shifted values of the entire
    function."""
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        lhs = stieltjes_wigert(n, xv, q)
        # q^binom(k+1,2) (x q^n)^k / (q;q)_k: ratio x q^{n+1} q^k / (1 - q^{k+1})
        inner = _shifted_entire_values(xv, ctx)  # A_q(x q^k)

        def terms(q):
            return map(mul, _ratio_terms([], [_Q1], q, q.like(xv) * q ** (n + 1), q),
                       map(inner.__getitem__, count()))

        return lhs, _series(terms, ctx) / pochhammer_finite(q, q, n)


def st_5_4_sides(n: int, a, b, q, ctx: QContext | None = None):
    """S_n(ab) against the b-expansion over S_{n-k}(a q^k) (finite sum).

    Term k carries (-q^(1-n))^k q^binom(k,2), about |q|^(-n(n-1)/2) at its
    peak, so for small |q| the sum cancels far below its terms, by
    n(n-1)/2 log2(1/|q|) bits a priori, as :func:`m_shifted` does.  With
    ``ctx`` the mp sum is checked (:func:`checked_sum`, told those bits):
    summed at mp.prec bits, its N terms each at most R (k + 1)^2 roundings
    from exact, it errs by under 2^(rounding_bits(N) - prec) sum |t_k|, and
    must keep ``ctx.precision`` digits."""
    lhs = stieltjes_wigert(n, a * b, q)
    terms = list(map(mul, map(mul, _ratios_up(QPow(1 / b, 0), q),
                              _binomial_powers(-q ** (1 - n), q)),
                     map(stieltjes_wigert, range(n, -1, -1), _geometric(a, q), repeat(q))))
    if ctx is None:
        return lhs, b ** n * sum(terms)
    spare = mp.mp.prec - bits_for_digits(ctx.precision) - rounding_bits(len(terms))
    cancels = int(mp.ceil(n * (n - 1) / 2 * -mp.log(abs(ctx.q), 2)))
    return lhs, b ** n * checked_sum(terms, spare, cancels)


def st_5_5_sides(n: int, a, ctx: QContext):
    """S_n(a) against the tail-product expansion."""
    with ctx.workdps():
        q = ctx.q
        av = to_mp(a)
        lhs = stieltjes_wigert(n, av, q)
        pref = (infinite_product([-av * q], [], q, ctx)
                / (pochhammer_finite(q, q, n) * pochhammer_finite(-av * q, q, n)))
        return lhs, pref * _series(
            lambda q: _ratio_terms([], [_Q1, QPow(-av, n + 1)], q, -q.like(av) * q, q * q),
            ctx)


def st_5_6_even_diff_formal(n: int, ctx: QContext) -> FormalSeries:
    """q^{n^2} S_{2n}(q^{-2n}) - (-1)^n / (q^2;q^2)_n in the exact ring."""
    lhs = sw_formal(2 * n, 1, -2 * n, n * n, ctx)
    rhs = fs_pochhammer(FormalSeries.monomial(ctx, (-1) ** n, 0), 1, 2, 2, ctx, n,
                        inverse=True)
    return lhs - rhs


def st_5_6_odd_formal(n: int, ctx: QContext) -> FormalSeries:
    """q^{n^2+n} S_{2n+1}(q^{-2n-1}); identically zero when the odd special
    value vanishes."""
    return sw_formal(2 * n + 1, 1, -(2 * n + 1), n * n + n, ctx)


def st_5_7_diff_formal(n: int, ctx: QContext) -> FormalSeries:
    """q^{(n^2-n)/4} S_n(-q^{-n+1/2}) - 1/(q^{1/2};q^{1/2})_n (needs 4 | D)."""
    lhs = sw_formal(n, -1, Fraction(1, 2) - n, Fraction(n * n - n, 4), ctx)
    rhs = fs_pochhammer(FormalSeries.one(ctx), 1, Fraction(1, 2), Fraction(1, 2),
                        ctx, n, inverse=True)
    return lhs - rhs


def st_5_8_diff_formal(n: int, ctx: QContext) -> FormalSeries:
    """q^{(n^2+n)/4} S_n(-q^{-n-1/2}) - 1/(q^{1/2};q^{1/2})_n (needs 4 | D)."""
    lhs = sw_formal(n, -1, -Fraction(1, 2) - n, Fraction(n * n + n, 4), ctx)
    rhs = fs_pochhammer(FormalSeries.one(ctx), 1, Fraction(1, 2), Fraction(1, 2),
                        ctx, n, inverse=True)
    return lhs - rhs


def st_5_7_sides(n: int, q, sq):
    """Scalar special value at -q^{-n+1/2} (exact when sq^2 = q exactly)."""
    x = -(sq / q ** n)
    lhs = stieltjes_wigert(n, x, q)
    return lhs, sq ** (-(n * n - n) // 2) / pochhammer_finite(sq, sq, n)


def st_5_8_sides(n: int, q, sq):
    """Scalar special value at -q^{-n-1/2}."""
    x = -(1 / (sq * q ** n))
    lhs = stieltjes_wigert(n, x, q)
    return lhs, sq ** (-(n * n + n) // 2) / pochhammer_finite(sq, sq, n)


def st_5_9_sides(w, z, ctx: QContext):
    """A_q(wz) against the S_n expansion in w."""
    with ctx.workdps():
        q = ctx.q
        wv, zv = to_mp(w), to_mp(z)
        lhs = ramanujan_A(wv * zv, ctx)
        pref = infinite_product([wv * q], [], q, ctx)
        # q^{n^2} w^n / (wq;q)_n: ratio w q^{2n+1} / (1 - w q^{n+1})
        return lhs, pref * _series(
            lambda q: map(mul, _ratio_terms([], [QPow(wv, 1)], q, q.like(wv) * q, q * q),
                          _sw_shifted(q.like(zv), q)), ctx)


def st_10_sides(m: int, z, ctx: QContext):
    """A_q(z) against the degree-m S_m expansion."""
    with ctx.workdps():
        q = ctx.q
        zv = to_mp(z)
        lhs = ramanujan_A(zv, ctx)
        # q^{n^2 + m n} (-z)^n / (q;q)_n: ratio -z q^{m + 2n + 1} / (1 - q^{n+1})
        def terms(q):
            z = q.like(zv)
            return map(mul, _ratio_terms([], [_Q1], q, -z * q ** (m + 1), q * q),
                       map(stieltjes_wigert, repeat(m), _geometric(z, q), repeat(q)))

        return lhs, pochhammer_finite(q, q, m) * _series(terms, ctx)


@kept
def hermite_gf_series(tv, zv, ctx: QContext):
    """sum_n (q;q)_n q^{n^2/4} t^n S_n(z q^{-n}) / (q^{1/2};q^{1/2})_n, the
    left side of :func:`hermite_gf_sides`, which both readings share."""
    with ctx.workdps():
        sq = mp.sqrt(ctx.q)
        q4 = mp.sqrt(sq)

        # (q;q)_n / (q^{1/2};q^{1/2})_n = (-q^{1/2};q^{1/2})_n, and q^{n^2/4} t^n:
        # in base s = q^{1/2}, ratio (1 + s^{n+1}) q^{1/4} t s^n
        def terms(q):
            sqf = q.like(sq)
            return map(mul, _ratio_terms([QPow(-1, 1)], [], sqf, q.like(q4) * tv, sqf),
                       _sw_shifted(q.like(zv), q))

        return _series(terms, ctx)


def hermite_gf_sides(t, z, ctx: QContext, reading: str = "corrected"):
    """Quarter-power generating function for S_n(z q^{-n}).

    LHS: sum_n (q;q)_n q^{n^2/4} t^n S_n(z q^{-n}) / (q^{1/2};q^{1/2})_n.
    ``corrected`` (the default) RHS:
    (-t q^{1/4}, +t q^{1/4} z; q^{1/2})_inf / (-t^2 z; q)_inf, the unique
    sign pattern compatible with the inverse-base Hermite generating
    function through the exact S_n / h_n bridge.  ``literal``, as printed,
    reads the z-carrying numerator argument as -t q^{1/4} z.
    """
    with ctx.workdps():
        q = ctx.q
        tv, zv = to_mp(t), to_mp(z)
        sq = mp.sqrt(q)
        q4 = mp.sqrt(sq)
        lhs = hermite_gf_series(tv, zv, ctx)
        zsign = -1 if reading == "literal" else 1
        rhs = (infinite_product([-tv * q4, zsign * tv * q4 * zv], [], sq, ctx)
               * infinite_product([], [-tv * tv * zv], q, ctx))
        return lhs, rhs


def poisson_kernel_sides(t, z, zeta, ctx: QContext):
    """Bilinear kernel: sum_n (q;q)_n q^binom(n,2) t^n S_n(z q^{-n})
    S_n(zeta q^{-n}) against its four-product evaluation."""
    with ctx.workdps():
        q = ctx.q
        tv, zv, wv = to_mp(t), to_mp(z), to_mp(zeta)
        # (q;q)_n q^binom(n,2) t^n: ratio (1 - q^{n+1}) t q^n
        lhs = _series(
            lambda q: map(mul, _ratio_terms([_Q1], [], q, q.like(tv), q),
                          map(mul, _sw_shifted(q.like(zv), q), _sw_shifted(q.like(wv), q))),
            ctx)
        rhs = infinite_product([-tv, -tv * zv * wv, tv * zv, tv * wv],
                               [tv * tv * zv * wv / q], q, ctx)
        return lhs, rhs


def gfhn0_sides(b, ctx: QContext):
    """Half-power series evaluation of the base-q^2 entire function:
    A_{q^2}(-b^2) against (b sqrt(q); q)_inf * sum_n q^{n^2/2} b^n /
    ((q, b sqrt(q); q)_n)."""
    with ctx.workdps():
        q = ctx.q
        bv = to_mp(b)
        sq = mp.sqrt(q)
        ctx2 = ctx.at(q * q)
        lhs = ramanujan_A(-bv * bv, ctx2)
        pref = infinite_product([bv * sq], [], q, ctx)
        return lhs, pref * _series(
            lambda q: _ratio_terms([], [_Q1, QPow(bv * sq, 0)], q, q.like(sq) * bv, q),
            ctx)


def gfhn0_diff_formal(b: Fraction, ctx: QContext) -> FormalSeries:
    """Exact-ring difference of the same identity at rational b (needs 2 | D)."""
    half = Fraction(1, 2)
    lhs = fs_ratio_sum(ctx, b * b, 2, 4, den=[(1, 2)], base=2)
    rhs = fs_ratio_sum(ctx, b, half, 1, den=[(1, 1), (b, half)])
    return lhs - fs_pochhammer(rhs, b, half, 1, ctx)

