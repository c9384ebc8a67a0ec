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
:func:`~qrr.qfunctions._ratio_terms` stream.  The values S_n(x q^{-n}), whose
degree moves with n, are one q-Pascal row walk, :func:`_sw_shifted`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from operator import mul, truediv

import mpmath as mp

from .context import QContext, powq, to_mp
from .errors import DomainError, SingularDeltaError
from .exactpoly import BivariatePoly, QPoly
from .formal import (FormalSeries, fs_pochhammer, fs_pochhammer_infinite,
                     fs_ratio_sum, qexp_to_u)
from .pochhammer import (QPow, _factors, _one_like, infinite_product, pochhammer_finite,
                         q_binomial)
from .qfunctions import (_Q1, _gaussian, _geometric, _Lattice, _ramanujan_A_stream,
                         _ratio_terms, _ratios_up, _unilateral, _value, ramanujan_A,
                         rr_product_formal, rr_sum_formal, u_m_bilateral)


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


def sw_formal(n: int, x_coeff, x_qexp, shift, ctx: QContext) -> FormalSeries:
    """q^{shift} * S_n(c q^e; q) in the exact ring.

    The shift must absorb every negative exponent the k-sum produces; an
    out-of-ring monomial raises ExponentError, which always indicates a
    mis-normalized identity rather than an input error.
    """
    x_qexp, shift = Fraction(x_qexp), Fraction(shift)
    acc = FormalSeries.zero(ctx)
    D = ctx.base_exponent
    for k in range(n + 1):
        base = qexp_to_u(k * k + k * x_qexp + shift, ctx)
        coeff = (-x_coeff) ** k
        for j, a in enumerate(q_binomial(n, k).coeffs()):
            if a == 0:
                continue
            e = base + j * D
            if e <= ctx.u_order:
                acc.c[e] += coeff * a
    return fs_pochhammer(acc, 1, 1, 1, ctx, n, inverse=True)


# ---------------------------------------------------------------------------
# the two Schur-type sequences and the (a, q) recurrence pair
# ---------------------------------------------------------------------------

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
        a = BivariatePoly.monomial(1, 1, 0)
        prev, cur = y0, y1
        for m in range(1, n):
            prev, cur = cur, BivariatePoly.monomial(1, 0, m - 1) * prev + a * cur
        return cur
    if construction == "explicit":
        # sum_j [n-j-off, j] a^{n-2j-off} q^{j^2 + wj}: (off, w) = (2, 1) for c,
        # (1, 0) for d; the empty sum gives c_1 = d_0 = 0
        if which == "c" and n == 0:
            return BivariatePoly.one()
        off, w = (2, 1) if which == "c" else (1, 0)
        acc = BivariatePoly.zero()
        for j in range((n - off) // 2 + 1):
            for dq, coeff in enumerate(q_binomial(n - j - off, j).coeffs()):
                if coeff:
                    acc = acc + BivariatePoly.monomial(coeff, n - 2 * j - off,
                                                       dq + j * j + w * j)
        return acc
    if construction == "generating":
        return _cd_from_generating(n, which)
    raise DomainError(f"unknown construction {construction!r}")


def _cd_from_generating(n: int, which: str) -> BivariatePoly:
    """Coefficient of t^n in the closed t-series for the chosen family."""
    deg = n
    acc = [BivariatePoly.zero() for _ in range(deg + 1)]
    # running coefficients of 1/(a t; q)_m as a t-series
    inv = [BivariatePoly.zero() for _ in range(deg + 1)]
    inv[0] = BivariatePoly.one()
    m = 0
    while True:
        base = 2 * m if which == "c" else 2 * m + 1
        if which == "d":
            # needs 1/(at;q)_{m+1}: one more factor than the c-series
            _divide_inplace(inv, m, deg)
        if base > deg:
            break
        w = m * (m - 1) if which == "c" else m * m
        for i in range(deg + 1 - base):
            acc[i + base] = acc[i + base] + BivariatePoly.monomial(1, 0, w) * inv[i]
        if which == "c":
            _divide_inplace(inv, m, deg)
        m += 1
    return acc[n]


def _divide_inplace(coeffs, i: int, deg: int):
    """In-place t-series division by (1 - a q^i t)."""
    g = BivariatePoly.monomial(1, 1, i)
    for k in range(1, deg + 1):
        coeffs[k] = coeffs[k] + g * coeffs[k - 1]


def m_shift_context(m: int, ctx: QContext) -> QContext:
    """``ctx`` with the ceil(m(m-1)/2 log10(1/|q|)) more digits that the m-shifted
    right sides, q^{-m(m-1)/2} times a cancelling difference, lose."""
    with ctx.workdps():
        extra = int(mp.ceil(m * (m - 1) / 2 * -mp.log10(abs(ctx.q))))
    return QContext.numeric(ctx.q, precision=ctx.precision + extra)


def bilateral_m_version_sides(a, m: int, ctx: QContext, sign: int = -1):
    """The shifted bilateral sum u_m(a) and its (c, d) resolution, as (lhs, rhs).

    ``sign`` is the coefficient of the d-term: -1 is the reading forced by
    the recurrence seeds (and by the a = 1 specialization); +1 is the
    as-printed reading, kept available for the discrepancy record.  The
    resolution runs at :func:`m_shift_context`.
    """
    lhs = u_m_bilateral(a, m, ctx)
    wide = m_shift_context(m, ctx)
    with wide.workdps():
        q = wide.q
        av = _value(a, q)
        u0 = u_m_bilateral(a, 0, wide)
        u1 = u_m_bilateral(a, 1, wide)
        cm = c_poly(m).eval(av, q)
        dm = d_poly(m).eval(av, q)
        rhs = (-1) ** m * powq(q, Fraction(-m * (m - 1), 2)) * (cm * u0 + sign * dm * u1)
        return lhs, rhs


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

def q_lommel_p(n: int, x, q, q_nu):
    """Normalized ladder polynomial of degree n in x; q_nu = q**nu.

    p_{-1} = 0 by convention (the ladder identity's n = 0 edge).
    """
    if n < 0:
        return 0 * _one_like(q)
    acc = 0 * _one_like(q)
    for j in range(n // 2 + 1):
        num = (pochhammer_finite(q_nu, q, n - j) * pochhammer_finite(q, q, n - j))
        den = (pochhammer_finite(q, q, j) * pochhammer_finite(q_nu, q, j)
               * pochhammer_finite(q, q, n - 2 * j))
        acc = acc + num / den * (2 * x) ** (n - 2 * j) * q ** (j * (j - 1)) * q_nu ** j
    return acc


def u_poly(n: int, x, y, q, weighted: bool = True):
    """u_n(x, y) = sum_j (y,q;q)_{n-j} / ((q,y;q)_j (q;q)_{n-2j})
    q^{j(j-1)} y^j x^{n-2j};  u_{-1} = 0.

    The q^{j(j-1)} y^j factor is what makes u_n(q^{k/2}, q^mu) coincide with
    the ladder polynomial p_{n,mu}(q^{k/2}/2) and the argument-shift
    functional equation hold; ``weighted=False`` evaluates the as-printed
    form (which carries no j-weight) for the discrepancy record.
    """
    if n < 0:
        return 0 * _one_like(q)
    acc = 0 * _one_like(q)
    for j in range(n // 2 + 1):
        num = pochhammer_finite(y, q, n - j) * pochhammer_finite(q, q, n - j)
        den = (pochhammer_finite(q, q, j) * pochhammer_finite(y, q, j)
               * pochhammer_finite(q, q, n - 2 * j))
        w = q ** (j * (j - 1)) * y ** j if weighted else _one_like(q)
        acc = acc + num / den * w * x ** (n - 2 * j)
    return acc


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


def sw_as_hermite_sides(n: int, e_xi, q, reading: str = "corrected"):
    """The two sides of the S_n / h_n bridge, E = e^{xi}, as (lhs, rhs).

    ``corrected``: (q;q)_n S_n(E^{-2} q^{-n}; q) = E^{-n} h_n(sinh xi | q),
    which is an exact term-by-term match of the two finite sums.  The
    as-printed form omits the E^{-n} factor; ``literal`` evaluates that.
    """
    lhs = pochhammer_finite(q, q, n) * stieltjes_wigert(n, e_xi ** -2 * q ** -n, q)
    scale = e_xi ** -n if reading == "corrected" else _one_like(q)
    return lhs, scale * qinv_hermite(n, e_xi, q)


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
        return lhs, _unilateral(lambda q: map(mul, _binomial_powers(q.like(tv), q),
                                              _sw_shifted(q.like(xv), q)), ctx)


def st_5_1_diff_formal(x: Fraction, t: Fraction, ctx: QContext) -> FormalSeries:
    """Exact-ring difference of the same identity at rational (x, t)."""
    lhs = fs_pochhammer(fs_pochhammer_infinite(x * t, 0, 1, ctx), -t, 0, 1, ctx)
    rhs = FormalSeries.zero(ctx)
    n = 0
    while True:
        # summand valuation grows ~ n^2/4; stop once past the ring order
        val = Fraction(n * (n - 1), 2) - Fraction(n * n, 4)
        if val * ctx.base_exponent > ctx.u_order:
            break
        rhs = rhs + sw_formal(n, x, -n, Fraction(n * (n - 1), 2), ctx).scale(t ** n)
        n += 1
    return lhs - rhs


def st_5_2_sides(n: int, x, q):
    """q^binom(n,2) x^n / (q;q)_n against the alternating S_k reconstruction
    (finite; exact for exact inputs)."""
    lhs = q ** (n * (n - 1) // 2) * x ** n / pochhammer_finite(q, q, n)
    rhs = 0 * _one_like(q)
    for k, w, s in zip(range(n + 1), _binomial_powers(-1, q), _sw_shifted(x, q)):
        rhs = rhs + w * s / pochhammer_finite(q, q, n - k)
    return lhs, rhs


def st_5_3_sides(n: int, x, ctx: QContext):
    """S_n(x) against its expansion over shifted values of the entire
    function."""
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        lhs = stieltjes_wigert(n, xv, q)
        # q^binom(k+1,2) (x q^n)^k / (q;q)_k: ratio x q^{n+1} q^k / (1 - q^{k+1})
        inner = _Lattice(_ramanujan_A_stream(xv), 1, ctx)  # A_q(x q^k)

        def terms(q):
            return map(mul, _ratio_terms([], [_Q1], q, q.like(xv) * q ** (n + 1), q),
                       (inner.sum(k) for k in count()))

        return lhs, _unilateral(terms, ctx) / pochhammer_finite(q, q, n)


def st_5_4_sides(n: int, a, b, q):
    """S_n(ab) against the b-expansion over S_{n-k}(a q^k) (finite sum)."""
    lhs = stieltjes_wigert(n, a * b, q)
    terms = map(mul, map(mul, _ratios_up(QPow(1 / b, 0), q),
                         _binomial_powers(-q ** (1 - n), q)),
                map(stieltjes_wigert, range(n, -1, -1), _geometric(a, q), repeat(q)))
    return lhs, b ** n * sum(terms, 0 * _one_like(q))


def st_5_5_sides(n: int, a, ctx: QContext):
    """S_n(a) against the tail-product expansion."""
    with ctx.workdps():
        q = ctx.q
        av = to_mp(a)
        lhs = stieltjes_wigert(n, av, q)
        pref = (infinite_product([-av * q], [], q, ctx)
                / (pochhammer_finite(q, q, n) * pochhammer_finite(-av * q, q, n)))
        return lhs, pref * _unilateral(
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
        return lhs, pref * _unilateral(
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

        return lhs, pochhammer_finite(q, q, m) * _unilateral(terms, ctx)


def hermite_gf_sides(t, z, ctx: QContext, reading: str = "literal"):
    """Quarter-power generating function for S_n(z q^{-n}).

    LHS: sum_n (q;q)_n q^{n^2/4} t^n S_n(z q^{-n}) / (q^{1/2};q^{1/2})_n.
    ``literal`` RHS: (-t q^{1/4}, -t q^{1/4} z; q^{1/2})_inf / (-t^2 z; q)_inf;
    ``corrected`` flips the sign of the z-carrying numerator argument only:
    (-t q^{1/4}, +t q^{1/4} z; q^{1/2})_inf / (-t^2 z; q)_inf, the unique
    sign pattern compatible with the inverse-base Hermite generating
    function through the exact S_n / h_n bridge.
    """
    with ctx.workdps():
        q = ctx.q
        tv, zv = to_mp(t), to_mp(z)
        sq = mp.sqrt(q)
        q4 = mp.sqrt(sq)
        # (q;q)_n / (q^{1/2};q^{1/2})_n = (-q^{1/2};q^{1/2})_n, and q^{n^2/4} t^n:
        # in base s = q^{1/2}, ratio (1 + s^{n+1}) q^{1/4} t s^n
        def terms(q):
            sqf = q.like(sq)
            return map(mul, _ratio_terms([QPow(-1, 1)], [], sqf, q.like(q4) * tv, sqf),
                       _sw_shifted(q.like(zv), q))

        lhs = _unilateral(terms, ctx)
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
        lhs = _unilateral(
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
        ctx2 = QContext.numeric(q * q, precision=ctx.precision)
        lhs = ramanujan_A(-bv * bv, ctx2)
        pref = infinite_product([bv * sq], [], q, ctx)
        return lhs, pref * _unilateral(
            lambda q: _ratio_terms([], [_Q1, QPow(bv * sq, 0)], q, q.like(sq) * bv, q),
            ctx)


def gfhn0_diff_formal(b: Fraction, ctx: QContext) -> FormalSeries:
    """Exact-ring difference of the same identity at rational b (needs 2 | D)."""
    half = Fraction(1, 2)
    lhs = fs_ratio_sum(ctx, b * b, 2, 4, den=[(1, 2)], base=2)
    rhs = fs_ratio_sum(ctx, b, half, 1, den=[(1, 1), (b, half)])
    return lhs - fs_pochhammer(rhs, b, half, 1, ctx)

