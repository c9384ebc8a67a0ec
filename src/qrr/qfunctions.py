"""Basic hypergeometric series, the entire q-Airy-type function and its
generalizations, bilateral sums, and the cube-root-of-unity convolution
identities built from them.

Numeric evaluators take and return mpmath numbers; the handful of series that
admit coefficient-exact verification have formal counterparts returning
:class:`~qrr.formal.FormalSeries`.

Every numeric series is defined by its term ratio (Gasper & Rahman, *Basic
Hypergeometric Series*, ch. 1): each term comes from the previous one by
multiplication, with the q-powers, x-powers and Pochhammer ratios carried as
running products that live for one sum.

Numeric series run in Python-int fixed point (:mod:`qrr.fixedpoint`), complex
values as pairs of ints.  A series, one stream or the pair of streams of a
bilateral one, enters fixed point in :func:`_series`, which hands its stream
builder the base q at ``ctx.fixed_bits``, ``ctx.fixed_q``, made once per
context (other mpf/mpc arguments are read exactly at their first use), and
leaves as its certified mpf/mpc value, or as NonConvergenceError, or,
cancelled below ``ctx.precision`` digits, as PrecisionLossError naming the
bits it lacks: the caller reruns the whole evaluation, inputs included, with
:func:`~qrr.context.widening`.
A Pochhammer-ratio stream, whose term ratio is a quotient of factors 1 - c q^k
times a geometric step, is one fused integer stream,
:func:`~qrr.summation._ratio_terms` (both halves of a bilateral one from
:func:`~qrr.summation._ratio_streams`); that holds for series, outer sums and
ratio tables alike.  The stream lives in :mod:`qrr.summation` beside the
ratio bound it declares (:class:`~qrr.summation._RatioBound`), on which a sum
of it stops; any other stream stops on the observed certificate.  The generic
stream helpers of :mod:`qrr.pochhammer` (:func:`~qrr.pochhammer._ratios_up`,
:func:`~qrr.pochhammer._gaussian`, and the factor walks
:func:`~qrr.pochhammer._factors` / :func:`~qrr.pochhammer._pole_factors`)
serve exact Fraction sums, weights, pole tables and S_n values: Fraction q
gives exact Fractions, a Fixed q gives Fixed values.  Slice sums (the
bilateral convolutions, the double and triple sums of the master expansions
and the theta pole sums) are summed and checked, floor and cutoffs alike,
in :mod:`qrr.slices`, which this module reads.
Every product side, a quotient of infinite products over one base, is one
:func:`~qrr.pochhammer.infinite_product` walk.  A vanishing denominator
factor, in a stream, a pole table or a product, is the PoleError of
:func:`~qrr.pochhammer.pole`, which names that factor.

Shared work.  The master expansions sum a series F(y) = sum_n r_n
q^(alpha n^2) y^n at the q-geometric family of arguments x q^(2 alpha s)
(twisted by w^2 in the cube ones), weighted by the series' own coefficients
r_s (square) or their cube pairs (cube).  So each double or triple sum is
summed by m = j + n or m = j + k + n instead, as one Gaussian-weighted sum
of the pair or cube slices of r (:func:`~qrr.slices._gaussian_slices`).
The left sides stay single series, so the two sides share no summation.
The values A_q(x q^k) of ``st-5.3`` are each one :func:`ramanujan_A` sum,
kept in one stream that every n of the check reads
(:func:`~qrr.qpolynomials._shifted_entire_values`).
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

from .context import QContext, _Shared, kept, powq, to_mp
from .errors import AnnulusError, DomainError, PoleError
from .exactpoly import EisensteinRational
from .formal import (FormalSeries, _numerators, fs_pochhammer, fs_pochhammer_infinite,
                     fs_ratio_sum)
from .pochhammer import (_Q1, QPow, _as_qpow, _pole_factors, _ratios_up, _value,
                         infinite_product, pochhammer_finite)
from .slices import (_bilateral_ratio_array, _cube_slices, _gaussian_slices, _pair_slices,
                     _pole_table, _Table, gaussian_truncation, slice_truncation)
from .summation import _ratio_streams, _ratio_terms, _reading, sum_bilateral, sum_series


def _series(build, ctx: QContext):
    """Sum of the series whose stream of terms n = 0, 1, ... ``build(q)``
    returns, or of the bilateral series whose streams n = 0, 1, ... and
    n = -1, -2, ... it returns as a pair, with q the context's base at
    ``ctx.fixed_bits`` (``ctx.fixed_q``): the one exit of every numeric
    series.  A :class:`~qrr.summation._Declared` stream stops on its
    declared ratio bound, any other on the observed certificate."""
    terms = build(ctx.fixed_q)
    if isinstance(terms, tuple):
        (pos, up), (neg, down) = map(_reading, terms)
        return sum_bilateral(pos, neg, ctx, (up, down)).certified()
    term, ratio = _reading(terms)
    return sum_series(term, ctx, ratio).certified()


def rho_root(ctx: QContext):
    """Primitive cube root of unity at working precision."""
    with ctx.workdps():
        return mp.mpc(mp.mpf(-1) / 2, mp.sqrt(mp.mpf(3)) / 2)


# ---------------------------------------------------------------------------
# basic hypergeometric series (only the shapes used here: 2phi1 and 1phi1)
# ---------------------------------------------------------------------------

def phi_2_1(a, b, c, z, ctx: QContext):
    """2phi1(a, b; c; q, z) for |z| < 1."""
    a, b, c = _as_qpow(a), _as_qpow(b), _as_qpow(c)
    with ctx.workdps():
        zv = _value(z, ctx.q)
        if abs(zv) >= 1:
            raise DomainError(f"2phi1 requires |z| < 1, got |z|={abs(zv)}")

        return _series(lambda q: _ratio_terms([a, b], [c, _Q1], q, q.like(zv), q.like(1)),
                       ctx)


def phi_1_1(a, b, z, ctx: QContext):
    """1phi1(a; b; q, z) with the (-1)^k q^binom(k,2) convention factor.

    The extra factor makes the series entire in z, with terms carrying
    q^{k(k-1)/2}-type decay.
    """
    a, b = _as_qpow(a), _as_qpow(b)
    with ctx.workdps():
        zv = _value(z, ctx.q)

        # the ratio carries (-1) * q^k from the convention factor
        return _series(lambda q: _ratio_terms([a], [b, _Q1], q, -q.like(zv), q), ctx)


def phi21_terminating_exact(m: int, n: int, q: Fraction) -> Fraction:
    """2phi1(q^-m, q^-n; 0; q, q) summed exactly over its finite support."""
    total = Fraction(0)
    t = Fraction(1)
    for k in range(min(m, n) + 1):
        total += t
        ratio = (1 - q ** (k - m)) * (1 - q ** (k - n)) * q / (1 - q ** (k + 1))
        t *= ratio
    return total


def heine_sides(a, b, c, z, ctx: QContext):
    """Both sides of the second-iterate Heine transformation of 2phi1.

    Valid for |z| < 1 and |c/b| < 1 (the transformed series' argument).
    Returns (lhs, rhs).
    """
    with ctx.workdps():
        q = ctx.q
        av, bv, cv, zv = (to_mp(v) for v in (a, b, c, z))
        if abs(cv / bv) >= 1:
            raise DomainError("transformed argument c/b must satisfy |c/b| < 1")
        lhs = phi_2_1(av, bv, cv, zv, ctx)
        pref = infinite_product([cv / bv, bv * zv], [cv, zv], q, ctx)
        rhs = pref * phi_2_1(av * bv * zv / cv, bv, bv * zv, cv / bv, ctx)
        return lhs, rhs


# ---------------------------------------------------------------------------
# bilateral 1psi1
# ---------------------------------------------------------------------------

def psi_1_1(a, b, z, ctx: QContext):
    """Bilateral sum over n of (a;q)_n / (b;q)_n * z^n inside its annulus."""
    aq, bq = _as_qpow(a), _as_qpow(b)
    with ctx.workdps():
        q = ctx.q
        zv = to_mp(z)
        # b = q^j (j >= 1) kills every negative-index term exactly, so only
        # |z| < 1 is needed; otherwise enforce the classical annulus.
        terminating = (bq.coeff == 1 and Fraction(bq.exponent).denominator == 1
                       and bq.exponent >= 1)
        ratio = abs(_value(bq, q) / _value(aq, q))
        if not abs(zv) < 1 or (not terminating and not ratio < abs(zv)):
            raise AnnulusError(
                f"1psi1 needs |b/a| < |z| < 1; got |b/a|={ratio}, |z|={abs(zv)}")
        return _series(_ratio_streams(aq, bq, 0, zv), ctx)


def psi_1_1_product(a, b, z, ctx: QContext):
    """Closed product form of the bilateral sum: the classical evaluation."""
    with ctx.workdps():
        q = ctx.q
        av, bv, zv = (to_mp(v) for v in (a, b, z))
        return infinite_product([q, bv / av, av * zv, q / (av * zv)],
                                [bv, q / av, zv, bv / (av * zv)], q, ctx)


# ---------------------------------------------------------------------------
# the entire q-Airy-type function A_q and friends
# ---------------------------------------------------------------------------

def ramanujan_A(z, ctx: QContext):
    """A_q(z) = sum_n (-z)^n q^{n^2} / (q;q)_n, entire in z: its ratio is
    q^{2k+1} from the square, -z, and the new (q;q) factor."""
    with ctx.workdps():
        zv = to_mp(z)
        return _series(lambda q: _ratio_terms([], [_Q1], q, -q.like(zv) * q, q * q), ctx)


def omega(v, ctx: QContext):
    """omega(v; q) = sum_{n>=0} q^{n^2} v^n."""
    with ctx.workdps():
        vv = to_mp(v)
        return _series(lambda q: _ratio_terms([], [], q, q * vv, q * q), ctx)


def a_alpha(alpha, a, t, ctx: QContext):
    """sum_{n>=0} (a;q)_n q^{alpha n^2} t^n / (q;q)_n  (alpha >= 0)."""
    aq = _as_qpow(a)
    alpha = Fraction(alpha)
    with ctx.workdps():
        return _series(_a_alpha_stream(aq, alpha, to_mp(t)), ctx)


def _a_alpha_stream(aq: QPow, alpha, tv):
    """Builder of the stream of :func:`a_alpha`."""
    return lambda q: _ratio_terms([aq], [_Q1], q, powq(q, alpha) * tv, powq(q, 2 * alpha))


def b_alpha(alpha, a, b, x, ctx: QContext):
    """Bilateral sum of (a;q)_n / (b;q)_n * q^{alpha n^2} x^n.

    For alpha > 0 the quadratic q-power dominates both tails; alpha = 0
    falls back to the 1psi1 annulus requirement.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise DomainError("alpha must be >= 0")
    aq, bq = _as_qpow(a), _as_qpow(b)
    if alpha == 0:
        return psi_1_1(aq, bq, x, ctx)
    with ctx.workdps():
        return _series(_ratio_streams(aq, bq, alpha, to_mp(x)), ctx)


@kept
def u_m_bilateral(a, m: int, ctx: QContext):
    """Bilateral sum of q^{n^2 + m n} / (a q; q)_n.

    At a = 1 the negative half vanishes identically (each reciprocal factor
    contains 1 - q^0), collapsing the sum to its unilateral gap-series half.
    """
    aq = _as_qpow(a)
    aq1 = QPow(aq.coeff, aq.exponent + 1)  # a*q

    def streams(q):
        # 1/(aq;q)_{-k} = (aq q^{-k};q)_k: the ratio (0;q)_n / (aq;q)_n
        return (_ratio_terms([], [aq1], q, powq(q, m + 1), q * q),
                _ratio_terms([aq1], [], q, powq(q, 1 - m), q * q, up=False))

    with ctx.workdps():
        return _series(streams, ctx)


# ---------------------------------------------------------------------------
# formal-series builders for the coefficient-exact checks
# ---------------------------------------------------------------------------

def rr_sum_formal(m: int, ctx: QContext) -> FormalSeries:
    """sum_n q^{n^2 + m n} / (q;q)_n in the exact ring (m >= 0)."""
    return fs_ratio_sum(ctx, 1, 1 + m, 2, den=[(1, 1)])


def rr_product_formal(which: int, ctx: QContext) -> FormalSeries:
    """1/(q^which, q^{5-which}; q^5)_infinity, which = 1 or 2."""
    if which not in (1, 2):
        raise DomainError("which must be 1 or 2")
    s = fs_pochhammer_infinite(1, which, 5, ctx, inverse=True)
    return fs_pochhammer(s, 1, 5 - which, 5, ctx, inverse=True)


def ramanujan_A_formal(z_coeff, z_qexp, ctx: QContext) -> FormalSeries:
    """A_q(c q^e) in the exact ring; needs n^2 + n e >= 0 along the support."""
    return fs_ratio_sum(ctx, -z_coeff, 1 + z_qexp, 2, den=[(1, 1)])


def omega_formal(v_coeff, v_qexp, ctx: QContext) -> FormalSeries:
    """sum_n q^{n^2} (c q^e)^n in the exact ring."""
    return fs_ratio_sum(ctx, v_coeff, 1 + v_qexp, 2)


def a_alpha_formal(alpha, a_mono, t_mono, ctx: QContext) -> FormalSeries:
    """Formal sum (a;q)_n q^{alpha n^2} t^n / (q;q)_n with monomial a, t.

    ``a_mono`` is None for a = 0, else a pair (coeff, q_exponent); same for
    ``t_mono``.
    """
    alpha = Fraction(alpha)
    tc, te = t_mono
    return fs_ratio_sum(ctx, tc, alpha + te, 2 * alpha,
                        num=[a_mono] if a_mono is not None else [], den=[(1, 1)])


# ---------------------------------------------------------------------------
# finite convolution lemma sums (exact)
# ---------------------------------------------------------------------------

@kept
def _ratio_prefix(a: Fraction, q: Fraction):
    """r_k = (a;q)_k / (q;q)_k for k = 0, 1, ..., a :class:`~qrr.context._Shared`
    stream that every n of a convolution check reads at one (a, q): one
    exact walk per draw, not one per n."""
    return _Shared(_ratios_up(_as_qpow(a), q))


def _prefix_numerators(n: int, a: Fraction, q: Fraction):
    """r_0, ..., r_n of :func:`_ratio_prefix` as integer numerators over one
    denominator, (R, L)."""
    r = _ratio_prefix(a, q)
    return _numerators([r[k] for k in range(n + 1)])


def pair_convolution_sides(n: int, a: Fraction, q: Fraction):
    """LHS and RHS of the alternating pair convolution of (a;q)_k/(q;q)_k.

    LHS = sum_{k=0}^n r_k r_{n-k} (-1)^k; RHS = 0 for odd n and
    (a^2;q^2)_m / (q^2;q^2)_m for n = 2m.  Exact for rational a and q: with
    r_k = R_k / L over one denominator, the products are summed on the
    integers R_k and divided by L^2 once.
    """
    R, L = _prefix_numerators(n, a, q)
    lhs = Fraction(sum((-1) ** k * R[k] * R[n - k] for k in range(n + 1)), L * L)
    if n % 2 == 1:
        rhs = Fraction(0)
    else:
        m = n // 2
        rhs = pochhammer_finite(a * a, q * q, m) / pochhammer_finite(q * q, q * q, m)
    return lhs, rhs


def cube_convolution_sides(n: int, a: Fraction, q: Fraction):
    """Cube-root-of-unity triple convolution, exact in Q(w).

    LHS = sum over j+k+l=n of r_j r_k r_l w^{k+2l}; RHS is 0 unless 3 | n,
    in which case it is (a^3;q^3)_m / (q^3;q^3)_m.  Both sides are returned
    as EisensteinRational values.  With r_k = R_k / L over one denominator,
    each residue class e of k + 2l mod 3 is an integer sum over the R_k,
    divided by L^3 once.
    """
    R, L = _prefix_numerators(n, a, q)
    s = [0, 0, 0]  # s[e]: the numerators of the terms weighted by w^e
    for j in range(n + 1):
        m = n - j  # k + l = m, so k + 2l = 2m - k
        pair = [0, 0, 0]
        for k in range(m + 1):
            pair[(2 * m - k) % 3] += R[k] * R[m - k]
        for e in range(3):
            s[e] += R[j] * pair[e]
    s = [Fraction(x, L ** 3) for x in s]
    lhs = EisensteinRational(s[0] - s[2], s[1] - s[2])  # w^2 = -1 - w
    if n % 3 != 0:
        rhs = EisensteinRational.of(0)
    else:
        m = n // 3
        rhs = EisensteinRational.of(
            pochhammer_finite(a ** 3, q ** 3, m) / pochhammer_finite(q ** 3, q ** 3, m))
    return lhs, rhs


# ---------------------------------------------------------------------------
# master transformations built on the convolution lemma
# ---------------------------------------------------------------------------

def _unilateral_slices(av, k, slices, alpha, tv, ctx: QContext):
    """The Gaussian sum of the slices of order k of r_j = (a;q)_j/(q;q)_j,
    j >= 0, read off one shared stream (:func:`~qrr.slices._gaussian_slices`)."""
    one = ctx.fixed_q.like(1)
    r = _Shared(_ratio_terms([_as_qpow(av)], [_Q1], ctx.fixed_q, one, one))
    return _gaussian_slices(lambda M: _Table(0, map(r.__getitem__, range(M + 1)), k, ctx),
                            slices, alpha, tv, None, ctx, stream=r)


def square_master_sides(alpha, a, t, ctx: QContext):
    """Square-argument expansion of the generalized entire function.

    LHS: the base-q^2 function at (a^2; t^2); RHS: alternating sum of shifted
    base-q evaluations, summed by :func:`~qrr.slices._gaussian_slices`.
    Returns (lhs, rhs).
    """
    alpha = Fraction(alpha)
    with ctx.workdps():
        q = ctx.q
        av, tv = to_mp(a), to_mp(t)
        ctx2 = ctx.at(q * q)
        lhs = a_alpha(2 * alpha, av * av, tv * tv, ctx2)
        # term j: r_j q^{alpha j^2} (-t)^j A(t q^{2 alpha j}), r_j = (a;q)_j/(q;q)_j
        return lhs, _unilateral_slices(av, 2, _pair_slices, alpha, tv, ctx)


def cube_master_sides(alpha, a, t, ctx: QContext):
    """Cube-argument expansion: base-q^3 function against the double sum
    with cube-root-of-unity weights, summed by
    :func:`~qrr.slices._gaussian_slices`.  Returns (lhs, rhs)."""
    alpha = Fraction(alpha)
    with ctx.workdps():
        q = ctx.q
        av, tv = to_mp(a), to_mp(t)
        ctx3 = ctx.at(q ** 3)
        lhs = a_alpha(3 * alpha, av ** 3, tv ** 3, ctx3)
        # term s: C_s q^{alpha s^2} t^s A(w^2 t q^{2 alpha s}), C_s = sum_{j+k=s} r_j w^k r_k:
        # by m = j + k + n, the cube slices of r_j = (a;q)_j/(q;q)_j
        return lhs, _unilateral_slices(av, 3, _cube_slices, alpha, tv, ctx)


def square_bilateral_master_sides(alpha, a, b, x, ctx: QContext):
    """Bilateral square-argument expansion (prefactored LHS vs j-sum RHS).

    Sampling must keep |b/a| < 1: the outer bilateral j-sum converges at the
    geometric rate |b/a| on its negative tail.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("needs alpha > 0")
    with ctx.workdps():
        q = ctx.q
        av, bv, xv = to_mp(a), to_mp(b), to_mp(x)
        if abs(bv / av) >= 1:
            raise DomainError("sampled outside |b/a| < 1")
        ctx2 = ctx.at(q * q)
        pref = infinite_product([-bv, -q / av, q, bv / av], [-q, -bv / av, bv, q / av], q, ctx)
        if pref == 0:
            # (-b, -q/a; q)_inf vanishes where B_{q^2}(a^2, b^2; .) has a pole
            raise PoleError("prefactor numerator (-b, -q/a; q)_inf vanished")
        lhs = pref * b_alpha(2 * alpha, av * av, bv * bv, xv * xv, ctx2)
        # term j: r_j q^{alpha j^2} (-x)^j B(x q^{2 alpha j}), r_j = (a;q)_j/(b;q)_j
        aq, bq = _as_qpow(av), _as_qpow(bv)
        K = slice_truncation(bv / av, ctx) + gaussian_truncation(alpha, ctx)
        return lhs, _gaussian_slices(lambda K: _bilateral_ratio_array(aq, bq, K, 2, ctx),
                                     _pair_slices, alpha, xv, K, ctx)


def cube_bilateral_master_sides(alpha, a, b, x, ctx: QContext,
                                corrected: bool = True):
    """Bilateral cube-argument expansion.

    ``corrected=True`` places the w^2 twist in the inner argument (the
    reading forced by expanding the double sum against the slice lemma);
    ``corrected=False`` evaluates the display as printed, without the twist.
    Returns (lhs, rhs).
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("needs alpha > 0")
    with ctx.workdps():
        q = ctx.q
        av, bv, xv = to_mp(a), to_mp(b), to_mp(x)
        if abs(bv / av) >= 1:
            raise DomainError("sampled outside |b/a| < 1")
        q3 = q ** 3
        ctx3 = ctx.at(q3)
        lhs = b_alpha(3 * alpha, av ** 3, bv ** 3, xv ** 3, ctx3)
        pref = (infinite_product([q3, (bv / av) ** 3], [bv ** 3, q3 / av ** 3], q3, ctx)
                * infinite_product([bv, q / av], [q, bv / av], q, ctx) ** 3)
        # term s: C_s q^{alpha s^2} x^s B(twist x q^{2 alpha s}), C_s = sum_{j+k=s}
        # r_j w^k r_k: by m = j + k + n, the cube slices of r_j = (a;q)_j/(b;q)_j,
        # r_n weighted w^(2n) by the twist w^2 and 1 without it
        aq, bq = _as_qpow(a), _as_qpow(b)
        w = None if corrected else ctx.fixed(rho_root(ctx))
        K = slice_truncation(bv / av, ctx) + gaussian_truncation(alpha, ctx)
        rhs = _gaussian_slices(lambda K: _bilateral_ratio_array(aq, bq, K, 3, ctx),
                               lambda t, ns: _cube_slices(t, ns, w), alpha, xv, K, ctx)
        return lhs, pref * rhs


# ---------------------------------------------------------------------------
# theta-quotient corollaries (simple-pole denominators)
# ---------------------------------------------------------------------------

def _pole_series(a: QPow, step: int, alpha, xv, ctx: QContext):
    """Bilateral sum over n of q^{alpha n^2} x^n / (1 - a q^{step n}), a
    ratio series in the base Q = q^step.

    With c the value of a, (c;Q)_n / (cQ;Q)_n = (1 - c) / (1 - c Q^n) for
    every integer n: upwards the product telescopes to its first numerator
    and last denominator factor, and downwards (c;Q)_n = 1 / (c Q^n;Q)_-n
    and (cQ;Q)_n = 1 / (c Q^(n+1);Q)_-n leave 1 - c over 1 - c Q^n (Gasper
    & Rahman, *Basic Hypergeometric Series*, ch. 1).  So the sum is the
    bilateral ratio sum of (c;Q)_n / (cQ;Q)_n Q^{(alpha / step) n^2} x^n
    (:func:`~qrr.summation._ratio_streams`), which declares its ratio bound, over 1 - c.

    The factor 1 - a q^{step n} can vanish only at the one n with
    |a q^{step n}| = 1, the nearest integer to -log_|q| |c| / step; that
    factor is walked first in base q (:func:`_pole_factors`), so a pole,
    n = 0 included, is named in q as the pole sum's."""
    c = _value(a, ctx.q)
    n = int(mp.nint(-mp.log(abs(c), abs(ctx.q)) / step)) if c else 0
    next(_pole_factors(a, ctx.fixed_q, step * n, step))
    build = _ratio_streams(QPow(c, 0), QPow(c, 1), Fraction(alpha, step), xv)
    return _series(lambda q: build(q ** step), ctx) / (1 - c)


def _theta_truncation(x, ctx: QContext) -> int:
    """The start K of the |j| <= K cutoff of the pole tables t_j = 1/(1 - a
    q^j) (:func:`~qrr.slices._pole_table`): slice_truncation(|q|) + s_max,
    s_max the start cutoff of the q^{s^2} weights (:func:`gaussian_truncation`):
    slice n carries no x^j (the sum factors x^n out), and its entries fall at
    rate |q| on the negative side.  :mod:`qrr.slices` checks both cutoffs.

    The annulus guard |q| < |x| < 1 stays although the sums converge for
    every x != 0: outside it, near |q| = 1, ``ms-17`` (a = -q^{1/3}) FAILs
    while ``ms-13..16`` PASS.  Its triple sum cancels far below its entries
    (7.2e-107 against a prefactor of 5.8e106 at q = 0.95), and its cube table
    is charged nothing for its entries' and weights' roundings, so the sum
    reads rounding noise (1.4e12 for a side of 4.18; 12 digits at 64 bits
    wider, all at 160).  The pair tables of ``ms-13/14`` are charged."""
    if not abs(ctx.q) < abs(x) < 1:
        raise AnnulusError("needs |q| < |x| < 1")
    return slice_truncation(abs(ctx.q), ctx) + gaussian_truncation(1, ctx)


def theta_pair_sides(a, x, ctx: QContext):
    """Single theta-type bilateral sum against the double pole-sum.

    LHS: prefactor * sum_n q^{4n^2} x^{2n} / (1 - a^2 q^{2n});
    RHS: sum over j, k of q^{(j+k)^2} (-1)^j x^{j+k} / ((1-a q^j)(1-a q^k)).
    Needs q < |x| < 1.  Returns (lhs, rhs).
    """
    aq = _as_qpow(a)
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        K = _theta_truncation(xv, ctx)
        av = _value(aq, q)
        pref = infinite_product([-av, -q / av, q, q], [av, q / av, -q, -q], q, ctx)
        a2 = QPow(aq.coeff ** 2, 2 * Fraction(aq.exponent))
        lhs = pref * _pole_series(a2, 2, 4, xv * xv, ctx)
        return lhs, _gaussian_slices(lambda K: _pole_table(aq, K, 2, ctx), _pair_slices, 1, xv,
                                     K, ctx)


def theta_pair_imag_sides(x, ctx: QContext):
    """The previous identity specialized to a^2 = -q (imaginary a).

    LHS: (q,q;q)_inf/(-q,-q;q)_inf * sum_n q^{4n^2} x^{2n}/(1 + q^{2n+1});
    RHS: double pole-sum with denominators 1 + i q^{j+1/2}.
    """
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        K = _theta_truncation(xv, ctx)
        pref = infinite_product([q, q], [-q, -q], q, ctx)
        lhs = pref * _pole_series(QPow(-1, 1), 2, 4, xv * xv, ctx)
        ia = QPow(-mp.mpc(0, 1) * mp.sqrt(q), 0)  # 1 - ia q^j = 1 + i q^{j+1/2}
        return lhs, _gaussian_slices(lambda K: _pole_table(ia, K, 2, ctx), _pair_slices, 1, xv,
                                     K, ctx)


def theta_triple_sides(a, x, ctx: QContext, arrangement: str = "base"):
    """Triple pole-sum identity for the cube-power theta quotient.

    ``arrangement="base"`` checks
        sum_n q^{9n^2} x^{3n}/(1 - a^3 q^{3n}) = pref * triple_sum;
    ``"split-left"`` checks the rearranged cube-root-argument form
        inv_pref * sum = triple_sum  (used by the q^{1/3} specializations).
    ``a`` may be a QPow so that a = +-q^{1/3} keeps exact exponents.
    Returns (lhs, rhs) for the chosen arrangement.
    """
    aq = _as_qpow(a)
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        K = _theta_truncation(xv, ctx)
        av = _value(aq, q)
        q3 = q ** 3
        a3 = QPow(aq.coeff ** 3, 3 * Fraction(aq.exponent))
        single = _pole_series(a3, 3, 9, xv ** 3, ctx)
        pref = (infinite_product([q3, q3], [av ** 3, q3 / av ** 3], q3, ctx)
                * infinite_product([av, q / av], [q, q], q, ctx) ** 3)
        triple = _gaussian_slices(lambda K: _pole_table(aq, K, 3, ctx), _cube_slices, 1, xv, K,
                                  ctx)
        if arrangement == "base":
            return single, pref * triple
        return single / pref, triple
