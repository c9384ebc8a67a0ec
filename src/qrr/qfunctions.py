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
values as pairs of ints.  A series enters fixed point in :func:`_unilateral` /
:func:`_bilateral`, which hand its stream builder the base q at
``ctx.fixed_bits`` (other mpf/mpc arguments are read exactly at their first
use) and rerun it wider when the engine reports cancellation; it leaves
:func:`_widening` as its certified mpf/mpc value, or as NonConvergenceError.
A Pochhammer-ratio stream, whose term ratio is a quotient of factors 1 - c q^k
times a geometric step, is one fused integer stream, :func:`_ratio_terms`
(both halves of a bilateral one from :func:`_ratio_streams`); that holds for
series, outer sums and ratio tables alike.  The generic stream helpers
(:func:`_ratios_up`, :func:`_gaussian`, :func:`~qrr.pochhammer._factors`)
serve exact Fraction sums, weights, pole tables and S_n values: Fraction q
gives exact Fractions, a Fixed q gives Fixed values.  Slice convolutions build
their tables once per call in fixed point on one binary exponent per table
(:class:`_Table`), so each inner sum is one integer dot product, rounded once.
Every product side, a quotient of infinite products over one base, is one
:func:`~qrr.pochhammer.infinite_product` walk; a vanishing denominator factor
there is a PoleError naming that factor.

Shared work.  A kernel that needs one series at a q-geometric family of
arguments y0 q^(e s) (the inner sums of the master expansions) builds a
:class:`_Lattice`: the coefficient streams at y0 once per call and width, and
each sum as those coefficients times a running power.  A self-convolution
over a range mirrored about n/2 (:func:`_self_conv_w`) sums mirror pairs
j, n - j once, from half the products of :func:`_conv_w` and with its
result bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from operator import mul

import mpmath as mp

from .context import QContext, powq, to_mp
from .errors import AnnulusError, DomainError, PoleError, PrecisionLossError
from .exactpoly import EisensteinRational
from .fixedpoint import Fixed, _complex, _real, cut, one_minus, parts, shifted
from .formal import FormalSeries, fs_pochhammer, fs_pochhammer_infinite, fs_ratio_sum
from .pochhammer import (QPow, _as_qpow, _factors, _one_like, infinite_product,
                         pochhammer_finite)
from .summation import sum_bilateral, sum_series

_Q1 = QPow(1, 1)  # the parameter q itself, as in (q;q)_n

# A rerun asks for the missing bits plus this margin, and gives up beyond
# MAX_WIDENING times the context's fixed-point precision.
RERUN_MARGIN_BITS = 16
MAX_WIDENING = 4


def _widening(run, ctx: QContext):
    """The certified value of the sum run(q), q the context's base in fixed
    point: the one exit of every numeric series.  Rerun at a wider scale while
    cancellation leaves it short of precision; past the widest scale it raises
    PrecisionLossError with ``bits`` 0, which no enclosing sum reruns for.
    """
    wp, widest = ctx.fixed_bits, MAX_WIDENING * ctx.fixed_bits
    while True:
        try:
            return run(Fixed.of(ctx.q, wp)).certified()
        except PrecisionLossError as exc:
            if not exc.bits:
                raise
            if wp + exc.bits > widest:
                raise PrecisionLossError(f"{exc} (beyond {widest} bits)", 0) from exc
            wp += exc.bits + RERUN_MARGIN_BITS


def _unilateral(build, ctx: QContext):
    """Sum of the stream of terms 0, 1, ... that ``build(q)`` returns."""
    def run(q):
        terms = build(q)
        return sum_series(lambda n: next(terms), ctx)

    return _widening(run, ctx)


def _bilateral(build, ctx: QContext):
    """Sum of the streams of terms n = 0, 1, ... and n = -1, -2, ... that
    ``build(q)`` returns as a pair."""
    def run(q):
        pos, neg = build(q)
        return sum_bilateral(lambda n: next(pos), lambda n: next(neg), ctx)

    return _widening(run, ctx)


def _geometric(x0, ratio):
    """Yield x0, x0 * ratio, x0 * ratio**2, ..."""
    while True:
        yield x0
        x0 = x0 * ratio


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


class _Lattice:
    """One series at the q-geometric family of arguments y_s = y0 q^(e s),
    s an integer, from one set of coefficient streams.

    ``build(q)`` returns the series' stream at y0, or for a ``bilateral``
    series the pair of its streams n = 0, 1, ... and n = -1, -2, ..., as the
    builders of :func:`_unilateral` / :func:`_bilateral` do.  Its term n is
    c_n y0^n, so the term at y_s is c_n h^n with h = q^(e s).  The streams
    are built once per fixed-point width ``wp`` and kept as they extend, so
    the sum at s costs one running power and one multiplication per term;
    a :func:`_widening` rerun builds them again at its wider ``wp``.  The
    lattice lives for one kernel call.

    Roundings.  h is q^(e s) from a power taken ``bitlen(|e s|) + 2`` bits
    wider and rounded once to wp, so h^n carries n roundings of its own and
    n more from the error of h, and c_n h^n one more: 2n + 1.  The
    coefficient streams of :func:`_ratio_terms` with F <= 2 factors carry at
    most n + 3n(n - 1)/2 (one division per step, and the k roundings of the
    step and of each carried power in step k).  Both doubled for complex
    values, term n carries at most 3n^2 + 6n + 2 roundings, within the
    R (n + 1)^2 = 8 (n + 1)^2 of :func:`~qrr.fixedpoint.rounding_bits`.
    """

    def __init__(self, build, e, ctx: QContext, bilateral: bool = False):
        self.build = build
        self.e = Fraction(e)
        self.ctx = ctx
        self.bilateral = bilateral
        self.tables = {}  # wp -> the shared coefficient streams at that width

    def _streams(self, q: Fixed):
        table = self.tables.get(q.wp)
        if table is None:
            streams = self.build(q)
            table = self.tables[q.wp] = [_Shared(t) for t in
                                         (streams if self.bilateral else (streams,))]
        return table

    def sum(self, s: int):
        """The series at y0 q^(e s)."""
        def build(q):
            table = self._streams(q)
            if self.bilateral:
                # the stream n = -1, -2, ... reads c_n h^n as c_n (1/h)^(-n)
                return (_scaled(table[0], _power(q, self.e * s)),
                        _scaled(table[1], _power(q, -self.e * s), 1))
            return _scaled(table[0], _power(q, self.e * s))

        return (_bilateral if self.bilateral else _unilateral)(build, self.ctx)


def _power(q: Fixed, m) -> Fixed:
    """q^m rounded once to q's width: the power is taken wide enough that
    its own roundings stay below that one."""
    wide = Fixed.of(q, q.wp + math.ceil(abs(m)).bit_length() + 2)
    return q.like(powq(wide, m))


def _scaled(coeffs: _Shared, h: Fixed, first: int = 0):
    """Yield c_n h^(n + first) for the shared coefficients c_n, n = 0, 1, ...
    (first is 0 or 1), the power carried as a running product; a real h
    multiplies each part once."""
    if h.im is not None:
        p = h if first else h.like(1)
        for n in count():
            yield coeffs[n] * p
            p = p * h
    wp, hr, he = h.wp, h.re, h.e
    pr, pe = (hr, he) if first else (1, 0)
    for n in count():
        c = coeffs[n]
        if c.im is None:
            yield _real(c.re * pr, c.e + pe, wp)
        else:
            yield _complex(c.re * pr, c.im * pr, c.e + pe, wp)
        pr, pe = pr * hr, pe + he
        k = pr.bit_length() - wp
        if k > 0:
            pr, pe = pr >> k, pe + k


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
    for finite exact or mpf sums; a fixed-point series is :func:`_ratio_terms`.

    The factors 1 - q^(n+1) never vanish for 0 < |q| < 1.
    """
    r = _one_like(q)
    for fa, fb in zip(_factors(a, q), _factors(_Q1, q)):
        yield r
        r = r * fa / fb


def _value(x, q):
    """Numeric value of a plain number or a QPow relative to q."""
    if isinstance(x, QPow):
        return to_mp(x.coeff) * powq(q, x.exponent)
    return to_mp(x)


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

        return _unilateral(lambda q: _ratio_terms([a, b], [c, _Q1], q, q.like(zv),
                                                  q.like(1)), ctx)


def phi_1_1(a, b, z, ctx: QContext):
    """1phi1(a; b; q, z) with the (-1)^k q^binom(k,2) convention factor.

    The extra factor makes the series entire in z, with terms carrying
    q^{k(k-1)/2}-type decay.
    """
    a, b = _as_qpow(a), _as_qpow(b)
    with ctx.workdps():
        zv = _value(z, ctx.q)

        # the ratio carries (-1) * q^k from the convention factor
        return _unilateral(lambda q: _ratio_terms([a], [b, _Q1], q, -q.like(zv), q), ctx)


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
        return _bilateral(_ratio_streams(aq, bq, 0, zv), ctx)


def _ratio_streams(aq: QPow, bq: QPow, alpha, xv):
    """Builder of the two streams of the bilateral sum over n of
    (a;q)_n / (b;q)_n * q^{alpha n^2} x^n."""
    def streams(q):
        x, qa, q2a = q.like(xv), powq(q, alpha), powq(q, 2 * alpha)
        return (_ratio_terms([aq], [bq], q, qa * x, q2a),
                _ratio_terms([bq], [aq], q, qa / x, q2a, up=False))

    return streams


def _ratio_terms(nums, dens, q: Fixed, step: Fixed, growth: Fixed, up: bool = True):
    """The fused stream of a series given by its term ratio
    prod_i (1 - a_i q^k) / prod_j (1 - b_j q^k) * step_k, step_{k+1} =
    step_k * growth, over the QPows a_i in ``nums`` and b_j in ``dens``.

    Upwards it yields t_0 = 1, t_1, ... with k = 0, 1, ... (term k + 1 is
    term k times ratio k); downwards it yields t_{-1}, t_{-2}, ... with
    k = -1, -2, ... (term -k is term -k + 1 times ratio -k, t_0 = 1), as
    (a;q)_n / (b;q)_n q^{alpha n^2} x^n reads from n = -1 on with a and b
    swapped.  The term, the step and every carried power a_i q^k are pairs of
    ints with an exponent each, cut back to wp bits once per step.  A factor
    whose exact exponent is 0 is 1 - coeff exactly.  A vanishing denominator
    factor is a pole (checked before the term it would divide); downwards a
    vanishing numerator factor kills the tail, which yields exact zeros.
    """
    wp, one = q.wp, q.like(1)
    k, dk = (0, 1) if up else (-1, -1)
    shift = q if up else 1 / q
    powers = [powq(q, c.exponent + k) * c.coeff for c in (*nums, *dens)]
    complex_terms = any(v.im is not None for v in (*powers, step, shift, growth))
    # per factor: [exact exponent of q, carried power, exact 1 - coeff]
    factors = [[c.exponent + k, parts(p), parts(one - c.coeff)]
               for c, p in zip((*nums, *dens), powers)]
    n_num = len(nums)
    hr, hi, he = parts(shift)
    gr, gi, ge = parts(growth)
    sr, si, se = parts(step)
    tr, ti, te = 1, 0, 0
    while True:
        fr, fi, fe, vr, vi, ve = 1, 0, 0, 1, 0, 0
        for i, f in enumerate(factors):
            e, (pr, pi, pe), exact = f
            xr, xi, xe = exact if e == 0 else one_minus(pr, pi, pe, wp)
            if i < n_num:
                if not (xr or xi) and not up:
                    zero = Fixed(0, 0 if complex_terms else None, 0, wp)
                    while True:
                        yield zero
                fr, fi, fe = fr * xr - fi * xi, fr * xi + fi * xr, fe + xe
            else:
                if not (xr or xi):
                    c = mp.nstr(to_mp(dens[i - n_num].coeff), 8)
                    raise PoleError(f"denominator factor 1 - {c} q^({e}) of the "
                                    f"{'term' if up else 'bilateral term'} ratio vanished")
                vr, vi, ve = vr * xr - vi * xi, vr * xi + vi * xr, ve + xe
            f[0] = e + dk
            f[1] = cut(pr * hr - pi * hi, pr * hi + pi * hr, pe + he, wp)
        if up:
            yield Fixed(tr, ti if complex_terms else None, te, wp)
        # t * f * step / v, with one rounding in the division
        tr, ti = tr * fr - ti * fi, tr * fi + ti * fr
        tr, ti = tr * sr - ti * si, tr * si + ti * sr
        te += fe + se - ve
        if vi:
            tr, ti = tr * vr + ti * vi, ti * vr - tr * vi
            vr = vr * vr + vi * vi
        s, m = tr.bit_length(), ti.bit_length()
        s = wp + 1 + vr.bit_length() - (m if m > s else s)
        tr, ti, te = shifted(tr, s) // vr, shifted(ti, s) // vr, te - s
        if not up:
            yield Fixed(tr, ti if complex_terms else None, te, wp)
        k += dk
        sr, si, se = cut(sr * gr - si * gi, sr * gi + si * gr, se + ge, wp)


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
    """A_q(z) = sum_n (-z)^n q^{n^2} / (q;q)_n, entire in z."""
    with ctx.workdps():
        return _unilateral(_ramanujan_A_stream(to_mp(z)), ctx)


def _ramanujan_A_stream(zv):
    """Builder of the stream of A_q(z): its ratio is q^{2k+1} from the
    square, -z, and the new (q;q) factor."""
    return lambda q: _ratio_terms([], [_Q1], q, -q.like(zv) * q, q * q)


def omega(v, ctx: QContext):
    """omega(v; q) = sum_{n>=0} q^{n^2} v^n."""
    with ctx.workdps():
        vv = to_mp(v)
        return _unilateral(lambda q: _ratio_terms([], [], q, q * vv, q * q), ctx)


def a_alpha(alpha, a, t, ctx: QContext):
    """sum_{n>=0} (a;q)_n q^{alpha n^2} t^n / (q;q)_n  (alpha >= 0)."""
    aq = _as_qpow(a)
    alpha = Fraction(alpha)
    with ctx.workdps():
        return _unilateral(_a_alpha_stream(aq, alpha, to_mp(t)), ctx)


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
        return _bilateral(_ratio_streams(aq, bq, alpha, to_mp(x)), ctx)


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
        return _bilateral(streams, ctx)


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

def pair_convolution_sides(n: int, a: Fraction, q: Fraction):
    """LHS and RHS of the alternating pair convolution of (a;q)_k/(q;q)_k.

    LHS = sum_{k=0}^n r_k r_{n-k} (-1)^k; RHS = 0 for odd n and
    (a^2;q^2)_m / (q^2;q^2)_m for n = 2m.  Exact for Fraction inputs.
    """
    r = list(islice(_ratios_up(_as_qpow(a), q), n + 1))
    lhs = sum((-1) ** k * r[k] * r[n - k] for k in range(n + 1))
    if n % 2 == 1:
        rhs = Fraction(0) if isinstance(q, Fraction) else mp.mpf(0)
    else:
        m = n // 2
        rhs = pochhammer_finite(a * a, q * q, m) / pochhammer_finite(q * q, q * q, m)
    return lhs, rhs


def cube_convolution_sides(n: int, a: Fraction, q: Fraction):
    """Cube-root-of-unity triple convolution, exact in Q(w).

    LHS = sum over j+k+l=n of r_j r_k r_l w^{k+2l}; RHS is 0 unless 3 | n,
    in which case it is (a^3;q^3)_m / (q^3;q^3)_m.  Both sides are returned
    as EisensteinRational values.
    """
    r = list(islice(_ratios_up(_as_qpow(a), q), n + 1))
    s = [Fraction(0)] * 3  # s[e]: the terms weighted by w^e
    for j in range(n + 1):
        for k in range(n + 1 - j):
            l = n - j - k
            s[(k + 2 * l) % 3] += r[j] * r[k] * r[l]
    lhs = EisensteinRational(s[0] - s[2], s[1] - s[2])  # w^2 = -1 - w
    if n % 3 != 0:
        rhs = EisensteinRational.of(0)
    else:
        m = n // 3
        rhs = EisensteinRational.of(
            pochhammer_finite(a ** 3, q ** 3, m) / pochhammer_finite(q ** 3, q ** 3, m))
    return lhs, rhs


# ---------------------------------------------------------------------------
# bilateral slice convolutions (numeric)
# ---------------------------------------------------------------------------

class _Table:
    """Values v_j for lo <= j <= hi in fixed point on one binary exponent:
    v_j = (re_j + i im_j) 2^E.  The mantissas are kept forward and reversed,
    so that a convolution sum_j f_j g_{n-j} is an integer dot product of two
    plain slices, exact and then rounded once.

    E lies 2 wp bits below the largest entry, or at the smallest entry's
    exponent if that is higher: entries down to 2^-wp of the largest keep all
    their bits, and smaller ones are floored at 2^(-2 wp) of it.  A dot
    product of n terms therefore errs, beyond the entries' own roundings, by
    less than 2n 2^(-2 wp) times its largest possible product; callers
    factor out any growth (x^j) that pairs large entries with small ones.
    """

    def __init__(self, lo: int, values):
        self.lo = lo
        self.values = list(values)
        self.hi = lo + len(self.values) - 1
        self.wp = self.values[0].wp
        nonzero = [v for v in self.values if v]
        self.E = max(min((v.e for v in nonzero), default=0),
                     max((v.top() for v in nonzero), default=0) - 2 * self.wp)
        self.re = [shifted(v.re, v.e - self.E) for v in self.values]
        self.im = None
        if any(v.im is not None for v in self.values):
            self.im = [shifted(v.im or 0, v.e - self.E) for v in self.values]
            self.im_reversed = self.im[::-1]
        self.re_reversed = self.re[::-1]

    def weighted(self, weight) -> "_Table":
        """The table of weight(j) * v_j."""
        return _Table(self.lo, [weight(j) * v for j, v in enumerate(self.values, self.lo)])


def _dot(xs, ys):
    return sum(map(mul, xs, ys))


def _conv(f: _Table, g: _Table, n: int, lo: int, hi: int, step: int = 1) -> Fixed:
    """sum of f_j g_{n-j} over j = lo, lo + step, ... <= hi, exact and then
    rounded once.

    The caller keeps j inside f and n - j inside g.
    """
    fs = slice(lo - f.lo, hi - f.lo + 1, step)
    gs = slice(g.hi - n + lo, g.hi - n + hi + 1, step)
    fr, gr = f.re[fs], g.re_reversed[gs]
    re, e = _dot(fr, gr), f.E + g.E
    if f.im is None and g.im is None:
        return _real(re, e, f.wp)
    fi = f.im[fs] if f.im is not None else None
    gi = g.im_reversed[gs] if g.im is not None else None
    if fi is None:
        im = _dot(fr, gi)
    elif gi is None:
        im = _dot(fi, gr)
    else:
        re -= _dot(fi, gi)
        im = _dot(fr, gi) + _dot(fi, gr)
    return _complex(re, im, e, f.wp)


def _conv_w(f: _Table, g: _Table, n: int, lo: int, hi: int, wpow) -> Fixed:
    """sum over lo <= j <= hi of f_j g_{n-j} w^((n-j) mod 3).

    ``wpow`` is the table (1, w, w^2); each residue class of n - j is one
    dot product, so real tables stay real until the final three terms.
    """
    return sum(wpow[t] * _conv(f, g, n, lo + (n - t - lo) % 3, hi, 3) for t in range(3))


def _self_conv_w(f: _Table, n: int, lo: int, hi: int, wpow) -> Fixed:
    """``_conv_w(f, f, n, lo, hi, wpow)`` for a range mirrored by j -> n - j
    (lo + hi = n), from half the products, with the same result bit for bit.

    The mirror maps the residue class t of n - j to the class n - t, and
    f_j f_{n-j} to itself, so the classes' dot products P_t agree in pairs.
    One pair is one dot product; the class with 2t = n (mod 3) maps to
    itself and sums each mirror pair once, doubled, plus the middle term
    j = n/2.  Each P_t is the same exact int as in :func:`_conv`, rounded
    once in the same way.
    """
    if lo + hi != n:
        raise ValueError(f"range [{lo}, {hi}] is not mirrored about {n}/2")
    own = 2 * n % 3
    pair = (own + 1) % 3
    p = [None] * 3
    p[pair] = p[(n - pair) % 3] = _conv(f, f, n, lo + (n - pair - lo) % 3, hi, 3)
    # the class of own: j from j0 in steps of 3 while j < n - j
    j0 = lo + (n - own - lo) % 3
    half = slice(j0 - f.lo, (n - 1) // 2 - f.lo + 1, 3)
    mirror = slice(f.hi - n + j0, f.hi - n + (n - 1) // 2 + 1, 3)
    fr, gr = f.re[half], f.re_reversed[mirror]
    mid = n % 2 == 0 and lo <= n // 2 <= hi
    c = n // 2 - f.lo
    e = 2 * f.E
    if f.im is None:
        re = 2 * _dot(fr, gr) + (f.re[c] ** 2 if mid else 0)
        p[own] = _real(re, e, f.wp)
    else:
        fi, gi = f.im[half], f.im_reversed[mirror]
        re = 2 * (_dot(fr, gr) - _dot(fi, gi))
        im = 2 * (_dot(fr, gi) + _dot(fi, gr))
        if mid:
            re += f.re[c] ** 2 - f.im[c] ** 2
            im += 2 * f.re[c] * f.im[c]
        p[own] = _complex(re, im, e, f.wp)
    return sum(wpow[t] * p[t] for t in range(3))


def _cube_weights(ctx: QContext):
    """(1, w, w^2) for the primitive cube root of unity w, in fixed point."""
    w = ctx.fixed(rho_root(ctx))
    return (w.like(1), w, w * w)


def _bilateral_ratio_array(a: QPow, b: QPow, q: Fixed, K: int) -> _Table:
    """r_n = (a;q)_n/(b;q)_n for n in [-K, K]: the two streams of 1psi1 at
    z = 1."""
    up, down = _ratio_streams(a, b, 0, 1)(q)
    return _Table(-K, [*islice(down, K)][::-1] + [*islice(up, K + 1)])


def slice_truncation(rate, ctx: QContext) -> int:
    """Index cutoff K of a slice or pole sum whose terms decay like rate^K:
    rate^K is below 10^-(precision + 12), so a tail up to 10^6 times that
    stays below 10^-(precision + 6)."""
    rate = abs(to_mp(rate))
    if rate >= 1:
        raise DomainError("slice tails need rate < 1")
    return max(8, int(mp.ceil((ctx.precision + 12) / (-mp.log10(rate)))))


def ratio_truncation(av, bv, q, ctx: QContext) -> int:
    """Cutoff K of the table r_n = (a;q)_n/(b;q)_n of a bilateral slice sum:
    the first m >= 8 where |r_{-m}| and |r_{-ceil(m/2)}|^2 (a tail on one index
    or split over two) are below the bound of :func:`slice_truncation`.
    r_{-m} = prod_{k<=m} (b - q^k)/(a - q^k) decays at the 1psi1 annulus rate
    |b/a| only once |q|^k < |b|; a vanishing a - q^k is left to the table."""
    if abs(bv / av) >= 1:
        raise DomainError("slice tails need |b/a| < 1")
    bound, qk, r = mp.mpf(10) ** -(ctx.precision + 12), mp.mpf(1), [mp.mpf(1)]
    while len(r) <= 8 or r[-1] >= bound or r[len(r) // 2] ** 2 >= bound:
        qk *= q
        r.append(r[-1] * abs(bv - qk) / abs(av - qk) if av != qk else r[-1])
    return len(r) - 1


def bilateral_pair_slice_sides(n: int, a, b, ctx: QContext):
    """Bilateral alternating pair convolution at fixed total n, with its
    closed product evaluation (zero for odd n)."""
    aq, bq = _as_qpow(a), _as_qpow(b)
    with ctx.workdps():
        q = ctx.q
        av, bv = _value(aq, q), _value(bq, q)
        K = ratio_truncation(av, bv, q, ctx) + abs(n)
        r = _bilateral_ratio_array(aq, bq, ctx.fixed(q), K)
        signed = r.weighted(lambda k: (-1) ** (k % 2))
        lhs = _conv(r, signed, n, max(-K, n - K), min(K, n + K)).to_mp()
        if n % 2 == 1:
            return lhs, mp.mpf(0)
        m = n // 2
        pref = infinite_product([q, bv / av, -bv, -q / av], [-q, -bv / av, bv, q / av], q, ctx)
        tail = (pochhammer_finite(av * av, q * q, m)
                / pochhammer_finite(bv * bv, q * q, m))
        return lhs, pref * tail


def bilateral_cube_slice_sides(n: int, a, b, ctx: QContext):
    """Bilateral cube-root-weighted triple convolution at fixed total n.

    RHS is zero unless 3 | n; for n = 3m it is the product evaluation with
    the base-q^3 factors read as infinite products.
    """
    aq, bq = _as_qpow(a), _as_qpow(b)
    with ctx.workdps():
        q = ctx.q
        wpow = _cube_weights(ctx)
        av, bv = _value(aq, q), _value(bq, q)
        K = ratio_truncation(av, bv, q, ctx) + abs(n)
        r = _bilateral_ratio_array(aq, bq, ctx.fixed(q), K)
        # sum over j + k + l = n of r_j (w^k r_k) (w^{2l} r_l), |j|, |k|, |l| <= K
        lo, hi = max(-2 * K, n - K), min(2 * K, n + K)
        conv12 = _Table(lo, [_self_conv_w(r, m, max(-K, m - K), min(K, m + K), wpow)
                             for m in range(lo, hi + 1)])
        lhs = _conv(conv12, r.weighted(lambda l: wpow[(2 * l) % 3]), n, lo, hi).to_mp()
        if n % 3 != 0:
            return lhs, mp.mpf(0)
        m = n // 3
        q3 = q ** 3
        pref = (infinite_product([q, bv / av], [bv, q / av], q, ctx) ** 3
                * infinite_product([bv ** 3, q3 / av ** 3], [q3, (bv / av) ** 3], q3, ctx))
        tail = (pochhammer_finite(av ** 3, q3, m)
                / pochhammer_finite(bv ** 3, q3, m))
        return lhs, pref * tail


# ---------------------------------------------------------------------------
# master transformations built on the convolution lemma
# ---------------------------------------------------------------------------

def _outer_terms(coeffs, indices, inner: _Lattice):
    """Yield c_j F(y_j) from the streams c and j, F(y_j) the sum of the
    ``inner`` lattice at j; it is not summed where c_j is an exact zero."""
    for c, j in zip(coeffs, indices):
        yield c * inner.sum(j) if c else c


def square_master_sides(alpha, a, t, ctx: QContext):
    """Square-argument expansion of the generalized entire function.

    LHS: the base-q^2 function at (a^2; t^2); RHS: alternating sum of shifted
    base-q evaluations.  Returns (lhs, rhs).
    """
    alpha = Fraction(alpha)
    with ctx.workdps():
        q = ctx.q
        av, tv = to_mp(a), to_mp(t)
        ctx2 = QContext.numeric(q * q, precision=ctx.precision)
        lhs = a_alpha(2 * alpha, av * av, tv * tv, ctx2)
        # term j: r_j q^{alpha j^2} (-t)^j A(t q^{2 alpha j})
        aq = _as_qpow(av)
        inner = _Lattice(_a_alpha_stream(aq, alpha, tv), 2 * alpha, ctx)
        outer = _a_alpha_stream(aq, alpha, -tv)
        return lhs, _unilateral(lambda q: _outer_terms(outer(q), count(), inner), ctx)


def cube_master_sides(alpha, a, t, ctx: QContext):
    """Cube-argument expansion: base-q^3 function against the double sum
    with cube-root-of-unity weights.  Returns (lhs, rhs)."""
    alpha = Fraction(alpha)
    with ctx.workdps():
        q = ctx.q
        av, tv = to_mp(a), to_mp(t)
        ctx3 = QContext.numeric(q ** 3, precision=ctx.precision)
        lhs = a_alpha(3 * alpha, av ** 3, tv ** 3, ctx3)
        # slice coefficients C(s) = sum_{j+k=s} r_j r_k w^k
        tol_digits = ctx.precision + 8
        s_max = 2
        while float(alpha) * s_max * s_max * float(-mp.log10(abs(q))) < tol_digits:
            s_max += 1
        qf, wpow = ctx.fixed(q), _cube_weights(ctx)
        one = qf.like(1)
        r = _Table(0, islice(_ratio_terms([_as_qpow(av)], [_Q1], qf, one, one), s_max + 1))
        weights = _gaussian(qf, alpha, qf.like(tv))
        # the inner function at w^2 t q^{2 alpha s}
        inner = _Lattice(_a_alpha_stream(_as_qpow(av), alpha, rho_root(ctx) ** 2 * tv),
                         2 * alpha, ctx)
        rhs = 0 * qf
        for s, g in zip(range(s_max + 1), weights):
            c = _self_conv_w(r, s, 0, s, wpow)
            rhs += c * g * inner.sum(s)
        return lhs, rhs.to_mp()


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
        ctx2 = QContext.numeric(q * q, precision=ctx.precision)
        pref = infinite_product([-bv, -q / av, q, bv / av], [-q, -bv / av, bv, q / av], q, ctx)
        if pref == 0:
            # (-b, -q/a; q)_inf vanishes where B_{q^2}(a^2, b^2; .) has a pole
            raise PoleError("prefactor numerator (-b, -q/a; q)_inf vanished")
        lhs = pref * b_alpha(2 * alpha, av * av, bv * bv, xv * xv, ctx2)

        # term j: r_j q^{alpha j^2} (-x)^j B(x q^{2 alpha j})
        aq, bq = _as_qpow(av), _as_qpow(bv)
        inner = _Lattice(_ratio_streams(aq, bq, alpha, xv), 2 * alpha, ctx, bilateral=True)
        outer = _ratio_streams(aq, bq, alpha, -xv)

        def streams(q):
            pos, neg = outer(q)
            return (_outer_terms(pos, count(), inner),
                    _outer_terms(neg, count(-1, -1), inner))

        return lhs, _bilateral(streams, ctx)


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
        ctx3 = QContext.numeric(q3, precision=ctx.precision)
        lhs = b_alpha(3 * alpha, av ** 3, bv ** 3, xv ** 3, ctx3)
        pref = (infinite_product([q3, (bv / av) ** 3], [bv ** 3, q3 / av ** 3], q3, ctx)
                * infinite_product([bv, q / av], [q, bv / av], q, ctx) ** 3)
        # double bilateral sum arranged by slices s = j + k.  The q^{alpha s^2}
        # weight is neutralized by the inner function's bilateral growth on
        # BOTH tails (huge argument for s << 0, tiny argument for s >> 0), so
        # the slice terms only decay like (b/a)^|s| in each direction.
        K = ratio_truncation(av, bv, q, ctx)
        qf, wpow = ctx.fixed(q), _cube_weights(ctx)
        r = _bilateral_ratio_array(_as_qpow(a), _as_qpow(b), qf, 3 * K)
        twist = rho_root(ctx) ** 2 if corrected else 1
        weights = _gaussian(qf, alpha, qf.like(xv), -K)  # q^{alpha s^2} x^s
        # the inner function at twist x q^{2 alpha s}
        inner = _Lattice(_ratio_streams(_as_qpow(av), _as_qpow(bv), alpha, twist * xv),
                         2 * alpha, ctx, bilateral=True)
        rhs_sum = 0 * qf
        for s, g in zip(range(-K, K + 1), weights):
            c = _conv_w(r, r, s, -K - abs(s), K + abs(s), wpow)
            rhs_sum += c * g * inner.sum(s)
        return lhs, pref * rhs_sum.to_mp()


# ---------------------------------------------------------------------------
# theta-quotient corollaries (simple-pole denominators)
# ---------------------------------------------------------------------------

def _pole_table(a: QPow, q, lo: int, hi: int) -> _Table:
    """v_j = 1/(1 - a q^j) for lo <= j <= hi (x^j-free factor)."""
    out = []
    for j, f in zip(range(lo, hi + 1), _factors(a, q, lo)):
        if f == 0:
            raise PoleError(f"denominator 1 - a q^{j} vanished")
        out.append(1 / f)
    return _Table(lo, out)


def _pole_series(a: QPow, step: int, alpha, xv, ctx: QContext):
    """Bilateral sum over n of q^{alpha n^2} x^n / (1 - a q^{step n})."""

    def terms(factors, weights):
        for f, g in zip(factors, weights):
            if f == 0:
                raise PoleError("pole in the single sum")
            yield g / f

    def streams(q):
        x = q.like(xv)
        return (terms(_factors(a, q, 0, step), _gaussian(q, alpha, x)),
                terms(_factors(a, q, -step, -step), _gaussian(q, alpha, 1 / x, 1)))

    return _bilateral(streams, ctx)


def _theta_truncation(x, ctx: QContext):
    """(K, s_max): the |j| <= K cutoff of the pole sums, which decay at rate
    max(|x|, |q/x|), and the |s| <= s_max cutoff of the q^{s^2} weights.
    The pole sums converge only on the annulus |q| < |x| < 1."""
    q = ctx.q
    if not abs(q) < abs(x) < 1:
        raise AnnulusError("needs |q| < |x| < 1")
    K = slice_truncation(max(abs(x), abs(q / x)), ctx)
    s_max = int(mp.ceil(mp.sqrt((ctx.precision + 10) / (-mp.log10(abs(q)))))) + 2
    return K, s_max


def _pair_slices(inv: _Table, x, q, K: int, s_max: int):
    """sum over |s| <= s_max of q^{s^2} sum_{|j| <= K} (-x)^j inv_j x^{s-j} inv_{s-j},
    for fixed-point x and q, as an mp number.  The x-powers of slice s
    multiply to x^s, which is factored out of its dot product.

    ``inv`` covers [-(K + s_max), K + s_max].
    """
    f = _Table(-K, inv.values[-K - inv.lo:K - inv.lo + 1]).weighted(lambda j: (-1) ** (j % 2))
    total = sum(q ** (s * s) * x ** s * _conv(f, inv, s, -K, K)
                for s in range(-s_max, s_max + 1))
    return total.to_mp()


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
        K, s_max = _theta_truncation(xv, ctx)
        av = _value(aq, q)
        pref = infinite_product([-av, -q / av, q, q], [av, q / av, -q, -q], q, ctx)
        a2 = QPow(aq.coeff ** 2, 2 * Fraction(aq.exponent))
        lhs = pref * _pole_series(a2, 2, 4, xv * xv, ctx)
        qf = ctx.fixed(q)
        rhs = _pair_slices(_pole_table(aq, qf, -(K + s_max), K + s_max), qf.like(xv), qf,
                           K, s_max)
        return lhs, rhs


def theta_pair_imag_sides(x, ctx: QContext):
    """The previous identity specialized to a^2 = -q (imaginary a).

    LHS: (q,q;q)_inf/(-q,-q;q)_inf * sum_n q^{4n^2} x^{2n}/(1 + q^{2n+1});
    RHS: double pole-sum with denominators 1 + i q^{j+1/2}.
    """
    with ctx.workdps():
        q = ctx.q
        xv = to_mp(x)
        K, s_max = _theta_truncation(xv, ctx)
        pref = infinite_product([q, q], [-q, -q], q, ctx)
        lhs = pref * _pole_series(QPow(-1, 1), 2, 4, xv * xv, ctx)
        ia = QPow(-mp.mpc(0, 1) * mp.sqrt(q), 0)  # 1 - ia q^j = 1 + i q^{j+1/2}
        qf = ctx.fixed(q)
        rhs = _pair_slices(_pole_table(ia, qf, -(K + s_max), K + s_max), qf.like(xv), qf,
                           K, s_max)
        return lhs, rhs


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
        K, s_max = _theta_truncation(xv, ctx)
        av = _value(aq, q)
        q3 = q ** 3
        a3 = QPow(aq.coeff ** 3, 3 * Fraction(aq.exponent))
        single = _pole_series(a3, 3, 9, xv ** 3, ctx)
        pref = (infinite_product([q3, q3], [av ** 3, q3 / av ** 3], q3, ctx)
                * infinite_product([av, q / av], [q, q], q, ctx) ** 3)
        qf, wpow = ctx.fixed(q), _cube_weights(ctx)
        inv = _pole_table(aq, qf, -(2 * K + s_max), 2 * K + s_max)
        # sum over m1 + m2 + l = s of h_{m1} (w^{m2} h_{m2}) (w^{2l} h_l),
        # |m1|, |m2| <= K, with h_j = x^j inv_j: the x-powers multiply to x^s
        conv12 = _Table(-2 * K, [_self_conv_w(inv, m, max(-K, m - K), min(K, m + K), wpow)
                                 for m in range(-2 * K, 2 * K + 1)])
        inv3 = inv.weighted(lambda l: wpow[(2 * l) % 3])
        x = qf.like(xv)
        triple = sum(qf ** (s * s) * x ** s * _conv(conv12, inv3, s, -2 * K, 2 * K)
                     for s in range(-s_max, s_max + 1)).to_mp()
        if arrangement == "base":
            return single, pref * triple
        return single / pref, triple
