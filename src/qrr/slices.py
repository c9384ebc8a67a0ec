"""Bilateral slice convolutions (numeric): the slice sums of the
convolution lemma, of the master expansions built on it and of the theta
pole sums.

Slice sums have one rule: a kernel builds one :class:`_Table` per call, in
fixed point on one binary exponent, and each weighted slice
(:func:`_pair_slices`, :func:`_cube_slices`) combines the exact residue-class
sums of :func:`_class_sums` over the table's own mantissas, every index
inside the table, and rounds once, so a slice that the identity makes vanish
is an exact zero.  Within one check, every bilateral ratio table at
(a, b) is sliced off one kept pair of streams (:func:`_ratio_table_streams`).

Each table lies on the exponent that its floor bound chooses
(:class:`_Table`), and each nonzero weighted slice sum checks that bound
against its value (:func:`_floored`), which floors the table finer or asks
for a wider rerun; a Gaussian pair table is also charged its entries'
roundings, a cube table not yet.  The Gaussian-weighted slice sums, sum over
m of q^(alpha m^2) x^m S_m (``ms-7/8``, ``ms-11/12`` and the theta pole sums
``ms-13..17``), are one function, :func:`_gaussian_slices`, which checks and
grows their cutoff M.  Every bilateral table, of a Gaussian sum or of one
slice (``ms-3``, ``ms-5``), starts its cutoff K from a closed form, and
:func:`_cut` grows it until the bound :func:`_theta_cutoff` is met.

The tables read the ratio streams of :func:`~qrr.summation._ratio_streams`
and :func:`~qrr.summation._ratio_terms`, whose declared bound
(:class:`~qrr.summation._RatioBound`) also bounds a unilateral table past
its last entry, and the generic helpers of :mod:`qrr.pochhammer`; the master
and theta sides of :mod:`qrr.qfunctions` read the slice sums.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from operator import add, mul

import mpmath as mp

from .context import MAX_TERMS, QContext, _Shared, kept, to_mp
from .errors import DomainError, NonConvergenceError, PrecisionLossError
from .fixedpoint import (LN2, LOG2_10, Fixed, _complex, _real, bits_for_digits, parts,
                         rounding_bits, shifted)
from .pochhammer import (_Q1, QPow, _as_qpow, _gaussian, _pole_factors, _value,
                         infinite_product, pochhammer_finite)
from .summation import _ratio_streams


# The bits by which a slice sum may cancel below the scale A^k W of its table
# (A = sum |v_j|, W = sum |weights|) before the a-priori exponent of
# :class:`_Table` needs a finer one.  Measured at q = 0.3, where the cancellation
# is largest among the default and CI cells with |q| <= 0.5: 34 bits at
# precision 50, 37 at 100 and 40 at 200, all in the ``ms-17`` theta sum
# (the next largest, ``ms-15``, 23 to 29); it grows with the table.
CANCELLATION_BITS = 48


def _log2_sum(exponents) -> float:
    """log2 of the sum of 2^x over the float exponents x, -inf for none:
    a bound on sum |v| when each |v| < 2^x."""
    exponents = list(exponents)
    top = max(exponents, default=-math.inf)
    if math.isinf(top):
        return top
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in exponents))


class _Table:
    """Values v_j for lo <= j <= hi in fixed point on one binary exponent:
    v_j = (re_j + i im_j) 2^E, im None for a real table.  The mantissas are
    kept forward and reversed, so that a convolution sum_j f_j g_{n-j} is an
    exact integer dot product of two plain slices.

    The floor bound.  Floored to 2^E, each entry errs by under u = sqrt(2)
    2^E.  A slice of order k (2 for pairs, 3 for cubes) sums products of k
    entries whose indices have a fixed sum, so with A = sum |v_j| over the L
    entries it errs by at most sum_i C(k, i) u^i L^(i-1) A^(k-i) =
    ((A + u L)^k - A^k) / L <= k u (A + u L)^(k-1): k u A^(k-1) plus the
    u^2 terms.  :meth:`bound` is its log2, with A bounded by the entries'
    tops.  E is set a priori so that this bound is CANCELLATION_BITS below
    one unit of the working digits of A^k (``ctx.tail_log2``, which a
    wider rerun lowers), and never below the entries' own last bit, min e_j,
    where no entry is floored: there the bound reads as that last bit.  A
    slice sum checks the bound against its value (:func:`_floored`), which
    may floor the table again, finer, from the entries it keeps.
    """

    def __init__(self, lo: int, values, k: int, ctx: QContext, ab=None):
        self.values = values = list(values)
        self.lo, self.hi, self.wp, self.k = lo, lo + len(values) - 1, values[0].wp, k
        if ab:  # a bilateral table of step factors (1 - a q^j)/(1 - b q^j) (_table_top)
            a, b, q = (float(mp.log(abs(_value(c, ctx.q)), 2)) for c in (*ab, _Q1))
            b = b if b > -math.inf else a + q  # a zero b is read as |b| = |aq|
            self.steps, self.rate = (a, b, q), b - a  # the rate log2 |b/a|
        self.last = min((v.e for v in values if v), default=None)
        self.need = -ctx.tail_log2
        if self.last is None:  # every entry is zero
            self.last, self.log2_sum, E = 0, -math.inf, 0
        else:
            self.log2_sum = _log2_sum(v.top() + 0.5 for v in values if v)
            E = math.floor(self.log2_sum - self.need - CANCELLATION_BITS - math.log2(k) - 0.5)
        self.floor(max(self.last, E))

    def floor(self, E: int):
        """Put the mantissas on the exponent E, flooring every entry below it."""
        values, self.E = self.values, E
        self.re = [shifted(v.re, v.e - E) for v in values]
        self.im = None
        if any(v.im is not None for v in values):
            self.im = [shifted(v.im or 0, v.e - E) for v in values]
        self.reversed = self.re[::-1], self.im and self.im[::-1]

    def bound(self) -> float:
        """log2 of the floor bound of a slice of order k on this table."""
        u = self.E + 0.5
        spread = u + math.log2(len(self.values))
        a = max(self.log2_sum, spread)
        return math.log2(self.k) + u + (self.k - 1) * (
            a + math.log2(2.0 ** (self.log2_sum - a) + 2.0 ** (spread - a)))

    def rounded(self, re, im, e) -> Fixed:
        """(re + i im) 2^e rounded once to the table's width, real for a
        real table."""
        return _real(re, e, self.wp) if self.im is None else _complex(re, im, e, self.wp)


def _floored(t: _Table, evaluate, ctx: QContext, weight: float = 0.0,
             charge: float = -math.inf) -> Fixed:
    """``evaluate(t)``, a nonzero weighted slice sum over the table t as a
    Fixed, with ``weight`` the log2 of a bound on the sum of |weights| (0 for
    one slice), checked against the floor bound of t and ``charge``, the log2
    of a bound on the entries' own roundings (:func:`_pair_charge`).

    While the floor bound times 2^weight exceeds one unit of the working
    digits of the value, is not below the charge, and E lies above the
    entries' last bit, t is floored again, E lowered by the bits missing (by
    the working digits for a value not above the bound, zero or mostly floor
    error, whose size it does not tell), and the sum taken again.  Where it
    still misses ``ctx.precision`` digits, PrecisionLossError names the bits
    (for a charge, those that restore every working digit): the caller
    reruns wider (:func:`~qrr.context.widening`).
    """
    while True:
        value = evaluate(t)
        top = value.top() - 1 if value else t.k * t.E  # one unit of the products
        floor = t.bound() + weight
        lost = _log2_sum((floor, charge)) - top
        if value and lost <= -t.need:
            return value
        if t.E > t.last and floor >= charge:
            t.floor(max(t.last, t.E - math.ceil(t.need + min(0.0, floor - top)) - 1))
            continue
        lacking = bits_for_digits(ctx.precision) + lost
        if lacking > 0:
            missing = math.ceil(max(lacking, charge - top + t.need))
            raise PrecisionLossError(
                f"slice sum cancelled to its table's last bit; {missing} more working bits "
                "needed", missing)
        return value


def _at(parts, s):
    """The mantissa lists (re, im) at the slice s, im None for real ones."""
    re, im = parts
    return re[s], im and im[s]


def _dot(xs, ys):
    return sum(map(mul, xs, ys))


def _dots(f, g):
    """(re, im): the exact sum of the products f_j g_j of two sequences of
    mantissas, each given as its lists (re, im), both real (im None) or both
    complex."""
    (fr, fi), (gr, gi) = f, g
    if fi is None:
        return _dot(fr, gr), 0
    return _dot(fr, gr) - _dot(fi, gi), _dot(fr, gi) + _dot(fi, gr)


def _span(t: _Table, n: int):
    """(lo, hi): the j with j and n - j inside t, as (lo, lo - 1) when n lies
    beyond the table's reach; lo + hi = n when the span is not empty."""
    lo = max(t.lo, n - t.hi)
    return lo, max(min(t.hi, n - t.lo), lo - 1)


def _conv(t: _Table, n: int, lo: int, hi: int, step: int):
    """(re, im): the exact sum of t_j t_{n-j} over j = lo, lo + step, ...
    <= hi, on the exponent 2 t.E (im 0 for a real table).

    The caller keeps j and n - j inside t (:func:`_span`).
    """
    return _dots(_at((t.re, t.im), slice(lo - t.lo, hi - t.lo + 1, step)),
                 _at(t.reversed, slice(t.hi - n + lo, t.hi - n + hi + 1, step)))


def _class_sums(t: _Table, n: int, m: int) -> list:
    """The exact sums (re, im) of t_j t_k over j + k = n, j and k inside the
    table, split by the residue c of k mod m, from half the products.

    The mirror j <-> k maps the class c to the class n - c, and t_j t_k to
    itself.  Two classes that it swaps are equal and cost one dot product; a
    class that it maps to itself sums each mirror pair j < k once, doubled,
    plus the middle term j = k = n/2 when that lies in it.
    """
    lo, hi = _span(t, n)
    p = [(0, 0)] * m
    if hi < lo:
        return p
    for c in range(m):
        mirror = (n - c) % m
        j0 = lo + (n - c - lo) % m  # the first j of the class
        if c < mirror:
            p[c] = p[mirror] = _conv(t, n, j0, hi, m)
        elif c == mirror:
            re, im = _conv(t, n, j0, (n - 1) // 2, m)
            re, im = 2 * re, 2 * im
            if n % 2 == 0 and (n // 2 - c) % m == 0:
                cr, ci = (x[n // 2 - t.lo] if x else 0 for x in (t.re, t.im))
                re, im = re + cr * cr - ci * ci, im + 2 * cr * ci
            p[c] = re, im
    return p


def _pair_slices(t: _Table, ns) -> list:
    """sum over j + k = n of (-1)^j t_j t_k, j and k inside the table, for
    each n in ``ns``: the even-k class of :func:`_class_sums` minus the odd-k
    one, exact and then rounded once (zero beyond the table's reach).  For an
    even n, j and k share their parity; for an odd n the mirror swaps the two
    classes, so they are equal and the slice is an exact zero."""
    def pair_slice(n):
        (even, even_i), (odd, odd_i) = _class_sums(t, n, 2)
        return t.rounded(even - odd, even_i - odd_i, 2 * t.E)

    return [pair_slice(n) for n in ns]


def _pair_charge(t: _Table, ns, weights) -> float:
    """log2 of the charge for the entries' own roundings of sum over n in ns
    of g_n P_n, P_n the pair slices of t: 2^(rounding_bits(N) - wp) sum |g_n|
    sum |t_j t_(n - j)|, N >= 8 the largest |index|, as each product of three
    entries is at most 6 R (N + 1)^2 roundings from exact."""
    tops, terms = _tops(t.values), []
    for n, g in zip(ns, weights):
        lo, hi = _span(t, n)
        if g and lo <= hi:
            span = tops[lo - t.lo:hi - t.lo + 1]
            terms.append(g.top() + 0.5 + max(map(add, span, span[::-1])) + math.log2(hi - lo + 1))
    return rounding_bits(max(8, -t.lo, t.hi)) - t.wp + _log2_sum(terms)


def _cube_slices(t: _Table, ns, w: Fixed | None = None) -> list:
    """sum over j + k + l = n of t_j w^k t_k w^(2l) t_l, every index inside
    the table, for each n in ``ns``, rounded once: the coefficients of
    T(z) W(z), T(z) = sum t_j z^j and W(z) = T(wz) T(w^2 z).  With c_i(m)
    the classes of :func:`_class_sums` (k = i mod 3), W_m = sum_i c_i(m)
    w^(2m - i) = c_f(m) - c_(f+1)(m), f = 2m mod 3 the class the mirror
    fixes (it swaps f + 1 and f + 2, and w + w^2 = -1): one exact dot product
    per slice.  T(z) W(z) is a series in z^3, so a slice with 3 not dividing
    n is an exact zero.  With ``w`` given, the literal reading of ``ms-12``
    without the twist w^(2l), T(z) T(wz) has X_m + Y_m w, X = c_0 - c_2 and
    Y = c_1 - c_2 (w^2 = -1 - w), and the slice is x + y w, x = sum_l t_l
    X_(n - l), y likewise: the Q(w) coordinates of
    :func:`cube_convolution_sides`."""
    lo, hi = min(ns) - t.hi, max(ns) - t.lo  # the m = n - l that ns reaches
    # c_i(m) - c_(i+1)(m) for m = hi, hi - 1, ..., lo: W (i = f), or -X (i = 2) and Y (i = 1)
    cols = [([], []) for _ in range(1 if w is None else 2)]
    for m in range(hi, lo - 1, -1):
        c = _class_sums(t, m, 3)
        for (re, im), i in zip(cols, (2 * m % 3,) if w is None else (2, 1)):
            re.append(c[i][0] - c[(i + 1) % 3][0])
            im.append(c[i][1] - c[(i + 1) % 3][1])
    cols = [(re, t.im and im) for re, im in cols]

    def dot(col, n):  # sum over l of t_l times the entry at m = n - l
        return _dots(_at(col, slice(hi - n + t.lo, hi - n + t.hi + 1)), (t.re, t.im))

    if w is None:
        return [t.rounded(*dot(cols[0], n), 3 * t.E) for n in ns]
    wr, wi, we = parts(w)  # |w| = 1 at wp bits: we < 0
    out = []
    for n in ns:
        (xr, xi), (yr, yi) = dot(cols[0], n), dot(cols[1], n)
        out.append(_complex((-xr << -we) + yr * wr - yi * wi, (-xi << -we) + yr * wi + yi * wr,
                            3 * t.E + we, t.wp))
    return out


def _tops(values) -> list:
    """The float log2 bound top + 1/2 of each Fixed value, -inf for zero."""
    return [v.top() + 0.5 if v else -math.inf for v in values]


@kept
def _ratio_table_streams(a, b, ctx: QContext):
    """The two streams of 1psi1 at z = 1, r_n = (a;q)_n/(b;q)_n for n = 0,
    1, ... and n = -1, -2, ..., at ``ctx.fixed_q``, each a
    :class:`~qrr.context._Shared` stream: every table of a check at (a, b)
    reads them."""
    return tuple(map(_Shared, _ratio_streams(a, b, 0, 1)(ctx.fixed_q)))


def _bilateral_ratio_array(a: QPow, b: QPow, K: int, k: int, ctx: QContext) -> _Table:
    """r_n = (a;q)_n/(b;q)_n for n in [-K, K] at ``ctx.fixed_q``, a table for
    slices of order k, sliced off the kept streams of :func:`_ratio_table_streams`:
    the entries do not depend on K, only the table's exponent E does.  A pole
    in a stream is raised again to every table that reaches it."""
    up, down = _ratio_table_streams(a, b, ctx)
    return _Table(-K, [down[j] for j in range(K - 1, -1, -1)]
                  + [up[j] for j in range(K + 1)], k, ctx, (a, b))


def _pole_table(a: QPow, K: int, k: int, ctx: QContext) -> _Table:
    """t_j = 1/(1 - a q^j) for |j| <= K at ``ctx.fixed_q``, the pole table of
    the theta sums, for slices of order k; a vanishing factor is a pole."""
    return _Table(-K, [1 / f for f in islice(_pole_factors(a, ctx.fixed_q, -K), 2 * K + 1)],
                  k, ctx, (a, QPow(a.coeff, a.exponent + 1)))


def slice_truncation(rate, ctx: QContext) -> int:
    """Index cutoff K of a slice or pole sum whose terms decay like rate^K:
    rate^K is below 10^-(precision + 12), so a tail up to 10^6 times that
    stays below 10^-(precision + 6)."""
    rate = abs(to_mp(rate))
    if rate >= 1:
        raise DomainError("slice tails need a rate below 1 (|b/a| < 1 for a ratio table)")
    return max(8, int(mp.ceil((ctx.precision + 12) / (-mp.log10(rate)))))


def gaussian_truncation(alpha, ctx: QContext) -> int:
    """Cutoff s_max of a sum over |s| <= s_max weighted by q^(alpha s^2):
    from |s| = s_max - 2 on, the weight is below 10^-(precision + 10)."""
    rate = -mp.log10(abs(ctx.q)) * to_mp(alpha)
    return int(mp.ceil(mp.sqrt((ctx.precision + 10) / rate))) + 2


def _gaussian_slices(table, slices, alpha, xv, K, ctx: QContext, stream=None):
    """sum over m of q^(alpha m^2) x^m S_m, the one Gaussian-weighted slice
    sum, S_m = ``slices(t, ns)`` the slices of order k = t.k (pairs or cubes)
    of the table t = ``table(K)``, or ``table(M)`` for a unilateral one (K
    None): each S_m sums unit multiples of products of k entries whose
    indices add to m.  The outer sum of a square master expansion (``ms-7``,
    ``ms-11``), sum over j of r_j q^(alpha j^2) (-x)^j F(x q^(2 alpha j)) for
    F(y) = sum_n r_n q^(alpha n^2) y^n, is this sum of the pair slices of
    r_j = (a;q)_j / (b;q)_j by m = j + n; that of a cube one (``ms-8``,
    ``ms-12``), over s of C_s q^(alpha s^2) x^s F(w^2 x q^(2 alpha s)),
    C_s = sum over j + k = s of r_j w^k r_k, its sum of the cube slices of r
    by m = j + k + n (twist 0 without the w^2 of ``ms-12``).  The theta pole
    sums are its slices of the pole table (:func:`_pole_table`) at alpha = 1.
    The sum is checked by :func:`_floored`, a pair table charged its entries'
    roundings (:func:`_pair_charge`), a cube table not yet.

    Both cutoffs are checked against the sum, and grow where they miss
    10^-(precision + 6) of it.  A unilateral table, read off the
    :class:`~qrr.context._Shared` ``stream`` r_0, r_1, ..., holds r_0..r_M for
    the weights 0 <= m <= M, so its S_m are exact; past M, with A the largest
    |r_j| and rho >= 1 the declared ratio bound past r_M, each of the
    C(m + k - 1, k - 1) <= (m + 1)^(k - 1) products of S_m is at most
    A^k rho^(m - M).  A bilateral table of decay rate b = 2^t.rate < 1
    takes |m| <= M, and :func:`_cut` checks its cutoff |j| <= K.  With T as
    in :func:`_theta_cutoff` (|t_j| <= T for j >= 0, |t_-n| <= T b^n), a product of
    S_m whose indices of the sign opposite to m's (the negative ones for
    m >= 0, the positive ones for m < 0) add to d in size is at most
    T^k b^(max(0, -m) + d).  For k <= 3, C(|m| + k - 1, k - 1) products have
    d = 0, and k (|m| + 2d)^(k - 2) have each d >= 1: k (|m| + d + 1)^(k - 2)
    with one opposite index, and for k = 3 another 3 (d - 1) with two.
    Summed over d, term by term, |S_m| <= T^k b^max(0, -m) (|m| + c)^(k - 1),
    c = 1 + k / (1 - b)."""
    qf, ell, x = ctx.fixed_q, float(mp.log(abs(ctx.q), 2)), float(mp.log(abs(xv), 2))

    def tail(h, c):
        """log2 of a bound on sum over m > M of (m + c)^(k - 1) 2^(h m)
        |q|^(alpha m^2), c >= 1: each term is at most 2^(h + k - 1)
        |q|^(alpha (2M + 3)) times the last, so the first over one minus that."""
        fall = h + (t.k - 1) + alpha * (2 * M + 3) * ell
        if fall >= 0:
            return math.inf
        return ((t.k - 1) * math.log2(M + 1 + c) + h * (M + 1) + alpha * (M + 1) ** 2 * ell
                - math.log2(-math.expm1(fall * LN2)))

    M = gaussian_truncation(alpha, ctx)
    while True:
        ns = range(0 if stream else -M, M + 1)
        weights = list(islice(_gaussian(qf, alpha, qf.like(xv), ns[0]), len(ns)))
        tops = _tops(weights)

        def evaluate(t):
            return sum(g * c for g, c in zip(weights, slices(t, ns)))

        def charge(t):
            return _pair_charge(t, ns, weights) if t.k == 2 else -math.inf

        if stream:
            t = table(M)
            value = _floored(t, evaluate, ctx, _log2_sum(tops), charge(t))
            rho = max(0.0, stream.stream.bound.reading()(M))
            cut = t.k * max(_tops(t.values)) - M * rho + tail(rho + x, 1)
        else:
            t, value = _cut(table, K, evaluate, ns, tops, ctx, charge)
            K, c = t.hi, 1 + t.k / (1 - 2.0 ** t.rate)
            cut = t.k * _table_top(t) + _log2_sum((tail(x, c), tail(t.rate - x, c)))
        level = value.top() - 1 - (ctx.precision + 6) * LOG2_10
        if cut <= level:
            return value.to_mp()
        fall = -ell * alpha * (2 * M + 3)  # the bits |q|^(alpha m^2) falls by at m = M + 1
        M += M if cut == math.inf else max(1, math.ceil((cut - level) / fall))
        if M > MAX_TERMS:
            raise NonConvergenceError(f"Gaussian slice sum beyond {MAX_TERMS} terms")


def _cut(table, K, evaluate, ns, tops, ctx: QContext, charge=lambda t: -math.inf):
    """(t, value): the cutoff check of every bilateral table, t = ``table(K)``
    and ``evaluate(t)`` the sum over n in ``ns`` of g_n S_n (``tops`` the log2
    of bounds on |g_n|) by :func:`_floored`.  From the start K, t grows until
    :func:`_theta_cutoff` is below 10^-(precision + 6) of the value: twice as
    long where the bound is infinite, else by the fewest entries over which
    it falls by the bits missing at a fixed reading of T; without a sum where
    it exceeds W A^k (W = sum |g_n|, A = sum |t_j|), which bounds the value.
    A grown table starts on the exponent that the last sum needed."""
    weight, E = _log2_sum(tops), math.inf
    while True:
        t = table(K)
        if E < t.E:
            t.floor(max(t.last, E))
        bound = _theta_cutoff(t, ns, tops)
        short = bound - (t.k * t.log2_sum + weight - (ctx.precision + 6) * LOG2_10)
        if short <= 0:
            value = _floored(t, evaluate, ctx, weight, charge(t))
            short, E = bound - (value.top() - 1 - (ctx.precision + 6) * LOG2_10), t.E
            if short <= 0:
                return t, value
        hi = K if short == math.inf else math.ceil(short / -t.rate)  # b^K alone falls so far
        K += next((s for s in range(1, hi) if -s * t.rate - math.log2((K + s + 1) / (K + 1))
                   + t.k * (_past(t, K) - _past(t, K + s)) >= short), hi)
        if K > MAX_TERMS:
            raise NonConvergenceError(f"bilateral slice table beyond {MAX_TERMS} entries")


def _theta_cutoff(t: _Table, ns, tops) -> float:
    """log2 of a bound on what the cutoff |j| <= K of the bilateral table t
    omits from sum over n in ns of g_n S_n, for the slices S_n of order
    k = t.k <= 3 and ``tops`` the log2 of bounds on |g_n|; the entries fall
    at the rate b = 2^t.rate < 1 on the negative side.

    Let T be the least number with |t_j| <= T for every j >= 0 and
    |t_-m| <= T b^m for every m >= 1, past the table too (:func:`_table_top`).
    A term of slice n is a product of k entries, times a unit, whose indices
    sum to n.  If one index lies outside [-K, K], the negative ones sum to
    N >= K - |n| + 1 in size, so the term is at most T^k b^N, and at most
    6 (N + |n|) tuples share one N.  So slice n omits at most B_n = 6 T^k
    (K + 1) b^(K - |n| + 1) / (1 - b)^2, and the sum at most sum |g_n| B_n."""
    K, rate = t.hi, t.rate
    return (math.log2(6 * (K + 1)) + t.k * _table_top(t) + (K + 1) * rate
            - 2 * math.log2(1 - 2.0 ** rate)
            + _log2_sum(w - abs(n) * rate for n, w in zip(ns, tops)))


def _table_top(t: _Table) -> float:
    """log2 T (:func:`_theta_cutoff`): |t_j| <= T for j >= 0 and
    |t_-m| <= T b^m for m >= 1, b = 2^t.rate, past the table too.  Inside
    it, T is read off the entries, each below 2^(top + 1/2).  Past it each
    entry is the last times a step factor, a, b, q of log2 size ``t.steps``:
    t_(j+1) = t_j (1 - a q^j) / (1 - b q^j) (a pole table is the ratio table
    of a and aq over 1 - a), so t_-m = t_-(m-1) (b - q^m) / (a - q^m), at
    most |b/a| (1 + |q^m/b|) / (1 - |q^m/a|) in size, also with |b| read
    larger (a zero b counts as |aq|).  So T is the reading times max(F+, F-)
    (:func:`_past`), F+ = prod over i >= K of (1 + |a q^i|) / (1 - |b q^i|)
    and F- = prod over i > K of (1 + |q^i/b|) / (1 - |q^i/a|)."""
    return _past(t, t.hi) + max(v.top() + 0.5 + min(j, 0) * t.rate
                                for j, v in enumerate(t.values, t.lo) if v)


def _past(t: _Table, K: int) -> float:
    """log2 of a bound on max(F+, F-) of :func:`_table_top` at the cutoff K:
    ln(1 + s) <= s and -ln(1 - s) <= s / (1 - s) bound each ln F by
    (|X| + |Y| / (1 - |Y|)) / (1 - |q|), X and Y its first terms (a q^K, b q^K;
    q^(K+1)/b, q^(K+1)/a).  About 1e-49 at the default; infinite where a
    factor 1 - Y q^i could vanish (|Y| >= 1), and past floats (|X| > 2^1000)."""
    a, b, q = t.steps
    sides = ((a + K * q, b + K * q), ((K + 1) * q - b, (K + 1) * q - a))
    if any(y >= 0 or x > 1000 for x, y in sides):
        return math.inf
    return max(2.0 ** x + 2.0 ** y / (1 - 2.0 ** y) for x, y in sides) / -math.expm1(q * LN2) / LN2


def _ratio_slice(n: int, a, b, k: int, slices, product, ctx: QContext):
    """(S_n, P): the slice n of order k, ``slices``, of the table
    (a;q)_j/(b;q)_j, |j| <= K, K started at slice_truncation(|b/a|) + |n|
    (which raises DomainError for |b/a| >= 1) and grown by :func:`_cut`, and
    P = ``product(q, a, b, n / k)``, a and b as numbers; zero where k does
    not divide n.  There the slice is an exact zero on every table, so it
    needs no check, and it is summed on K = |n| + 2, where every residue
    class of the slice has terms.  P is taken first: a product side that
    raises (a pole, the factor budget) ends the check before any table is
    summed."""
    with ctx.workdps():
        aq, bq = _as_qpow(a), _as_qpow(b)
        av, bv = _value(aq, ctx.q), _value(bq, ctx.q)
        K = slice_truncation(bv / av, ctx) + abs(n)
        table = partial(_bilateral_ratio_array, aq, bq, k=k, ctx=ctx)
        if n % k:
            return slices(table(abs(n) + 2), [n])[0].to_mp(), mp.mpf(0)
        rhs = product(ctx.q, av, bv, n // k)
        return _cut(table, K, lambda t: slices(t, [n])[0], [n], [0.0], ctx)[1].to_mp(), rhs


def bilateral_pair_slice_sides(n: int, a, b, ctx: QContext):
    """Bilateral alternating pair convolution at fixed total n, with its
    closed product evaluation (zero for odd n)."""
    def product(q, av, bv, m):
        pref = infinite_product([q, bv / av, -bv, -q / av], [-q, -bv / av, bv, q / av], q, ctx)
        return pref * (pochhammer_finite(av * av, q * q, m) / pochhammer_finite(bv * bv, q * q, m))

    return _ratio_slice(n, a, b, 2, _pair_slices, product, ctx)


@kept
def bilateral_cube_slice_sides(n: int, a, b, ctx: QContext):
    """Bilateral cube-root-weighted triple convolution at fixed total n.

    RHS is zero unless 3 | n; for n = 3m it is the product evaluation with
    the base-q^3 factors read as infinite products.  Kept: the literal
    reading of ``ms-5`` reads its n = 3 slice again.
    """
    def product(q, av, bv, m):
        q3 = q ** 3
        pref = (infinite_product([q, bv / av], [bv, q / av], q, ctx) ** 3
                * infinite_product([bv ** 3, q3 / av ** 3], [q3, (bv / av) ** 3], q3, ctx))
        return pref * (pochhammer_finite(av ** 3, q3, m) / pochhammer_finite(bv ** 3, q3, m))

    return _ratio_slice(n, a, b, 3, _cube_slices, product, ctx)

