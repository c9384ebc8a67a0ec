"""Convergent-series summation engine with decay certificates.

Every unilateral and bilateral series in the package funnels through
:func:`sum_series` / :func:`sum_bilateral`.  Stopping is heuristic — a run of
``STOP_RUN`` consecutive negligible terms plus a ratio certificate on the
observed decay — and the certificate data is reported in the outcome so
failures are auditable.  A term is negligible below the stop tolerance, or
below the running sum's last kept bit, where adding it floors it away; a
tail bound is negligible below 10^-precision, or at most the sum's own
rounding bound.  A sum that has not stopped after
:data:`~qrr.context.MAX_TERMS` terms raises.  Both values are module
constants: every sum runs the same stop rule on the same budget.

The sum runs in binary fixed point (:mod:`qrr.fixedpoint`).  Terms arrive as
:class:`~qrr.fixedpoint.Fixed` values, or as mpf/mpc values that are read
exactly on entry.  The running sum is one pair of ints sharing a binary
exponent E with the terms added to it (block floating point): E sits ``wp``
bits below the top of the largest term so far, and when a term rises above
that, E moves up and the sum is shifted down with it.

Bookkeeping on bit lengths.  A term's top, its bit length plus its exponent,
brackets its magnitude: |t| lies in [2^(top - 1), 2^(top + 1/2)).  The
per-term stop test and the running peak are decided on tops, and a float
log2 is taken only for a term within two bits of the stop tolerance or of
the peak.  The decay certificate compares magnitudes exactly: on tops where
they decide it, and otherwise on the mpf magnitudes, which it keeps once
made.  It ranks its ratios on top differences where two lie 4 or more
apart, otherwise by cross-multiplying those mantissas, and divides once,
for the winner.  So its outcome is bit for bit that of a certificate
on mpf magnitudes throughout.

Guard bits.  Summing N terms that each carry at most R (n + 1)^2 roundings,
n the term's index in the stream it was read from, errs by less than
2^(rounding_bits(N, f) + top(peak) - wp) for a first index f (see
:func:`~qrr.fixedpoint.rounding_bits`); a series read from its start has
f = 0, and ``QContext.fixed_bits`` adds the bits of that bound at
``MAX_TERMS`` to the working digits.  Every sum checks
the bound at the end against its own magnitude, so the cancellation bits
top(peak) - top(sum) come out of the slack.  A sum left with fewer than
``ctx.precision`` digits raises :class:`~qrr.errors.PrecisionLossError`,
which names the bits it lacks; :func:`~qrr.context.widening` reruns the
whole evaluation around the sum, inputs included, that much wider.  A
bilateral sum whose tails cancel to exactly zero raises too, as one tail
that floors to zero does.  The value leaves fixed point only as the mpf/mpc
``SumOutcome.value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_ge

from .context import MAX_TERMS, QContext
from .errors import NonConvergenceError, PrecisionLossError, RatioTestError
from .fixedpoint import Fixed, bits_for_digits, rounding_bits

# Ratios above this cap do not certify decay even if terms look small.
RATIO_CAP = 0.995
# Number of trailing magnitude ratios inspected for the certificate.
RATIO_WINDOW = 8
# A sum stops after this many consecutive terms below the stop tolerance.
STOP_RUN = 5


@dataclass(frozen=True)
class SumOutcome:
    """Result of summing one series: value, effort, and certificate data.

    ``error`` bounds the rounding error of ``value`` (the truncation error
    is ``tail_bound``).  ``converged`` says the tail bound lies below
    10^-precision or at most ``error``, and below |value|: a sum smaller
    than its own tail bound has no certified digit.
    """

    value: object
    terms_used: int
    tail_bound: object
    converged: bool
    error: object = 0

    def certified(self):
        """``value``, or NonConvergenceError naming the tail bound and |value|."""
        if self.converged:
            return self.value
        raise NonConvergenceError(
            f"sum not certified: tail bound {mp.nstr(self.tail_bound, 3)} after "
            f"{self.terms_used} terms, |value| {mp.nstr(abs(self.value), 3)}")


def sum_series(term, ctx: QContext, first: int = 0) -> SumOutcome:
    """Sum ``term(0) + term(1) + ...`` until the tail is certified negligible.

    ``term`` is called with n = 0, 1, 2, ... in order, once each.  Kernels
    rely on that order: a series is defined by its term ratio, and its term
    function advances running products (q-powers, x-powers, Pochhammer
    ratios) by multiplication instead of recomputing term n from scratch.
    ``term(n)`` lies at index ``first + n`` of the stream it is read from,
    and is charged the R (first + n + 1)^2 roundings of that index: a tail
    read from the middle of a stream is charged where it lies.

    Stops once ``STOP_RUN`` consecutive terms are negligible and the recent
    term magnitudes certify decay; raises
    NonConvergenceError when ``MAX_TERMS`` terms do not suffice,
    RatioTestError when terms are small but no decay pattern is visible,
    and PrecisionLossError when cancellation leaves fewer than
    ``ctx.precision`` digits.

    Each term is judged by its top, its bit length plus its exponent: |t|
    lies in [2^(top - 1), 2^(top + 1/2)).  A term is negligible when its
    float log2 lies below ``ctx.stop_log2``, or when its top lies below the
    block exponent E: the running sum keeps no bit under 2^E, and adding
    the term floors it to 0 or -1 units.  The second case arises only once
    the peak exceeds about 2^wp times the stop tolerance.  Tops decide the
    stop test and the running peak unless the term lies within two bits of
    the tolerance or of the peak; only then is its float log2 taken.  The
    certificate (:func:`_decay_rate`) works on the same tops and, where they
    leave the order open, on exact comparisons of mpf magnitudes; it makes
    one mpf quotient for the adjacent pairs.  The tail bound is
    level * rate / (1 - rate); the sum counts as converged when the bound
    lies below ``ctx.target_tol`` or at most the rounding bound ``error``,
    and below the sum's own magnitude.  :func:`_settled` makes |value| at
    least 10^precision times ``error``, so such a sum keeps ``precision``
    relative digits.
    """
    with ctx.workdps():
        tol_log2 = ctx.stop_log2
        # a term of top <= small_top lies below the stop tolerance, one of
        # top >= large_top above it; between them its float log2 decides
        small_top = math.floor(tol_log2) - 1
        large_top = math.ceil(tol_log2) + 2
        wp = ctx.fixed_bits
        bw = None            # block precision: bits kept below the peak
        term_bits = None     # precision the terms were computed at
        s_re = s_im = 0      # the running sum is (s_re + i s_im) * 2**E
        E = 0
        cplx = False
        peak, peak_top, peak_lm = 0, -math.inf, None  # peak_lm made on demand
        small_run = 0
        zero_run = 0
        ns, ts, tops = [], [], []  # index, value and top of each nonzero term
        for n in range(MAX_TERMS):
            t = term(n)
            if t.__class__ is not Fixed:
                t = Fixed.of(t, wp)
                if term_bits is None:
                    term_bits = mp.mp.prec
            re, im, e = t.re, t.im, t.e
            if re or im:
                zero_run = 0
                if im is None:
                    top = re.bit_length() + e
                else:
                    cplx = True
                    top = re.bit_length()
                    top_im = im.bit_length()
                    top = (top if top > top_im else top_im) + e
                if bw is None:
                    bw = max(wp, t.wp)
                    term_bits = term_bits or t.wp
                    E = top - bw
                if top - bw > E:
                    shift = top - bw - E
                    s_re >>= shift
                    s_im >>= shift
                    E += shift
                d = e - E
                if d >= 0:
                    s_re += re << d
                    if im is not None:
                        s_im += im << d
                else:
                    s_re += re >> -d
                    if im is not None:
                        s_im += im >> -d
                # the float log2 of a term lies within a hair of
                # [top - 1, top + 1/2], so tops more than two apart decide
                # the peak
                if top > peak_top + 2:
                    peak, peak_top, peak_lm = len(ts), top, None
                elif top > peak_top - 2:
                    lm = _log2(t)
                    if peak_lm is None:
                        peak_lm = _log2(ts[peak])
                    if lm > peak_lm:
                        peak, peak_top, peak_lm = len(ts), top, lm
                ns.append(n)
                ts.append(t)
                tops.append(top)
                if top <= small_top or top < E:
                    small_run += 1
                elif top >= large_top:
                    small_run = 0
                else:
                    small_run = small_run + 1 if _log2(t) < tol_log2 else 0
            else:
                zero_run += 1
                small_run += 1
            if small_run >= STOP_RUN and n >= STOP_RUN - 1:
                n += 1
                value, error = _settled(s_re, s_im if cplx else None, E, peak_top, n,
                                        first, term_bits, bw, ctx)
                if zero_run >= STOP_RUN or not ts:
                    return SumOutcome(value, n, mp.mpf(0), True, error)
                tol = ctx.stop_tol
                terms = _Terms(ns, ts, tops)
                rate = _decay_rate(terms, tol, peak)
                if rate is None:
                    rate = _parity_decay_rate(terms, tol)
                if rate is None:
                    raise RatioTestError(
                        f"terms below tolerance after {n} terms but no decay certificate")
                tail = terms.level(tol) * rate / (1 - rate)
                converged = _negligible(tail, error, ctx) and _below(tail, value)
                return SumOutcome(value, n, tail, converged, error)
        raise NonConvergenceError(f"no convergence within {MAX_TERMS} terms")


def _log2(t):
    """Float log2 |t| of a nonzero Fixed term."""
    if t.im is None:
        return math.log2(abs(t.re)) + t.e
    return 0.5 * math.log2(t.re * t.re + t.im * t.im) + t.e


def _negligible(tail, error, ctx):
    """A tail bound below ``ctx.target_tol``, or at most the sum's own
    rounding bound ``error``: such a tail moves the value no more than its
    rounding already may."""
    return tail < ctx.target_tol or tail <= error


def _below(tail, value):
    """``tail < |value|`` for a positive tail, from exponents when they
    decide it: a nonzero part of bit count bc and exponent exp is at least
    2^(exp + bc - 1)."""
    parts = value._mpc_ if value.__class__ is mp.mpc else (value._mpf_,)
    top = max((exp + bc for _, man, exp, bc in parts if man), default=None)
    if top is None:
        return False
    _, _, exp, bc = tail._mpf_
    return exp + bc < top or tail < abs(value)


def _settled(s_re, s_im, E, peak_top, n, first, term_bits, bw, ctx):
    """(value, rounding-error bound) of the block sum, after the guard check.

    The bound is 2^(rounding_bits(n, first) + top(peak) - term_bits) (see the
    module docstring), and the sum must be at least 2^precision times it.  A
    sum that comes out exactly zero is only known to lie below one unit 2^E
    of the block, which is judged the same way.
    """
    if bw is None:
        return mp.mpf(0), mp.mpf(0)
    bound_top = rounding_bits(n, first) + peak_top - term_bits
    total = Fixed(s_re, s_im, E, bw)
    top = total.top() if total else E
    missing = bits_for_digits(ctx.precision) + bound_top - (top - 1)
    if missing > 0:
        raise PrecisionLossError(
            f"sum cancelled {peak_top - top} bits below its largest term; "
            f"{missing} more working bits needed", missing)
    return total.to_mp(), mp.make_mpf((0, 1, bound_top, 1))


def sum_bilateral(pos, neg, ctx: QContext, first: int = 0) -> SumOutcome:
    """Sum a bilateral series given as its two tails, with a certificate
    for each.

    ``pos(k)`` is the term at n = k and ``neg(k)`` the term at n = -1 - k;
    each tail is summed by :func:`sum_series`, so each is called with
    k = 0, 1, 2, ... in order, once each, and a kernel may keep one running
    state per tail.  A kernel that reads its tails outward from elsewhere
    than n = 0 passes in ``first`` the stream index from which both tails
    are charged (see :func:`sum_series`).  The two tails' rounding bounds
    are checked against their sum as :func:`sum_series` checks its own; a
    sum that cancels exactly to zero is known only to lie below their bound,
    and raises PrecisionLossError as one tail that floors to zero does.  The
    sum counts as converged when each tail bound lies below
    ``ctx.target_tol`` or at most that tail's own rounding bound, and their
    sum below |value|, so a tail far smaller than the other one does not
    count against it.
    """
    pos = sum_series(pos, ctx, first)
    neg = sum_series(neg, ctx, first)
    with ctx.workdps():
        value = pos.value + neg.value
        error = pos.error + neg.error
        if error:
            # |value| >= 2^(mag(value) - 2) and error <= 2^mag(error); an
            # exact zero is known only to lie below error
            low = mp.mag(value) - 2 if value else mp.mag(error)
            missing = bits_for_digits(ctx.precision) + mp.mag(error) - low
            if missing > 0:
                raise PrecisionLossError(
                    f"bilateral tails cancel; {missing} more working bits needed", missing)
        tail = pos.tail_bound + neg.tail_bound
        converged = (_negligible(pos.tail_bound, pos.error, ctx)
                     and _negligible(neg.tail_bound, neg.error, ctx)
                     and (not tail or _below(tail, value)))
        return SumOutcome(value, pos.terms_used + neg.terms_used, tail, converged, error)


class _Terms:
    """The nonzero terms of a sum as the decay certificate reads them:
    parallel lists of index n, Fixed value and top.

    Each magnitude is known two ways, exactly both: from the top, |t| in
    [2^(top - 1), 2^(top + 1/2)]; and as the mpf magnitude that the
    certificate's values are made of.  A comparison uses the top when that
    decides it and compares mpf magnitudes otherwise.  They are kept, as mpf
    tuples, once made.
    """

    __slots__ = ("ns", "ts", "tops", "made")

    def __init__(self, ns, ts, tops, made=None):
        self.ns, self.ts, self.tops = ns, ts, tops
        self.made = {} if made is None else made

    def __len__(self):
        return len(self.ts)

    def every_other(self, start):
        """The terms at positions start, start + 2, ..., with what is made."""
        return _Terms(self.ns[start::2], self.ts[start::2], self.tops[start::2],
                      {i // 2: v for i, v in self.made.items() if i % 2 == start})

    def mpf(self, i):
        """The mpf tuple of |term i| at the current precision."""
        v = self.made.get(i)
        if v is None:
            t = self.ts[i]
            m = abs(t.re) if t.im is None else math.isqrt(t.re * t.re + t.im * t.im)
            v = self.made[i] = from_man_exp(m, t.e, *mp.mp._prec_rounding)
        return v

    def at_least(self, i, tol):
        """``|term i| >= tol`` for a positive mpf ``tol``, which lies in
        [2^(tol_top - 1), 2^tol_top)."""
        _, _, exp, bc = tol._mpf_
        tol_top = exp + bc
        top = self.tops[i]
        if top > tol_top:
            return True
        if top < tol_top - 1:
            return False
        return mpf_ge(self.mpf(i), tol._mpf_)

    def largest(self, positions):
        """The first of ``positions`` whose mpf magnitude is largest: only a
        term within one top of the highest can be."""
        tops = self.tops
        best = max(tops[i] for i in positions)
        positions = [i for i in positions if tops[i] >= best - 1]
        if len(positions) == 1:
            return positions[0]
        return max(positions, key=lambda i: mp.make_mpf(self.mpf(i)))

    def ratio(self, i):
        """The per-index ratio (m_i / m_(i-1))^(1/gap) across a gap of zero
        terms, as an mpf."""
        r = mp.make_mpf(mpf_div(self.mpf(i), self.mpf(i - 1), *mp.mp._prec_rounding))
        gap = self.ns[i] - self.ns[i - 1]
        return r if gap == 1 else r ** (mp.mpf(1) / gap)

    def worst_ratio(self, pairs):
        """The largest per-index ratio over the pairs (i - 1, i) for i in
        ``pairs``, or None for no pairs.

        Adjacent pairs are ranked exactly, m_i / m_(i-1) against
        m_j / m_(j-1) on tops or by cross-multiplying the mpf mantissas
        (:meth:`_exceeds`), and only the winner's quotient is made: division
        rounds monotonically, so it is the largest quotient.  A pair across
        a gap of zero terms is made in mpf.
        """
        ns = self.ns
        best = None
        ratios = []
        for i in pairs:
            if ns[i] - ns[i - 1] > 1:
                ratios.append(self.ratio(i))
            elif best is None or self._exceeds(i, best):
                best = i
        if best is not None:
            ratios.append(self.ratio(best))
        return max(ratios, default=None)

    def _exceeds(self, i, j):
        """``m_i / m_(i-1) > m_j / m_(j-1)`` on the mpf magnitudes, from tops
        when they decide it.

        An mpf magnitude m of top T lies in [2^(T - 1), 2^(T + 1/2) (1 + u)],
        u < 2^(1 - prec) from its rounding, so log2(m_i / m_(i-1)) lies
        within 3/2 + 2u of the top difference d_i = T_i - T_(i-1), and the
        two log2 ratios differ from d_i - d_j by at most 3 + 4u < 4: a
        difference of 4 or more decides.  One of 3 does not: with m_i and
        m_(j-1) at the foot of their brackets and m_(i-1), m_j rounded up
        past 2^(T + 1/2), ratio i falls short of ratio j.
        """
        tops = self.tops
        d = tops[i] - tops[i - 1] - tops[j] + tops[j - 1]
        if d >= 4:
            return True
        if d <= -4:
            return False
        _, a, ea, _ = self.mpf(i)
        _, b, eb, _ = self.mpf(j - 1)
        _, c, ec, _ = self.mpf(j)
        _, d, ed, _ = self.mpf(i - 1)
        shift = ea + eb - ec - ed
        if shift >= 0:
            return (a * b) << shift > c * d
        return a * b > (c * d) << -shift

    def level(self, tol):
        """The largest magnitude among the last ``STOP_RUN`` terms, or the
        tolerance if that is larger: the level the tail bound starts from."""
        first = max(0, len(self.ts) - STOP_RUN)
        _, _, exp, bc = tol._mpf_
        if max(self.tops[first:]) < exp + bc - 1:
            return tol
        j = self.largest(list(range(first, len(self.ts))))
        return mp.make_mpf(self.mpf(j)) if self.at_least(j, tol) else tol


def _decay_rate(mags, tol, peak=None):
    """Certified per-index decay rate from trailing magnitudes, or None.

    ``mags`` is a :class:`_Terms` view and ``tol`` a positive mpf.  Only
    pairs after the largest magnitude (position ``peak``, found here when
    not given) count: ratios before the peak describe how the
    series grows, not its tail.  Pairs whose earlier member sits above the
    stop tolerance are the informative ones (below it, a series that once
    was large is down in roundoff, where ratios mean nothing).  A series
    that never rose above the tolerance is judged on its raw ratios instead,
    so a flat plateau of tiny terms still fails the certificate.  Gaps from
    interleaved zero terms are normalized away.  Only the trailing
    ``RATIO_WINDOW`` pairs are ever inspected.  The pairs are chosen on tops
    and exact mpf comparisons, and the worst of them on tops or by
    cross-multiplying mantissas, so of the adjacent pairs only the returned
    ratio is divided out in mpf.
    """
    last = len(mags) - 1
    if last < 1:
        return mp.mpf("0.5")  # single nonzero term: a terminated sum
    if peak is None:
        peak = mags.largest(list(range(last + 1)))
    pairs = []
    for i in range(last, peak, -1):
        if mags.at_least(i - 1, tol):
            pairs.append(i)
            if len(pairs) == RATIO_WINDOW:
                break
    if not pairs:
        pairs = list(range(last, max(last - RATIO_WINDOW, peak), -1))
    worst = mags.worst_ratio(pairs)
    if worst is None or worst >= RATIO_CAP:
        return None  # still rising at its last term, or no decay
    return worst


def _parity_decay_rate(mags, tol):
    """Decay rate certified on the even- and odd-position magnitudes apart,
    or None.

    A series whose two interleaved classes of terms decay at different
    levels shows ratios that alternate up and down across the classes, so
    the plain certificate fails although each class decays.  Each class
    needs at least two magnitudes; the per-index rate of a gap of two comes
    from :meth:`_Terms.ratio`.  The larger of the two rates bounds both
    classes, so ``level * r / (1 - r)`` stays an upper bound on the tail.
    """
    if len(mags) < 4:
        return None
    rates = [_decay_rate(mags.every_other(start), tol) for start in (0, 1)]
    return None if None in rates else max(rates)
