"""Convergent-series summation engine with decay certificates.

Every unilateral and bilateral series in the package funnels through
:func:`sum_series` / :func:`sum_bilateral`.  Stopping is heuristic — a run of
``STOP_RUN`` consecutive negligible terms plus a ratio certificate on the
observed decay — and the certificate data is reported in the outcome so
failures are auditable.  A sum that has not stopped after
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
the peak.  The decay certificate picks its pairs on tops and ranks their
ratios on float log2s, each with a margin that covers its rounding; only
where a margin leaves the order open (a term at the tolerance, ratios that
tie in floats) are mpf magnitudes compared.  So the mpf values a sum makes
are those of its outcome: the winning ratio, the level term and the tail
bound, the same bits a certificate on mpf magnitudes throughout would give.

Guard bits.  Summing N terms that each carry at most R (n + 1)^2 roundings
(see :func:`~qrr.fixedpoint.rounding_bits`) errs by less than
2^(rounding_bits(N) + top(peak) - wp); ``QContext.fixed_bits`` adds the
bits of that bound at ``MAX_TERMS`` to the working digits.  Every sum checks
the bound at the end against its own magnitude, so the cancellation bits
top(peak) - top(sum) come out of the slack.  A sum left with fewer than
``ctx.precision`` digits raises :class:`~qrr.errors.PrecisionLossError`,
which names the bits it lacks; :func:`~qrr.context.widening` reruns the
whole evaluation around the sum, inputs included, that much wider.  The
value leaves fixed point only as the mpf/mpc ``SumOutcome.value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    10^-precision and below |value|: a sum smaller than its own tail bound
    has no certified digit.
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


def sum_series(term, ctx: QContext) -> SumOutcome:
    """Sum ``term(0) + term(1) + ...`` until the tail is certified negligible.

    ``term`` is called with n = 0, 1, 2, ... in order, once each.  Kernels
    rely on that order: a series is defined by its term ratio, and its term
    function advances running products (q-powers, x-powers, Pochhammer
    ratios) by multiplication instead of recomputing term n from scratch.

    Stops once ``STOP_RUN`` consecutive terms fall below the context stop
    tolerance and the recent term magnitudes certify decay; raises
    NonConvergenceError when ``MAX_TERMS`` terms do not suffice,
    RatioTestError when terms are small but no decay pattern is visible,
    and PrecisionLossError when cancellation leaves fewer than
    ``ctx.precision`` digits.

    Each term is judged by its top, its bit length plus its exponent: |t|
    lies in [2^(top - 1), 2^(top + 1/2)).  That decides the stop test
    (log2 |t| below ``ctx.stop_log2``) and the running peak unless the term
    lies within two bits of the tolerance or of the peak; only then is its
    float log2 taken.  The certificate (:func:`_decay_rate`) works on the
    same tops and on float log2s, and makes mpf magnitudes only for the pair
    whose ratio it returns, the term that sets the tail level and near ties.
    The tail bound is level * rate / (1 - rate); the sum counts as converged
    when the bound lies below ``ctx.target_tol`` and below the sum's own
    magnitude.
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
                if top <= small_top:
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
                                        term_bits, bw, ctx)
                if zero_run >= STOP_RUN or not ts:
                    return SumOutcome(value, n, mp.mpf(0), True, error)
                tol = _Tol.of(ctx.stop_tol)
                terms = _Terms(ns, ts, tops)
                rate = _decay_rate(terms, tol, peak)
                if rate is None:
                    rate = _parity_decay_rate(terms, tol)
                if rate is None:
                    raise RatioTestError(
                        f"terms below tolerance after {n} terms but no decay certificate")
                tail = terms.level(tol) * rate / (1 - rate)
                converged = tail < ctx.target_tol and _below(tail, value)
                return SumOutcome(value, n, tail, converged, error)
        raise NonConvergenceError(f"no convergence within {MAX_TERMS} terms")


def _log2(t):
    """Float log2 |t| of a nonzero Fixed term."""
    if t.im is None:
        return math.log2(abs(t.re)) + t.e
    return 0.5 * math.log2(t.re * t.re + t.im * t.im) + t.e


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


def _settled(s_re, s_im, E, peak_top, n, term_bits, bw, ctx):
    """(value, rounding-error bound) of the block sum, after the guard check.

    The bound is 2^(rounding_bits(n) + top(peak) - term_bits) (see the module
    docstring), and the sum must be at least 2^precision times it.  A sum
    that comes out exactly zero is only known to lie below one unit 2^E of
    the block, which is judged the same way.
    """
    if bw is None:
        return mp.mpf(0), mp.mpf(0)
    bound_top = rounding_bits(n) + peak_top - term_bits
    total = Fixed(s_re, s_im, E, bw)
    top = total.top() if total else E
    missing = bits_for_digits(ctx.precision) + bound_top - (top - 1)
    if missing > 0:
        raise PrecisionLossError(
            f"sum cancelled {peak_top - top} bits below its largest term; "
            f"{missing} more working bits needed", missing)
    return total.to_mp(), mp.make_mpf((0, 1, bound_top, 1))


def sum_bilateral(pos, neg, ctx: QContext) -> SumOutcome:
    """Sum a bilateral series given as its two tails, with a certificate
    for each.

    ``pos(k)`` is the term at n = k and ``neg(k)`` the term at n = -1 - k;
    each tail is summed by :func:`sum_series`, so each is called with
    k = 0, 1, 2, ... in order, once each, and a kernel may keep one running
    state per tail.  The two tails' rounding bounds are checked against
    their sum as :func:`sum_series` checks its own; a sum that cancels
    exactly to zero keeps their absolute bound in ``error``.  The sum counts
    as converged when each tail bound lies below ``ctx.target_tol`` and
    their sum below |value|, so a tail far smaller than the other one does
    not count against it.
    """
    pos = sum_series(pos, ctx)
    neg = sum_series(neg, ctx)
    with ctx.workdps():
        value = pos.value + neg.value
        error = pos.error + neg.error
        if value != 0 and error:
            # |value| >= 2^(mag(value) - 2) and error <= 2^mag(error)
            missing = bits_for_digits(ctx.precision) + mp.mag(error) - (mp.mag(value) - 2)
            if missing > 0:
                raise PrecisionLossError(
                    f"bilateral tails cancel; {missing} more working bits needed", missing)
        tail = pos.tail_bound + neg.tail_bound
        converged = (pos.tail_bound < ctx.target_tol and neg.tail_bound < ctx.target_tol
                     and (not tail or _below(tail, value)))
        return SumOutcome(value, pos.terms_used + neg.terms_used, tail, converged, error)


# Relative margin around a float log2 of a magnitude: it covers the float's
# own rounding (a few units in 2^-52) and the mpf magnitude's (2^-prec).
_HAIR = 2.0 ** -40


def _log2_bounds(t):
    """(lo, hi) around log2 of the mpf magnitude of a nonzero Fixed term: its
    float log2, with a relative margin and, for a complex term, room for the
    floor of the integer square root the magnitude is made from."""
    lm = _log2(t)
    margin = _HAIR * (1 + abs(lm))
    if t.im is not None:
        margin += 2.0 ** (2 - max(t.re.bit_length(), t.im.bit_length()))
    return lm - margin, lm + margin


class _Terms:
    """The nonzero terms of a sum as the decay certificate reads them:
    parallel lists of index n, Fixed value and top.

    Each magnitude is known three ways, finer and dearer in turn: from the
    top, |t| in [2^(top - 1), 2^(top + 1/2)]; a float log2 within a margin
    of it (:func:`_log2_bounds`); and the mpf magnitude that the
    certificate's values are made of.  A comparison uses the first of these
    that decides it, so mpf magnitudes are made only for the terms a
    returned value is made of and for near ties.  They are kept, as mpf
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
        """``|term i| >= tol`` for a :class:`_Tol`."""
        top = self.tops[i]
        if top > tol.above:
            return True
        if top < tol.below:
            return False
        lo, hi = _log2_bounds(self.ts[i])
        if lo > tol.log2 + tol.slack:
            return True
        if hi < tol.log2 - tol.slack:
            return False
        return mpf_ge(self.mpf(i), tol.value._mpf_)

    def largest(self, positions):
        """The first of ``positions`` whose mpf magnitude is largest."""
        tops, ts = self.tops, self.ts
        for bounds in (lambda i: (tops[i] - 1, tops[i] + 0.5 + _HAIR),
                       lambda i: _log2_bounds(ts[i])):
            if len(positions) == 1:
                return positions[0]
            positions = _contenders(positions, [bounds(i) for i in positions])
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
        ``pairs`` (in falling order), or None for no pairs.  The pairs are
        ranked on log2 bounds; only the contenders' ratios are made in mpf.
        """
        if len(pairs) > 1:
            ns, ts = self.ns, self.ts
            spans = []
            j = None
            for i in pairs:
                lo1, hi1 = (lo0, hi0) if i == j else _log2_bounds(ts[i])
                j = i - 1
                lo0, hi0 = _log2_bounds(ts[j])
                gap = ns[i] - ns[j]
                spans.append(((lo1 - hi0) / gap, (hi1 - lo0) / gap))
            pairs = _contenders(pairs, spans)
        return max(map(self.ratio, pairs), default=None)

    def level(self, tol):
        """The largest magnitude among the last ``STOP_RUN`` terms, or the
        tolerance (a :class:`_Tol`) if that is larger: the level the tail
        bound starts from."""
        first = max(0, len(self.ts) - STOP_RUN)
        if max(self.tops[first:]) < tol.below:
            return tol.value
        j = self.largest(list(range(first, len(self.ts))))
        return mp.make_mpf(self.mpf(j)) if self.at_least(j, tol) else tol.value


class _Tol(NamedTuple):
    """The stop tolerance as the certificate compares magnitudes with it: a
    term of top above ``above`` lies at or above it, one of top below
    ``below`` under it; ``log2 +- slack`` brackets its float log2."""

    value: object
    log2: float
    slack: float
    above: float
    below: float

    @classmethod
    def of(cls, tol):
        if isinstance(tol, cls):
            return tol
        _, man, exp, _ = tol._mpf_
        log2 = math.log2(man) + exp
        slack = _HAIR * (1 + abs(log2))
        return cls(tol, log2, slack, log2 + slack + 1, log2 - slack - 0.5 - _HAIR)


def _contenders(items, spans):
    """The items whose (lo, hi) span reaches the largest lower end: the only
    ones that can hold the maximum."""
    floor = max(lo for lo, _ in spans)
    return [i for i, (_, hi) in zip(items, spans) if hi >= floor]


def _decay_rate(mags, tol, peak=None):
    """Certified per-index decay rate from trailing magnitudes, or None.

    ``mags`` is a :class:`_Terms` view.  Only pairs after the largest magnitude (position ``peak``, found
    here when not given) count: ratios before the peak describe how the
    series grows, not its tail.  Pairs whose earlier member sits above the
    stop tolerance are the informative ones (below it, a series that once
    was large is down in roundoff, where ratios mean nothing).  A series
    that never rose above the tolerance is judged on its raw ratios instead,
    so a flat plateau of tiny terms still fails the certificate.  Gaps from
    interleaved zero terms are normalized away.  Only the trailing
    ``RATIO_WINDOW`` pairs are ever inspected.  The pairs are chosen on tops
    and the worst of them is found on float log2s, so the returned ratio
    and near ties are the only ratios computed in mpf.
    """
    last = len(mags) - 1
    if last < 1:
        return mp.mpf("0.5")  # single nonzero term: a terminated sum
    if peak is None:
        peak = mags.largest(list(range(last + 1)))
    tol = _Tol.of(tol)
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
