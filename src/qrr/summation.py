"""Convergent-series summation engine with decay certificates.

Every unilateral and bilateral series in the package funnels through
:func:`sum_series` / :func:`sum_bilateral`.  Stopping is heuristic — a run of
consecutive negligible terms plus a ratio certificate on the observed decay —
and the certificate data is reported in the outcome so failures are auditable.

The sum runs in binary fixed point (:mod:`qrr.fixedpoint`).  Terms arrive as
:class:`~qrr.fixedpoint.Fixed` values, or as mpf/mpc values that are read
exactly on entry.  The running sum is one pair of ints sharing a binary
exponent E with the terms added to it (block floating point): E sits ``wp``
bits below the top of the largest term so far, and when a term rises above
that, E moves up and the sum is shifted down with it.  A term's magnitude is
read from its bit length and leading bits.

Guard bits.  Summing N terms that each carry at most R (n + 1)^2 roundings
(see :func:`~qrr.fixedpoint.rounding_bits`) errs by less than
2^(rounding_bits(N) + top(peak) - wp); ``QContext.fixed_bits`` adds the
bits of that bound at ``max_terms`` to the working digits.  Every sum checks
the bound at the end against its own magnitude, so the cancellation bits
top(peak) - top(sum) come out of the slack.  A sum left with fewer than
``ctx.precision`` digits raises :class:`~qrr.errors.PrecisionLossError`,
which names the bits it lacks; the stream adapters of :mod:`qrr.qfunctions`
rerun it at that wider scale.  The value leaves fixed point only as the
mpf/mpc ``SumOutcome.value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import mpmath as mp
from mpmath.libmp import from_man_exp

from .context import QContext
from .errors import NonConvergenceError, PrecisionLossError, RatioTestError
from .fixedpoint import LOG2_10, Fixed, bits_for_digits, rounding_bits

# Ratios above this cap do not certify decay even if terms look small.
RATIO_CAP = 0.995
# Number of trailing magnitude ratios inspected for the certificate.
RATIO_WINDOW = 8


@dataclass(frozen=True)
class SumOutcome:
    """Result of summing one series: value, effort, and certificate data.

    ``error`` bounds the rounding error of ``value`` (the truncation error
    is ``tail_bound``).
    """

    value: object
    terms_used: int
    tail_bound: object
    converged: bool
    error: object = 0

    def __iter__(self):  # allow  value, *_ = outcome
        return iter((self.value, self.terms_used, self.tail_bound, self.converged))


def sum_series(term, ctx: QContext, group: int = 5) -> SumOutcome:
    """Sum ``term(0) + term(1) + ...`` until the tail is certified negligible.

    ``term`` is called with n = 0, 1, 2, ... in order, once each.  Kernels
    rely on that order: a series is defined by its term ratio, and its term
    function advances running products (q-powers, x-powers, Pochhammer
    ratios) by multiplication instead of recomputing term n from scratch.

    Stops once ``group`` consecutive terms fall below the context stop
    tolerance and the recent term magnitudes certify decay; raises
    NonConvergenceError when the term budget runs out, RatioTestError
    when terms are small but no decay pattern is visible, and
    PrecisionLossError when cancellation leaves fewer than
    ``ctx.precision`` digits.
    """
    with ctx.workdps():
        tol = ctx.stop_tol
        tol_log2 = -(ctx.precision + 10) * LOG2_10
        wp = ctx.fixed_bits
        bw = None            # block precision: bits kept below the peak
        term_bits = None     # precision the terms were computed at
        s_re = s_im = 0      # the running sum is (s_re + i s_im) * 2**E
        E = 0
        cplx = False
        peak, peak_log2, peak_top = 0, -math.inf, 0
        small_run = 0
        zero_run = 0
        mags = []  # (index, term) for nonzero terms
        n = 0
        while n < ctx.max_terms:
            t = term(n)
            if t.__class__ is not Fixed:
                t = Fixed.of(t, wp)
                if term_bits is None:
                    term_bits = mp.mp.prec
            re, im, e = t.re, t.im, t.e
            if re or im:
                zero_run = 0
                if bw is None:
                    bw = max(wp, t.wp)
                    term_bits = term_bits or t.wp
                    E = re.bit_length() + e - bw if im is None else t.top() - bw
                if im is None:
                    lm = math.log2(abs(re)) + e
                    top = re.bit_length() + e
                else:
                    cplx = True
                    lm = 0.5 * math.log2(re * re + im * im) + e
                    top = t.top()
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
                if lm > peak_log2:
                    peak, peak_log2, peak_top = len(mags), lm, top
                mags.append((n, t))
                small_run = small_run + 1 if lm < tol_log2 else 0
            else:
                zero_run += 1
                small_run += 1
            n += 1
            if small_run >= group and n >= group:
                value, error = _settled(s_re, s_im if cplx else None, E, peak_top, n,
                                        term_bits, bw, ctx)
                if zero_run >= group or not mags:
                    return SumOutcome(value, n, mp.mpf(0), True, error)
                view = _Magnitudes(mags)
                rate = _decay_rate(view, tol, peak)
                if rate is None:
                    rate = _parity_decay_rate(view, tol)
                if rate is None:
                    raise RatioTestError(
                        f"terms below tolerance after {n} terms but no decay certificate")
                level = max(max(view[i][1] for i in range(max(0, len(view) - group),
                                                            len(view))), tol)
                tail = level * rate / (1 - rate)
                return SumOutcome(value, n, tail,
                                  bool(tail < mp.mpf(10) ** (-ctx.precision)), error)
        raise NonConvergenceError(f"no convergence within {ctx.max_terms} terms")


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
    return total.to_mp(), mp.ldexp(mp.mpf(1), bound_top)


def sum_bilateral(term, ctx: QContext, group: int = 5) -> SumOutcome:
    """Sum ``term(n)`` over all integers n with per-tail certificates.

    ``term`` is called with n = 0, 1, 2, ... and then with n = -1, -2, ...,
    each tail in order, so a kernel may keep one running state per tail.
    The two tails' rounding bounds are checked against their sum as
    :func:`sum_series` checks its own; a sum that cancels exactly to zero
    keeps their absolute bound in ``error``.
    """
    pos = sum_series(term, ctx, group=group)
    neg = sum_series(lambda k: term(-1 - k), ctx, group=group)
    with ctx.workdps():
        value = pos.value + neg.value
        error = pos.error + neg.error
        if value != 0 and error:
            # |value| >= 2^(mag(value) - 2) and error <= 2^mag(error)
            missing = bits_for_digits(ctx.precision) + mp.mag(error) - (mp.mag(value) - 2)
            if missing > 0:
                raise PrecisionLossError(
                    f"bilateral tails cancel; {missing} more working bits needed", missing)
        return SumOutcome(value, pos.terms_used + neg.terms_used,
                          pos.tail_bound + neg.tail_bound,
                          pos.converged and neg.converged, error)


class _Magnitudes:
    """The (index, |term|) pairs of a list of (index, Fixed term), each
    magnitude made an mpf on first use: the certificate reads only a few."""

    def __init__(self, terms):
        self.terms = terms
        self.made = [None] * len(terms)

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Magnitudes(self.terms[i])
        pair = self.made[i]
        if pair is None:
            n, t = self.terms[i]
            m = abs(t.re) if t.im is None else math.isqrt(t.re * t.re + t.im * t.im)
            pair = self.made[i] = (n, mp.mpf(from_man_exp(m, t.e, *mp.mp._prec_rounding)))
        return pair

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _decay_rate(mags, tol, peak=None):
    """Certified per-index decay rate from trailing magnitudes, or None.

    Only pairs after the largest magnitude (index ``peak``, found here when
    not given) count: ratios before the peak describe how the series grows,
    not its tail.  Pairs whose earlier member sits above the stop tolerance
    are the informative ones (below it, a series that once was large is down
    in roundoff, where ratios mean nothing).  A series that never rose above
    the tolerance is judged on its raw ratios instead, so a flat plateau of
    tiny terms still fails the certificate.  Gaps from interleaved zero terms
    are normalized away.  Only the trailing ``RATIO_WINDOW`` pairs are ever
    inspected, so only their ratios are computed.
    """
    last = len(mags) - 1
    if last < 1:
        return mp.mpf("0.5")  # single nonzero term: a terminated sum
    if peak is None:
        values = [m for _, m in mags]
        peak = values.index(max(values))
    pairs = list(islice((i for i in range(last, peak, -1) if mags[i - 1][1] >= tol),
                        RATIO_WINDOW))
    if not pairs:
        pairs = range(last, max(last - RATIO_WINDOW, peak), -1)
    worst = max((_pair_ratio(mags[i - 1], mags[i]) for i in pairs), default=None)
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
    from :func:`_pair_ratio`.  The larger of the two rates bounds both
    classes, so ``level * r / (1 - r)`` stays an upper bound on the tail.
    """
    if len(mags) < 4:
        return None
    rates = [_decay_rate(mags[start::2], tol) for start in (0, 1)]
    return None if None in rates else max(rates)


def _pair_ratio(first, second):
    """(m1/m0)^(1/(n1 - n0)): the per-index ratio across a gap of zeros."""
    (n0, m0), (n1, m1) = first, second
    r = m1 / m0
    return r if n1 - n0 == 1 else r ** (mp.mpf(1) / (n1 - n0))
