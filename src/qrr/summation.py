"""Convergent-series summation engine with tail certificates.

Every unilateral and bilateral series in the package funnels through
:func:`sum_series` / :func:`sum_bilateral`.  A sum stops by one of three
rules, and the certificate data is reported in the outcome so failures are
auditable.

* **Declared bound.**  A stream whose term ratio is known in closed form
  declares a bound rho(K) on every later ratio |t(m + 1) / t(m)|, m >= K
  (:class:`_RatioBound`, carried by a :class:`_Declared` stream): every
  Pochhammer-ratio stream of the series kernels, which is one fused
  :func:`_ratio_terms` stream, defined here beside its bound (both halves
  of a bilateral one from :func:`_ratio_streams`).  Such a sum stops after the
  first term t(K) with rho(K) < 1 and |t(K)| rho(K) / (1 - rho(K)) below one
  unit of the working digits, 10^-(precision + GUARD_DIGITS) 2^-extra_bits,
  or below the running sum's last kept bit, and reports that bound as its
  tail bound: the tail after t(K) is a geometric series term by term below
  it (Johansson, "Computing hypergeometric functions rigorously", ACM TOMS
  45(3), 2019).  It reads no stop run and makes no observed certificate.
* **Closed geometric remainder.**  A declared stream whose ratio tends to
  a constant s (growth exactly 1, and downwards as many numerator as
  denominator factors) has, from its entry n on, the ratio
  s prod_num (1 - x q^i) / prod_den (1 - x q^i) over the factor values x
  at entry n.  Such a sum stops at the first term t(n) whose first-order
  remainder t(n) s / (1 - s) (1 + D / (1 - s q)), D = sum_den x -
  sum_num x (Gasper & Rahman, *Basic Hypergeometric Series*, ch. 1), errs
  by no more than the R (n + 2)^2 roundings the charge allows index
  n + 1, and adds it as that term; its tail bound is 0.  The error is of
  second order in the x (:meth:`_RatioBound._closing` gives the bound), so
  a sum closes at about half the index at which every factor is 1 at the
  working width; until then the declared bound may stop the sum as before.
* **Observed decay.**  Every other stream stops after a run of
  ``STOP_RUN`` consecutive negligible terms plus a ratio certificate on the
  observed decay, which is heuristic.  Only mixed streams are left to it: a
  ratio stream times S_n, q-Bessel or inner-sum values.

A term is negligible below the stop tolerance, or below the running sum's
last kept bit, where adding it floors it away; a tail bound is negligible
below 10^-precision, or at most the sum's own rounding bound.  A sum that
has not stopped after :data:`~qrr.context.MAX_TERMS` terms raises.  Both
values are module constants: every sum runs its stop rule on the same
budget.

The sum runs in binary fixed point (:mod:`qrr.fixedpoint`).  Terms arrive as
:class:`~qrr.fixedpoint.Fixed` values, or as mpf/mpc values that are read
exactly on entry.  The running sum is one pair of ints sharing a binary
exponent E with the terms added to it (block floating point): E sits ``wp``
bits below the top of the largest term so far, and when a term rises above
that, E moves up and the sum is shifted down with it.

Bookkeeping on bit lengths.  A term's top, its bit length plus its exponent,
brackets its magnitude: |t| lies in [2^(top - 1), 2^(top + 1/2)).  The
running peak is decided on tops, and a float log2 is taken only for a term
within two bits of the peak; under a declared bound, only for a term whose
top leaves the bound's stop test open.  Under the observed rule a term is
negligible when its top lies below the block exponent or its float log2
below the stop tolerance's.  The decay certificate runs on mpf magnitudes:
a tail under the observed rule keeps its nonzero terms as (index, value)
pairs, and at its stop each becomes one mpf magnitude at the working
precision, which the certificate compares and divides as plain mpf values.

Guard bits.  Summing N terms that each carry at most R (n + 1)^2 roundings,
n the term's index, errs by less than 2^(rounding_bits(N) + top(peak) - wp)
(see :func:`~qrr.fixedpoint.rounding_bits`), and ``QContext.fixed_bits``
adds the bits of that bound at ``MAX_TERMS`` to the working digits.  Every
sum checks the bound at the end against its own magnitude, so the
cancellation bits top(peak) - top(sum) come out of the slack.  A sum left
with fewer than ``ctx.precision`` digits raises
:class:`~qrr.errors.PrecisionLossError`, which names the bits it lacks;
:func:`~qrr.context.widening` reruns the whole evaluation around the sum,
inputs included, that much wider and its stop levels that much deeper (the
digits it asks of a sum stay).  A bilateral sum is one block: its second tail
adds into the running sum of the first, the N terms of both are charged as
one sum, and the bound is checked once, so tails that cancel to exactly zero
raise as one tail that floors to zero does.  Where the second tail has
cancelled the sum below the level at which a declared first tail stopped,
the first is read on from where it stopped, to a level off the sum of both.
The value leaves fixed point only as the mpf/mpc ``SumOutcome.value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import mpmath as mp
from mpmath.libmp import from_man_exp

from .context import MAX_TERMS, QContext, powq
from .errors import NonConvergenceError, PrecisionLossError, RatioTestError
from .fixedpoint import (LN2, ROUNDINGS, Fixed, bits_for_digits, cut, one_minus, parts,
                         rounding_bits, shifted)
from .pochhammer import QPow, pole


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


def sum_series(term, ctx: QContext, ratio=None, then=None) -> SumOutcome:
    """Sum ``term(0) + term(1) + ...`` until the tail is certified negligible.

    ``term`` is called with n = 0, 1, 2, ... in order, once each.  Kernels
    rely on that order: a series is defined by its term ratio, and its term
    function advances running products (q-powers, x-powers, Pochhammer
    ratios) by multiplication instead of recomputing term n from scratch,
    and ``term(n)`` is charged the R (n + 1)^2 roundings of its index.
    ``then``, a pair (term, ratio) of a second tail, is read from n = 0 on
    into the same block once the first tail stops, and stops by its own
    rule (:func:`sum_bilateral`).  If the first tail's declared bound is
    then not below the level read off the running sum of both, the first
    tail is read on from the term after its stop, by its own rule at that
    level, and its new bound replaces the old.

    Three stop rules (see the module docstring).  With a declared bound
    ``ratio``, a :class:`_RatioBound`: ``ratio(n)`` is log2 of a bound rho_n on
    every later ratio |t(m + 1) / t(m)|, m >= n, and the sum stops after the
    first term t(n) with rho_n < 1 and |t(n)| rho_n / (1 - rho_n) below the
    level L: the larger of one unit of the working digits,
    2^``ctx.tail_log2`` = 10^-(precision + GUARD_DIGITS) 2^-extra_bits
    (a wider rerun stops deeper), and one unit 2^E
    of the running block, where a term would floor away.  An exact zero term
    stops it at any finite rho_n, as every later term is zero.  That bound,
    rounded up to a power of two, is the tail bound.  L lies 5 digits below
    the stop tolerance, where a term counts as negligible: a tail just
    below the stop tolerance moves the last working digits that the stop
    run of the observed rule kept, and 15 digits below ``ctx.target_tol``,
    where stopping would cost that many digits of every value.  log2 rho_n
    is at least ``ratio.low + ratio.slope * n``, so a
    term with top - 1 + that >= log2 L cannot stop the sum, and its bound is
    not evaluated.  A declared read with ``ratio.close`` finite (a stream
    whose ratio tends to a constant) stops instead at the first nonzero
    term t(n) with n >= ``ratio.close``, unless the bound stopped it before:
    the rest of the series, its first-order remainder
    ``ratio.rest(t(n), n)``, is added as term n + 1, charged the
    R (n + 2)^2 roundings of that index, and the tail bound is 0.  Without
    a declared bound (a mixed stream, whose terms are a ratio stream's times
    values of another sum), the sum stops once
    ``STOP_RUN`` consecutive terms are negligible and the recent term
    magnitudes certify decay, and raises RatioTestError when terms are
    small but no decay pattern is visible.  Either way it raises
    NonConvergenceError when ``MAX_TERMS`` terms do not suffice, and
    PrecisionLossError when cancellation leaves fewer than ``ctx.precision``
    digits.

    Each term is judged by its top, its bit length plus its exponent: |t|
    lies in [2^(top - 1), 2^(top + 1/2)).  A term is negligible when its top
    lies below the block exponent E, or its float log2 below
    ``ctx.stop_log2``: the running sum keeps no bit under 2^E, and adding
    the term floors it to 0 or -1 units.  The first case arises only once
    the peak exceeds about 2^wp times the stop tolerance.  Tops decide the
    running peak unless the term lies within two bits of it; only then is
    its float log2 taken.  The certificate (:func:`_decay_rate`) reads the
    mpf magnitudes of the tail's nonzero terms, made once at its stop, and
    divides out each pair it inspects.  Its tail bound is
    level * rate / (1 - rate).  Under either rule the sum counts as
    converged when the tail bound lies below ``ctx.target_tol`` or at most
    the rounding bound ``error``, and below the sum's own magnitude; a zero
    tail bound always counts.  :func:`_settled` makes |value| at least
    10^precision times ``error``, so such a sum keeps ``precision``
    relative digits.
    """
    with ctx.workdps():
        tol_log2 = ctx.stop_log2
        tail_log2 = ctx.tail_log2
        wp = ctx.fixed_bits
        bw = None            # block precision: bits kept below the peak
        term_bits = None     # precision the terms were computed at
        s_re = s_im = 0      # the running sum is (s_re + i s_im) * 2**E
        E = 0
        cplx = False
        # the peak term, its top, its float log2 (made on demand) and its
        # position among the nonzero terms of its tail
        peak_t, peak_top, peak_lm, peak = None, -math.inf, None, 0
        used = 0
        # per tail: the exponent of its declared tail bound, a power of two
        # (-inf for 0), or what its decay certificate reads; a read with a
        # start resumes the first tail there
        stops = []
        reads = [(term, ratio, 0)] if then is None else [(term, ratio, 0), (*then, 0)]
        for term, ratio, start in reads:
            small_run = 0
            zero_run = 0
            terms = []  # (index, value) of each nonzero term
            if stops:
                peak = None  # the peak lies in the first tail, until one tops it
            if ratio is not None:
                low, slope, close = ratio.low - 1, ratio.slope, ratio.close
            rest = None  # the closed remainder, read as the next term
            for n in range(start, MAX_TERMS):
                t = term(n) if rest is None else rest
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
                        peak_t, peak_top, peak_lm, peak = t, top, None, len(terms)
                    elif top > peak_top - 2:
                        lm = _log2(t)
                        if peak_lm is None:
                            peak_lm = _log2(peak_t)
                        if lm > peak_lm:
                            peak_t, peak_top, peak_lm, peak = t, top, lm, len(terms)
                    if ratio is not None:
                        if n >= close:
                            if rest is None:
                                rest = ratio.rest(t, n)
                                continue
                            stop = -math.inf  # the remainder is in: nothing is left
                            break
                        # |t| rho / (1 - rho) >= 2^(top - 1) 2^(low + slope n),
                        # and the level is at most 2^max(E, tail_log2)
                        if top + low + slope * n < (E if E > tail_log2 else tail_log2):
                            level = _level(s_re, s_im, E, tail_log2)
                            stop = _declared_tail(_log2(t), ratio(n), level)
                            if stop is not None:
                                break
                        continue
                    terms.append((n, t))
                    small_run = small_run + 1 if top < E or _log2(t) < tol_log2 else 0
                else:
                    if ratio is not None:
                        if ratio(n) < math.inf:
                            stop = -math.inf
                            break
                        continue
                    zero_run += 1
                    small_run += 1
                if small_run >= STOP_RUN and n >= STOP_RUN - 1:
                    stop = (-math.inf if zero_run >= STOP_RUN or not terms
                            else (terms, peak, n + 1))
                    break
            else:
                raise NonConvergenceError(f"no convergence within {MAX_TERMS} terms")
            used += n + 1 - start
            if start:
                stops[0] = stop
                continue
            stops.append(stop)
            if len(stops) == 1:
                first_end = n
            elif stops[0].__class__ is not tuple and stops[0] >= _level(s_re, s_im, E, tail_log2):
                # the first tail stopped at a level off its own running sum,
                # and the second has cancelled the sum below that: read the
                # first on from where it stopped
                reads.append((*reads[0][:2], first_end + 1))
        value, error = _settled(s_re, s_im if cplx else None, E, peak_top, used, term_bits, bw,
                                ctx, "sum" if then is None else "bilateral tails")
        tails = [_observed_tail(*stop, ctx) if stop.__class__ is tuple else _power_of_two(stop)
                 for stop in stops]
        tail = tails[0] if then is None else tails[0] + tails[1]
        converged = not tail or (_negligible(tail, error, ctx) and _below(tail, value))
        return SumOutcome(value, used, tail, converged, error)


def _level(s_re, s_im, E, tail_log2):
    """log2 of the declared stop level of a running sum (s_re + i s_im) 2^E:
    one unit of its working digits, 2^tail_log2 times |S| when |S| < 1
    (|S| >= 2^(bits + E - 1)), or its last kept bit 2^E when that is
    larger."""
    size = max(s_re.bit_length(), s_im.bit_length()) + E - 1
    level = tail_log2 + min(size, 0)
    return E if E > level else level


def _declared_tail(log2_t, log2_rho, level):
    """The exponent of the least power of two at or above the tail bound
    |t| rho / (1 - rho) after a term of log2 magnitude ``log2_t`` (-inf
    for a zero bound), when rho < 1 and the bound lies below 2^level;
    otherwise None."""
    if not log2_rho < 0:
        return None
    # 1 - rho = -expm1(rho ln 2), exact to a few ulps also for rho near 1
    bound = log2_t + log2_rho - math.log2(-math.expm1(log2_rho * LN2))
    if bound >= level:
        return None
    return bound if bound == -math.inf else math.ceil(bound)


def _power_of_two(exponent):
    """The declared tail bound 2^exponent as an mpf; 0 for -inf."""
    if exponent == -math.inf:
        return mp.mpf(0)
    return mp.make_mpf((0, 1, exponent, 1))


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


def _settled(s_re, s_im, E, peak_top, n, term_bits, bw, ctx, what="sum"):
    """(value, rounding-error bound) of the block sum, after the guard check.

    The bound is 2^(rounding_bits(n) + top(peak) - term_bits) (see the
    module docstring), and the sum must be at least 2^precision times it.  A
    sum that comes out exactly zero is only known to lie below one unit 2^E
    of the block, which is judged the same way.
    """
    if bw is None:
        return mp.mpf(0), mp.mpf(0)
    bound_top = rounding_bits(n) + peak_top - term_bits
    total = Fixed(s_re, s_im, E, bw)
    top = total.top() if total else E
    missing = bits_for_digits(ctx.precision) + bound_top - (top - 1)
    if missing > 0:
        raise PrecisionLossError(
            f"{what} cancelled {peak_top - top} bits below its largest term; "
            f"{missing} more working bits needed", missing)
    return total.to_mp(), mp.make_mpf((0, 1, bound_top, 1))


def _observed_tail(terms, peak, n, ctx):
    """The tail bound level * rate / (1 - rate) of the decay certificate on
    the (index, value) pairs ``terms`` of the nonzero terms of a tail
    stopped after n terms, its largest at position ``peak`` (None: found
    here); RatioTestError without one.  The level is the largest magnitude
    among the last ``STOP_RUN`` terms, or the tolerance if that is larger."""
    tol = ctx.stop_tol
    mags = [(i, _magnitude(t)) for i, t in terms]
    rate = _decay_rate(mags, tol, peak)
    if rate is None:
        rate = _parity_decay_rate(mags, tol)
    if rate is None:
        raise RatioTestError(f"terms below tolerance after {n} terms but no decay certificate")
    level = max(max(m for _, m in mags[-STOP_RUN:]), tol)
    return level * rate / (1 - rate)


def sum_bilateral(pos, neg, ctx: QContext, ratios=(None, None)) -> SumOutcome:
    """Sum a bilateral series given as its two tails, in one block.

    ``pos(k)`` is the term at n = k and ``neg(k)`` the term at n = -1 - k;
    each is called with k = 0, 1, 2, ... in order, once each, ``pos`` to its
    stop and then ``neg``, so a kernel may keep one running state per tail.
    ``ratios`` holds the declared bound of each tail, or None for a tail
    whose stop is observed.  It is one :func:`sum_series` over both tails:
    one running sum and peak, the rounding charge of all N terms of both at
    once, rounding_bits(N), and one guard check, so a sum that
    cancels exactly to zero raises PrecisionLossError as one tail that
    floors to zero does.  Each tail stops by its own rule, the second at a
    level read off the running sum of both, and the tail bound is the sum of
    the two, judged as that of one series.
    """
    return sum_series(pos, ctx, ratios[0], (neg, ratios[1]))


# Every declared log2 ratio bound is raised by this much (a factor
# 1 + 7e-7): it covers the float arithmetic of the bound and the roundings
# of the terms it is checked against, both below 2^-40 relative.
RATIO_SLACK = 2.0 ** -20
# |1 - x| for 1/2 < |x| < 2 is evaluated from x in floats to within this.
FACTOR_SLACK = 2.0 ** -30


class _RatioBound:
    """The declared bound on the term ratios of a ratio stream, from its
    parameters: the stream of :func:`_ratio_terms`, whose
    ratio at stream index k is

        r_k = step_k * prod_i (1 - a_i q^k) / prod_j (1 - b_j q^k),

    a_i q^k = coeff q^(exponent + k) for the QPows a_i in ``nums`` and b_j
    in ``dens``, with step_k = step growth^k upwards (t_(k+1) = t_k r_k,
    k = 0, 1, ...) and step growth^(-1 - k) downwards (t_k = t_(k+1) r_k,
    k = -1, -2, ...).

    The bound at k, along the reading direction, is |step_k| times a suffix
    supremum P(k) of the Pochhammer part.  |step_k| does not increase, as
    |growth| <= 1.  For P each factor x = c q^k is bounded by its
    magnitude: |1 - x| <= 1 + |x| and 1/|1 - x| <= 1/(1 - |x|) for
    |x| <= 1/2, and |1 - x| <= |x| + 1, 1/|1 - x| <= 1/(|x| - 1) for
    |x| >= 2; for |x| in between from x itself, within ``FACTOR_SLACK``
    (a denominator within that of zero bounds nothing: P is infinite there,
    and a pole of the series is never stepped over).  Upwards |x| falls, so
    once every factor is below 1/2 (from the edge K_s on) the product of the
    magnitude bounds falls too and is its own suffix supremum; before K_s,
    P(k) is the running maximum of the factor bounds back from K_s, made
    once per stream and kept.  Downwards |x| grows; once every factor is
    above 2 (up to the edge K_h) the bound is
    C |q^k|^d prod (1 + 1/|a q^k|) / prod (1 - 1/|b q^k|), C =
    prod |a| / prod |b| and d the number of numerator factors less that of
    the denominator ones: |q^k|^d moves into the step, which then changes by
    |growth| |q|^-d per step, and the rest falls.  A stream whose step grows
    (|growth| > 1, or |growth| |q|^-d > 1 downwards) declares no bound.  A
    factor with coefficient 0 is exactly 1 and is left out.

    Everything is a float log2, so no magnitude overflows; the parameters
    are read once, at the first :meth:`reading`, and every read of the
    bound, ``bound(j)`` for the read entries from j on (a sum from its
    start, or a table's cutoff from its last entry), shares them and the
    kept suprema.
    """

    def __init__(self, nums, dens, q: Fixed, step: Fixed, growth: Fixed, up: bool = True):
        self.params = nums, dens, q, step, growth
        self.up = up
        self.made = False

    def _make(self):
        nums, dens, q, step, growth = self.params
        self.ell = ell = _log2(q)
        self.phi = phi = _arg(q)
        # per factor: log2 |c q^exponent|, its argument, and +1 for a
        # numerator, -1 for a denominator
        self.factors = []
        for c, sign in [(c, 1) for c in nums] + [(c, -1) for c in dens]:
            v = q.like(c.coeff)
            if v:
                eps = float(c.exponent)
                self.factors.append((_log2(v) + eps * ell, _arg(v) + eps * phi, sign))
        d = 0 if self.up else sum(sign for _, _, sign in self.factors)
        self.d = d
        self.sigma = _log2(step) if step else -math.inf
        self.gamma = gamma = _log2(growth)
        # log2 |step_k| moves by this much per step of the reading
        self.slope = gamma if self.up else gamma - d * ell
        # log2 P has this limit along the reading, and is never below it
        self.floor = 0.0 if self.up else sum(t0 * sign for t0, _, sign in self.factors)
        if self.up:
            edges = [math.ceil((-1 - t0) / ell) for t0, _, _ in self.factors]
            self.edge = max(edges, default=-math.inf)
        else:
            edges = [math.floor((1 - t0) / ell) for t0, _, _ in self.factors]
            self.edge = min(edges, default=math.inf)
        self.kept = []  # P at the indices before the edge, back from it
        self.limit = self._limit(q, step, growth)
        self.close = self._closing(q)
        # the bound at read entry j is base + slope j + sup(k), k the stream
        # index of that entry's ratio; it is never below low + slope j, as
        # sup(k) >= floor but for roundings, which the float sums of either
        # side leave far below the slack that low is taken beneath them
        self.base = self._step(0 if self.up else -2) + RATIO_SLACK
        self.low = self.base + self.floor - RATIO_SLACK
        self.made = True

    def _limit(self, q, step, growth):
        """The limit s of the stream's ratio along its reading, when it is a
        constant, or None: the step of a stream of growth exactly 1, and
        downwards step prod a / prod b over the factor values c q^exponent,
        when there are as many numerator as denominator factors, as each
        1 - c q^k is -c q^k (1 - q^-k / c).  That product is taken in mp 20
        bits wider than the stream and rounded once."""
        if not (step and self.gamma == 0 and growth == 1) or self.d:
            return None
        if self.up:
            return step
        nums, dens = self.params[:2]
        with mp.workprec(q.wp + 20):
            qv, s = q.to_mp(), step.to_mp()
            for c, sign in [(c, 1) for c in nums] + [(c, -1) for c in dens]:
                v = q.like(c.coeff).to_mp()
                if v:
                    v *= powq(qv, c.exponent)
                    s = s * v if sign > 0 else s / v
        return q.like(s)

    def _closing(self, q):
        """The read index from which a sum may end a stream whose ratio tends
        to a constant s (:meth:`_limit`) on its first-order remainder
        (:meth:`rest`), or inf.

        Along the reading, from entry n on, the ratio from entry n + i to
        n + i + 1 is s prod_num (1 - x q^i) / prod_den (1 - x q^i) over the
        F factor values x at entry n: c q^n upwards and q^(n + 2) / c
        downwards (the ratio r_k there has k = -2 - n).  Let V be the sum
        of their magnitudes and W = V / (1 - |q|) <= 2^-8.  As
        |log(1 - x) + x| <= |x|^2 / (2 (1 - |x|)), the ratio is
        s exp(D q^i + e_i) with D = sum_den x - sum_num x and
        |e_i| <= V^2 |q|^(2 i) / (2 (1 - V)), so entry n + j is
        t_n s^j exp(A_j + E_j), A_j = D (1 - q^j) / (1 - q), |A_j| <= W and
        |E_j| <= 0.51 W^2, and exp(A_j + E_j) = 1 + A_j + rho_j with
        |rho_j| <= 1.02 W^2.  Summed over j >= 1 (Gasper & Rahman, ch. 1),
        the rest after t_n is t_n s / (1 - s) (1 + D / (1 - s q)) within
        1.02 W^2 |t_n s| / (1 - |s|), that is within
        1.03 W^2 |1 - s| / (1 - |s|) relative to it, as |1 - s q| >= 1 - |q|.
        Relative to the remainder as summed, with u = 2^(1 - wp), the error
        is then at most
            R (n + 1)^2 u                     t_n's own roundings,
          + 10 u                              the product, 1 - s, the
                                              division, 1 + D / (1 - s q)
                                              and the product by it, complex
                                              counted twice,
          + 2 m u (1 + |s| / |1 - s|)         the m roundings of s, amplified
                                              (the step's; downwards also
                                              that of the product),
          + 1.25 W^2 |1 - s| / (1 - |s|)      the truncation, with room for
                                              the float logs it is read in,
          + 2 u                               the roundings of the correction,
                                              below (64 + F) W u < u as it
                                              is at most W in size, and
                                              second-order terms,
        and the engine charges it as term n + 1, at R (n + 2)^2 u: it fits
        from the first n with R (2 n + 3) at least the last four lines over
        u, which is about half the index at which every factor is 1 at the
        working width, as W^2 is then about u.  The rounding charge of that
        index stays in force: a step near 1 waits for a later n.  |1 - s|
        and 1 - |s| are taken from floats; within ``FACTOR_SLACK`` of 0 they
        close nothing."""
        s, ell = self.limit, self.ell
        log_s = self.sigma + self.floor  # log2 |s|
        if s is None or not log_s < 0:
            return math.inf
        s = complex(s.to_mp())
        gap, near = abs(1 - s), -math.expm1(log_s * LN2)
        if gap <= FACTOR_SLACK or near <= FACTOR_SLACK:
            return math.inf
        # log2 W at entry 0: the factor magnitudes there over 1 - |q|
        logs = [t0 if self.up else 2 * ell - t0 for t0, _, _ in self.factors]
        w0 = max(logs, default=-math.inf)
        if logs:
            w0 += math.log2(sum(2.0 ** (t - w0) for t in logs))
        w0 -= math.log2(-math.expm1(ell * LN2))
        fixed = 12 + (2 if self.up else 4) * (1 + abs(s) / (gap - FACTOR_SLACK))
        # log2 of the truncation over u, less 2 log2 W
        cut = math.log2(1.25 * (gap + FACTOR_SLACK) / (near - FACTOR_SLACK)) + q.wp - 1

        def fits(n):
            w, room = w0 + n * ell, ROUNDINGS * (2 * n + 3) - fixed
            return w <= -8 and room > 0 and cut + 2 * w <= math.log2(room)

        # fits holds from the first n on: find that n by bisection
        if not fits(MAX_TERMS):
            return math.inf
        lo, hi = 0, MAX_TERMS
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def rest(self, t: Fixed, j: int) -> Fixed:
        """t s / (1 - s) (1 + D / (1 - s q)): the rest of the read after its
        entry j, t, from the entry ``close`` on (:meth:`_closing`), with
        D = sum_den x - sum_num x over the factor values x at the stream
        index k of the ratio after t, c q^k upwards (k = j) and q^-k / c
        downwards (k = -2 - j)."""
        nums, dens, q = self.params[:3]
        s, d, k = self.limit, 0, j if self.up else -2 - j
        for sign, group in ((-1, nums), (1, dens)):
            for c in group:
                v = q.like(c.coeff)
                if v:
                    x = v * powq(q, c.exponent + k) if self.up else powq(q, -k - c.exponent) / v
                    d = d + x if sign > 0 else d - x
        return t * s / (1 - s) * (1 + d / (1 - s * q))

    def reading(self):
        """The bound itself, made on first use, for a read of the stream from
        its first entry on, or None when the stream declares no bound.  Entry
        j is t_j upwards and t_(-1-j) downwards; the ratio from entry j to
        entry j + 1 is r_j upwards and r_(-2-j) downwards."""
        if not self.made:
            self._make()
        return None if self.slope > 0 else self

    def __call__(self, j: int) -> float:
        """log2 of a bound on every ratio |t(m + 1) / t(m)| of the read
        entries, m >= j.  It does not increase with j, and it is at least
        ``low + slope * j``, which :func:`sum_series` uses to skip terms that
        cannot stop the sum."""
        if self.base == -math.inf:
            return -math.inf  # a zero step: every later term is zero
        return self.base + self.slope * j + self.sup(j if self.up else -2 - j)

    def _step(self, k):
        """log2 |step_k|, with |q^k|^d taken in downwards."""
        if self.up:
            return self.sigma + self.gamma * k
        return self.sigma - (1 + k) * self.gamma + self.d * k * self.ell

    def _part(self, k):
        """log2 of the factor bounds at stream index k, less |q^k|^d
        downwards: an upper bound on the Pochhammer part there."""
        ell, total = self.ell, 0.0
        for t0, theta0, sign in self.factors:
            t = t0 + k * ell
            if t <= -1:
                f = math.log2(1 + 2.0 ** t) if sign > 0 else -math.log2(1 - 2.0 ** t)
            elif t >= 1:
                u = 2.0 ** -t
                f = t + math.log2(1 + u) if sign > 0 else -t - math.log2(1 - u)
            else:
                # |1 - x|^2 = (1 - |x|)^2 + 4 |x| sin^2(arg x / 2)
                x, s = 2.0 ** t, math.sin((theta0 + k * self.phi) / 2)
                m = math.sqrt((1 - x) ** 2 + 4 * x * s * s)
                if sign > 0:
                    f = math.log2(m + FACTOR_SLACK)
                elif m > FACTOR_SLACK:
                    f = -math.log2(m - FACTOR_SLACK)
                else:
                    return math.inf
            total += f
        return total - self.d * k * ell

    def sup(self, k):
        """log2 P(k): a bound on the Pochhammer part at stream index k and
        at every later one along the reading."""
        edge = self.edge
        i = (edge - 1 - k) if self.up else (k - edge - 1)
        if i < 0:
            return self._part(k)
        if i > MAX_TERMS:
            # no sum reaches the edge from here within its term budget (a q
            # within about 1/MAX_TERMS of the unit circle): no bound
            return math.inf
        kept, step = self.kept, -1 if self.up else 1
        while len(kept) <= i:
            prev = kept[-1] if kept else self._part(edge)
            kept.append(max(self._part(edge + step * (len(kept) + 1)), prev))
        return kept[i]


class _Declared:
    """A stream of terms with its declared ratio bound: ``bound`` (a
    :class:`_RatioBound`, or None for none).  Iterating it
    iterates the stream itself, so a stream that is mapped, zipped or cut
    runs at full speed and, being no longer declared, stops on the
    observed certificate; :func:`_reading` hands its bound to the engine."""

    __slots__ = ("terms", "bound")

    def __init__(self, terms, bound: _RatioBound | None):
        self.terms, self.bound = terms, bound

    def __iter__(self):
        return self.terms

    def __next__(self):
        return next(self.terms)


def _reading(stream):
    """(term, ratio) of a stream for :func:`sum_series`: ``term(n)`` its
    next term, and ``ratio`` its declared :class:`_RatioBound`, or
    None for a stream that declares none."""
    terms = iter(stream)
    bound = stream.bound if stream.__class__ is _Declared else None
    return (lambda n: next(terms)), bound and bound.reading()


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
    r_k = prod_i (1 - a_i q^k) / prod_j (1 - b_j q^k) * step_k, step_{k+1} =
    step_k * growth, over the QPows a_i in ``nums`` and b_j in ``dens``: a
    :class:`_Declared` stream, its walk (:func:`_ratio_walk`) with the
    :class:`_RatioBound` of its parameters, so that a sum of it stops on that
    bound, with no stop run and no observed certificate.  Mapped, zipped or
    cut, the stream is a plain one and stops on the observed certificate, as
    a mixed stream must.

    Upwards it yields t_0 = 1, t_1, ... with k = 0, 1, ... (term k + 1 is
    term k times ratio k); downwards it yields t_{-1}, t_{-2}, ... with
    k = -1, -2, ... (term -k is term -k + 1 times ratio -k, t_0 = 1), as
    (a;q)_n / (b;q)_n q^{alpha n^2} x^n reads from n = -1 on with a and b
    swapped.
    """
    return _Declared(_ratio_walk(nums, dens, q, step, growth, up),
                     _RatioBound(nums, dens, q, step, growth, up))


def _ratio_walk(nums, dens, q: Fixed, step: Fixed, growth: Fixed, up: bool):
    """The terms of :func:`_ratio_terms`.  The term, the step and every
    carried power a_i q^k are mantissas with an exponent each, cut back to wp
    bits once per step; a step of growth exactly 1 is carried as it is.  A
    factor whose exact exponent is 0 is 1 - coeff exactly.  A vanishing
    denominator factor is a pole (checked before the term it would divide);
    downwards a vanishing numerator factor kills the tail, which yields
    exact zeros.

    One set-up feeds two loops.  When q, the step, the growth and every
    power are real, the real loop carries one int per value, with the
    factors as parallel lists; otherwise the complex loop carries pairs of
    ints, as :func:`~qrr.fixedpoint.one_minus` and
    :func:`~qrr.fixedpoint.cut` take them.  The real loop is the complex one
    with every imaginary part 0: the products, cuts and the one division
    take the same ints at the same points, and a part of 0 has bit length 0,
    so a real power is exactly 1 under the same test
    (``re.bit_length() + e < -wp - 2``).  Both loops give the same bits.

    Upwards, a factor leaves the loop once both parts of its carried power
    lie below 2^(-wp-4): the power is then below 2^(-wp-3) in size, and as
    |q| < 1 it stays there at every later k, however a complex q turns it,
    so both parts stay below the 2^(-wp-3) under which
    :func:`~qrr.fixedpoint.one_minus` is exactly 1 (at q^0, the exact
    1 - coeff is 1 too: the power there is coeff, up to its roundings).
    Dropping such a factor leaves every term bit for bit as it was.
    """
    wp, one = q.wp, q.like(1)
    k, dk = (0, 1) if up else (-1, -1)
    shift = q if up else 1 / q
    powers = [powq(q, c.exponent + k) * c.coeff for c in (*nums, *dens)]
    complex_terms = any(v.im is not None for v in (*powers, step, shift, growth))
    where = "term ratio" if up else "bilateral term ratio"
    unit = growth == 1
    gone = -wp - 3  # an upward factor whose power lies below 2^gone stays exactly 1
    if not complex_terms:
        # per factor: the exact exponent of q, the carried power's mantissa
        # and exponent, the exact 1 - coeff, the QPow of a denominator factor
        # or None
        es = [c.exponent + k for c in (*nums, *dens)]
        ms, pes = [p.re for p in powers], [p.e for p in powers]
        exacts = [(x.re, x.e) for x in (one - c.coeff for c in (*nums, *dens))]
        ds = [None] * len(nums) + dens
        dropped = []
        h, he, g, ge, s, se = shift.re, shift.e, growth.re, growth.e, step.re, step.e
        t, te, small = 1, 0, -wp - 2
        while True:
            f, fe, v, ve = 1, 0, 1, 0
            for i, e in enumerate(es):
                p, pe = ms[i], pes[i]
                top = p.bit_length() + pe
                if up and top < gone:
                    dropped.append(i)
                    continue
                if e == 0:
                    x, xe = exacts[i]
                elif pe >= 0:
                    x, xe = 1 - (p << pe), 0
                elif top < small:
                    x, xe = 1, 0
                else:
                    x, xe = (1 << -pe) - p, pe
                if ds[i] is None:
                    if not x and not up:
                        zero = Fixed(0, None, 0, wp)
                        while True:
                            yield zero
                    f, fe = f * x, fe + xe
                else:
                    if not x:
                        raise pole(ds[i].coeff, e, where)
                    v, ve = v * x, ve + xe
                es[i] = e + dk
                p *= h
                n = p.bit_length() - wp
                if n > 0:
                    ms[i], pes[i] = p >> n, pe + he + n
                else:
                    ms[i], pes[i] = p, pe + he
            if dropped:
                for i in reversed(dropped):
                    del es[i], ms[i], pes[i], exacts[i], ds[i]
                dropped.clear()
            if up:
                yield Fixed(t, None, te, wp)
            # t * f * step / v, with one rounding in the division
            t = t * f * s
            n = wp + 1 + v.bit_length() - t.bit_length()
            t, te = shifted(t, n) // v, te + fe + se - ve - n
            if not up:
                yield Fixed(t, None, te, wp)
            if not unit:
                s *= g
                n = s.bit_length() - wp
                if n > 0:
                    s, se = s >> n, se + ge + n
                else:
                    se += ge
    # per factor: [exact exponent of q, carried power, exact 1 - coeff, the
    # QPow of a denominator factor or None]
    factors = [[c.exponent + k, parts(p), parts(one - c.coeff), d]
               for c, p, d in zip((*nums, *dens), powers, [None] * len(nums) + dens)]
    hr, hi, he = parts(shift)
    gr, gi, ge = parts(growth)
    sr, si, se = parts(step)
    tr, ti, te = 1, 0, 0
    while True:
        fr, fi, fe, vr, vi, ve = 1, 0, 0, 1, 0, 0
        for f in [*factors]:
            e, (pr, pi, pe), exact, d = f
            if up and max(pr.bit_length(), pi.bit_length()) + pe < gone:
                factors.remove(f)
                continue
            xr, xi, xe = exact if e == 0 else one_minus(pr, pi, pe, wp)
            if d is None:
                if not (xr or xi) and not up:
                    zero = Fixed(0, 0, 0, wp)
                    while True:
                        yield zero
                fr, fi, fe = fr * xr - fi * xi, fr * xi + fi * xr, fe + xe
            else:
                if not (xr or xi):
                    raise pole(d.coeff, e, where)
                vr, vi, ve = vr * xr - vi * xi, vr * xi + vi * xr, ve + xe
            f[0] = e + dk
            f[1] = cut(pr * hr - pi * hi, pr * hi + pi * hr, pe + he, wp)
        if up:
            yield Fixed(tr, ti, te, wp)
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
            yield Fixed(tr, ti, te, wp)
        if not unit:
            sr, si, se = cut(sr * gr - si * gi, sr * gi + si * gr, se + ge, wp)


def _arg(v: Fixed) -> float:
    """The principal argument of a nonzero Fixed value."""
    if v.im is None:
        return 0.0 if v.re > 0 else math.pi
    return math.atan2(v.im, v.re)


def _magnitude(t):
    """|t| of a nonzero Fixed term as an mpf, rounded once to the current
    precision."""
    m = abs(t.re) if t.im is None else math.isqrt(t.re * t.re + t.im * t.im)
    return mp.make_mpf(from_man_exp(m, t.e, *mp.mp._prec_rounding))


def _decay_rate(mags, tol, peak=None):
    """Certified per-index decay rate from trailing magnitudes, or None.

    ``mags`` is a list of (index, positive mpf magnitude) pairs and ``tol``
    a positive mpf.  Only pairs after the largest magnitude (position
    ``peak``, the first largest, found here when not given) count: ratios
    before the peak describe how the series grows, not its tail.  Pairs
    whose earlier member sits above the stop tolerance are the informative
    ones (below it, a series that once was large is down in roundoff, where
    ratios mean nothing).  A series that never rose above the tolerance is
    judged on its raw ratios instead, so a flat plateau of tiny terms still
    fails the certificate.  Gaps from interleaved zero terms are normalized
    away.  Only the trailing ``RATIO_WINDOW`` pairs are ever inspected.
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
    worst = max((_ratio(mags[i - 1], mags[i]) for i in pairs), default=None)
    if worst is None or worst >= RATIO_CAP:
        return None  # still rising at its last term, or no decay
    return worst


def _ratio(before, after):
    """The per-index ratio (m1 / m0)^(1/gap) of two (index, magnitude)
    pairs, across a gap of zero terms."""
    (n0, m0), (n1, m1) = before, after
    r = m1 / m0
    return r if n1 - n0 == 1 else r ** (mp.mpf(1) / (n1 - n0))


def _parity_decay_rate(mags, tol):
    """Decay rate certified on the even- and odd-position magnitudes apart,
    or None.

    A series whose two interleaved classes of terms decay at different
    levels shows ratios that alternate up and down across the classes, so
    the plain certificate fails although each class decays.  Each class
    needs at least two magnitudes; its per-index rate spans a gap of two.
    The larger of the two rates bounds both classes, so
    ``level * r / (1 - r)`` stays an upper bound on the tail.
    """
    if len(mags) < 4:
        return None
    rates = [_decay_rate(mags[start::2], tol) for start in (0, 1)]
    return None if None in rates else max(rates)
