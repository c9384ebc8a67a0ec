"""Convergent-series summation engine with decay certificates.

Every unilateral and bilateral series in the package funnels through
:func:`sum_series` / :func:`sum_bilateral`.  Stopping is heuristic — a run of
consecutive negligible terms plus a ratio certificate on the observed decay —
and the certificate data is reported in the outcome so failures are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import mpmath as mp

from .context import QContext
from .errors import NonConvergenceError, RatioTestError

# Ratios above this cap do not certify decay even if terms look small.
RATIO_CAP = 0.995
# Number of trailing magnitude ratios inspected for the certificate.
RATIO_WINDOW = 8


@dataclass(frozen=True)
class SumOutcome:
    """Result of summing one series: value, effort, and certificate data."""

    value: object
    terms_used: int
    tail_bound: object
    converged: bool

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
    NonConvergenceError when the term budget runs out and RatioTestError
    when terms are small but no decay pattern is visible.
    """
    with ctx.workdps():
        tol = ctx.stop_tol
        total = mp.mpf(0)
        small_run = 0
        zero_run = 0
        mags: list[tuple[int, mp.mpf]] = []  # (index, |term|) for nonzero terms
        n = 0
        while n < ctx.max_terms:
            t = term(n)
            total = total + t
            at = abs(t)
            if at == 0:
                zero_run += 1
            else:
                zero_run = 0
                mags.append((n, at))
            small_run = small_run + 1 if at < tol else 0
            n += 1
            if small_run >= group and n >= group:
                if zero_run >= group or not mags:
                    return SumOutcome(total, n, mp.mpf(0), True)
                rate = _decay_rate(mags, tol)
                if rate is None:
                    rate = _parity_decay_rate(mags, tol)
                if rate is None:
                    raise RatioTestError(
                        f"terms below tolerance after {n} terms but no decay certificate")
                level = max(max(m for _, m in mags[-group:]), tol)
                tail = level * rate / (1 - rate)
                return SumOutcome(total, n, tail,
                                  bool(tail < mp.mpf(10) ** (-ctx.precision)))
        raise NonConvergenceError(f"no convergence within {ctx.max_terms} terms")


def sum_bilateral(term, ctx: QContext, group: int = 5) -> SumOutcome:
    """Sum ``term(n)`` over all integers n with per-tail certificates.

    ``term`` is called with n = 0, 1, 2, ... and then with n = -1, -2, ...,
    each tail in order, so a kernel may keep one running state per tail.
    """
    pos = sum_series(term, ctx, group=group)
    neg = sum_series(lambda k: term(-1 - k), ctx, group=group)
    with ctx.workdps():
        return SumOutcome(pos.value + neg.value,
                          pos.terms_used + neg.terms_used,
                          pos.tail_bound + neg.tail_bound,
                          pos.converged and neg.converged)


def _decay_rate(mags, tol):
    """Certified per-index decay rate from trailing magnitudes, or None.

    Only pairs after the largest magnitude count: ratios before the peak
    describe how the series grows, not its tail.  Pairs whose earlier member
    sits above the stop tolerance are the informative ones (below it, a
    series that once was large is down in roundoff, where ratios mean
    nothing).  A series that never rose above the tolerance is judged on its
    raw ratios instead, so a flat plateau of tiny terms still fails the
    certificate.  Gaps from interleaved zero terms are normalized away.
    Only the trailing ``RATIO_WINDOW`` pairs are ever inspected, so only
    their ratios are computed.
    """
    last = len(mags) - 1
    if last < 1:
        return mp.mpf("0.5")  # single nonzero term: a terminated sum
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
