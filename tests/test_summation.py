"""Summation engine behavior: stopping, certificates, failure modes."""

import math
import random
from fractions import Fraction
from itertools import accumulate, islice

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from qrr import (NonConvergenceError, PoleError, PrecisionLossError, QContext, QPow,
                 RatioTestError, SumOutcome, sum_bilateral, sum_series)
from qrr.context import GUARD_DIGITS, MAX_TERMS, widening
from qrr.fixedpoint import LOG2_10, ROUNDINGS, Fixed, bits_for_digits, rounding_bits
from qrr import qfunctions, summation
from qrr.qfunctions import phi_1_1
from qrr.summation import (RATIO_CAP, RATIO_WINDOW, STOP_RUN, _decay_rate,
                           _parity_decay_rate)


def _tails(term):
    """The two tails of the bilateral series with terms ``term(n)``."""
    return term, lambda k: term(-1 - k)


def theta_half_oracle(dps=40, terms=25):
    """Direct 25-term summation of sum_{n>=0} (1/2)^{n^2}."""
    with mp.workdps(dps + 10):
        return sum(mp.mpf(2) ** -(n * n) for n in range(terms))


def test_zero_generator():
    ctx = QContext.numeric("0.5")
    out = sum_series(lambda n: mp.mpf(0), ctx)
    assert out.value == 0
    assert out.converged
    assert out.tail_bound == 0


def test_gaussian_terms_match_direct_oracle():
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    with ctx.workdps():
        out = sum_series(lambda n: q ** (n * n), ctx)
    oracle = theta_half_oracle(dps=35)
    assert out.converged
    assert abs(out.value - oracle) < mp.mpf(10) ** -30
    # frozen from the direct-summation oracle
    assert mp.nstr(out.value, 20) == "1.5644684136059385793"


def test_constant_terms_do_not_converge():
    ctx = QContext.numeric("0.5")
    calls = []
    with pytest.raises(NonConvergenceError):
        sum_series(lambda n: calls.append(n) or mp.mpf(1), ctx)
    assert calls == list(range(MAX_TERMS))


def test_no_decay_certificate_raises():
    ctx = QContext.numeric("0.5", precision=20)
    tiny = mp.mpf(10) ** -35

    def flat_small(n):
        return tiny  # below tolerance but never decaying

    with pytest.raises(RatioTestError):
        sum_series(flat_small, ctx)


def test_parity_split_decay_certificate():
    # even terms r^n, odd terms c r^n: the ratios alternate between c r and
    # r / c, so only the two classes taken apart show the decay rate r
    ctx = QContext.numeric("0.5", precision=30)
    r, c = mp.mpf("0.5"), mp.mpf("1e-3")
    with ctx.workdps():
        out = sum_series(lambda n: r ** n * (1 if n % 2 == 0 else c), ctx)
        exact = (1 + c * r) / (1 - r * r)
        assert out.converged
        assert abs(out.value - exact) <= out.tail_bound
        assert abs(out.value - exact) < mp.mpf(10) ** -30
        mags = [(n, r ** n * (1 if n % 2 == 0 else c)) for n in range(out.terms_used)]
        assert _decay_rate(mags, ctx.stop_tol) is None
        assert mp.almosteq(_parity_decay_rate(mags, ctx.stop_tol), r, 1e-20)


def test_parity_split_needs_two_terms_per_class():
    tol = mp.mpf(10) ** -40
    rising = [(0, mp.mpf(1)), (1, mp.mpf(2))]
    assert _parity_decay_rate(rising, tol) is None
    assert _parity_decay_rate(rising + [(2, mp.mpf(3))], tol) is None


def test_bilateral_symmetric_gaussian():
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    with ctx.workdps():
        out = sum_bilateral(*_tails(lambda n: q ** (n * n)), ctx)
    oracle = 2 * theta_half_oracle(dps=35) - 1
    assert abs(out.value - oracle) < mp.mpf(10) ** -29
    assert mp.nstr(out.value, 20) == "2.1289368272118771587"


def test_bilateral_two_geometric_tails():
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    with ctx.workdps():
        out = sum_bilateral(lambda k: q ** k, lambda k: q ** (k + 1), ctx)
    assert abs(out.value - 3) < mp.mpf(10) ** -29


def test_bilateral_with_dead_negative_tail():
    ctx = QContext.numeric("0.4", precision=30)
    q = ctx.q

    with ctx.workdps():
        out = sum_bilateral(lambda k: q ** k, lambda k: mp.mpf(0), ctx)
        uni = sum_series(lambda n: q ** n, ctx)
    assert abs(out.value - uni.value) == 0


def test_bilateral_with_negligible_tail_converges():
    # the negative tail, about 1e-80, lies below its own tail bound, but the
    # bilateral sum is far above both bounds
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    tiny = mp.mpf(10) ** -80
    with ctx.workdps():
        out = sum_bilateral(lambda k: q ** (k * k), lambda k: tiny * q ** (k + 1), ctx)
        neg = sum_series(lambda k: tiny * q ** (k + 1), ctx)
    assert not neg.converged
    assert out.converged
    assert abs(out.value - theta_half_oracle(dps=35)) < mp.mpf(10) ** -30


def test_bilateral_exact_cancellation_raises():
    # tails 3/4 and -3/4 cancel to exactly 0, known only to lie below their
    # rounding bound: like a tail that floors to 0, the sum lacks every digit
    ctx = QContext.numeric("0.5", precision=20)
    with ctx.workdps():
        with pytest.raises(PrecisionLossError, match="bilateral tails cancel") as exc:
            sum_bilateral(lambda k: mp.mpf(0.75) if k == 0 else mp.mpf(0),
                          lambda k: mp.mpf(-0.75) if k == 0 else mp.mpf(0), ctx)
    assert exc.value.bits > 0


def test_stability_under_stricter_stopping():
    # summing on well past the stop run moves the value by no more than the
    # tail bound the engine reports
    ctx = QContext.numeric("0.45", precision=35)
    q = ctx.q
    with ctx.workdps():
        out = sum_series(lambda n: q ** (n * n) * (-1) ** n, ctx)
    with mp.workdps(ctx.working_dps + 20):
        longer = mp.fsum(mp.mpf("0.45") ** (n * n) * (-1) ** n
                         for n in range(out.terms_used + 3 * STOP_RUN))
    assert abs(out.value - longer) <= out.tail_bound + out.error


def test_bilateral_calls_each_tail_in_order_once():
    ctx = QContext.numeric("0.5", precision=20)
    calls = {"pos": [], "neg": []}

    def tail(name, ratio):
        def term(k):
            calls[name].append(k)
            return ratio ** k
        return term

    with ctx.workdps():
        out = sum_bilateral(tail("pos", mp.mpf("0.5")), tail("neg", mp.mpf("0.25")), ctx)
        assert abs(out.value - (2 + mp.mpf(4) / 3)) < mp.mpf(10) ** -20
    assert calls["pos"] == list(range(len(calls["pos"])))
    assert calls["neg"] == list(range(len(calls["neg"])))
    assert out.terms_used == len(calls["pos"]) + len(calls["neg"])


@pytest.mark.parametrize("pole_in", ["pos", "neg"])
def test_bilateral_propagates_a_pole_from_either_tail(pole_in):
    ctx = QContext.numeric("0.5", precision=20)

    def tail(name):
        def term(k):
            if name == pole_in and k == 3:
                raise PoleError(f"pole in the {name} tail")
            return mp.mpf(2) ** -k
        return term

    with pytest.raises(PoleError, match=pole_in):
        sum_bilateral(tail("pos"), tail("neg"), ctx)


def test_converged_flag_implies_tail_below_target():
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    with ctx.workdps():
        out = sum_series(lambda n: q ** n, ctx)
    assert out.converged
    assert out.tail_bound < mp.mpf(10) ** -30


def decay_rate_reference(mags, tol):
    """The decay certificate computed over the whole magnitude history."""
    informative = []
    raw = []
    for (n0, m0), (n1, m1) in zip(mags, mags[1:]):
        r = (m1 / m0) ** (mp.mpf(1) / (n1 - n0))
        raw.append(r)
        if m0 >= tol:
            informative.append(r)
    ratios = informative or raw
    if not ratios:
        return mp.mpf("0.5")
    worst = max(ratios[-RATIO_WINDOW:])
    if worst >= RATIO_CAP:
        return None
    return worst


def _random_history(rnd, length):
    """Mostly decaying magnitudes with occasional rises and zero-term gaps."""
    mags, n, m = [], 0, mp.mpf(rnd.randint(1, 99))
    for _ in range(length):
        mags.append((n, m))
        n += rnd.choice((1, 1, 1, 2, 3))  # gaps from interleaved zero terms
        m = m * rnd.randint(1, 12) / 10 * mp.mpf(10) ** -rnd.randint(0, 6)
    return mags


def _decay_cases():
    tol = mp.mpf(10) ** -60
    tiny = mp.mpf(10) ** -70
    cases = {
        "single-term": [(4, mp.mpf("0.3"))],
        "plateau-below-tol": [(n, tiny) for n in range(12)],
        "plateau-above-tol": [(n, mp.mpf("0.5")) for n in range(12)],
        "geometric-then-roundoff": [(n, mp.mpf(2) ** -n) for n in range(40)]
                                   + [(40 + n, tiny * (1 + n % 2)) for n in range(10)],
        "mixed-gaps": [(0, mp.mpf(1)), (2, mp.mpf("0.25")), (3, mp.mpf("0.1")),
                       (6, mp.mpf("1e-4")), (7, mp.mpf("1e-61")), (9, mp.mpf("1e-63")),
                       (10, mp.mpf("1e-62"))],
        "two-terms": [(0, mp.mpf(1)), (3, mp.mpf("0.125"))],
    }
    rnd = random.Random(20261017)
    for k in range(40):
        cases[f"random-{k}"] = _random_history(rnd, rnd.randint(1, 40))
    return tol, cases


_TOL, _CASES = _decay_cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_decay_rate_is_bit_identical_to_full_history(name):
    with mp.workdps(65):
        # the magnitudes at the working precision, as the engine makes them
        mags = [(n, +m) for n, m in _CASES[name]]
        got = _decay_rate(mags, _TOL)
        want = decay_rate_reference(mags, _TOL)
    if want is None:
        assert got is None
    else:
        assert got._mpf_ == want._mpf_


def test_decay_rate_reads_only_the_tail_after_the_peak():
    # a short series that rises before it decays: the growth ratio 2.17 / 1
    # says nothing about the tail
    tol = mp.mpf(10) ** -30
    with mp.workdps(45):
        rising = [(0, mp.mpf(1)), (1, mp.mpf("2.17"))]
        rising += [(n, mp.mpf("0.148") * mp.mpf(10) ** (-5 * (n - 2))) for n in range(2, 13)]
        assert _decay_rate(rising, tol) == rising[2][1] / rising[1][1]
        assert decay_rate_reference(rising, tol) is None  # the whole-history window
        # still rising at the last term: nothing after the peak to certify
        assert _decay_rate([(0, mp.mpf(1)), (1, mp.mpf(2))], tol) is None
        for name in ("plateau-below-tol", "plateau-above-tol"):
            assert _decay_rate(_CASES[name], _TOL) is None


def test_short_rising_series_certifies_at_low_precision():
    ctx = QContext.numeric("0.2", precision=20)
    with ctx.workdps():
        x = mp.mpf(6)  # terms x^n q^(n^2): 1, 1.2, 0.0576, 1.1e-4, ...
        out = sum_series(lambda n: x ** n * ctx.q ** (n * n), ctx)
    assert out.converged


# -- engine oracle -----------------------------------------------------------
#
# A reference engine that keeps its books on mpf values: a float log2 per
# term for the stop test and the peak, and a certificate that makes an mpf
# magnitude for every term it reads.  ``sum_series`` must give the same
# outcome bit for bit, or raise the same error.  A term counts as negligible
# below the stop tolerance or with its top below the running sum's last kept
# bit 2^E, as in the engine; the second only matters for a peak above about
# 2^wp times the tolerance (``test_sum_stops_where_its_terms_floor_away``).
# Under the declared bound of a stream whose ratio tends to a constant the
# reference finds on its own, in mp, the first index at which its
# first-order remainder fits the charge (``_reference_closing``), and adds
# the stream's own remainder there.


def reference_sum_series(term, ctx, ratio=None):
    """``sum_series`` with a float log2 and mpf magnitudes for every term;
    under a declared bound ``ratio``, with the bound's stop test made at
    every term, and its read closed on the remainder ``ratio.rest`` where
    ``_reference_closing`` says."""
    closing = _reference_closing(ratio)
    rest = None
    with ctx.workdps():
        tol = ctx.stop_tol
        tol_log2 = -(ctx.precision + 10) * LOG2_10
        wp = ctx.fixed_bits
        bw = None
        term_bits = None
        s_re = s_im = 0
        E = 0
        cplx = False
        peak, peak_log2, peak_top = 0, -math.inf, 0
        small_run = 0
        zero_run = 0
        mags = []
        n = 0
        while n < MAX_TERMS:
            t = term(n) if rest is None else rest
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
                    E = t.top() - bw
                if im is None:
                    lm = math.log2(abs(re)) + e
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
                s_re += re << d if d >= 0 else re >> -d
                if im is not None:
                    s_im += im << d if d >= 0 else im >> -d
                if lm > peak_log2:
                    peak, peak_log2, peak_top = len(mags), lm, top
                mags.append((n, t))
                small_run = small_run + 1 if lm < tol_log2 or top < E else 0
                if rest is not None:
                    return _reference_declared_stop(s_re, s_im, cplx, E, peak_top, n + 1,
                                                    term_bits, bw, ctx, -math.inf)
                if closing is not None and n >= closing:
                    rest = ratio.rest(t, n)
                    n += 1
                    continue
                if ratio is not None:
                    # one unit of the working digits of max(1, |running sum|)
                    lr = ratio(n)
                    size = Fixed(s_re, s_im if cplx else None, E, bw).top() - 1
                    level = max(E, -(ctx.precision + GUARD_DIGITS) * LOG2_10 + min(size, 0))
                    if lr < 0:
                        bound = lm + lr - math.log2(1 - 2.0 ** lr)
                        if bound < level:
                            return _reference_declared_stop(s_re, s_im, cplx, E, peak_top, n + 1,
                                                            term_bits, bw, ctx, bound)
            else:
                zero_run += 1
                small_run += 1
                if ratio is not None and ratio(n) < math.inf:
                    return _reference_declared_stop(s_re, s_im, cplx, E, peak_top, n + 1,
                                                    term_bits, bw, ctx, -math.inf)
            n += 1
            if ratio is not None:
                continue
            if small_run >= STOP_RUN and n >= STOP_RUN:
                value, error = _reference_settled(s_re, s_im if cplx else None, E,
                                                  peak_top, n, term_bits, bw, ctx)
                if zero_run >= STOP_RUN or not mags:
                    return SumOutcome(value, n, mp.mpf(0), True, error)
                view = _ReferenceMagnitudes(mags)
                rate = _reference_decay_rate(view, tol, peak)
                if rate is None:
                    rate = _reference_parity_decay_rate(view, tol)
                if rate is None:
                    raise RatioTestError(
                        f"terms below tolerance after {n} terms but no decay certificate")
                level = max(max(view[i][1] for i in range(max(0, len(view) - STOP_RUN),
                                                            len(view))), tol)
                tail = level * rate / (1 - rate)
                converged = ((tail < mp.mpf(10) ** (-ctx.precision) or tail <= error)
                             and tail < abs(value))
                return SumOutcome(value, n, tail, bool(converged), error)
        raise NonConvergenceError(f"no convergence within {MAX_TERMS} terms")


def _reference_closing(ratio):
    """The first read index n at which a declared read, from its start, of a
    stream of growth exactly 1 may end on its first-order remainder; None
    for any other read, and for a downward stream with unequal numbers of
    numerator and denominator factors.  The ratio tends to s, the step
    upwards and the step times prod a / prod b downwards; the factor values
    x at read index n are c q^n upwards and q^(n + 2) / c downwards, W is
    the sum of their magnitudes over 1 - |q|, and the remainder's index,
    charged R (n + 2)^2 roundings, must cover t_n's R (n + 1)^2 and
    12 + 2 m (1 + |s| / |1 - s|) + 1.25 W^2 |1 - s| / (1 - |s|) / u more,
    m = 1 upwards and 2 downwards, u = 2^(1 - wp), with W <= 2^-8.  In mp,
    index by index."""
    if not isinstance(ratio, summation._RatioBound):
        return None
    nums, dens, q, step, growth = ratio.params
    with mp.workdps(40):
        qv, s = q.to_mp(), step.to_mp()
        cs = [(q.like(c.coeff).to_mp() * qv ** (mp.mpf(Fraction(c.exponent).numerator)
                                                / Fraction(c.exponent).denominator), sign)
              for c, sign in [(c, 1) for c in nums] + [(c, -1) for c in dens]
              if q.like(c.coeff)]
        if growth.to_mp() != 1 or (not ratio.up and sum(sign for _, sign in cs)):
            return None
        if not ratio.up:
            s *= mp.fprod(c ** sign for c, sign in cs)
        if not 0 < abs(s) < 1:
            return None
        m = 1 if ratio.up else 2
        fixed = 12 + 2 * m * (1 + abs(s) / abs(1 - s))
        spread = 1.25 * abs(1 - s) / (1 - abs(s)) / mp.mpf(2) ** (1 - q.wp)
        Q = abs(qv)
        for n in range(MAX_TERMS):
            w = mp.fsum(abs(c) * Q ** n if ratio.up else Q ** (n + 2) / abs(c)
                        for c, _ in cs) / (1 - Q)
            if w <= mp.mpf(2) ** -8 and ROUNDINGS * (2 * n + 3) >= fixed + spread * w ** 2:
                return n
    return None


def _reference_declared_stop(s_re, s_im, cplx, E, peak_top, n, term_bits, bw, ctx, bound):
    value, error = _reference_settled(s_re, s_im if cplx else None, E, peak_top, n, term_bits,
                                      bw, ctx)
    if bound == -math.inf:
        return SumOutcome(value, n, mp.mpf(0), True, error)
    tail = mp.mpf(2) ** math.ceil(bound)
    converged = ((tail < mp.mpf(10) ** (-ctx.precision) or tail <= error)
                 and tail < abs(value))
    return SumOutcome(value, n, tail, bool(converged), error)


def _reference_settled(s_re, s_im, E, peak_top, n, term_bits, bw, ctx):
    if bw is None:
        return mp.mpf(0), mp.mpf(0)
    # term k carries at most R (k + 1)^2 roundings, 2 R N^3 in all for N
    # terms at 2^(1 - wp) each
    bound_top = (2 * ROUNDINGS * n * n ** 2 + n).bit_length() + peak_top - term_bits
    total = Fixed(s_re, s_im, E, bw)
    top = total.top() if total else E
    missing = bits_for_digits(ctx.precision) + bound_top - (top - 1)
    if missing > 0:
        raise PrecisionLossError(
            f"sum cancelled {peak_top - top} bits below its largest term; "
            f"{missing} more working bits needed", missing)
    return total.to_mp(), mp.ldexp(mp.mpf(1), bound_top)


class _ReferenceMagnitudes:
    def __init__(self, terms):
        self.terms = terms

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _ReferenceMagnitudes(self.terms[i])
        n, t = self.terms[i]
        m = abs(t.re) if t.im is None else math.isqrt(t.re * t.re + t.im * t.im)
        return n, mp.mpf(from_man_exp(m, t.e, *mp.mp._prec_rounding))


def _reference_decay_rate(mags, tol, peak=None):
    last = len(mags) - 1
    if last < 1:
        return mp.mpf("0.5")
    if peak is None:
        values = [mags[i][1] for i in range(len(mags))]
        peak = values.index(max(values))
    pairs = list(islice((i for i in range(last, peak, -1) if mags[i - 1][1] >= tol),
                        RATIO_WINDOW))
    if not pairs:
        pairs = range(last, max(last - RATIO_WINDOW, peak), -1)
    worst = max((_reference_pair_ratio(mags[i - 1], mags[i]) for i in pairs), default=None)
    if worst is None or worst >= RATIO_CAP:
        return None
    return worst


def _reference_parity_decay_rate(mags, tol):
    if len(mags) < 4:
        return None
    rates = [_reference_decay_rate(mags[start::2], tol) for start in (0, 1)]
    return None if None in rates else max(rates)


def _reference_pair_ratio(first, second):
    (n0, m0), (n1, m1) = first, second
    r = m1 / m0
    return r if n1 - n0 == 1 else r ** (mp.mpf(1) / (n1 - n0))


ORACLE_CTX = QContext.numeric("0.5", precision=20)
# Every oracle stream stops well within this many terms.
ORACLE_TERMS = 300


def oracle_stream(kind="fixed", bits=60, top0=0, rise=0, rate=4, parity=0, zeros=(),
                  near_tol=None, geometric=False, cancel=False, heads=False, seed=0):
    """The first ``ORACLE_TERMS`` terms of a test series, as a list.

    Terms rise over ``rise`` steps (by 0 or 1 bit each, so the peak has
    rivals of the same top), then lose ``rate`` bits per step, odd ones
    ``parity`` bits more, with a bit of jitter.  With ``geometric`` the
    terms after the rise are a running product instead, x_n = x_(n-1) f
    with one f for all, so that their ratios tie in floats and differ only
    in the last bits.  ``zeros`` are zero terms; ``near_tol`` starts six
    terms within two bits of the stop tolerance; ``cancel`` makes the second
    term the negative of the first, so the sum cancels.  Mantissas have
    ``bits`` bits; ``kind`` is "fixed", "fixed-complex", "mpf" or "mpc".
    With ``heads`` every third complex term is (m, +-m) 2^e, m = 2^bits - 1:
    its magnitude lies near 2^(top + 1/2), at the head of its top's bracket,
    so it can reach a tolerance or a rival one top higher.
    """
    wp = ORACLE_CTX.fixed_bits
    tol_top = math.floor(ORACLE_CTX.stop_log2)
    rnd = random.Random(seed)
    cplx = kind in ("fixed-complex", "mpc")
    factor = rnd.getrandbits(wp) | 1 << (wp - 1)
    terms, top, ms, base = [], top0, None, 0
    for n in range(ORACLE_TERMS):
        if n in zeros:
            terms.append(Fixed(0, 0 if cplx else None, 0, wp))
            continue
        shift = (parity if n % 2 else 0) + (150 if cancel and n >= 2 else 0)
        if geometric and n > rise and ms is not None:
            ms = [m * factor >> wp for m in ms]
            base -= rate
        else:
            if n < rise:
                top += rnd.randint(0, 1)
                step = top
            elif near_tol is not None and near_tol <= n < near_tol + 6:
                step = tol_top + rnd.randint(-2, 3)
            else:
                top -= rate
                step = top - shift + rnd.randint(-1, 1)
            ms = [rnd.choice((1, -1)) * (rnd.getrandbits(bits) | 1 << (bits - 1))
                  for _ in range(1 + cplx)]
            if cplx and rnd.randint(0, 9) == 0:
                ms[1] = 0
            if cplx and heads and n % 3 == 1:
                ms = [(1 << bits) - 1, rnd.choice((1, -1)) * ((1 << bits) - 1)]
            base = step - max(abs(m).bit_length() for m in ms) + shift
        terms.append(Fixed(ms[0], ms[1] if cplx else None, base - shift, wp))
    if cancel:
        terms[1] = -terms[0]
    if kind in ("mpf", "mpc"):
        terms = [_exact_mp(t) for t in terms]
    return terms


def _exact_mp(t):
    if t.im is None:
        return mp.make_mpf(from_man_exp(t.re, t.e))
    return mp.make_mpc((from_man_exp(t.re, t.e), from_man_exp(t.im, t.e)))


def _outcome_bits(engine, terms, ratio=None, ctx=ORACLE_CTX):
    """Every field of the outcome, or the error raised, in comparable form."""
    try:
        out = engine(terms.__getitem__, ctx, ratio)
    except (NonConvergenceError, PrecisionLossError, RatioTestError) as exc:
        return type(exc).__name__, str(exc)
    return tuple(getattr(x, "_mpf_", None) or getattr(x, "_mpc_", None) or x
                 for x in (out.value, out.terms_used, out.tail_bound, out.converged,
                           out.error))


ORACLE_CASES = {
    "real": dict(top0=5, rate=6),
    "complex": dict(kind="fixed-complex", top0=5, rate=6, bits=260),
    "mpf": dict(kind="mpf", top0=-3, rate=3),
    "mpc-short-mantissas": dict(kind="mpc", bits=2, top0=0, rate=5),
    "near-tol": dict(top0=-80, rate=1, near_tol=5, seed=3),
    "near-tol-complex": dict(kind="fixed-complex", top0=-90, rate=2, near_tol=2, seed=8),
    "peak-rivals-same-top": dict(top0=10, rise=6, rate=5, bits=8, seed=1),
    "zero-gaps": dict(top0=0, rate=7, zeros=(2, 5, 6, 11, 14, 15, 16)),
    "parity": dict(top0=0, rate=2, parity=25),
    "parity-complex": dict(kind="fixed-complex", top0=0, rate=2, parity=20, seed=2),
    "geometric-ties": dict(top0=0, rate=3, geometric=True, bits=270, seed=5),
    "geometric-ties-complex": dict(kind="fixed-complex", rate=4, geometric=True, bits=270),
    "geometric-ties-zero-gaps": dict(top0=0, rate=3, geometric=True, bits=270, seed=5,
                                     zeros=(22, 26, 27, 30)),
    "cancelling": dict(top0=20, rate=3, cancel=True),
    # complex terms near 2^(top + 1/2) that reach the stop tolerance from one
    # top below it, and a parity class whose largest term lies one top below
    # a rival's
    "heads-near-tol": dict(kind="fixed-complex", heads=True, bits=9, top0=-60, rate=2,
                           near_tol=3, rise=4),
    "heads-rivals": dict(kind="fixed-complex", heads=True, bits=2, top0=10, rate=3,
                         near_tol=3, rise=6, parity=25, seed=2),
}


# terms_used, or the error raised, of each oracle case: a stop on the block's
# last kept bit must not move them (their peaks lie far below 2^wp stop_tol)
ORACLE_TERMS_USED = {
    "cancelling": "PrecisionLossError", "complex": 22, "geometric-ties": 35,
    "geometric-ties-complex": 29, "geometric-ties-zero-gaps": 39, "heads-near-tol": 34,
    "heads-rivals": 50, "mpc-short-mantissas": 25, "mpf": 36, "near-tol": "RatioTestError",
    "near-tol-complex": "RatioTestError", "parity": 54, "parity-complex": 54,
    "peak-rivals-same-top": 33, "real": 22, "zero-gaps": 26,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_engine_matches_reference(name):
    terms = oracle_stream(**ORACLE_CASES[name])
    got = _outcome_bits(sum_series, terms)
    assert got == _outcome_bits(reference_sum_series, terms)
    assert (got[0] if isinstance(got[0], str) else got[1]) == ORACLE_TERMS_USED[name]


def test_sum_stops_where_its_terms_floor_away():
    # a Gaussian bump that peaks near 1e600: a term below 2^E, the running
    # sum's last kept bit, adds 0 or -1 units, so it counts toward STOP_RUN
    # as a term below the stop tolerance does, long before the terms reach
    # that tolerance
    wp = ORACLE_CTX.fixed_bits
    with ORACLE_CTX.workdps():
        terms = [mp.mpf(10) ** 600 * mp.mpf("0.7") ** ((n - 30) ** 2)
                 for n in range(ORACLE_TERMS)]
        tops = [Fixed.of(t, wp).top() for t in terms]
        E = max(tops) - wp
        below = next(n for n in range(30, ORACLE_TERMS) if tops[n] < E)
        negligible = next(n for n in range(30, ORACLE_TERMS) if terms[n] < ORACLE_CTX.stop_tol)
        out = sum_series(terms.__getitem__, ORACLE_CTX)
        assert below + STOP_RUN <= out.terms_used <= below + STOP_RUN + 3
        assert negligible > out.terms_used + 30
        assert out.converged
        assert abs(out.value - mp.fsum(terms)) <= out.error + out.tail_bound
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_engine_matches_reference_when_a_complex_term_tops_the_peak():
    # the peak 1 = 2^(top - 1) is passed by a complex term of one top less,
    # |(2^60 - 1)(1 + i)| 2^-60 ~ 1.41: only float log2s order the two
    wp = ORACLE_CTX.fixed_bits
    m = (1 << 60) - 1
    terms = [Fixed(1, 0, 0, wp), Fixed(m, m, -60, wp)]
    terms += [Fixed(m, -m, -60 - 30 * k, wp) for k in range(1, ORACLE_TERMS - 1)]
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_engine_matches_reference_just_under_the_stop_tolerance():
    # 2^-100 has top -99, above the stop bound -99.66, yet lies under it:
    # only the float log2 stops the sum on these terms
    wp = ORACLE_CTX.fixed_bits
    terms = [Fixed(1, None, 0, wp), Fixed(1, None, -50, wp)]
    terms += [Fixed(1, None, -100, wp)] * 6
    terms += [Fixed(1, None, -110 - 9 * k, wp) for k in range(ORACLE_TERMS - len(terms))]
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_engine_matches_reference_at_a_term_equal_to_the_tolerance():
    # terms tol 2^(8 (10 - k)) down to tol itself, then a ratio of 1/4: the
    # pair that starts at tol counts only by an exact comparison, and it
    # holds the worst ratio
    wp = ORACLE_CTX.fixed_bits
    with ORACLE_CTX.workdps():
        _, man, exp, _ = ORACLE_CTX.stop_tol._mpf_
    terms = [Fixed(man, None, exp + 8 * (10 - k), wp) for k in range(11)]
    terms += [Fixed(man, None, exp - 2 - 8 * k, wp) for k in range(ORACLE_TERMS - len(terms))]
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_oracle_cases_reach_what_they_name():
    def outcome(name):
        return _outcome_bits(reference_sum_series, oracle_stream(**ORACLE_CASES[name]))

    def summed(name):
        """(index, term) of each nonzero term the reference sums."""
        terms = oracle_stream(**ORACLE_CASES[name])
        out = reference_sum_series(terms.__getitem__, ORACLE_CTX)
        return [(n, t) for n, t in enumerate(terms[:out.terms_used]) if t]

    assert outcome("cancelling")[0] == "PrecisionLossError"
    tol = ORACLE_CTX.stop_tol
    with ORACLE_CTX.workdps():
        for name in ("parity", "parity-complex", "heads-rivals"):
            mags = _ReferenceMagnitudes(summed(name))
            assert _reference_decay_rate(mags, tol) is None
            assert _reference_parity_decay_rate(mags, tol) is not None
        # a term one top below the tolerance's that reaches it
        _, _, exp, bc = tol._mpf_
        below = _ReferenceMagnitudes([(n, t) for n, t in summed("heads-near-tol")
                                      if t.top() == exp + bc - 1])
        assert any(below[i][1] >= tol for i in range(len(below)))
        # a parity class whose first largest term lies one top below its
        # highest
        terms = summed("heads-rivals")
        gaps = []
        for start in (0, 1):
            mags = _ReferenceMagnitudes(terms[start::2])
            values = [mags[i][1] for i in range(len(mags))]
            peak = terms[start::2][values.index(max(values))][1].top()
            gaps.append(max(t.top() for _, t in terms[start::2]) - peak)
        assert 1 in gaps


@st.composite
def oracle_streams(draw):
    kind = draw(st.sampled_from(["fixed", "fixed-complex", "mpf", "mpc"]))
    bits = draw(st.sampled_from([1, 2, 9, 60, 270]))
    return oracle_stream(
        kind=kind, bits=bits, top0=draw(st.integers(-110, 40)),
        rise=draw(st.integers(0, 5)), rate=draw(st.integers(1, 14)),
        parity=draw(st.sampled_from([0, 0, 3, 25, 60])),
        zeros=draw(st.frozensets(st.integers(0, 60), max_size=8)),
        near_tol=draw(st.none() | st.integers(0, 20)),
        geometric=draw(st.booleans()) and bits > 200,
        cancel=draw(st.integers(0, 9)) == 0, seed=draw(st.integers(0, 2 ** 32)))


# Draws on which a reference that counted a term negligible below the stop
# tolerance alone parted from the engine: geometric streams with 270-bit
# mantissas whose odd terms lie 60 bits lower, found by a random search of
# the strategy's arguments (about 1 draw in 2,000 of that corner).
PARTED_DRAWS = [
    dict(kind="fixed", bits=270, top0=36, rise=4, rate=12, parity=60,
         zeros=frozenset({32, 35, 36, 4, 59}), geometric=True, seed=2784755950),
    dict(kind="mpf", bits=270, top0=37, rise=4, rate=1, parity=60,
         zeros=frozenset({34, 4, 42, 51, 20, 55}), geometric=True, cancel=True,
         seed=4236285959),
    dict(kind="mpc", bits=270, top0=39, rise=4, rate=8, parity=60,
         zeros=frozenset({48, 26, 4, 47}), near_tol=14, geometric=True, seed=3804187971),
]


def _parted(test):
    for kwargs in PARTED_DRAWS:
        test = example(oracle_stream(**kwargs))(test)
    return test


@given(oracle_streams())
@_parted
@settings(max_examples=400, deadline=None)
def test_engine_matches_reference_on_generated_streams(terms):
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_sum_below_its_tail_bound_is_not_converged():
    # terms 1e-40 2^-n that do not cancel, each below the stop tolerance
    # 1e-30 from the first: the observed tail bound, that tolerance times
    # rate / (1 - rate) = 1, lies far above the value
    ctx = QContext.numeric("0.5", precision=20)
    out = sum_series(lambda n: mp.mpf(10) ** -40 / 2 ** n, ctx)
    assert out.tail_bound > abs(out.value) and not out.converged
    with pytest.raises(NonConvergenceError,
                       match=r"tail bound 1.0e-30 after 5 terms, \|value\| 1.94e-40"):
        out.certified()
    # 1phi1(0; 0; q, z) = (z; q)_inf, exactly 0 at z = 2^20, q = 1/2, on the
    # observed certificate (its stream passed on as a plain one): each rerun
    # stops deeper, so the truncated series chases its zero, as its declared
    # twin below does, and no width is enough
    zero = QPow(0, 0)

    def observed(wide):
        return qfunctions._series(lambda q: iter(summation._ratio_terms(
            [zero], [zero, QPow(1, 1)], q, -q.like(2 ** 20), q)), wide)

    with pytest.raises(PrecisionLossError, match="beyond") as exc:
        widening(observed, ctx)
    assert exc.value.bits == 0


def test_declared_sum_of_a_vanishing_series_lacks_every_digit():
    # the same series on its declared bound reads on until its tail lies
    # below one unit of the working digits of the running sum, which
    # cancels towards the exact 0: no width is enough
    ctx = QContext.numeric("0.5", precision=20)
    with pytest.raises(PrecisionLossError, match="beyond") as exc:
        widening(lambda wide: phi_1_1(0, 0, 2 ** 20, wide), ctx)
    assert exc.value.bits == 0


# The declared stop rule.  ``ObservedReading`` declares, for a list of
# terms, the largest log2 ratio |t(m + 1) / t(m)| over m >= j (infinite
# across a zero followed by a nonzero term), raised by the engine's slack:
# a valid bound for the list by construction.  Its ``low`` of -inf makes
# the engine evaluate it at every term, as the reference does; the engine's
# own skip on ``low + slope * j`` is checked on kernel streams in
# tests/test_qfunctions.py.


class ObservedReading:
    low, slope, close = -math.inf, 0.0, math.inf

    def __init__(self, terms):
        wp = ORACLE_CTX.fixed_bits
        mags = [summation._log2(t) if t else None
                for t in (x if x.__class__ is Fixed else Fixed.of(x, wp) for x in terms)]
        ratios = []
        for a, b in zip(mags, mags[1:]):
            ratios.append(-math.inf if b is None else math.inf if a is None else b - a)
        self.sup = list(accumulate(reversed(ratios), max))[::-1] + [-math.inf]

    def __call__(self, j):
        return self.sup[j] + summation.RATIO_SLACK


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_engine_matches_reference_under_a_declared_bound(name):
    terms = oracle_stream(**ORACLE_CASES[name])
    ratio = ObservedReading(terms)
    got = _outcome_bits(sum_series, terms, ratio)
    assert got == _outcome_bits(reference_sum_series, terms, ratio)


@given(oracle_streams())
@_parted
@settings(max_examples=200, deadline=None)
def test_engine_matches_reference_on_generated_streams_under_a_declared_bound(terms):
    ratio = ObservedReading(terms)
    assert (_outcome_bits(sum_series, terms, ratio)
            == _outcome_bits(reference_sum_series, terms, ratio))


def test_declared_bound_stops_at_its_first_certified_term():
    # sum_n r^n (-1)^(n (n - 1) / 2) at r = 0.9 under the bound of its own
    # stream (step r, growth -1): the stop is the first K with
    # r^K r / (1 - r) below one unit of the working digits, not below
    # 10^-precision, and no stop run; the sum is (1 + r) / (1 + r^2)
    ctx = QContext.numeric("0.5", precision=30)
    r = mp.mpf("0.9")
    with ctx.workdps():
        q, step = ctx.fixed(ctx.q), ctx.fixed(r)
        ratio = summation._RatioBound([], [], q, step, q.like(-1)).reading()
        assert ratio.slope == 0 and ratio.close == math.inf
        steps = (step if k % 2 == 0 else -step for k in range(2000))
        terms = list(islice(accumulate(steps, lambda t, f: t * f, initial=q.like(1)), 2000))
        out = sum_series(terms.__getitem__, ctx, ratio)
        level = ctx.tail_log2
        stops = [k for k in range(2000)
                 if k * math.log2(0.9) + math.log2(0.9 / 0.1) < level]
        assert out.terms_used == stops[0] + 1
        # the bound, rounded up to a power of two
        assert out.tail_bound < 2 * mp.mpf(2) ** level < ctx.target_tol * mp.mpf(10) ** -14
        exact = (1 + r) / (1 + r * r)
        assert abs(out.value - exact) <= out.tail_bound + out.error
        assert out.converged


def test_declared_zero_term_stops_only_below_a_finite_bound():
    # zero terms before a pole of the ratio (a lattice tail that reads a
    # terminated stream first) go on; a zero under a finite bound stops
    ctx = QContext.numeric("0.5", precision=20)
    wp = ctx.fixed_bits
    zero, one = Fixed(0, None, 0, wp), Fixed(1, None, 0, wp)
    terms = [zero, zero, one] + [Fixed(1, None, -40 * k, wp) for k in range(1, 20)]

    class PoleAfterTwo:
        low, slope, close = -math.inf, 0.0, math.inf

        def __call__(self, j):
            return math.inf if j < 2 else -40 + summation.RATIO_SLACK

    out = sum_series(terms.__getitem__, ctx, PoleAfterTwo())
    assert out.value == 1 + mp.mpf(2) ** -40 + mp.mpf(2) ** -80
    assert out.terms_used == 5
    dead = sum_series(lambda n: zero, ctx, ObservedReading([zero, zero]))
    assert (dead.value, dead.terms_used, dead.tail_bound, dead.converged) == (0, 1, 0, True)


# One block for both tails.  ``sum_bilateral`` sums its two tails into one
# running sum; the oracle sums each tail on its own with ``sum_series`` and
# adds the two outcomes.  The two may stop a tail at different terms (the
# second tail of the block reads its level off the sum of both), so they
# agree within both rounding bounds and both tail bounds.

BLOCK_TAILS = {
    "real": (dict(top0=5, rate=6), dict(top0=-3, rate=4, seed=1)),
    "complex": (dict(kind="fixed-complex", top0=5, rate=6, bits=260),
                dict(kind="fixed-complex", top0=9, rate=3, seed=4)),
    "mpf-and-mpc": (dict(kind="mpf", top0=-3, rate=3), dict(kind="mpc", bits=2, rate=5)),
    "parity-and-gaps": (dict(top0=0, rate=2, parity=25),
                        dict(top0=2, rate=7, zeros=(2, 5, 6, 11))),
    # the second tail undoes the first to within 2^-40 of its first term
    "cancelling": (dict(top0=20, rate=3), dict(top0=20, rate=3)),
    "cancelling-complex": (dict(kind="fixed-complex", top0=20, rate=3, bits=260),
                           dict(kind="fixed-complex", top0=20, rate=3, bits=260)),
}
BLOCK_RULES = {"declared": (True, True), "observed": (False, False),
               "declared-then-observed": (True, False), "observed-then-declared": (False, True)}


def _block_tails(name):
    pos, neg = (oracle_stream(**kw) for kw in BLOCK_TAILS[name])
    if name.startswith("cancelling"):
        neg = [-t for t in pos]
        neg[0] = neg[0] + Fixed.of(pos[0], 300) * Fixed(1, None, -40, 300)
        neg[0] = Fixed.of(neg[0], pos[0].wp)
    return pos, neg


def _peak_top(terms, ctx):
    """The top of the first term of largest float log2, as the engine
    picks its peak."""
    peak, best = None, -math.inf
    for t in terms:
        t = t if t.__class__ is Fixed else Fixed.of(t, ctx.fixed_bits)
        if t and summation._log2(t) > best:
            peak, best = t.top(), summation._log2(t)
    return peak


# the block at the working width, and 107 bits wider, as a rerun sums it
@pytest.mark.parametrize("extra", [0, 107])
@pytest.mark.parametrize("rule", sorted(BLOCK_RULES))
@pytest.mark.parametrize("name", sorted(BLOCK_TAILS))
def test_bilateral_block_matches_the_per_tail_oracle(name, rule, extra):
    tails = _block_tails(name)
    ratios = tuple(ObservedReading(t) if declared else None
                   for t, declared in zip(tails, BLOCK_RULES[rule]))
    read = ([], [])

    def reader(i):
        return lambda k: read[i].append(tails[i][k]) or read[i][-1]

    ctx = ORACLE_CTX.wider(extra)
    with ctx.workdps():
        out = sum_bilateral(reader(0), reader(1), ctx, ratios)
        pos, neg = (sum_series(t.__getitem__, ctx, r) for t, r in zip(tails, ratios))
        assert out.converged and pos.converged and neg.converged
        outs = (out, pos, neg)
        # each value is its block sum rounded once to the working precision
        rounded = sum(mp.ldexp(abs(o.value), 1 - mp.mp.prec) for o in outs)
        with mp.workdps(400):
            gap = abs(out.value - (pos.value + neg.value))
        assert gap <= sum(o.error + o.tail_bound for o in outs) + rounded
        if name.startswith("cancelling"):
            # the tails cancel about 40 bits below their largest term
            assert abs(out.value) < mp.ldexp(abs(tails[0][0].to_mp()), -30)
    n = out.terms_used
    assert n == len(read[0]) + len(read[1]) and all(read)
    # one rounding charge over all n terms of both tails, at the peak of both
    with ctx.workdps():
        # Fixed terms are charged at their own width, not the block's
        term_bits = tails[0][0].wp if tails[0][0].__class__ is Fixed else mp.mp.prec
    assert out.error == mp.ldexp(1, rounding_bits(n) + _peak_top(read[0] + read[1], ctx)
                                 - term_bits)


# -- closed geometric remainders -----------------------------------------------
#
# A _ratio_terms stream of growth exactly 1 has a ratio that tends to a
# constant s: upwards s prod (1 - a q^k) / prod (1 - b q^k) with s the step,
# and downwards, with as many numerator as denominator factors,
# s prod (1 - q^-k / a) / prod (1 - q^-k / b) with s the step times
# prod a / prod b.  Its sum ends, from the first index at which the
# first-order remainder t_n s / (1 - s) (1 + D / (1 - s q)) fits the charge
# of one more term, on that remainder, with no tail bound.  Each case: q,
# precision, numerator and denominator QPows, the step, and the direction.

A6, B06, C45 = (QPow(mp.mpf(v), 0) for v in ("0.6", "0.06", "0.45"))
Q1 = QPow(1, 1)
UNIT_STREAMS = {
    "real": ("0.3", 20, [A6, B06], [C45, Q1], "0.9", True),
    "negative": ("-0.6", 50, [A6, B06], [C45, Q1], "-0.9", True),
    "complex": ("0.2+0.1j", 20, [A6], [Q1], "0.6+0.6j", True),
    # the kind-1 q-Bessel series at order 1/2: a factor exponent nu + 1
    "fraction-exponent": ("0.5j", 20, [], [Q1, QPow(1, Fraction(3, 2))], "-0.75", True),
    # 1 - s = 2^-14: the remainder's error waits for a charge far past K_g
    "near-one": ("0.5", 20, [A6], [Q1], 1 - mp.mpf(2) ** -14, True),
    # downwards, s = 1.1 * 0.45 / 0.6, and so on
    "down-real": ("0.3", 20, [C45], [A6], "1.1", False),
    "down-negative": ("-0.6", 50, [C45, B06], [A6, QPow(mp.mpf("0.5"), 1)], "-5", False),
    "down-complex": ("0.2+0.1j", 20, [A6], [QPow(mp.mpf("0.5"), 1)], "0.1+0.1j", False),
    "down-fraction-exponent": ("0.5j", 20, [QPow(mp.mpf("0.7"), Fraction(1, 2))], [A6],
                               "-0.9", False),
}


def _unit_stream(name):
    """(ctx, terms as a list, the declared bound) of a case, read to two
    terms past its closing index."""
    qs, precision, nums, dens, step, up = UNIT_STREAMS[name]
    ctx = QContext.numeric(qs, precision=precision)
    with ctx.workdps():
        q = ctx.fixed_q
        stream = summation._ratio_terms(nums, dens, q, q.like(mp.mpmathify(step)), q.like(1),
                                        up=up)
        ratio = stream.bound.reading()
        assert ratio.close < MAX_TERMS - 2
        return ctx, list(islice(stream, ratio.close + 2)), ratio


def _unit_exact(ratio, precision):
    """The value in mp at twice the digits of the series whose bound is
    ``ratio``, at the stream's own q, step and coefficients: the q-binomial
    theorem (a s; q)_inf / (s; q)_inf for one numerator over (q; q)
    upwards, else the terms from the ratio summed to 10^-(2 precision)."""
    nums, dens, qf, step, _ = ratio.params
    up = ratio.up
    with mp.workdps(2 * precision + 20):
        q, s = qf.to_mp(), step.to_mp()

        def factor(c, k):
            e = Fraction(c.exponent) + k
            return 1 - qf.like(c.coeff).to_mp() * q ** (mp.mpf(e.numerator) / e.denominator)

        def r(k):
            return (s * mp.fprod(factor(c, k) for c in nums)
                    / mp.fprod(factor(c, k) for c in dens))

        if up and dens == [Q1] and len(nums) == 1:
            return mp.qp(qf.like(nums[0].coeff).to_mp() * s, q) / mp.qp(s, q)
        # upwards t_0 = 1 and t_(k+1) = t_k r_k; downwards the read starts at
        # t_(-1) = r_(-1) and goes on by t_(k-1) = t_k r_(k-1)
        total, t, k = 0, mp.mpf(1) if up else r(-1), 0 if up else -1
        while abs(t) > mp.mpf(10) ** (-2 * precision - 10):
            total += t
            if up:
                t *= r(k)
                k += 1
            else:
                k -= 1
                t *= r(k)
        return total


def _k_g(name, ctx):
    """The first stream index at which every factor of an upward case has
    |c q^k| below 2^-(wp + 4), in mp."""
    qs, precision, nums, dens, step, _ = UNIT_STREAMS[name]
    with mp.workdps(40):
        q = abs(mp.mpmathify(qs))
        cs = [abs(mp.mpmathify(c.coeff)) * q ** (mp.mpf(Fraction(c.exponent).numerator)
                                                 / Fraction(c.exponent).denominator)
              for c in (*nums, *dens)]
        return next(k for k in range(MAX_TERMS)
                    if all(c * q ** k < mp.mpf(2) ** -(ctx.fixed_bits + 4) for c in cs))


@pytest.mark.parametrize("name", sorted(UNIT_STREAMS))
def test_unit_growth_sum_matches_the_reference_and_its_value(name):
    ctx, terms, ratio = _unit_stream(name)
    assert (_outcome_bits(sum_series, terms, ratio, ctx)
            == _outcome_bits(reference_sum_series, terms, ratio, ctx))
    read = []
    out = sum_series(lambda n: read.append(n) or terms[n], ctx, ratio)
    # closed at the index the reference found in mp: the stream is read to
    # it, the remainder is one more term, and nothing is left
    assert ratio.close == _reference_closing(ratio)
    assert (len(read), out.terms_used, out.tail_bound) == (ratio.close + 1, ratio.close + 2, 0)
    with ctx.workdps():
        rounded = mp.ldexp(abs(out.value), 1 - mp.mp.prec)
    with mp.workdps(2 * ctx.precision + 20):
        assert abs(out.value - _unit_exact(ratio, ctx.precision)) <= out.error + rounded
    assert out.converged


def test_unit_growth_closes_where_its_first_order_remainder_fits():
    # at q = 0.3 the remainder's truncation, of order W^2, decides: it
    # closes at about half the index K_g at which every factor is 1 at the
    # working width.  With 1 - s = 2^-14 the charge decides, far past K_g
    ctx, _, ratio = _unit_stream("real")
    k = _k_g("real", ctx)
    assert ratio.close == _reference_closing(ratio) == summation._RatioBound(
        *ratio.params).reading().close
    assert k / 2 - 3 <= ratio.close <= k / 2
    ctx, _, ratio = _unit_stream("near-one")
    assert ratio.close > 10 * _k_g("near-one", ctx)
    assert ratio.close == _reference_closing(ratio)
    with mp.workdps(40):
        s = ratio.params[3].to_mp()
        charge = 12 + 2 * (1 + abs(s) / abs(1 - s))
    assert ROUNDINGS * (2 * ratio.close + 1) < charge <= ROUNDINGS * (2 * ratio.close + 3)


def test_unit_growth_closes_only_at_a_constant_limit_ratio():
    ctx = QContext.numeric("0.3", precision=20)
    with ctx.workdps():
        q = ctx.fixed_q
        step, one = q.like(mp.mpf("0.9")), q.like(1)

        def bound(nums, dens, growth=one, up=True):
            return summation._RatioBound(nums, dens, q, step, growth, up)

        assert bound([A6], [Q1]).reading().close < math.inf
        assert bound([C45], [A6], up=False).reading().close < math.inf
        # downwards the ratio tends to a constant only with as many numerator
        # as denominator factors, and in no direction at growth q
        for case in (bound([], [A6], up=False), bound([A6], [C45, B06], up=False),
                     bound([A6], [Q1], q), bound([C45], [A6], q, up=False)):
            assert case.reading().close == math.inf


@pytest.mark.parametrize("qs", ["0.3", "-0.6", "0.9", "0.2+0.1j"])
def test_bilateral_block_closes_both_tails(qs):
    # sum over n of (a; q)_n / (b; q)_n z^n (Ramanujan's 1psi1) at z = 0.9:
    # the upward tail's ratio tends to z and the downward one's to b / (a z),
    # and both close on their first-order remainders
    ctx = QContext.numeric(qs, precision=50)
    a, b, z = mp.mpf("0.6"), mp.mpf("0.5"), mp.mpf("0.9")
    with ctx.workdps():
        qf = ctx.fixed_q
        streams = summation._ratio_streams(QPow(a, 0), QPow(b, 0), 0, z)(qf)
        (pos, up), (neg, down) = map(summation._reading, streams)
        counts = [0, 0]

        def counted(term, i):
            return lambda k: counts.__setitem__(i, counts[i] + 1) or term(k)

        out = sum_bilateral(counted(pos, 0), counted(neg, 1), ctx, (up, down))
        assert [up.close, down.close] == [_reference_closing(up), _reference_closing(down)]
        assert counts == [up.close + 1, down.close + 1]
        assert (out.terms_used, out.tail_bound) == (sum(counts) + 2, 0)
        rounded = mp.ldexp(abs(out.value), 1 - mp.mp.prec)
    with mp.workdps(2 * ctx.precision + 20):
        q = qf.to_mp()
        exact = (mp.qp(q, q) * mp.qp(b / a, q) * mp.qp(a * z, q) * mp.qp(q / (a * z), q)
                 / (mp.qp(b, q) * mp.qp(q / a, q) * mp.qp(z, q) * mp.qp(b / (a * z), q)))
        assert abs(out.value - exact) <= out.error + rounded
    assert out.converged


def test_bilateral_block_reads_its_first_tail_on_below_the_sum_of_both():
    # 2^-n over n >= 0 against its negative, whose first term is
    # -1 + 2^-140: the block sums to 2^-140.  The first tail stops at one
    # unit of the working digits of its own sum, about 2^-117, far above
    # that; after the second tail it is read on to the level of the sum of
    # both, so the block's tail bound falls below its value.  The terms carry
    # 120 bits more than the context's width, and the block runs at theirs;
    # a wider context would also stop 120 bits deeper
    ctx = ORACLE_CTX
    wp = ctx.fixed_bits + 120
    pos = [Fixed(1, None, -n, wp) for n in range(ORACLE_TERMS)]
    neg = [-t for t in pos]
    neg[0] = Fixed((1 << 140) - 1, None, -140, wp) * -1
    ratios = (ObservedReading(pos), ObservedReading(neg))
    read = ([], [])

    def reader(i, tail):
        return lambda k: read[i].append(k) or tail[k]

    with ctx.workdps():
        out = sum_bilateral(reader(0, pos), reader(1, neg), ctx, ratios)
        alone = sum_series(pos.__getitem__, ctx, ratios[0])
    first = alone.terms_used
    assert read[0] == list(range(len(read[0]))) and len(read[0]) > first + 100
    assert out.terms_used == len(read[0]) + len(read[1])
    with mp.workdps(200):
        assert abs(out.value - mp.mpf(2) ** -140) <= out.error + out.tail_bound
    # the second tail stops about 2^-117 below the sum of both, then -2^-117
    assert alone.tail_bound > abs(out.value) > mp.mpf(2) ** 80 * out.tail_bound
    assert out.converged
