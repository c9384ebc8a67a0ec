"""Summation engine behavior: stopping, certificates, failure modes."""

import math
import random
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from qrr import (NonConvergenceError, PoleError, PrecisionLossError, QContext,
                 RatioTestError, SumOutcome, sum_bilateral, sum_series)
from qrr.context import MAX_TERMS
from qrr.fixedpoint import LOG2_10, Fixed, bits_for_digits, rounding_bits
from qrr import qfunctions
from qrr.qfunctions import phi_1_1
from qrr.summation import (RATIO_CAP, RATIO_WINDOW, STOP_RUN, _decay_rate,
                           _parity_decay_rate, _Terms)


def _view(mags):
    """The certificate's view of (index, positive mpf magnitude) pairs."""
    ts = [Fixed(m.man, None, m.exp, m.bc) for _, m in mags]
    return _Terms([n for n, _ in mags], ts, [t.top() for t in ts])


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
        mags = _view([(n, r ** n * (1 if n % 2 == 0 else c))
                      for n in range(out.terms_used)])
        assert _decay_rate(mags, ctx.stop_tol) is None
        assert mp.almosteq(_parity_decay_rate(mags, ctx.stop_tol), r, 1e-20)


def test_parity_split_needs_two_terms_per_class():
    tol = mp.mpf(10) ** -40
    rising = [(0, mp.mpf(1)), (1, mp.mpf(2))]
    assert _parity_decay_rate(_view(rising), tol) is None
    assert _parity_decay_rate(_view(rising + [(2, mp.mpf(3))]), tol) is None


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
        got = _decay_rate(_view(mags), _TOL)
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
        assert _decay_rate(_view(rising), tol) == rising[2][1] / rising[1][1]
        assert decay_rate_reference(rising, tol) is None  # the whole-history window
        # still rising at the last term: nothing after the peak to certify
        assert _decay_rate(_view([(0, mp.mpf(1)), (1, mp.mpf(2))]), tol) is None
        for name in ("plateau-below-tol", "plateau-above-tol"):
            assert _decay_rate(_view(_CASES[name]), _TOL) is None


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
# outcome bit for bit, or raise the same error.


def reference_sum_series(term, ctx):
    """``sum_series`` with a float log2 and mpf magnitudes for every term."""
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
                small_run = small_run + 1 if lm < tol_log2 else 0
            else:
                zero_run += 1
                small_run += 1
            n += 1
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
                converged = tail < mp.mpf(10) ** (-ctx.precision) and tail < abs(value)
                return SumOutcome(value, n, tail, bool(converged), error)
        raise NonConvergenceError(f"no convergence within {MAX_TERMS} terms")


def _reference_settled(s_re, s_im, E, peak_top, n, term_bits, bw, ctx):
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
                  near_tol=None, geometric=False, cancel=False, seed=0):
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


def _outcome_bits(engine, terms):
    """Every field of the outcome, or the error raised, in comparable form."""
    try:
        out = engine(terms.__getitem__, ORACLE_CTX)
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
    "cancelling": dict(top0=20, rate=3, cancel=True),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_engine_matches_reference(name):
    terms = oracle_stream(**ORACLE_CASES[name])
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

    assert outcome("cancelling")[0] == "PrecisionLossError"
    for name in ("parity", "parity-complex"):
        terms = oracle_stream(**ORACLE_CASES[name])
        out = reference_sum_series(terms.__getitem__, ORACLE_CTX)
        with ORACLE_CTX.workdps():
            mags = _ReferenceMagnitudes([(n, t) for n, t in enumerate(terms[:out.terms_used])])
            assert _reference_decay_rate(mags, ORACLE_CTX.stop_tol) is None
            assert _reference_parity_decay_rate(mags, ORACLE_CTX.stop_tol) is not None


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


@given(oracle_streams())
@settings(max_examples=400, deadline=None)
def test_engine_matches_reference_on_generated_streams(terms):
    assert _outcome_bits(sum_series, terms) == _outcome_bits(reference_sum_series, terms)


def test_sum_below_its_tail_bound_is_not_converged(monkeypatch):
    # 1phi1(0; 0; q, z) = (z; q)_inf, exactly 0 at z = 2^20, q = 1/2: the
    # truncated series is 6e-77, far below its tail bound of 4e-36
    outcomes = []
    monkeypatch.setattr(qfunctions, "sum_series",
                        lambda *args: outcomes.append(sum_series(*args)) or outcomes[-1])
    ctx = QContext.numeric("0.5", precision=20)
    # the kernel returns no uncertified value: it raises, naming the bound
    with pytest.raises(NonConvergenceError, match=r"tail bound 3.81e-36 .* \|value\| 5.98e-77"):
        phi_1_1(0, 0, 2 ** 20, ctx)
    out = outcomes[-1]
    assert out.tail_bound > abs(out.value)
    assert not out.converged
