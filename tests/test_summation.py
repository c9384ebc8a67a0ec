"""Summation engine behavior: stopping, certificates, failure modes."""

import random

import mpmath as mp
import pytest

from qrr import (NonConvergenceError, QContext, RatioTestError, sum_bilateral,
                 sum_series)
from qrr.summation import (RATIO_CAP, RATIO_WINDOW, _decay_rate,
                           _parity_decay_rate)


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
    ctx = QContext.numeric("0.5", max_terms=200)
    with pytest.raises(NonConvergenceError):
        sum_series(lambda n: mp.mpf(1), ctx)


def test_no_decay_certificate_raises():
    ctx = QContext.numeric("0.5", precision=20, max_terms=500)
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
        mags = [(n, r ** n * (1 if n % 2 == 0 else c))
                for n in range(out.terms_used)]
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
        out = sum_bilateral(lambda n: q ** (n * n), ctx)
    oracle = 2 * theta_half_oracle(dps=35) - 1
    assert abs(out.value - oracle) < mp.mpf(10) ** -29
    assert mp.nstr(out.value, 20) == "2.1289368272118771587"


def test_bilateral_two_geometric_tails():
    ctx = QContext.numeric("0.5", precision=30)
    q = ctx.q
    with ctx.workdps():
        out = sum_bilateral(lambda n: q ** abs(n), ctx)
    assert abs(out.value - 3) < mp.mpf(10) ** -29


def test_bilateral_with_dead_negative_tail():
    ctx = QContext.numeric("0.4", precision=30)
    q = ctx.q

    def term(n):
        return q ** n if n >= 0 else mp.mpf(0)

    with ctx.workdps():
        out = sum_bilateral(term, ctx)
        uni = sum_series(lambda n: q ** n, ctx)
    assert abs(out.value - uni.value) == 0


def test_stability_under_stricter_stopping():
    ctx = QContext.numeric("0.45", precision=35)
    q = ctx.q
    with ctx.workdps():
        loose = sum_series(lambda n: q ** (n * n) * (-1) ** n, ctx, group=5)
        strict = sum_series(lambda n: q ** (n * n) * (-1) ** n, ctx, group=12)
    assert abs(loose.value - strict.value) <= loose.tail_bound + strict.tail_bound


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
    mags = _CASES[name]
    with mp.workdps(65):
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
