"""Shifted-factorial and q-binomial behavior, checked against independent
product oracles."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import (DomainError, NonConvergenceError, PoleError, QContext, QPow, QPoly,
                 infinite_product, pochhammer_finite, pochhammer_infinite,
                 pochhammer_ratio, q_binomial)
from qrr.context import MAX_TERMS

CTX = QContext.numeric("0.3", precision=50)


def euler_product_oracle(q, dps=40):
    """(q;q)_inf by direct multiplication, independent of the library path."""
    with mp.workdps(dps + 10):
        qv = mp.mpf(q)
        prod = mp.mpf(1)
        k = 1
        while abs(qv) ** k > mp.mpf(10) ** (-dps - 5):
            prod *= 1 - qv ** k
            k += 1
        return prod


def test_empty_product_is_one():
    assert pochhammer_finite(Fraction(2, 3), Fraction(1, 2), 0) == 1


def test_finite_product_exact_value():
    # (q;q)_2 at q = 1/2: (1 - 1/2)(1 - 1/4) = 3/8
    assert pochhammer_finite(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)


def test_negative_index_matches_ratio_convention():
    q = Fraction(1, 3)
    a = Fraction(2, 5)
    # (a;q)_{-2} = 1 / ((a q^{-2}; q)_2)
    direct = 1 / ((1 - a * q ** -2) * (1 - a * q ** -1))
    assert pochhammer_finite(a, q, -2) == direct


def test_negative_index_pole():
    q = Fraction(1, 3)
    with pytest.raises(PoleError):
        pochhammer_finite(q, q, -1)  # factor 1 - q*q^{-1} = 0


def test_reciprocal_of_vanishing_product_is_a_pole():
    # (1;q)_n = 0 for n >= 1: its reciprocal (0;q)_n / (1;q)_n is undefined
    with pytest.raises(PoleError):
        pochhammer_ratio(0, Fraction(1), Fraction(1, 3), 2)


def test_q_binomial_out_of_range_numeric_zero():
    assert q_binomial(3, 5)(Fraction(1, 2)) == 0
    assert q_binomial(-1, 0)(Fraction(1, 2)) == 0


def test_reciprocal_of_gap_factorial_is_exact_zero():
    # 1/(q;q)_{-k} = 0: the structured form detects 1 - q^0 exactly
    # (0;q)_n = 1, so the ratio (0;q)_n / (a;q)_n is the reciprocal
    q = mp.mpf("0.3")
    assert pochhammer_ratio(0, QPow(1, 1), q, -1) == 0
    assert pochhammer_ratio(0, QPow(1, 1), q, -4) == 0
    # plain-number path at binary-exact q = 0.5 also cancels exactly
    assert pochhammer_ratio(0, mp.mpf("0.5"), mp.mpf("0.5"), -1) == 0


def test_index_additivity():
    # (a;q)_{m+n} = (a;q)_m (a q^m; q)_n on a grid including negatives
    q = Fraction(1, 4)
    a = Fraction(3, 7)
    for m in range(-4, 5):
        for n in range(-4, 5):
            lhs = pochhammer_finite(a, q, m + n)
            rhs = pochhammer_finite(a, q, m) * pochhammer_finite(
                QPow(a, m), q, n)
            assert lhs == rhs, (m, n)


def test_infinite_product_against_euler_oracle():
    ctx = QContext.numeric("0.5", precision=30)
    out = pochhammer_infinite(mp.mpf("0.5"), mp.mpf("0.5"), ctx)
    oracle = euler_product_oracle("0.5", dps=35)
    assert abs(out - oracle) < mp.mpf(10) ** -30
    # frozen 30-digit value from the direct-product oracle
    assert mp.nstr(out, 25) == "0.2887880950866024212788997"


def test_infinite_product_against_mpmath_qp():
    with mp.workdps(60):
        for qs in ("0.2", "0.35"):
            q = mp.mpf(qs)
            ours = pochhammer_infinite(q, q, QContext.numeric(q))
            assert abs(ours - mp.qp(q)) < mp.mpf(10) ** -50


def test_infinite_product_zero_literal():
    ctx = QContext.numeric("0.5")
    assert pochhammer_infinite(QPow(1, 0), mp.mpf("0.5"), ctx) == 0


@pytest.mark.parametrize("e", [0, -2, Fraction(-2)], ids=["0", "-2", "Fraction(-2)"])
def test_infinite_product_factor_at_exponent_zero_is_exact(e):
    # the factor whose joint exponent is 0 is 1 - c exactly, however the
    # exponent is written; a carried power c q^e q^k would round near 1
    ctx = QContext.numeric("0.3", precision=30)
    with ctx.workdps():
        assert infinite_product([QPow(1, e)], [], ctx.q, ctx) == 0
        with pytest.raises(PoleError):
            infinite_product([], [QPow(1, e)], ctx.q, ctx)
        assert infinite_product([QPow(1, Fraction(-3, 2))], [], ctx.q, ctx) != 0


def test_infinite_product_of_zero_argument():
    ctx = QContext.numeric("0.5")
    assert pochhammer_infinite(mp.mpf(0), mp.mpf("0.5"), ctx) == 1


def test_infinite_product_of_a_tiny_factor_near_one_matches_its_log_series():
    # a factor of 1e-60 is never walked, but at q = 1 - 1e-11 its product
    # differs from 1 by about 1e-49: the log series carries it, and
    # exp(-x/(1 - q) - x^2/(2 (1 - q^2))) is the product to far below 10^-65
    ctx = QContext.numeric("0.99999999999", precision=50)
    with ctx.workdps():
        x = mp.mpf("1e-60")
        got = infinite_product([x], [], ctx.q, ctx)
    with mp.workdps(100):
        q = ctx.q
        want = mp.exp(-x / (1 - q) - x ** 2 / (2 * (1 - q ** 2)))
        assert 1 - want > mp.mpf(10) ** -50
        assert abs(got - want) < mp.mpf(10) ** -65


def test_infinite_product_budget_names_the_factors_needed():
    ctx = QContext.numeric("0.99", precision=50)
    with pytest.raises(NonConvergenceError,
                       match=f"needs 13747 factors, over the budget of {MAX_TERMS}"):
        pochhammer_infinite(QPow(1, 1), ctx.q, ctx)


def test_a_wider_rerun_walks_every_product_its_first_pass_walked():
    # (q;q)_inf at q = 0.99, precision 20, walks to the stop tolerance 1e-30
    # within 6873 factors.  200 bits wider, the stop tolerance lies 200 bits
    # lower, where the walk would take 20,666 factors, but the budget counts
    # at the first pass's tolerance, so the rerun walks the product too
    ctx = QContext.numeric("0.99", precision=20)
    first = pochhammer_infinite(QPow(1, 1), ctx.q, ctx)
    wide = ctx.wider(200)
    got = pochhammer_infinite(QPow(1, 1), ctx.q, wide)
    with mp.workdps(wide.working_dps + 10):
        want = mp.qp(ctx.q, ctx.q)
        assert abs(got - want) < mp.mpf(10) ** -60 * want
        assert abs(first - want) < mp.mpf(10) ** -30 * want


@pytest.mark.parametrize("q", ["0.98", "-0.98"])
def test_infinite_product_near_the_budget_matches_mpmath_qp(q):
    # at precision 50, |q| = 0.98 is the largest two-digit |q| whose
    # factors fit the term budget
    ctx = QContext.numeric(q, precision=50)
    a, b = mp.mpf("0.7"), mp.mpf("-0.4")
    with ctx.workdps():
        got = infinite_product([a, QPow(1, 1)], [b], ctx.q, ctx)
    with mp.workdps(80):
        qv = mp.mpf(q)
        want = mp.qp(a, qv) * mp.qp(qv, qv) / mp.qp(b, qv)
        assert abs(got - want) <= mp.mpf(10) ** -50 * abs(want)


ORACLE_QS = ["0.05", "0.3", "0.5", "-0.6", "0.9", "0.98", "-0.98",
             "0.2+0.1j", "0.5j", "-0.4+0.6j"]
ORACLE_FACTORS = ["0.5", "0.99", "-0.97", "0.3+0.8j", "7.5", "1e-60"]
# 1 - q^-30 q^30 = 0: the 31st factor of (q^-30;q)_inf vanishes exactly
VANISHING = QPow(1, -30)


def product_oracle(c, q, dps):
    """(c;q)_inf at ``dps`` digits: mpmath's qp, or a direct walk where qp
    does not converge."""
    with mp.workdps(dps):
        try:
            return mp.qp(c, q)
        except mp.NoConvergence:
            value, power = mp.mpf(1), c
            while abs(power) > mp.mpf(10) ** -(dps + 5):
                value, power = value * (1 - power), power * q
            return value


@pytest.mark.parametrize("q", ORACLE_QS)
def test_infinite_product_matches_oracles_at_twice_the_digits(q):
    # each factor alone and all six in one quotient, which shares one log
    # series; relative error within 10^-(precision + 13)
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        cs = [mp.mpmathify(c) for c in ORACLE_FACTORS]
        alone = [infinite_product([c], [], ctx.q, ctx) for c in cs]
        quotient = infinite_product(cs[::2], cs[1::2], ctx.q, ctx)
    with mp.workdps(100):
        want = [product_oracle(c, ctx.q, 100) for c in cs]
        for c, got, w in zip(ORACLE_FACTORS, alone, want):
            assert abs(got - w) <= mp.mpf(10) ** -63 * abs(w), (q, c)
        w = mp.fprod(want[::2]) / mp.fprod(want[1::2])
        assert abs(quotient - w) <= mp.mpf(10) ** -63 * abs(w), q


@pytest.mark.parametrize("q", ["0.05", "0.98", "0.2+0.1j"])
def test_factors_vanishing_past_the_walk_threshold_are_a_zero_or_a_pole(q):
    # the factor 1 - q^0 of (q^-30;q)_inf is the 31st: the walk reaches it
    # however far the threshold 2^-b lies from |c| = 1
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        others = [mp.mpf("0.5"), mp.mpc("0.3", "0.8")]
        assert infinite_product(others + [VANISHING], [mp.mpf("7.5")], ctx.q, ctx) == 0
        with pytest.raises(PoleError, match=r"1 - 1\.0 q\^\(0\) of the infinite product"):
            infinite_product(others, [mp.mpf("7.5"), VANISHING], ctx.q, ctx)


def test_infinite_product_takes_a_few_dozen_steps_per_factor(monkeypatch):
    # at q = 0.3, precision 50, a walk to the stop tolerance takes about 115
    # steps per factor; the walk to 2^-b and the log series take about 20
    import qrr.pochhammer as pochhammer

    steps, terms = [], []
    one_minus, log_terms = pochhammer.one_minus, pochhammer._log_terms

    def counted_one_minus(*args):
        steps.append(1)
        return one_minus(*args)

    def counted_log_terms(*args):
        k, bound = log_terms(*args)
        terms.append(k)
        return k, bound

    monkeypatch.setattr(pochhammer, "one_minus", counted_one_minus)
    monkeypatch.setattr(pochhammer, "_log_terms", counted_log_terms)
    with CTX.workdps():
        factors = [mp.mpmathify(c) for c in ORACLE_FACTORS] + [QPow(1, 1)]
        infinite_product(factors[:4], factors[4:], CTX.q, CTX)
    # 66 walk steps over the 7 factors (1e-60 takes none) and 11 log terms
    assert len(terms) == 1 and terms[0] <= 20
    assert len(steps) + terms[0] * len(factors) <= 40 * len(factors)


def test_splitting_identity_numeric():
    # (a;q)_inf = (a;q)_n * (a q^n; q)_inf for several n
    ctx = QContext.numeric("0.4", precision=40)
    q = ctx.q
    with ctx.workdps():
        a = mp.mpf("0.7")
        full = pochhammer_infinite(a, q, ctx)
        for n in (1, 3, 8, 20):
            left = pochhammer_finite(a, q, n)
            rest = pochhammer_infinite(QPow(a, n), q, ctx)
            assert abs(full - left * rest) < mp.mpf(10) ** -38


def test_ratio_handles_vanishing_numerator():
    q = mp.mpf("0.3")
    # b = q: (b q^{-k};q)_k contains 1 - q^0 = 0, so the ratio dies exactly
    assert pochhammer_ratio(mp.mpf("0.6"), QPow(1, 1), q, -3) == 0
    with pytest.raises(PoleError):
        pochhammer_ratio(QPow(1, 1), mp.mpf("0.6"), q, -3)


def test_infinite_product_outside_the_unit_disk_is_a_domain_error():
    # PoleError is kept for a vanishing denominator factor
    with CTX.workdps(), pytest.raises(DomainError, match=r"needs \|q\| < 1"):
        infinite_product([mp.mpf("0.5")], [], mp.mpf("1.5"), CTX)


def test_q_binomial_polynomials():
    assert q_binomial(2, 1) == QPoly([1, 1])
    assert q_binomial(5, 0) == QPoly([1])
    assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
    assert q_binomial(3, 5) == QPoly.zero()
    assert q_binomial(4, 2)(Fraction(1, 2)) == Fraction(35, 16)  # 1+1/2+2/4+1/8+1/16


def test_divexact_one_minus_inverts_times_one_minus():
    p = QPoly([3, Fraction(-1, 2), 0, 7, Fraction(5, 3)])
    for e in (1, 2, 4, 9):
        assert p.times_one_minus(e).divexact_one_minus(e) == p
    assert QPoly.zero().divexact_one_minus(3) == QPoly.zero()
    assert QPoly([1, 0, 0, -1]).divexact_one_minus(3) == QPoly.one()


def test_divexact_one_minus_raises_unless_divisible():
    with pytest.raises(DomainError, match="not divisible"):
        QPoly([1, 1]).divexact_one_minus(1)            # 1 + q
    with pytest.raises(DomainError, match="not divisible"):
        QPoly([1, 2, 0, -2]).divexact_one_minus(2)     # (1 - q^2)(1 + 2q) + q^2
    with pytest.raises(DomainError):
        QPoly([1, 0, -1]).divexact_one_minus(0)        # e = 0
    with pytest.raises(DomainError, match="not divisible"):
        QPoly([1, 0, 1]).divexact_one_minus(3)         # shorter than e


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_q_binomial_symmetry_degree_positivity(n, k):
    p = q_binomial(n, k)
    assert p == q_binomial(n, n - k)
    if 0 <= k <= n:
        assert len(p.coeffs()) - 1 == k * (n - k)
        assert all(c > 0 for c in p.coeffs() if c != 0)
        assert all(isinstance(c, int) or c.denominator == 1 for c in p.coeffs())


def test_q_binomial_pascal_recurrence():
    for n in range(1, 10):
        for k in range(0, n + 1):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k) + q_binomial(n - 1, k - 1).shift(n - k)
            assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6),
       st.fractions(min_value="1/10", max_value="9/5"),
       st.fractions(min_value="1/10", max_value="9/5"))
def test_ratio_matches_quotient_of_factorials(n, a, b):
    q = Fraction(1, 3)
    # keep both extended factorials finite (no pole in either tail)
    for j in range(1, abs(n) + 1):
        if a * q ** -j == 1 or b * q ** -j == 1:
            return
    lhs = pochhammer_ratio(a, b, q, n)
    rhs = pochhammer_finite(a, q, n) / pochhammer_finite(b, q, n)
    assert lhs == rhs
