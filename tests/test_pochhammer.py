"""Shifted-factorial and q-binomial behavior, checked against independent
product oracles."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import (NonConvergenceError, PoleError, QContext, QPow, QPoly, infinite_product,
                 inv_pochhammer, pochhammer_finite, pochhammer_infinite, pochhammer_ratio,
                 q_binomial)
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
    # (1;q)_n = 0 for n >= 1: its reciprocal is undefined
    with pytest.raises(PoleError):
        inv_pochhammer(Fraction(1), Fraction(1, 3), 2)


def test_q_binomial_out_of_range_numeric_zero():
    assert q_binomial(3, 5)(Fraction(1, 2)) == 0
    assert q_binomial(-1, 0)(Fraction(1, 2)) == 0


def test_reciprocal_of_gap_factorial_is_exact_zero():
    # 1/(q;q)_{-k} = 0: the structured form detects 1 - q^0 exactly
    q = mp.mpf("0.3")
    assert inv_pochhammer(QPow(1, 1), q, -1) == 0
    assert inv_pochhammer(QPow(1, 1), q, -4) == 0
    # plain-number path at binary-exact q = 0.5 also cancels exactly
    assert inv_pochhammer(mp.mpf("0.5"), mp.mpf("0.5"), -1) == 0


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


def test_infinite_product_above_its_relative_tail_bound_raises():
    # a factor of 1e-60 stops at once, but at q = 1 - 1e-11 its tail
    # sum_j |c q^j| is about 1e-49, above 10^-50 of the product
    ctx = QContext.numeric("0.99999999999", precision=50)
    with ctx.workdps():
        with pytest.raises(NonConvergenceError, match="relative tail bound 1.0e-49"):
            infinite_product([mp.mpf("1e-60")], [], ctx.q, ctx)


def test_infinite_product_budget_names_the_factors_needed():
    ctx = QContext.numeric("0.99", precision=50)
    with pytest.raises(NonConvergenceError,
                       match=f"needs 13747 factors, over the budget of {MAX_TERMS}"):
        pochhammer_infinite(QPow(1, 1), ctx.q, ctx)


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


def test_q_binomial_polynomials():
    assert q_binomial(2, 1) == QPoly([1, 1])
    assert q_binomial(5, 0) == QPoly([1])
    assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
    assert q_binomial(3, 5) == QPoly.zero()
    assert q_binomial(4, 2)(Fraction(1, 2)) == Fraction(35, 16)  # 1+1/2+2/4+1/8+1/16


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_q_binomial_symmetry_degree_positivity(n, k):
    p = q_binomial(n, k)
    assert p == q_binomial(n, n - k)
    if 0 <= k <= n:
        assert p.degree() == k * (n - k)
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
