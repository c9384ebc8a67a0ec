"""Exact truncated-series ring: arithmetic laws, inversion, products."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import (ExponentError, FormalSeries, NotUnitError, QContext,
                 SeriesMismatchError, ValuationError, fs_pochhammer_infinite)
from qrr.formal import fs_pochhammer, fs_ratio_sum, qexp_to_u
from qrr.qfunctions import (a_alpha_formal, omega_formal, ramanujan_A_formal,
                            rr_product_formal, rr_sum_formal)
from qrr.qpolynomials import gfhn0_diff_formal

CTX = QContext.formal(order=12, base_exponent=1)


def pentagonal_coefficients(order):
    """Euler's pentagonal coefficients of (q;q)_inf, by direct enumeration."""
    c = [0] * (order + 1)
    c[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order and e2 > order:
            break
        s = 1 if k % 2 == 0 else -1
        if e1 <= order:
            c[e1] += s
        if e2 <= order:
            c[e2] += s
        k += 1
    return c


small_series = st.lists(st.integers(-6, 6), min_size=1, max_size=13).map(
    lambda cs: FormalSeries(1, 12, cs))


def test_q_power_monomials():
    ctx = QContext.formal(order=10, base_exponent=12)
    assert qexp_to_u(1, ctx) == 12
    assert qexp_to_u(Fraction(1, 2), ctx) == 6
    with pytest.raises(ExponentError):
        qexp_to_u(Fraction(1, 5), ctx)
    with pytest.raises(ExponentError):
        qexp_to_u(Fraction(-1, 2), ctx)


def test_product_difference_of_squares():
    ctx = QContext.formal(order=2, base_exponent=1)
    one_plus = FormalSeries(1, 2, [1, 1])
    one_minus = FormalSeries(1, 2, [1, -1])
    assert (one_plus * one_minus) == FormalSeries(1, 2, [1, 0, -1])


def test_subtraction_gives_zero():
    s = FormalSeries(1, 12, [3, 1, 4, 1, 5])
    assert (s - s).is_zero()


def test_geometric_inverse_telescopes():
    ctx = QContext.formal(order=50, base_exponent=1)
    geo = FormalSeries(1, 50, [1] * 51)
    one_minus = FormalSeries(1, 50, [1, -1])
    assert (geo * one_minus) == FormalSeries.one(ctx)
    assert one_minus.invert() == geo


def test_mismatch_errors():
    with pytest.raises(SeriesMismatchError):
        FormalSeries(1, 10) + FormalSeries(2, 10)
    with pytest.raises(SeriesMismatchError):
        FormalSeries(1, 10) * FormalSeries(1, 11)


def test_invert_requires_unit():
    with pytest.raises(NotUnitError):
        FormalSeries(1, 5, [0, 1]).invert()


@settings(max_examples=30, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(small_series)
def test_invert_round_trip(a):
    if a.c[0] == 0:
        a = a + FormalSeries.one(QContext.formal(order=12, base_exponent=1))
        if a.c[0] == 0:
            return
    one = FormalSeries.one(QContext.formal(order=12, base_exponent=1))
    inv = a.invert()
    assert a * inv == one
    assert inv.invert() == a.scale(Fraction(1))


def test_euler_product_matches_pentagonal_oracle():
    ctx = QContext.formal(order=200, base_exponent=1)
    prod = fs_pochhammer_infinite(1, 1, 1, ctx)
    assert [prod.coeff_q(k) for k in range(201)] == pentagonal_coefficients(200)


def test_first_factor_only_below_base():
    # (u; q = u^D)_inf truncated below D keeps only the first factor 1 - u
    ctx = QContext.formal(order=1, base_exponent=5)
    s = fs_pochhammer_infinite(1, Fraction(1, 5), 1, ctx)   # factors 1 - u^(1+5k)
    assert s.coeff_u(0) == 1 and s.coeff_u(1) == -1
    assert all(s.coeff_u(k) == 0 for k in range(2, min(5, ctx.u_order + 1)))


def test_infinite_product_requires_positive_step():
    ctx = QContext.formal(order=10, base_exponent=1)
    with pytest.raises(ValuationError):
        fs_pochhammer_infinite(1, 1, 0, ctx)


def test_formal_sum_requires_growing_exponents():
    # alpha = 0 with t = q^0: every term sits at q^0, so no order ends the sum
    ctx = QContext.formal(order=10, base_exponent=1)
    with pytest.raises(ValuationError):
        a_alpha_formal(0, None, (1, 0), ctx)


def test_numeric_evaluation_matches_mpmath():
    ctx = QContext.formal(order=120, base_exponent=1)
    prod = fs_pochhammer_infinite(1, 1, 1, ctx)
    for qs in ("0.1", "0.25"):
        val = prod.eval_at(mp.mpf(qs), dps=80)
        with mp.workdps(100):
            ref = mp.qp(mp.mpf(qs))
            # error budget: truncation tail past q^120 plus evaluation roundoff
            assert abs(val - ref) < mp.mpf(qs) ** 115 + mp.mpf(10) ** -85


def test_first_difference_reporting():
    a = FormalSeries(1, 10, [1, 2, 3])
    b = FormalSeries(1, 10, [1, 2, 4])
    assert a.first_difference(b) == 2
    assert a.first_difference(a) is None


def test_inverse_infinite_product_at_exponent_zero():
    # the factor 1 - c at q^0 is a unit: the reciprocal product divides by it
    ctx = QContext.formal(order=10, base_exponent=1)
    c = Fraction(1, 3)
    forward = fs_pochhammer_infinite(c, 0, 1, ctx)
    inverse = fs_pochhammer_infinite(c, 0, 1, ctx, inverse=True)
    assert forward * inverse == FormalSeries.one(ctx)
    with pytest.raises(NotUnitError):
        fs_pochhammer_infinite(1, 0, 1, ctx, inverse=True)


# -- direct-definition oracle for the term-ratio builders --------------------
#
# Term n is its monomial times dense products of the binomials 1 - a q^e,
# divided through FormalSeries.invert: no factor walk, no term ratio.

def _u(r, ctx):
    e = Fraction(r) * ctx.base_exponent
    if e.denominator != 1 or e < 0:
        raise ExponentError(f"q^{r} is not in the ring")
    return int(e)


def _poch(ctx, a, alpha, step, n=None):
    """(a q^alpha; q^step)_n as a dense product; n None: every factor in range."""
    s, k = FormalSeries.one(ctx), 0
    while (n is None or k < n) and _u(alpha + k * step, ctx) <= ctx.u_order:
        f = FormalSeries.one(ctx)
        f.c[_u(alpha + k * step, ctx)] -= a
        s, k = s * f, k + 1
    return s


def _direct_sum(ctx, c, E, num=(), den=()):
    """sum_n c^n q^{E(n)} prod (a q^alpha; q^step)_n / prod (b q^beta; q^step)_n
    over the (a, alpha, step) of ``num`` and ``den``, up to the first E(n)
    past the ring order."""
    acc, n = FormalSeries.zero(ctx), 0
    while _u(E(n), ctx) <= ctx.u_order:
        t = FormalSeries.monomial(ctx, c ** n, _u(E(n), ctx))
        for a, alpha, step in num:
            t = t * _poch(ctx, a, alpha, step, n)
        for b, beta, step in den:
            t = t * _poch(ctx, b, beta, step, n).invert()
        acc, n = acc + t, n + 1
    return acc


def _builder_cases():
    qq = (1, 1, 1)  # (q;q)_n
    half = Fraction(1, 2)
    cases = []
    for m in (0, 1, 3):
        cases.append((f"rr_sum-{m}", lambda ctx, m=m: rr_sum_formal(m, ctx),
                      lambda ctx, m=m: _direct_sum(ctx, 1, lambda n: n * n + m * n,
                                                   den=[qq])))
    for which in (1, 2):
        cases.append((f"rr_product-{which}",
                      lambda ctx, w=which: rr_product_formal(w, ctx),
                      lambda ctx, w=which: (_poch(ctx, 1, w, 5)
                                            * _poch(ctx, 1, 5 - w, 5)).invert()))
    for z in (-1, 0, Fraction(3, 2), Fraction(-2, 3)):
        for ze in (0, 1, -1):
            cases.append((f"ramanujan_A-{z}-{ze}",
                          lambda ctx, z=z, ze=ze: ramanujan_A_formal(z, ze, ctx),
                          lambda ctx, z=z, ze=ze: _direct_sum(
                              ctx, -z, lambda n: n * n + ze * n, den=[qq])))
    # sum q^{s n^2} (v q^ve)^n: omega_formal at s = 1, and at s = 2 the
    # same term-ratio sum (ratio v q^{s + ve + 2 s n}) built directly
    for v in (Fraction(-3, 4), 0, 2):
        for ve, scale in ((0, 1), (1, 1), (half, 2)):
            cases.append((f"omega-{v}-{ve}-{scale}",
                          (lambda ctx, v=v, ve=ve: omega_formal(v, ve, ctx)) if scale == 1
                          else lambda ctx, v=v, ve=ve, s=scale: fs_ratio_sum(
                              ctx, v, s + ve, 2 * s),
                          lambda ctx, v=v, ve=ve, s=scale: _direct_sum(
                              ctx, v, lambda n: s * n * n + ve * n)))
    for alpha in (half, 1, 2):
        for a in (None, (Fraction(-2, 3), 0), (1, 0), (0, 1), (Fraction(3, 5), 1),
                  (-1, 1)):
            for t in ((Fraction(2, 3), 0), (-1, 1), (0, 0)):
                a_id = f"{a[0]}q^{a[1]}" if a else "0"
                cases.append((f"a_alpha-{alpha}-a={a_id}-t={t[0]}q^{t[1]}",
                              lambda ctx, al=alpha, a=a, t=t: a_alpha_formal(al, a, t, ctx),
                              lambda ctx, al=alpha, a=a, t=t: _direct_sum(
                                  ctx, t[0], lambda n: al * n * n + t[1] * n,
                                  num=[(a[0], a[1], 1)] if a else [], den=[qq])))
    for b in (Fraction(2, 3), Fraction(-7, 24), 0):
        cases.append((f"gfhn0-{b}", lambda ctx, b=b: gfhn0_diff_formal(b, ctx),
                      lambda ctx, b=b: _direct_sum(ctx, b * b, lambda n: 2 * n * n,
                                                   den=[(1, 2, 2)])
                      - _poch(ctx, b, half, 1) * _direct_sum(
                          ctx, b, lambda n: Fraction(n * n, 2),
                          den=[qq, (b, half, 1)])))
    for c in (Fraction(1, 3), -2, 0):
        for e0 in (0, 1):
            for inverse in (False, True):
                cases.append((f"pochhammer_infinite-{c}-{e0}-{inverse}",
                              lambda ctx, c=c, e0=e0, i=inverse:
                                  fs_pochhammer_infinite(c, e0, half, ctx, inverse=i),
                              lambda ctx, c=c, e0=e0, i=inverse:
                                  _poch(ctx, c, e0, half).invert() if i
                                  else _poch(ctx, c, e0, half)))
                cases.append((f"pochhammer_finite-{c}-{e0}-{inverse}",
                              lambda ctx, c=c, e0=e0, i=inverse: fs_pochhammer(
                                  _poch(ctx, -1, 1, 1), c, e0, 1, ctx, 4, inverse=i),
                              lambda ctx, c=c, e0=e0, i=inverse: _poch(ctx, -1, 1, 1) * (
                                  _poch(ctx, c, e0, 1, 4).invert() if i
                                  else _poch(ctx, c, e0, 1, 4))))
    return cases


BUILDER_CASES = _builder_cases()


def _outcome(build, ctx):
    try:
        return build(ctx).c
    except (ExponentError, NotUnitError) as exc:
        return type(exc)


@pytest.mark.parametrize("D", (1, 2, 4, 12))
@pytest.mark.parametrize("case", BUILDER_CASES, ids=[c[0] for c in BUILDER_CASES])
def test_builder_matches_direct_definition(case, D):
    _, build, oracle = case
    ctx = QContext.formal(order=40 // D + 1, base_exponent=D)
    assert _outcome(build, ctx) == _outcome(oracle, ctx)


# -- the integer walk against the dense oracle at rational coefficients -----
#
# _one_minus carries integer numerators over one denominator; these cases
# put coefficients with denominators > 1, of both signs, through each of its
# branches (multiply, divide, the e = 0 unit of either sign), at a step that
# puts a factor at every u-exponent and at a sparse one.

RATIONALS = (Fraction(-3, 11), Fraction(5, 97), Fraction(1, 7))


def _start(ctx):
    """A polynomial with fractional coefficients of both signs."""
    return _poch(ctx, Fraction(-2, 3), 1, 1, 3)


def _walk_cases(D):
    cases = []
    for step in (Fraction(1, D), 2):
        for c in RATIONALS + (Fraction(13, 10),):
            for e0 in (0, 1):
                for inverse in (False, True):
                    tag = f"{c}-q^{e0}-step{step}-{'inv' if inverse else 'mul'}"
                    cases.append((f"finite-{tag}",
                                  lambda ctx, c=c, e0=e0, s=step, i=inverse: fs_pochhammer(
                                      _start(ctx), c, e0, s, ctx, 5, inverse=i),
                                  lambda ctx, c=c, e0=e0, s=step, i=inverse: _start(ctx) * (
                                      _poch(ctx, c, e0, s, 5).invert() if i
                                      else _poch(ctx, c, e0, s, 5))))
                    cases.append((f"infinite-{tag}",
                                  lambda ctx, c=c, e0=e0, s=step, i=inverse:
                                      fs_pochhammer_infinite(c, e0, s, ctx, inverse=i),
                                  lambda ctx, c=c, e0=e0, s=step, i=inverse:
                                      _poch(ctx, c, e0, s).invert() if i
                                      else _poch(ctx, c, e0, s)))
        for c, b in zip(RATIONALS, RATIONALS[1:] + (Fraction(13, 10),)):
            # t_n = c^n q^{step (n + binom(n, 2))} (b; q^step)_n
            #       / ((c q^step; q^step)_n (b q^{2 step}; q^step)_n)
            cases.append((f"ratio_sum-{c}-{b}-step{step}",
                          lambda ctx, c=c, b=b, s=step: fs_ratio_sum(
                              ctx, c, s, s, num=[(b, 0)],
                              den=[(c, s), (b, 2 * s)], base=s),
                          lambda ctx, c=c, b=b, s=step: _direct_sum(
                              ctx, c, lambda n: s * (n + n * (n - 1) // 2),
                              num=[(b, 0, s)], den=[(c, s, s), (b, 2 * s, s)])))
    return cases


@pytest.mark.parametrize("D", (1, 12))
def test_integer_walk_matches_dense_oracle(D):
    ctx = QContext.formal(order=48 // D, base_exponent=D)
    for name, build, oracle in _walk_cases(D):
        assert _outcome(build, ctx) == _outcome(oracle, ctx), name


def test_integer_walk_returns_reduced_exact_coefficients():
    ctx = QContext.formal(order=12, base_exponent=1)
    s = fs_pochhammer_infinite(Fraction(-3, 11), 1, 1, ctx, inverse=True)
    assert s.c[1] == Fraction(-3, 11) and s.c[1].denominator == 11
    assert all(type(a) is int or math.gcd(a.numerator, a.denominator) == 1 for a in s.c)


def test_vanishing_rational_unit_has_no_inverse():
    ctx = QContext.formal(order=12, base_exponent=1)
    with pytest.raises(NotUnitError):
        fs_pochhammer(_start(ctx), Fraction(7, 7), 0, 1, ctx, 3, inverse=True)
    with pytest.raises(NotUnitError):
        fs_ratio_sum(ctx, Fraction(1, 7), 1, 1, den=[(Fraction(1), 0)])
