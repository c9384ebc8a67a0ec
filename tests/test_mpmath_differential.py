"""Differential property tests against mpmath's own q-functions.

``mp.qp`` and ``mp.qhyper`` are implemented independently of qrr, so they
check the Pochhammer products and the term-ratio hypergeometric kernels from
outside.  Inputs are drawn as short decimal strings and read as mpf at the
working precision, so both sides see exactly the same numbers.  mpmath's
1phi1 already carries the (-1)^k q^{k(k-1)/2} convention factor.
"""

import mpmath as mp
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import QContext, pochhammer_finite, pochhammer_infinite
from qrr.qfunctions import phi_1_1, phi_2_1

TOL = mp.mpf(10) ** -58


def decimals(lo, hi):
    """mpf strings k/100 for lo <= k <= hi, excluding 0."""
    return st.integers(lo, hi).filter(bool).map(lambda k: f"{k / 100:.2f}")


real_q = decimals(5, 60)
complex_q = st.tuples(decimals(5, 45), decimals(-35, 35))
any_q = st.one_of(real_q, complex_q)
param = st.one_of(decimals(-90, 90), st.tuples(decimals(-60, 60), decimals(-60, 60)))


def num(x):
    return mp.mpc(*x) if isinstance(x, tuple) else mp.mpf(x)


def agree(ours, theirs):
    return abs(ours - theirs) <= TOL * max(1, abs(theirs))


@settings(max_examples=40, deadline=None)
@given(any_q, param, st.integers(0, 30))
def test_finite_pochhammer_against_mpmath_qp(q, a, n):
    ctx = QContext.numeric(num(q), precision=50)
    with ctx.workdps():
        av = num(a)
        assert agree(pochhammer_finite(av, ctx.q, n), mp.qp(av, ctx.q, n))


@settings(max_examples=40, deadline=None)
@given(any_q, param)
def test_infinite_pochhammer_against_mpmath_qp(q, a):
    ctx = QContext.numeric(num(q), precision=50)
    with ctx.workdps():
        av = num(a)
        out = pochhammer_infinite(av, ctx.q, ctx)
        assert agree(out, mp.qp(av, ctx.q))


@settings(max_examples=30, deadline=None)
@given(any_q, param, param, param, st.one_of(decimals(-80, 80), st.tuples(decimals(-50, 50),
                                                                          decimals(-50, 50))))
def test_phi21_against_mpmath_qhyper(q, a, b, c, z):
    ctx = QContext.numeric(num(q), precision=50)
    with ctx.workdps():
        av, bv, cv, zv = num(a), num(b), num(c), num(z)
        ours = phi_2_1(av, bv, cv, zv, ctx)
        assert agree(ours, mp.qhyper([av, bv], [cv], ctx.q, zv))


@settings(max_examples=30, deadline=None)
@given(any_q, param, param, param)
def test_phi11_against_mpmath_qhyper(q, a, b, z):
    ctx = QContext.numeric(num(q), precision=50)
    with ctx.workdps():
        av, bv, zv = num(a), num(b), num(z)
        ours = phi_1_1(av, bv, zv, ctx)
        assert agree(ours, mp.qhyper([av], [bv], ctx.q, zv))
