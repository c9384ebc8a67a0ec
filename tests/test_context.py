"""Context construction, exact powers, and deviation scaling."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from qrr import DomainError, ExponentError, QContext, powq, scaled_deviation


def test_numeric_context_rejects_big_base():
    with pytest.raises(DomainError):
        QContext.numeric("1.2")
    with pytest.raises(DomainError):
        QContext.numeric(complex(0.8, 0.7))  # |q| > 1


def test_formal_context_validation():
    with pytest.raises(DomainError):
        QContext.formal(order=0)
    with pytest.raises(DomainError):
        QContext.formal(order=10, base_exponent=0)
    ctx = QContext.formal()
    assert ctx.base_exponent == 12 and ctx.order == 100
    assert ctx.u_order == 1200


def test_working_precision_carries_guard():
    ctx = QContext.numeric("0.3", precision=50)
    assert ctx.working_dps == 65
    with ctx.workdps():
        assert mp.mp.dps == 65


def test_tolerances_made_once_at_working_precision():
    ctx = QContext.numeric("0.3", precision=50)
    with mp.workdps(15):  # read outside the working precision
        stop, target = ctx.stop_tol, ctx.target_tol
    with ctx.workdps():
        assert stop._mpf_ == (mp.mpf(10) ** -60)._mpf_
        assert target._mpf_ == (mp.mpf(10) ** -50)._mpf_
    assert ctx.stop_tol is stop and ctx.target_tol is target
    assert ctx.stop_log2 == pytest.approx(-60 * math.log2(10), rel=1e-15)


def test_powq_exact_integer_exponents():
    assert powq(Fraction(2, 3), 3) == Fraction(8, 27)
    assert powq(Fraction(2, 3), -2) == Fraction(9, 4)
    assert powq(Fraction(2, 3), Fraction(4, 2)) == Fraction(4, 9)


def test_powq_exact_roots():
    # a fractional power of a Fraction is not taken, not even a square root
    # that exists; exact work passes its roots explicitly
    with pytest.raises(ExponentError):
        powq(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ExponentError):
        powq(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ExponentError):
        powq(Fraction(-1, 4), Fraction(1, 2))


def test_powq_numeric_fractional():
    with mp.workdps(40):
        v = powq(mp.mpf("0.3"), Fraction(1, 2))
        assert abs(v - mp.sqrt(mp.mpf("0.3"))) < mp.mpf(10) ** -38


def test_scaled_deviation():
    assert scaled_deviation(1, 1) == 0
    with mp.workdps(30):
        # large values: relative; small values: absolute
        big = scaled_deviation(mp.mpf("1e30"), mp.mpf("1e30") + mp.mpf("1e10"))
        assert abs(big - mp.mpf("1e-20")) < mp.mpf("1e-25")
        assert scaled_deviation(mp.mpf("0.25"), mp.mpf("0.5")) == mp.mpf("0.25")
