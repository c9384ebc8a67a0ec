"""Context construction, exact powers, deviation scaling and kept values."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from qrr import (DomainError, ExponentError, NonConvergenceError, PoleError, QContext,
                 QPow, pochhammer, powq, qbessel, qfunctions, qpolynomials,
                 scaled_deviation)
from qrr.context import keeping_values
from qrr.pochhammer import infinite_product
from qrr.qfunctions import u_m_bilateral


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


@pytest.mark.parametrize("bits", [1, 46, 200])
def test_a_wider_context_stops_deeper_by_the_added_bits(bits):
    """wider(b) lowers every stop level by exactly b bits: a rerun sums
    deeper as well as wider, and asks the same digits of each sum."""
    ctx = QContext.numeric("0.3", precision=50)
    wide = ctx.wider(bits)
    assert wide.tail_log2 == ctx.tail_log2 - bits
    assert wide.stop_log2 == ctx.stop_log2 - bits
    assert wide.stop_tol == mp.ldexp(ctx.stop_tol, -bits)
    assert (wide.precision, wide.target_tol) == (ctx.precision, ctx.target_tol)
    assert wide.fixed_bits == ctx.fixed_bits + bits
    assert wide.wider(bits).tail_log2 == ctx.tail_log2 - 2 * bits


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


# The kept kernels that return a number, each at one point, with a module
# function its body calls on every walk: (call, module, name of that function).
KERNELS = {
    "infinite_product": (
        lambda ctx: infinite_product([QPow(1, Fraction(3, 2))], [ctx.q], ctx.q, ctx),
        pochhammer, "one_minus"),
    "_bessel": (lambda ctx: qbessel._bessel(2, Fraction(1, 2), mp.mpf("0.7"), 1, ctx),
                qbessel, "_bessel_series"),
    "u_m_bilateral": (lambda ctx: u_m_bilateral(Fraction(1, 2), 1, ctx),
                      qfunctions, "_series"),
    "hermite_gf_series": (
        lambda ctx: qpolynomials.hermite_gf_series(mp.mpf("0.15"), mp.mpf("0.5"), ctx),
        qpolynomials, "_sw_shifted"),
}


def exact(x):
    return type(x), x._mpc_ if isinstance(x, mp.mpc) else x._mpf_


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ["0.3", "-0.3", complex(0.3, 0.2)])
def test_kept_values_are_the_computed_ones(q, precision):
    ctx = QContext.numeric(q, precision)
    contexts = (ctx, ctx.wider(64))

    def values():
        return [exact(call(c)) for call, _, _ in KERNELS.values() for c in contexts]

    fresh = values()
    with keeping_values():
        assert values() == fresh    # computed, narrow before wide
        assert values() == fresh    # read back


@pytest.mark.parametrize("name", KERNELS)
def test_a_repeat_walks_once_inside_a_scope_only(name, monkeypatch):
    call, module, walk = KERNELS[name]
    walks, real = [], getattr(module, walk)

    def spy(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(module, walk, spy)
    ctx = QContext.numeric("0.3", 20)
    call(ctx)
    once = len(walks)
    assert once
    call(ctx)
    assert len(walks) == 2 * once     # outside a scope every call walks
    with keeping_values():
        call(ctx)
        call(ctx)
        assert len(walks) == 3 * once
    call(ctx)
    assert len(walks) == 4 * once     # nothing is kept after the block


def test_mpf_and_equal_mpc_coefficients_are_kept_apart():
    ctx = QContext.numeric("0.3", 20)
    with keeping_values():
        real = infinite_product([mp.mpf("0.4")], [], ctx.q, ctx)
        cplx = infinite_product([mp.mpc("0.4", 0)], [], ctx.q, ctx)
    assert type(real) is mp.mpf and type(cplx) is mp.mpc
    assert cplx.real == real and cplx.imag == 0


@pytest.mark.parametrize("q, dens, error", [
    ("0.3", [QPow(1, 0)], PoleError),                        # 1 - q^0 vanishes
    ("0.999", [Fraction(1, 2)], NonConvergenceError),      # over the budget
])
def test_errors_are_raised_again_on_every_call(q, dens, error, monkeypatch):
    walks, real = [], pochhammer.to_mp

    def spy(x):
        walks.append(x)
        return real(x)

    monkeypatch.setattr(pochhammer, "to_mp", spy)
    ctx = QContext.numeric(q, 20)
    with keeping_values():
        with pytest.raises(error):
            infinite_product([], dens, ctx.q, ctx)
        once = len(walks)
        with pytest.raises(error):
            infinite_product([], dens, ctx.q, ctx)
    assert once and len(walks) == 2 * once
