"""Fixed-point arithmetic, the engine's guard-bit check, and the fixed-point
kernels against direct mpf oracles at higher precision."""

import math
import random
from operator import mul

import mpmath as mp
import pytest

from fractions import Fraction as F

from qrr import (PrecisionLossError, QContext, QPow, infinite_product,
                 pochhammer_infinite, qfunctions, sum_series)
from qrr.context import powq, widening
from qrr.fixedpoint import LOG2_10, Fixed, rounding_bits
from qrr.qfunctions import (a_alpha, b_alpha, phi_1_1, phi_2_1, psi_1_1, ramanujan_A,
                            rho_root, u_m_bilateral)
from qrr.qpolynomials import _binomial_powers, _sw_shifted

WP = 240
COMPLEX_Q = complex(0.2, 0.1)


def _random_value(rnd):
    def part():
        return mp.mpf(rnd.uniform(-1, 1)) * mp.mpf(2) ** rnd.randint(-400, 400)
    return mp.mpc(part(), part()) if rnd.random() < 0.4 else part()


@pytest.mark.parametrize("op", ["mul", "add", "sub", "div"])
def test_fixed_ops_match_mpf_to_working_bits(op):
    fn = {"mul": lambda x, y: x * y, "add": lambda x, y: x + y,
          "sub": lambda x, y: x - y, "div": lambda x, y: x / y}[op]
    rnd = random.Random(20261018)
    with mp.workprec(400):
        for _ in range(300):
            x, y = _random_value(rnd), _random_value(rnd)
            got = fn(Fixed.of(x, WP), Fixed.of(y, WP)).to_mp()
            want = fn(x, y)
            assert abs(got - want) <= mp.mpf(2) ** (3 - WP) * abs(want), (x, y)


def test_fixed_exact_values_stay_exact():
    with mp.workprec(300):
        third = Fixed.of(mp.mpf(3), WP)
        assert (1 - Fixed.of(1, WP)) == 0
        assert (third - 3) == 0 and not (third - 3)
        assert (third ** 4).to_mp() == 81
        assert (Fixed.of(mp.mpf("0.5"), WP) ** -3).to_mp() == 8
        assert type(Fixed.of(mp.mpc(1, 2), WP).to_mp()) is mp.mpc
        assert type(Fixed.of(mp.mpf("0.1"), WP).to_mp()) is mp.mpf


def test_rounding_bound_grows_as_stated():
    # 2 R N^3 + N: one more bit roughly every time N grows by 2^(1/3)
    assert rounding_bits(1) < rounding_bits(100) < rounding_bits(4000)
    assert rounding_bits(4000) == (16 * 4000 ** 3 + 4000).bit_length()


# (z;q)_inf = 1phi1(0; 0; q, z) at q = 1/2 and z = 2^20 + 2^-80: the factor
# 1 - z q^20 = -2^-100 leaves the sum about 100 bits below its largest term.
Z_NEAR_ZERO = mp.mpf(2) ** 20 + mp.mpf(2) ** -80


@pytest.mark.parametrize("precision", [20, 50, 100])
def test_cancelling_series_matches_oracle_or_raises(precision, monkeypatch):
    sums = []
    monkeypatch.setattr(qfunctions, "sum_series",
                        lambda *args, **kw: sums.append(1) or sum_series(*args, **kw))
    ctx = QContext.numeric("0.5", precision=precision)
    with ctx.workdps():
        z, q = Z_NEAR_ZERO, ctx.q
        with mp.workdps(precision + 200):
            oracle = mp.qp(z, q)
        # the same terms handed over as mpf values raise as well
        with pytest.raises(PrecisionLossError):
            sum_series(lambda k: (-z) ** k * q ** (k * (k - 1) // 2) / mp.qp(q, q, k), ctx)
        # a kernel called directly raises, naming the bits it lacks
        with pytest.raises(PrecisionLossError, match=r"\d+ more working bits") as info:
            phi_1_1(0, 0, z, ctx)
        assert info.value.bits > 0
    # the helper reruns the call at the width the engine asks for
    sums.clear()
    out = widening(lambda wide: phi_1_1(0, 0, z, wide), ctx)
    assert len(sums) == 2
    with ctx.workdps():
        assert abs(out - oracle) <= mp.mpf(10) ** -precision * abs(oracle)


def test_rerun_widens_by_the_missing_bits_and_stops_at_four_times():
    ctx = QContext.numeric("0.5", precision=20)
    seen = []

    def evaluate(wide, lacking, cancels=0):
        seen.append(wide)
        assert mp.mp.dps == wide.working_dps
        if len(seen) == 1:
            raise PrecisionLossError("short", lacking, cancels)
        return wide.fixed_bits

    assert widening(lambda wide: evaluate(wide, 30), ctx) == ctx.fixed_bits + 30 + 16
    # the width grows and the stop tolerance falls by the added bits, the
    # precision and the target stay, and a context derived from the wider one
    # keeps both
    wide = seen[1]
    assert wide.working_dps == ctx.working_dps + math.ceil(46 / LOG2_10)
    assert (wide.precision, wide.target_tol) == (20, ctx.target_tol)
    assert wide.stop_tol == mp.ldexp(ctx.stop_tol, -46)
    derived, first = wide.at(ctx.q ** 2), ctx.at(ctx.q ** 2)
    assert derived.fixed_bits == first.fixed_bits + 46
    assert derived.tail_log2 == first.tail_log2 - 46
    seen.clear()
    with pytest.raises(PrecisionLossError) as info:
        widening(lambda wide: evaluate(wide, 3 * ctx.fixed_bits + 1), ctx)
    assert info.value.bits == 0 and [c.fixed_bits for c in seen] == [ctx.fixed_bits]
    # bits that a sum names as cancelled a priori raise the cap by as much
    seen.clear()
    lacking = 3 * ctx.fixed_bits + 1
    assert widening(lambda wide: evaluate(wide, lacking, lacking), ctx) == \
        ctx.fixed_bits + lacking + 16
    seen.clear()
    with pytest.raises(PrecisionLossError, match="beyond"):
        widening(lambda wide: evaluate(wide, 2 * lacking, lacking), ctx)


def _direct_b_alpha(a, b, x, q, dps):
    """sum over n of (a;q)_n/(b;q)_n q^{n^2} x^n by running mpf products
    from n = 0 both ways, until 40 terms after the peak fall below 10^-dps
    of it."""
    with mp.workdps(dps):
        total = mp.mpf(1)
        for direction in (1, -1):
            t, n, peak, small = mp.mpf(1), 0, mp.mpf(1), 0
            while small < 40:
                if direction == 1:
                    t *= (1 - a * q ** n) / (1 - b * q ** n) * q ** (2 * n + 1) * x
                    n += 1
                else:
                    n -= 1
                    t *= (1 - b * q ** n) / (1 - a * q ** n) * q ** (-2 * n - 1) / x
                total += t
                peak = max(peak, abs(t))
                small = small + 1 if abs(t) < peak * mp.mpf(10) ** -dps else 0
        return total


@pytest.mark.parametrize("s", [-107, 0, 107])
def test_b_alpha_inner_sums_of_ms12_match_direct_mpf_sum(s):
    # the inner sums of ms-12 at its outermost slices peak near 10^5954
    ctx = QContext.numeric("0.3", precision=50)
    with ctx.workdps():
        a, b = mp.mpf("0.6"), mp.mpf("0.15")
        x = rho_root(ctx) ** 2 * mp.mpf("0.5") * powq(ctx.q, 2 * s)
        value = b_alpha(1, a, b, x, ctx)
        direct = _direct_b_alpha(a, b, x, ctx.q, ctx.working_dps + 20)
        assert abs(value - direct) <= mp.mpf(10) ** -60 * abs(direct)


def _sw_shifted_sum(x, t, q):
    """sum_n q^binom(n,2) t^n S_n(x q^-n), each S_n a direct degree-n sum of
    Gaussian binomials from mp.qp, until a term falls below mp.eps of the sum."""
    poch, total, n = [mp.mpf(1)], 0, 0
    while True:
        y = -x * q ** -n
        s = mp.fsum(poch[n] / (poch[k] * poch[n - k]) * q ** (k * k) * y ** k
                    for k in range(n + 1)) / poch[n]
        term = q ** (n * (n - 1) // 2) * t ** n * s
        total += term
        if n > 5 and abs(term) < mp.eps * abs(total):
            return total
        n += 1
        poch.append(poch[-1] * (1 - q ** n))


def _kernel_oracles():
    a, b, c = mp.mpf("0.6"), mp.mpf("0.06"), mp.mpf("0.45")
    z, zc = mp.mpf("0.3"), mp.mpc("0.3", "0.4")
    return {
        "phi_2_1": (lambda ctx: phi_2_1(a, b, c, z, ctx),
                    lambda q: mp.qhyper([a, b], [c], q, z)),
        "phi_1_1": (lambda ctx: phi_1_1(a, b, zc, ctx),
                    lambda q: mp.qhyper([a], [b], q, zc)),
        "ramanujan_A": (lambda ctx: ramanujan_A(zc, ctx),
                        lambda q: mp.nsum(lambda n: (-zc) ** int(n) * q ** (int(n) ** 2)
                                          / mp.qp(q, q, int(n)), [0, mp.inf])),
        "a_alpha": (lambda ctx: a_alpha(1, a, zc, ctx),
                    lambda q: mp.nsum(lambda n: mp.qp(a, q, int(n)) / mp.qp(q, q, int(n))
                                      * q ** (int(n) ** 2) * zc ** int(n), [0, mp.inf])),
        "psi_1_1": (lambda ctx: psi_1_1(a, b, z, ctx),
                    lambda q: mp.qp(q, q) * mp.qp(b / a, q) * mp.qp(a * z, q)
                    * mp.qp(q / (a * z), q)
                    / (mp.qp(b, q) * mp.qp(q / a, q) * mp.qp(z, q) * mp.qp(b / (a * z), q))),
        "u_m": (lambda ctx: u_m_bilateral(QPow(1, 0), 1, ctx),
                lambda q: mp.nsum(lambda n: q ** (int(n) ** 2 + int(n))
                                  / mp.qp(q, q, int(n)), [0, mp.inf])),
        "pochhammer_infinite": (lambda ctx: pochhammer_infinite(zc, ctx.q, ctx),
                                lambda q: mp.qp(zc, q)),
        "sw_shifted": (lambda ctx: qfunctions._series(
            lambda q: map(mul, _binomial_powers(q.like(zc), q), _sw_shifted(q.like(a), q)),
            ctx), lambda q: _sw_shifted_sum(a, zc, q)),
        "infinite_product": (
            lambda ctx: infinite_product([a, zc, QPow(b, F(1, 2))],
                                         [c, QPow(-3, F(1, 3))], ctx.q, ctx),
            lambda q: mp.qp(a, q) * mp.qp(zc, q) * mp.qp(b * q ** (mp.mpf(1) / 2), q)
            / (mp.qp(c, q) * mp.qp(-3 * q ** (mp.mpf(1) / 3), q))),
    }


KERNEL_ORACLES = _kernel_oracles()


@pytest.mark.parametrize("precision", [20, 50, 100])
@pytest.mark.parametrize("q", ["0.3", COMPLEX_Q], ids=["real-q", "complex-q"])
@pytest.mark.parametrize("kernel", sorted(KERNEL_ORACLES))
def test_fixed_point_kernels_agree_with_mpmath(kernel, q, precision):
    ctx = QContext.numeric(q, precision=precision)
    ours, theirs = KERNEL_ORACLES[kernel]
    with ctx.workdps():
        out = ours(ctx)
        qv = ctx.q
    with mp.workdps(precision + 30):
        want = theirs(qv)
    assert abs(out - want) <= mp.mpf(10) ** -precision * max(1, abs(want))


@pytest.mark.parametrize("precision", [20, 50, 100])
@pytest.mark.parametrize("q", ["0.3", COMPLEX_Q], ids=["real-q", "complex-q"])
def test_infinite_product_is_the_quotient_of_its_factors(q, precision):
    # every factor walks to its own stop count, so the one-pass quotient
    # agrees with the quotient of one-factor products to working precision
    ctx = QContext.numeric(q, precision=precision)
    nums = [mp.mpf("0.01"), mp.mpf(7), QPow(mp.mpc("0.3", "0.4"), F(1, 2))]
    dens = [mp.mpf("-0.9"), QPow(-3, F(1, 3))]
    with ctx.workdps():
        out = infinite_product(nums, dens, ctx.q, ctx)
        want = mp.mpf(1)
        for a in nums:
            want *= pochhammer_infinite(a, ctx.q, ctx)
        for b in dens:
            want /= pochhammer_infinite(b, ctx.q, ctx)
        assert abs(out - want) <= mp.mpf(10) ** -(precision + 13) * abs(want)
