"""Polynomial families, the recurrence pair, and the section of
series/product kernels around S_n."""

from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import QContext, QPoly, QPow, SingularDeltaError
from qrr.context import powq
from qrr.exactpoly import BivariatePoly
from qrr.formal import FormalSeries, fs_pochhammer, fs_pochhammer_infinite, qexp_to_u
from qrr.pochhammer import pochhammer_finite, pochhammer_ratio, q_binomial
from qrr.qfunctions import ramanujan_A
from qrr.qpolynomials import (bilateral_m_version_sides, c_poly, d_poly, _cd_pair,
                              finite_qbinom_sides, gfhn0_diff_formal,
                              gfhn0_sides, hermite_gf_sides, inversion_delta,
                              inversion_delta_from_system, mform_diff_formal,
                              poisson_kernel_sides, q_lommel_p, qinv_hermite,
                              schur_a, schur_b, st_5_1_diff_formal,
                              st_5_1_sides, st_5_2_sides, st_5_3_sides,
                              st_5_4_sides, st_5_5_sides,
                              st_5_6_even_diff_formal, st_5_6_odd_formal,
                              st_5_7_diff_formal, st_5_7_sides,
                              st_5_8_diff_formal, st_5_8_sides, st_5_9_sides,
                              _sw_shifted, st_10_sides, stieltjes_wigert,
                              stieltjes_wigert_second, sw_as_hermite_sides,
                              sw_formal, sw_functional_sides,
                              sw_inversion_sides, sw_lommel_special_sides,
                              sw_symmetry_sides, u_poly)
from qrr.summation import sum_series

CTX = QContext.numeric("0.3", precision=50)
COMPLEX_Q = complex(0.2, 0.1)
TOL = mp.mpf(10) ** -40
F = Fraction
Q13 = F(1, 3)


# -- S_n basics --------------------------------------------------------------

def test_low_degree_values():
    x = F(2, 5)
    assert stieltjes_wigert(0, x, Q13) == 1
    assert stieltjes_wigert(1, x, Q13) == (1 - Q13 * x) / (1 - Q13)


def test_degree_two_special_point():
    # value at q^{-2} collapses to -q^{-1}/(q^2;q^2)_1
    assert stieltjes_wigert(2, Q13 ** -2, Q13) == -Q13 ** -1 / (1 - Q13 ** 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 12), st.fractions(min_value=-3, max_value=3))
def test_two_forms_agree(n, x):
    assert stieltjes_wigert(n, x, Q13) == stieltjes_wigert_second(n, x, Q13)


@pytest.mark.parametrize("x", [F(2, 5), F(-3, 7), F(5)])
@pytest.mark.parametrize("q", [Q13, F(2, 7)])
def test_shifted_walk_matches_one_degree_values(q, x):
    # the q-Pascal row walk gives exactly the per-degree S_n(x q^{-n})
    got = list(islice(_sw_shifted(x, q), 25))
    assert all(type(v) is F for v in got)
    assert got == [stieltjes_wigert(n, x * q ** -n, q) for n in range(25)]


def test_symmetry_exact_and_numeric():
    for n in (0, 5):
        lhs, rhs = sw_symmetry_sides(n, F(3, 7), Q13)
        assert lhs == rhs
    with CTX.workdps():
        lhs, rhs = sw_symmetry_sides(12, mp.mpf("1.4"), CTX.q)
        assert abs(lhs - rhs) < TOL


def test_formal_builder_matches_exact_evaluation():
    ctx = QContext.formal(order=30, base_exponent=1)
    s = sw_formal(3, F(2, 5), -3, 6, ctx)  # q^6 S_3((2/5) q^{-3})
    direct = Q13 ** 6 * stieltjes_wigert(3, F(2, 5) * Q13 ** -3, Q13)
    assert s.eval_at(mp.mpf(1) / 3, dps=40) - direct < mp.mpf(10) ** -25


# -- Schur-type sequences and the recurrence pair ----------------------------

def test_schur_values():
    assert schur_a(0) == QPoly([1]) and schur_a(1) == QPoly.zero()
    assert schur_b(0) == QPoly.zero() and schur_b(1) == QPoly([1])
    assert schur_a(2) == QPoly([1]) and schur_a(3) == QPoly([1])
    assert schur_b(3) == QPoly([1, 1])


def test_pair_small_values():
    assert c_poly(2).coefficients() == {(0, 0): 1}
    assert c_poly(4).coefficients() == {(2, 0): 1, (0, 2): 1}
    assert d_poly(2).coefficients() == {(1, 0): 1}
    assert d_poly(3).coefficients() == {(2, 0): 1, (0, 1): 1}


def test_three_constructions_agree_through_20():
    for n in range(21):
        c_r = c_poly(n, "recurrence")
        assert c_r == c_poly(n, "explicit") == c_poly(n, "generating")
        d_r = d_poly(n, "recurrence")
        assert d_r == d_poly(n, "explicit") == d_poly(n, "generating")


def _cd_full_series(n, which):
    """Oracle: the generating construction with every t-series of
    1/(a t; q)_m kept whole to degree n, all of sum_m q^w t^base / (a t; q)_m
    summed, and its t^n coefficient read at the end."""
    def divide(coeffs, i):
        for k in range(1, n + 1):
            coeffs[k] = coeffs[k] + coeffs[k - 1].shift(1, i)

    acc = [BivariatePoly.zero() for _ in range(n + 1)]
    inv = [BivariatePoly.one()] + [BivariatePoly.zero() for _ in range(n)]
    m = 0
    while True:
        base = 2 * m if which == "c" else 2 * m + 1
        if which == "d":
            divide(inv, m)
        if base > n:
            return acc[n]
        w = m * (m - 1) if which == "c" else m * m
        for i in range(n + 1 - base):
            acc[i + base] = acc[i + base] + inv[i].shift(0, w)
        if which == "c":
            divide(inv, m)
        m += 1


@pytest.mark.parametrize("which", ["c", "d"])
def test_one_degree_generating_build_matches_the_full_series(which):
    build = c_poly if which == "c" else d_poly
    for n in range(31):
        assert build(n, "generating") == _cd_full_series(n, which) == build(n), n


def test_m_version_polynomials_are_built_once_per_m():
    """The m-version sides read c_m, d_m, a_m and b_m built once per m,
    equal to fresh builds."""
    for m in range(9):
        assert _cd_pair(m) is _cd_pair(m) and _cd_pair(m) == (c_poly(m), d_poly(m))
        assert schur_a(m) is schur_a(m) and schur_b(m) is schur_b(m)
    assert c_poly(7) is not c_poly(7)


def test_pair_specializes_to_schur():
    for m in range(13):
        assert c_poly(m).specialize_a(1) == schur_a(m)
        assert d_poly(m).specialize_a(1) == schur_b(m)


def test_pair_coefficients_nonnegative_integers():
    for n in range(2, 16):
        for poly in (c_poly(n), d_poly(n)):
            for v in poly.coefficients().values():
                assert v > 0 and (isinstance(v, int) or v.denominator == 1)


def test_shifted_identity_formal_m_through_10():
    ctx = QContext.formal(order=80, base_exponent=1)
    for m in range(11):
        assert mform_diff_formal(m, ctx).is_zero(), m


def test_bilateral_m_version_sign_readings():
    with CTX.workdps():
        def residual(m, sign=-1):
            lhs, rhs = bilateral_m_version_sides(mp.mpf("0.5"), m, CTX, sign)
            return abs(lhs - rhs)

        assert residual(0) == 0
        assert residual(1) == 0
        for m in range(2, 9):
            assert residual(m) < mp.mpf(10) ** -38
        # the as-printed +d reading fails beyond the trivial cases
        assert residual(4, sign=+1) > 1


# -- ladder polynomials and the functional equation --------------------------

def test_ladder_polynomial_values():
    qnu = F(1, 8)
    assert q_lommel_p(-1, F(3, 2), Q13, qnu) == 0
    assert q_lommel_p(0, F(3, 2), Q13, qnu) == 1
    assert q_lommel_p(1, F(3, 2), Q13, qnu) == 2 * F(3, 2) * (1 - qnu)


def test_u_poly_values_and_ladder_match():
    assert u_poly(0, F(2, 3), F(1, 5), Q13) == 1
    assert u_poly(1, F(2, 3), F(1, 5), Q13) == F(2, 3) * (1 - F(1, 5))
    # u_n(q^{k/2}, q^mu) coincides with p_{n,mu}(q^{k/2}/2)
    q, sq = F(1, 4), F(1, 2)
    for n in range(7):
        for k in (0, 1, 2, 3):
            qmu = F(1, 8)
            assert u_poly(n, sq ** k, qmu, q) == q_lommel_p(n, sq ** k / 2, q, qmu)


def five_product_ladder(n, x, nu, q, weighted=True, cancelled=False):
    """sum_j (nu, q;q)_{n-j} / ((q, nu;q)_j (q;q)_{n-2j}) w_j x^{n-2j}, each
    term from its five finite products; ``cancelled`` reads the nu-part
    (nu;q)_{n-j} / (nu;q)_j as (nu q^j;q)_{n-2j}, which stays finite where
    a factor 1 - nu q^i of both vanishes."""
    if n < 0:
        return 0
    acc = 0
    for j in range(n // 2 + 1):
        if cancelled:
            nu_part = pochhammer_finite(QPow(nu, j), q, n - 2 * j)
        else:
            nu_part = pochhammer_finite(nu, q, n - j) / pochhammer_finite(nu, q, j)
        rest = (pochhammer_finite(q, q, n - j)
                / (pochhammer_finite(q, q, j) * pochhammer_finite(q, q, n - 2 * j)))
        w = q ** (j * (j - 1)) * nu ** j if weighted else 1
        acc += nu_part * rest * w * x ** (n - 2 * j)
    return acc


@pytest.mark.parametrize("q, nu, x", [(F(1, 3), F(2, 5), F(3, 2)),
                                      (F(-2, 7), F(5, 3), F(-1, 4))])
def test_ladder_walk_equals_the_five_product_form(q, nu, x):
    for n in range(-1, 13):
        assert q_lommel_p(n, x, q, nu) == five_product_ladder(n, 2 * x, nu, q), n
        assert u_poly(n, x, nu, q) == five_product_ladder(n, x, nu, q), n
        assert (u_poly(n, x, nu, q, weighted=False)
                == five_product_ladder(n, x, nu, q, weighted=False)), n
        # x = 0 keeps the one term j = n/2
        assert u_poly(n, 0, nu, q) == five_product_ladder(n, 0, nu, q), n


def test_ladder_walk_at_a_vanishing_nu_factor():
    # nu = q^-i zeroes the factor 1 - nu q^i of (nu;q)_{n-j} and of
    # (nu;q)_j alike; the walk counts it out and stays exact
    q, x = F(1, 3), F(3, 2)
    for n in range(1, 10):
        for i in range(n):
            want = five_product_ladder(n, 2 * x, q ** -i, q, cancelled=True)
            assert q_lommel_p(n, x, q, q ** -i) == want, (n, i)


def test_u_poly_literal_reading_differs():
    q = F(1, 4)
    assert u_poly(2, F(1, 2), F(1, 8), q) != u_poly(2, F(1, 2), F(1, 8), q,
                                                    weighted=False)


def test_functional_equation_exact():
    q, sq = F(1, 4), F(1, 2)
    for k in range(5):
        for n in range(6):
            lhs, rhs = sw_functional_sides(k, F(2, 5), n, q, sq)
            assert lhs == rhs


def test_functional_equation_numeric():
    with CTX.workdps():
        sq = mp.sqrt(CTX.q)
        for n in range(1, 6):
            lhs, rhs = sw_functional_sides(3, mp.mpf("-0.21"), n, CTX.q, sq)
            assert abs(lhs - rhs) < mp.mpf(10) ** -38


def test_inversion_corrected_passes_literal_fails():
    with CTX.workdps():
        q = CTX.q
        sq = mp.sqrt(q)
        y = -q ** mp.mpf("0.7")
        lhs, recon = sw_inversion_sides(2, y, 1, q, sq, "corrected")
        assert abs(lhs - recon) < mp.mpf(10) ** -38
        lhs, recon = sw_inversion_sides(2, y, 1, q, sq, "literal")
        assert abs(lhs - recon) > mp.mpf("0.01")


def test_inversion_exact_rational():
    lhs, recon = sw_inversion_sides(2, F(1, 3), 1, F(1, 4), F(1, 2), "corrected")
    assert lhs == recon


def test_inversion_delta_two_ways():
    with CTX.workdps():
        q = CTX.q
        sq = mp.sqrt(q)
        y = -q ** mp.mpf("0.7")
        assert abs(inversion_delta(2, y, 1, q, sq)
                   - inversion_delta_from_system(2, y, 1, q, sq)) \
            < mp.mpf(10) ** -45
    d1 = inversion_delta(3, F(2, 7), 2, F(1, 4), F(1, 2))
    d2 = inversion_delta_from_system(3, F(2, 7), 2, F(1, 4), F(1, 2))
    assert d1 == d2


def test_inversion_singular_delta():
    # at k = 0, n = 1 the determinant reduces to y itself, so y = 0 is singular
    q, sq = F(1, 4), F(1, 2)
    assert inversion_delta(0, F(0), 1, q, sq) == 0
    with pytest.raises(SingularDeltaError):
        sw_inversion_sides(0, F(0), 1, q, sq)


def test_special_point_ladder_relation():
    with CTX.workdps():
        for n in range(1, 5):
            lhs, rhs = sw_lommel_special_sides(n, F(2, 5), 2, CTX)
            assert abs(lhs - rhs) < mp.mpf(10) ** -38


# -- inverse-base Hermite ----------------------------------------------------

def test_hermite_values():
    E = F(5, 4)
    assert qinv_hermite(0, E, Q13) == 1
    assert qinv_hermite(1, E, Q13) == E - 1 / E  # = 2 sinh xi


def test_hermite_bridge_corrected_exact():
    E = F(5, 4)
    for n in range(11):
        lhs, rhs = sw_as_hermite_sides(n, E, Q13)
        assert lhs == rhs
    lhs, rhs = sw_as_hermite_sides(2, E, Q13, reading="literal")
    assert lhs != rhs


# -- section kernels ----------------------------------------------------------

def test_finite_qbinom_theorem_exact():
    for n in range(13):
        lhs, rhs = finite_qbinom_sides(n, F(3, 5), Q13)
        assert lhs == rhs


def test_product_expansion_5_1():
    with CTX.workdps():
        lhs, rhs = st_5_1_sides(mp.mpf("0.4"), mp.mpf("0.6"), CTX)
        assert abs(lhs - rhs) < TOL
    ctx = QContext.formal(order=60, base_exponent=1)
    assert st_5_1_diff_formal(F(2, 5), F(3, 7), ctx).is_zero()


def _dense_sw_formal(n, x_coeff, x_qexp, shift, ctx):
    """Oracle: q^shift S_n(c q^e) with Fraction coefficients, summed densely
    and divided by (q;q)_n in one factor walk."""
    acc = FormalSeries.zero(ctx)
    for k in range(n + 1):
        base = qexp_to_u(k * k + k * F(x_qexp) + F(shift), ctx)
        for j, a in enumerate(q_binomial(n, k).coeffs()):
            e = base + j * ctx.base_exponent
            if a and e <= ctx.u_order:
                acc.c[e] += (-x_coeff) ** k * a
    return fs_pochhammer(acc, 1, 1, 1, ctx, n, inverse=True)


def _dense_st_5_1_diff(x, t, ctx):
    """Oracle: the st-5.1 difference with its right side summed as dense
    Fraction series, each term scaled by t^n and added."""
    lhs = fs_pochhammer(fs_pochhammer_infinite(x * t, 0, 1, ctx), -t, 0, 1, ctx)
    rhs, n = FormalSeries.zero(ctx), 0
    while F(n * (n - 1), 2) - F(n * n, 4) <= F(ctx.u_order, ctx.base_exponent):
        rhs = rhs + _dense_sw_formal(n, x, -n, F(n * (n - 1), 2), ctx).scale(t ** n)
        n += 1
    return lhs - rhs


RATIONALS = st.fractions(min_value=-1, max_value=1, max_denominator=50)


@given(RATIONALS, RATIONALS.filter(bool), st.integers(30, 60), st.sampled_from([1, 12]))
@settings(max_examples=25, deadline=None)
def test_integer_st_5_1_side_matches_the_dense_fraction_one(x, t, order, D):
    ctx = QContext.formal(order, D)
    assert st_5_1_diff_formal(x, t, ctx) == _dense_st_5_1_diff(x, t, ctx)
    for n in range(8):
        assert (sw_formal(n, x, -n, F(n * (n - 1), 2), ctx)
                == _dense_sw_formal(n, x, -n, F(n * (n - 1), 2), ctx)), n


def test_monomial_reconstruction_5_2():
    for n in range(13):
        lhs, rhs = st_5_2_sides(n, F(2, 3), F(1, 4))
        assert lhs == rhs


def test_entire_function_expansion_5_3():
    with CTX.workdps():
        for n in (0, 2, 4):
            lhs, rhs = st_5_3_sides(n, mp.mpf("0.7"), CTX)
            assert abs(lhs - rhs) < TOL


def test_argument_product_expansion_5_4():
    for n in range(9):
        lhs, rhs = st_5_4_sides(n, F(2, 5), F(3, 4), Q13)
        assert lhs == rhs


@pytest.mark.parametrize("q, precision", [("0.001", 20), ("0.001", 50), ("1e-6", 20)])
def test_argument_product_expansion_5_4_cancelling_at_small_q_is_rerun_wider(q, precision):
    """At small |q| the terms of the 5.4 sum reach about |q|^-10 at n = 5 and
    cancel to S_5(ab) ~ 1: the checked sum raises PrecisionLossError naming
    the bits it misses, and the wider rerun matches the exact sides at q
    read as a dyadic Fraction, which agree.  The check PASSes."""
    from qrr.context import widening
    from qrr.errors import PrecisionLossError
    from qrr.harness import RunSettings, run_check
    ctx = QContext.numeric(q, precision=precision)
    a, b = mp.mpf("0.4"), mp.mpf("0.75")
    with ctx.workdps():
        with pytest.raises(PrecisionLossError) as short:
            st_5_4_sides(5, a, b, ctx.q, ctx)
        assert short.value.bits > 0
        lhs, rhs = widening(lambda c: st_5_4_sides(5, a, b, c.q, c), ctx)
        exact = st_5_4_sides(5, *(F(x.man) * F(2) ** x.exp for x in (a, b, ctx.q)))
        assert exact[0] == exact[1]
        assert abs(rhs - lhs) <= mp.mpf(10) ** -precision * abs(lhs)
        assert abs(lhs - exact[0]) <= mp.mpf(10) ** -precision * abs(lhs)
    report = run_check("st-5.4", "numeric", RunSettings(precision=precision, q_values=(q,)))
    assert report.status == "PASS", report.note


def test_tail_product_expansion_5_5():
    with CTX.workdps():
        for n in (0, 1, 4):
            lhs, rhs = st_5_5_sides(n, mp.mpf("0.6"), CTX)
            assert abs(lhs - rhs) < TOL


def test_even_odd_special_values_5_6():
    ctx = QContext.formal(order=40, base_exponent=1)
    for n in range(7):
        assert st_5_6_even_diff_formal(n, ctx).is_zero()
        assert st_5_6_odd_formal(n, ctx).is_zero()


def test_half_power_special_values_5_7_and_5_8():
    ctx = QContext.formal(order=40, base_exponent=4)
    for n in range(9):
        assert st_5_7_diff_formal(n, ctx).is_zero()
        assert st_5_8_diff_formal(n, ctx).is_zero()
    for n in range(9):
        lhs, rhs = st_5_7_sides(n, F(1, 4), F(1, 2))
        assert lhs == rhs
        lhs, rhs = st_5_8_sides(n, F(1, 4), F(1, 2))
        assert lhs == rhs


def test_double_argument_expansion_5_9():
    with CTX.workdps():
        lhs, rhs = st_5_9_sides(mp.mpf("0.5"), mp.mpf("0.8"), CTX)
        assert abs(lhs - rhs) < TOL


def test_degree_shift_expansion_5_10():
    with CTX.workdps():
        for m in (0, 1, 3):
            lhs, rhs = st_10_sides(m, mp.mpf("0.5"), CTX)
            assert abs(lhs - rhs) < TOL


def test_quarter_power_generating_function_readings():
    with CTX.workdps():
        lhs, rhs = hermite_gf_sides(mp.mpf("0.15"), mp.mpf("0.5"), CTX,
                                    "corrected")
        assert abs(lhs - rhs) < TOL
        lhs, rhs = hermite_gf_sides(mp.mpf("0.15"), mp.mpf("0.5"), CTX,
                                    "literal")
        assert abs(lhs - rhs) > mp.mpf("0.01")


def test_bilinear_kernel():
    with CTX.workdps():
        lhs, rhs = poisson_kernel_sides(mp.mpf("0.1"), mp.mpf("0.4"),
                                        mp.mpf("0.55"), CTX)
        assert abs(lhs - rhs) < TOL


def test_half_power_series_evaluation():
    with CTX.workdps():
        lhs, rhs = gfhn0_sides(mp.mpf("0.7"), CTX)
        assert abs(lhs - rhs) < TOL
    ctx = QContext.formal(order=60, base_exponent=2)
    assert gfhn0_diff_formal(F(2, 3), ctx).is_zero()


# -- term-ratio series against their per-term formulas -----------------------
#
# Each oracle recomputes term n from scratch with mp.qp and plain powers, the
# way the series were written before they carried running products; S_n comes
# from Gaussian binomials built of mp.qp.  Both go through the same summation
# engine, so they stop at the same term and must agree to the working
# precision.

ORACLE_TOL = mp.mpf(10) ** -58


def old_sw(n, x, q):
    qq = [mp.qp(q, q, j) for j in range(n + 1)]
    return sum(q ** (k * k) * (-x) ** k / (qq[k] * qq[n - k]) for k in range(n + 1))


def _series_cases():
    def st_5_1(ctx, q, x=mp.mpf("0.4"), t=mp.mpf("0.6")):
        return (st_5_1_sides(x, t, ctx)[1],
                sum_series(lambda n: q ** (n * (n - 1) // 2) * t ** n
                           * old_sw(n, x * q ** -n, q), ctx).value)

    def st_5_3(ctx, q, n, x=mp.mpf("0.7")):
        return (st_5_3_sides(n, x, ctx)[1],
                sum_series(lambda k: q ** (k * (k + 1) // 2) * (x * q ** n) ** k
                           * ramanujan_A(x * q ** k, ctx)
                           / (mp.qp(q, q, n) * mp.qp(q, q, k)), ctx).value)

    def st_5_5(ctx, q, n, a=mp.mpf("0.6")):
        pref = mp.qp(-a * q, q) / (mp.qp(q, q, n) * mp.qp(-a * q, q, n))
        return (st_5_5_sides(n, a, ctx)[1],
                pref * sum_series(lambda k: q ** (k * k) * (-a) ** k
                                  / (mp.qp(q, q, k) * mp.qp(-a * q ** (n + 1), q, k)),
                                  ctx).value)

    def st_5_9(ctx, q, w=mp.mpf("0.5"), z=mp.mpf("0.8")):
        return (st_5_9_sides(w, z, ctx)[1],
                mp.qp(w * q, q) * sum_series(lambda n: q ** (n * n) * w ** n
                                             * old_sw(n, z * q ** -n, q)
                                             / mp.qp(w * q, q, n), ctx).value)

    def st_10(ctx, q, m, z=mp.mpf("0.5")):
        return (st_10_sides(m, z, ctx)[1],
                mp.qp(q, q, m) * sum_series(lambda n: q ** (n * n + m * n) * (-z) ** n
                                            * old_sw(m, z * q ** n, q) / mp.qp(q, q, n),
                                            ctx).value)

    def hermite_gf(ctx, q, t=mp.mpf("0.15"), z=mp.mpf("0.5")):
        sq = mp.sqrt(q)
        return (hermite_gf_sides(t, z, ctx, "corrected")[0],
                sum_series(lambda n: mp.qp(q, q, n) * sq ** (n * n / mp.mpf(2)) * t ** n
                           * old_sw(n, z * q ** -n, q) / mp.qp(sq, sq, n), ctx).value)

    def poisson(ctx, q, t=mp.mpf("0.1"), z=mp.mpf("0.4"), zeta=mp.mpf("0.55")):
        return (poisson_kernel_sides(t, z, zeta, ctx)[0],
                sum_series(lambda n: mp.qp(q, q, n) * q ** (n * (n - 1) // 2) * t ** n
                           * old_sw(n, z * q ** -n, q) * old_sw(n, zeta * q ** -n, q),
                           ctx).value)

    def gfhn0(ctx, q, b):
        bs = b * mp.sqrt(q)
        return (gfhn0_sides(b, ctx)[1],
                mp.qp(bs, q) * sum_series(lambda n: q ** (n * n / mp.mpf(2)) * b ** n
                                          / (mp.qp(q, q, n) * mp.qp(bs, q, n)),
                                          ctx).value)

    cases = {"st_5_1": st_5_1, "st_5_9": st_5_9, "hermite_gf": hermite_gf,
             "poisson_kernel": poisson}
    for n in (0, 2, 4):
        cases[f"st_5_3-n={n}"] = lambda ctx, q, n=n: st_5_3(ctx, q, n)
    for n in (0, 1, 4):
        cases[f"st_5_5-n={n}"] = lambda ctx, q, n=n: st_5_5(ctx, q, n)
    for m in (0, 1, 3):
        cases[f"st_10-m={m}"] = lambda ctx, q, m=m: st_10(ctx, q, m)
    for b in ("0.7", "-0.4"):
        cases[f"gfhn0-b={b}"] = lambda ctx, q, b=b: gfhn0(ctx, q, mp.mpf(b))
    return cases


SERIES_CASES = _series_cases()


@pytest.mark.parametrize("q", ["0.2", "0.3"])
@pytest.mark.parametrize("case", sorted(SERIES_CASES))
def test_series_side_matches_per_term_oracle(case, q):
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        new, old = SERIES_CASES[case](ctx, ctx.q)
        assert abs(new - old) <= ORACLE_TOL * abs(old)


# The series whose Pochhammer ratio and weight run as one fused stream, against
# term n rebuilt from pochhammer_ratio, pochhammer_finite and powq, at the
# widths of precision 20 and 100 and at a complex base.  S_n comes from
# stieltjes_wigert on mp numbers (the kernels run the row walk _sw_shifted in
# fixed point); its formula has its own oracle in
# test_series_side_matches_per_term_oracle.

def _fused_stream_cases():
    def sw_shifted(n, x, q):
        return stieltjes_wigert(n, x * powq(q, -n), q)

    def st_5_9(ctx, q, w=mp.mpf("0.5"), z=mp.mpf("0.8")):
        return (st_5_9_sides(w, z, ctx)[1],
                mp.qp(w * q, q) * sum_series(
                    lambda n: pochhammer_ratio(0, QPow(w, 1), q, n) * powq(q, n * n) * w ** n
                    * sw_shifted(n, z, q), ctx).value)

    def st_10(ctx, q, m=3, z=mp.mpf("0.5")):
        return (st_10_sides(m, z, ctx)[1],
                pochhammer_finite(q, q, m) * sum_series(
                    lambda n: pochhammer_ratio(0, QPow(1, 1), q, n) * powq(q, n * n + m * n)
                    * (-z) ** n * stieltjes_wigert(m, z * powq(q, n), q), ctx).value)

    def hermite_gf(ctx, q, t=mp.mpf("0.15"), z=mp.mpf("0.5")):
        sq = powq(q, F(1, 2))
        return (hermite_gf_sides(t, z, ctx, "corrected")[0],
                sum_series(lambda n: pochhammer_finite(q, q, n) / pochhammer_finite(sq, sq, n)
                           * powq(q, F(n * n, 4)) * t ** n * sw_shifted(n, z, q), ctx).value)

    def poisson(ctx, q, t=mp.mpf("0.1"), z=mp.mpf("0.4"), zeta=mp.mpf("0.55")):
        return (poisson_kernel_sides(t, z, zeta, ctx)[0],
                sum_series(lambda n: pochhammer_finite(q, q, n) * powq(q, n * (n - 1) // 2)
                           * t ** n * sw_shifted(n, z, q) * sw_shifted(n, zeta, q),
                           ctx).value)

    return {"st_5_9": st_5_9, "st_10": st_10, "hermite_gf": hermite_gf,
            "poisson_kernel": poisson}


FUSED_STREAM_CASES = _fused_stream_cases()


@pytest.mark.parametrize("q", ["0.3", COMPLEX_Q], ids=["real-q", "complex-q"])
@pytest.mark.parametrize("precision", [20, 100])
@pytest.mark.parametrize("case", sorted(FUSED_STREAM_CASES))
def test_fused_stream_matches_pochhammer_oracle(case, precision, q):
    ctx = QContext.numeric(q, precision=precision)
    with ctx.workdps():
        new, old = FUSED_STREAM_CASES[case](ctx, ctx.q)
        assert abs(new - old) <= mp.mpf(10) ** -(precision + 8) * abs(old)


def test_finite_sums_stay_exact():
    # Fraction inputs give Fractions equal to sums over exact Gaussian binomials
    q, x, E = F(2, 7), F(-3, 5), F(5, 4)
    for n in range(9):
        binoms = [q_binomial(n, k)(q) for k in range(n + 1)]
        sw = sum(b * q ** (k * k) * (-x) ** k for k, b in enumerate(binoms))
        for value in (stieltjes_wigert(n, x, q), stieltjes_wigert_second(n, x, q)):
            assert type(value) is F and value == sw / pochhammer_finite(q, q, n)
        h = qinv_hermite(n, E, q)
        assert type(h) is F and h == sum(b * (-1) ** k * q ** (k * (k - n)) * E ** (n - 2 * k)
                                         for k, b in enumerate(binoms))
        lhs, rhs = finite_qbinom_sides(n, x, q)
        assert type(rhs) is F and rhs == sum(b * (-x) ** k * q ** (k * (k - 1) // 2)
                                             for k, b in enumerate(binoms)) == lhs
