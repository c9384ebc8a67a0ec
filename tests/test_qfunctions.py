"""Hypergeometric, bilateral, and convolution-identity evaluators."""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import count, islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import (AnnulusError, DomainError, EisensteinRational, NonConvergenceError, PoleError,
                 PrecisionLossError, QContext, QPow, qbessel, qfunctions, qpolynomials, slices,
                 summation)
from qrr.context import RERUN_MARGIN_BITS, _Shared, keeping_values, powq, to_mp, widening
from qrr.fixedpoint import (ROUNDINGS, Fixed, _complex, _real, bits_for_digits, cut, one_minus,
                            parts, rounding_bits, shifted)
from qrr.harness import RunSettings, run_check
from qrr.ladders import _ladder_stream
from qrr.pochhammer import (_Q1, _gaussian, infinite_product, pochhammer_finite,
                            pochhammer_ratio, pole)
from qrr.qbessel import mittag_leffler_rhs
from qrr.qfunctions import (_a_alpha_stream, a_alpha, a_alpha_formal, b_alpha,
                            cube_convolution_sides, cube_bilateral_master_sides, cube_master_sides,
                            heine_sides, omega, omega_formal,
                            pair_convolution_sides, phi21_terminating_exact,
                            phi_1_1, phi_2_1, psi_1_1, psi_1_1_product,
                            ramanujan_A, ramanujan_A_formal, rho_root,
                            rr_product_formal, rr_sum_formal,
                            square_bilateral_master_sides,
                            square_master_sides, theta_pair_imag_sides,
                            theta_pair_sides, theta_triple_sides,
                            u_m_bilateral)
from qrr.slices import (_bilateral_ratio_array, _class_sums, _conv,
                        _cube_slices, _log2_sum, _pair_slices, _pole_table, _span, _Table,
                        _theta_cutoff, bilateral_cube_slice_sides, bilateral_pair_slice_sides,
                        gaussian_truncation, slice_truncation)
from qrr.summation import _ratio_streams, _ratio_terms, sum_bilateral, sum_series

COMPLEX_Q = complex(0.2, 0.1)

CTX = QContext.numeric("0.3", precision=50)
TOL = mp.mpf(10) ** -40
F = Fraction


def test_phi21_zero_argument_is_one():
    out = phi_2_1(mp.mpf("0.2"), mp.mpf("0.5"), mp.mpf("0.7"), mp.mpf(0), CTX)
    assert out == 1


def test_phi21_rejects_large_argument():
    with pytest.raises(DomainError):
        phi_2_1(mp.mpf("0.2"), mp.mpf("0.5"), mp.mpf("0.7"), mp.mpf("1.1"), CTX)


def test_heine_transformation_random_draws():
    import random
    rnd = random.Random(20240811)
    with CTX.workdps():
        for _ in range(50):
            b = mp.mpf(rnd.randint(30, 90)) / 100
            c = b * mp.mpf(rnd.randint(10, 85)) / 100  # keeps |c/b| < 1
            a = mp.mpf(rnd.randint(5, 90)) / 100
            z = mp.mpf(rnd.randint(5, 90)) / 100
            lhs, rhs = heine_sides(a, b, c, z, CTX)
            assert abs(lhs - rhs) < TOL


def test_heine_rejects_out_of_domain_transform():
    # transformed argument c/b >= 1 diverges and is refused up front
    with pytest.raises(DomainError):
        heine_sides(mp.mpf("0.3"), mp.mpf("0.5"), mp.mpf("0.7"), mp.mpf("0.4"),
                    CTX)


def test_phi11_measures_kind2_series():
    # z^nu-normalized kind-2 series equals 1phi1(z^2; 0; q, q^{nu+1})/(q;q)_inf
    from qrr.qbessel import bessel_i
    with CTX.workdps():
        q = CTX.q
        z = mp.mpf("0.6")
        nu = F(1, 2)
        lhs = bessel_i(2, nu, 2 * z, CTX)
        rhs = (z ** mp.mpf("0.5") * infinite_product([], [q], q, CTX)
               * phi_1_1(z * z, mp.mpf(0), QPow(1, nu + 1), CTX))
        assert abs(lhs - rhs) < TOL


def test_bilateral_sum_against_product():
    import random
    rnd = random.Random(7)
    with CTX.workdps():
        for _ in range(20):
            a = mp.mpf(rnd.randint(40, 90)) / 100
            b = a * mp.mpf(rnd.randint(5, 40)) / 100
            lo = b / a
            z = lo + (1 - lo) * mp.mpf(rnd.randint(20, 80)) / 100
            s = psi_1_1(a, b, z, CTX)
            p = psi_1_1_product(a, b, z, CTX)
            assert abs(s - p) < TOL


def test_bilateral_annulus_enforced():
    with pytest.raises(AnnulusError):
        psi_1_1(mp.mpf("0.5"), mp.mpf("0.4"), mp.mpf("0.3"), CTX)
    with pytest.raises(AnnulusError):
        psi_1_1(mp.mpf("0.5"), mp.mpf("0.1"), mp.mpf("1.2"), CTX)


def test_bilateral_collapses_when_denominator_is_q():
    with CTX.workdps():
        q = CTX.q
        a, z = mp.mpf("0.5"), mp.mpf("0.4")
        s = psi_1_1(a, QPow(1, 1), z, CTX)
        rhs = infinite_product([a * z], [z], q, CTX)
        assert abs(s - rhs) < TOL


def test_entire_function_values():
    assert ramanujan_A(mp.mpf(0), CTX) == 1
    # A_q(-1) is the gap-series value
    with CTX.workdps():
        q = CTX.q
        direct = sum(q ** (n * n) / mp.qp(q, q, n) for n in range(40))
        assert abs(ramanujan_A(mp.mpf(-1), CTX) - direct) < TOL


def test_gap_series_product_sides_formal():
    ctx = QContext.formal(order=100, base_exponent=1)
    assert (rr_sum_formal(0, ctx) - rr_product_formal(1, ctx)).is_zero()
    assert (rr_sum_formal(1, ctx) - rr_product_formal(2, ctx)).is_zero()


def test_entire_function_formal_matches_gap_series():
    ctx = QContext.formal(order=80, base_exponent=1)
    assert ramanujan_A_formal(-1, 0, ctx) == rr_sum_formal(0, ctx)
    assert ramanujan_A_formal(-1, 1, ctx) == rr_sum_formal(1, ctx)


def test_alpha_family_reductions_formal():
    ctx = QContext.formal(order=60, base_exponent=1)
    t = F(2, 3)
    # (a = q) reduction to the plain theta-type series
    assert a_alpha_formal(1, (1, 1), (t, 0), ctx) == omega_formal(t, 0, ctx)
    # (a = 0) reduction to the entire function at -t
    assert a_alpha_formal(1, None, (t, 0), ctx) == ramanujan_A_formal(-t, 0, ctx)


def test_alpha_family_reductions_numeric():
    with CTX.workdps():
        t = mp.mpf("0.6")
        d1 = abs(a_alpha(1, QPow(1, 1), t, CTX) - omega(t, CTX))
        d2 = abs(a_alpha(1, mp.mpf(0), t, CTX)
                 - ramanujan_A(-t, CTX))
        assert d1 == 0 and d2 == 0


def test_bilateral_alpha_reduces_to_unilateral():
    with CTX.workdps():
        a, x = mp.mpf("0.5"), mp.mpf("0.7")
        d = abs(b_alpha(1, a, QPow(1, 1), x, CTX)
                - a_alpha(1, a, x, CTX))
        assert d == 0


def test_bilateral_alpha_finite_at_generic_params():
    # finite value at the sampled point used by the square-master check
    with CTX.workdps():
        v = b_alpha(1, mp.mpf("0.4"), mp.mpf("0.9"), mp.mpf("0.7"), CTX)
        assert mp.isfinite(v)


def test_b_alpha_at_zero_is_psi_1_1():
    # alpha = 0 is the 1psi1 sum, with its annulus |b/a| < |z| < 1; b = q^2
    # ends the negative half, so there only |z| < 1 is needed.  (z = 0.6
    # would put a z at q, where the sum nearly vanishes.)
    with CTX.workdps():
        a, b, z = mp.mpf("0.5"), mp.mpf("0.1"), mp.mpf("0.7")
        v = b_alpha(0, a, b, z, CTX)
        assert v == psi_1_1(a, b, z, CTX)
        assert abs(v - psi_1_1_product(a, b, z, CTX)) < TOL
        small = mp.mpf("0.05")  # below |q^2 / a| = 0.18
        assert b_alpha(0, a, QPow(1, 2), small, CTX) == psi_1_1(a, QPow(1, 2), small, CTX)
        for outside in (mp.mpf("0.15"), mp.mpf("1.2"), -mp.mpf("1.2")):  # |b/a| = 0.2
            with pytest.raises(AnnulusError):
                b_alpha(0, a, b, outside, CTX)
        with pytest.raises(AnnulusError):
            b_alpha(0, a, QPow(1, 2), mp.mpf("1.2"), CTX)
        with pytest.raises(DomainError) as err:
            b_alpha(F(-1, 2), a, b, z, CTX)
        assert not isinstance(err.value, AnnulusError)


def test_shifted_bilateral_recurrence():
    # values grow like q^{-binom(m,2)}, so the residual is scale-aware
    from qrr import scaled_deviation
    with CTX.workdps():
        q = CTX.q
        for a in (mp.mpf("0.5"), mp.mpf("0.8"), mp.mpf("1.5")):
            for m in range(11):
                lhs = q ** (m + 1) * u_m_bilateral(a, m + 2, CTX)
                rhs = (u_m_bilateral(a, m, CTX)
                       - a * u_m_bilateral(a, m + 1, CTX))
                assert scaled_deviation(lhs, rhs) < TOL


def test_shifted_bilateral_at_unit_parameter():
    # a = 1: negative indices die exactly; equals the entire function value
    with CTX.workdps():
        u0 = u_m_bilateral(QPow(1, 0), 0, CTX)
        assert abs(u0 - ramanujan_A(mp.mpf(-1), CTX)) == 0


def test_shifted_bilateral_against_truncation_oracle():
    with CTX.workdps():
        q = CTX.q
        a = mp.mpf("0.5")
        val = u_m_bilateral(a, 1, CTX)
        oracle = mp.mpf(0)
        for n in range(80):
            oracle += q ** (n * n + n) / mp.qp(a * q, q, n)
        for k in range(1, 80):
            prod = mp.mpf(1)
            for j in range(1, k + 1):
                prod *= 1 - a * q ** (1 - j)
            oracle += q ** (k * k - k) * prod
        assert abs(val - oracle) < TOL


def test_pair_convolution_exact_values():
    lhs, rhs = pair_convolution_sides(2, F(1, 3), F(1, 2))
    assert lhs == rhs == F(32, 27)
    lhs, rhs = pair_convolution_sides(5, F(1, 3), F(1, 2))
    assert lhs == rhs == 0


def test_pair_convolution_exact_sweep():
    for a in (F(1, 3), F(2, 7), F(5, 4)):
        for n in range(0, 31):
            lhs, rhs = pair_convolution_sides(n, a, F(1, 2))
            assert lhs == rhs, (a, n)


def test_cube_convolution_exact_sweep():
    for a in (F(1, 3), F(2, 7), F(5, 4)):
        for n in range(0, 31):
            lhs, rhs = cube_convolution_sides(n, a, F(1, 3))
            assert lhs == rhs, (a, n)
            if n % 3 != 0:
                assert lhs == EisensteinRational.of(0)


def test_convolutions_match_fraction_loops():
    # oracle: r_k as Fractions and the plain double and triple loops
    for q in (F(1, 3), F(2, 5)):
        for a in (F(-7, 5), F(2, 3), F(13, 10)):
            r = [F(1)]
            for k in range(30):
                r.append(r[-1] * (1 - a * q ** k) / (1 - q ** (k + 1)))
            for n in range(31):
                pair = sum((-1) ** k * r[k] * r[n - k] for k in range(n + 1))
                s = [F(0)] * 3
                for j in range(n + 1):
                    for k in range(n + 1 - j):
                        s[(k + 2 * (n - j - k)) % 3] += r[j] * r[k] * r[n - j - k]
                assert pair_convolution_sides(n, a, q)[0] == pair, (a, q, n)
                assert cube_convolution_sides(n, a, q)[0] == EisensteinRational(
                    s[0] - s[2], s[1] - s[2]), (a, q, n)


@pytest.mark.parametrize("entry_id, sides", [("ms-1", pair_convolution_sides),
                                              ("ms-2", cube_convolution_sides)])
def test_convolution_checks_walk_one_ratio_prefix_per_draw(entry_id, sides, monkeypatch):
    # every n of a check reads r_0..r_n from one kept walk per drawn (a, q);
    # the walks are kept for that check only
    walks, real = [], qfunctions._ratios_up

    def spy(a, q):
        walks.append((a.coeff, q))
        return real(a, q)

    monkeypatch.setattr(qfunctions, "_ratios_up", spy)
    report = run_check(entry_id, "exact", RunSettings())
    assert report.status == "PASS"
    drawn = report.params["a"].strip("{}").split(", ")
    assert len(walks) == len(set(walks)) == len(drawn) == 3
    assert {str(a) for a, _ in walks} == set(drawn)
    assert {str(q) for _, q in walks} == {report.params["q"]}
    run_check(entry_id, "exact", RunSettings())
    assert walks[3:] == walks[:3]    # a second check walks afresh
    # outside a keeping_values block every call walks, to the same sides
    a, q = walks[0]
    with keeping_values():
        kept_sides = [sides(n, a, q) for n in range(31)]
    del walks[:]
    assert [sides(n, a, q) for n in range(31)] == kept_sides
    assert len(walks) == 31


def test_cube_convolution_at_zero_parameter():
    # a = 0: the triple convolution of 1/(q;q)_j collapses to 1/(q^3;q^3)_m
    q = F(1, 2)
    for m in range(6):
        lhs, rhs = cube_convolution_sides(3 * m, F(0), q)
        expected = 1 / pochhammer_finite_direct(q ** 3, q ** 3, m)
        assert lhs == rhs == EisensteinRational.of(expected)


def pochhammer_finite_direct(a, q, n):
    prod = F(1)
    for k in range(n):
        prod *= 1 - a * q ** k
    return prod


def test_bilateral_pair_slices():
    with CTX.workdps():
        a, b = mp.mpf("0.5"), mp.mpf("0.1")
        for n in (0, 2, 4):
            lhs, rhs = bilateral_pair_slice_sides(n, a, b, CTX)
            assert abs(lhs - rhs) < mp.mpf(10) ** -30
        for n in (1, 3):
            lhs, rhs = bilateral_pair_slice_sides(n, a, b, CTX)
            assert rhs == 0 and abs(lhs) < mp.mpf(10) ** -30


def test_bilateral_cube_slices():
    with CTX.workdps():
        a, b = mp.mpf("0.5"), mp.mpf("0.1")
        lhs, rhs = bilateral_cube_slice_sides(6, a, b, CTX)
        assert abs(lhs - rhs) < mp.mpf(10) ** -26
        lhs, rhs = bilateral_cube_slice_sides(4, a, b, CTX)
        assert rhs == 0 and abs(lhs) < mp.mpf(10) ** -26


# b/a = 0.8 decays far slower than q = 0.3: a cutoff at rate q and 34 digits,
# as ms-3 used, left the pair slice 1.4e-8 and the cube slice 9e-9 off their
# products.  b = 0 and 1e-10 decay at about |q|^k / |a| until |q|^k ~ |b|,
# far slower at first than the rate |b/a| alone would say.
@pytest.mark.parametrize("b", ["0.4", "1e-10", "0"])
def test_slice_sums_truncate_at_the_ratio_tail(b):
    ctx = QContext.numeric("0.3", precision=50)
    with ctx.workdps():
        a = mp.mpf("0.5")
        for sides, n in ((bilateral_pair_slice_sides, 2), (bilateral_cube_slice_sides, 3)):
            lhs, rhs = sides(n, a, mp.mpf(b), ctx)
            assert abs(lhs - rhs) < mp.mpf(10) ** -55 * abs(rhs), (sides.__name__, lhs - rhs)


def test_slice_sums_outside_the_annulus_are_a_domain_error():
    with CTX.workdps():
        for sides in (bilateral_pair_slice_sides, bilateral_cube_slice_sides):
            with pytest.raises(DomainError, match=r"\|b/a\| < 1"):
                sides(0, mp.mpf("0.1"), mp.mpf("0.2"), CTX)


def test_slice_product_side_raises_before_any_table_is_summed(monkeypatch):
    """At q = 0.99 the cube slice's product side needs more factors than
    the budget allows: the check ends on that NonConvergenceError before
    its table is summed and cut."""
    def no_cut(*args, **kwargs):
        raise AssertionError("the table was summed before the product side")

    monkeypatch.setattr(slices, "_cut", no_cut)
    ctx = QContext.numeric("0.99", precision=50)
    with ctx.workdps():
        with pytest.raises(NonConvergenceError):
            bilateral_cube_slice_sides(3, mp.mpf("0.5"), mp.mpf("0.1"), ctx)


@pytest.mark.parametrize("q", ["0.3", "0.2+0.1j"])
def test_exact_zero_slices_read_a_small_table(q, monkeypatch):
    """A slice that its order does not divide (ms-4, the odd slices of ms-3)
    is an exact zero on every table: it is summed on K = |n| + 2, a table of
    2|n| + 5 entries, with no cutoff check."""
    tables, real = [], slices._bilateral_ratio_array

    def spy(*args, **kwargs):
        t = real(*args, **kwargs)
        tables.append(len(t.values))
        return t

    def no_cut(*args):
        raise AssertionError("an exact-zero slice checks no cutoff")

    monkeypatch.setattr(slices, "_bilateral_ratio_array", spy)
    monkeypatch.setattr(slices, "_cut", no_cut)
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        a, b = mp.mpf("0.5"), mp.mpf("0.1")
        for sides, ns in ((bilateral_pair_slice_sides, (1, 3, 5, -3)),
                          (bilateral_cube_slice_sides, (1, 2, 4, 5, -2))):
            for n in ns:
                tables.clear()
                lhs, rhs = sides(n, a, b, ctx)
                assert lhs == rhs == 0 and tables == [2 * abs(n) + 5], (sides.__name__, n)


def test_pole_messages_name_the_vanishing_factor():
    ctx = QContext.numeric("0.5", precision=20)
    with ctx.workdps():
        # downwards the stream divides by 1 - a q^k: a = q vanishes at k = -1
        # (the odd slice n = 1 sums its table and has no product side, which
        # an even slice takes first and which has its own pole at a = q)
        with pytest.raises(PoleError) as err:
            bilateral_pair_slice_sides(1, mp.mpf("0.5"), mp.mpf("0.1"), ctx)
        assert str(err.value) == ("denominator factor 1 - 0.5 q^(-1) of the "
                                  "bilateral term ratio vanished")
        # upwards it divides by 1 - b q^k: b = q^-2 vanishes at k = 2
        with pytest.raises(PoleError) as err:
            psi_1_1(mp.mpf(10), QPow(1, -2), mp.mpf("0.5"), ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "term ratio vanished")
        # (q;q)_-1 = 1/(1 - q q^-1)
        with pytest.raises(PoleError) as err:
            pochhammer_finite(mp.mpf("0.5"), mp.mpf("0.5"), -1)
        assert str(err.value) == ("denominator factor 1 - 0.5 q^(-1) of the "
                                  "(a;q)_-1 vanished")
        # a = q: at n = -3 the ratio divides by (q q^-3;q)_3, whose factor
        # 1 - q q^-1 vanishes
        with pytest.raises(PoleError) as err:
            pochhammer_ratio(QPow(1, 1), mp.mpf("0.6"), mp.mpf("0.5"), -3)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "(a;q)_-3/(b;q)_-3 vanished")
        # z = 2 q^(-1/2): z^2/4 = q^-1 meets the partial fraction at n = 1
        with pytest.raises(PoleError) as err:
            mittag_leffler_rhs(0, QPow(2, F(-1, 2)), ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "partial-fraction sum vanished")
        # 1 - a q^(step n) vanishes at n = 2, at n = 0 and at n = -1: the
        # pole sum runs in the base q^step, and names the factor in q
        for a, step, factor in [(QPow(16, 0), 2, "1 - 16.0 q^(4)"),
                                (QPow(4, 2), 3, "1 - 4.0 q^(2)"),
                                (QPow(mp.mpf("0.125"), 0), 3, "1 - 0.125 q^(-3)")]:
            with pytest.raises(PoleError) as err:
                qfunctions._pole_series(a, step, step * step, mp.mpf("0.6"), ctx)
            assert str(err.value) == f"denominator factor {factor} of the pole sum vanished"


def test_theta_prefactor_poles_are_pole_errors():
    # (a, q/a; q)_inf and (a^3, q^3/a^3; q^3)_inf divide the theta prefactors;
    # at a = q they vanish, and the PoleError names the factor: q/a = 1 at
    # q^0.  At a = q^30 the triple side's own pole sum has an infinite term
    # first, 1 - a^3 q^(3n) = 0 at n = -30, which its declared bound never
    # steps over, before the prefactor's q^3/a^3 = 2^87 at (q^3)^29
    ctx = QContext.numeric("0.5", precision=20)
    with ctx.workdps():
        a, x = mp.mpf("0.5"), mp.mpf("0.6")
        with pytest.raises(PoleError) as err:
            theta_pair_sides(a, x, ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "infinite product vanished")
        with pytest.raises(PoleError) as err:
            theta_triple_sides(QPow(1, 30), x, ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "pole sum vanished")
        # (b, q/a, z, b/(az); q)_inf divides the 1psi1 product side: b = q^-2
        with pytest.raises(PoleError) as err:
            psi_1_1_product(mp.mpf("0.8"), mp.mpf(4), mp.mpf("0.6"), ctx)
        assert str(err.value) == ("denominator factor 1 - 4.0 q^(2) of the "
                                  "infinite product vanished")


def test_square_master_transformation():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = square_master_sides(1, mp.mpf("0.5"), mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30
        lhs, rhs = square_master_sides(F(1, 2), mp.mpf("0.4"), mp.mpf("0.5"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_cube_master_transformation():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = cube_master_sides(1, mp.mpf("0.5"), mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_square_bilateral_master():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = square_bilateral_master_sides(
            1, mp.mpf("0.6"), mp.mpf("0.15"), mp.mpf("0.5"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_cube_bilateral_master_corrected_vs_literal():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = cube_bilateral_master_sides(
            1, mp.mpf("0.6"), mp.mpf("0.15"), mp.mpf("0.5"), ctx, corrected=True)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30
        lhs, rhs = cube_bilateral_master_sides(
            1, mp.mpf("0.6"), mp.mpf("0.15"), mp.mpf("0.5"), ctx, corrected=False)
        assert abs(lhs - rhs) > mp.mpf("0.1")  # as printed, the twist is missing


def test_theta_pair_identity():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = theta_pair_sides(mp.mpf("0.5"), mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_theta_pair_imaginary_specialization():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = theta_pair_imag_sides(mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -30


def test_theta_triple_identities():
    ctx = QContext.numeric("0.3", precision=40)
    with ctx.workdps():
        lhs, rhs = theta_triple_sides(mp.mpf("0.5"), mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -26
        lhs, rhs = theta_triple_sides(QPow(1, F(1, 3)), mp.mpf("0.6"), ctx,
                                      arrangement="split-left")
        assert abs(lhs - rhs) < mp.mpf(10) ** -26
        lhs, rhs = theta_triple_sides(QPow(-1, F(1, 3)), mp.mpf("0.6"), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -26


# the pole sums sum_n q^(alpha n^2) x^n / (1 - a q^(step n)) of the theta
# checks, as (a, step, alpha, x): the left sides of ms-13..17 at their
# points, and a complex a with x > 1
POLE_SERIES_SHAPES = {
    "ms-13": (QPow(mp.mpf("0.25"), 0), 2, 4, "0.36"),
    "ms-14": (QPow(-1, 1), 2, 4, "0.36"),
    "ms-15": (QPow(mp.mpf("0.125"), 0), 3, 9, "0.216"),
    "ms-16": (QPow(1, 1), 3, 9, "0.216"),
    "ms-17": (QPow(-1, 1), 3, 9, "0.216"),
    "complex-a-x>1": (QPow(mp.mpc("0.3", "0.4"), 2), 2, 2, "1.7"),
}
POLE_SERIES_QS = ["0.3", "-0.6", "0.9", "0.99", "0.2+0.1j", "0.5j"]


def _nsum_pole_series(q, a: QPow, step, alpha, x, digits):
    """The pole sum at the mp value q by mp.nsum, to ``digits`` digits of its
    value: summed again wider by the digits that its terms cancel."""
    cancelled = 0
    while True:
        with mp.workdps(digits + cancelled):
            c = to_mp(a.coeff) * q ** a.exponent

            def term(n):
                n = int(n)
                return q ** (alpha * n * n) * x ** n / (1 - c * q ** (step * n))

            value = mp.nsum(term, [-mp.inf, mp.inf])
            lost = int(mp.ceil(mp.log10(mp.nsum(lambda n: abs(term(n)), [-mp.inf, mp.inf])
                                        / abs(value))))
            if lost <= cancelled:
                return value
            cancelled = lost


def _pole_series_error(shape, q, precision):
    """The relative error of :func:`qfunctions._pole_series` at ``shape``."""
    a, step, alpha, x = shape
    ctx = QContext.numeric(q, precision=precision)
    x = mp.mpf(x)
    value = widening(lambda wide: qfunctions._pole_series(a, step, alpha, x, wide), ctx)
    exact = _nsum_pole_series(ctx.q, a, step, alpha, x, 2 * precision + 20)
    with mp.workdps(2 * precision + 20):
        return abs(value - exact) / abs(exact)


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", POLE_SERIES_QS)
@pytest.mark.parametrize("shape", sorted(POLE_SERIES_SHAPES))
def test_pole_series_matches_nsum(shape, q, precision):
    error = _pole_series_error(POLE_SERIES_SHAPES[shape], q, precision)
    assert error < mp.mpf(10) ** -(precision + 10)


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", POLE_SERIES_QS)
def test_pole_series_keeps_its_digits_where_its_terms_cancel(q, precision):
    # at x = -1.7 the terms cancel by up to 52 digits (at q = 0.99), more than
    # the guard digits: the sum is rerun wider and keeps the precision digits
    # that every sum promises
    shape = (QPow(mp.mpc("0.3", "0.4"), 2), 2, 2, "-1.7")
    assert _pole_series_error(shape, q, precision) < mp.mpf(10) ** -precision


# the five theta checks at the points of the registry, and at q = -0.6 with
# x = 0.7 inside the annulus guard |q| < |x| < 1
THETA_SIDES = {
    "ms-13": lambda x, ctx: theta_pair_sides(mp.mpf("0.5"), x, ctx),
    "ms-14": lambda x, ctx: theta_pair_imag_sides(x, ctx),
    "ms-15": lambda x, ctx: theta_triple_sides(mp.mpf("0.5"), x, ctx),
    "ms-16": lambda x, ctx: theta_triple_sides(QPow(1, F(1, 3)), x, ctx, "split-left"),
    "ms-17": lambda x, ctx: theta_triple_sides(QPow(-1, F(1, 3)), x, ctx),
}


@pytest.mark.parametrize("q, x", [("0.2", "0.6"), ("0.3", "0.6"), ("-0.6", "0.7"),
                                  ("0.2+0.1j", "0.6")])
def test_theta_checks_stop_on_no_observed_tail(q, x, monkeypatch):
    # every sum of ms-13..17 stops on a declared bound: the pole sums are
    # ratio streams, and the double and triple sums are slice sums
    observed, real = [], summation._observed_tail
    monkeypatch.setattr(summation, "_observed_tail",
                        lambda *args: observed.append(args) or real(*args))
    ctx = QContext.numeric(q, precision=50)
    for check, sides in THETA_SIDES.items():
        lhs, rhs = widening(lambda wide: sides(mp.mpf(x), wide), ctx)
        assert abs(lhs - rhs) < mp.mpf(10) ** -40 * abs(lhs), check
    assert not observed


def test_terminating_phi21_collapses_to_power():
    for m in range(7):
        for n in range(7):
            assert phi21_terminating_exact(m, n, F(1, 3)) == F(1, 3) ** (-m * n)


def test_gap_identity_at_complex_base():
    # no fractional q-power appears, so a complex base is fair game
    ctx = QContext.numeric(complex(0.2, 0.1), precision=50)
    with ctx.workdps():
        q = ctx.q
        lhs = u_m_bilateral(QPow(1, 0), 0, ctx)
        rhs = infinite_product([], [q, q ** 4], q ** 5, ctx)
        assert abs(lhs - rhs) < TOL


# ---------------------------------------------------------------------------
# term-ratio kernels against their per-term formulas
# ---------------------------------------------------------------------------
#
# Each oracle below recomputes term n from scratch with powq, the Pochhammer
# functions and x ** n, the way the kernels did before they carried running
# products.  Both go through the same summation engine, so they stop at the
# same term and must agree to the working precision.

ORACLE_TOL = mp.mpf(10) ** -60
Q1 = QPow(1, 1)
ORACLE_QS = pytest.mark.parametrize("q", ["0.3", COMPLEX_Q], ids=["real-q", "complex-q"])
ALPHAS = (F(1, 2), F(1, 3), F(1))


def old_phi_2_1(a, b, c, z, ctx):
    q = ctx.q
    return sum_series(lambda k: pochhammer_ratio(a, c, q, k)
                      * pochhammer_ratio(b, Q1, q, k) * z ** k, ctx)


def old_phi_1_1(a, b, z, ctx):
    q = ctx.q
    return sum_series(lambda k: pochhammer_ratio(a, b, q, k) / pochhammer_finite(q, q, k)
                      * (-1) ** k * powq(q, k * (k - 1) // 2) * z ** k, ctx)


def _tails(term):
    """The two tails of the bilateral series with terms ``term(n)``."""
    return term, lambda k: term(-1 - k)


def old_b_alpha(alpha, a, b, x, ctx):
    q = ctx.q
    return sum_bilateral(*_tails(lambda n: pochhammer_ratio(a, b, q, n)
                                 * powq(q, alpha * n * n) * x ** n), ctx)


def old_a_alpha(alpha, a, t, ctx):
    q = ctx.q
    return sum_series(lambda n: pochhammer_ratio(a, Q1, q, n)
                      * powq(q, alpha * n * n) * t ** n, ctx)


def old_u_m(a, m, ctx):
    q = ctx.q
    aq = a if isinstance(a, QPow) else QPow(a, 0)
    aq1 = QPow(aq.coeff, aq.exponent + 1)
    # 1/(aq;q)_n as (0;q)_n / (aq;q)_n: a finite product for n < 0, and a
    # PoleError, not a division by zero, where a factor of (aq;q)_n vanishes
    return sum_bilateral(*_tails(lambda n: powq(q, n * n + m * n)
                                 * pochhammer_ratio(0, aq1, q, n)), ctx)


def old_ramanujan_A(z, ctx):
    q = ctx.q
    return sum_series(lambda n: (-z) ** n * powq(q, n * n) / pochhammer_finite(q, q, n), ctx)


def _kernel_cases():
    a, b, c = mp.mpf("0.6"), mp.mpf("0.06"), mp.mpf("0.45")
    z, x, xc = mp.mpf("0.3"), mp.mpf("0.5"), mp.mpc("0.3", "0.4")
    cases = {
        "phi_2_1": lambda ctx: (phi_2_1(a, b, c, z, ctx), old_phi_2_1(a, b, c, z, ctx)),
        "phi_1_1": lambda ctx: (phi_1_1(a, b, z, ctx), old_phi_1_1(a, b, z, ctx)),
        "phi_1_1-qpow-b": lambda ctx: (phi_1_1(a, QPow(1, F(3, 2)), z, ctx),
                                       old_phi_1_1(a, QPow(1, F(3, 2)), z, ctx)),
        "psi_1_1": lambda ctx: (psi_1_1(a, b, z, ctx), old_b_alpha(0, a, b, z, ctx)),
        "psi_1_1-terminating-b=q^2": lambda ctx: (psi_1_1(a, QPow(1, 2), z, ctx),
                                                  old_b_alpha(0, a, QPow(1, 2), z, ctx)),
        "omega": lambda ctx: (omega(x, ctx), old_a_alpha(1, Q1, x, ctx)),
        "ramanujan_A": lambda ctx: (ramanujan_A(xc, ctx), old_ramanujan_A(xc, ctx)),
        "u_m": lambda ctx: (u_m_bilateral(a, 2, ctx), old_u_m(a, 2, ctx)),
        "u_m-dead-tail-a=1": lambda ctx: (u_m_bilateral(QPow(1, 0), 1, ctx),
                                          old_u_m(QPow(1, 0), 1, ctx)),
    }
    for alpha in ALPHAS:
        cases[f"b_alpha-{alpha}"] = (lambda al: lambda ctx: (
            b_alpha(al, a, b, xc, ctx), old_b_alpha(al, a, b, xc, ctx)))(alpha)
        cases[f"b_alpha-{alpha}-terminating-b=q^2"] = (lambda al: lambda ctx: (
            b_alpha(al, a, QPow(1, 2), x, ctx), old_b_alpha(al, a, QPow(1, 2), x, ctx)))(alpha)
        cases[f"a_alpha-{alpha}"] = (lambda al: lambda ctx: (
            a_alpha(al, QPow(c, F(1, 3)), xc, ctx),
            old_a_alpha(al, QPow(c, F(1, 3)), xc, ctx)))(alpha)
    return cases


KERNEL_CASES = _kernel_cases()


def _engine_outcomes(monkeypatch):
    """The list that collects every SumOutcome the kernels' engine calls
    return, in order: the kernels themselves return only values.  A
    bilateral sum is one engine call, whose one outcome counts the terms of
    both tails.  The oracles of this module (its own ``sum_series`` and
    ``sum_bilateral``) then sum under the ratio bounds that the kernel's
    last engine call declared, its last argument, so that both stop by the
    same rule, each tail of a bilateral one too."""
    seen, declared = [], [None]

    def kernel(*args, real):
        declared[0] = args[-1]
        seen.append(real(*args))
        return seen[-1]

    for name in ("sum_series", "sum_bilateral"):
        real = getattr(qfunctions, name)
        monkeypatch.setattr(qfunctions, name, lambda *args, real=real: kernel(*args, real=real))
        monkeypatch.setitem(globals(), name,
                            lambda *args, real=real: real(*args, declared[0]))
    return seen


@ORACLE_QS
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_per_term_oracle(case, q, monkeypatch):
    ctx = QContext.numeric(q, precision=50)
    outcomes = _engine_outcomes(monkeypatch)
    with ctx.workdps():
        new, old = KERNEL_CASES[case](ctx)
        assert outcomes[-1].terms_used == old.terms_used
        assert abs(new - old.value) <= ORACLE_TOL * abs(old.value)


POLE_CASES = {
    "phi_2_1-c=q^-2": lambda ctx: phi_2_1(mp.mpf("0.6"), mp.mpf("0.15"), QPow(1, -2),
                                          mp.mpf("0.5"), ctx),
    "psi_1_1-a=q^2": lambda ctx: psi_1_1(QPow(1, 2), QPow(1, 3), mp.mpf("0.3"), ctx),
    "b_alpha-a=q^2": lambda ctx: b_alpha(1, QPow(1, 2), mp.mpf("0.15"), mp.mpf("0.5"), ctx),
    "u_m-a=q^-2": lambda ctx: u_m_bilateral(QPow(1, -2), 0, ctx),
}
OLD_POLE_CASES = {
    "phi_2_1-c=q^-2": lambda ctx: old_phi_2_1(mp.mpf("0.6"), mp.mpf("0.15"), QPow(1, -2),
                                              mp.mpf("0.5"), ctx),
    "psi_1_1-a=q^2": lambda ctx: old_b_alpha(0, QPow(1, 2), QPow(1, 3), mp.mpf("0.3"), ctx),
    "b_alpha-a=q^2": lambda ctx: old_b_alpha(1, QPow(1, 2), mp.mpf("0.15"),
                                             mp.mpf("0.5"), ctx),
    "u_m-a=q^-2": lambda ctx: old_u_m(QPow(1, -2), 0, ctx),
}


@ORACLE_QS
@pytest.mark.parametrize("case", sorted(POLE_CASES))
def test_kernel_pole_raises_like_per_term_oracle(case, q):
    # the factor vanishes through its exact exponent, not through roundoff
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        with pytest.raises(PoleError):
            OLD_POLE_CASES[case](ctx)
        with pytest.raises(PoleError):
            POLE_CASES[case](ctx)


def old_square_bilateral_rhs(alpha, a, b, x, ctx):
    q = ctx.q

    def term(j):
        r = pochhammer_ratio(a, b, q, j)
        if r == 0:
            return mp.mpf(0)
        inner = b_alpha(alpha, a, b, x * powq(q, 2 * alpha * j), ctx)
        return r * powq(q, alpha * j * j) * (-x) ** j * inner

    return sum_bilateral(*_tails(term), ctx).value


def test_square_bilateral_outer_sum_matches_per_term_oracle():
    ctx = QContext.numeric("0.3", precision=50)
    a, b, x = mp.mpf("0.6"), mp.mpf("0.15"), mp.mpf("0.5")
    with ctx.workdps():
        _, rhs = square_bilateral_master_sides(F(1, 2), a, b, x, ctx)
        old = old_square_bilateral_rhs(F(1, 2), a, b, x, ctx)
        assert abs(rhs - old) <= ORACLE_TOL * abs(old)


def old_cube_bilateral_rhs(alpha, a, b, x, ctx, corrected=True):
    """ms-12's right side as printed: pref times the sum over s of C_s x^s
    q^(alpha s^2) B(twist x q^(2 alpha s)), C_s = sum over j + k = s of r_j
    w^k r_k for r_j = (a;q)_j/(b;q)_j and twist w^2 or 1, each term from
    scratch.  Past K = slice_truncation(|b/a|), r_-K is negligible, and so
    are the terms with |s| > K, which fall at the rate |b/a| both ways: j
    and k run down to -K, and s over |s| <= K."""
    q, w = ctx.q, rho_root(ctx)
    twist, K = (w ** 2 if corrected else 1), slice_truncation(b / a, ctx)
    r = cache(lambda j: pochhammer_ratio(a, b, q, j))

    def term(s):
        c = sum(r(j) * r(s - j) * w ** ((s - j) % 3) for j in range(-K, s + K + 1))
        inner = b_alpha(alpha, a, b, twist * x * powq(q, 2 * alpha * s), ctx)
        return c * powq(q, alpha * s * s) * x ** s * inner

    q3 = q ** 3
    pref = (infinite_product([q3, (b / a) ** 3], [b ** 3, q3 / a ** 3], q3, ctx)
            * infinite_product([b, q / a], [q, b / a], q, ctx) ** 3)
    return pref * sum(map(term, range(-K, K + 1)))


@ORACLE_QS
@pytest.mark.parametrize("corrected", [True, False], ids=["corrected", "literal"])
def test_cube_bilateral_outer_sum_matches_per_term_oracle(corrected, q):
    ctx = QContext.numeric(q, precision=50)
    a, b, x = mp.mpf("0.6"), mp.mpf("0.15"), mp.mpf("0.5")
    with ctx.workdps():
        _, rhs = cube_bilateral_master_sides(1, a, b, x, ctx, corrected)
        old = old_cube_bilateral_rhs(1, a, b, x, ctx, corrected)
        assert abs(rhs - old) <= ORACLE_TOL * abs(old)


def old_square_master_rhs(alpha, a, t, ctx):
    q = ctx.q
    return sum_series(lambda j: pochhammer_ratio(a, Q1, q, j) * powq(q, alpha * j * j)
                      * (-t) ** j * a_alpha(alpha, a, t * powq(q, 2 * alpha * j), ctx),
                      ctx).value


def old_cube_master_rhs(alpha, a, t, ctx):
    q, w = ctx.q, rho_root(ctx)
    s_max = 2
    while float(alpha) * s_max * s_max * float(-mp.log10(abs(q))) < ctx.precision + 8:
        s_max += 1
    r = [pochhammer_ratio(a, Q1, q, j) for j in range(s_max + 1)]
    return sum(sum(r[j] * r[s - j] * w ** ((s - j) % 3) for j in range(s + 1))
               * powq(q, alpha * s * s) * t ** s
               * a_alpha(alpha, a, w ** 2 * t * powq(q, 2 * alpha * s), ctx)
               for s in range(s_max + 1))


@ORACLE_QS
@pytest.mark.parametrize("alpha", [F(1, 2), F(1)], ids=["alpha=1/2", "alpha=1"])
def test_master_outer_sums_match_per_term_oracle(alpha, q):
    ctx = QContext.numeric(q, precision=50)
    a, t = mp.mpf("0.5"), mp.mpf("0.6")
    with ctx.workdps():
        _, rhs = square_master_sides(alpha, a, t, ctx)
        old = old_square_master_rhs(alpha, a, t, ctx)
        assert abs(rhs - old) <= ORACLE_TOL * abs(old)
        _, rhs = cube_master_sides(alpha, a, t, ctx)
        old = old_cube_master_rhs(alpha, a, t, ctx)
        assert abs(rhs - old) <= ORACLE_TOL * abs(old)


def old_ratio_dict(a, b, q, K):
    return {n: pochhammer_ratio(a, b, q, n) for n in range(-K, K + 1)}


def _slice_cutoff(n, a, b, ctx):
    q = ctx.q
    av, bv = (to_mp(v.coeff) * powq(q, v.exponent) if isinstance(v, QPow) else v
              for v in (a, b))
    return slice_truncation(bv / av, ctx) + abs(n)


def old_cube_slice_lhs(n, a, b, ctx):
    q, w = ctx.q, rho_root(ctx)
    K = _slice_cutoff(n, a, b, ctx)
    r = old_ratio_dict(a, b, q, K)
    lhs = mp.mpf(0)
    for m1 in range(-K, K + 1):
        for m2 in range(max(-K, n - m1 - K), min(K, n - m1 + K) + 1):
            l = n - m1 - m2
            lhs += r[m1] * w ** (m2 % 3) * r[m2] * w ** ((2 * l) % 3) * r[l]
    return lhs


def old_pair_slice_lhs(n, a, b, ctx):
    K = _slice_cutoff(n, a, b, ctx)
    r = old_ratio_dict(a, b, ctx.q, K)
    return sum((-1) ** ((n - j) % 2) * r[j] * r[n - j]
               for j in range(-K, K + 1) if abs(n - j) <= K)


def _theta_cutoffs(x, ctx):
    q = ctx.q
    return (slice_truncation(max(abs(x), abs(q / x)), ctx),
            int(mp.ceil(mp.sqrt((ctx.precision + 10) / (-mp.log10(abs(q)))))) + 2)


def old_theta_pair_rhs(a, x, ctx, imaginary=False):
    q = ctx.q
    K, s_max = _theta_cutoffs(x, ctx)
    if imaginary:
        @cache
        def inv(j):
            return 1 / (1 + mp.mpc(0, 1) * mp.sqrt(q) * q ** j)
    else:
        @cache
        def inv(j):
            return 1 / (1 - a * q ** j)
    return sum(q ** (s * s) * sum((-x) ** j * inv(j) * x ** (s - j) * inv(s - j)
                                  for j in range(-K, K + 1))
               for s in range(-s_max, s_max + 1))


def old_theta_triple_rhs(a, x, ctx):
    q, w = ctx.q, rho_root(ctx)
    K, s_max = _theta_cutoffs(x, ctx)
    wpow = (1, w, w * w)

    @cache
    def h(j):
        return x ** j / (1 - a * q ** j)

    conv12 = {}
    for m1 in range(-K, K + 1):
        for m2 in range(-K, K + 1):
            conv12[m1 + m2] = conv12.get(m1 + m2, 0) + h(m1) * wpow[m2 % 3] * h(m2)
    return sum(q ** (s * s) * sum(v * wpow[(2 * (s - m)) % 3] * h(s - m)
                                  for m, v in conv12.items())
               for s in range(-s_max, s_max + 1))


# The per-term oracles are slow in mpf, so they run at precision 20, which
# keeps the cutoffs short; both sides stop at the same cutoff and must agree
# far below it.
SLICE_PRECISION = 20
SLICE_TOL = mp.mpf(10) ** -(SLICE_PRECISION + 8)


# (a, b, pole): generic; b = q^2, where every r_n with n <= -2 is an exact
# zero; a = q^2, where (a;q)_n is infinite for n <= -2, a pole on both paths
# (with |b/a| < 1, so that the slice sum would converge without it)
SLICE_AB = {"": (mp.mpf("0.5"), mp.mpf("0.1"), False),
            "dead-tail-b=q^2-": (mp.mpf("0.5"), QPow(1, 2), False),
            "pole-a=q^2-": (QPow(1, 2), mp.mpf("0.05"), True)}
SLICE_CASES = [(kind + str(n), n, *ab) for kind, ab in SLICE_AB.items() for n in (0, 2, 3, 4)]


@pytest.mark.parametrize("n, a, b, pole", [case[1:] for case in SLICE_CASES],
                         ids=[case[0] for case in SLICE_CASES])
def test_bilateral_slice_convolutions_match_per_term_oracle(n, a, b, pole):
    ctx = QContext.numeric("0.3", precision=SLICE_PRECISION)
    with ctx.workdps():
        for sides, oracle in ((bilateral_cube_slice_sides, old_cube_slice_lhs),
                              (bilateral_pair_slice_sides, old_pair_slice_lhs)):
            if pole:
                with pytest.raises(PoleError):
                    oracle(n, a, b, ctx)
                with pytest.raises(PoleError):
                    sides(n, a, b, ctx)
                continue
            lhs, _ = sides(n, a, b, ctx)
            old = oracle(n, a, b, ctx)
            assert abs(lhs - old) <= SLICE_TOL * max(abs(old), 1)


@ORACLE_QS
def test_theta_slice_sums_match_per_term_oracle(q):
    ctx = QContext.numeric(q, precision=SLICE_PRECISION)
    a, x = mp.mpf("0.5"), mp.mpf("0.55")
    with ctx.workdps():
        _, rhs = theta_pair_sides(a, x, ctx)
        old = old_theta_pair_rhs(a, x, ctx)
        assert abs(rhs - old) <= SLICE_TOL * abs(old)
        _, rhs = theta_pair_imag_sides(x, ctx)
        old = old_theta_pair_rhs(None, x, ctx, imaginary=True)
        assert abs(rhs - old) <= SLICE_TOL * abs(old)
        _, rhs = theta_triple_sides(a, x, ctx, arrangement="split-left")
        old = old_theta_triple_rhs(a, x, ctx)
        assert abs(rhs - old) <= SLICE_TOL * abs(old)


# the pole tables' a: ms-13/15, ms-16, ms-17, and ms-14's 1 - a q^j = 1 + i q^(j+1/2)
THETA_CUTOFF_AS = {"a=0.5": lambda q: QPow(mp.mpf("0.5"), 0),
                   "a=q^(1/3)": lambda q: QPow(1, F(1, 3)),
                   "a=-q^(1/3)": lambda q: QPow(-1, F(1, 3)),
                   "ms-14": lambda q: QPow(-mp.mpc(0, 1) * mp.sqrt(q), 0)}
# a = 0.5 is the pole q^1 of t_-1 at q = 0.5
THETA_CUTOFF_CASES = [(q, a) for q in ("0.2", "0.5", "0.59", "-0.59")
                      for a in THETA_CUTOFF_AS if (q, a) != ("0.5", "a=0.5")]


@pytest.mark.parametrize("q, a", THETA_CUTOFF_CASES,
                         ids=[f"q={q}-{a}" for q, a in THETA_CUTOFF_CASES])
def test_theta_cutoff_stays_within_its_bound(q, a):
    # each slice on the cutoff table against the same slice on a table twice
    # as wide: the omitted part of slice n is at most the bound of
    # _theta_cutoff, 6 T^k (K + 1) |q|^(K - |n| + 1) / (1 - |q|)^2, with T
    # read off the cutoff table
    ctx = QContext.numeric(q, precision=SLICE_PRECISION)
    with ctx.workdps():
        q, x = ctx.q, mp.mpf("0.6")
        aq = THETA_CUTOFF_AS[a](q)
        K, s_max = qfunctions._theta_truncation(x, ctx), gaussian_truncation(1, ctx)
        ns = range(-s_max, s_max + 1)

        def table(K, k):
            return _pole_table(aq, K, k, ctx)

        for k, slices in ((2, _pair_slices), (3, _cube_slices)):
            narrow, wide = table(K, k), table(2 * K, k)
            for n in (ns[0], 0, ns[-1]):
                omitted = slices(narrow, [n])[0].to_mp() - slices(wide, [n])[0].to_mp()
                bound = _theta_cutoff(narrow, [n], [0.0])
                assert abs(omitted) <= mp.mpf(2) ** bound, (k, n)


# the bilateral tables of the cutoff check: the ratio tables of ms-3/4/5 and
# of ms-11/12, and a pole table of the theta sums (b None)
CUTOFF_TABLES = {"ratio-0.5-0.1": (mp.mpf("0.5"), mp.mpf("0.1")),
                 "ratio-0.6-0.15": (mp.mpf("0.6"), mp.mpf("0.15")),
                 "pole-0.5": (mp.mpf("0.5"), None)}
CUTOFF_QS = ("0.3", "-0.9", "0.9", "0.99", complex(0.7, 0.55))


@pytest.mark.parametrize("q", CUTOFF_QS, ids=str)
@pytest.mark.parametrize("table", CUTOFF_TABLES)
def test_cutoff_bound_holds_past_the_table(table, q):
    # what the cutoff |j| <= K omits from a slice, the slice on a table three
    # times as long less the slice on the cut table, stays below the bound of
    # _theta_cutoff, past-the-table factor included, at the start K of the
    # check and at K 4 and 8 below it.  The tables are floored to their
    # entries' last bit, 40 digits wider, so the difference is the omitted
    # part and not rounding.  The start is capped at 48: near |q| = 1 the
    # pole table's start runs to thousands of entries, too slow for cubes here.
    # The bound keeps 12 bits or more above the omitted part at every point
    # here, as its T^k and 6 (K + 1) / (1 - b)^2 are generous: so the test
    # also holds its two premises, that T bounds every entry of the long table
    # (|t_j| <= T, |t_-m| <= T b^m) and that the cut table holds every
    # |j| <= K, which a table cut one entry short breaks
    ctx = QContext.numeric(q, precision=SLICE_PRECISION)
    wide = QContext.numeric(q, precision=SLICE_PRECISION + 40)
    a, b = CUTOFF_TABLES[table]
    with wide.workdps():
        start = slice_truncation(abs(ctx.q) if b is None else b / a, ctx)

        def make(K, k):
            t = (_pole_table(QPow(a, 0), K, k, wide) if b is None
                 else _bilateral_ratio_array(QPow(a, 0), QPow(b, 0), K, k, wide))
            t.floor(t.last)
            return t

        for K in (min(start, 48) - d for d in (8, 4, 0)):
            for k, slices_of in ((2, _pair_slices), (3, _cube_slices)):
                cut, long = make(K, k), make(3 * K, k)
                assert (cut.lo, cut.hi, long.lo, long.hi) == (-K, K, -3 * K, 3 * K)
                top = slices._table_top(cut)
                assert all(mp.log(abs(v.to_mp()), 2) + min(j, 0) * cut.rate <= top
                           for j, v in enumerate(long.values, long.lo) if v), (K, k)
                for n in (0, 6):
                    omitted = slices_of(long, [n])[0].to_mp() - slices_of(cut, [n])[0].to_mp()
                    bound = _theta_cutoff(cut, [n], [0.0])
                    assert abs(omitted) <= mp.mpf(2) ** bound, (K, k, n)


# ---------------------------------------------------------------------------
# st-5.3's values A_q(x q^k), the entries the Gaussian pair sums are charged
# for, and mirrored self-convolutions
# ---------------------------------------------------------------------------

A6, B15 = mp.mpf("0.6"), mp.mpf("0.15")
X7 = mp.mpf("0.7")


def direct_entire(z, q):
    """A_q(z) = sum_n (-z)^n q^(n^2) / (q;q)_n at the current precision, the
    oracle of st-5.3's shifted values: each term its own power and its own
    mp.qp, summed until one falls 2^-10 ulp below the largest."""
    total = big = 0
    for n in count():
        term = (-z) ** n * q ** (n * n) / mp.qp(q, q, n)
        total, big = total + term, max(big, abs(term))
        if n > 2 and abs(term) < mp.eps * big / 1024:
            return total


def _assert_entire(got, z0, q, ks, precision):
    """Each got[k] is A_q(z0 q^k) within 10^-precision of its size, by
    :func:`direct_entire` at twice the digits."""
    with mp.workdps(2 * mp.mp.dps):
        for k in ks:
            want = direct_entire(z0 * q ** k, q)
            assert abs(to_mp(got[k]) - want) <= mp.mpf(10) ** -precision * abs(want), k


def _entire_values(ctx, n):
    """A_q(x q^k) for k < n, x = 0.7, read off st-5.3's one stream."""
    values = qpolynomials._shifted_entire_values(X7, ctx)
    return [values[k] for k in range(n)]


def _direct_entire_values(ctx, ks):
    """A_q(x q^k), x = 0.7, each one :func:`ramanujan_A` sum, at the ks."""
    with ctx.workdps():
        return {k: ramanujan_A(X7 * ctx.q ** k, ctx) for k in ks}


# the default point, negative, near-one and complex q
ORACLE_LATTICE_QS = ["0.3", "-0.6", "0.9", "0.2+0.1j"]


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ORACLE_LATTICE_QS)
def test_shifted_entire_values_match_the_direct_sums(q, precision):
    # each direct value keeps its digits relative to itself; the ladder that
    # st-5.3 reads is checked against its bounds by the majorant test below
    ctx = QContext.numeric(q, precision=precision)
    got = _direct_entire_values(ctx, range(24))
    with ctx.workdps():
        _assert_entire(got, X7, ctx.q, range(24), precision)


def test_shifted_entire_values_that_cancel_ask_for_more_bits():
    """At q = 0.99 A_q(x) cancels about 150 bits below its largest term,
    past the working width at precision 20: the first pass raises
    PrecisionLossError, naming the bits, and the wider rerun matches the
    direct sums at 110 digits, which the cancellation leaves over 60."""
    ctx = QContext.numeric("0.99", precision=20)
    ks = range(64, 68)
    with ctx.workdps():
        with pytest.raises(PrecisionLossError) as lost:
            ramanujan_A(X7, ctx)
        assert lost.value.bits > 80
        got = widening(lambda c: _direct_entire_values(c, [0, *ks]), ctx)
    with mp.workdps(55):  # the oracle at 110 digits
        _assert_entire(got, X7, ctx.q, ks, 20)


def test_shifted_entire_values_rerun_reads_wider_values(monkeypatch):
    """A PrecisionLossError in the first start value of st-5.3's ladder ends
    the first pass; the rerun builds a ladder of its own, both start values
    and every step at its wider width, and reads no kept narrow value."""
    made, ladders, real, real_ladder = [], [], qpolynomials.ramanujan_A, \
        qpolynomials._backward_ladder

    def short_once(z, ctx):
        made.append(ctx.fixed_bits)
        if len(made) == 1:
            raise PrecisionLossError("forced", 20)
        return real(z, ctx)

    def ladder(*args):
        ladders.append(args[-1].fixed_bits)
        return real_ladder(*args)

    monkeypatch.setattr(qpolynomials, "ramanujan_A", short_once)
    monkeypatch.setattr(qpolynomials, "_backward_ladder", ladder)
    rerun = CTX.wider(20 + RERUN_MARGIN_BITS)
    with keeping_values():
        got = widening(lambda c: _entire_values(c, 4), CTX)
    assert ladders == [CTX.fixed_bits, rerun.fixed_bits]
    wide = made[1]
    assert made[0] > CTX.fixed_bits and made[1:] == [wide, wide]
    assert wide > rerun.fixed_bits
    assert {v.wp for v in got} == {wide}
    with mp.workdps(100):
        for k in range(4):
            want = direct_entire(X7 * CTX.q ** k, CTX.q)
            assert abs(got[k].to_mp() - want) < mp.mpf(10) ** -50


def test_shifted_entire_values_keep_their_digits_relative_to_themselves():
    """At q = 0.995 the values A_q(0.7 q^k) lie near 2^-229, while st-5.3's
    outer weights reach about 2^200: at the first width the ladder's
    absolute bounds leave them no relative digit, so the stream raises
    PrecisionLossError naming the bits, and the check PASSes through the
    wider rerun, as it did on direct sums."""
    ctx = QContext.numeric("0.995", precision=20)
    values = qpolynomials._shifted_entire_values(X7, ctx)
    with pytest.raises(PrecisionLossError) as lost:
        values[0]
    assert lost.value.bits > 0
    report = run_check("st-5.3", "numeric", RunSettings(precision=20, q_values=("0.995",)))
    assert report.status == "PASS", report.note


# the points where a ladder's majorant lies far above its values, so that its
# stream asks for a wider rerun: the lattice near q = 1, the orders near q = -1
@pytest.mark.parametrize("q, reruns", [("0.3", ()), ("-0.6", ()), ("0.99", ("lattice",)),
                                       ("0.7+0.55j", ()), ("-0.99", ("orders",))])
def test_ladder_values_lie_within_their_majorant_bounds(q, reruns):
    """Every value of both ladders, the orders I^(2)_m(z) of bessel-gf and
    the lattice A_q(x q^k) of st-5.3, lies within its bound of the direct
    bessel_i or ramanujan_A value at 128 more bits, at the width whose
    ladder the stream (_ladder_stream) reads.  Every bound meets the
    stream's target, ctx.precision digits relative to the value, and the
    first width meets it except at the reruns.  The orders at positive q,
    where the majorant W_k is |I_k| to first order, also meet the ladder's
    own target, one unit of the fixed-point width relative to the value."""
    ctx = QContext.numeric(q, precision=20)
    need = bits_for_digits(ctx.precision)
    positive = ctx.q.imag == 0 and ctx.q > 0

    def check(name, make, direct, unit_target):
        def evaluate(c):
            ladder = make(c)
            _ladder_stream(ladder, lambda k: iter(()), c)[0]
            return c, ladder

        c, (values, bounds) = widening(evaluate, ctx)
        assert (c.fixed_bits > ctx.fixed_bits) == (name in reruns)
        wide = c.wider(128)
        assert len(values) == len(bounds) > 2
        for k, (v, bound) in enumerate(zip(values, bounds)):
            want = widening(lambda w: direct(k, w), wide)
            with wide.workdps():
                err = abs(v.to_mp() - want) - abs(want) * mp.ldexp(1, 8 - wide.fixed_bits)
                size = mp.log(abs(want), 2)
            assert err <= 2 ** bound, (name, k)
            assert bound <= size - need, (name, k)
            if unit_target:
                assert bound <= size - c.fixed_bits + 1, (name, k)

    with ctx.workdps():
        zv, tv = mp.mpf("1.5"), mp.mpf("0.4")
        check("orders", lambda c: qbessel._order_ladder(zv, tv, c),
              lambda m, c: qbessel.bessel_i(2, m, zv, c), positive)
        x = +X7  # at the working digits, as st-5.3 passes it
        check("lattice", lambda c: qpolynomials._entire_ladder(x, c),
              lambda k, c: ramanujan_A(x * c.q ** k, c), False)


def test_outer_pair_sums_are_charged_their_entries_roundings(monkeypatch):
    """The Gaussian pair sums of ms-7, ms-11, ms-13 and ms-14 pass the charge
    of slices._pair_charge for their entries' roundings to their check."""
    made, passed = [], []
    real_charge, real_floored = slices._pair_charge, slices._floored

    def charge(*args):
        made.append(real_charge(*args))
        return made[-1]

    def floored(t, evaluate, ctx, weight=0.0, charge=-math.inf):
        passed.append(charge)
        return real_floored(t, evaluate, ctx, weight, charge)

    monkeypatch.setattr(slices, "_pair_charge", charge)
    monkeypatch.setattr(slices, "_floored", floored)
    with CTX.workdps():
        square_master_sides(F(1, 2), A5, X6, CTX)
        square_bilateral_master_sides(1, A5, B1, X6, CTX)
        theta_pair_sides(A5, X6, CTX)
        theta_pair_imag_sides(X6, CTX)
    assert len(made) == 4 and passed == made and all(-math.inf < c < 0 for c in made)


# A unilateral table u_n = (a;q)_n/(q;q)_n y0^n read off its ratio stream,
# as the Gaussian sums of ms-7 and ms-8 read theirs, and the Gaussian weights
# g_m = q^(alpha m^2): each entry at index m within the R (m + 1)^2 roundings
# that the charge of a Gaussian pair sum (slices._pair_charge) assumes.

TABLE_QS = ["0.3", "-0.6", "0.99", "0.2+0.1j"]
TABLE_K = 40


def _stream_tables(ctx, alpha, y0=mp.mpf("0.5")):
    """{n: u_n} and {m: g_m} for 0 <= n, m <= TABLE_K, a = 0.6."""
    up = _Shared(_a_alpha_stream(QPow(A6, 0), 0, y0)(ctx.fixed_q))
    one = ctx.fixed_q.like(1)
    return ({n: up[n] for n in range(TABLE_K + 1)},
            dict(enumerate(islice(_gaussian(ctx.fixed_q, alpha, one), TABLE_K + 1))))


def _table_misses(u, g, ctx, alpha, y0=mp.mpf("0.5")):
    """The indices where an entry of the tables lies outside R (m + 1)^2
    roundings of mpmath's value at twice the digits."""
    misses = []
    with mp.workdps(2 * ctx.working_dps):
        q = ctx.fixed(ctx.q).to_mp()
        for n, v in u.items():
            exact = pochhammer_ratio(A6, Q1, q, n) * y0 ** n
            if abs(v.to_mp() - exact) > ROUNDINGS * (n + 1) ** 2 * mp.ldexp(abs(exact),
                                                                            1 - v.wp):
                misses.append(("u", n))
        for m, v in g.items():
            exact = powq(q, alpha * m * m)
            if abs(v.to_mp() - exact) > ROUNDINGS * (m + 1) ** 2 * mp.ldexp(abs(exact), 1 - v.wp):
                misses.append(("g", m))
    return misses


@pytest.mark.parametrize("q", TABLE_QS)
def test_lattice_tables_lie_within_their_roundings(q):
    ctx = QContext.numeric(q, precision=50)
    for alpha in (1, F(1, 3)):
        with ctx.workdps():
            u, g = _stream_tables(ctx, alpha)
            assert not _table_misses(u, g, ctx, alpha)
            # a Gaussian offset by one, q^(alpha (m + 1)^2), misses at every m
            offset = _gaussian(ctx.fixed_q, alpha, ctx.fixed_q.like(1), 1)
            off = dict(enumerate(islice(offset, TABLE_K + 1)))
            assert _table_misses({}, off, ctx, alpha) == [("g", m) for m in range(TABLE_K + 1)]


def _random_table(rnd, lo, size, wp, complex_values):
    def part():
        return rnd.choice((-1, 1)) * rnd.getrandbits(rnd.randint(1, wp))

    values = []
    for _ in range(size):
        if rnd.random() < 0.1:
            values.append(Fixed(0, 0 if complex_values else None, 0, wp))
        else:
            values.append(Fixed(part(), part() if complex_values else None,
                                rnd.randint(-3 * wp, wp), wp))
    return _Table(lo, values, 2, CTX)


def _strided_classes(t, n, m):
    """The exact sums over the full span of t_j t_{n-j} with n - j = c
    (mod m), c = 0, ..., m - 1, one strided dot product each: the unmirrored
    oracle of _class_sums."""
    lo, hi = _span(t, n)
    if hi < lo:
        return [(0, 0)] * m
    return [_conv(t, n, lo + (n - c - lo) % m, hi, m) for c in range(m)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_class_sums_are_the_strided_classes_bit_for_bit(complex_values, m):
    import random
    rnd = random.Random(20261018 + complex_values)
    for lo, size in ((-9, 19), (-4, 12), (0, 7)):
        t = _random_table(rnd, lo, size, CTX.fixed_bits, complex_values)
        for n in range(2 * t.lo - 2, 2 * t.hi + 3):
            assert _class_sums(t, n, m) == _strided_classes(t, n, m), n


def test_pair_slices_take_half_the_products(monkeypatch):
    # a real table: per slice at most ceil(span / 2) mantissa pairs, where the
    # two strided parity classes take the whole span
    t = _full_table(-6, 6, False, 20)
    pairs = []

    def counting_dot(xs, ys):
        xs, ys = list(xs), list(ys)
        pairs.append(min(len(xs), len(ys)))
        return real_dot(xs, ys)

    real_dot = slices._dot
    monkeypatch.setattr(slices, "_dot", counting_dot)
    total = 0
    for n in range(2 * t.lo - 2, 2 * t.hi + 3):
        pairs.clear()
        _pair_slices(t, [n])
        lo, hi = _span(t, n)
        assert sum(pairs) <= (hi - lo + 2) // 2, (n, pairs)
        total += sum(pairs)
    assert total == 78


# The slice layer against direct double and triple loops over the same table:
# a two-sided and a one-sided table, real and complex, every n from beyond
# the low end of the table's reach, over its edges, to beyond its high end.
# The entries are nonzero, the edge ones too, so a span that drops an index
# changes the edge slices.  Each table lies on the exponent that its floor
# bound chooses, about the working digits below the sum of its entries; the
# last table's entries span 3 wp bits, so its smallest ones floor to a few
# bits or to zero.
SLICE_CASES = [(-6, 6, False, 20), (-6, 6, True, 20), (0, 6, False, 20), (0, 6, True, 20),
               (-6, 6, False, 3 * CTX.fixed_bits // 2)]
SLICE_IDS = ["two-sided-real", "two-sided-complex", "one-sided-real", "one-sided-complex",
             "two-sided-real-floored"]
SLICE_TABLES = pytest.mark.parametrize("lo, hi, complex_values, spread", SLICE_CASES,
                                       ids=SLICE_IDS)
# the cube slices of the same tables at twist 2, under the same ids, and at twist 0
CUBE_SLICE_TABLES = pytest.mark.parametrize(
    "lo, hi, complex_values, spread, twist",
    [(*case, twist) for twist in (2, 0) for case in SLICE_CASES],
    ids=[name if twist == 2 else f"{name}-twist=0" for twist in (2, 0) for name in SLICE_IDS])


def _full_table(lo, hi, complex_values, spread):
    """Entries of full wp-bit mantissas between 2^-spread and 2^spread in
    size."""
    import random
    rnd = random.Random(20261019 + 7 * lo + complex_values)
    wp = CTX.fixed_bits

    def part():
        return rnd.choice((-1, 1)) * (rnd.getrandbits(wp - 1) | 1 << (wp - 1))

    return _Table(lo, [Fixed(part(), part() if complex_values else None,
                             rnd.randint(-wp - spread, -wp + spread), wp)
                       for _ in range(lo, hi + 1)], 2, CTX)


def _mantissas(t):
    """index -> (re, im) of the table's entries on its common exponent."""
    im = t.im or [0] * len(t.re)
    return {j: (t.re[j - t.lo], im[j - t.lo]) for j in range(t.lo, t.hi + 1)}


def _rounded_once(t, re, im):
    """An exact sum of products of two entries, rounded as one dot product."""
    e = 2 * t.E
    return _real(re, e, t.wp) if t.im is None else _complex(re, im, e, t.wp)


def _bits(x):
    return x.re, x.im, x.e


@SLICE_TABLES
def test_pair_slices_match_double_loop_bit_for_bit(lo, hi, complex_values, spread):
    t = _full_table(lo, hi, complex_values, spread)
    v = _mantissas(t)
    ns = range(2 * lo - 2, 2 * hi + 3)
    for n, got in zip(ns, _pair_slices(t, ns)):
        re = im = 0
        for j in v:
            if n - j in v:
                (a, b), (c, d), sign = v[j], v[n - j], (-1) ** (j % 2)
                re += sign * (a * c - b * d)
                im += sign * (a * d + b * c)
        assert _bits(got) == _bits(_rounded_once(t, re, im)), n
        # for odd n the terms j, k and k, j cancel: these entries are kept exactly
        assert bool(got) == (2 * lo <= n <= 2 * hi and n % 2 == 0), n


@CUBE_SLICE_TABLES
def test_cube_slices_match_triple_loop(lo, hi, complex_values, spread, twist):
    t = _full_table(lo, hi, complex_values, spread)
    v = _mantissas(t)
    w = CTX.fixed(rho_root(CTX))
    ns = range(3 * lo - 2, 3 * hi + 3)
    # the twisted reading takes no w; the literal one (twist 0) is x + y w
    for n, got in zip(ns, _cube_slices(t, ns, None if twist == 2 else w)):
        classes = [[0, 0] for _ in range(3)]  # P_s: the terms with k + twist l = s (mod 3)
        for j in v:
            for k in v:
                l = n - j - k
                if l in v:
                    (a, b), (c, d), (f, g) = v[j], v[k], v[l]
                    re, im = a * c - b * d, a * d + b * c
                    classes[(k + twist * l) % 3][0] += re * f - im * g
                    classes[(k + twist * l) % 3][1] += re * g + im * f
        (p0, i0), (p1, i1), (p2, i2) = classes
        # x + y w, x = P_0 - P_2 and y = P_1 - P_2
        (xr, xi), (yr, yi) = (p0 - p2, i0 - i2), (p1 - p2, i1 - i2)
        if twist == 2:
            # swapping k and l maps k + 2l to 2(k + 2l) (mod 3), which swaps
            # P_1 and P_2: y = 0, and the slice is x, exact, rounded once
            assert (yr, yi) == (0, 0), n
            want = t.rounded(xr, xi, 3 * t.E)
        else:
            # exact on w's mantissas (w.e < 0), then rounded once
            want = _complex((xr << -w.e) + yr * w.re - yi * w.im,
                            (xi << -w.e) + yr * w.im + yi * w.re, 3 * t.E + w.e, t.wp)
        assert _bits(got) == _bits(want), n
        # at twist 2 the cyclic shift of (j, k, l) permutes the classes when 3
        # does not divide n, so those slices are exact zeros
        assert bool(got) == (3 * lo <= n <= 3 * hi and (twist == 0 or n % 3 == 0)), n


def old_ratio_terms(nums, dens, q, step, growth, up=True):
    """The stream of _ratio_terms as it was before exact-1 factors left the
    loop: every factor is walked at every step."""
    wp, one = q.wp, q.like(1)
    k, dk = (0, 1) if up else (-1, -1)
    shift = q if up else 1 / q
    powers = [powq(q, c.exponent + k) * c.coeff for c in (*nums, *dens)]
    complex_terms = any(v.im is not None for v in (*powers, step, shift, growth))
    factors = [[c.exponent + k, parts(p), parts(one - c.coeff)]
               for c, p in zip((*nums, *dens), powers)]
    n_num = len(nums)
    hr, hi, he = parts(shift)
    gr, gi, ge = parts(growth)
    sr, si, se = parts(step)
    tr, ti, te = 1, 0, 0
    while True:
        fr, fi, fe, vr, vi, ve = 1, 0, 0, 1, 0, 0
        for i, f in enumerate(factors):
            e, (pr, pi, pe), exact = f
            xr, xi, xe = exact if e == 0 else one_minus(pr, pi, pe, wp)
            if i < n_num:
                if not (xr or xi) and not up:
                    zero = Fixed(0, 0 if complex_terms else None, 0, wp)
                    while True:
                        yield zero
                fr, fi, fe = fr * xr - fi * xi, fr * xi + fi * xr, fe + xe
            else:
                if not (xr or xi):
                    raise pole(dens[i - n_num].coeff, e,
                               "term ratio" if up else "bilateral term ratio")
                vr, vi, ve = vr * xr - vi * xi, vr * xi + vi * xr, ve + xe
            f[0] = e + dk
            f[1] = cut(pr * hr - pi * hi, pr * hi + pi * hr, pe + he, wp)
        if up:
            yield Fixed(tr, ti if complex_terms else None, te, wp)
        tr, ti = tr * fr - ti * fi, tr * fi + ti * fr
        tr, ti = tr * sr - ti * si, tr * si + ti * sr
        te += fe + se - ve
        if vi:
            tr, ti = tr * vr + ti * vi, ti * vr - tr * vi
            vr = vr * vr + vi * vi
        s, m = tr.bit_length(), ti.bit_length()
        s = wp + 1 + vr.bit_length() - (m if m > s else s)
        tr, ti, te = shifted(tr, s) // vr, shifted(ti, s) // vr, te - s
        if not up:
            yield Fixed(tr, ti if complex_terms else None, te, wp)
        k += dk
        sr, si, se = cut(sr * gr - si * gi, sr * gi + si * gr, se + ge, wp)


# (nums, dens, step, growth) as functions of the fixed q: a heine-like
# 2phi1 (four factors, one with a tiny coefficient that leaves early, one
# with a complex one), a psi11-like bilateral half with a Gaussian growth,
# and the kind-2 q-Bessel shape with a power of q as its only factor
DROP_STREAMS = {
    "2phi1": lambda q: ([QPow(mp.mpf("0.7"), 0), QPow(mp.mpf("1e-30"), 0)],
                        [QPow(mp.mpc("0.4", "0.3"), 0), _Q1], q.like(mp.mpf("0.6")), q.like(1)),
    "psi11-up": lambda q: ([QPow(mp.mpf("-0.45"), 0)], [QPow(mp.mpf("0.2"), 1)],
                           q.like(mp.mpf("0.9")) * q, q * q),
    "power-of-q": lambda q: ([], [QPow(1, 3)], q.like(mp.mpf("2.5")), q),
}


@pytest.mark.parametrize("q", ["0.2", "0.3", "-0.3", "0.99", complex(0.3, 0.2),
                               complex(0, 0.5)])
@pytest.mark.parametrize("stream", sorted(DROP_STREAMS))
def test_ratio_stream_drops_exact_factors_bit_for_bit(stream, q):
    """Upward factors that are exactly 1 leave the loop; no term moves a bit."""
    ctx = QContext.numeric(q, 20)
    qf = ctx.fixed(ctx.q)
    nums, dens, step, growth = DROP_STREAMS[stream](qf)
    new = _ratio_terms(nums, dens, qf, step, growth)
    old = old_ratio_terms(nums, dens, qf, step, growth)
    for n, (a, b) in enumerate(islice(zip(new, old), 3000)):
        assert _bits(a) == _bits(b), n


# upward streams of growth exactly 1, which carry their step as it is rather
# than multiply it by 1 and cut it on every step: a complex step, a negative
# one with a Fraction factor exponent (the kind-1 q-Bessel shape at nu = 1/2),
# and a psi11 upward half
UNIT_GROWTH_STREAMS = {
    "complex-step": lambda q: ([QPow(mp.mpf("0.6"), 0)], [_Q1], q.like(mp.mpc("0.6", "0.6")),
                               q.like(1)),
    "fraction-exponent": lambda q: ([], [_Q1, QPow(1, F(3, 2))], q.like(mp.mpf("-0.75")),
                                    powq(q, 0)),
    "psi11-up": lambda q: ([QPow(mp.mpf("0.6"), 0)], [QPow(mp.mpf("0.06"), 0)],
                           powq(q, 0) * q.like(mp.mpf("0.906")), powq(q, 0)),
}


@pytest.mark.parametrize("q", ["0.3", "-0.6", complex(0.2, 0.1), complex(0, 0.5)])
@pytest.mark.parametrize("stream", sorted(UNIT_GROWTH_STREAMS))
def test_unit_growth_stream_carries_its_step_bit_for_bit(stream, q):
    ctx = QContext.numeric(q, 50)
    qf = ctx.fixed(ctx.q)
    nums, dens, step, growth = UNIT_GROWTH_STREAMS[stream](qf)
    assert growth == 1
    new = _ratio_terms(nums, dens, qf, step, growth)
    old = old_ratio_terms(nums, dens, qf, step, growth)
    for n, (a, b) in enumerate(islice(zip(new, old), 1500)):
        assert _bits(a) == _bits(b), n


def _walk(stream, n):
    """The bits of the first n terms of a stream, and the error that ends it
    early, as (type, message), or None."""
    bits = []
    try:
        for t in islice(stream, n):
            bits.append(_bits(t))
    except PoleError as exc:
        return bits, (type(exc), str(exc))
    return bits, None


@st.composite
def _real_ratio_streams(draw):
    """The parameters of a ratio stream with every input real: q in
    (-1, 1), negative included, 0-4 numerator and 0-4 denominator QPows with
    Fraction exponents (half-integer ones at q > 0 only, where q^(1/2) is
    real) and some coefficients 1, a step, a growth of exactly 1 or another one, and a direction."""
    wp = draw(st.sampled_from([48, 96]))
    q = F(draw(st.integers(1, 19)), 20) * draw(st.sampled_from([1, -1]))
    halves = [1, 2] if q > 0 else [1]

    def qpow():
        # coefficient 1 makes the factor at q^0 exactly 0: a pole or a zero
        coeff = F(draw(st.integers(-40, 40)), draw(st.integers(1, 20))) if draw(
            st.integers(0, 3)) else F(1)
        return QPow(coeff, F(draw(st.integers(-6, 6)), draw(st.sampled_from(halves))))

    nums = [qpow() for _ in range(draw(st.integers(0, 4)))]
    dens = [qpow() for _ in range(draw(st.integers(0, 4)))]
    qf = Fixed.of(q, wp)
    step = qf.like(F(draw(st.integers(-30, 30)), 20))
    growth = qf.like(1) if draw(st.booleans()) else qf * qf.like(F(draw(st.integers(-20, 20)), 20))
    return nums, dens, qf, step, growth, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(_real_ratio_streams())
def test_real_ratio_stream_matches_the_complex_pair_walk_bit_for_bit(params):
    """With every input real, _ratio_terms walks one int per value; each term
    keeps every bit of the complex-pair walk, and a pole is raised at the
    same index with the same message."""
    new, new_end = _walk(_ratio_terms(*params), 300)
    old, old_end = _walk(old_ratio_terms(*params), 300)
    assert new == old
    assert new_end == old_end
    assert all(im is None for _, im, _ in new)


def test_real_ratio_stream_vanishing_numerator_yields_zeros_from_the_same_index():
    """Downwards, 1 - q^3 q^k is exactly 0 at k = -3: the third term and
    every later one are exact real zeros, as in the complex-pair walk."""
    qf = CTX.fixed(mp.mpf("-0.45"))
    params = [QPow(1, 3), QPow(mp.mpf("0.3"), 0)], [QPow(mp.mpf("0.2"), 1)], qf, qf.like(
        mp.mpf("0.7")), qf * qf, False
    new, old = (_walk(walk(*params), 40) for walk in (_ratio_terms, old_ratio_terms))
    assert new == old
    bits, end = new
    assert end is None and len(bits) == 40
    assert all(b[0] for b in bits[:2]) and bits[2:] == [(0, None, 0)] * 38


@pytest.mark.parametrize("up, exponent, where, index", [
    (True, -2, "term ratio", 2), (False, 2, "bilateral term ratio", 1)])
def test_real_ratio_stream_pole_is_raised_at_the_same_index(up, exponent, where, index):
    """1 - q^exponent q^k vanishes at k = -exponent: both walks raise that
    PoleError after the same number of terms."""
    qf = CTX.fixed(CTX.q)
    params = [QPow(mp.mpf("0.6"), 0)], [QPow(1, exponent)], qf, qf.like(mp.mpf("0.9")), qf, up
    new, old = (_walk(walk(*params), 40) for walk in (_ratio_terms, old_ratio_terms))
    assert new == old
    bits, (kind, message) = new
    assert len(bits) == index and kind is PoleError
    assert message == str(pole(1, 0, where))


@pytest.mark.parametrize("complex_input", ["q", "coeff", "step", "growth"])
def test_one_complex_input_makes_a_complex_stream(complex_input):
    """One complex input, whichever it is, makes every term complex
    (im not None), bit for bit the complex-pair walk."""
    ctx = QContext.numeric(COMPLEX_Q if complex_input == "q" else "0.3", 20)
    qf = ctx.fixed(ctx.q)
    z = qf.like(mp.mpc("0.5", "0.2"))
    nums = [QPow(z if complex_input == "coeff" else qf.like(mp.mpf("0.5")), 1)]
    step = z if complex_input == "step" else qf.like(mp.mpf("0.8"))
    growth = qf * z if complex_input == "growth" else qf
    params = nums, [_Q1], qf, step, growth
    new, old = (_walk(walk(*params), 200) for walk in (_ratio_terms, old_ratio_terms))
    assert new == old
    assert new[1] is None and all(im is not None for _, im, _ in new[0])


def fresh_ratio_table(a, b, K, ctx):
    """The table of _bilateral_ratio_array built from new streams."""
    up, down = _ratio_streams(a, b, 0, 1)(ctx.fixed(ctx.q))
    return _Table(-K, [*islice(down, K)][::-1] + [*islice(up, K + 1)], 3, ctx)


def _table_bits(t):
    return t.lo, t.hi, t.E, t.wp, t.re, t.im, t.reversed


@pytest.mark.parametrize("precision", [20, 50])
@pytest.mark.parametrize("q", ["0.3", "-0.3"])
def test_kept_ratio_tables_match_fresh_builds(q, precision, monkeypatch):
    """Every table a check reads comes from one kept pair of streams per
    context, bit for bit the table that new streams would give."""
    ab = QPow(mp.mpf("0.5"), 0), QPow(mp.mpf("0.1"), 0)
    base = QContext.numeric(q, precision)
    contexts = (base, base.wider(64))
    with base.workdps():
        fresh = {(c, K): _table_bits(fresh_ratio_table(*ab, K, c))
                 for c in contexts for K in range(8, 41)}
    builds, real = [], slices._ratio_streams

    def spy(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(slices, "_ratio_streams", spy)
    with keeping_values(), base.workdps():
        for Ks in (range(40, 7, -1), range(8, 41)):
            for c in contexts:
                for K in Ks:
                    assert _table_bits(_bilateral_ratio_array(*ab, K, 3, c)) == fresh[c, K], K
    assert len(builds) == len(contexts)    # one pair of streams per context


def test_kept_ratio_table_pole_reaches_every_read():
    """At q = a = 0.5 the downward stream divides by 1 - a/q: every table
    that reaches it raises the PoleError a fresh build raises."""
    ctx = QContext.numeric("0.5", 20)
    ab = QPow(mp.mpf("0.5"), 0), QPow(mp.mpf("0.1"), 0)
    with ctx.workdps():
        with pytest.raises(PoleError) as fresh:
            fresh_ratio_table(*ab, 8, ctx)
        with keeping_values():
            for K in (12, 8, 12, 20):
                with pytest.raises(PoleError) as kept:
                    _bilateral_ratio_array(*ab, K, 3, ctx)
                assert str(kept.value) == str(fresh.value)


# ---------------------------------------------------------------------------
# declared ratio bounds: every shape of _ratio_terms stream, and the direct
# lattice sums
# ---------------------------------------------------------------------------
#
# Each case sums one kernel's series; every tail it sums through the engine
# must declare a bound (summation._RatioBound).  The checks: every ratio
# |t(m + 1) / t(m)| of the terms read, and of the terms past the stop, lies
# within the declared rho(m), slack included, and rho does not rise; and
# the true tail after the stop, read on to a negligible term at twice the
# digits, sums in absolute value to at most the reported tail bound.  A sum
# that closed a tail on its geometric remainder reports no bound for it: its
# value lies within its rounding bound (and the other tail's bound) of the
# terms it read plus the true rest of its streams.

BOUND_QS = ["0.3", "-0.6", "0.99", "0.2+0.1j", "0.5j"]


def _bound_cases():
    a, b, c = mp.mpf("0.6"), mp.mpf("0.06"), mp.mpf("0.45")
    z, x = mp.mpf("0.3"), mp.mpf("0.5")
    cases = {
        "a_alpha": lambda ctx: a_alpha(F(1, 2), QPow(c, F(1, 3)), mp.mpc("0.3", "0.4"), ctx),
        "ramanujan_A": lambda ctx: ramanujan_A(mp.mpf("0.8"), ctx),
        "omega": lambda ctx: omega(x, ctx),
        "phi_1_1": lambda ctx: phi_1_1(a, b, z, ctx),
        "phi_2_1": lambda ctx: phi_2_1(a, b, c, z, ctx),
        "psi_1_1": lambda ctx: psi_1_1(a, b, z, ctx),
        "b_alpha": lambda ctx: b_alpha(1, a, b, x, ctx),
        "u_m_bilateral": lambda ctx: u_m_bilateral(x, 2, ctx),
        "bessel_series": lambda ctx: qbessel._bessel_series(F(1, 2), 1, z, ctx),
        # steps near the unit circle, whose sums close on their remainder:
        # real, negative, and a Fraction factor exponent nu + 1 (kind 1)
        "phi_2_1-z=0.9": lambda ctx: phi_2_1(a, b, c, mp.mpf("0.9"), ctx),
        "psi_1_1-z=-0.9": lambda ctx: psi_1_1(a, b, mp.mpf("-0.9"), ctx),
        "bessel_series-kind1": lambda ctx: qbessel._bessel_series(F(1, 2), 0, -x - x / 2,
                                                                  ctx),
        # the series at far points of a q-geometric lattice x q^(2 s)
        "lattice-unilateral-s=30": lambda ctx: a_alpha(1, a, z * ctx.q ** 60, ctx),
        # the theta pole sums, in the base q^step: a pair and a triple shape
        "pole_series-pair": lambda ctx: qfunctions._pole_series(
            QPow(mp.mpf("0.25"), 0), 2, 4, mp.mpf("0.36"), ctx),
        "pole_series-triple": lambda ctx: qfunctions._pole_series(
            QPow(-1, 1), 3, 9, mp.mpf("0.216"), ctx),
    }
    for s in (-30, 0, 30):
        cases[f"lattice-s={s}"] = (lambda s: lambda ctx: b_alpha(
            1, A6, B15, x * ctx.q ** (2 * s), ctx))(s)
    return cases


BOUND_CASES = _bound_cases()


def _declared_tails(run, ctx, extra):
    """(ratio, terms used, outcome, terms, precision) of each tail the last
    attempt of ``run`` sums within ``widening``: the terms it read and
    ``extra`` more from the same stream, and the mp precision its value is
    rounded to.  The two tails of a bilateral sum share the outcome of their
    one block."""
    tails, real = [], summation.sum_series

    def watched(term, ctx, ratio=None, then=None):
        read = [(term, ratio, [])] + ([(*then, [])] if then else [])
        taps = [(lambda k, term=term, seen=seen: seen.append(term(k)) or seen[-1], ratio)
                for term, ratio, seen in read]
        out = real(taps[0][0], ctx, ratio, then and taps[1])
        with ctx.workdps():
            prec = mp.mp.prec
        for term, ratio, seen in read:
            used = len(seen)
            seen += [term(k) for k in range(used, used + extra)]
            tails.append((ratio, used, out, seen, prec))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(summation, "sum_series", watched)
        patch.setattr(qfunctions, "sum_series", watched)
        widening(lambda wide: tails.clear() or run(wide), ctx)
    return tails


@pytest.mark.parametrize("q", BOUND_QS)
@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_declared_bound_holds_for_every_ratio_and_the_true_tail(case, q):
    tails = _declared_tails(BOUND_CASES[case], QContext.numeric(q, precision=20), 30)
    deep = _declared_tails(BOUND_CASES[case], QContext.numeric(q, precision=40), 1500)
    assert tails and len(deep) == len(tails)
    # per sum: its outcome, the true tails after the stops in absolute value,
    # the terms read plus those tails, the count of terms read, the last
    # term read on, and the precision of its value
    rests = {}
    for (ratio, used, out, seen, prec), (_, _, _, far, _) in zip(tails, deep):
        assert ratio is not None
        mags = [summation._log2(t) if t else None for t in seen]
        for m, (t, u) in enumerate(zip(mags, mags[1:])):
            # never below the floor on which sum_series skips its bound
            r, floor = ratio(m), ratio.low + ratio.slope * m
            assert r >= floor, m
            assert ratio(m + 1) <= ratio(m)
            if u is not None:
                assert t is not None and u - t <= ratio(m) or ratio(m) == math.inf, (m, u - t)
        with mp.workdps(60):
            rest = [abs(t.to_mp()) for t in far[used:]]
            entry = rests.setdefault(id(out), [out, 0, 0, 0, 0, prec])
            entry[1] += sum(rest)
            # the terms of the sum's own stream as far as they were read,
            # and of the deeper one only beyond: the two streams round their
            # inputs at different widths
            entry[2] += sum(t.to_mp() for t in seen) + sum(t.to_mp() for t in far[len(seen):])
            entry[3] += used
            entry[4] = max(entry[4], rest[-1])
    for out, rest, total, read, last, prec in rests.values():
        closed = out.terms_used > read  # a closed tail's remainder is one more term
        with mp.workdps(60):
            assert last < mp.mpf(10) ** -20 * (out.tail_bound or (out.error if closed
                                                                  else mp.mpf(10) ** -200))
            if closed:  # the value is its block sum rounded once to prec bits
                rounded = mp.ldexp(abs(out.value), 1 - prec)
                assert abs(out.value - total) <= out.error + out.tail_bound + rounded
            else:
                assert rest <= out.tail_bound


# ---------------------------------------------------------------------------
# floor bounds of the slice tables
# ---------------------------------------------------------------------------

def _recorded_checks(monkeypatch, sides):
    """(t, evaluate, weight, ctx, E, value, charge) of every _floored check
    that ``sides()`` makes, with the table's exponent and the value it
    returned."""
    checks, real = [], slices._floored

    def spy(t, evaluate, ctx, weight=0.0, charge=-math.inf):
        value = real(t, evaluate, ctx, weight, charge)
        checks.append((t, evaluate, weight, ctx, t.E, value, charge))
        return value

    monkeypatch.setattr(slices, "_floored", spy)
    sides()
    monkeypatch.undo()
    return checks


def _lost(t, value, weight):
    """Bits by which the floor bound times 2^weight exceeds |value|."""
    return t.bound() + weight - (value.top() - 1 if value else t.k * t.E)


FLOOR_CTX = QContext.numeric("0.3", precision=20)
A5, B1, X6 = mp.mpf("0.5"), mp.mpf("0.1"), mp.mpf("0.6")
# one sum of each kind: a pair and a cube slice of a ratio table (ms-3, ms-5),
# the Gaussian cube sums of ms-8 and ms-12, the Gaussian pair sums of ms-7
# and ms-11, and a pair and a cube theta sum (ms-13, ms-15)
FLOOR_SIDES = {
    "pair-slice": lambda ctx: bilateral_pair_slice_sides(2, A5, B1, ctx),
    "cube-slice": lambda ctx: bilateral_cube_slice_sides(3, A5, B1, ctx),
    "cube-master": lambda ctx: cube_master_sides(1, A5, X6, ctx),
    "cube-bilateral-master": lambda ctx: cube_bilateral_master_sides(1, A5, B1, X6, ctx),
    "square-master": lambda ctx: square_master_sides(1, A5, X6, ctx),
    "square-bilateral-master": lambda ctx: square_bilateral_master_sides(1, A5, B1, X6, ctx),
    "theta-pair": lambda ctx: theta_pair_sides(A5, X6, ctx),
    "theta-cube": lambda ctx: theta_triple_sides(A5, X6, ctx),
}


@pytest.mark.parametrize("kind", sorted(FLOOR_SIDES))
def test_an_exponent_one_wp_too_high_is_caught_by_the_bound(kind, monkeypatch):
    """Each sum checks its table's floor bound: on the chosen exponent the
    bound holds, one wp above it the bound misses the working digits of the
    value, and from there the check floors the table again and gives the
    value back."""
    ctx = FLOOR_CTX
    with ctx.workdps():
        checks = _recorded_checks(monkeypatch, lambda: FLOOR_SIDES[kind](ctx))
        assert checks
        for t, evaluate, weight, c, E, value, charge in checks:
            assert t.E == E and _lost(t, value, weight) <= -t.need
            t.floor(E + t.wp)
            assert _lost(t, evaluate(t), weight) > -t.need, kind
            again = slices._floored(t, evaluate, c, weight, charge)
            assert t.E < E + t.wp
            assert abs((again - value).to_mp()) <= 2 ** -t.need * abs(value.to_mp())


def test_a_sum_that_cancels_at_the_last_bit_asks_for_more_bits():
    """A pair slice that cancels exactly, not by symmetry (t_0^2 = 2 t_1
    t_-1), is floored down to the entries' last bit and then raises
    PrecisionLossError naming the bits it lacks; the tiny t_2 lies beyond
    the slice's reach and puts that last bit far below the first E."""
    wp = CTX.fixed_bits
    t = _Table(-1, [Fixed(2, None, 0, wp), Fixed(2, None, 0, wp), Fixed(1, None, 0, wp),
                    Fixed(1, None, -1000, wp)], 2, CTX)
    assert t.E > t.last
    with pytest.raises(PrecisionLossError) as lost:
        slices._floored(t, lambda t: _pair_slices(t, [0])[0], CTX)
    assert t.E == t.last and lost.value.bits > 0


def _theta_tables(monkeypatch):
    """The half-widths K of the bilateral tables, pole or ratio tables, that
    a Gaussian slice sum builds."""
    built, real = [], slices._Table

    def table(lo, values, k, ctx, ab=None):
        built.append(-lo)
        return real(lo, values, k, ctx, ab)

    monkeypatch.setattr(slices, "_Table", table)
    return built


@pytest.mark.parametrize("q", ["0.3", "0.59"])
@pytest.mark.parametrize("table", ["pair", "cube", "ms-11", "ms-12"])
def test_a_theta_table_cut_one_entry_short_is_caught_by_the_bound(table, q, monkeypatch):
    """The least K whose cutoff bound holds builds one table; one entry
    shorter, the check misses the bound and grows the table to it or past,
    for the pair and cube pole tables of the theta sums and the pair and
    cube ratio tables of ms-11 and ms-12 alike."""
    ctx = QContext.numeric(q, precision=20)
    k, slices_of = (2, _pair_slices) if table in ("pair", "ms-11") else (3, _cube_slices)
    with ctx.workdps():
        aq, bq = QPow(A5, 0), QPow(B1, 0)
        if table in ("pair", "cube"):
            K = qfunctions._theta_truncation(X6, ctx)

            def make(K):
                return slices._pole_table(aq, K, k, ctx)
        else:
            K = slice_truncation(B1 / A5, ctx) + gaussian_truncation(1, ctx)

            def make(K):
                return _bilateral_ratio_array(aq, bq, K, k, ctx)
        built = _theta_tables(monkeypatch)

        def tables(K):
            built.clear()
            slices._gaussian_slices(make, slices_of, 1, X6, K, ctx)
            return list(built)

        low, high = 1, max(tables(K))  # the cutoff bound holds at high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if tables(mid) == [mid] else (mid, high)
        assert tables(high) == [high]
        short = tables(high - 1)
        assert short[0] == high - 1 and len(short) > 1 and short[-1] >= high


def _gaussian_sum_shapes(ctx, pairs, cubes):
    """{shape: sum(M)}: one Gaussian-weighted slice sum of each shape, started
    at the Gaussian cutoff M, as the master and theta sides build them, with
    the slice functions ``pairs`` and ``cubes``."""
    qf, one, aq = ctx.fixed_q, ctx.fixed_q.like(1), QPow(A5, 0)
    r = _Shared(_ratio_terms([aq], [_Q1], qf, one, one))

    def theta(k, slices_of):
        return lambda M: slices._gaussian_slices(
            lambda K: slices._pole_table(aq, K, k, ctx), slices_of, 1, X6,
            qfunctions._theta_truncation(X6, ctx), ctx)

    def unilateral(k, slices_of, alpha):
        return lambda M: slices._gaussian_slices(
            lambda K: _Table(0, map(r.__getitem__, range(K + 1)), k, ctx), slices_of, alpha, X6,
            None, ctx, stream=r)

    def bilateral(k, slices_of):
        return lambda M: slices._gaussian_slices(
            lambda K: _bilateral_ratio_array(aq, QPow(B1, 0), K, k, ctx), slices_of, 1, X6,
            slice_truncation(B1 / A5, ctx) + M, ctx)

    return {
        "ms-7": unilateral(2, pairs, F(1, 2)),
        "ms-8": unilateral(3, cubes, 1),
        "ms-11": bilateral(2, pairs),
        "ms-12": bilateral(3, cubes),
        "theta-pair": theta(2, pairs),
        "theta-cube": theta(3, cubes),
    }


@pytest.mark.parametrize("shape", ["ms-7", "ms-8", "ms-11", "ms-12", "theta-pair", "theta-cube"])
def test_a_gaussian_cutoff_one_weight_short_is_caught_by_the_bound(shape, monkeypatch):
    """The least Gaussian cutoff M whose bound holds sums its slices once;
    one weight shorter, the check misses the bound and grows M to it or
    past, for the unilateral and bilateral pair and cube sums of ms-7, ms-8,
    ms-11 and ms-12 and the pair and cube pole sums of the theta identities
    alike."""
    ctx = QContext.numeric("0.3", precision=20)
    seen = set()  # the last weight index of every slice evaluation

    def recording(real):
        def slices_of(t, ns):
            seen.add(ns[-1])
            return real(t, ns)
        return slices_of

    with ctx.workdps():
        total = _gaussian_sum_shapes(ctx, recording(_pair_slices),
                                     recording(_cube_slices))[shape]

        def cutoffs(M):
            seen.clear()
            monkeypatch.setattr(slices, "gaussian_truncation", lambda alpha, ctx: M)
            total(M)
            return sorted(seen)

        low, high = 1, max(cutoffs(2))  # the cutoff bound holds at high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (low, mid) if cutoffs(mid) == [mid] else (mid, high)
        assert cutoffs(high) == [high]
        assert max(cutoffs(high - 1)) >= high


FLOOR_WP = CTX.fixed_bits


@st.composite
def _floor_tables(draw):
    """A table of random real or complex entries with mantissas of up to wp
    bits and exponents spread over 3 wp, some of them zero."""
    complex_values = draw(st.booleans())
    size = draw(st.integers(1, 12))
    lo = draw(st.integers(-6, 3))

    def part():
        return draw(st.integers(-(1 << FLOOR_WP) + 1, (1 << FLOOR_WP) - 1)) >> draw(
            st.integers(0, FLOOR_WP - 1))

    values = [Fixed(part(), part() if complex_values else None,
                    draw(st.integers(-2 * FLOOR_WP, FLOOR_WP)), FLOOR_WP)
              for _ in range(size)]
    return lo, values


@settings(max_examples=60, deadline=None)
@given(_floor_tables())
def test_class_sums_floor_error_stays_within_the_bound(table):
    """The class sums of a pair table on its chosen exponent, against the
    exact ones at the entries' last bit: the floor errors of all classes
    together stay within the table's bound."""
    lo, values = table
    t, exact = _Table(lo, values, 2, CTX), _Table(lo, values, 2, CTX)
    exact.floor(exact.last)
    shift = 2 * (t.E - exact.last)
    for m in (2, 3):
        for n in range(2 * t.lo - 1, 2 * t.hi + 2):
            errors = []
            for (re, im), (xr, xi) in zip(_class_sums(t, n, m), _class_sums(exact, n, m)):
                er, ei = shifted(re, shift) - xr, shifted(im, shift) - xi
                if er or ei:
                    errors.append(0.5 * math.log2(er * er + ei * ei) + 2 * exact.last)
            assert _log2_sum(errors) <= t.bound() + 1e-9, (m, n)
