"""Hypergeometric, bilateral, and convolution-identity evaluators."""

from fractions import Fraction
from functools import cache

import mpmath as mp
import pytest

from qrr import (AnnulusError, DomainError, EisensteinRational, PoleError,
                 PrecisionLossError, QContext, QPow, qfunctions)
from qrr.context import powq, to_mp
from qrr.fixedpoint import Fixed
from qrr.harness.driver import COMPLEX_Q
from qrr.pochhammer import (infinite_product, inv_pochhammer, pochhammer_finite,
                            pochhammer_ratio)
from qrr.qfunctions import (RERUN_MARGIN_BITS, _a_alpha_stream, _conv_w,
                            _cube_weights, _Lattice, _ratio_streams, _self_conv_w,
                            _Table, a_alpha, a_alpha_formal, b_alpha,
                            bilateral_cube_slice_sides,
                            bilateral_pair_slice_sides, cube_convolution_sides,
                            cube_bilateral_master_sides, cube_master_sides,
                            heine_sides, omega, omega_formal,
                            pair_convolution_sides, phi21_terminating_exact,
                            phi_1_1, phi_2_1, psi_1_1, psi_1_1_product,
                            ramanujan_A, ramanujan_A_formal, rho_root,
                            ratio_truncation, rr_product_formal, rr_sum_formal,
                            slice_truncation, square_bilateral_master_sides,
                            square_master_sides, theta_pair_imag_sides,
                            theta_pair_sides, theta_triple_sides,
                            u_m_bilateral)
from qrr.summation import sum_bilateral, sum_series

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


def test_pole_messages_name_the_vanishing_factor():
    ctx = QContext.numeric("0.5", precision=20)
    with ctx.workdps():
        # downwards the stream divides by 1 - a q^k: a = q vanishes at k = -1
        with pytest.raises(PoleError) as err:
            bilateral_pair_slice_sides(0, mp.mpf("0.5"), mp.mpf("0.1"), ctx)
        assert str(err.value) == ("denominator factor 1 - 0.5 q^(-1) of the "
                                  "bilateral term ratio vanished")
        # upwards it divides by 1 - b q^k: b = q^-2 vanishes at k = 2
        with pytest.raises(PoleError) as err:
            psi_1_1(mp.mpf(10), QPow(1, -2), mp.mpf("0.5"), ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "term ratio vanished")


def test_theta_prefactor_poles_are_pole_errors():
    # (a, q/a; q)_inf and (a^3, q^3/a^3; q^3)_inf divide the theta prefactors;
    # at a = q and a = q^30 they vanish, and the PoleError names the factor:
    # q/a = 1 at q^0, and q^3/a^3 = 2^87 at (q^3)^29
    ctx = QContext.numeric("0.5", precision=20)
    with ctx.workdps():
        a, x = mp.mpf("0.5"), mp.mpf("0.6")
        with pytest.raises(PoleError) as err:
            theta_pair_sides(a, x, ctx)
        assert str(err.value) == ("denominator factor 1 - 1.0 q^(0) of the "
                                  "infinite product vanished")
        with pytest.raises(PoleError) as err:
            theta_triple_sides(QPow(1, 30), x, ctx)
        assert str(err.value) == ("denominator factor 1 - 1.547425e+26 q^(29) of the "
                                  "infinite product vanished")
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
    return sum_bilateral(*_tails(lambda n: powq(q, n * n + m * n)
                                 * inv_pochhammer(aq1, q, n)), ctx)


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
    return, in order: the kernels themselves return only values."""
    seen = []
    for name in ("sum_series", "sum_bilateral"):
        real = getattr(qfunctions, name)
        monkeypatch.setattr(qfunctions, name,
                            lambda *args, real=real: seen.append(real(*args)) or seen[-1])
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
    return ratio_truncation(av, bv, q, ctx) + abs(n)


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


# ---------------------------------------------------------------------------
# lattices of inner sums and mirrored self-convolutions
# ---------------------------------------------------------------------------

LATTICE_S = (-107, -1, 0, 1, 107)
LATTICE_Y0 = pytest.mark.parametrize("twisted", [False, True], ids=["y0=0.5", "y0=w^2*0.5"])
LATTICE_PRECISIONS = pytest.mark.parametrize("precision", [20, 50, 100])
A6, B15 = mp.mpf("0.6"), mp.mpf("0.15")


def _lattice_y0(ctx, twisted):
    return (rho_root(ctx) ** 2 if twisted else 1) * mp.mpf("0.5")


@ORACLE_QS
@LATTICE_PRECISIONS
@LATTICE_Y0
def test_b_lattice_matches_b_alpha(precision, twisted, q):
    ctx = QContext.numeric(q, precision=precision)
    with ctx.workdps():
        y0 = _lattice_y0(ctx, twisted)
        lattice = _Lattice(_ratio_streams(QPow(A6, 0), QPow(B15, 0), F(1), y0), 2, ctx,
                           bilateral=True)
        for s in LATTICE_S:
            direct = b_alpha(1, A6, B15, y0 * powq(ctx.q, 2 * s), ctx)
            got = lattice.sum(s)
            assert abs(got - direct) <= mp.mpf(10) ** -precision * abs(direct), s


@LATTICE_PRECISIONS
@LATTICE_Y0
def test_a_lattice_matches_a_alpha(precision, twisted):
    ctx = QContext.numeric("0.3", precision=precision)
    with ctx.workdps():
        y0 = _lattice_y0(ctx, twisted)
        lattice = _Lattice(_a_alpha_stream(QPow(A6, 0), F(1), y0), 2, ctx)
        for s in LATTICE_S:
            direct = a_alpha(1, A6, y0 * powq(ctx.q, 2 * s), ctx)
            got = lattice.sum(s)
            assert abs(got - direct) <= mp.mpf(10) ** -precision * abs(direct), s


def test_lattice_pole_reaches_every_reader():
    # (b;q)_4 vanishes at b = q^-3: the shared stream ends in a PoleError,
    # which a second reader must see too, not a finished generator
    with CTX.workdps():
        with pytest.raises(PoleError):
            b_alpha(1, A6, QPow(1, -3), mp.mpf("0.5"), CTX)
        lattice = _Lattice(_ratio_streams(QPow(A6, 0), QPow(1, -3), F(1), mp.mpf("0.5")), 2,
                           CTX, bilateral=True)
        for s in (0, 5):
            with pytest.raises(PoleError):
                lattice.sum(s)


def test_lattice_rerun_rebuilds_its_tables_wider(monkeypatch):
    forced, seen = [], []
    real = qfunctions.sum_bilateral

    def short_once(pos, neg, ctx):
        if not forced:
            forced.append(1)
            raise PrecisionLossError("forced", 20)

        def watched(tail):
            def term(k):
                t = tail(k)
                seen.append(t.wp)
                return t
            return term

        return real(watched(pos), watched(neg), ctx)

    monkeypatch.setattr(qfunctions, "sum_bilateral", short_once)
    wp = CTX.fixed_bits
    wide = wp + 20 + RERUN_MARGIN_BITS
    with CTX.workdps():
        y0 = _lattice_y0(CTX, True)
        lattice = _Lattice(_ratio_streams(QPow(A6, 0), QPow(B15, 0), F(1), y0), 2, CTX,
                           bilateral=True)
        got = lattice.sum(3)
        assert sorted(lattice.tables) == [wp, wide]
        for shared in lattice.tables[wide]:
            assert shared.terms and {c.wp for c in shared.terms} == {wide}
        assert set(seen) == {wide}
        monkeypatch.setattr(qfunctions, "sum_bilateral", real)
        direct = b_alpha(1, A6, B15, y0 * powq(CTX.q, 6), CTX)
        assert abs(got - direct) <= mp.mpf(10) ** -50 * abs(direct)


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
    return _Table(lo, values)


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_self_conv_w_is_conv_w_bit_for_bit(complex_values):
    import random
    rnd = random.Random(20261018 + complex_values)
    wpow = _cube_weights(CTX)
    for lo, size in ((-9, 19), (-4, 12), (0, 7)):
        f = _random_table(rnd, lo, size, CTX.fixed_bits, complex_values)
        for n in range(2 * f.lo, 2 * f.hi + 1):
            first, last = max(f.lo, n - f.hi), min(f.hi, n - f.lo)
            for d in range(4):
                got = _self_conv_w(f, n, first + d, last - d, wpow)
                want = _conv_w(f, f, n, first + d, last - d, wpow)
                assert (got.re, got.im, got.e) == (want.re, want.im, want.e), (n, d)
    with pytest.raises(ValueError):
        _self_conv_w(f, 0, -3, 4, wpow)
