"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them inline);
the test names mirror the criteria.
"""

import importlib.util
import json
import pathlib
import time
from fractions import Fraction

import mpmath as mp

from qrr import QContext, QPow, widening
from qrr.formal import FormalSeries
from qrr.harness import RunSettings, SuiteConfig, run_check, run_suite
from qrr.harness.report import emit_report
from qrr.harness.runner import run_info
from qrr.pochhammer import q_binomial
from qrr.partitions import box_gf, series_vs_partitions
from qrr.qbessel import (asymptotic_main_term, bessel_i, gen_func_sides,
                         i1_continued, lommel_relation_sides,
                         mittag_leffler_rhs, special_value_sides)
from qrr.qfunctions import (cube_convolution_sides, pair_convolution_sides,
                            rr_product_formal, rr_sum_formal)
from qrr.qpolynomials import (bilateral_m_version_sides, c_poly, d_poly,
                              mform_diff_formal, schur_a, schur_b,
                              st_5_6_even_diff_formal, st_5_6_odd_formal,
                              st_5_7_diff_formal, st_5_8_diff_formal,
                              sw_functional_sides)

F = Fraction
RC = RunSettings()


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_gap_identities_formal_order_100_under_10s():
    start = time.perf_counter()
    ctx = QContext.formal(order=100, base_exponent=12)  # default ring: D = 12
    assert (rr_sum_formal(0, ctx) - rr_product_formal(1, ctx)).is_zero()
    assert (rr_sum_formal(1, ctx) - rr_product_formal(2, ctx)).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok(f"gap identities coefficient-exact through q^100 ({elapsed:.2f}s)")


def test_m_shifted_identity_formal_order_80():
    ctx = QContext.formal(order=80, base_exponent=1)
    zero = FormalSeries(ctx.base_exponent, ctx.u_order)
    for m in range(11):
        assert mform_diff_formal(m, ctx).first_difference(zero) is None, m
    # the closed forms feeding the check specialize correctly
    for m in range(13):
        assert c_poly(m).specialize_a(1) == schur_a(m)
        assert d_poly(m).specialize_a(1) == schur_b(m)
    _ok("m-shifted identity exact through q^80 for m = 0..10")


def test_partition_equinumerosity_and_box_counts():
    assert series_vs_partitions("RR1", 40)
    assert series_vs_partitions("RR2", 40)
    for k in range(0, 15):
        for m in range(0, 15 - k):
            assert box_gf(k, m) == q_binomial(k + m, k), (k, m)
    _ok("partition counts match coefficients (n <= 40; boxes k+m <= 14)")


def test_bessel_special_values_to_1e40():
    tol = mp.mpf(10) ** -40
    worst = mp.mpf(0)
    for q in ("0.2", "0.5"):
        ctx = QContext.numeric(q, precision=50)
        with ctx.workdps():
            for nu in (F(0), F(1, 2), F(27, 10)):
                for n in range(11):
                    for variant in (4, 5):
                        lhs, rhs = special_value_sides(variant, nu, n, ctx)
                        dev = abs(lhs - rhs) / max(mp.mpf(1), abs(lhs), abs(rhs))
                        worst = max(worst, dev)
    assert worst < tol, mp.nstr(worst, 5)
    _ok(f"special values residual {mp.nstr(worst, 3)} < 1e-40")


def test_generating_function_and_pole_expansion_to_1e35():
    tol = mp.mpf(10) ** -35
    worst = mp.mpf(0)
    ctx = QContext.numeric("0.3", precision=50)
    with ctx.workdps():
        for z, t in ((mp.mpf(1), mp.mpf(1)), (mp.mpf("0.8"), mp.mpf(-2))):
            lhs, rhs = gen_func_sides(z, t, ctx)
            worst = max(worst, abs(lhs - rhs) / max(mp.mpf(1), abs(lhs)))
    ctx = QContext.numeric("0.25", precision=50)
    with ctx.workdps():
        for nu, z in ((F(0), mp.mpf(1)), (F(1), mp.mpf(3))):  # z=3 > 2
            dev = abs(mittag_leffler_rhs(nu, z, ctx) - i1_continued(nu, z, ctx))
            worst = max(worst, dev)
    assert worst < tol, mp.nstr(worst, 5)
    _ok(f"order generating function and pole expansion: {mp.nstr(worst, 3)} < 1e-35")


def test_recurrence_pair_system():
    for n in range(21):
        assert c_poly(n, "recurrence") == c_poly(n, "explicit") \
            == c_poly(n, "generating")
        assert d_poly(n, "recurrence") == d_poly(n, "explicit") \
            == d_poly(n, "generating")
    tol = mp.mpf(10) ** -38
    ctx = QContext.numeric("0.3", precision=50)
    worst = mp.mpf(0)
    for a in ("0.5", QPow(1, 0), "1.5"):
        for m in range(9):
            # the right side's difference cancels: rerun deeper where it does
            lhs, rhs = widening(lambda wide: bilateral_m_version_sides(
                a if isinstance(a, QPow) else mp.mpf(a), m, wide), ctx)
            worst = max(worst, abs(lhs - rhs))
    assert worst < tol, mp.nstr(worst, 5)
    _ok("recurrence pair: three-way equality (n <= 20), specialization, "
        f"bilateral residual {mp.nstr(worst, 3)} < 1e-38")


def test_convolution_lemma_exact_and_masters_numeric():
    for a in (F(1, 3), F(2, 7), F(5, 4)):
        for n in range(31):
            lhs, rhs = pair_convolution_sides(n, a, F(1, 2))
            assert lhs == rhs
            lhs, rhs = cube_convolution_sides(n, a, F(1, 3))
            assert lhs == rhs
    tol = mp.mpf(10) ** -25
    ids = ["ms-3", "ms-5", "ms-7", "ms-8", "ms-11", "ms-12", "ms-13",
           "ms-14", "ms-15", "ms-16", "ms-17"]
    for eid in ids:
        rep = run_check(eid, "numeric", RC)
        assert rep.status in ("PASS", "DISCREPANCY_DOCUMENTED"), (eid, rep)
        assert mp.mpf(rep.max_abs_deviation) < tol, (eid, rep.max_abs_deviation)
    _ok("finite convolutions exact (n <= 30); bilateral/master residuals < 1e-25")


def test_ladder_functional_and_inversion():
    ctx = QContext.numeric("0.3", precision=50)
    tol = mp.mpf(10) ** -38
    with ctx.workdps():
        worst = max(abs(lhs - rhs) for lhs, rhs in
                    (lommel_relation_sides(n, F(2, 5), mp.mpf("1.5"), ctx) for n in range(7)))
    assert worst < tol, mp.nstr(worst, 5)
    for k in range(5):
        for n in range(6):
            lhs, rhs = sw_functional_sides(k, F(2, 5), n, F(1, 4), F(1, 2))
            assert lhs == rhs
    inv = run_check("sw-inversion", "exact", RC)
    assert inv.status in ("PASS", "DISCREPANCY_DOCUMENTED")
    assert inv.status == "DISCREPANCY_DOCUMENTED", \
        "corrected reading passes, printed reading does not"
    _ok(f"ladder residual {mp.nstr(worst, 3)} < 1e-38; functional equation "
        f"exact; inversion outcome recorded as {inv.status}")


def test_product_series_kernels_each_mode():
    outcomes = {}
    for eid in ("st-5.1", "st-5.2", "st-5.3", "st-5.4", "st-5.5",
                "st-5.6-even", "st-5.6-odd", "st-5.7", "st-5.8", "st-5.9",
                "st-10", "sw-hermite", "hermite-gf", "poisson-kernel",
                "GFhn0"):
        from qrr.harness import get_entry
        for mode in get_entry(eid).modes:
            rep = run_check(eid, mode, RC)
            outcomes[(eid, mode)] = rep.status
            assert rep.status in ("PASS", "DISCREPANCY_DOCUMENTED"), (eid, rep)
    # the lattice special values are coefficient-exact in the series ring
    fctx = QContext.formal(order=50, base_exponent=1)
    for n in range(6):
        assert st_5_6_even_diff_formal(n, fctx).is_zero()
        assert st_5_6_odd_formal(n, fctx).is_zero()
    fctx4 = QContext.formal(order=40, base_exponent=4)
    for n in range(9):
        assert st_5_7_diff_formal(n, fctx4).is_zero()
        assert st_5_8_diff_formal(n, fctx4).is_zero()
    assert outcomes[("st-5.3", "numeric")] == "PASS"  # recorded: holds as printed
    _ok("product/series kernels pass in their designated modes; "
        "special values coefficient-exact; S_n-over-A expansion recorded PASS")


def test_main_term_trend():
    ctx = QContext.numeric("0.5", precision=50)
    with ctx.workdps():
        prev = None
        for j in range(4, 11):
            r = mp.mpf(2) ** j
            dev = abs(bessel_i(2, 0, r, ctx)
                      / asymptotic_main_term(0, r, ctx) - 1)
            if prev is not None:
                assert dev < prev, f"not strictly decreasing at j={j}"
            prev = dev
    _ok("large-argument main term: relative deviation strictly decreasing "
        "along r = q^{-j}, j = 4..10")


def test_full_default_suite_under_15_minutes_no_failures():
    start = time.perf_counter()
    reports, summary, exit_code = run_suite(SuiteConfig())
    elapsed = time.perf_counter() - start
    bad = [(r.id, r.mode, r.status, r.note) for r in reports
           if r.status not in ("PASS", "DISCREPANCY_DOCUMENTED")]
    assert not bad, bad
    assert exit_code == 0
    assert elapsed < 900, f"suite took {elapsed:.0f}s"
    report = json.loads(emit_report(reports, run_info(SuiteConfig())))
    golden = GOLDEN / "default.json"
    moved = _golden_compare().differences(json.loads(golden.read_text()), report)
    assert not moved, "\n".join(moved)
    _ok(f"full default suite: {summary} in {elapsed:.0f}s (< 900s), "
        "all PASS or DISCREPANCY_DOCUMENTED, report as in tests/golden/default.json")


GOLDEN = pathlib.Path(__file__).parent / "golden"


def _golden_compare():
    """The comparison script of the golden reports, as a module."""
    spec = importlib.util.spec_from_file_location("golden_compare", GOLDEN / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
