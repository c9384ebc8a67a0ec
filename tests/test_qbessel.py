"""Modified q-Bessel functions: special points, continuation, expansions."""

import contextlib
import random
from fractions import Fraction

import mpmath as mp
import pytest

from qrr import DomainError, PoleError, PrecisionLossError, QContext, QPow, qbessel, qfunctions
from qrr.context import keeping_values, powq, widening
from qrr.pochhammer import infinite_product
from qrr.qbessel import (asymptotic_main_term, bessel_i, bessel_j,
                         gen_func_sides, i1_continued, lommel_relation_j_sides,
                         lommel_relation_sides, mittag_leffler_rhs,
                         special_value_sides, sv_series_form_values)
from qrr.summation import sum_bilateral, sum_series

CTX = QContext.numeric("0.3", precision=50)
TOL = mp.mpf(10) ** -40
F = Fraction


def rel_dev(a, b):
    return abs(a - b) / max(mp.mpf(1), abs(a), abs(b))


def test_zero_argument_zero_order():
    assert bessel_i(2, 0, mp.mpf(0), CTX) == 1
    assert bessel_i(2, 3, mp.mpf(0), CTX) == 0


def test_unit_special_value():
    # order 0 at argument 2: 1/(q;q)_inf
    with CTX.workdps():
        v = bessel_i(2, 0, mp.mpf(2), CTX)
        ref = infinite_product([], [CTX.q], CTX.q, CTX)
        assert abs(v - ref) < TOL


def test_kind1_equals_continuation_inside_disk():
    with CTX.workdps():
        v1 = bessel_i(1, F(1, 2), mp.mpf("1.2"), CTX)
        v2 = i1_continued(F(1, 2), mp.mpf("1.2"), CTX)
        assert abs(v1 - v2) < TOL


def test_kind1_domain_error_outside_disk():
    with pytest.raises(DomainError):
        bessel_i(1, 0, mp.mpf("2.5"), CTX)


def test_negative_integer_order_reflection():
    with CTX.workdps():
        for m in (1, 2, 5):
            for kind in (1, 2):
                d = abs(bessel_i(kind, -m, mp.mpf("1.1"), CTX)
                        - bessel_i(kind, m, mp.mpf("1.1"), CTX))
                assert d == 0


def test_kind3_series_against_direct_oracle():
    with CTX.workdps():
        q = CTX.q
        z = mp.mpf("0.8")
        direct = mp.mpf(0)  # order 0: denominators (q;q)_n (q;q)_n
        for n in range(60):
            direct += (q ** (n * (n - 1) // 2) * (z / 2) ** (2 * n)
                       / (mp.qp(q, q, n) * mp.qp(q, q, n)))
        assert abs(bessel_i(3, 0, z, CTX) - direct) < TOL


def test_continuation_pole_detection():
    with pytest.raises(PoleError):
        i1_continued(0, QPow(2, F(-1, 2)), CTX)


def test_special_values_both_variants():
    with CTX.workdps():
        for variant in (4, 5):
            lhs, rhs = special_value_sides(variant, F(7, 10), 3, CTX)
            assert rel_dev(lhs, rhs) < TOL


def test_special_value_trivial_order_zero():
    with CTX.workdps():
        lhs, rhs = special_value_sides(4, F(7, 10), 0, CTX)
        assert rel_dev(lhs, rhs) < TOL


def test_series_form_of_special_values():
    with CTX.workdps():
        for n in range(9):
            s, f4, f5 = sv_series_form_values(F(7, 10), n, CTX)
            assert abs(s - f4) < TOL and abs(s - f5) < TOL


def test_generating_function_sides():
    with CTX.workdps():
        lhs, rhs = gen_func_sides(mp.mpf(1), mp.mpf(1), CTX)
        assert abs(lhs - rhs) < mp.mpf(10) ** -35
    ctx25 = QContext.numeric("0.25", precision=50)
    with ctx25.workdps():
        lhs, rhs = gen_func_sides(mp.mpf("0.8"), mp.mpf(-2), ctx25)
        assert abs(lhs - rhs) < mp.mpf(10) ** -35


def test_generating_function_degenerate_argument():
    with CTX.workdps():
        lhs, rhs = gen_func_sides(mp.mpf(0), mp.mpf("0.7"), CTX)
        assert lhs == 1 and rhs == 1
    with pytest.raises(DomainError):
        gen_func_sides(mp.mpf(1), mp.mpf(0), CTX)


@pytest.mark.parametrize("scope", [contextlib.nullcontext, keeping_values])
def test_rerun_widens_the_inner_bessel_values(scope, monkeypatch):
    # at q = 0.99, z = 0.8, t = -2 the outer sum cancels: the rerun must
    # evaluate its inner I_m^{(2)} values at the wider width too, not only
    # the outer stream, and inside a scope must not read the narrow values
    log, evaluated, walked = [], [], []
    real_i, real_walk = qbessel.bessel_i, qbessel._bessel_series

    def inner(kind, nu, z, ctx):
        log.append((ctx.fixed_bits, abs(nu)))
        return real_i(kind, nu, z, ctx)

    def walk(nu, alpha, x, ctx):
        walked.append((ctx.fixed_bits, nu))
        return real_walk(nu, alpha, x, ctx)

    def watched(engine):
        def run(*args):
            try:
                return engine(*args)
            except PrecisionLossError:
                log.append("loss")
                raise
        return run

    # one z for every width: parsed anew inside evaluate, it would differ
    # with each width's digits, and no narrower kept value could be read
    z = mp.mpf("0.8")

    def evaluate(ctx):
        evaluated.append(ctx.fixed_bits)
        return gen_func_sides(z, mp.mpf(-2), ctx)

    monkeypatch.setattr(qbessel, "bessel_i", inner)
    monkeypatch.setattr(qbessel, "_bessel_series", walk)
    for name in ("sum_series", "sum_bilateral"):
        monkeypatch.setattr(qfunctions, name, watched(getattr(qfunctions, name)))
    ctx = QContext.numeric("0.99", precision=20)
    with scope():
        widening(evaluate, ctx)
    first = log.index("loss")
    rerun = [call for call in log[first:] if call != "loss"]
    widths = {w for w, _ in rerun}
    assert widths and min(widths) > ctx.fixed_bits
    assert widths <= set(evaluated[1:])
    # each inner value a rerun reads is walked at that rerun's width
    assert set(rerun) <= set(walked)


def test_mittag_leffler_matches_continuation():
    with CTX.workdps():
        d = abs(mittag_leffler_rhs(0, mp.mpf(1), CTX)
                - i1_continued(0, mp.mpf(1), CTX))
        assert d < mp.mpf(10) ** -35
    ctx25 = QContext.numeric("0.25", precision=50)
    with ctx25.workdps():
        # outside the kind-1 disk: the expansion continues it
        d = abs(mittag_leffler_rhs(1, mp.mpf(3), ctx25)
                - i1_continued(1, mp.mpf(3), ctx25))
        assert d < mp.mpf(10) ** -35
        d = abs(mittag_leffler_rhs(2, mp.mpf(3), ctx25)
                - i1_continued(2, mp.mpf(3), ctx25))
        assert d < mp.mpf(10) ** -35


def test_mittag_leffler_pole():
    with pytest.raises(PoleError):
        mittag_leffler_rhs(0, QPow(2, F(-1, 2)), CTX)


def test_main_term_positive_and_finite():
    ctx = QContext.numeric("0.5", precision=50)
    with ctx.workdps():
        v = asymptotic_main_term(0, mp.mpf(10), ctx)
        assert v > 0 and mp.isfinite(v)


def test_main_term_relative_deviation_decreases():
    ctx = QContext.numeric("0.5", precision=50)
    with ctx.workdps():
        prev = None
        for j in range(4, 11):
            r = mp.mpf(2) ** j  # r = q^{-j} at q = 1/2
            dev = abs(bessel_i(2, 0, r, ctx) / asymptotic_main_term(0, r, ctx) - 1)
            if prev is not None:
                assert dev < prev, f"deviation did not shrink at j={j}"
            prev = dev


def test_rotation_between_i_and_j():
    rnd = random.Random(11)
    with CTX.workdps():
        i = mp.mpc(0, 1)
        for _ in range(10):
            nu = F(rnd.randint(1, 60), 20)
            z = mp.mpf(rnd.randint(2, 18)) / 10
            for kind in (1, 2):
                lhs = bessel_i(kind, nu, z, CTX)
                rot = (mp.e ** (-i * mp.pi * mp.mpf(nu.numerator)
                                / nu.denominator / 2)
                       * bessel_j(kind, nu, i * z, CTX))
                assert abs(lhs - rot) < TOL


def _gap(sides):
    lhs, rhs = sides
    return abs(lhs - rhs)


def test_ladder_relation():
    with CTX.workdps():
        assert _gap(lommel_relation_sides(0, F(2, 5), mp.mpf("1.5"), CTX)) == 0
        for n in range(1, 7):
            assert _gap(lommel_relation_sides(n, F(2, 5), mp.mpf("1.5"), CTX)) \
                < mp.mpf(10) ** -38


def test_ladder_relation_alternating_form():
    with CTX.workdps():
        for n in range(1, 5):
            assert _gap(lommel_relation_j_sides(n, F(2, 5), mp.mpf("1.5"), CTX)) \
                < mp.mpf(10) ** -38


# ---------------------------------------------------------------------------
# term-ratio series against their per-term formulas
# ---------------------------------------------------------------------------
#
# Each oracle recomputes term n from scratch with mp.qp and plain powers, the
# way the series were written before they carried running products.  Both go
# through the same summation engine, so they stop at the same term and must
# agree to the working precision.

ORACLE_TOL = mp.mpf(10) ** -58
ORACLE_QS = pytest.mark.parametrize("q", ["0.2", "0.3"])


def rel(new, old):
    return abs(new - old) / abs(old)


def old_bessel(kind, nu, z, sign, ctx):
    """(z/2)^nu (q^{nu+1};q)_inf/(q;q)_inf sum_n q^{w(n)} (sign z^2/4)^n
    / ((q;q)_n (q^{nu+1};q)_n); integer orders m of either sign use
    sum_{n >= max(0, -m)} q^{w(n)} (z/2)^{m+2n} / ((q;q)_n (q;q)_{n+m})."""
    q, half = ctx.q, z / 2
    w = {1: lambda n: 0, 2: lambda n: n * (n + nu),
         3: lambda n: F(n * (n - 1), 2)}[kind]
    if nu.denominator == 1:
        m = int(nu)
        n0 = max(0, -m)
        return sum_series(lambda i: (powq(q, w(n0 + i)) * half ** (m + 2 * n0 + 2 * i)
                                     * sign ** (n0 + i) / (mp.qp(q, q, n0 + i)
                                                           * mp.qp(q, q, n0 + i + m))),
                          ctx).value
    qnu1 = powq(q, nu + 1)
    series = sum_series(lambda n: (powq(q, w(n)) * (sign * half ** 2) ** n
                                   / (mp.qp(q, q, n) * mp.qp(qnu1, q, n))), ctx).value
    return (mp.power(half, mp.mpf(nu.numerator) / nu.denominator)
            * mp.qp(qnu1, q) / mp.qp(q, q) * series)


def old_sw(n, x, q):
    """S_n(x; q) with its Gaussian binomials built of mp.qp."""
    qq = [mp.qp(q, q, j) for j in range(n + 1)]
    return sum(q ** (k * k) * (-x) ** k / (qq[k] * qq[n - k]) for k in range(n + 1))


BESSEL_ORDERS = (F(0), F(3), F(-2), F(7, 10), F(1, 2), F(3, 2))


@ORACLE_QS
@pytest.mark.parametrize("kind, nu", [(k, nu) for k in (1, 2, 3) for nu in BESSEL_ORDERS
                                      if k < 3 or nu >= 0], ids=str)
def test_bessel_i_matches_per_term_oracle(kind, nu, q):
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        # kind 1 decays only geometrically, so its oracle is the slow one
        for z in (mp.mpf("0.8"),) if kind == 1 else (mp.mpf("0.8"), mp.mpf("1.9")):
            assert rel(bessel_i(kind, nu, z, ctx),
                       old_bessel(kind, nu, z, 1, ctx)) <= ORACLE_TOL


@pytest.mark.parametrize("kind", (1, 2))
@pytest.mark.parametrize("nu", (F(0), F(3), F(7, 10)), ids=str)
def test_bessel_j_matches_per_term_oracle(kind, nu):
    with CTX.workdps():
        for z in (mp.mpf("0.8"), mp.mpc("0.3", "0.9")):
            assert rel(bessel_j(kind, nu, z, CTX),
                       old_bessel(kind, nu, z, -1, CTX)) <= ORACLE_TOL


def test_bessel_j_negative_integer_order_is_a_pole():
    with pytest.raises(PoleError):
        bessel_j(2, -2, mp.mpf("0.8"), CTX)


@ORACLE_QS
def test_sv_series_forms_match_per_term_oracle(q):
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        q = ctx.q
        for nu, n in ((F(7, 10), 0), (F(7, 10), 5), (F(3, 2), 8)):
            qnu1 = powq(q, nu + 1)
            series = sum_series(lambda k: powq(q, k * (k + nu - n))
                                / (mp.qp(q, q, k) * mp.qp(qnu1, q, k)), ctx).value

            def finite(e):
                return sum(mp.qp(q, q, n) / (mp.qp(q, q, k) * mp.qp(q, q, n - k))
                           * powq(q, e(k)) for k in range(n + 1)) / mp.qp(qnu1, q)

            old = (series, powq(q, n * nu) * finite(lambda k: k * k - k * (nu + n)),
                   finite(lambda k: k * k + k * (nu - n)))
            for new, ref in zip(sv_series_form_values(nu, n, ctx), old):
                assert rel(new, ref) <= ORACLE_TOL


@ORACLE_QS
def test_generating_function_matches_per_term_oracle(q):
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        q = ctx.q
        for z, t in ((mp.mpf(1), mp.mpf(1)), (mp.mpf("0.8"), mp.mpf(-2)),
                     (mp.mpf("1.5"), mp.mpf("0.4"))):
            def term(m):
                return q ** (m * (m - 1) // 2) * bessel_i(2, m, z, ctx) * t ** m

            old = sum_bilateral(term, lambda k: term(-1 - k), ctx).value
            assert rel(gen_func_sides(z, t, ctx)[0], old) <= ORACLE_TOL


@pytest.mark.parametrize("q, nu, z", [("0.3", F(0), "1"), ("0.3", F(1, 2), "1"),
                                      ("0.25", F(1), "3"), ("0.25", F(2), "3")])
def test_mittag_leffler_matches_per_term_oracle(q, nu, z):
    ctx = QContext.numeric(q, precision=50)
    with ctx.workdps():
        q, z = ctx.q, mp.mpf(z)
        qnu = powq(q, nu)
        series = sum_series(lambda n: (-1) ** n * q ** (n * (n + 1) // 2)
                            * old_sw(n, -qnu * q ** -n, q) / (1 - z * z * q ** n / 4),
                            ctx).value
        old = (mp.power(z / 2, mp.mpf(nu.numerator) / nu.denominator)
               / mp.qp(q, q) ** 2 * series)
        assert rel(mittag_leffler_rhs(nu, z, ctx), old) <= ORACLE_TOL
