"""Registry of every checked identity, declared as data.

Each entry re-verifies one displayed identity by evaluating its two sides
through independent code paths (they share only the primitive layer).  Per
mode (formal, exact, numeric) an entry declares a :class:`.driver.Check`:
its sides callable, the grid or sampler of points and, for the
DISCREPANCY_DOCUMENTED entries, the literal reading with its own points.
Every value a sides callable passes on to a kernel comes from its point, so
the points are the one declaration of what a check evaluates, and the
report's ``params`` are derived from the points that ran.  Two checks choose
their arguments from q itself and keep them inside: ``bessel-asymptotic``
(r = 2^j) and ``bessel-ml``.  ``domains`` holds only true limits, each with
its reason; a point outside them raises the kernel's declared exception,
which the report carries as a SKIPPED note.  A numeric check runs at each
configured q, real or complex, unless its entry sets ``fixed_q``; those of
``bessel-sv-4/5`` keep q > 0 for a reason their ``domains`` give.
:func:`.driver.run_entry` runs every entry the same way, at one tolerance.
Numeric constants are written as strings, Fractions or QPows, so that they
become numbers inside the working precision and never at import.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

import mpmath as mp

from ..context import scaled_deviation, to_mp
from ..errors import UnknownIdentityError
from ..pochhammer import QPow, infinite_product
from .. import partitions as parts, qbessel as qb, qfunctions as qf
from .. import qpolynomials as qp, slices as sl
from .driver import LITERAL, Check, IdentityEntry, Reading, Verdict, grid
from .sampling import (annulus_pair, distinct_rationals, rational_in,
                       rational_nonzero)

F = Fraction


def _each(count, draw):
    """Sampler: ``count`` independent draws per round."""
    return lambda rng: [draw(rng) for _ in range(count)]


def _distinct(name, lo, hi, avoid=()):
    """Sampler: three distinct rationals in (lo, hi), drawn under ``name``."""
    return lambda rng: [{name: v} for v in
                        distinct_rationals(rng, 3, lo, hi, avoid=avoid)]


# ---------------------------------------------------------------------------
# sides that do not fit one expression
# ---------------------------------------------------------------------------

def _rr_checks(which: int) -> dict:
    return dict(
        formal=Check(lambda ctx: (qf.rr_sum_formal(which - 1, ctx)
                                  - qf.rr_product_formal(which, ctx))),
        numeric=Check(
            lambda ctx: (qf.u_m_bilateral(QPow(1, 0), which - 1, ctx),
                         _gap_product(which, ctx))))


def _gap_product(which, ctx):
    """1/(q^which, q^(5 - which); q^5)_inf."""
    qv = ctx.q
    return infinite_product([], [qv ** which, qv ** (5 - which)], qv ** 5, ctx)


def _mform(ctx, m):
    """a_m P1 - b_m P2 is checked as c_m u_0 - d_m u_1 is in ``um-mform``."""
    qv = ctx.q
    return qf.u_m_bilateral(QPow(1, 0), m, ctx), qp.m_shifted(
        [qp.schur_a(m)(qv) * _gap_product(1, ctx), -qp.schur_b(m)(qv) * _gap_product(2, ctx)],
        m, ctx)


def _schur_cd(m):
    """Closed forms at a = 1; positive coefficients from m = 2 on."""
    c, d = qp.c_poly(m), qp.d_poly(m)
    return (c.specialize_a(1) == qp.schur_a(m)
            and d.specialize_a(1) == qp.schur_b(m)
            and (m < 2 or all(v > 0 for v in (c.coefficients()
                                              | d.coefficients()).values())))


def _cd_three_way(n):
    return (qp.c_poly(n, "recurrence") == qp.c_poly(n, "explicit")
            == qp.c_poly(n, "generating")
            and qp.d_poly(n, "recurrence") == qp.d_poly(n, "explicit")
            == qp.d_poly(n, "generating"))


def _um_recurrence(ctx, a, m):
    av = 1 if isinstance(a, QPow) else a
    return (ctx.q ** (m + 1) * qf.u_m_bilateral(a, m + 2, ctx),
            qf.u_m_bilateral(a, m, ctx) - av * qf.u_m_bilateral(a, m + 1, ctx))


def _bessel_defs(ctx, kind, z):
    """Order-0 series against a direct sum of its definition, sum_n
    q^{w(n)} (z/2)^{2n} / (q;q)_n^2, stopped at the first term below the stop
    tolerance relative to the running sum; at z = 2 the kind-2 value is
    1/(q;q)_inf.  The direct sum is plain mpf arithmetic, independent of the
    fixed-point series: (q;q)_n is carried from n - 1 as a running product."""
    qv = ctx.q
    if z == 2:
        return qb.bessel_i(2, 0, z, ctx), infinite_product([], [qv], qv, ctx)
    weight = {1: lambda n: mp.mpf(0), 2: lambda n: mp.mpf(n * n),
              3: lambda n: mp.mpf(n * (n - 1)) / 2}[kind]
    direct, poch = mp.mpf(0), mp.mpf(1)
    for n in count():
        if n:
            poch *= 1 - qv ** n
        term = qv ** weight(n) * (z / 2) ** (2 * n) / poch ** 2
        direct += term
        if abs(term) < ctx.stop_tol * abs(direct):
            break
    return qb.bessel_i(kind, 0, z, ctx), direct


def _sv_series(ctx, nu, n):
    s, f4, f5 = qb.sv_series_form_values(nu, n, ctx)
    return max(scaled_deviation(s, f4), scaled_deviation(s, f5))


def _sv_general(ctx, z, nu):
    qv = ctx.q
    return (qb.bessel_i(2, nu, 2 * z, ctx),
            z ** (mp.mpf(nu.numerator) / nu.denominator)
            * infinite_product([], [qv], qv, ctx)
            * qf.phi_1_1(z * z, mp.mpf(0), QPow(1, nu + 1), ctx))


def _heine_draw(rng):
    b = rational_in(rng, F(3, 10), F(9, 10))
    return {"b": b, "c": b * rational_in(rng, F(1, 10), F(17, 20)),
            "a": rational_in(rng, F(1, 20), F(9, 10)),
            "z": rational_in(rng, F(1, 20), F(9, 10))}


def _bessel_ml(ctx):
    """z = 1, inside the |z| < 2 disk, at q = 0.3; z = 3 at q = 0.25."""
    points = (((F(0), 1), (F(1, 2), 1)) if ctx.q > mp.mpf("0.275")
              else ((F(1), 3), (F(2), 3)))
    return max(scaled_deviation(qb.mittag_leffler_rhs(nu, mp.mpf(z), ctx),
                                qb.i1_continued(nu, mp.mpf(z), ctx))
               for nu, z in points)


def _bessel_ivsj(ctx, nu, z, kind):
    i, z = mp.mpc(0, 1), to_mp(z)
    return (qb.bessel_i(kind, nu, z, ctx),
            mp.e ** (-i * mp.pi * mp.mpf(nu.numerator) / nu.denominator / 2)
            * qb.bessel_j(kind, nu, i * z, ctx))


def _bessel_asymptotic(ctx):
    """|I/main - 1| along r = 2^j, j = 4..10, must strictly decrease."""
    devs = [abs(qb.bessel_i(2, 0, r, ctx)
                / qb.asymptotic_main_term(0, r, ctx) - 1)
            for r in (mp.mpf(2) ** j for j in range(4, 11))]
    return Verdict(devs[-1], all(b < a for a, b in zip(devs, devs[1:])))


def _ms5_single_factor(ctx, n, a, b):
    """The slice with the subscript-free base-q^3 factor read as (.;q^3)_1."""
    qv = ctx.q
    lhs, rhs = sl.bilateral_cube_slice_sides(n, a, b, ctx)
    return lhs, (rhs * infinite_product([qv ** 3, (b / a) ** 3], [], qv ** 3, ctx)
                 / ((1 - qv ** 3) * (1 - (b / a) ** 3)))


def _ms6_formal(ctx, a, t):
    """a = q reduces to qf.omega(t), a = 0 to A_q(-t)."""
    return qf.a_alpha_formal(1, a, (t, 0), ctx) - (
        qf.omega_formal(t, 0, ctx) if a else qf.ramanujan_A_formal(-t, 0, ctx))


def _ms6_numeric(ctx, t):
    """The three reductions; the last runs at bases q^2, q^4."""
    qv = ctx.q
    ctx2, ctx4 = ctx.at(qv * qv), ctx.at(qv ** 4)
    return max(scaled_deviation(qf.a_alpha(1, QPow(1, 1), t, ctx), qf.omega(t, ctx)),
               scaled_deviation(qf.a_alpha(1, mp.mpf(0), t, ctx), qf.ramanujan_A(-t, ctx)),
               scaled_deviation(qf.a_alpha(2, QPow(1, 1), t * t, ctx2), qf.omega(t * t, ctx4)))


def _ms10(ctx, alpha, a, b, x):
    """At b = q, B^(a)(a, b; x) equals A^(a)(a; x); elsewhere it converges."""
    v = qf.b_alpha(alpha, a, b, x, ctx)
    if isinstance(b, QPow):
        return scaled_deviation(v, qf.a_alpha(alpha, a, x, ctx))
    return mp.mpf(0)  # b_alpha returned, so its sum is certified


def _ms12(corrected: bool):
    return lambda ctx, alpha, a, b, x: qf.cube_bilateral_master_sides(
        alpha, a, b, x, ctx, corrected=corrected)


def _theta_triple(arrangement):
    return lambda ctx, a, x: qf.theta_triple_sides(
        a, x, ctx, arrangement=arrangement)


def _sw_inversion_exact(k, y, n, q, sq):
    """The inverted S_k(y) and the determinant, compared as one pair."""
    lhs, rec = qp.sw_inversion_sides(k, y, n, q, sq, "corrected")
    return ((lhs, qp.inversion_delta(k, y, n, q, sq)),
            (rec, qp.inversion_delta_from_system(k, y, n, q, sq)))


def _sw_inversion_numeric(reading):
    """At y = -q^nu, where the literal reading's S-argument is defined."""
    return lambda ctx, k, nu, n: qp.sw_inversion_sides(
        k, -ctx.q ** nu, n, ctx.q, mp.sqrt(ctx.q), reading)


def _st_5_half(which: int) -> dict:
    return dict(
        formal=Check(lambda ctx, n: (qp.st_5_7_diff_formal if which == 7
                                     else qp.st_5_8_diff_formal)(n, ctx),
                     grid(n=range(9)), order=40, D=4),
        exact=Check(lambda n, q, sq: (qp.st_5_7_sides if which == 7
                                      else qp.st_5_8_sides)(n, q, sq),
                    grid(n=range(9), **_QUARTER)))


def _hermite_gf(reading):
    return lambda ctx, t, z: qp.hermite_gf_sides(t, z, ctx, reading)


# ---------------------------------------------------------------------------
# the registry itself
# ---------------------------------------------------------------------------

_BESSEL_SV = dict(points=grid(nu=(F(0), F(1, 2), F(27, 10)), n=range(11)))
_MS_SLICE_AB = dict(a=("0.5",), b=("0.1",))
_MS_BILATERAL = grid(alpha=(1,), a=("0.6",), b=("0.15",), x=("0.5",))
_MS_ANNULUS = (("x", "q < |x| < 1", "outside it, near |q| = 1, ms-17's triple sum cancels "
                "below the roundings of its pole table, which no check charges"),)
_HERMITE_GF_POINTS = ({"t": "0.15", "z": "0.5"}, {"t": "-0.12", "z": "0.7"})
_QUARTER = dict(q=(F(1, 4),), sq=(F(1, 2),))   # exact q with its square root
_SW_INVERSION_POINTS = (grid(k=(2,), y=(F(1, 3),), n=(1,), **_QUARTER)
                        + grid(k=(3,), y=(F(2, 7),), n=(2,), **_QUARTER))
_UNIT_DISK = (("q", "|q| < 1",
               "the sums and infinite products converge only there"),)
_POSITIVE_Q = (("q", "0 < q < 1", "the lattice point 2q^{-n/2} and its power "
                "z^nu are principal-branch powers, equal to q^{-nu n/2} only "
                "while n |arg q| < 2 pi"),)

ENTRIES: tuple = (
    IdentityEntry(
        "RR1", "first gap identity",
        "sum q^{n^2}/(q;q)_n = 1/((q;q^5)_inf (q^4;q^5)_inf)",
        _UNIT_DISK, **_rr_checks(1)),
    IdentityEntry(
        "RR2", "second gap identity",
        "sum q^{n^2+n}/(q;q)_n = 1/((q^2;q^5)_inf (q^3;q^5)_inf)",
        _UNIT_DISK, **_rr_checks(2)),
    IdentityEntry(
        "mform", "m-shifted gap identity",
        "sum q^{n^2+mn}/(q;q)_n = (-1)^m q^-binom(m,2) [a_m P1 - b_m P2]",
        formal=Check(lambda ctx, m: qp.mform_diff_formal(m, ctx),
                     grid(m=range(11)), order=80),
        numeric=Check(_mform, grid(m=range(9)))),
    IdentityEntry(
        "rr1-partitions", "gap-2 partition interpretation",
        "[q^n] gap series = #{parts differing by >= 2} = #{parts = 1,4 mod 5}",
        exact=Check(lambda n_max: parts.series_vs_partitions("RR1", n_max),
                    grid(n_max=(40,)))),
    IdentityEntry(
        "rr2-partitions", "gap-2 partition interpretation, second kind",
        "[q^n] shifted gap series = #{gap 2, least part >= 2} "
        "= #{parts = 2,3 mod 5}",
        exact=Check(lambda n_max: parts.series_vs_partitions("RR2", n_max),
                    grid(n_max=(40,)))),
    IdentityEntry(
        "ferrers-box", "box-bounded partition generating polynomial",
        "sum over partitions in a k x m box of q^|p| = gauss(k+m, k)",
        exact=Check(lambda k, m: parts.box_matches_q_binomial(k, m),
                    tuple({"k": k, "m": m}
                          for k in range(15) for m in range(15 - k)))),
    IdentityEntry(
        "schur-cd", "closed forms specialize the recurrence pair",
        "c_m(1,q) = a_m(q), d_m(1,q) = b_m(q); coefficients nonnegative",
        exact=Check(_schur_cd, grid(m=range(13)),
                    note="closed forms apply for m >= 2; m in {0,1} from "
                         "seeds")),
    IdentityEntry(
        "cd-three-way", "recurrence pair: three constructions coincide",
        "recurrence = explicit sum = t-series coefficients, for c_n and d_n",
        exact=Check(_cd_three_way, grid(n=range(21)),
                    note="seeds (c0,c1,d0,d1)=(1,0,0,1); the duplicated-c0 "
                         "display is reproducible only with these seeds")),
    IdentityEntry(
        "um-recurrence", "three-term contiguous relation",
        "q^{m+1} u_{m+2}(a) = u_m(a) - a u_{m+1}(a)",
        numeric=Check(_um_recurrence, grid(a=("0.5", QPow(1, 0), "1.5"),
                                           m=range(7)))),
    IdentityEntry(
        "um-mform", "bilateral resolution along the recurrence pair",
        "u_m(a) = (-1)^m q^-binom(m,2) [c_m(a,q) u_0(a) - d_m(a,q) u_1(a)]",
        numeric=Check(
            lambda ctx, a, m: qp.bilateral_m_version_sides(a, m, ctx, sign=-1),
            grid(a=("0.5", QPow(1, 0), "1.5"), m=range(9)),
            note=f"as-printed +d reading fails (literal residual {LITERAL}); "
                 "the -d reading, forced by the seeds and by the a=1 case, "
                 "passes",
            literal=Reading(lambda ctx, a, m: qp.bilateral_m_version_sides(
                a, m, ctx, sign=+1), grid(a=("0.5",), m=(4,))))),
    IdentityEntry(
        "heine", "second-iterate transformation of 2phi1",
        "2phi1(a,b;c;q,z) = (c/b, bz;q)_inf/(c, z;q)_inf "
        "2phi1(abz/c, b; bz; q, c/b)",
        (("z", "|z| < 1", "the left 2phi1 converges only there"),
         ("c/b", "|c/b| < 1", "the right 2phi1 converges only there")),
        numeric=Check(
            lambda ctx, a, b, c, z: qf.heine_sides(
                to_mp(a), to_mp(b), to_mp(c), to_mp(z), ctx),
            sampler=_each(10, _heine_draw))),
    IdentityEntry(
        "bessel-defs", "three defining series at integer order",
        "kind-k series against direct truncated oracles; value at z=2",
        numeric=Check(_bessel_defs,
                      grid(kind=(1, 2, 3), z=("0.8",))
                      + ({"kind": 2, "z": "2"},),
                      note="order-0 series vs direct truncated oracle, all "
                           "kinds")),
    IdentityEntry(
        "bessel-i1-continuation", "kind 1 continued by the square factor",
        "I1_nu(z) = I2_nu(z) / (z^2/4; q)_inf",
        (("z", "|z| < 2 for the direct series",
          "the kind-1 series converges only there"),),
        numeric=Check(lambda ctx, z, nu: (qb.bessel_i(1, nu, z, ctx),
                                          qb.i1_continued(nu, z, ctx)),
                      grid(z=("0.6", "1.2", "1.8"),
                           nu=(F(1, 2), F(0), F(5, 2))))),
    IdentityEntry(
        "bessel-sv-4", "special values on the geometric lattice, first form",
        "I2_nu(2 q^{-n/2}) = q^{nu n/2} S_n(-q^{-nu-n}) / (q^{n+1};q)_inf",
        _POSITIVE_Q, fixed_q=("0.2", "0.5"),
        numeric=Check(lambda ctx, nu, n: qb.special_value_sides(4, nu, n, ctx),
                      **_BESSEL_SV)),
    IdentityEntry(
        "bessel-sv-5", "special values, symmetric form",
        "I2_nu(2 q^{-n/2}) = q^{-nu n/2} S_n(-q^{nu-n}) / (q^{n+1};q)_inf",
        _POSITIVE_Q, fixed_q=("0.2", "0.5"),
        numeric=Check(lambda ctx, nu, n: qb.special_value_sides(5, nu, n, ctx),
                      **_BESSEL_SV)),
    IdentityEntry(
        "bessel-sv-series", "special values written as series",
        "sum_k q^{k(k+nu-n)}/((q;q)_k (q^{nu+1};q)_k) equals both finite forms",
        numeric=Check(_sv_series, grid(nu=(F(7, 10), F(3, 2)), n=range(9)))),
    IdentityEntry(
        "bessel-sv-general", "entire-series form of the kind-2 function",
        "I2_nu(2z) = z^nu / (q;q)_inf * 1phi1(z^2; 0; q, q^{nu+1})",
        numeric=Check(_sv_general,
                      grid(z=("0.6", "1.4"), nu=(F(1, 2), F(2))))),
    IdentityEntry(
        "bessel-gf", "order generating function",
        "sum_m q^binom(m,2) I2_m(z) t^m = (-tz/2, -qz/2t; q)_inf",
        (("t", "nonzero", "the product (-qz/2t; q)_inf divides by t"),),
        numeric=Check(lambda ctx, z, t: qb.gen_func_sides(z, t, ctx),
                      ({"z": "1", "t": "1"}, {"z": "0.8", "t": "-2"},
                       {"z": "1.5", "t": "0.4"}, {"z": "0", "t": "0.7"}))),
    IdentityEntry(
        "bessel-ml", "pole expansion of the continued kind-1 function",
        "I1_nu(z) = (z/2)^nu/(q;q)_inf^2 sum_n (-1)^n q^binom(n+1,2) "
        "S_n(-q^{nu-n}) / (1 - z^2 q^n/4)",
        (("z", "off the pole lattice",
          "the terms have poles where z^2 q^n = 4"),),
        fixed_q=("0.3", "0.25"),
        numeric=Check(_bessel_ml)),
    IdentityEntry(
        "bessel-i-vs-j", "imaginary-argument rotation",
        "I_nu(z) = e^{-i nu pi/2} J_nu(iz), kinds 1 and 2",
        numeric=Check(_bessel_ivsj, sampler=_each(10, lambda rng: {
            "nu": F(rng.randint(1, 60), 20), "z": F(rng.randint(2, 18), 10),
            "kind": rng.choice((1, 2))}))),
    IdentityEntry(
        "bessel-asymptotic", "large-argument main term",
        "I2_nu(r) ~ (r/2)^nu (q^{1/2};q)_inf/(2 (q;q)_inf) "
        "[(r q^{(nu+1/2)/2}/2; q^{1/2})_inf + (-...; q^{1/2})_inf]",
        fixed_q=("0.5",),
        numeric=Check(_bessel_asymptotic,
                      note="trend property only: |I/main - 1| strictly "
                           "decreasing; no absolute tolerance is claimed")),
    IdentityEntry(
        "lommel-i", "ladder relation for the kind-2 function",
        "(-1)^n q^{n nu + n(n-1)/2} I2_{nu+n}(x) = p_{n,nu}(1/x) I2_nu(x) "
        "- p_{n-1,nu+1}(1/x) I2_{nu-1}(x)",
        numeric=Check(
            lambda ctx, n, nu, x: qb.lommel_relation_sides(n, nu, x, ctx),
            grid(n=range(7), nu=(F(2, 5),), x=("1.5",)))),
    IdentityEntry(
        "lommel-j", "ladder relation, alternating form",
        "q^{n nu + n(n-1)/2} J2_{nu+n}(x) = h_{n,nu}(1/x) J2_nu(x) "
        "- h_{n-1,nu+1}(1/x) J2_{nu-1}(x)",
        numeric=Check(
            lambda ctx, n, nu, x: qb.lommel_relation_j_sides(n, nu, x, ctx),
            grid(n=range(1, 7), nu=(F(2, 5),), x=("1.5",)))),
    IdentityEntry(
        "sw-lommel-special", "ladder relation pinched to the S_n lattice",
        "(-1)^n q^{n(n+2nu+k-1)/2} S_k(-q^{nu+n}) = p_{n,nu+k}(q^{k/2}/2) "
        "S_k(-q^nu) - q^{k/2} p_{n-1,nu+k+1}(q^{k/2}/2) S_k(-q^{nu-1})",
        numeric=Check(
            lambda ctx, n, nu, k: qp.sw_lommel_special_sides(n, nu, k, ctx),
            grid(n=range(1, 5), nu=(F(2, 5),), k=(1, 2, 3)))),
    IdentityEntry(
        "psi11", "bilateral binomial sum and its product form",
        "sum (a;q)_n/(b;q)_n z^n = (q, b/a, az, q/az;q)_inf "
        "/ (b, q/a, z, b/az;q)_inf on |b/a| < |z| < 1",
        (("(a,b,z)", "|b/a| < |z| < 1",
          "the bilateral sum converges only on this annulus; draws keep a "
          "margin of 1/20 inside it"),),
        numeric=Check(
            lambda ctx, a, b, z: (
                qf.psi_1_1(to_mp(a), to_mp(b), to_mp(z), ctx),
                qf.psi_1_1_product(to_mp(a), to_mp(b), to_mp(z), ctx)),
            sampler=_each(10, lambda rng: dict(zip("abz", annulus_pair(rng)))))),
    IdentityEntry(
        "ms-1", "alternating pair convolution, finite",
        "sum_k r_k r_{n-k} (-1)^k = 0 (odd) or (a^2;q^2)_m/(q^2;q^2)_m",
        exact=Check(lambda a, n, q: qf.pair_convolution_sides(n, a, q),
                    grid(n=range(31), q=(F(1, 2),)),
                    sampler=_distinct("a", F(1, 10), F(3, 2), avoid=(F(1),)))),
    IdentityEntry(
        "ms-2", "cube-root pair convolution, finite",
        "triple convolution with w^{k+2l} = 0 (3 not | n) or "
        "(a^3;q^3)_m/(q^3;q^3)_m",
        exact=Check(lambda a, n, q: qf.cube_convolution_sides(n, a, q),
                    grid(n=range(31), q=(F(1, 3),)),
                    sampler=_distinct("a", F(1, 10), F(3, 2), avoid=(F(1),)),
                    note="exact arithmetic in Q(w), w a primitive cube root "
                         "of 1")),
    IdentityEntry(
        "ms-3", "alternating pair convolution, bilateral",
        "slice sum over j+k=n of (a)_j(a)_k(-1)^k/((b)_j(b)_k): zero for odd "
        "n, a product multiple of (a^2;q^2)_m/(b^2;q^2)_m for n=2m",
        numeric=Check(
            lambda ctx, n, a, b: sl.bilateral_pair_slice_sides(n, a, b, ctx),
            grid(n=range(6), **_MS_SLICE_AB))),
    IdentityEntry(
        "ms-4", "cube-root triple slices vanish off multiples of 3",
        "bilateral slice sum with w^{k+2l} = 0 for 3 not dividing n",
        numeric=Check(
            lambda ctx, n, a, b: sl.bilateral_cube_slice_sides(n, a, b, ctx),
            grid(n=(1, 2, 4, 5), **_MS_SLICE_AB),
            note="slice sums with 3 not dividing n vanish")),
    IdentityEntry(
        "ms-5", "cube-root triple slices at multiples of 3",
        "bilateral slice sum = cubed prefactor * (a^3;q^3)_m/(b^3;q^3)_m",
        numeric=Check(
            lambda ctx, n, a, b: sl.bilateral_cube_slice_sides(n, a, b, ctx),
            grid(n=(0, 3, 6), **_MS_SLICE_AB),
            note="subscript-free factors read as infinite products; the "
                 f"(.;q^3)_1 reading deviates by {LITERAL}",
            literal=Reading(_ms5_single_factor, grid(n=(3,), **_MS_SLICE_AB),
                            decides=False))),
    IdentityEntry(
        "ms-6", "alpha-family reductions",
        "A^(1)(q;t) = qf.omega(t;q); A^(1)(0;t) = A_q(-t); "
        "A_{q^2}^(2)(q^2;t^2) = qf.omega(t^2;q^4)",
        formal=Check(_ms6_formal, grid(a=(QPow(1, 1), None), t=(F(2, 3),)),
                     order=60,
                     note="a=q and a=0 reductions of the alpha-family"),
        numeric=Check(_ms6_numeric, grid(t=("0.6",)))),
    IdentityEntry(
        "ms-7", "square-argument expansion, unilateral",
        "A_{q^2}^{(2a)}(a^2;t^2) = sum_j r_j q^{a j^2} (-t)^j "
        "A^{(a)}(a; t q^{2aj})",
        numeric=Check(lambda ctx, alpha, a, t: qf.square_master_sides(
                          alpha, a, t, ctx),
                      grid(alpha=(F(1), F(1, 2)), a=("0.5",), t=("0.6",)))),
    IdentityEntry(
        "ms-8", "cube-argument expansion, unilateral",
        "A_{q^3}^{(3a)}(a^3;t^3) = double sum with w^k weights and w^2-twisted "
        "inner argument",
        numeric=Check(lambda ctx, alpha, a, t: qf.cube_master_sides(
                          alpha, a, t, ctx),
                      grid(alpha=(1,), a=("0.5",), t=("0.6",)))),
    IdentityEntry(
        "ms-10", "bilateral alpha-family: definition and collapse",
        "B^(a)(a,q;x) loses its negative tail and equals A^(a)(a;x)",
        numeric=Check(_ms10, ({"alpha": 1, "a": "0.5", "b": QPow(1, 1),
                               "x": "0.7"},
                              {"alpha": 1, "a": "0.4", "b": "0.9",
                               "x": "0.7"}))),
    IdentityEntry(
        "ms-11", "square-argument expansion, bilateral",
        "prefactored B_{q^2}^{(2a)}(a^2,b^2;x^2) = bilateral j-sum of "
        "twisted B evaluations",
        numeric=Check(
            lambda ctx, alpha, a, b, x: qf.square_bilateral_master_sides(
                alpha, a, b, x, ctx),
            _MS_BILATERAL,
            note="sampled with |b/a| < 1 so the outer bilateral sum "
                 "converges absolutely")),
    IdentityEntry(
        "ms-12", "cube-argument expansion, bilateral",
        "B_{q^3}^{(3a)}(a^3,b^3;x^3) = prefactor * double bilateral sum",
        numeric=Check(
            _ms12(corrected=True), _MS_BILATERAL,
            note="as printed, the inner argument misses the w^2 twist "
                 "carried by its unilateral counterpart; literal residual "
                 + LITERAL,
            literal=Reading(_ms12(corrected=False), _MS_BILATERAL,
                            first_q_only=True))),
    IdentityEntry(
        "ms-13", "theta quotient over simple poles, squared",
        "pref * sum q^{4n^2} x^{2n}/(1-a^2 q^{2n}) = double pole-sum",
        _MS_ANNULUS,
        numeric=Check(lambda ctx, a, x: qf.theta_pair_sides(a, x, ctx),
                      grid(a=("0.5",), x=("0.6",)))),
    IdentityEntry(
        "ms-14", "imaginary specialization of the squared theta quotient",
        "(q,q;q)_inf/(-q,-q;q)_inf sum q^{4n^2}x^{2n}/(1+q^{2n+1}) = "
        "double pole-sum over 1 + i q^{j+1/2}",
        _MS_ANNULUS,
        numeric=Check(lambda ctx, x: qf.theta_pair_imag_sides(x, ctx),
                      grid(x=("0.6",)),
                      note="denominators 1 + i q^{j+1/2}; numeric mode only")),
    IdentityEntry(
        "ms-15", "theta quotient over simple poles, cubed",
        "sum q^{9n^2}x^{3n}/(1-a^3q^{3n}) = pref * triple pole-sum",
        _MS_ANNULUS,
        numeric=Check(_theta_triple("base"), grid(a=("0.5",), x=("0.6",)))),
    IdentityEntry(
        "ms-16", "cubed theta quotient at the positive third-power point",
        "rearranged cube identity at a = q^{1/3}",
        _MS_ANNULUS,
        numeric=Check(_theta_triple("split-left"),
                      grid(a=(QPow(1, F(1, 3)),), x=("0.6",)))),
    IdentityEntry(
        "ms-17", "cubed theta quotient at the negative third-power point",
        "cube identity at a = -q^{1/3} (denominators 1 + q^{j+1/3})",
        _MS_ANNULUS,
        numeric=Check(_theta_triple("base"),
                      grid(a=(QPow(-1, F(1, 3)),), x=("0.6",)))),
    IdentityEntry(
        "sw-two-forms", "equivalence of the two defining sums for S_n",
        "binomial-weighted form equals the base-shifted form",
        exact=Check(lambda x, n, q: (qp.stieltjes_wigert(n, x, q),
                                     qp.stieltjes_wigert_second(n, x, q)),
                    grid(n=range(16), q=(F(1, 3),)),
                    sampler=_distinct("x", F(-2), F(2)))),
    IdentityEntry(
        "sw-symmetry", "degree-reflection symmetry of S_n",
        "q^{n^2} (-t)^n S_n(q^{-2n}/t) = S_n(t)",
        (("t", "nonzero", "the left side evaluates S_n at q^{-2n}/t"),),
        exact=Check(lambda n, t, q: qp.sw_symmetry_sides(n, t, q),
                    grid(n=range(9), t=(F(3, 7),), q=(F(1, 3),))),
        numeric=Check(lambda ctx, n, t: qp.sw_symmetry_sides(n, t, ctx.q),
                      grid(n=(12,), t=("1.4",)))),
    IdentityEntry(
        "u-poly-def", "auxiliary polynomial matches the ladder family",
        "u_n(q^{k/2}, q^mu) = p_{n,mu}(q^{k/2}/2)",
        exact=Check(
            lambda n, k, q_mu, q, sq: qp.u_poly(n, sq ** k, q_mu, q)
            == qp.q_lommel_p(n, sq ** k / 2, q, q_mu),
            grid(n=range(7), k=range(4), q_mu=(F(1, 8),), **_QUARTER),
            note="the printed u_n drops the q^{j(j-1)} y^j weight; with it, "
                 "u_n(q^{k/2}, q^mu) equals the ladder polynomial at "
                 "q^{k/2}/2 exactly",
            literal=Reading(lambda n, k, q_mu, q, sq: (
                qp.u_poly(n, sq ** k, q_mu, q, weighted=False),
                qp.u_poly(n, sq ** k, q_mu, q)),
                grid(n=(2,), k=(1,), q_mu=(F(1, 8),), **_QUARTER)))),
    IdentityEntry(
        "sw-functional", "argument-shift functional equation",
        "y^n q^{n(n+k-1)/2} S_k(y q^n) = u_n(q^{k/2},-yq^k) S_k(y) "
        "- q^{k/2} u_{n-1}(q^{k/2},-yq^{k+1}) S_k(y/q)",
        exact=Check(
            lambda k, n, y, q, sq: qp.sw_functional_sides(k, y, n, q, sq),
            grid(k=range(5), n=range(6), y=(F(2, 5),), **_QUARTER)),
        numeric=Check(
            lambda ctx, k, n, y: qp.sw_functional_sides(
                k, y, n, ctx.q, mp.sqrt(ctx.q)),
            grid(k=(3,), n=range(1, 6), y=("-0.21",)))),
    IdentityEntry(
        "sw-inversion", "inverting the shift: S_k(y) from shifted values",
        "S_k(y) = [A_n u_n(q^{k/2},-yq^{k+1}) - A_{n+1} "
        "u_{n-1}(q^{k/2},-yq^{k+1})] / Delta_n",
        (("Delta_n", "nonzero", "the reconstruction divides by it"),),
        exact=Check(
            _sw_inversion_exact, _SW_INVERSION_POINTS,
            note="second numerator must read u_{n-1} with argument y q^{n+1} "
                 "(from solving the 2x2 system); the determinant display "
                 "itself is correct and matches the system determinant",
            literal=Reading(lambda k, y, n, q, sq: qp.sw_inversion_sides(
                k, y, n, q, sq, "literal"), _SW_INVERSION_POINTS[:1])),
        numeric=Check(
            _sw_inversion_numeric("corrected"),
            grid(k=(2,), nu=("0.7",), n=(1, 2)),
            note="literal reading evaluated at y = -q^nu where its "
                 f"S-argument is well defined; residual {LITERAL}",
            literal=Reading(_sw_inversion_numeric("literal"),
                            grid(k=(2,), nu=("0.7",), n=(1, 2))))),
    IdentityEntry(
        "finite-qbinom", "finite binomial expansion of (x;q)_n",
        "(x;q)_n = sum_j gauss(n,j) (-x)^j q^binom(j,2)",
        exact=Check(lambda x, n, q: qp.finite_qbinom_sides(n, x, q),
                    grid(n=range(13), q=(F(1, 3),)),
                    sampler=_distinct("x", F(-2), F(2)),
                    note="exponent read as binom(j,2) over the summation "
                         "index")),
    IdentityEntry(
        "st-5.1", "two-factor product generates S_n at shifted arguments",
        "(xt, -t; q)_inf = sum_n q^binom(n,2) t^n S_n(x q^{-n})",
        formal=Check(lambda ctx, x, t: qp.st_5_1_diff_formal(x, t, ctx),
                     sampler=_each(3, lambda rng: {
                         "x": rational_in(rng, F(-1), F(1)),
                         "t": rational_nonzero(rng, F(-1), F(1))}),
                     order=60),
        numeric=Check(lambda ctx, x, t: qp.st_5_1_sides(x, t, ctx),
                      grid(x=("0.4",), t=("0.6",)))),
    IdentityEntry(
        "st-5.2", "monomial reconstruction from shifted S_k",
        "q^binom(n,2) x^n/(q;q)_n = sum_k (-1)^k q^binom(k,2) "
        "S_k(x q^{-k})/(q;q)_{n-k}",
        exact=Check(qp.st_5_2_sides,
                    grid(n=range(13), x=(F(2, 3),), q=(F(1, 4),)))),
    IdentityEntry(
        "st-5.3", "S_n expanded over the entire function",
        "S_n(x) = sum_k q^binom(k+1,2) (x q^n)^k A_q(x q^k) "
        "/ ((q;q)_n (q;q)_k)",
        numeric=Check(lambda ctx, n, x: qp.st_5_3_sides(n, x, ctx),
                      grid(n=(0, 2, 4), x=("0.7",)),
                      note="faithful transcription passes as printed")),
    IdentityEntry(
        "st-5.4", "argument-product expansion",
        "S_n(ab) = b^n sum_k (1/b;q)_k (-q^{1-n})^k q^binom(k,2) "
        "S_{n-k}(a q^k) / (q;q)_k",
        exact=Check(qp.st_5_4_sides, grid(n=range(10), a=(F(2, 5),),
                                          b=(F(3, 4),), q=(F(1, 3),))),
        numeric=Check(lambda ctx, n, a, b: qp.st_5_4_sides(n, a, b, ctx.q, ctx),
                      grid(n=(5,), a=("0.4",), b=("0.75",)))),
    IdentityEntry(
        "st-5.5", "tail-product expansion",
        "S_n(a) = (-aq;q)_inf/((q;q)_n (-aq;q)_n) sum_k q^{k^2} (-a)^k "
        "/ ((q;q)_k (-aq^{n+1};q)_k)",
        numeric=Check(lambda ctx, n, a: qp.st_5_5_sides(n, a, ctx),
                      grid(n=(0, 1, 4), a=("0.6",)))),
    IdentityEntry(
        "st-5.6-even", "even special value on the lattice",
        "S_{2n}(q^{-2n}) = (-1)^n q^{-n^2} / (q^2;q^2)_n",
        formal=Check(lambda ctx, n: qp.st_5_6_even_diff_formal(n, ctx),
                     grid(n=range(6)), order=50)),
    IdentityEntry(
        "st-5.6-odd", "odd lattice values vanish",
        "S_{2n+1}(q^{-2n-1}) = 0",
        formal=Check(lambda ctx, n: qp.st_5_6_odd_formal(n, ctx),
                     grid(n=range(6)), order=50)),
    IdentityEntry(
        "st-5.7", "half-power special value, upper sign",
        "S_n(-q^{-n+1/2}) = q^{-(n^2-n)/4} / (q^{1/2};q^{1/2})_n",
        **_st_5_half(7)),
    IdentityEntry(
        "st-5.8", "half-power special value, lower sign",
        "S_n(-q^{-n-1/2}) = q^{-(n^2+n)/4} / (q^{1/2};q^{1/2})_n",
        **_st_5_half(8)),
    IdentityEntry(
        "st-5.9", "double-argument expansion of the entire function",
        "A_q(wz) = (wq;q)_inf sum_n q^{n^2} w^n S_n(z q^{-n})/(wq;q)_n",
        (("w", "|w| < 1", "1/(wq;q)_n has its poles at w = q^{-k}, k >= 1, "
          "all outside the unit disk"),),
        numeric=Check(lambda ctx, w, z: qp.st_5_9_sides(w, z, ctx),
                      grid(w=("0.5",), z=("0.8",)))),
    IdentityEntry(
        "st-10", "degree-shift expansion of the entire function",
        "A_q(z) = (q;q)_m sum_n q^{n^2+mn} (-z)^n S_m(z q^n)/(q;q)_n",
        exact=Check(lambda m, n, q: (qf.phi21_terminating_exact(m, n, q),
                                     q ** (-m * n)),
                    grid(m=range(9), n=range(9), q=(F(1, 3),)),
                    note="the terminating inner series collapses to "
                         "q^{-mn}"),
        numeric=Check(lambda ctx, m, z: qp.st_10_sides(m, z, ctx),
                      grid(m=(0, 1, 3), z=("0.5",)))),
    IdentityEntry(
        "sw-hermite", "bridge to the inverse-base Hermite family",
        "(q;q)_n S_n(e^{-2xi} q^{-n}) = e^{-n xi} h_n(sinh xi | q)",
        exact=Check(
            lambda E, n, q: qp.sw_as_hermite_sides(n, E, q),
            grid(n=range(11), q=(F(1, 3),)),
            sampler=_distinct("E", F(1, 2), F(3), avoid=(F(1),)),
            note="as printed the bridge omits the e^{-n xi} factor; with it "
                 "the two finite sums agree term by term",
            literal=Reading(lambda E, n, q: qp.sw_as_hermite_sides(n, E, q, reading="literal"),
                grid(n=(2,), q=(F(1, 3),)))),
        numeric=Check(
            lambda ctx, xi, n: qp.sw_as_hermite_sides(n, mp.e ** xi, ctx.q),
            grid(xi=("0.35",), n=range(11)),
            note=f"literal residual {LITERAL}",
            literal=Reading(lambda ctx, xi, n: qp.sw_as_hermite_sides(
                n, mp.e ** xi, ctx.q, "literal"),
                grid(xi=("0.35",), n=(3,))))),
    IdentityEntry(
        "hermite-gf", "quarter-power generating function",
        "sum_n (q;q)_n q^{n^2/4} t^n S_n(z q^{-n})/(q^{1/2};q^{1/2})_n = "
        "(-t q^{1/4}, t q^{1/4} z; q^{1/2})_inf / (-t^2 z; q)_inf",
        (("t", "small", "the right side has a pole where t^2 z = -1, which "
          "bounds the radius of the series in t"),),
        numeric=Check(
            _hermite_gf("corrected"), _HERMITE_GF_POINTS,
            note="unique passing sign pattern flips the z-carrying numerator "
                 f"argument; literal residual {LITERAL}",
            literal=Reading(_hermite_gf("literal"), _HERMITE_GF_POINTS))),
    IdentityEntry(
        "poisson-kernel", "bilinear kernel for shifted S_n pairs",
        "sum_n (q;q)_n q^binom(n,2) t^n S_n(z q^{-n}) S_n(zeta q^{-n}) = "
        "(-t, -t z zeta, tz, t zeta; q)_inf / (t^2 z zeta/q; q)_inf",
        (("t", "small", "the right side has a pole where t^2 z zeta = q, "
          "which bounds the radius of the series in t"),),
        numeric=Check(lambda ctx, t, z, zeta: qp.poisson_kernel_sides(
                          t, z, zeta, ctx),
                      grid(t=("0.1",), z=("0.4",), zeta=("0.55",)))),
    IdentityEntry(
        "GFhn0", "half-power series for the base-squared entire function",
        "A_{q^2}(-b^2) = (b sqrt(q); q)_inf sum_n q^{n^2/2} b^n "
        "/ ((q, b sqrt(q); q)_n)",
        formal=Check(lambda ctx, b: qp.gfhn0_diff_formal(b, ctx),
                     sampler=_each(3, lambda rng: {
                         "b": rational_nonzero(rng, F(-1), F(1))}),
                     order=60, D=2),
        numeric=Check(lambda ctx, b: qp.gfhn0_sides(b, ctx),
                      grid(b=("0.7", "-0.4")))),
)

_BY_ID = {e.id: e for e in ENTRIES}


def list_identities():
    """All registered entries, sorted by id."""
    return sorted(ENTRIES, key=lambda e: e.id)


def get_entry(entry_id: str) -> IdentityEntry:
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownIdentityError(f"no identity with id {entry_id!r}") from None


# Census of the displayed equations: each maps to a registry entry, is a
# definition exercised by entries, or is explicitly out of scope.
CENSUS: tuple = (
    ("gap-identities-pair", "entry", ("RR1", "RR2")),
    ("gap-partition-interpretation", "entry",
     ("rr1-partitions", "rr2-partitions")),
    ("m-shifted-gap-identity", "entry", ("mform",)),
    ("schur-closed-forms", "entry", ("schur-cd", "mform")),
    ("bessel-kind1-def", "entry", ("bessel-defs", "bessel-i1-continuation")),
    ("bessel-kind2-def", "entry", ("bessel-defs",)),
    ("bessel-kind3-def", "entry", ("bessel-defs",)),
    ("kind1-kind2-quotient", "entry", ("bessel-i1-continuation",)),
    ("sn-definition-two-forms", "entry", ("sw-two-forms",)),
    ("sn-symmetry", "entry", ("sw-symmetry",)),
    ("entire-function-def", "def",
     "exercised by RR1/RR2 numeric, ms-6, st-5.3, st-5.9, st-10"),
    ("kind2-entire-series-form", "entry", ("bessel-sv-general",)),
    ("lattice-special-value-first", "entry", ("bessel-sv-4",)),
    ("lattice-special-value-symmetric", "entry", ("bessel-sv-5",)),
    ("heine-transformation", "entry", ("heine",)),
    ("special-values-as-series", "entry", ("bessel-sv-series",)),
    ("order-generating-function", "entry", ("bessel-gf",)),
    ("box-partition-theorem", "entry", ("ferrers-box",)),
    ("imaginary-rotation", "entry", ("bessel-i-vs-j",)),
    ("large-argument-main-term", "entry", ("bessel-asymptotic",)),
    ("pole-expansion", "entry", ("bessel-ml",)),
    ("bilateral-shifted-sum-def", "def",
     "exercised by um-recurrence, um-mform, RR reductions"),
    ("shifted-sum-recurrence", "entry", ("um-recurrence",)),
    ("normalized-difference-equation", "entry", ("cd-three-way",)),
    ("pair-initial-conditions", "def",
     "printed duplicated c_0; seeds (1,0,0,1) forced by the t-series and the "
     "m-shifted identity; used by cd-three-way"),
    ("pair-generating-functions", "entry", ("cd-three-way",)),
    ("pair-explicit-forms", "entry", ("cd-three-way",)),
    ("bilateral-resolution-theorem", "entry", ("um-mform",)),
    ("bilateral-binomial-sum", "entry", ("psi11",)),
    ("cube-root-constant-def", "def", "exercised by ms-2/4/5/8/12 and kin"),
    ("finite-pair-convolution", "entry", ("ms-1",)),
    ("finite-cube-convolution", "entry", ("ms-2",)),
    ("bilateral-pair-convolution", "entry", ("ms-3",)),
    ("bilateral-cube-vanishing", "entry", ("ms-4",)),
    ("bilateral-cube-evaluation", "entry", ("ms-5",)),
    ("alpha-family-def", "entry", ("ms-6",)),
    ("theta-series-def", "def", "exercised by ms-6"),
    ("square-master-unilateral", "entry", ("ms-7",)),
    ("cube-master-unilateral", "entry", ("ms-8",)),
    ("bilateral-alpha-family-def", "entry", ("ms-10",)),
    ("square-master-bilateral", "entry", ("ms-11",)),
    ("cube-master-bilateral", "entry", ("ms-12",)),
    ("theta-pair-corollary", "entry", ("ms-13",)),
    ("theta-pair-imaginary", "entry", ("ms-14",)),
    ("theta-triple", "entry", ("ms-15",)),
    ("theta-triple-positive-root", "entry", ("ms-16",)),
    ("theta-triple-negative-root", "entry", ("ms-17",)),
    ("ladder-relation-alternating", "entry", ("lommel-j",)),
    ("ladder-polynomial-def", "def", "exercised by lommel-i/j, u-poly-def"),
    ("ladder-relation-modified", "entry", ("lommel-i",)),
    ("ladder-special-points", "entry", ("sw-lommel-special",)),
    ("argument-shift-functional-equation", "entry", ("sw-functional",)),
    ("auxiliary-polynomial-def", "entry", ("u-poly-def",)),
    ("shift-inversion", "entry", ("sw-inversion",)),
    ("shift-inversion-determinant", "entry", ("sw-inversion",)),
    ("product-generates-shifted-sn", "entry", ("st-5.1",)),
    ("monomial-reconstruction", "entry", ("st-5.2",)),
    ("sn-over-entire-function", "entry", ("st-5.3",)),
    ("argument-product-expansion", "entry", ("st-5.4",)),
    ("tail-product-expansion", "entry", ("st-5.5",)),
    ("lattice-values-even-odd", "entry", ("st-5.6-even", "st-5.6-odd")),
    ("half-power-value-upper", "entry", ("st-5.7",)),
    ("half-power-value-lower", "entry", ("st-5.8",)),
    ("entire-function-double-argument", "entry", ("st-5.9",)),
    ("entire-function-degree-shift", "entry", ("st-10",)),
    ("finite-binomial-theorem", "entry", ("finite-qbinom",)),
    ("inverse-base-hermite-def", "def", "exercised by sw-hermite"),
    ("sn-hermite-bridge", "entry", ("sw-hermite",)),
    ("quarter-power-generating-function", "entry", ("hermite-gf",)),
    ("bilinear-kernel", "entry", ("poisson-kernel",)),
    ("half-power-series-evaluation", "entry", ("GFhn0",)),
    ("full-asymptotic-series", "oos",
     "only the main term is checked, as a trend property"),
    ("alternative-lattice-proof-method", "oos",
     "historical proof route; the generating-function route is checked"),
    ("orthogonality-and-moments", "oos", "not part of the source material"),
)
