"""Layer probes: single public calls at fixed inputs, timed untraced.

Each probe is the median of several repetitions, in raw seconds: the calls
are too short for the pass calibration to follow them, and the median drops
the repetitions that caught the machine in its slow state.  The two
``mpmath`` figures time the bottom layer at the working precision of the
default suite (50 target digits + 15 guard digits) right after the probes,
so that drift of the machine can be told apart from a change of the code.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 9


def _median_time(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def mpmath_calibration():
    """Cost of one raw mpf multiply and one complex integer power, in us."""
    import mpmath as mp

    n = 20000
    with mp.workdps(65):
        x, y = mp.mpf(2) / 3, mp.mpf(5) / 7
        z = mp.mpc(mp.mpf("0.3"), mp.mpf("0.4"))

        def muls():
            for _ in range(n):
                x * y

        def pows():
            for _ in range(n // 100):
                z ** 37

        return {"mpmath.mpf_mul_us": _median_time(muls) / n * 1e6,
                "mpmath.mpc_pow_us": _median_time(pows) / (n // 100) * 1e6}


def layer_probes():
    """One timing per layer probe, keyed by metric name."""
    import mpmath as mp

    from qrr import QContext
    from qrr.context import powq
    from qrr.partitions import series_vs_partitions
    from qrr.pochhammer import QPow, pochhammer_infinite, pochhammer_ratio
    from qrr.qfunctions import b_alpha, rho_root, rr_product_formal, rr_sum_formal
    from qrr.summation import sum_series

    out = {}
    ctx = QContext.numeric("0.3", precision=50)
    q = ctx.q
    with ctx.workdps():
        half = mp.mpf("0.5")
        terms = sum_series(lambda n: half ** n, ctx).terms_used
        out["probe.sum_series_geometric_us_per_term"] = _median_time(
            lambda: sum_series(lambda n: half ** n, ctx)) / terms * 1e6

        out["probe.pochhammer_infinite_ms"] = _median_time(
            lambda: pochhammer_infinite(QPow(1, 1), q, ctx)) * 1e3

        a, b = mp.mpf("0.6"), mp.mpf("0.15")
        out["probe.pochhammer_ratio_sweep_ms"] = _median_time(
            lambda: [pochhammer_ratio(a, b, q, j) for j in range(60)]) * 1e3

        # The inner b_alpha calls of ms-12 (alpha = 1, a = 0.6, b = 0.15,
        # x = 0.5, corrected twist) at slices s = -20, 0, 20; mean per call.
        twist = rho_root(ctx) ** 2
        xs = [twist * mp.mpf("0.5") * powq(q, 2 * s) for s in (-20, 0, 20)]
        out["probe.b_alpha_ms"] = _median_time(
            lambda: [b_alpha(1, a, b, x, ctx) for x in xs], 5) / len(xs) * 1e3

    fctx = QContext.formal(order=100, base_exponent=12)
    lhs, rhs = rr_sum_formal(0, fctx), rr_product_formal(1, fctx)
    out["probe.formal_mul_ms"] = _median_time(lambda: lhs * rhs) * 1e3

    out["probe.series_vs_partitions_s"] = _median_time(
        lambda: series_vs_partitions("RR1", 40), 1)
    return out
