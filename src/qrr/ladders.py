"""Kernel ladders: values V_0, V_1, ... of a q-kernel that obey a three-term
recurrence, made by backward recurrence from two direct values.

Two checks sum such a ladder: ``bessel-gf`` the orders I^(2)_m(z)
(:func:`~qrr.qbessel._order_ladder`) and ``st-5.3`` the values A_q(x q^k)
(:func:`~qrr.qpolynomials._entire_ladder`).  The wanted values are the
minimal solution of their recurrence as the index grows, so the backward
direction is stable.  :func:`_ladder_top` fixes the start index a priori
from the decay of the outer terms, :func:`_backward_ladder` sizes its width
from a float majorant and runs the recurrence in fixed point, and
:func:`_ladder_stream` asks each value for digits relative to itself; the
float log2 bounds come from :func:`_log2_series`.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice, repeat
from operator import mul

import mpmath as mp

from .context import MAX_TERMS, QContext, _Shared
from .errors import PrecisionLossError
from .fixedpoint import bits_for_digits
from .slices import _log2_sum
from .summation import FACTOR_SLACK, STOP_RUN


def _log2_series(ratio) -> float:
    """log2 of a bound on sum_n t_n, t_0 = 1 and t_(n+1) = t_n 2^ratio(n),
    for log2 ratios that do not increase with n: once a ratio is at most
    1/2, the rest after a term is at most that term, which is added once
    more (and 2^-20 relative for the float sums); inf beyond MAX_TERMS."""
    total = term = 0.0
    for n in range(MAX_TERMS):
        r = ratio(n)
        term += r
        total = _log2_sum((total, term))
        if r <= -1 and term < total - 60:
            return _log2_sum((total, term)) + 2.0 ** -20
    return math.inf


def _log2_one_minus(x: float) -> float:
    """log2(1 - x) for 0 <= x < 1."""
    return math.log1p(-x) / math.log(2)


def _ladder_top(step, rest, ctx: QContext):
    """The index M at which a ladder starts, fixed a priori from the decay
    of the outer terms w_k V_k that read it, or None within MAX_TERMS.

    |w_k V_k| is at most 2^(P(k) + rest(k)), P(k) = step(0) + ... +
    step(k - 1), with ``step`` not increasing in k and ``rest`` (the series
    part of the bound on |V_k|) not increasing and at least 0.  From the
    first k with step(k) < 0 and P(k) + rest(k) two bits below the stop
    tolerance, every later term is negligible, so an observed stop
    (:func:`~qrr.summation.sum_series`) ends its run of STOP_RUN negligible
    terms by index k + STOP_RUN - 1: M = k + STOP_RUN."""
    level, total = ctx.stop_log2 - 2, 0.0
    for k in range(MAX_TERMS):
        s = step(k)
        if total < level and s < 0 and total + rest(k) < level:
            return k + STOP_RUN
        total += s
    return None


def _backward_ladder(delta, beta, gamma: int, top: int, start, sizes, ctx: QContext):
    """V_0, ..., V_(top+1) of the solution of the three-term recurrence

        V_k = (1 - gamma q^(k+1)) V_(k+1) / delta + beta q^(k+1) V_(k+2)

    that is minimal as k grows, by backward recurrence from its two direct
    values V_top, V_(top+1) (Gautschi, "Computational aspects of three-term
    recurrence relations", SIAM Rev. 9, 1967; Olver, J. Res. NBS 71B,
    1967), and log2 of a bound on the absolute error of each value.
    ``start(c)`` returns the two direct values at the context c, ``sizes``
    log2 bounds on their magnitudes, and gamma is 0 or 1; delta and beta
    are read exactly, and 1 / delta is rounded once at the ladder's width.
    Two ladders read it: the q-Bessel orders I^(2)_m(z) of ``bessel-gf``
    and the values A_q(x q^k) of ``st-5.3``.  The recurrence is not normalised by a sum of
    its values, as in Miller's algorithm: the start values are direct.

    Every value is sized against a target of one unit of ``ctx.fixed_bits``
    relative to the majorant W_k below: each lies within
    2^(log2 W_k - fixed_bits) of the exact one.  Where the values cancel,
    W_k lies far above |V_k| (A_q(x q^k) near |q| = 1, I_m near q = -1),
    and :func:`_ladder_stream` asks for the rest.

    The majorant.  With |a_k|, |b_k| the float bounds on the two
    coefficients, W_k = |a_k| W_(k+1) + |b_k| W_(k+2) from the ``sizes`` at
    top and top + 1 bounds |V_k|, and also every computed value to first
    order.  At a width wp, u = 2^(1 - wp), step k errs by at most
    rho_k u (|a_k| |V_(k+1)| + |b_k| |V_(k+2)|): q^(k+1) is a running
    product of 2 c (k + 1) roundings (c = 2 for complex arithmetic, else
    1), amplified by |q^(k+1)| / |1 - q^(k+1)| in 1 - q^(k+1), the rounded
    1 / delta and beta, the two products and the sum,
    rho_k = 2 c (k + 1) (1 + |gamma q^(k+1)| / |1 - gamma q^(k+1)|) + 4 c + 4.
    An error is carried down by the same recurrence, so the error of V_k is
    at most eps W_k + u R_k, with R_k = |a_k| R_(k+1) + |b_k| R_(k+2) +
    rho_k W_k, R = 0 at the start, and eps the relative error of the start
    values: each a direct sum at a context whose working digits reach
    2^tail_log2, of small argument there, which does not cancel, times at
    most 2 top + 8 roundings of its prefactor, eps = c (2 top + 8)
    2^tail_log2.  The values are run at ``ctx.wider(g)``, with g the least
    number of bits (plus one for the second-order terms) that puts both
    parts under half the target at every k, so g does not depend on the
    size of W_k, only on R_k / W_k: the start values and every
    step are made at that width, so a wider rerun of the evaluation
    rebuilds them all wider.  The majorant runs on float log2 values,
    |1 - gamma q^(k+1)| from floats within ``FACTOR_SLACK``."""
    qv = complex(ctx.q)
    ell = math.log2(abs(qv))
    la, lb = -math.log2(abs(complex(delta))), math.log2(abs(complex(beta)))
    c = 2 if any(isinstance(v, mp.mpc) for v in (ctx.q, delta, beta)) else 1
    W = [0.0] * top + list(sizes)
    R = [-math.inf] * (top + 2)
    for k in range(top - 1, -1, -1):
        p = qv ** (k + 1) * gamma
        gp, gap = abs(p), abs(1 - p)
        a = la + math.log2(gap + FACTOR_SLACK) if gamma else la
        b = lb + (k + 1) * ell
        W[k] = _log2_sum((a + W[k + 1], b + W[k + 2]))
        rho = 2 * c * (k + 1) * (1 + gp / max(gap - FACTOR_SLACK, 1 - gp)) + 4 * c + 4
        R[k] = _log2_sum((a + R[k + 1], b + R[k + 2], math.log2(rho) + W[k]))
    fb, tl = ctx.fixed_bits, ctx.tail_log2
    ls = math.log2(c * (2 * top + 8))
    g = max(ls + tl + fb + 1, max(2 + r - w for w, r in zip(W, R)))
    g = max(0, math.ceil(g)) + 1
    wide = ctx.wider(g)
    with wide.workdps():
        first, second = start(wide)
    q = wide.fixed_q
    a0, b0 = 1 / wide.fixed(delta), wide.fixed(beta)
    powers = list(islice(accumulate(repeat(q), mul), top))  # q^1, ..., q^top
    values = [None] * top + [wide.fixed(first), wide.fixed(second)]
    for k in range(top - 1, -1, -1):
        p = powers[k]
        a = a0 * (1 - p) if gamma else a0
        values[k] = a * values[k + 1] + b0 * p * values[k + 2]
    bounds = [_log2_sum((ls + tl - g + w, 1 - fb - g + r)) for w, r in zip(W, R)]
    return values, bounds


def _ladder_stream(ladder, direct, ctx: QContext) -> _Shared:
    """The values of a ladder, (values, error bounds) from
    :func:`_backward_ladder`, then the direct values ``direct(k)`` yields
    from the first index k past them, as one :class:`~qrr.context._Shared`
    stream for every reader of a kept kernel.

    A direct sum keeps ``ctx.precision`` digits relative to its value, or
    raises PrecisionLossError for the bits it cancelled; a ladder value must
    keep as many, since the outer weights may reach far above 1 (about
    2^200 for ``st-5.3`` at q = 0.995).  Its bound is relative to the
    majorant, so where the majorant lies above the value, the stream raises
    PrecisionLossError naming the bits lacking to every reader, for a wider
    rerun (:func:`~qrr.context.widening`): the ladder is built once per
    width, not once per reader."""
    values, bounds = ladder
    need = bits_for_digits(ctx.precision)
    missing = max((need + math.ceil(bound) - (v.top() if v else -math.inf) + 1
                   for v, bound in zip(values, bounds)), default=0)

    def stream():
        if missing > 0:
            raise PrecisionLossError(f"a ladder value keeps too few digits; "
                                     f"{missing} more working bits needed", missing)
        yield from values
        yield from direct(len(values))

    return _Shared(stream())
