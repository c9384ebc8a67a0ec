"""The two gap identities, three ways.

1. Coefficient-exact: both sides live in the truncated series ring and the
   difference is the zero series through q^100.
2. Combinatorial: coefficients count gap-restricted partitions on one side
   and congruence-restricted partitions on the other, by enumeration.
3. Numeric: 50-digit evaluation of the sum and product sides at q = 0.3.
"""

import mpmath as mp

from qrr import QContext
from qrr.partitions import (Congruence, MinGap, count_partitions,
                            series_vs_partitions)
from qrr.pochhammer import QPow, infinite_product
from qrr.qfunctions import rr_product_formal, rr_sum_formal, u_m_bilateral

print("== coefficient-exact check through q^100 ==")
ctx = QContext.formal(order=100, base_exponent=1)
for which in (1, 2):
    diff = rr_sum_formal(which - 1, ctx) - rr_product_formal(which, ctx)
    print(f"  identity {which}: difference is zero series -> {diff.is_zero()}")

print("\n== partition counts at n = 9 ==")
print("  parts with pairwise gaps >= 2:",
      count_partitions(9, MinGap(2)))
print("  parts = 1 or 4 (mod 5):      ",
      count_partitions(9, Congruence(frozenset({1, 4}), 5)))
print("  equinumerous for all n <= 40: ", series_vs_partitions("RR1", 40))

print("\n== numeric evaluation at q = 0.3, 50 digits ==")
ctx = QContext.numeric("0.3", precision=50)
with ctx.workdps():
    q = ctx.q
    lhs = u_m_bilateral(QPow(1, 0), 0, ctx)   # sum q^{n^2}/(q;q)_n
    rhs = infinite_product([], [q, q ** 4], q ** 5, ctx)
    print("  sum side:    ", mp.nstr(lhs, 30))
    print("  product side:", mp.nstr(rhs, 30))
    print("  |difference| =", mp.nstr(abs(lhs - rhs), 3))
