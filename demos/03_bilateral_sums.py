"""Bilateral sums: the classical binomial bilateral sum, the shifted
bilateral family u_m and its resolution along the recurrence pair, and one
of the cube-root-of-unity master identities."""

from fractions import Fraction

import mpmath as mp

from qrr import QContext, QPow
from qrr.qfunctions import (cube_convolution_sides, psi_1_1, psi_1_1_product,
                            square_master_sides, u_m_bilateral)
from qrr.qpolynomials import bilateral_m_version_sides, c_poly, d_poly

ctx = QContext.numeric("0.3", precision=50)

print("== bilateral binomial sum vs product form ==")
with ctx.workdps():
    a, b, z = mp.mpf("0.5"), mp.mpf("0.1"), mp.mpf("0.4")
    s = psi_1_1(a, b, z, ctx).value
    p = psi_1_1_product(a, b, z, ctx)
    print("  sum:    ", mp.nstr(s, 25))
    print("  product:", mp.nstr(p, 25))

print("\n== shifted bilateral family: resolution along c_m, d_m ==")
print("  c_4 =", c_poly(4))
print("  d_3 =", d_poly(3))
with ctx.workdps():
    for m in (2, 5, 8):
        lhs, rhs = bilateral_m_version_sides(mp.mpf("0.5"), m, ctx)
        res = abs(lhs - rhs)
        print(f"  m={m}: residual = {mp.nstr(res, 3)}")
    # at a = 1 the negative tail vanishes term by term
    u0 = u_m_bilateral(QPow(1, 0), 0, ctx).value
    print("  a=1 collapse (first gap series):", mp.nstr(u0, 25))

print("\n== exact cube-root-of-unity convolution (finite) ==")
lhs, rhs = cube_convolution_sides(6, Fraction(1, 3), Fraction(1, 2))
print("  n=6, a=1/3, q=1/2:", lhs.x, "+", lhs.y, "w  (exact, equals RHS:",
      lhs == rhs, ")")

print("\n== square-argument master identity, numeric ==")
with ctx.workdps():
    lhs, rhs = square_master_sides(1, mp.mpf("0.5"), mp.mpf("0.6"), ctx)
    print("  base-q^2 side:", mp.nstr(lhs, 25))
    print("  expansion:    ", mp.nstr(rhs, 25))
