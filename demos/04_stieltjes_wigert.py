"""The q^{k^2}-weighted polynomials S_n: symmetry, the argument-shift
functional equation solved exactly, and the product/series kernels."""

from fractions import Fraction

import mpmath as mp

from qrr import QContext
from qrr.qpolynomials import (hermite_gf_sides, poisson_kernel_sides,
                              st_5_1_sides, stieltjes_wigert,
                              sw_as_hermite_sides, sw_functional_sides,
                              sw_inversion_sides, sw_symmetry_sides)

F = Fraction
q = F(1, 4)

print("== exact values at q = 1/4 ==")
print("  S_2(x) at x = 3/5:", stieltjes_wigert(2, F(3, 5), q))
lhs, rhs = sw_symmetry_sides(5, F(3, 7), q)
print("  symmetry (n=5, t=3/7): sides equal ->", lhs == rhs)
lhs, rhs = sw_functional_sides(3, F(2, 5), 4, q, F(1, 2))
print("  functional equation (k=3, y=2/5, n=4): sides equal ->", lhs == rhs)

print("\n== inverting the argument shift (exact rational) ==")
lhs, recon = sw_inversion_sides(2, F(1, 3), 1, q, F(1, 2), "corrected")
print("  S_2(1/3)        =", lhs)
print("  reconstruction  =", recon, " (corrected second-numerator reading)")

print("\n== bridge to the inverse-base Hermite family ==")
print("  residual with the e^{-n xi} factor, n <= 6:",
      max(abs(lhs - rhs) for lhs, rhs in (sw_as_hermite_sides(n, F(5, 4), q)
                                           for n in range(7))))

ctx = QContext.numeric("0.3", precision=50)
print("\n== product/series kernels at q = 0.3 ==")
with ctx.workdps():
    lhs, rhs = st_5_1_sides(mp.mpf("0.4"), mp.mpf("0.6"), ctx)
    print("  two-factor product:   ", mp.nstr(lhs, 22), "~", mp.nstr(rhs, 22))
    lhs, rhs = poisson_kernel_sides(mp.mpf("0.1"), mp.mpf("0.4"),
                                    mp.mpf("0.55"), ctx)
    print("  bilinear kernel:      ", mp.nstr(lhs, 22), "~", mp.nstr(rhs, 22))
    lhs, rhs = hermite_gf_sides(mp.mpf("0.15"), mp.mpf("0.5"), ctx,
                                reading="corrected")
    print("  quarter-power series: ", mp.nstr(lhs, 22), "~", mp.nstr(rhs, 22))
