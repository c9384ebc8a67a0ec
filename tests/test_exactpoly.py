"""Exact arithmetic of Q(w) and of bivariate (a, q) polynomials, against
mpmath and against evaluation at rational points."""

import random
from fractions import Fraction

import mpmath as mp

from qrr import EisensteinRational
from qrr.exactpoly import BivariatePoly
from qrr.qpolynomials import c_poly, d_poly

F = Fraction
W = EisensteinRational.of(0, 1)


def _random_fraction(rnd):
    return F(rnd.randint(-10 ** 6, 10 ** 6), rnd.randint(1, 10 ** 6))


def _at_omega(z):
    """x + y w as an mpc at w = e^(2 pi i / 3)."""
    w = mp.expjpi(mp.mpf(2) / 3)
    return mp.mpf(z.x.numerator) / z.x.denominator + mp.mpf(z.y.numerator) / z.y.denominator * w


def test_omega_is_a_primitive_cube_root_of_unity():
    assert W * W == EisensteinRational.of(-1, -1)  # w^2 = -1 - w
    assert W * W * W == EisensteinRational.of(1)
    assert W * W + W + 1 == 0
    assert not W.is_zero() and (W - W).is_zero()


def test_eisenstein_arithmetic_matches_mpmath():
    rnd = random.Random(20261019)
    with mp.workdps(60):
        tol = mp.mpf(10) ** -50
        for _ in range(200):
            u = EisensteinRational(_random_fraction(rnd), _random_fraction(rnd))
            v = EisensteinRational(_random_fraction(rnd), _random_fraction(rnd))
            zu, zv = _at_omega(u), _at_omega(v)
            for got, want in ((u * v, zu * zv), (u + v, zu + zv), (u - v, zu - zv)):
                assert abs(_at_omega(got) - want) <= tol * max(1, abs(want)), (u, v)
            assert (u - u).is_zero() and (u + 0 == u) and (1 * u == u)


def test_bivariate_product_evaluates_to_the_product_of_evaluations():
    c, d = c_poly(5), d_poly(4)
    prod = c * d
    for a, q in ((F(1, 2), F(1, 3)), (F(-2, 7), F(5, 11)), (F(3), F(-1, 4))):
        assert prod.eval(a, q) == c.eval(a, q) * d.eval(a, q)
        assert (c - d).eval(a, q) == c.eval(a, q) - d.eval(a, q)
    # each coefficient of the product is the convolution of the factors' ones
    for (i, j), v in prod.coefficients().items():
        assert prod.coeff(i, j) == v == sum(
            c.coeff(i1, j1) * d.coeff(i - i1, j - j1) for i1, j1 in c.coefficients())
    assert prod.coeff(99, 99) == 0


def test_difference_with_itself_is_zero_with_no_key_left():
    for p in (c_poly(7), d_poly(6), c_poly(5) * d_poly(4)):
        assert not p.is_zero()
        diff = p - p
        assert diff.is_zero() and diff.coefficients() == {} and diff == BivariatePoly.zero()
    a, q = BivariatePoly.monomial(1, 1, 0), BivariatePoly.monomial(1, 0, 1)
    assert ((a + q) * (a - q) - (a * a - q * q)).coefficients() == {}
