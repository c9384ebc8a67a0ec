"""Exact polynomial helpers: univariate q-polynomials, bivariate (a, q)
polynomials, and rationals extended by a primitive cube root of unity."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


class QPoly:
    """Dense exact polynomial in q with int/Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls([1])

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, k: int):
        return self.c[k] if 0 <= k < len(self.c) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly([other])
        return isinstance(other, QPoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly([other])
        n = max(len(self.c), len(other.c))
        return QPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero():
            return QPoly()
        return QPoly([0] * k + self.c)

    def times_one_minus(self, e: int) -> "QPoly":
        """Product with (1 - q**e), e >= 0."""
        if e < 0:
            raise DomainError("QPoly exponents must be nonnegative")
        pad = [0] * e
        return QPoly([a - b for a, b in zip(self.c + pad, pad + self.c)])

    def divexact_one_minus(self, e: int) -> "QPoly":
        """Exact division by (1 - q**e), e >= 1; raises if not divisible.

        The quotient comes from the one recurrence out_k = c_k + out_{k-e};
        its product with 1 - q^e is c plus -out_k at q^{k+e} for the top e
        indices k, so c is divisible exactly when those entries vanish.
        """
        if e < 1:
            raise DomainError(f"cannot divide exactly by 1 - q^{e}")
        out = list(self.c)
        for k in range(e, len(out)):
            if out[k - e]:
                out[k] += out[k - e]
        if any(out[max(len(out) - e, 0):]):
            raise DomainError(f"polynomial not divisible by 1 - q^{e}")
        return QPoly(out[:len(out) - e])

    def __call__(self, x):
        acc = 0
        for a in reversed(self.c):
            acc = acc * x + a
        return acc

    def coeffs(self):
        return list(self.c)

    def __repr__(self):
        if self.is_zero():
            return "QPoly(0)"
        parts = [f"{a}*q^{k}" if k else f"{a}" for k, a in enumerate(self.c) if a != 0]
        return "QPoly(" + " + ".join(parts) + ")"


class BivariatePoly:
    """Exact polynomial in (a, q): sparse map (deg_a, deg_q) -> coefficient."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        self.t = {key: v for key, v in dict(terms or {}).items() if v != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff, deg_a: int, deg_q: int):
        return cls({(deg_a, deg_q): coeff})

    def __eq__(self, other):
        if isinstance(other, int):
            other = BivariatePoly({(0, 0): other})
        return isinstance(other, BivariatePoly) and self.t == other.t

    def __hash__(self):
        return hash(frozenset(self.t.items()))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _combine(self, other, op):
        """``self op other`` in one walk over other's terms: a key whose
        coefficient cancels is dropped in place."""
        out = dict(self.t)
        for key, v in other.t.items():
            v = op(out.get(key, 0), v)
            if v:
                out[key] = v
            else:
                del out[key]
        poly = object.__new__(BivariatePoly)
        poly.t = out
        return poly

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivariatePoly({k: v * other for k, v in self.t.items()})
        out = {}
        for (i1, j1), v1 in self.t.items():
            for (i2, j2), v2 in other.t.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def shift(self, deg_a: int, deg_q: int) -> "BivariatePoly":
        """Multiply by a**deg_a q**deg_q."""
        return BivariatePoly({(i + deg_a, j + deg_q): v for (i, j), v in self.t.items()})

    def is_zero(self) -> bool:
        return not self.t

    def coeff(self, deg_a: int, deg_q: int):
        return self.t.get((deg_a, deg_q), 0)

    def eval(self, a, q):
        acc = 0
        for (i, j), v in sorted(self.t.items()):
            acc = acc + v * a ** i * q ** j
        return acc

    def specialize_a(self, a) -> QPoly:
        """Evaluate the a-variable, leaving an exact polynomial in q."""
        deg_q = max((j for (_, j) in self.t), default=-1)
        out = [0] * (deg_q + 1)
        for (i, j), v in self.t.items():
            out[j] += v * a ** i
        return QPoly(out)

    def coefficients(self):
        return dict(self.t)

    def __repr__(self):
        if not self.t:
            return "BivariatePoly(0)"
        parts = [f"{v}*a^{i}*q^{j}" for (i, j), v in sorted(self.t.items())]
        return "BivariatePoly(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class EisensteinRational:
    """Exact element x + y*w of Q(w), w a primitive cube root of unity.

    Uses w**2 = -1 - w, so products stay in the two-coordinate form.  Exact
    arithmetic here lets finite sums carrying cube-root-of-unity weights be
    compared with no rounding at all.
    """

    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x, y=0):
        return cls(Fraction(x), Fraction(y))

    def __add__(self, other):
        other = _coerce(other)
        return EisensteinRational(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return EisensteinRational(self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        other = _coerce(other)
        # (x1 + y1 w)(x2 + y2 w) with w^2 = -1 - w
        return EisensteinRational(self.x * other.x - self.y * other.y,
                                  self.x * other.y + self.y * other.x - self.y * other.y)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __eq__(self, other):
        other = _coerce(other)
        return self.x == other.x and self.y == other.y


def _coerce(v) -> EisensteinRational:
    if isinstance(v, EisensteinRational):
        return v
    return EisensteinRational(Fraction(v), Fraction(0))
