"""Deterministic rational parameter sampling for identity checks.

All draws are Fractions strictly inside their stated domains with a margin,
so annulus constraints hold with room to spare; a fixed seed reproduces the
exact same assignment.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

from ..errors import EmptyDomainError

MARGIN = Fraction(1, 20)  # 0.05 as specified for domain boundaries


def entry_rng(seed: int, entry_id: str, mode: str) -> random.Random:
    """Independent, reproducible stream per (seed, entry, mode)."""
    tag = zlib.crc32(f"{entry_id}:{mode}".encode())
    return random.Random((seed << 32) ^ tag)


def rational_in(rng: random.Random, lo, hi, den: int = 48) -> Fraction:
    """Fraction strictly inside (lo, hi) on a 1/den grid."""
    lo, hi = Fraction(lo), Fraction(hi)
    lo_i = int(lo * den) + 1
    hi_i = int(hi * den) - (1 if Fraction(int(hi * den), den) >= hi else 0)
    if hi_i < lo_i:
        raise EmptyDomainError(f"no grid point strictly inside ({lo}, {hi})")
    return Fraction(rng.randint(lo_i, hi_i), den)


def rational_nonzero(rng: random.Random, lo, hi, den: int = 48) -> Fraction:
    for _ in range(64):
        v = rational_in(rng, lo, hi, den)
        if v != 0:
            return v
    raise EmptyDomainError(f"only zero available in ({lo}, {hi})")


def annulus_pair(rng: random.Random, den: int = 48):
    """(a, b, z) with |b/a| + margin < |z| < 1 - margin."""
    a = rational_in(rng, Fraction(2, 5), Fraction(9, 10), den)
    b = a * rational_in(rng, Fraction(1, 20), Fraction(2, 5), den)
    lo = b / a + MARGIN
    z = rational_in(rng, lo, 1 - MARGIN, den * 4)
    return a, b, z


def distinct_rationals(rng: random.Random, count: int, lo, hi,
                       den: int = 48, avoid=()):
    """``count`` distinct draws avoiding the given values."""
    out = []
    guard = 0
    while len(out) < count:
        v = rational_in(rng, lo, hi, den)
        if v not in out and v not in avoid:
            out.append(v)
        guard += 1
        if guard > 200 * count:
            raise EmptyDomainError("could not find enough distinct samples")
    return out

