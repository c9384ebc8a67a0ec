"""Integer partition oracles by a constraint-pruned walk.

The oracles back the combinatorial claims: gap-restricted counts against
series coefficients, congruence-class counts against infinite-product
coefficients, and box-bounded generating polynomials against Gaussian
binomials.  They enumerate the partitions themselves and never read a
count off a generating function.

One walk does all the enumeration.  It grows descending partitions part by
part and visits every partition of every size up to a bound, so a single
walk tallies the counts of all sizes at once.  Each filter tells the walk
which parts it may append (its :class:`Moves`), which prunes whole branches
the filter would reject: a gap filter never proposes a part too close to
the previous one, a box never a part too wide or a row too many.  The
filter's ``admits`` stays the definition of what is counted: every
partition the walk yields is passed through it, so a pruning that proposes
too much is filtered out, and one that proposes too little shows up as a
count mismatch.  Partitions are yielded one at a time; none are kept.
Counts are capped at size ``SIZE_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import QContext
from .errors import SizeError
from .exactpoly import QPoly
from .pochhammer import q_binomial
from .qfunctions import rr_product_formal, rr_sum_formal

SIZE_CAP = 60


@dataclass(frozen=True)
class Moves:
    """What the walk may append to a partition: a part from ``parts`` that
    is at most the previous part minus ``gap``, while the partition has
    fewer than ``max_len`` parts (no bound when None)."""
    parts: tuple
    gap: int = 0
    max_len: int | None = None


@dataclass(frozen=True)
class Congruence:
    """Parts restricted to given residues modulo ``modulus``."""
    residues: frozenset
    modulus: int

    def admits(self, parts) -> bool:
        return all(p % self.modulus in self.residues for p in parts)

    def moves(self, upto: int) -> Moves:
        return Moves(tuple(p for p in range(1, upto + 1)
                           if p % self.modulus in self.residues))


@dataclass(frozen=True)
class MinGap:
    """Successive parts differ by at least ``gap``; smallest part bounded below."""
    gap: int
    min_part: int = 1

    def admits(self, parts) -> bool:
        if parts and parts[-1] < self.min_part:
            return False
        return all(parts[i] - parts[i + 1] >= self.gap for i in range(len(parts) - 1))

    def moves(self, upto: int) -> Moves:
        return Moves(tuple(range(max(self.min_part, 1), upto + 1)), max(self.gap, 0))


@dataclass(frozen=True)
class Box:
    """At most ``rows`` parts, each at most ``cols``."""
    rows: int
    cols: int

    def admits(self, parts) -> bool:
        return len(parts) <= self.rows and (not parts or parts[0] <= self.cols)

    def moves(self, upto: int) -> Moves:
        return Moves(tuple(range(1, min(self.cols, upto) + 1)), max_len=self.rows)


def _walk(moves: Moves, upto: int):
    """Yield ``(size, parts)`` for every descending partition of size at
    most ``upto`` that ``moves`` allows, the empty one first, in
    depth-first order with larger parts first.  ``parts`` is the walk's own
    list, valid until the next item is drawn."""
    if upto < 0:
        return
    allowed = set(moves.parts)
    below = [()]  # below[c]: the allowed parts <= c, descending
    for c in range(1, upto + 1):
        below.append((c,) + below[-1] if c in allowed else below[-1])
    gap = moves.gap
    max_len = upto if moves.max_len is None else moves.max_len
    parts, size = [], 0
    yield size, parts
    stack = [iter(below[upto])] if max_len > 0 else []  # one per open part
    while stack:
        p = next(stack[-1], None)
        if p is None:
            stack.pop()
            if parts:
                size -= parts.pop()
            continue
        parts.append(p)
        size += p
        yield size, parts
        if len(parts) < max_len:
            stack.append(iter(below[max(0, min(p - gap, upto - size))]))
        else:
            size -= parts.pop()


def _tally(filt, upto: int) -> list[int]:
    """Admitted partition counts for every size 0..upto, from one walk."""
    counts = [0] * (upto + 1)
    for size, parts in _walk(filt.moves(upto), upto):
        if filt.admits(tuple(parts)):
            counts[size] += 1
    return counts


def count_partitions(n: int, filt) -> int:
    """Exact filtered partition count: the admitted partitions of n."""
    if n > SIZE_CAP:
        raise SizeError(f"partition enumeration capped at n <= {SIZE_CAP}, got {n}")
    if n < 0:
        return 0
    return _tally(filt, n)[n]


def box_gf(k: int, m: int) -> QPoly:
    """sum q^{|partition|} over partitions inside a k-by-m box."""
    return QPoly(_tally(Box(k, m), k * m))


def series_vs_partitions(series_id: str, upto: int) -> bool:
    """Coefficient-by-coefficient check of the two classical gap theorems.

    For RR1 the q^n coefficient of the gap-2 series must equal the number of
    partitions of n with parts differing by >= 2, and also the number with
    parts in {1, 4} mod 5; for RR2 the analogous statement with smallest part
    >= 2 and residues {2, 3} mod 5.
    """
    if series_id not in ("RR1", "RR2"):
        raise ValueError(f"unknown series id {series_id!r}")
    which = 1 if series_id == "RR1" else 2
    if upto > SIZE_CAP:
        raise SizeError(f"capped at n <= {SIZE_CAP}")
    ctx = QContext.formal(order=max(upto, 1), base_exponent=1)
    series = rr_sum_formal(which - 1, ctx)
    product = rr_product_formal(which, ctx)
    gap_counts = _tally(MinGap(2, min_part=which), upto)
    cong_counts = _tally(Congruence(frozenset({which, 5 - which}), 5), upto)
    for n in range(upto + 1):
        c_series = series.coeff_q(n)
        if c_series != gap_counts[n]:
            return False
        if product.coeff_q(n) != cong_counts[n]:
            return False
        if c_series != product.coeff_q(n):
            return False
    return True


def box_matches_q_binomial(k: int, m: int) -> bool:
    """box_gf(k, m) == Gaussian binomial [k+m, k], coefficient-exact."""
    return box_gf(k, m) == q_binomial(k + m, k)
