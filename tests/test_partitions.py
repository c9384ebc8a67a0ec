"""Partition enumeration oracles against series and binomial coefficients."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrr import QPoly, SizeError, q_binomial
from qrr.partitions import (SIZE_CAP, Box, Congruence, MinGap, _tally, _walk,
                            box_gf, box_matches_q_binomial, count_partitions,
                            series_vs_partitions)

# a box as large as the size cap admits every partition the oracles count
EVERY = Box(SIZE_CAP, SIZE_CAP)


def _walked(n, filt):
    """The partitions of n that the pruned walk yields for ``filt``."""
    return [tuple(parts) for size, parts in _walk(filt.moves(n), n) if size == n]


def test_empty_partition_counts_once():
    for filt in (EVERY, MinGap(2), Congruence(frozenset({1, 4}), 5)):
        assert count_partitions(0, filt) == 1


def test_hand_enumerated_congruence_count():
    # partitions of 9 into parts = 1 or 4 mod 5:
    # 9; 6+1+1+1; 4+4+1; 4+1^5; 1^9
    assert count_partitions(9, Congruence(frozenset({1, 4}), 5)) == 5


def test_hand_enumerated_gap_count():
    # partitions of 9 with gaps >= 2: 9; 8+1; 7+2; 6+3; 5+3+1
    assert count_partitions(9, MinGap(2)) == 5


def test_gap_with_min_part_two():
    # 9; 7+2; 6+3 (5+3+1 and 8+1 excluded by the smallest-part bound)
    assert count_partitions(9, MinGap(2, min_part=2)) == 3


def test_unrestricted_matches_classical_values():
    classical = {1: 1, 5: 7, 10: 42, 20: 627}
    for n, p in classical.items():
        assert count_partitions(n, EVERY) == p


def test_size_cap():
    with pytest.raises(SizeError):
        count_partitions(61, EVERY)


def test_partition_generator_shape():
    parts = _walked(6, EVERY)
    assert len(parts) == 11
    assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in parts)
    assert all(sum(p) == 6 for p in parts)


def test_box_gf_trivial_and_hand_counted():
    assert box_gf(0, 7) == QPoly([1])
    # 2x2 box: empty; 1; 2; 1+1; 2+1; 2+2
    assert box_gf(2, 2) == QPoly([1, 1, 2, 1, 1])
    assert box_gf(3, 2) == q_binomial(5, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_box_gf_equals_gaussian_binomial(k, m):
    assert box_matches_q_binomial(k, m)


def test_box_gf_symmetric_unimodal_coefficients():
    p = box_gf(3, 4).coeffs()
    assert p == p[::-1]
    mid = len(p) // 2
    assert all(p[i] <= p[i + 1] for i in range(mid))
    assert all(p[i] >= p[i + 1] for i in range(mid, len(p) - 1))


def test_gap_series_coefficients_match_counts_small():
    assert series_vs_partitions("RR1", 0)
    assert series_vs_partitions("RR1", 12)
    assert series_vs_partitions("RR2", 12)


@lru_cache(maxsize=None)
def _bounded_count(n, max_part, max_parts):
    """Partitions of n with parts <= max_part and at most max_parts parts,
    by the largest-part recursion (independent of the walk)."""
    if n == 0:
        return 1
    if max_parts == 0:
        return 0
    return sum(_bounded_count(n - p, p, max_parts - 1)
               for p in range(1, min(max_part, n) + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 30), st.integers(0, 31), st.integers(0, 31))
def test_partitions_of_is_complete(n, max_part, max_parts):
    box = Box(max_parts, max_part)
    parts = _walked(n, box)
    assert len(set(parts)) == len(parts)
    assert len(parts) == _tally(box, n)[n] == _bounded_count(n, max_part, max_parts)
    assert all(sum(p) == n and len(p) <= max_parts and list(p) == sorted(p)[::-1]
               and all(1 <= x <= max_part for x in p) for p in parts)
    assert _tally(Box(n, n), n)[n] == _bounded_count(n, n, n)


@lru_cache(maxsize=None)
def _all_partitions(n, max_part=None):
    """Every partition of n as a descending tuple, by the largest-part
    recursion (independent of the walk)."""
    if n == 0:
        return ((),)
    top = n if max_part is None else min(max_part, n)
    return tuple((p,) + rest for p in range(top, 0, -1)
                 for rest in _all_partitions(n - p, p))


def _brute_count(n, filt):
    return sum(1 for parts in _all_partitions(n) if filt.admits(parts))


_FILTERS = st.one_of(
    st.builds(MinGap, st.integers(1, 3), st.integers(1, 3)),
    st.builds(Congruence, st.frozensets(st.integers(0, 7), max_size=4),
              st.integers(1, 8)),
    st.builds(Box, st.integers(0, 8), st.integers(0, 8)),
    st.just(EVERY))


@settings(max_examples=80, deadline=None)
@given(_FILTERS, st.integers(0, 30))
def test_pruned_counts_equal_brute_force(filt, n):
    assert count_partitions(n, filt) == _brute_count(n, filt)
    assert _tally(filt, n) == [_brute_count(k, filt) for k in range(n + 1)]


def test_pruned_walk_examines_only_admitted_partitions():
    class Counting(MinGap):
        examined = 0

        def admits(self, parts):
            Counting.examined += 1
            return super().admits(parts)

    counts = _tally(Counting(2, min_part=1), 40)
    assert Counting.examined == sum(counts)
