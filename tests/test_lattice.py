import time
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    LimitError,
    Partition,
    Weight,
    class_size,
    distinct_permutations,
    height,
    orbit_size,
    orbit_weights,
    partition_to_dominant,
    partitions_of,
    sub_Q_lambda1,
)

A5 = AlgebraContext(6)
A2 = AlgebraContext(3)
A1 = AlgebraContext(2)


# The full height-7 class for six rows: 14 partitions with their
# fundamental-weight coordinates, in the canonical enumeration order.
# Each row satisfies coords[i] = q[i] - q[i+1] and the height check
# sum((i+1) * coords[i]) == 7 mod 6.
HEIGHT7_TABLE = [
    ((7,), (7, 0, 0, 0, 0)),
    ((6, 1), (5, 1, 0, 0, 0)),
    ((5, 2), (3, 2, 0, 0, 0)),
    ((4, 3), (1, 3, 0, 0, 0)),
    ((5, 1, 1), (4, 0, 1, 0, 0)),
    ((4, 2, 1), (2, 1, 1, 0, 0)),
    ((3, 3, 1), (0, 2, 1, 0, 0)),
    ((3, 2, 2), (1, 0, 2, 0, 0)),
    ((4, 1, 1, 1), (3, 0, 0, 1, 0)),
    ((3, 2, 1, 1), (1, 1, 0, 1, 0)),
    ((2, 2, 2, 1), (0, 0, 1, 1, 0)),
    ((3, 1, 1, 1, 1), (2, 0, 0, 0, 1)),
    ((2, 2, 1, 1, 1), (0, 1, 0, 0, 1)),
    ((2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0)),
]


# -- partitions ----------------------------------------------------------


def test_partition_validation():
    Partition((3, 2, 2))
    Partition(())
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((1, 0))


def test_partition_weight_and_length():
    p = Partition((4, 2, 1))
    assert p.weight == 7
    assert p.length == 3
    assert list(p) == [4, 2, 1]


def test_partitions_of_enumeration_order():
    assert list(partitions_of(4, 4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions_of(0, 3)) == [()]


def _brute_force_partitions(total, max_parts, max_part):
    largest = total if max_part is None else min(total, max_part)
    found = [
        tuple(sorted(parts, reverse=True))
        for k in range(max_parts + 1)
        for parts in combinations_with_replacement(range(1, largest + 1), k)
        if sum(parts) == total
    ]
    return sorted(found, reverse=True)


@pytest.mark.parametrize("max_part", [None, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("max_parts", range(6))
def test_partitions_of_matches_brute_force(max_parts, max_part):
    for total in range(21):
        got = list(partitions_of(total, max_parts, max_part))
        assert got == _brute_force_partitions(total, max_parts, max_part), total


def test_partitions_of_two_parts_at_a1_height():
    got = list(partitions_of(300, 2))
    assert len(got) == 151
    assert got == _brute_force_partitions(300, 2, None)


# -- conversions ---------------------------------------------------------


@pytest.mark.parametrize("parts,coords", HEIGHT7_TABLE)
def test_partition_to_dominant_height7(parts, coords):
    w = partition_to_dominant(Partition(parts), A5)
    assert w.coords == coords


def test_six_one_conversion():
    assert partition_to_dominant(Partition((6, 1)), A5).coords == (5, 1, 0, 0, 0)


def test_full_column_reduces_to_zero_weight():
    for n in (2, 3, 4, 6):
        ctx = AlgebraContext(n)
        w = partition_to_dominant(Partition((1,) * n), ctx)
        assert w.coords == (0,) * (n - 1)


def test_too_long_partition_rejected():
    with pytest.raises(ValueError):
        partition_to_dominant(Partition((1,) * 4), A2)


def test_heights():
    assert height(partition_to_dominant(Partition((6, 1)), A5)) == 7
    assert height(DominantWeight((0,) * 5, A5)) == 0
    assert height(DominantWeight((1, 0, 0, 0, 0), A5)) == 1


def test_mu_vector_roundtrip_examples():
    w = DominantWeight((5, 1, 0, 0, 0), A5)
    assert w.mu_vector() == (6, 1, 0, 0, 0, 0)
    assert w.to_partition() == Partition((6, 1))


@given(st.integers(2, 6), st.integers(1, 8))
@settings(max_examples=80)
def test_partition_dominant_roundtrip(n, total):
    ctx = AlgebraContext(n)
    for parts in partitions_of(total, n - 1):
        p = Partition(parts)
        assert partition_to_dominant(p, ctx).to_partition() == p


# -- height classes ------------------------------------------------------


def test_height7_class_order_and_content():
    members = sub_Q_lambda1(7, A5)
    assert len(members) == 14
    assert [m.coords for m in members] == [coords for _, coords in HEIGHT7_TABLE]


def test_height_class_trivial():
    for n in (2, 4, 6):
        assert [w.coords for w in sub_Q_lambda1(1, AlgebraContext(n))] == [
            (1,) + (0,) * (n - 2)
        ]


def test_height_class_three_rows():
    members = sub_Q_lambda1(3, A2)
    assert [m.coords for m in members] == [(3, 0), (1, 1), (0, 0)]


def test_height_class_no_duplicates_and_height_mod():
    for n in (2, 3, 4, 5, 6, 9):
        ctx = AlgebraContext(n)
        for q in range(1, 13):
            members = sub_Q_lambda1(q, ctx)
            assert len(set(members)) == len(members)
            assert class_size(q, ctx) == len(members)
            for m in members:
                assert height(m) % n == q % n
            if q < n:
                assert all(height(m) == q for m in members)


def test_height_class_at_the_member_bound():
    # partitions of Q into at most two parts number Q // 2 + 1
    assert len(sub_Q_lambda1(1998, A1)) == 1000
    with pytest.raises(LimitError) as refused:
        sub_Q_lambda1(2000, A1)
    assert str(refused.value) == (
        "height class 2000 of A1 has at least 1001 members; at most 1000 are supported"
    )


# -- orbits --------------------------------------------------------------


def test_distinct_permutations():
    assert list(distinct_permutations((1, 1, 0))) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(distinct_permutations(())) == [()]
    # every vector of length <= 5 over {0, 1, 2}: each distinct
    # permutation once, in ascending lexicographic order
    for length in range(6):
        for v in product((0, 1, 2), repeat=length):
            assert list(distinct_permutations(v)) == sorted(set(permutations(v))), v


def test_orbit_weights_examples():
    w = partition_to_dominant(Partition((7,)), A5)
    assert len(orbit_weights(w)) == 6

    zero = DominantWeight((0, 0), A2)
    assert orbit_weights(zero) == [Weight((0, 0, 0), A2)]

    adjoint = DominantWeight((1, 1), A2)
    assert len(orbit_weights(adjoint)) == 6


def test_orbit_weights_are_distinct_and_canonical():
    w = DominantWeight((2, 0, 1, 0, 0), A5)
    weights = orbit_weights(w)
    assert len(set(weights)) == len(weights)
    for wt in weights:
        assert min(wt.mu_exponents) == 0


def test_orbit_above_the_term_bound_is_refused():
    start = time.perf_counter()
    with pytest.raises(LimitError, match="has 3628800 weights; at most 500000 are supported"):
        orbit_weights(DominantWeight((1,) * 9, AlgebraContext(10)))
    assert time.perf_counter() - start < 1.0


def test_orbit_size_examples():
    assert orbit_size(DominantWeight((5, 1, 0, 0, 0), A5)) == 30
    assert orbit_size(DominantWeight((0,) * 5, A5)) == 1
    assert orbit_size(DominantWeight((0, 0, 1, 1, 0), A5)) == 60


def test_orbit_size_at_rank_100000_is_a_product_of_binomials():
    # N! over the run counts built 1.5-million-bit factorials at this rank
    n = 100_000
    start = time.perf_counter()
    ctx = AlgebraContext(n)
    assert orbit_size(partition_to_dominant(Partition((2, 1)), ctx)) == n * (n - 1)
    assert orbit_size(partition_to_dominant(Partition((1,)), ctx)) == n
    assert orbit_size(partition_to_dominant(Partition((3, 1, 1)), ctx)) == n * (n - 1) * (n - 2) // 2
    assert time.perf_counter() - start < 1.0


@given(st.integers(2, 6), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_orbit_size_matches_enumeration(n, total):
    ctx = AlgebraContext(n)
    for parts in partitions_of(total, n - 1):
        w = partition_to_dominant(Partition(parts), ctx)
        assert len(orbit_weights(w)) == orbit_size(w)


# -- weights -------------------------------------------------------------


def test_weight_canonicalization():
    w = Weight((3, 1, 1), A2)
    assert w.mu_exponents == (2, 0, 0)
    assert w.dominant_representative().coords == (2, 0)


def test_weight_length_enforced():
    with pytest.raises(ValueError):
        Weight((1, 0), A2)


def test_context_validation():
    with pytest.raises(ValueError):
        AlgebraContext(1)
    assert str(AlgebraContext(6)) == "A5"


@pytest.mark.parametrize("N", [2.5, 3.0, True, "3", None])
def test_context_refuses_a_non_integer_rank(N):
    # a float N used to be accepted and end in a bare TypeError of the solve
    with pytest.raises(ValueError, match="rank context requires an integer N"):
        AlgebraContext(N)
    assert AlgebraContext(3).N == 3


def test_partition_and_dominant_weight_refuse_bools_and_non_integers():
    for parts in [(True, True), (2, True), (2.0, 1), ("2",)]:
        with pytest.raises(ValueError, match="positive integers"):
            Partition(parts)
    assert Partition((1, 1)).parts == (1, 1)
    for coords in [(True, False), (1, False), (1.0, 0), (1, None)]:
        with pytest.raises(ValueError, match="must be nonnegative"):
            DominantWeight(coords, A2)
    assert DominantWeight((1, 0), A2).coords == (1, 0)
