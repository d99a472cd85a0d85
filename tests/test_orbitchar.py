import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import orbitchar
from schurmult.lattice import AlgebraContext, Partition, orbit_size, partition_to_dominant, partitions_of
from schurmult.orbitchar import orbit_char_x
from schurmult.schur import elementary_symmetric_x
from schurmult.polyengine import UPoly, XPoly

from helpers import (
    degenerate_x, evaluate, in_power_sums, orbit_char_u, product_one_normal_form, up, xp,
)

A5 = AlgebraContext(6)
A2 = AlgebraContext(3)


# the reduction rules hold in every rank, with K(Q) the single-part class
RANKS = [AlgebraContext(n) for n in range(2, 8)]


def K(ctx, q):
    return orbit_char_x(Partition((q,)), ctx)


def R(ctx, *parts):
    # class functions are labeled by multisets; sort into partition form
    return orbit_char_x(Partition(tuple(sorted(parts, reverse=True))), ctx)


# -- direct monomial-symmetric construction ------------------------------


def test_orbit_char_u_single_part():
    assert orbit_char_u(Partition((1,)), A2) == up(3, [(1, {1: 1}), (1, {2: 1}), (1, {3: 1})])


def test_orbit_char_u_full_column():
    assert orbit_char_u(Partition((1, 1, 1)), A2) == up(3, [(1, {1: 1, 2: 1, 3: 1})])


def test_orbit_char_u_two_one():
    expected = up(
        3,
        [
            (1, {1: 2, 2: 1}),
            (1, {1: 2, 3: 1}),
            (1, {2: 2, 1: 1}),
            (1, {2: 2, 3: 1}),
            (1, {3: 2, 1: 1}),
            (1, {3: 2, 2: 1}),
        ],
    )
    assert orbit_char_u(Partition((2, 1)), A2) == expected


def test_orbit_char_u_overlong_partition_is_zero():
    assert not orbit_char_u(Partition((1, 1, 1, 1)), A2)


def test_orbit_char_u_term_count_is_orbit_size():
    for n in (3, 4, 6):
        ctx = AlgebraContext(n)
        for total in range(1, 8):
            for parts in partitions_of(total, n):
                p = Partition(parts)
                poly = orbit_char_u(p, ctx)
                w = partition_to_dominant(p, ctx)
                assert len(poly.terms) == orbit_size(w)
                assert all(c == 1 for c in poly.terms.values())


# -- reduction rules in x ---------------------------------------------


@pytest.mark.parametrize("q1,q2", [(2, 1), (3, 1), (5, 2)])
def test_reduction_two_distinct(q1, q2):
    for c in RANKS:
        assert R(c, q1, q2) == K(c, q1) * K(c, q2) - K(c, q1 + q2), c


@pytest.mark.parametrize("q", [1, 2, 3])
def test_reduction_two_equal(q):
    for c in RANKS:
        assert R(c, q, q) == Fraction(1, 2) * (K(c, q) * K(c, q) - K(c, 2 * q)), c


@pytest.mark.parametrize("q1,q2,q3", [(3, 2, 1), (4, 2, 1), (5, 3, 2)])
def test_reduction_three_distinct(q1, q2, q3):
    for c in RANKS:
        expected = K(c, q1) * R(c, q2, q3) - R(c, q1 + q2, q3) - R(c, q1 + q3, q2)
        assert R(c, q1, q2, q3) == expected, c


@pytest.mark.parametrize("q1,q2", [(3, 2), (2, 1), (4, 1)])
def test_reduction_one_then_pair(q1, q2):
    for c in RANKS:
        assert R(c, q1, q2, q2) == K(c, q1) * R(c, q2, q2) - R(c, q1 + q2, q2), c


@pytest.mark.parametrize("q1,q2", [(2, 1), (3, 1), (3, 2)])
def test_reduction_pair_then_one(q1, q2):
    for c in RANKS:
        expected = Fraction(1, 2) * (
            K(c, q1) * R(c, q1, q2) - R(c, 2 * q1, q2) - R(c, q1 + q2, q1)
        )
        assert R(c, q1, q1, q2) == expected, c


@pytest.mark.parametrize("q", [1, 2, 3])
def test_reduction_three_equal(q):
    for c in RANKS:
        expected = Fraction(1, 3) * (K(c, q) * R(c, q, q) - R(c, 2 * q, q))
        assert R(c, q, q, q) == expected, c


@pytest.mark.parametrize("q1,q2", [(4, 1), (3, 2), (2, 1)])
def test_reduction_one_then_triple(q1, q2):
    for c in RANKS:
        expected = K(c, q1) * R(c, q2, q2, q2) - R(c, q1 + q2, q2, q2)
        assert R(c, q1, q2, q2, q2) == expected, c


@pytest.mark.parametrize("q1,q2,q3", [(3, 2, 1), (4, 2, 1), (5, 3, 1)])
def test_reduction_one_one_pair(q1, q2, q3):
    for c in RANKS:
        expected = (
            K(c, q1) * R(c, q2, q3, q3) - R(c, q1 + q2, q3, q3) - R(c, q1 + q3, q2, q3)
        )
        assert R(c, q1, q2, q3, q3) == expected, c


@pytest.mark.parametrize("q1,q2", [(2, 1), (3, 1), (3, 2)])
def test_reduction_triple_then_one(q1, q2):
    for c in RANKS:
        expected = Fraction(1, 3) * (
            K(c, q1) * R(c, q1, q1, q2) - R(c, 2 * q1, q1, q2) - R(c, q1 + q2, q1, q1)
        )
        assert R(c, q1, q1, q1, q2) == expected, c


@pytest.mark.parametrize("q1,q2", [(3, 1), (2, 1)])
def test_reduction_one_then_quadruple(q1, q2):
    for c in RANKS:
        expected = K(c, q1) * R(c, q2, q2, q2, q2) - R(c, q1 + q2, q2, q2, q2)
        assert R(c, q1, q2, q2, q2, q2) == expected, c


@pytest.mark.parametrize("q1,q2", [(2, 1), (3, 2)])
def test_reduction_pair_then_triple(q1, q2):
    for c in RANKS:
        expected = Fraction(1, 2) * (
            K(c, q1) * R(c, q1, q2, q2, q2)
            - R(c, 2 * q1, q2, q2, q2)
            - R(c, q1 + q2, q2, q2, q1)
        )
        assert R(c, q1, q1, q2, q2, q2) == expected, c


def test_reduction_single_and_empty():
    for c in RANKS:
        assert R(c, 5) == K(c, 5)
        assert R(c) == XPoly.one(c.N - 1)


# -- degenerated indeterminates ------------------------------------------


def test_degenerate_x_rank_two():
    # x2 = -1 + x1^2/2 when the two variables multiply to one
    assert degenerate_x(2, AlgebraContext(2)) == xp(1, [(-2, {}), (1, {1: 2})], prefactor=2)


DEGENERATE_X6 = xp(
    5,
    [
        (-720, {}),
        (1, {1: 6}),
        (-30, {1: 4, 2: 1}),
        (180, {1: 2, 2: 2}),
        (-120, {2: 3}),
        (120, {1: 3, 3: 1}),
        (-720, {1: 1, 2: 1, 3: 1}),
        (360, {3: 2}),
        (-360, {1: 2, 4: 1}),
        (720, {2: 1, 4: 1}),
        (720, {1: 1, 5: 1}),
    ],
    prefactor=720,
)

DEGENERATE_X7 = xp(
    5,
    [
        (-840, {1: 1}),
        (1, {1: 7}),
        (-28, {1: 5, 2: 1}),
        (140, {1: 3, 2: 2}),
        (105, {1: 4, 3: 1}),
        (-420, {1: 2, 2: 1, 3: 1}),
        (-420, {2: 2, 3: 1}),
        (-280, {1: 3, 4: 1}),
        (840, {3: 1, 4: 1}),
        (420, {1: 2, 5: 1}),
        (840, {2: 1, 5: 1}),
    ],
    prefactor=840,
)


def test_degenerate_x6_golden():
    poly = degenerate_x(6, A5)
    assert poly == DEGENERATE_X6
    assert len(poly.terms) == 11


def test_degenerate_x7_golden():
    poly = degenerate_x(7, A5)
    assert poly == DEGENERATE_X7
    assert len(poly.terms) == 11


def _random_point(n, rng):
    values = set()
    while len(values) < n - 1:
        values.add(Fraction(rng.randint(1, 30), rng.randint(1, 30)))
    us = sorted(values)
    prod = Fraction(1)
    for u in us:
        prod *= u
    us.append(1 / prod)
    return us


def test_degenerate_x_against_numeric_power_sums():
    # at any point with product one, x_Q must evaluate to the Q-th power
    # sum over Q
    rng = random.Random(11)
    for n in (2, 3, 4, 5, 6):
        ctx = AlgebraContext(n)
        us = _random_point(n, rng)
        xs = [sum(u**i for u in us) / i for i in range(1, n)]
        for q in range(n, n + 4):
            expected = sum(u**q for u in us) / q
            assert evaluate(degenerate_x(q, ctx), xs) == expected


def test_elementary_symmetric_against_numeric():
    from itertools import combinations
    from math import prod

    rng = random.Random(13)
    for n in (3, 4, 6):
        us = _random_point(n, rng)
        xs = [sum(u**i for u in us) / i for i in range(1, n)]
        for k in range(-1, n + 2):
            expected = sum(prod(c) for c in combinations(us, k)) if 0 <= k <= n else 0
            assert evaluate(elementary_symmetric_x(n, k), xs) == expected


# -- substitution into x -------------------------------------------------


def test_full_column_class_is_one():
    assert orbit_char_x(Partition((1,) * 6), A5) == XPoly.one(5)


def test_near_column_class_is_first_variable():
    assert orbit_char_x(Partition((2, 1, 1, 1, 1, 1)), A5) == XPoly.variable(5, 0)


def test_orbit_char_x_single_box():
    for n in (2, 3, 6):
        ctx = AlgebraContext(n)
        assert orbit_char_x(Partition((1,)), ctx) == XPoly.variable(n - 1, 0)


def test_column_classes_reduce_to_lower_generators():
    # length-N classes of weight Q collapse to the class of degree Q - N
    for n in (2, 3, 4):
        ctx = AlgebraContext(n)
        for extra in (1, 2, 3):
            parts = (extra + 1,) + (1,) * (n - 1)
            assert orbit_char_x(Partition(parts), ctx) == K(ctx, extra)


def test_orbit_char_x_overlong_partition_vanishes():
    assert not orbit_char_x(Partition((1, 1, 1, 1)), A2)
    assert not orbit_char_x(Partition((2, 2, 1, 1)), A2)


def test_full_length_class_factors_through_bottom():
    # in the u-ring, a full-length class is the single-degree class times
    # the full product monomial, exactly; modulo the constraint they agree
    for n in (3, 4, 6):
        ctx = AlgebraContext(n)
        full_product = UPoly(n, {(1,) * n: 1})
        for extra in (1, 2):
            parts = Partition((extra + 1,) + (1,) * (n - 1))
            assert orbit_char_u(parts, ctx) == orbit_char_u(Partition((extra,)), ctx) * full_product


def test_route_consistency_u_vs_x():
    # substituting power sums into the x-route must reproduce the direct
    # u-route modulo the product-one constraint; with N + 1 parts both vanish
    for n in (2, 3, 4, 5, 6):
        ctx = AlgebraContext(n)
        for total in range(1, 8):
            for parts in partitions_of(total, n + 1):
                p = Partition(parts)
                via_x = orbit_char_x(p, ctx)
                assert (not via_x) == (len(parts) > n), (n, parts)
                direct = orbit_char_u(p, ctx)
                assert product_one_normal_form(in_power_sums(via_x, ctx)) == (
                    product_one_normal_form(direct)
                ), (n, parts)


def test_orbit_char_x_evaluates_to_orbit_sum(monkeypatch):
    # at a point with product one, the x-route must give the orbit sum of
    # u-monomials exactly; parts >= N take degenerated degrees
    monkeypatch.setattr(orbitchar, "_orbit_x_cache", {})
    rng = random.Random(17)
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for us in (_random_point(n, rng), _random_point(n, rng)):
            xs = [sum(u**i for u in us) / i for i in range(1, n)]
            for total in range(10):
                for parts in partitions_of(total, n + 1):
                    p = Partition(parts)
                    expected = evaluate(orbit_char_u(p, ctx), us)
                    assert evaluate(orbit_char_x(p, ctx), xs) == expected, (n, parts, us)
