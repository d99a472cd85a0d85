import ast
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod
from pathlib import Path

import pytest

from schurmult import orbitchar, schur
from schurmult.lattice import AlgebraContext, Partition, partitions_of
from schurmult.orbitchar import orbit_char_x
from schurmult.schur import elementary_schur, elementary_symmetric_x, generalized_schur
from schurmult.polyengine import XPoly

from helpers import (
    character_value,
    complete_closed_form,
    degenerate_x,
    evaluate,
    h_form_schur,
    package_modules,
    power_sum_values,
    product_one_point,
    recurrence_schur,
    star_schur,
    xp,
)


A5 = AlgebraContext(6)


def S(q, n=6):
    return elementary_schur(q, AlgebraContext(n))


# Degenerated values for six rows.  Every frozen polynomial below is
# re-verified in this file against brute-force numeric oracles, so the
# coefficients are pinned twice: once structurally, once by evaluation.
GOLDEN_S6 = xp(
    5,
    [
        (-360, {}),
        (1, {1: 6}),
        (180, {1: 2, 2: 2}),
        (120, {1: 3, 3: 1}),
        (360, {3: 2}),
        (720, {2: 1, 4: 1}),
        (720, {1: 1, 5: 1}),
    ],
    prefactor=360,
)

GOLDEN_S7 = xp(
    5,
    [
        (-720, {1: 1}),
        (1, {1: 7}),
        (-24, {1: 5, 2: 1}),
        (180, {1: 3, 2: 2}),
        (120, {1: 4, 3: 1}),
        (-360, {1: 2, 2: 1, 3: 1}),
        (360, {1: 1, 3: 2}),
        (-240, {1: 3, 4: 1}),
        (720, {1: 1, 2: 1, 4: 1}),
        (720, {3: 1, 4: 1}),
        (720, {1: 2, 5: 1}),
        (720, {2: 1, 5: 1}),
    ],
    prefactor=360,
)

GOLDEN_S61 = xp(
    5,
    [
        (15, {1: 1}),
        (1, {1: 5, 2: 1}),
        (15, {1: 2, 2: 1, 3: 1}),
        (10, {1: 3, 4: 1}),
        (-30, {3: 1, 4: 1}),
        (-30, {2: 1, 5: 1}),
    ],
    prefactor=15,
)

# The two-row and longer height-7 values, keyed by partition.  The sign
# of the lone degree-1 term in each is pinned by the all-ones evaluation
# (the character dimension) and by the alternant-quotient oracle below.
GOLDEN_HEIGHT7 = {
    (5, 2): xp(
        5,
        [
            (720, {1: 1}),
            (1, {1: 7}),
            (66, {1: 5, 2: 1}),
            (-60, {1: 3, 2: 2}),
            (360, {1: 1, 2: 3}),
            (-60, {1: 4, 3: 1}),
            (720, {1: 2, 2: 1, 3: 1}),
            (720, {2: 2, 3: 1}),
            (-720, {1: 1, 3: 2}),
            (360, {1: 3, 4: 1}),
            (-720, {1: 1, 2: 1, 4: 1}),
            (-1080, {1: 2, 5: 1}),
            (720, {2: 1, 5: 1}),
        ],
        prefactor=720,
    ),
    (4, 3): xp(
        5,
        [
            (1, {1: 7}),
            (12, {1: 5, 2: 1}),
            (60, {1: 3, 2: 2}),
            (-15, {1: 4, 3: 1}),
            (180, {1: 2, 2: 1, 3: 1}),
            (-180, {2: 2, 3: 1}),
            (360, {1: 1, 3: 2}),
            (-120, {1: 3, 4: 1}),
            (360, {3: 1, 4: 1}),
            (-180, {1: 2, 5: 1}),
            (-360, {2: 1, 5: 1}),
        ],
        prefactor=360,
    ),
    (5, 1, 1): xp(
        5,
        [
            (-240, {1: 1}),
            (1, {1: 7}),
            (2, {1: 5, 2: 1}),
            (20, {1: 3, 2: 2}),
            (-120, {1: 1, 2: 3}),
            (60, {1: 4, 3: 1}),
            (-240, {1: 2, 2: 1, 3: 1}),
            (-240, {2: 2, 3: 1}),
            (-40, {1: 3, 4: 1}),
            (-240, {1: 1, 2: 1, 4: 1}),
            (480, {3: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
            (240, {2: 1, 5: 1}),
        ],
        prefactor=240,
    ),
    (4, 2, 1): xp(
        5,
        [
            (-120, {1: 1}),
            (1, {1: 7}),
            (20, {1: 3, 2: 2}),
            (15, {1: 4, 3: 1}),
            (-180, {1: 2, 2: 1, 3: 1}),
            (-60, {2: 2, 3: 1}),
            (-80, {1: 3, 4: 1}),
            (240, {1: 1, 2: 1, 4: 1}),
            (-120, {3: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
        ],
        prefactor=120,
    ),
    (3, 3, 1): xp(
        5,
        [
            (1, {1: 7}),
            (2, {1: 5, 2: 1}),
            (20, {1: 3, 2: 2}),
            (-120, {1: 1, 2: 3}),
            (-30, {1: 4, 3: 1}),
            (120, {1: 2, 2: 1, 3: 1}),
            (120, {2: 2, 3: 1}),
            (-40, {1: 3, 4: 1}),
            (-240, {1: 1, 2: 1, 4: 1}),
            (-240, {3: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
            (240, {2: 1, 5: 1}),
        ],
        prefactor=240,
    ),
    (3, 2, 2): xp(
        5,
        [
            (1, {1: 7}),
            (-2, {1: 5, 2: 1}),
            (20, {1: 3, 2: 2}),
            (120, {1: 1, 2: 3}),
            (-30, {1: 4, 3: 1}),
            (-120, {1: 2, 2: 1, 3: 1}),
            (120, {2: 2, 3: 1}),
            (40, {1: 3, 4: 1}),
            (-240, {1: 1, 2: 1, 4: 1}),
            (240, {3: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
            (-240, {2: 1, 5: 1}),
        ],
        prefactor=240,
    ),
    (4, 1, 1, 1): xp(
        5,
        [
            (360, {1: 1}),
            (1, {1: 7}),
            (12, {1: 5, 2: 1}),
            (-180, {1: 3, 2: 2}),
            (-15, {1: 4, 3: 1}),
            (180, {1: 2, 2: 1, 3: 1}),
            (540, {2: 2, 3: 1}),
            (360, {1: 1, 3: 2}),
            (120, {1: 3, 4: 1}),
            (-360, {3: 1, 4: 1}),
            (-180, {1: 2, 5: 1}),
            (-360, {2: 1, 5: 1}),
        ],
        prefactor=360,
    ),
    (3, 2, 1, 1): xp(
        5,
        [
            (360, {1: 1}),
            (2, {1: 7}),
            (-120, {1: 3, 2: 2}),
            (-75, {1: 4, 3: 1}),
            (540, {1: 2, 2: 1, 3: 1}),
            (-180, {2: 2, 3: 1}),
            (-360, {1: 1, 3: 2}),
            (240, {1: 3, 4: 1}),
            (360, {3: 1, 4: 1}),
            (-360, {1: 2, 5: 1}),
        ],
        prefactor=360,
    ),
    (2, 2, 2, 1): xp(
        5,
        [
            (1, {1: 7}),
            (-12, {1: 5, 2: 1}),
            (60, {1: 3, 2: 2}),
            (-15, {1: 4, 3: 1}),
            (-180, {1: 2, 2: 1, 3: 1}),
            (-180, {2: 2, 3: 1}),
            (360, {1: 1, 3: 2}),
            (120, {1: 3, 4: 1}),
            (-360, {3: 1, 4: 1}),
            (-180, {1: 2, 5: 1}),
            (360, {2: 1, 5: 1}),
        ],
        prefactor=360,
    ),
    (3, 1, 1, 1, 1): xp(
        5,
        [
            (-240, {1: 1}),
            (1, {1: 7}),
            (-18, {1: 5, 2: 1}),
            (20, {1: 3, 2: 2}),
            (120, {1: 1, 2: 3}),
            (60, {1: 4, 3: 1}),
            (-240, {2: 2, 3: 1}),
            (-120, {1: 3, 4: 1}),
            (-240, {1: 1, 2: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
            (240, {2: 1, 5: 1}),
        ],
        prefactor=240,
    ),
    (2, 2, 1, 1, 1): xp(
        5,
        [
            (-240, {1: 1}),
            (1, {1: 7}),
            (-22, {1: 5, 2: 1}),
            (100, {1: 3, 2: 2}),
            (-120, {1: 1, 2: 3}),
            (60, {1: 4, 3: 1}),
            (-240, {1: 2, 2: 1, 3: 1}),
            (240, {2: 2, 3: 1}),
            (-120, {1: 3, 4: 1}),
            (240, {1: 1, 2: 1, 4: 1}),
            (120, {1: 2, 5: 1}),
            (-240, {2: 1, 5: 1}),
        ],
        prefactor=240,
    ),
}


# -- generic low degrees ---------------------------------------------------


def test_low_degree_values():
    ctx = AlgebraContext(6)
    assert elementary_schur(0, ctx) == XPoly.one(5)
    assert elementary_schur(1, ctx) == XPoly.variable(5, 0)
    assert elementary_schur(2, ctx) == xp(5, [(1, {2: 1}), (1, {1: 2})], prefactor=1) - xp(
        5, [(1, {1: 2})], prefactor=2
    )


def test_degree_two_spelled_out():
    assert S(2) == xp(5, [(2, {2: 1}), (1, {1: 2})], prefactor=2)


def test_negative_degree_is_zero():
    assert not elementary_schur(-3, A5)


def test_rank_independence_below_bound():
    for q in range(6):
        small = elementary_schur(q, AlgebraContext(6))
        large = elementary_schur(q, AlgebraContext(7))
        trimmed = {
            tuple(e[i] for i in range(5)): c for e, c in large.terms.items()
        }
        assert small.terms == trimmed


def test_graded_homogeneity():
    for n in (3, 4, 6):
        ctx = AlgebraContext(n)
        for q in range(1, n):
            poly = elementary_schur(q, ctx)
            degrees = {sum((i + 1) * e for i, e in enumerate(exps)) for exps in poly.terms}
            assert degrees == {q}
        for q in range(n, n + 4):
            poly = elementary_schur(q, ctx)
            degrees = {sum((i + 1) * e for i, e in enumerate(exps)) for exps in poly.terms}
            assert all(d <= q and (q - d) % n == 0 for d in degrees)
            assert degrees


# -- degenerated values ----------------------------------------------------


def _homogeneous_sum_value(us, q):
    return sum(prod(us[i] for i in c) for c in combinations_with_replacement(range(len(us)), q))


def test_degenerated_six_golden():
    assert S(6) == GOLDEN_S6
    assert len(S(6).terms) == 7


def test_degenerated_seven_golden():
    assert S(7) == GOLDEN_S7
    assert len(S(7).terms) == 12


def test_degenerated_values_match_homogeneous_sums():
    rng = random.Random(3)
    for n in (2, 3, 4, 6):
        ctx = AlgebraContext(n)
        us = product_one_point(n, rng)
        xs = power_sum_values(us)
        for q in range(1, n + 2):
            assert evaluate(elementary_schur(q, ctx), xs) == _homogeneous_sum_value(us, q)


def test_degenerated_six_all_ones_dimension():
    # dimension of the six-fold symmetric power of the defining space
    xs = [Fraction(6, k) for k in range(1, 6)]
    assert evaluate(GOLDEN_S6, xs) == 462
    assert evaluate(GOLDEN_S7, xs) == 792


def test_star_low_degrees():
    assert star_schur(0, A5) == XPoly.one(5)
    assert star_schur(1, A5) == -XPoly.variable(5, 0)
    assert star_schur(2, A5) == xp(5, [(-2, {2: 1}), (1, {1: 2})], prefactor=2)


def test_star_recursion_variant_deviates_by_frozen_amount():
    # the naive star-product recursion
    #   (-1)^n S_(m-n-1) - sum_k Sk* S_(m-k)
    # is NOT the degenerated value: the starred top function is a full
    # polynomial rather than a constant.  The deviation is structural:
    for m in (6, 7, 8):
        variant = S(m - 7)
        for k in range(1, 7):
            variant = variant - star_schur(k, A5) * S(m - k)
        deviation = variant - S(m)
        expected = S(m - 7) + (XPoly.one(5) - star_schur(6, A5)) * S(m - 6)
        assert deviation == expected
        assert deviation


# -- generalized values ----------------------------------------------------


def test_single_row_is_elementary():
    for q in (0, 1, 3, 6, 7):
        assert generalized_schur(Partition((q,)) if q else Partition(()), A5) == S(q)


def test_six_one_golden():
    got = generalized_schur(Partition((6, 1)), A5)
    assert got == GOLDEN_S61
    assert got == S(6) * S(1) - S(7)


def test_six_one_all_ones_is_dimension():
    xs = [Fraction(6, k) for k in range(1, 6)]
    assert evaluate(GOLDEN_S61, xs) == 1980


@pytest.mark.parametrize("parts", sorted(GOLDEN_HEIGHT7))
def test_height7_generalized_golden(parts):
    assert generalized_schur(Partition(parts), A5) == GOLDEN_HEIGHT7[parts]


@pytest.mark.parametrize("parts", sorted(GOLDEN_HEIGHT7) + [(6, 1)])
def test_height7_generalized_against_alternant_quotient(parts):
    rng = random.Random(sum(parts))
    golden = GOLDEN_S61 if parts == (6, 1) else GOLDEN_HEIGHT7[parts]
    for _ in range(2):
        us = product_one_point(6, rng)
        assert evaluate(golden, power_sum_values(us)) == character_value(parts, us)


def test_two_row_determinant_identity():
    for n in (3, 4, 5, 6):
        ctx = AlgebraContext(n)
        for q1 in range(1, 8):
            for q2 in range(1, q1 + 1):
                got = generalized_schur(Partition((q1, q2)), ctx)
                expected = (
                    elementary_schur(q1, ctx) * elementary_schur(q2, ctx)
                    - elementary_schur(q1 + 1, ctx) * elementary_schur(q2 - 1, ctx)
                )
                assert got == expected, (n, q1, q2)


def test_three_row_expansion_identity():
    for n in (3, 4, 5, 6):
        ctx = AlgebraContext(n)
        for total in range(3, 9):
            for parts in partitions_of(total, 3):
                if len(parts) != 3:
                    continue
                q1, q2, q3 = parts

                def s(q):
                    return elementary_schur(q, ctx)

                expected = (
                    s(q1) * (s(q2) * s(q3) - s(q2 + 1) * s(q3 - 1))
                    - s(q1 + 1) * (s(q2 - 1) * s(q3) - s(q2 + 1) * s(q3 - 2))
                    + s(q1 + 2) * (s(q2 - 1) * s(q3 - 1) - s(q2) * s(q3 - 2))
                )
                assert generalized_schur(Partition(parts), ctx) == expected, (n, parts)


def test_antisymmetric_column_is_constant_or_variable():
    # a full column gives 1; a column of length q < n gives the
    # character of the q-th antisymmetric power
    ctx = AlgebraContext(4)
    assert generalized_schur(Partition((1, 1, 1, 1)), ctx) == XPoly.one(3)
    rng = random.Random(5)
    us = product_one_point(4, rng)
    got = generalized_schur(Partition((1, 1)), ctx)
    from itertools import combinations

    expected = sum(prod(c) for c in combinations(us, 2))
    assert evaluate(got, power_sum_values(us)) == expected


def test_full_column_identity_through_seven_and_eight_rows(monkeypatch):
    # a full column of N boxes is the constant 1, so adding one leaves the
    # function unchanged; N = 7 and 8 send 7- and 8-row matrices through
    # poly_det
    monkeypatch.setattr(schur, "_generalized_cache", {})
    for n in range(2, 9):
        ctx = AlgebraContext(n)
        for c in (1, 2):
            assert generalized_schur(Partition((c,) * n), ctx) == XPoly.one(n - 1), (n, c)
        for total in range(4):
            for parts in partitions_of(total, n):
                p = Partition(parts)
                widened = Partition(tuple(q + 1 for q in p.padded(n)))
                assert generalized_schur(widened, ctx) == generalized_schur(p, ctx), (n, parts)


def _empty_degree_caches(monkeypatch):
    for module, name in DEGREE_CACHES:
        monkeypatch.setattr(module, name, {})


DEGREE_CACHES = [
    (schur, "_elementary_cache"),
    (schur, "_elementary_window"),
    (orbitchar, "_psum_cache"),
    (orbitchar, "_psum_window"),
]


def test_context_caching_and_reuse(monkeypatch):
    # separate contexts of one rank share the module memos; the degree cache
    # keeps the seeds below N, the degrees asked for and the last N degrees
    _empty_degree_caches(monkeypatch)
    monkeypatch.setattr(schur, "_generalized_cache", {})
    first = elementary_schur(4, AlgebraContext(3))
    assert elementary_schur(4, AlgebraContext(3)) is first
    assert sorted(schur._elementary_cache) == [(3, 0), (3, 1), (3, 2), (3, 4)]
    top, window = schur._elementary_window[3]
    assert top == 4 and len(window) == 3 and window[-1] is first
    two_row = generalized_schur(Partition((2, 1)), AlgebraContext(3))
    assert generalized_schur(Partition((2, 1)), AlgebraContext(3)) is two_row
    # (2, 1) asks for S_0..S_3 in one call: degree 3 lies below the window
    assert sorted(schur._elementary_cache) == [(3, d) for d in range(5)]
    assert schur._elementary_window[3] == (top, window)
    assert sorted(schur._generalized_cache) == [(3, (2, 1))]


SEQUENCES = [
    pytest.param(schur, "_elementary_cache", "_elementary_window", "_newton", id="S"),
    pytest.param(orbitchar, "_psum_cache", "_psum_window", "_power_seed", id="p"),
]


@pytest.mark.parametrize("n", [2, 3, 5, 12])
@pytest.mark.parametrize("module, cache, window, seed", SEQUENCES)
def test_degrees_asked_any_way_equal_one_pass(monkeypatch, module, cache, window, seed, n):
    def ask(*degrees):
        found = schur._recurrence_degrees(
            getattr(module, cache), getattr(module, window), n, degrees, getattr(module, seed)
        )
        return [found[d] for d in degrees]

    def assert_kept(asked, top):
        seeds = set(range(n))
        assert sorted(getattr(module, cache)) == [(n, d) for d in sorted(seeds | set(asked))]
        kept_top, kept = getattr(module, window)[n]
        assert kept_top == top and kept == tuple(one_pass[top - n + 1 : top + 1])

    high = 2 * n + 4
    _empty_degree_caches(monkeypatch)
    one_pass = ask(*range(high + 1))
    # a high degree, then one below its window: a local pass from the seeds
    _empty_degree_caches(monkeypatch)
    assert ask(high) == [one_pass[high]]
    assert ask(n + 3) == [one_pass[n + 3]]
    assert_kept([high, n + 3], high)
    # a degree that continues the window of an earlier call
    _empty_degree_caches(monkeypatch)
    assert ask(n + 1) == [one_pass[n + 1]]
    assert ask(n + 4) == [one_pass[n + 4]]
    assert_kept([n + 1, n + 4], n + 4)
    # N + 3 degrees in one call
    _empty_degree_caches(monkeypatch)
    asked = range(n, 2 * n + 3)
    assert ask(*asked) == one_pass[n : 2 * n + 3]
    assert_kept(asked, 2 * n + 2)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_high_degrees_do_not_recurse(monkeypatch):
    _empty_degree_caches(monkeypatch)
    ctx = AlgebraContext(2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        h300 = elementary_schur(300, ctx)
        x300 = degenerate_x(300, ctx)
    finally:
        sys.setrecursionlimit(limit)
    # the seeds below N, the degree asked for and a window of N degrees
    assert sorted(schur._elementary_cache) == [(2, 0), (2, 1), (2, 300)]
    top, window = schur._elementary_window[2]
    assert top == 300 and len(window) == 2 and window[-1] is h300
    assert sorted(orbitchar._psum_cache) == [(2, 0), (2, 1), (2, 300)]
    assert orbitchar._psum_window[2][0] == 300
    assert x300.nvars == 1 and x300.terms
    # filling upward from a partly cached prefix gives the same values
    _empty_degree_caches(monkeypatch)
    h120 = elementary_schur(120, ctx)
    _empty_degree_caches(monkeypatch)
    elementary_schur(40, ctx)
    assert elementary_schur(120, ctx) == h120


# -- Newton's identity and the omega-twist ----------------------------------------


def test_elementary_symmetric_is_the_orbit_column_of_a_column(monkeypatch):
    monkeypatch.setattr(schur, "_elementary_cache", {})
    for n in range(2, 13):
        ctx = AlgebraContext(n)
        for k in range(1, n):
            assert elementary_symmetric_x(n, k) == orbit_char_x(Partition((1,) * k), ctx), (n, k)


def test_newton_gives_the_closed_form_below_n(monkeypatch):
    monkeypatch.setattr(schur, "_elementary_cache", {})
    for n in range(2, 13):
        for Q in range(n):
            assert elementary_schur(Q, AlgebraContext(n)) == complete_closed_form(Q, n), (n, Q)


def test_closed_form_spelled_out():
    # h_3 = x1^3/6 + x1 x2 + x3 in four variables
    assert complete_closed_form(3, 5) == xp(4, [(1, {1: 3}), (6, {1: 1, 2: 1}), (6, {3: 1})], 6)


def test_generalized_schur_matches_the_orbit_column_recurrence_across_n(monkeypatch):
    # degrees below N come from Newton's identity, degrees from N on from
    # the e-recurrence; partitions of up to N + 3 boxes cross the boundary
    monkeypatch.setattr(schur, "_elementary_cache", {})
    monkeypatch.setattr(schur, "_generalized_cache", {})
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for total in range(n + 4):
            for parts in partitions_of(total, n):
                p = Partition(parts)
                assert generalized_schur(p, ctx) == recurrence_schur(p, ctx), (n, parts)
    ctx = AlgebraContext(12)
    for parts in ((11,), (12,), (13,), (12, 1), (11, 2), (7, 5, 1)):
        p = Partition(parts)
        assert generalized_schur(p, ctx) == recurrence_schur(p, ctx), parts



def test_both_jacobi_trudi_forms_agree(monkeypatch):
    # a shape with more rows than columns takes det(e_(q'_i - i + j)), a
    # wider one det(S_(q_i - i + j)); both forms against the k x k h-form on
    # every shape of at most N + 1 rows, N + 1 rows giving zero
    monkeypatch.setattr(schur, "_generalized_cache", {})
    for n in range(2, 9):
        ctx = AlgebraContext(n)
        for total in range(25 if n <= 3 else 13):
            for parts in partitions_of(total, n + 1):
                p = Partition(parts)
                got = generalized_schur(p, ctx)
                expected = h_form_schur(p, ctx)
                assert (got.num, got.den) == (expected.num, expected.den), (n, parts)


@pytest.mark.parametrize(
    "parts, size", [((2, 1, 1, 1, 1), 2), ((1,) * 7, 1), ((3, 2, 1, 1), 3), ((4, 2, 1), 3)]
)
def test_tall_shape_takes_the_smaller_determinant(monkeypatch, parts, size):
    # a tall shape reaches poly_det as q_1 x q_1, any other as k x k
    sizes = []
    det = schur.poly_det

    def recorded(matrix):
        sizes.append(len(matrix))
        return det(matrix)

    monkeypatch.setattr(schur, "poly_det", recorded)
    monkeypatch.setattr(schur, "_generalized_cache", {})
    ctx = AlgebraContext(8)
    got = generalized_schur(Partition(parts), ctx)
    assert sizes == [size]
    assert got == h_form_schur(Partition(parts), ctx)

def test_schur_imports_nothing_from_orbitchar():
    path = Path(schur.__file__)
    modules = package_modules(ast.parse(path.read_text(), filename=str(path)))
    assert modules <= {"lattice", "polyengine"}
