"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  All comparisons are exact (structural polynomial equality or
integer equality); the frozen golden values are independently pinned by the
brute-force oracles exercised in criteria 5, 6, 7, and 10.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    Partition,
    Weight,
    height,
    orbit_size,
    partition_to_dominant,
    partitions_of,
    sub_Q_lambda1,
)
from schurmult.oracle import freudenthal, inflated_exponents, kostka, kostka_multiplicity
from schurmult.orbitchar import orbit_char_x
from schurmult.schur import elementary_schur, generalized_schur
from schurmult.solver import dimension, solve_multiplicities
from schurmult.weyl import verify_factorization, weyl_character_u
from schurmult.polyengine import UPoly

from helpers import degenerate_x, evaluate, monomial_alternant, product_one_normal_form, xp

A5 = AlgebraContext(6)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} pass {description} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


# 14 rows of the height-7 class for six rows: partition, coordinates.
# The coordinates follow from differencing the padded parts; each row's
# height is its weighted coordinate sum and must be 7 modulo 6.
HEIGHT7_TABLE = [
    ((7,), (7, 0, 0, 0, 0), 7),
    ((6, 1), (5, 1, 0, 0, 0), 7),
    ((5, 2), (3, 2, 0, 0, 0), 7),
    ((4, 3), (1, 3, 0, 0, 0), 7),
    ((5, 1, 1), (4, 0, 1, 0, 0), 7),
    ((4, 2, 1), (2, 1, 1, 0, 0), 7),
    ((3, 3, 1), (0, 2, 1, 0, 0), 7),
    ((3, 2, 2), (1, 0, 2, 0, 0), 7),
    ((4, 1, 1, 1), (3, 0, 0, 1, 0), 7),
    ((3, 2, 1, 1), (1, 1, 0, 1, 0), 7),
    ((2, 2, 2, 1), (0, 0, 1, 1, 0), 7),
    ((3, 1, 1, 1, 1), (2, 0, 0, 0, 1), 7),
    ((2, 2, 1, 1, 1), (0, 1, 0, 0, 1), 7),
    ((2, 1, 1, 1, 1, 1), (1, 0, 0, 0, 0), 1),
]


def test_criterion_1_height7_class():
    with criterion(1, "height-7 class of A5: 14 rows, partitions, weights", 1.0):
        members = sub_Q_lambda1(7, A5)
        assert len(members) == 14
        for member, (parts, coords, h) in zip(members, HEIGHT7_TABLE):
            assert member.coords == coords
            assert height(member) == h
            inflated = tuple(v for v in inflated_exponents(member, 7) if v)
            assert inflated == parts
        # the conversion is forced: differencing each padded row must
        # reproduce the stated coordinates
        for parts, coords, _ in HEIGHT7_TABLE:
            padded = parts + (0,) * (6 - len(parts))
            assert coords == tuple(padded[i] - padded[i + 1] for i in range(5))


GOLDEN_X6 = xp(
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

GOLDEN_X7 = xp(
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


def test_criterion_2_dependent_indeterminates():
    with criterion(2, "dependent indeterminates x6, x7 for six rows", 1.0):
        x6 = degenerate_x(6, A5)
        x7 = degenerate_x(7, A5)
        assert x6 == GOLDEN_X6 and len(x6.terms) == 11
        assert x7 == GOLDEN_X7 and len(x7.terms) == 11


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


def test_criterion_3_degenerated_schur_functions():
    with criterion(3, "degenerated Schur functions S6, S7 for six rows", 1.0):
        s6 = elementary_schur(6, A5)
        s7 = elementary_schur(7, A5)
        assert s6 == GOLDEN_S6 and len(s6.terms) == 7
        assert s7 == GOLDEN_S7 and len(s7.terms) == 12
        # low-degree coefficients are forced by the all-ones evaluation:
        # the values must be the symmetric-power dimensions
        ones = [Fraction(6, k) for k in range(1, 6)]
        assert evaluate(s6, ones) == 462
        assert evaluate(s7, ones) == 792


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


def test_criterion_4_two_row_generalized_schur():
    with criterion(4, "generalized Schur function of (6,1) for six rows", 1.0):
        got = generalized_schur(Partition((6, 1)), A5)
        assert got == GOLDEN_S61
        # the degree-1 coefficient is forced: the all-ones evaluation is
        # the dimension of the corresponding irreducible representation
        ones = [Fraction(6, k) for k in range(1, 6)]
        assert evaluate(got, ones) == 1980 == dimension(DominantWeight((5, 1, 0, 0, 0), A5))


def test_criterion_5_factorization_audit():
    with criterion(5, "alternant factorization sweep", 120.0):
        for n in (3, 4, 5):
            ctx = AlgebraContext(n)
            for total in range(1, 7):
                for parts in partitions_of(total, n):
                    report = verify_factorization(Partition(parts), ctx)
                    assert report.ok, (n, parts, str(report))
        for parts in [(6, 1), (5, 2), (4, 3)]:
            assert verify_factorization(Partition(parts), A5).ok, parts


def test_criterion_6_flagship_multiplicity_table():
    with criterion(6, "flagship 1980-dimensional multiplicity table", 30.0):
        target = DominantWeight((5, 1, 0, 0, 0), A5)
        table = solve_multiplicities(target)
        assert [m for _, m in table] == [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5]
        # (a) dimension closure
        assert sum(m * orbit_size(w) for w, m in table) == 1980
        assert table.dimension == 1980 == dimension(target)
        # (b) recursion oracle agreement, orbit by orbit
        fm = freudenthal(target)
        for member, mult in table:
            key = Weight(inflated_exponents(member, 7), A5)
            assert fm.get(key, 0) == mult, member
        # (c) tableau oracle agreement, including the final entry
        assert kostka(Partition((6, 1)), (2, 1, 1, 1, 1, 1)) == 5
        for member, mult in table:
            assert kostka_multiplicity(target, member) == mult, member


def test_criterion_7_oracle_equivalence_sweep():
    with criterion(7, "solver = recursion = tableaux = alternant sweep", 300.0):
        from schurmult.weyl import weyl_character_u

        for n in (3, 4, 5):
            ctx = AlgebraContext(n)
            for total in range(1, 6):
                for parts in partitions_of(total, n - 1):
                    target = partition_to_dominant(Partition(parts), ctx)
                    table = solve_multiplicities(target)
                    fm = freudenthal(target)
                    character = weyl_character_u(target)
                    for member, mult in table:
                        exps = inflated_exponents(member, total)
                        assert fm.get(Weight(exps, ctx), 0) == mult, (n, parts, member)
                        assert kostka_multiplicity(target, member) == mult, (n, parts, member)
                        assert character.terms.get(exps, 0) == mult, (n, parts, member)
                    assert table.dimension == dimension(target) == sum(fm.values())


def test_criterion_8_symmetric_and_antisymmetric_extremes():
    with criterion(8, "all-ones and delta tables at the extremes", 60.0):
        for n in range(2, 7):
            ctx = AlgebraContext(n)
            for q in range(1, 8):
                table = solve_multiplicities(partition_to_dominant(Partition((q,)), ctx))
                assert all(m == 1 for _, m in table), (n, q)
        for n in range(3, 7):
            ctx = AlgebraContext(n)
            for q in range(1, n):
                target = partition_to_dominant(Partition((1,) * q), ctx)
                table = solve_multiplicities(target)
                for member, mult in table:
                    assert mult == (1 if member == target else 0), (n, q, member)


def _gen(ctx, q):
    return orbit_char_x(Partition((q,)), ctx)


def _red(ctx, *parts):
    return orbit_char_x(Partition(tuple(sorted(parts, reverse=True))), ctx)


def test_criterion_9_reduction_rules_and_determinant_identities():
    with criterion(9, "reduction-rule and determinant-identity goldens", 120.0):
        half, third = Fraction(1, 2), Fraction(1, 3)
        # K(Q) -> Q*x_Q is a ring homomorphism, so every rule holds in x
        # for each rank, with K(Q) the single-part class
        for c in (AlgebraContext(n) for n in range(2, 8)):
            for q1, q2, q3 in [(3, 2, 1), (4, 2, 1), (5, 3, 2)]:
                assert _red(c, q1, q2) == _gen(c, q1) * _gen(c, q2) - _gen(c, q1 + q2)
                assert _red(c, q1, q1) == half * (_gen(c, q1) * _gen(c, q1) - _gen(c, 2 * q1))
                assert _red(c, q1, q2, q3) == (
                    _gen(c, q1) * _red(c, q2, q3) - _red(c, q1 + q2, q3) - _red(c, q1 + q3, q2)
                )
                assert _red(c, q1, q2, q2) == _gen(c, q1) * _red(c, q2, q2) - _red(c, q1 + q2, q2)
                assert _red(c, q1, q1, q2) == half * (
                    _gen(c, q1) * _red(c, q1, q2) - _red(c, 2 * q1, q2) - _red(c, q1 + q2, q1)
                )
                assert _red(c, q1, q1, q1) == third * (
                    _gen(c, q1) * _red(c, q1, q1) - _red(c, 2 * q1, q1)
                )
                assert _red(c, q1, q2, q2, q2) == (
                    _gen(c, q1) * _red(c, q2, q2, q2) - _red(c, q1 + q2, q2, q2)
                )
                assert _red(c, q1, q2, q3, q3) == (
                    _gen(c, q1) * _red(c, q2, q3, q3)
                    - _red(c, q1 + q2, q3, q3)
                    - _red(c, q1 + q3, q2, q3)
                )
                assert _red(c, q1, q1, q1, q2) == third * (
                    _gen(c, q1) * _red(c, q1, q1, q2)
                    - _red(c, 2 * q1, q1, q2)
                    - _red(c, q1 + q2, q1, q1)
                )
                assert _red(c, q1, q2, q2, q2, q2) == (
                    _gen(c, q1) * _red(c, q2, q2, q2, q2) - _red(c, q1 + q2, q2, q2, q2)
                )
                assert _red(c, q1, q1, q2, q2, q2) == half * (
                    _gen(c, q1) * _red(c, q1, q2, q2, q2)
                    - _red(c, 2 * q1, q2, q2, q2)
                    - _red(c, q1 + q2, q2, q2, q1)
                )

        for n in (3, 4, 5, 6):
            ctx = AlgebraContext(n)

            def s(q):
                return elementary_schur(q, ctx)

            for q1 in range(1, 8):
                for q2 in range(1, q1 + 1):
                    got = generalized_schur(Partition((q1, q2)), ctx)
                    assert got == s(q1) * s(q2) - s(q1 + 1) * s(q2 - 1), (n, q1, q2)
            for total in range(3, 9):
                for parts in (p for p in partitions_of(total, 3) if len(p) == 3):
                    q1, q2, q3 = parts
                    expected = (
                        s(q1) * (s(q2) * s(q3) - s(q2 + 1) * s(q3 - 1))
                        - s(q1 + 1) * (s(q2 - 1) * s(q3) - s(q2 + 1) * s(q3 - 2))
                        + s(q1 + 2) * (s(q2 - 1) * s(q3 - 1) - s(q2) * s(q3 - 2))
                    )
                    assert generalized_schur(Partition(parts), ctx) == expected, (n, parts)


def test_criterion_10_alternant_cross_check():
    with criterion(10, "character times Vandermonde vs monomial determinant", 120.0):
        # the Weyl formula multiplied out, s_λ a_δ = a_(λ+δ), modulo the
        # product constraint: full columns leave the character
        for n in (2, 3, 4, 5):
            ctx = AlgebraContext(n)
            vandermonde = monomial_alternant((), n)
            for total in range(0, 6):
                for parts in partitions_of(total, n):
                    character = weyl_character_u(partition_to_dominant(Partition(parts), ctx))
                    assert product_one_normal_form(character * vandermonde) == (
                        product_one_normal_form(monomial_alternant(parts, n))
                    ), (n, parts)
        for n in range(2, 7):
            u = [UPoly.variable(n, i) for i in range(n)]
            vandermonde = UPoly.one(n)
            for i in range(n):
                for j in range(i + 1, n):
                    vandermonde = vandermonde * (u[i] - u[j])
            assert monomial_alternant((), n) == vandermonde
