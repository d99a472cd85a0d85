import random
import re
import time
from fractions import Fraction

import pytest

from schurmult import weyl
from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    LimitError,
    Partition,
    partition_to_dominant,
    partitions_of,
)
from schurmult.orbitchar import orbit_char_u
from schurmult.polyengine import UPoly, XPoly
from schurmult.solver import solve_multiplicities
from schurmult.weyl import (
    FactorizationReport,
    alternant_matrix,
    alternant_multiplicities,
    verify_factorization,
    weyl_character_u,
)

import helpers
from helpers import monomial_alternant, multiplied_out_factorization, product_one_normal_form, up

A1 = AlgebraContext(2)
A2 = AlgebraContext(3)


def _swap_variables(p: UPoly, i: int, j: int) -> UPoly:
    out = {}
    for exps, coeff in p.terms.items():
        e = list(exps)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = coeff
    return UPoly(p.nvars, out)


# -- alternants ------------------------------------------------------------


def test_staircase_alternant_two_rows():
    assert alternant_matrix(Partition(()), A1) == up(2, [(1, {1: 1}), (-1, {2: 1})])


def test_staircase_alternant_three_rows_is_difference_product():
    u = [UPoly.variable(3, i) for i in range(3)]
    expected = (u[0] - u[1]) * (u[0] - u[2]) * (u[1] - u[2])
    assert alternant_matrix(Partition(()), A2) == expected


def test_shifted_alternant_single_box():
    assert alternant_matrix(Partition((1,)), A1) == up(2, [(1, {1: 2}), (-1, {2: 2})])


def test_alternant_sum_matches_matrix():
    for n in (2, 3, 4, 5):
        ctx = AlgebraContext(n)
        for total in range(0, 6):
            for parts in partitions_of(total, n):
                p = Partition(parts)
                assert alternant_matrix(p, ctx) == monomial_alternant(parts, n), (n, parts)


def test_alternant_antisymmetry_under_swaps():
    rng = random.Random(17)
    for n in (3, 4, 5):
        ctx = AlgebraContext(n)
        for parts in [(), (1,), (2, 1), (3, 1, 1)]:
            a = alternant_matrix(Partition(parts), ctx)
            i, j = rng.sample(range(n), 2)
            assert _swap_variables(a, i, j) == -a


def test_alternant_sum_rank_bound():
    with pytest.raises(LimitError, match="9! = 362880 terms") as refused:
        alternant_matrix(Partition(()), AlgebraContext(9))
    assert isinstance(refused.value, ValueError)


# -- characters ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, coords, reason",
    [
        (9, (1,) + (0,) * 7, "rank 9 needs an alternant of 9! = 362880 terms"),
        (3, (40000, 0), "total degree 40003, at or above the packed-monomial limit 32768"),
        (3, (1000, 0), "has dimension 501501; at most 500000 is supported"),
    ],
)
def test_character_above_a_bound_is_refused_up_front(n, coords, reason):
    start = time.perf_counter()
    with pytest.raises(LimitError, match=re.escape(reason)):
        weyl_character_u(DominantWeight(coords, AlgebraContext(n)))
    assert time.perf_counter() - start < 1.0


def test_character_defining_representation():
    w = DominantWeight((1,), A1)
    assert weyl_character_u(w) == up(2, [(1, {1: 1}), (1, {2: 1})])


def test_character_trivial_representation():
    assert weyl_character_u(DominantWeight((0, 0), A2)) == UPoly.one(3)


def test_character_adjoint():
    got = weyl_character_u(DominantWeight((1, 1), A2))
    expected = orbit_char_u(Partition((2, 1)), A2) + orbit_char_u(
        Partition((1, 1, 1)), A2
    ).scale(2)
    assert got == expected
    assert sum(got.terms.values()) == 8


def test_character_is_symmetric():
    rng = random.Random(23)
    for n, coords in [(3, (2, 1)), (4, (1, 0, 2)), (5, (0, 1, 1, 0))]:
        ch = weyl_character_u(DominantWeight(coords, AlgebraContext(n)))
        i, j = rng.sample(range(n), 2)
        assert _swap_variables(ch, i, j) == ch


def test_character_times_vandermonde_is_the_alternant():
    # the Weyl character formula multiplied out: s_λ a_δ = a_(λ+δ)
    for n, parts in [(2, (3,)), (3, (2, 1)), (3, (4, 2)), (4, (2, 1, 1)), (5, (3, 1))]:
        ctx = AlgebraContext(n)
        target = partition_to_dominant(Partition(parts), ctx)
        vandermonde = alternant_matrix(Partition(()), ctx)
        assert weyl_character_u(target) * vandermonde == alternant_matrix(Partition(parts), ctx)


def test_character_equals_orbit_decomposition():
    # the character must decompose against orbit characters with the
    # solved multiplicities
    for n, parts in [(3, (2, 1)), (4, (2, 1, 1)), (3, (3, 1)), (5, (2, 2)), (7, (2, 1))]:
        ctx = AlgebraContext(n)
        target = partition_to_dominant(Partition(parts), ctx)
        table = solve_multiplicities(target)
        acc = UPoly.zero(n)
        for member, mult in table:
            if mult:
                inflated = _inflate(member, sum(parts))
                acc = acc + orbit_char_u(Partition(inflated), ctx).scale(mult)
        assert weyl_character_u(target) == acc, (n, parts)


@pytest.mark.parametrize(
    "n, parts",
    [(3, (2, 1)), (4, (2, 1, 1)), (5, (3, 1)), (10, (2, 1)), (10, (3, 1)), (12, (3, 2, 1))],
)
def test_alternant_multiplicities_match_the_solver(n, parts):
    # top-down in the basis of alternants, with no row bound
    target = partition_to_dominant(Partition(parts), AlgebraContext(n))
    solved = {member.mu_vector(): mult for member, mult in solve_multiplicities(target) if mult}
    assert alternant_multiplicities(target) == solved


def _inflate(member, total):
    vec = member.mu_vector()
    add = (total - sum(vec)) // member.context.N
    return tuple(v + add for v in vec if v + add > 0)


# -- product-one normal form ------------------------------------------------


def test_normal_form_reduces_full_support_monomials():
    p = up(3, [(1, {1: 2, 2: 1, 3: 1})])
    assert product_one_normal_form(p) == up(3, [(1, {1: 1})])


def test_normal_form_is_idempotent_and_can_cancel():
    p = up(2, [(1, {1: 1, 2: 1}), (-1, {})])
    reduced = product_one_normal_form(p)
    assert reduced.is_zero
    q = up(2, [(3, {1: 2, 2: 1}), (5, {2: 1})])
    assert product_one_normal_form(product_one_normal_form(q)) == product_one_normal_form(q)


# -- factorization audit -----------------------------------------------------


def test_factorization_single_box_two_rows():
    report = verify_factorization(Partition((1,)), A1)
    assert report.ok
    assert report.difference.is_zero


def test_factorization_flagship_cases():
    ctx = AlgebraContext(6)
    for parts in [(6, 1), (5, 2), (4, 3)]:
        assert verify_factorization(Partition(parts), ctx).ok, parts


def test_factorization_small_sweep():
    for n in (3, 4):
        ctx = AlgebraContext(n)
        for total in range(1, 5):
            for parts in partitions_of(total, n):
                assert verify_factorization(Partition(parts), ctx).ok, (n, parts)


# the cases of acceptance criterion 5
CRITERION_5_CASES = [
    (n, parts) for n in (3, 4, 5) for total in range(1, 7) for parts in partitions_of(total, n)
] + [(6, parts) for parts in [(6, 1), (5, 2), (4, 3)]]


def test_factorization_report_equals_the_multiplied_out_reference():
    for n, parts in CRITERION_5_CASES:
        ctx, p = AlgebraContext(n), Partition(parts)
        assert verify_factorization(p, ctx) == multiplied_out_factorization(p, ctx), (n, parts)


def _doctor_schur(monkeypatch):
    """Add x_1/3 to the generalized Schur function, for the audit and its reference."""
    original = weyl.generalized_schur

    def doctored(p, ctx):
        return original(p, ctx) + XPoly.variable(ctx.N - 1, 0) * Fraction(1, 3)

    monkeypatch.setattr(weyl, "generalized_schur", doctored)
    monkeypatch.setattr(helpers, "generalized_schur", doctored)


def test_factorization_mismatch_report_equals_the_reference(monkeypatch):
    _doctor_schur(monkeypatch)
    for n in (3, 4, 6):
        ctx = AlgebraContext(n)
        for parts in [(1,), (2, 1), (3, 1)]:
            report = verify_factorization(Partition(parts), ctx)
            assert not report.ok
            assert report == multiplied_out_factorization(Partition(parts), ctx), (n, parts)
            assert str(report).startswith(f"{ctx} {Partition(parts)}: MISMATCH: ")


def test_factorization_above_the_alternant_row_bound():
    for n, parts in [(10, (2, 1)), (12, (3, 2, 1))]:
        report = verify_factorization(Partition(parts), AlgebraContext(n))
        assert report.ok and report.difference.is_zero, (n, parts)


def test_factorization_mismatch_above_the_row_bound_is_refused(monkeypatch):
    # expanding the difference would take the 9! terms of alternant_matrix
    _doctor_schur(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="9! = 362880 terms"):
        verify_factorization(Partition((2, 1)), AlgebraContext(9))
    assert time.perf_counter() - start < 5.0


def test_factorization_report_rendering():
    ok = verify_factorization(Partition((1,)), A1)
    assert "ok" in str(ok)
    fake = FactorizationReport(
        Partition((1,)), A1, False, ok.difference + ok.difference.one(2)
    )
    assert "MISMATCH" in str(fake)
    u1, u2 = (UPoly.variable(3, i) for i in range(2))
    mismatch = FactorizationReport(Partition((2, 1)), A2, False, u1 - u2)
    assert str(mismatch) == "A2 (2,1): MISMATCH: -u2 + u1"
