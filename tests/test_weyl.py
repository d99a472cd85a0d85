import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest

from schurmult import orbitchar, polyengine, schur, weyl
from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    LimitError,
    Partition,
    distinct_permutations,
    partition_to_dominant,
    partitions_of,
)
from schurmult.polyengine import UPoly, XPoly
from schurmult.solver import solve_multiplicities
from schurmult.weyl import (
    FactorizationReport,
    alternant_multiplicities,
    verify_factorization,
    weyl_character_u,
)

import helpers
from helpers import (
    expanded_difference,
    monomial_alternant,
    multiplied_out_factorization,
    orbit_char_u,
    product_one_normal_form,
    up,
)

A1 = AlgebraContext(2)
A2 = AlgebraContext(3)


def _swap_variables(p: UPoly, i: int, j: int) -> UPoly:
    out = {}
    for exps, coeff in p.terms.items():
        e = list(exps)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = coeff
    return UPoly(p.nvars, out)


# -- characters ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, coords, reason",
    [
        (257, (32768,) + (0,) * 255, "32768 w1 has total degree 32768, at or above the packed-"),
        (3, (40000, 0), "40000 w1 has total degree 40000, at or above the packed-monomial limit"),
        (3, (1000, 0), "has dimension 501501; at most 500000 is supported"),
        (
            100,
            (1, 1) + (0,) * 97,
            "the character of w1 + w2 lists 333300 weights of 100 exponents, "
            "33330000 in all; at most 4000000 are supported",
        ),
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
        vandermonde = monomial_alternant((), n)
        assert weyl_character_u(target) * vandermonde == monomial_alternant(parts, n)


def test_character_equals_orbit_decomposition():
    # the character must decompose against orbit characters with the
    # solved multiplicities, at any rank
    cases = [(3, (2, 1)), (4, (2, 1, 1)), (3, (3, 1)), (5, (2, 2)), (7, (2, 1))]
    for n, parts in cases + [(9, (1,)), (9, (2, 1)), (12, (2, 2)), (40, (1, 1))]:
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


def _class_targets(n, q):
    ctx = AlgebraContext(n)
    return [partition_to_dominant(Partition(parts), ctx) for parts in partitions_of(q, n - 1)]


def test_alternant_multiplicities_agree_with_the_orbit_memo_cold_and_warm():
    # the straightened orbit of each μ is shared by the targets of a class,
    # whichever target reaches it first
    targets = _class_targets(5, 7)
    weyl._straightened_orbit.cache_clear()
    cold = {w: alternant_multiplicities(w) for w in targets}
    assert weyl._straightened_orbit.cache_info().hits > 0
    for w in targets:
        alternant_multiplicities(w).clear()  # a caller's map is its own
    warm = {w: alternant_multiplicities(w) for w in reversed(targets)}
    weyl._straightened_orbit.cache_clear()
    cold_reversed = {w: alternant_multiplicities(w) for w in reversed(targets)}
    assert cold == warm == cold_reversed
    for w, found in cold.items():
        solved = {m.mu_vector(): k for m, k in solve_multiplicities(w) if k}
        assert found == solved, w


def test_orbit_memo_is_bounded():
    assert weyl._straightened_orbit.cache_info().maxsize == weyl.ORBIT_CACHE_SIZE


def test_concurrent_alternant_routes_share_one_orbit_memo():
    targets = _class_targets(6, 6)
    serial = {w: alternant_multiplicities(w) for w in targets}
    weyl._straightened_orbit.cache_clear()

    results = [{} for _ in range(4)]
    errors = []

    def work(out, seed):
        order = list(targets)
        random.Random(seed).shuffle(order)
        try:
            for w in order:
                out[w] = alternant_multiplicities(w)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(out, seed)) for seed, out in enumerate(results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(out == serial for out in results)


def test_alternant_multiplicities_of_a11_within_time_gate():
    # (6,4,3,2,1) at N = 12: the 108 orbits it straightens hold 10.6 million
    # permutations (up to 554,400 each), of which few survive
    target = DominantWeight((2, 1, 1, 1, 1) + (0,) * 6, AlgebraContext(12))
    weyl._straightened_orbit.cache_clear()
    start = time.perf_counter()
    found = alternant_multiplicities(target)
    assert time.perf_counter() - start < 3.0
    solved = {member.mu_vector(): mult for member, mult in solve_multiplicities(target) if mult}
    assert found == solved


# -- straightening ---------------------------------------------------------

# every canonical exponent vector μ (fewer than N parts) of height at most 8
# at N = 2..7, and 5-part ones at N = 12
CANONICAL = [
    parts + (0,) * (n - len(parts))
    for n in range(2, 8)
    for total in range(9)
    for parts in partitions_of(total, n - 1)
]
FIVE_PARTS_AT_RANK_12 = [
    parts + (0,) * 7 for parts in [(2, 1, 1, 1, 1), (2, 2, 2, 1, 1), (3, 3, 2, 2, 1), (5, 4, 3, 2, 1)]
]


def test_straightened_orbit_equals_the_generic_straightening():
    for mu in CANONICAL + FIVE_PARTS_AT_RANK_12:
        got = weyl._straightened_orbit.__wrapped__(mu)
        assert len(dict(got)) == len(got), mu
        expected = helpers.straighten((alpha, 1) for alpha in distinct_permutations(mu))
        assert dict(got) == expected, mu


def test_shift_equals_the_generic_straightening():
    # the shift p_r a_(μ+δ) = sum_j a_(μ+δ + r e_j) that the factorization
    # audit hands to the power-sum peel
    for mu in CANONICAL:
        n = len(mu)
        for r in range(1, 5):
            got = weyl._shift(n, r, mu)
            assert len(dict(got)) == len(got), (r, mu)
            raised = ((mu[:j] + (mu[j] + r,) + mu[j + 1 :], 1) for j in range(n))
            assert dict(got) == helpers.straighten(raised), (r, mu)


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
    assert not reduced
    q = up(2, [(3, {1: 2, 2: 1}), (5, {2: 1})])
    assert product_one_normal_form(product_one_normal_form(q)) == product_one_normal_form(q)


# -- factorization audit -----------------------------------------------------


def test_factorization_single_box_two_rows():
    report = verify_factorization(Partition((1,)), A1)
    assert report.ok
    assert report.difference == {}


def test_factorization_of_more_than_n_rows_is_refused():
    # S_λ of N + 1 rows has no terms; the partition is refused, not audited
    for n, parts in [(2, (1, 1, 1)), (3, (1, 1, 1, 1))]:
        with pytest.raises(ValueError, match=f"has more than {n} parts"):
            verify_factorization(Partition(parts), AlgebraContext(n))


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


def _agrees_with_the_reference(report):
    reference = multiplied_out_factorization(report.partition, report.context)
    return report.ok == (not reference) and expanded_difference(report) == reference


def test_factorization_report_equals_the_multiplied_out_reference():
    for n, parts in CRITERION_5_CASES:
        report = verify_factorization(Partition(parts), AlgebraContext(n))
        assert report.ok and _agrees_with_the_reference(report), (n, parts)


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
            assert not report.ok and report.difference, (n, parts)
            assert _agrees_with_the_reference(report), (n, parts)
            assert str(report).startswith(f"{ctx} {Partition(parts)}: MISMATCH: ")


def test_factorization_audit_does_no_u_ring_arithmetic(monkeypatch):
    # the audit stays in the basis of alternants: no product, sum or
    # determinant of UPoly values, which all go through poly_dot
    original = polyengine.poly_dot

    def x_ring_only(ring, nvars, products):
        if ring is UPoly:
            raise AssertionError("the factorization audit did arithmetic in the u-ring")
        return original(ring, nvars, products)

    for module in (polyengine, schur, orbitchar):
        monkeypatch.setattr(module, "poly_dot", x_ring_only)
    for n, parts in CRITERION_5_CASES:
        assert verify_factorization(Partition(parts), AlgebraContext(n)).ok, (n, parts)


def test_factorization_above_the_alternant_row_bound():
    for n, parts in [(10, (2, 1)), (12, (3, 2, 1))]:
        report = verify_factorization(Partition(parts), AlgebraContext(n))
        assert report.ok and report.difference == {}, (n, parts)


def test_factorization_mismatch_above_rank_8_is_reported(monkeypatch):
    # the coefficients of alternants are reported as they are; expanding
    # them would take alternants of N! terms
    _doctor_schur(monkeypatch)
    for n, parts in [(9, (2, 1)), (12, (3, 2, 1)), (100, (2, 1))]:
        start = time.perf_counter()
        report = verify_factorization(Partition(parts), AlgebraContext(n))
        assert time.perf_counter() - start < 1.0, (n, parts)
        assert not report.ok, (n, parts)
        # x_1/3 = p_1/3 adds -1/3 m_(1) a_δ, which straightens to -1/3 a_((1)+δ)
        assert report.difference == {Partition((1,)): Fraction(-1, 3)}, (n, parts)


def test_factorization_report_rendering():
    ok = verify_factorization(Partition((1,)), A1)
    assert str(ok) == "A1 (1): ok"
    mismatch = FactorizationReport(
        Partition((2, 1)), A2, {Partition((2,)): Fraction(1, 3), Partition((1, 1)): -1}
    )
    assert not mismatch.ok
    assert str(mismatch) == "A2 (2,1): MISMATCH: 1/3 a[(2)] - 1 a[(1,1)]"
    negative = FactorizationReport(Partition((1,)), A1, {Partition(()): Fraction(-2, 5)})
    assert str(negative) == "A1 (1): MISMATCH: -2/5 a[()]"
