import ast
import copy
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import schur, solver
from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    LimitError,
    Partition,
    Weight,
    orbit_size,
    partition_to_dominant,
    partitions_of,
    sub_Q_lambda1,
)
from schurmult.oracle import freudenthal, inflated_exponents, kostka_multiplicity
from schurmult.orbitchar import orbit_char_x
from schurmult.polyengine import UPoly, XPoly, unpack_monomial
from schurmult.schur import generalized_schur
from schurmult.solver import (
    SYSTEM_CACHE_SIZE,
    HeightClassSystem,
    MultiplicityTable,
    SolverError,
    dimension,
    height_class_system,
    solve_multiplicities,
)

from helpers import (
    orbit_char_u,
    orbit_equation,
    package_modules,
    product_formula_dimension,
    product_one_normal_form,
)

A5 = AlgebraContext(6)

FLAGSHIP = DominantWeight((5, 1, 0, 0, 0), A5)

# multiplicity per height-7 class member, in enumeration order; the last
# entry is pinned independently by the tableau count of shape (6,1) with
# content (2,1,1,1,1,1) and by the dimension sum
FLAGSHIP_MULTIPLICITIES = [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5]


def test_flagship_table():
    table = solve_multiplicities(FLAGSHIP)
    assert [m for _, m in table] == FLAGSHIP_MULTIPLICITIES
    assert table.dimension == 1980
    assert [w for w, _ in table] == sub_Q_lambda1(7, A5)


def test_flagship_dimension_sum():
    table = solve_multiplicities(FLAGSHIP)
    assert sum(m * orbit_size(w) for w, m in table) == table.dimension == dimension(FLAGSHIP)


def test_symmetric_power_tables_are_all_ones():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for q in range(1, 8):
            table = solve_multiplicities(partition_to_dominant(Partition((q,)), ctx))
            assert all(m == 1 for _, m in table), (n, q)


def test_antisymmetric_power_tables_are_deltas():
    for n in range(3, 7):
        ctx = AlgebraContext(n)
        for q in range(1, n):
            target = partition_to_dominant(Partition((1,) * q), ctx)
            table = solve_multiplicities(target)
            for member, mult in table:
                assert mult == (1 if member == target else 0), (n, q, member)
            assert table.dimension == dimension(target)


def test_zero_weight_table():
    zero = DominantWeight((0,) * 5, A5)
    table = solve_multiplicities(zero)
    assert table.entries == ((zero, 1),)
    assert table.dimension == 1


def test_highest_weight_multiplicity_is_one_across_sweep():
    for n in (3, 4):
        ctx = AlgebraContext(n)
        for total in range(1, 6):
            for parts in partitions_of(total, n - 1):
                target = partition_to_dominant(Partition(parts), ctx)
                table = solve_multiplicities(target)
                assert dict(table)[target] == 1
                assert table.dimension == dimension(target)


def test_rhs_support_lies_in_column_span():
    for n, total in [(3, 4), (4, 5), (6, 7)]:
        ctx = AlgebraContext(n)
        members = sub_Q_lambda1(total, ctx)
        support = set()
        for member in members:
            support |= set(orbit_char_x(member.to_partition(), ctx).terms)
        for member in members:
            rhs = generalized_schur(member.to_partition(), ctx)
            assert set(rhs.terms) <= support, (n, total, member)


def test_height7_system_is_square():
    # 14 distinct monomials across the columns for 14 unknowns: one
    # degree-1 monomial plus every graded-degree-7 monomial in x1..x5
    members = sub_Q_lambda1(7, A5)
    support = set()
    for member in members:
        support |= set(orbit_char_x(member.to_partition(), A5).terms)
    assert len(support) == len(members) == 14
    degrees = sorted(sum((i + 1) * e for i, e in enumerate(exps)) for exps in support)
    assert degrees == [1] + [7] * 13


# -- dimension formula -------------------------------------------------------


def test_dimension_examples():
    assert dimension(FLAGSHIP) == 1980
    for n in (2, 3, 5, 6):
        ctx = AlgebraContext(n)
        assert dimension(partition_to_dominant(Partition((1,)), ctx)) == n
    assert dimension(DominantWeight((1, 1), AlgebraContext(3))) == 8
    assert dimension(DominantWeight((0,) * 5, A5)) == 1


def test_dimension_agrees_with_the_full_product_formula():
    for n in range(2, 9):
        ctx = AlgebraContext(n)
        for q in range(10):
            for parts in partitions_of(q, n - 1):
                w = partition_to_dominant(Partition(parts), ctx)
                assert dimension(w) == product_formula_dimension(w), w


def test_dimension_at_high_rank_takes_only_the_unequal_pairs():
    # the hook-content formula: (1) has dimension N, and (3,2,1) has
    # contents 0, 1, 2, -1, 0, -2 and hook lengths 5, 3, 1, 3, 1, 1
    start = time.perf_counter()
    for n in (400, 800):
        ctx = AlgebraContext(n)
        assert dimension(partition_to_dominant(Partition((1,)), ctx)) == n
        w = partition_to_dominant(Partition((3, 2, 1)), ctx)
        assert dimension(w) == n * (n + 1) * (n + 2) * (n - 1) * n * (n - 2) // 45
    assert time.perf_counter() - start < 1.0


def test_dimension_is_cheap_at_rank_40000_and_at_large_weights():
    # the N - k zero entries telescope to one binomial per row, so neither
    # the rank nor a long first row costs O(N^2) or O(|λ|) factors; the
    # pair-by-pair product took 4.4 s for (2,1) at rank 40000
    start = time.perf_counter()
    n = 40_000
    ctx = AlgebraContext(n)
    assert dimension(partition_to_dominant(Partition((2, 1)), ctx)) == n * (n * n - 1) // 3
    assert dimension(partition_to_dominant(Partition((1,)), AlgebraContext(100_000))) == 100_000
    assert dimension(DominantWeight((10**9,), AlgebraContext(2))) == 10**9 + 1
    assert dimension(DominantWeight((10**6, 0), AlgebraContext(3))) == comb(10**6 + 2, 2)
    assert time.perf_counter() - start < 1.0


def test_dimension_agrees_with_the_full_product_formula_on_random_weights():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(2, 30)
        coords = tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(n - 1))
        w = DominantWeight(coords, AlgebraContext(n))
        assert dimension(w) == product_formula_dimension(w), w


# -- the monomial -> orbit matrix ------------------------------------------------


def test_power_sum_times_orbit_sum_is_counted():
    # p_r m_mu, multiplied out in u and reduced by e_N = 1, against the pairs
    for n in range(2, 6):
        ctx = AlgebraContext(n)
        for r in range(1, 5):
            power_sum = orbit_char_u(Partition((r,)), ctx)
            for size in range(7):
                for mu in partitions_of(size, n - 1):
                    product = power_sum * orbit_char_u(Partition(mu), ctx)
                    pairs = solver._times_power_sum(n, r, mu)
                    assert len({nu for nu, _ in pairs}) == len(pairs)
                    counted = sum(
                        (c * orbit_char_u(Partition(nu), ctx) for nu, c in pairs),
                        UPoly.zero(n),
                    )
                    assert product_one_normal_form(product) == counted, (n, r, mu)


@pytest.mark.parametrize("n, q", [(6, 7), (8, 10), (8, 16), (12, 9), (3, 20), (2, 301)])
def test_class_matrix_inverts_the_orbit_columns(n, q):
    # the rows are the monomials of the orbit columns, and each column
    # solves to its own unit vector
    ctx = AlgebraContext(n)
    system = height_class_system(n, q)
    columns = [orbit_char_x(member.to_partition(), ctx) for member in system.members]
    assert set(system.rows) == set().union(*(column.num for column in columns))
    assert len(system.rows) == len(system.members)
    for j, column in enumerate(columns):
        unit = [0] * len(columns)
        unit[j] = 1
        assert system.solve(column) == unit, system.members[j]


def _flagship_rhs():
    return generalized_schur(FLAGSHIP.to_partition(), A5)


def test_solve_exact_unique_system():
    assert height_class_system(6, 7).solve(_flagship_rhs()) == FLAGSHIP_MULTIPLICITIES


def test_solve_exact_detects_inconsistency():
    # x2 has x-weight 2, and the rows of height 7 in A5 have weights 7 and 1
    rhs = _flagship_rhs() + XPoly.variable(5, 1)
    message = "system is inconsistent: rhs monomial (0, 1, 0, 0, 0) lies outside the class rows"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        height_class_system(6, 7).solve(rhs)


def test_solve_exact_fractional_solution_rejected_downstream():
    # the second member, the highest weight itself, solves to 1/2
    rhs = _flagship_rhs() * Fraction(1, 2)
    message = "system is not integral: the multiplicity of 5 w1 + w2 solves to 1/2"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        height_class_system(6, 7).solve(rhs)


def test_solve_rejects_rhs_monomial_outside_column_support():
    # x1^13 has the x-weight of the class modulo 6 but lies above its height
    rhs = _flagship_rhs() + XPoly(5, {(13, 0, 0, 0, 0): 1})
    message = "system is inconsistent: rhs monomial (13, 0, 0, 0, 0) lies outside the class rows"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        height_class_system(6, 7).solve(rhs)


def test_solve_fractional_rhs_takes_common_denominator():
    # the flagship Schur function has denominator 15; the shared system
    # serves every scaled copy of it unchanged
    rhs = _flagship_rhs()
    assert rhs.den == 15
    system = height_class_system(6, 7)
    assert system.solve(rhs * 6) == [6 * m for m in FLAGSHIP_MULTIPLICITIES]
    assert system.solve(rhs * 5) == [0, 5, 5, 5, 10, 10, 10, 10, 15, 15, 15, 20, 20, 25]
    with pytest.raises(SolverError, match="not integral"):
        system.solve(rhs * Fraction(1, 3))
    assert system.solve(rhs) == FLAGSHIP_MULTIPLICITIES


def test_solver_imports_nothing_from_orbitchar():
    path = Path(solver.__file__)
    modules = package_modules(ast.parse(path.read_text(), filename=str(path)))
    assert "orbitchar" not in modules
    assert modules <= {"lattice", "polyengine", "schur"}


# -- the orbit columns and the paper's equation ----------------------------------

# the (N, lowest height, highest height) strata of the mult-cold benchmark
# workload (perfbench/workloads.py)
COLD_STRATA = (
    (5, 9, 12),
    (6, 8, 11),
    (7, 8, 10),
    (8, 8, 11),
    (9, 7, 10),
    (10, 6, 10),
    (11, 6, 9),
    (12, 6, 10),
    (2, 100, 300),
    (3, 20, 30),
)


def _x_weight(exps):
    return sum(i * e for i, e in enumerate(exps, 1))


def test_class_columns_form_square_weight_blocks():
    for n, low, high in COLD_STRATA + ((8, 16, 16),):
        ctx = AlgebraContext(n)
        weight = {}  # packed monomial -> x-weight
        checked = set()  # member partitions whose column is checked
        for q in range(low, high + 1):
            partitions = [member.to_partition() for member in sub_Q_lambda1(q, ctx)]
            columns = [orbit_char_x(partition, ctx).num for partition in partitions]
            support = set().union(*columns)
            for mono in support - weight.keys():
                weight[mono] = _x_weight(unpack_monomial(mono, n - 1))
            for partition, column in zip(partitions, columns):
                if partition not in checked:
                    checked.add(partition)
                    size = partition.weight
                    weights = set(map(weight.__getitem__, column))
                    assert max(weights) == size, (n, partition)
                    assert all((size - w) % n == 0 for w in weights), (n, partition)
            rows_at = Counter(map(weight.__getitem__, support))
            assert rows_at == Counter(partition.weight for partition in partitions), (n, q)


def test_tables_satisfy_the_orbit_equation():
    # every highest weight of the A7 h10 class and of the classes at both
    # ends of each stratum; the larger A7 h16 class is left to the inverse
    # test, whose unit vectors give the equation for every right-hand side
    classes = {(8, 10)} | {(n, q) for n, low, high in COLD_STRATA for q in (low, high)}
    for n, q in sorted(classes):
        for w in _highest_weights(n, q):
            assert not orbit_equation(solve_multiplicities(w)), w


# -- shared height-class systems -------------------------------------------------


def _highest_weights(n, q):
    ctx = AlgebraContext(n)
    return [partition_to_dominant(Partition(parts), ctx) for parts in partitions_of(q, n - 1)]


def _assert_matches_oracles(table, q):
    target = table.highest_weight
    fm = freudenthal(target)
    for member, mult in table:
        assert fm.get(Weight(inflated_exponents(member, q), target.context), 0) == mult
    assert table.dimension == dimension(target) == sum(fm.values())


def test_whole_class_solves_share_one_system():
    classes = [(6, 7), (5, 6)]
    targets = [(w, q) for n, q in classes for w in _highest_weights(n, q)]
    random.Random(7).shuffle(targets)
    height_class_system.cache_clear()
    cold = {}
    for w, q in targets:
        cold[w] = solve_multiplicities(w)
        _assert_matches_oracles(cold[w], q)
    assert height_class_system.cache_info().misses == len(classes)
    for w, q in reversed(targets):
        assert solve_multiplicities(w) == cold[w]
    info = height_class_system.cache_info()
    assert info.misses == len(classes)
    assert info.hits == 2 * len(targets) - len(classes)


@st.composite
def _dominant_targets(draw):
    n = draw(st.integers(2, 6))
    q = draw(st.integers(1, 10))
    parts = draw(st.sampled_from(list(partitions_of(q, n - 1))))
    return partition_to_dominant(Partition(parts), AlgebraContext(n)), q


@given(_dominant_targets())
@settings(max_examples=40, deadline=None)
def test_solver_agrees_with_both_oracles(target_height):
    target, q = target_height
    table = solve_multiplicities(target)
    _assert_matches_oracles(table, q)
    for member, mult in table:
        assert kostka_multiplicity(target, member) == mult, member
    assert sum(mult * orbit_size(member) for member, mult in table) == dimension(target)


def test_concurrent_solves_share_one_system(monkeypatch):
    targets = _highest_weights(6, 7)
    height_class_system.cache_clear()
    serial = {w: solve_multiplicities(w) for w in targets}
    built = copy.deepcopy(vars(height_class_system(6, 7)))
    height_class_system.cache_clear()
    # the threads also race on first misses of the generalized Schur functions
    monkeypatch.setattr(schur, "_generalized_cache", {})

    results = [{} for _ in range(4)]
    errors = []

    def work(out, seed):
        order = list(targets)
        random.Random(seed).shuffle(order)
        try:
            for w in order:
                out[w] = solve_multiplicities(w)
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
    assert vars(height_class_system(6, 7)) == built


def test_system_cache_is_bounded():
    classes = [(n, q) for n in (2, 3, 4) for q in range(1, 7)]
    assert len(classes) > SYSTEM_CACHE_SIZE
    height_class_system.cache_clear()
    for n, q in classes:
        solve_multiplicities(partition_to_dominant(Partition((q,)), AlgebraContext(n)))
    info = height_class_system.cache_info()
    assert info.misses == len(classes)
    assert info.currsize <= SYSTEM_CACHE_SIZE


def test_table_is_immutable_value():
    table = solve_multiplicities(DominantWeight((2, 0), AlgebraContext(3)))
    assert isinstance(table, MultiplicityTable)
    assert len(table) == len(sub_Q_lambda1(2, AlgebraContext(3)))
    with pytest.raises(AttributeError):
        table.dimension = 0


@pytest.fixture
def fresh_systems():
    height_class_system.cache_clear()
    yield
    height_class_system.cache_clear()


def _doctor_solutions(monkeypatch, member, mult):
    """Make every class solve return ``mult`` as the multiplicity of ``member``."""
    solve = HeightClassSystem.solve

    def doctored(system, rhs):
        x = solve(system, rhs)
        x[system.position[member]] = mult
        return x

    monkeypatch.setattr(HeightClassSystem, "solve", doctored)


# the first flagship class member, with multiplicity 0 and 6 orbit weights
SEVEN_W1 = DominantWeight((7, 0, 0, 0, 0), A5)


def test_negative_multiplicity_is_refused(monkeypatch):
    _doctor_solutions(monkeypatch, SEVEN_W1, -1)
    message = "multiplicity of 7 w1 solved to -1; expected a nonnegative integer"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        solve_multiplicities(FLAGSHIP)


def test_highest_weight_multiplicity_other_than_one_is_refused(monkeypatch):
    _doctor_solutions(monkeypatch, FLAGSHIP, 2)
    message = "highest weight 5 w1 + w2 solved to multiplicity 2"
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        solve_multiplicities(FLAGSHIP)


def test_dimension_other_than_the_product_formula_is_refused(monkeypatch):
    # one copy of the orbit of 7 w1 too many makes 1986 weights
    _doctor_solutions(monkeypatch, SEVEN_W1, 1)
    message = (
        "orbit sizes of 5 w1 + w2 weighted by multiplicity sum to 1986; "
        "the product formula gives dimension 1980"
    )
    with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
        solve_multiplicities(FLAGSHIP)


def test_class_above_the_member_bound_is_refused_up_front():
    # the A11 height-25 class lies above the bound of 1,000 members
    w = DominantWeight((1, 1) + (0,) * 8 + (2,), AlgebraContext(12))
    message = "height class 25 of A11 has 1686 members; at most 1000 are supported"
    start = time.perf_counter()
    with pytest.raises(LimitError, match=f"^{re.escape(message)}$"):
        solve_multiplicities(w)
    with pytest.raises(LimitError, match=f"^{re.escape(message)}$"):
        generalized_schur(w.to_partition(), w.context)
    assert time.perf_counter() - start < 1.0


def test_warm_solves_compute_no_orbit_size(monkeypatch, fresh_systems):
    calls = []

    def counted(w):
        calls.append(w)
        return orbit_size(w)

    monkeypatch.setattr(solver, "orbit_size", counted)
    first, *rest = _highest_weights(8, 10)
    solve_multiplicities(first)
    members = sub_Q_lambda1(10, AlgebraContext(8))
    assert calls == members
    assert height_class_system(8, 10).orbit_sizes == tuple(map(orbit_size, members))
    for w in rest:
        solve_multiplicities(w)
    assert len(calls) == len(members)


@pytest.mark.parametrize("n, q", [(6, 7), (8, 10), (3, 20)])
def test_warm_tables_equal_cold_tables(fresh_systems, n, q):
    targets = _highest_weights(n, q)
    cold = {}
    for w in targets:
        height_class_system.cache_clear()
        cold[w] = solve_multiplicities(w)
    for w in reversed(targets):
        assert solve_multiplicities(w) == cold[w]
    # the statistics restart at the last cold build; every warm solve hits
    info = height_class_system.cache_info()
    assert (info.misses, info.hits) == (1, len(targets))


def test_a1_large_height_tables_are_all_ones():
    ctx = AlgebraContext(2)
    for q in (200, 301, 600):
        w = DominantWeight((q,), ctx)
        table = solve_multiplicities(w)
        assert len(table) == q // 2 + 1
        assert all(m == 1 for _, m in table), q
        assert table.dimension == dimension(w) == q + 1
