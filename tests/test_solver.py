import copy
import random
import re
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import orbitchar, solver
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
from schurmult.polyengine import XPoly, unpack_monomial
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


# -- exact linear solving ------------------------------------------------------


def _cols(*column_dicts):
    return [XPoly(1, {(k,): Fraction(v) for k, v in d.items()}) for d in column_dicts]


def _system(columns):
    return HeightClassSystem(range(len(columns)), columns)


def _solve(columns, rhs):
    return _system(columns).solve(rhs)


def test_solve_exact_unique_system():
    # rows are coefficients of 1 and x: x + 2 = col0 * (x + 1) + col1 * 1
    columns = _cols({0: 1, 1: 1}, {0: 1})
    rhs = XPoly(1, {(0,): Fraction(2), (1,): Fraction(1)})
    assert _solve(columns, rhs) == [Fraction(1), Fraction(1)]


def test_solve_exact_detects_inconsistency():
    columns = _cols({0: 1, 1: 1})
    rhs = XPoly(1, {(0,): Fraction(1), (1,): Fraction(2)})
    with pytest.raises(SolverError, match="inconsistent"):
        _solve(columns, rhs)


def test_solve_exact_detects_singularity():
    columns = _cols({0: 1}, {0: 2})
    rhs = XPoly(1, {(0,): Fraction(3)})
    with pytest.raises(SolverError, match="singular"):
        _solve(columns, rhs)


def test_solve_exact_fractional_solution_rejected_downstream():
    # the solution 1/2 lifts to no integer that passes the certificate
    columns = _cols({0: 2})
    rhs = XPoly(1, {(0,): Fraction(1)})
    with pytest.raises(SolverError, match="not integral"):
        _solve(columns, rhs)


def test_solve_rejects_rhs_monomial_outside_column_support():
    columns = _cols({0: 1})
    rhs = XPoly(1, {(1,): Fraction(1)})
    with pytest.raises(SolverError, match="inconsistent"):
        _solve(columns, rhs)


def test_solve_fractional_rhs_takes_common_denominator():
    # 9/2 x + 5 = col0 * (x/2 + 1/3) + col1 * 1 gives col0 = 9, col1 = 2
    columns = _cols({0: Fraction(1, 3), 1: Fraction(1, 2)}, {0: 1})
    rhs = XPoly(1, {(0,): Fraction(5, 6), (1,): Fraction(3, 4)})
    system = _system(columns)
    assert system.solve(rhs * 6) == [9, 2]
    # the shared system serves the next right-hand side unchanged
    assert system.solve(rhs * 12) == [18, 4]
    # the solution (3/2, 1/3) of rhs itself is not integral
    with pytest.raises(SolverError, match="not integral"):
        system.solve(rhs)


def test_weight_block_with_more_columns_than_rows_is_singular():
    # the whole system [[1, 2], [1, 0]] is invertible, but both columns
    # have top weight 1 and the rows of weight 1 are one: the block solve
    # needs every diagonal block to have full column rank
    system = _system(_cols({1: 1, 0: 1}, {1: 2}))
    assert system.factored is None
    with pytest.raises(SolverError, match="singular"):
        system.solve(XPoly(1, {(1,): Fraction(3), (0,): Fraction(1)}))


def test_wrapped_lift_is_answered_by_next_prime(monkeypatch):
    # modulo 5 the lone unknown is 6 = 1, which the exact certificate
    # refuses; modulo 13 it lifts to 6
    monkeypatch.setattr(solver, "PRIMES", (5, 13))
    system = _system(_cols({0: 1}))
    assert system.factored is not None
    assert system.solve(XPoly(1, {(0,): Fraction(6)})) == [6]


def test_solve_fails_when_every_prime_fails(monkeypatch):
    monkeypatch.setattr(solver, "PRIMES", (5,))
    system = _system(_cols({0: 1}))
    with pytest.raises(SolverError, match="inconsistent or not integral"):
        system.solve(XPoly(1, {(0,): Fraction(6)}))


# -- weight blocks of the class systems ------------------------------------------

# the (N, lowest height, highest height) strata of the mult-cold benchmark
# workload (perfbench/workloads.py), and A7 at height 16
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
    (8, 16, 16),
)


def _x_weight(exps):
    return sum(i * e for i, e in enumerate(exps, 1))


def test_class_columns_form_square_weight_blocks():
    for n, low, high in COLD_STRATA:
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


def _row_weights(system, nvars):
    weights = [0] * len(system.row_of)
    for mono, i in system.row_of.items():
        weights[i] = _x_weight(unpack_monomial(mono, nvars))
    return weights


def _blocks_keep_to_themselves(system, nvars):
    """Assert that every step stays in its block and every column entry
    left out of the block lies at a lower weight; return the target count."""
    weight = _row_weights(system, nvars)
    targets_seen = 0
    for (forward, backward), (rows, cols) in zip(system.factored, system.blocks):
        assert len(rows) == len(cols)
        d = weight[rows.start]
        for pivot_row, _, targets, _ in forward:
            assert {weight[i] for i in (pivot_row, *targets)} == {d}
            targets_seen += len(targets)
        for col, pivot_row, tail, _, lower, _ in backward:
            assert weight[pivot_row] == d and set(tail) <= set(cols)
            assert all(weight[i] < d for i in lower)
            assert len(lower) == sum(weight[i] < d for i in system.column_rows[col])
    return targets_seen


def test_a1_class_records_no_elimination_target(fresh_systems):
    assert _blocks_keep_to_themselves(height_class_system(2, 300), 1) == 0


def test_a2_class_records_no_target_outside_its_block(fresh_systems):
    assert _blocks_keep_to_themselves(height_class_system(3, 30), 2) > 0


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
    # the threads also race on first misses of the orbit-column recursion
    monkeypatch.setattr(orbitchar, "_orbit_x_cache", {})

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


@pytest.mark.parametrize("prime", [5, 7])
def test_tiny_modulus_takes_fallbacks_and_keeps_tables(monkeypatch, fresh_systems, prime):
    # pivots vanish and lifts wrap modulo a tiny first prime, so solves of
    # a system without a factorization modulo it and uncertified lifts
    # both fall back to the next prime
    monkeypatch.setattr(solver, "PRIMES", (prime,) + solver.PRIMES)
    for n, q in [(6, 7), (5, 6)]:
        for w in _highest_weights(n, q):
            _assert_matches_oracles(solve_multiplicities(w), q)
    assert (height_class_system(6, 7).factored is None) == (prime == 5)
    assert height_class_system(5, 6).factored is not None


def test_full_modulus_certifies_without_fallback(monkeypatch, fresh_systems):
    # with the first prime alone, any solve it cannot certify would raise
    monkeypatch.setattr(solver, "PRIMES", solver.PRIMES[:1])
    for n, q in [(6, 7), (5, 6), (3, 20)]:
        for w in _highest_weights(n, q):
            _assert_matches_oracles(solve_multiplicities(w), q)


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
    # building the A11 height-25 class system alone would run for minutes
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
