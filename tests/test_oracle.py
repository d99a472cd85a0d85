import ast
import random
from pathlib import Path

import pytest

from schurmult.lattice import (
    AlgebraContext,
    DominantWeight,
    Partition,
    Weight,
    height,
    orbit_size,
    partition_to_dominant,
    partitions_of,
)
from schurmult.oracle import (
    brute_orbit_char,
    dominant_freudenthal,
    freudenthal,
    inflated_exponents,
    kostka,
    kostka_multiplicity,
    kostka_numbers,
)
from schurmult.solver import dimension, solve_multiplicities

from helpers import kostka_backtrack, orbit_char_u, package_modules

A2 = AlgebraContext(3)
A5 = AlgebraContext(6)


# -- recursion oracle -------------------------------------------------------


def test_defining_representation_multiplicities():
    fm = freudenthal(DominantWeight((1, 0), A2))
    assert len(fm) == 3
    assert all(m == 1 for m in fm.values())


def test_adjoint_multiplicities():
    fm = freudenthal(DominantWeight((1, 1), A2))
    assert fm[Weight((0, 0, 0), A2)] == 2
    nonzero = [w for w in fm if w != Weight((0, 0, 0), A2)]
    assert len(nonzero) == 6
    assert all(fm[w] == 1 for w in nonzero)


RECURSION_GRID = [(3, (2, 1)), (4, (2, 1, 1)), (3, (4,)), (5, (2, 2, 1))]


def test_recursion_total_equals_dimension():
    for n, parts in RECURSION_GRID:
        ctx = AlgebraContext(n)
        target = partition_to_dominant(Partition(parts), ctx)
        fm = freudenthal(target)
        assert sum(fm.values()) == dimension(target), (n, parts)


def test_full_map_expands_the_dominant_table():
    for n, parts in RECURSION_GRID:
        ctx = AlgebraContext(n)
        target = partition_to_dominant(Partition(parts), ctx)
        dominant = dominant_freudenthal(target)
        full = freudenthal(target)
        assert len(full) == sum(orbit_size(member) for member in dominant), (n, parts)
        for weight, mult in full.items():
            assert dominant[weight.dominant_representative()] == mult, (n, parts, weight)
        assert sum(mult * orbit_size(m) for m, mult in dominant.items()) == dimension(target)


def test_dominant_table_keys_are_the_solver_members():
    # full columns are removed, so each key equals the table member it checks
    for n, parts in RECURSION_GRID + [(6, (5, 1)), (10, (6, 4, 3, 2, 1))]:
        target = partition_to_dominant(Partition(parts), AlgebraContext(n))
        solved = {member: mult for member, mult in solve_multiplicities(target) if mult}
        assert dominant_freudenthal(target) == solved, (n, parts)


def test_recursion_is_orbit_invariant():
    fm = freudenthal(DominantWeight((2, 1), A2))
    for weight, mult in fm.items():
        rep = weight.dominant_representative()
        canonical = Weight(rep.mu_vector(), A2)
        assert fm[canonical] == mult


def test_recursion_flagship_total():
    fm = freudenthal(DominantWeight((5, 1, 0, 0, 0), A5))
    assert sum(fm.values()) == 1980


# -- tableau oracle -----------------------------------------------------------


def test_tableau_count_examples():
    assert kostka(Partition((6, 1)), (3, 2, 1, 1, 0, 0)) == 3
    assert kostka(Partition((6, 1)), (2, 1, 1, 1, 1, 1)) == 5
    assert kostka(Partition((3, 2)), (3, 2)) == 1
    assert kostka(Partition((2, 1)), (1, 1, 1)) == 2
    # standard tableaux of shape (5,4,3,2), by the hook length formula
    assert kostka(Partition((5, 4, 3, 2)), (1,) * 14) == 48048


def test_tableau_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        kostka(Partition((2, 1)), (1, 1))
    with pytest.raises(ValueError):
        kostka(Partition((2,)), (3, -1))


def test_tableau_columns_strict():
    # shape (1,1) content (2,): impossible, the column repeats a value
    assert kostka(Partition((1, 1)), (2,)) == 0


def test_tableau_count_of_a_long_row_needs_no_recursion():
    # one level of recursion per cell or per content entry would pass the
    # interpreter's limit
    assert kostka(Partition((1200,)), (600, 600)) == 1
    assert kostka(Partition(()), ()) == 1
    assert kostka(Partition((3006,)), (1,) * 3006) == 1
    assert kostka(Partition((3004, 2)), (1,) * 3006) == 3006 * 3003 // 2


def test_tableau_count_by_strips_matches_backtracking():
    rng = random.Random(20261019)
    pairs = 0
    for size in range(9):
        for parts in partitions_of(size, size):
            shape = Partition(parts)
            for _ in range(5):
                length = rng.randint(1, size + 2)
                content = [0] * length
                for _ in range(size):
                    content[rng.randrange(length)] += 1
                assert kostka(shape, content) == kostka_backtrack(shape, content), (
                    parts,
                    content,
                )
                pairs += 1
    assert pairs == 335


def test_tableau_counts_of_many_contents_match_one_at_a_time():
    # contents of one shape share the strips peeled off common suffixes, in
    # whatever order they come and whatever their lengths
    rng = random.Random(20261020)
    for size in range(1, 10):
        for parts in partitions_of(size, size):
            shape = Partition(parts)
            contents = []
            for length in (size, size, rng.randint(1, size + 2)):
                content = [0] * length
                for _ in range(size):
                    content[rng.randrange(length)] += 1
                contents += [content, content[::-1], sorted(content)]
            rng.shuffle(contents)
            expected = [kostka_backtrack(shape, content) for content in contents]
            assert kostka_numbers(shape, contents) == expected, (parts, contents)
            assert [kostka(shape, content) for content in contents] == expected, parts
    assert kostka_numbers(Partition((2, 1)), []) == []


@pytest.mark.parametrize("content", [(1, 2), (3, -1)])
def test_tableau_counts_refuse_a_bad_content_like_one_at_a_time(content):
    with pytest.raises(ValueError) as single:
        kostka(Partition((2,)), content)
    with pytest.raises(ValueError) as shared:
        kostka_numbers(Partition((2,)), [(1, 1, 0), content, (2,)])
    assert str(shared.value) == str(single.value)


def test_inflation_roundtrip():
    w = DominantWeight((1, 0, 0, 0, 0), A5)
    assert inflated_exponents(w, 7) == (2, 1, 1, 1, 1, 1)
    assert inflated_exponents(w, 1) == (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        inflated_exponents(w, 6)


def test_tableau_multiplicity_wrapper():
    highest = DominantWeight((5, 1, 0, 0, 0), A5)
    assert kostka_multiplicity(highest, DominantWeight((1, 0, 0, 0, 0), A5)) == 5
    assert kostka_multiplicity(highest, highest) == 1


# -- orbit expansion oracle ----------------------------------------------------


def test_brute_orbit_char_minimal_cases():
    got = brute_orbit_char(DominantWeight((1, 0), A2))
    assert got == orbit_char_u(Partition((1,)), A2)
    got2 = brute_orbit_char(DominantWeight((2, 0), A2))
    assert got2 == orbit_char_u(Partition((2,)), A2)
    got3 = brute_orbit_char(DominantWeight((0, 1), A2))
    assert got3 == orbit_char_u(Partition((1, 1)), A2)


def test_brute_orbit_char_matches_direct_construction():
    for n in (3, 4, 5, 6):
        ctx = AlgebraContext(n)
        for total in range(1, 8):
            for parts in partitions_of(total, n - 1):
                w = partition_to_dominant(Partition(parts), ctx)
                assert brute_orbit_char(w) == orbit_char_u(Partition(parts), ctx), (n, parts)


# -- oracle cross-agreement -----------------------------------------------------


def test_oracles_agree_with_each_other():
    for n in (3, 4):
        ctx = AlgebraContext(n)
        for total in range(1, 5):
            for parts in partitions_of(total, n - 1):
                target = partition_to_dominant(Partition(parts), ctx)
                fm = freudenthal(target)
                for member_parts in partitions_of(total, n):
                    member = partition_to_dominant(Partition(member_parts), ctx)
                    key = Weight(inflated_exponents(member, total), ctx)
                    assert fm.get(key, 0) == kostka_multiplicity(target, member), (
                        n,
                        parts,
                        member_parts,
                    )


# -- independence from the Schur pipeline ---------------------------------------

ORACLE = Path(__file__).resolve().parent.parent / "src" / "schurmult" / "oracle.py"


def test_oracle_imports_nothing_from_the_schur_pipeline():
    modules = package_modules(ast.parse(ORACLE.read_text(), filename=str(ORACLE)))
    assert modules <= {"lattice", "polyengine"}
    assert not modules & {"orbitchar", "schur", "solver", "weyl"}


def test_pipeline_import_is_reported():
    tree = ast.parse(
        "from .solver import solve_multiplicities\n"
        "from . import weyl\n"
        "import schurmult.schur\n"
        "from schurmult.orbitchar import orbit_char_x\n"
        "from __future__ import annotations\n"
    )
    assert package_modules(tree) == {"solver", "weyl", "schur", "orbitchar"}
