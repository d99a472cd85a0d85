import ast
import json
import re
import shlex
import time
from math import comb
from pathlib import Path

import pytest

from schurmult.cli import (
    EXIT_AUDIT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    AuditMismatch,
    Query,
    _check_against_oracles,
    main,
    parse_query,
    run,
)
from schurmult import cli, lattice, orbitchar, schur, weyl
from schurmult.lattice import AlgebraContext, DominantWeight
from schurmult.polyengine import UPoly
from schurmult.solver import MultiplicityTable, SolverError, solve_multiplicities

from helpers import readme_block


def test_mult_json_schema():
    status, out = run(Query("mult", rank=6, weight=(5, 1, 0, 0, 0), fmt="json"))
    assert status == EXIT_OK
    payload = json.loads(out)
    assert payload["algebra"] == "A5"
    assert payload["highest_weight"] == [5, 1, 0, 0, 0]
    assert payload["dimension"] == 1980
    assert len(payload["entries"]) == 14
    first = payload["entries"][0]
    assert set(first) == {"weight", "partition", "multiplicity", "orbit_size"}
    assert payload["entries"][0]["partition"] == [7]
    assert payload["entries"][-1]["partition"] == [2, 1, 1, 1, 1, 1]
    assert [e["multiplicity"] for e in payload["entries"]] == [
        0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5,
    ]


def test_mult_accepts_partition_argument():
    status, via_weight = run(Query("mult", rank=6, weight=(5, 1, 0, 0, 0), fmt="json"))
    status2, via_partition = run(Query("mult", rank=6, partition=(6, 1), fmt="json"))
    assert status == status2 == EXIT_OK
    assert via_weight == via_partition


def test_mult_with_oracle_check():
    status, out = run(Query("mult", rank=4, weight=(1, 1, 0), fmt="json", oracle=True))
    assert status == EXIT_OK
    assert json.loads(out)["oracle_check"] == "ok"


def test_mult_csv_and_text():
    status, out = run(Query("mult", rank=3, weight=(1, 1), fmt="csv"))
    assert status == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "weight,partition,multiplicity,orbit_size"
    assert len(lines) == 1 + 3
    status, out = run(Query("mult", rank=3, weight=(1, 1), fmt="text"))
    assert status == EXIT_OK
    assert "dimension 8" in out


def test_output_is_deterministic():
    for query in [
        Query("mult", rank=5, weight=(2, 0, 1, 0), fmt="json"),
        Query("schur", rank=6, partition=(5, 2), fmt="json"),
        Query("sub", rank=6, height=7, fmt="csv"),
        Query("character", rank=3, weight=(1, 1), fmt="text"),
        Query("orbit", rank=4, partition=(2, 1), fmt="json"),
    ]:
        first = run(query)
        second = run(query)
        assert first == second


def test_schur_text_matches_polynomial_rendering():
    status, out = run(Query("schur", rank=6, partition=(6, 1), fmt="text"))
    assert status == EXIT_OK
    assert out == "x1 - 2 x3 x4 - 2 x2 x5 + x1^2 x2 x3 + 2/3 x1^3 x4 + 1/15 x1^5 x2\n"


def test_schur_json_terms():
    status, out = run(Query("schur", rank=3, partition=(2,), fmt="json"))
    payload = json.loads(out)
    assert payload["variables"] == 2
    assert {"monomial": [0, 1], "coefficient": "1"} in payload["terms"]
    assert {"monomial": [2, 0], "coefficient": "1/2"} in payload["terms"]
    # an x-polynomial over denominator 1 still prints its coefficients as strings
    status, out = run(Query("schur", rank=4, partition=(1,), fmt="json"))
    assert json.loads(out)["terms"] == [{"monomial": [1, 0, 0], "coefficient": "1"}]


def test_orbit_output():
    status, out = run(Query("orbit", rank=3, weight=(1, 1), fmt="json"))
    payload = json.loads(out)
    assert payload["orbit_size"] == 6
    assert len(payload["weights"]) == 6
    assert payload["partition"] == [2, 1]


def test_character_output():
    status, out = run(Query("character", rank=3, weight=(1, 1), fmt="json"))
    payload = json.loads(out)
    assert payload["dimension"] == 8
    assert len(payload["terms"]) == 7


def test_sub_output_height7():
    status, out = run(Query("sub", rank=6, height=7, fmt="json"))
    payload = json.loads(out)
    assert len(payload["entries"]) == 14
    partitions = [tuple(e["partition"]) for e in payload["entries"]]
    assert partitions[0] == (7,)
    assert partitions[-1] == (2, 1, 1, 1, 1, 1)
    heights = [e["height"] for e in payload["entries"]]
    assert heights == [7] * 13 + [1]


def test_audit_passes_on_clean_build():
    status, out = run(Query("audit", ranks=(3,), max_height=3))
    assert status == EXIT_OK
    assert "0 failed" in out


def test_audit_flagship():
    status, out = run(Query("audit", ranks=(3,), max_height=2, flagship=True))
    assert status == EXIT_OK
    assert "A5 h=7 (6,1)" in out


# -- error paths ---------------------------------------------------------------


def test_usage_errors():
    status, out = run(Query("mult", rank=6, weight=(5, 1), fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("mult", rank=1, weight=(1,), fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("mult", rank=3, fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("mult", rank=3, weight=(1, 0), partition=(1,), fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("schur", rank=3, partition=(1, 2), fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("sub", rank=3, height=0, fmt="json"))
    assert status == EXIT_USAGE
    status, _ = run(Query("nonsense"))
    assert status == EXIT_USAGE


def test_weight_must_be_nonnegative():
    status, _ = run(Query("mult", rank=3, weight=(-1, 2), fmt="json"))
    assert status == EXIT_USAGE


# command lines refused before any work, with the reason each one names
REFUSED_UP_FRONT = {
    ("orbit", "--rank", "1000", "--partition", "1,1"): (
        "the orbit of w2 lists 499500 weights of 1000 exponents, 499500000 in all; "
        "at most 4000000 are supported"
    ),
    ("audit", "--ranks", "3,100", "--max-height", "3"): (
        "height class 3 of A99 lists 171700 weights of 100 exponents, 17170000 in all; "
        "at most 4000000 are supported"
    ),
    ("audit", "--ranks", "3", "--max-height", "0"): "error: audit max height must be at least 1",
    ("audit", "--ranks", "3", "--max-height", "-2"): "error: audit max height must be at least 1",
    ("audit", "--format", "json"): "invalid choice",
    ("audit", "--format", "csv"): "invalid choice",
    ("mult", "--rank", "12", "--weight", "1,1,0,0,0,0,0,0,0,0,2"): "has 1686 members",
    ("sub", "--rank", "40", "--height", "60"): "has 964380 members",
    ("schur", "--rank", "2", "--partition", "2000"): "at least 1001 members",
    ("schur", "--rank", "12", "--partition", "25"): "has 1686 members",
    ("schur", "--rank", "3", "--partition", "1,1,1,1"): "partition (1,1,1,1) has more than 3 rows",
    ("bench",): "invalid choice: 'bench'",
    ("character", "--rank", "3", "--weight", "40000,0"): (
        "the character of 40000 w1 has total degree 40000, "
        "at or above the packed-monomial limit 32768"
    ),
    ("character", "--rank", "3", "--weight", "1000,0"): "has dimension 501501",
    ("audit", "--ranks", "3,8", "--max-height", "40"): "height class 40 of A7 has 9749 members",
    ("orbit", "--rank", "10", "--weight", "1,1,1,1,1,1,1,1,1"): "has 3628800 weights",
    ("orbit", "--rank", "10", "--weight", "0,1,0,1,0,1,1,1,1"): "453600 weights of 10 exponents",
    ("audit", "--ranks", "7", "--max-height", "24"): "593775 weights of 7 exponents, 4156425 in",
    ("audit", "--ranks", "8", "--max-height", "19"): "657800 weights of 8 exponents, 5262400 in",
    ("audit", "--ranks", "9", "--max-height", "15"): "490314 weights of 9 exponents, 4412826 in",
    ("audit", "--ranks", "50"): "height class 4 of A49 lists 292825 weights of 50 exponents",
    ("character", "--rank", "100", "--partition", "2,1"): (
        "the character of w1 + w2 lists 333300 weights of 100 exponents, 33330000 in all"
    ),
    ("character", "--rank", "2001", "--partition", "1"): (
        "the character of w1 lists 2001 weights of 2001 exponents, 4004001 in all"
    ),
}


@pytest.mark.parametrize("argv", [list(argv) for argv in REFUSED_UP_FRONT])
def test_alternant_commands_refuse_rank_9_up_front(argv, capsys):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert REFUSED_UP_FRONT[tuple(argv)] in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "--rank", "1558", "--partition", "1,1"],
        ["character", "--rank", "1559", "--partition", "1,1"],
        ["character", "--rank", "3000", "--partition", "1"],
        ["audit", "--ranks", "1559"],
        ["audit", "--ranks", "3,3000"],
    ],
)
def test_rank_past_the_int_string_limit_is_refused_without_traceback(argv, capsys):
    # from N = 1559 on, N! has more digits than Python converts to a string;
    # no message names N!, so none needs that conversion
    rank = int(argv[2].split(",")[-1])
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    if argv[0] == "character" and argv[4] == "1,1":
        # w2 has dimension comb(N, 2), above the term bound
        expected = (
            f"the character of w2 has dimension {comb(rank, 2)}; "
            "at most 500000 is supported"
        )
    elif argv[0] == "character":
        # w1 lists N weights of N exponents, above the exponent bound
        expected = (
            f"the character of w1 lists {rank} weights of {rank} exponents, "
            f"{rank * rank} in all; at most 4000000 are supported"
        )
    else:
        # the orbits of (4), (3,1), (2,2), (2,1,1) and (1,1,1,1)
        weights = rank + rank * (rank - 1) + comb(rank, 2)
        weights += rank * comb(rank - 1, 2) + comb(rank, 4)
        expected = (
            f"height class 4 of A{rank - 1} lists {weights} weights of {rank} exponents, "
            f"{weights * rank} in all; at most 4000000 are supported"
        )
    assert captured.err == f"error: {expected}\n"


# (argv, exit status, seconds allowed) at ranks 2, 9, 100, 257, 2000 and
# 100000, with small weights and heights; both sides of the exponent bound
# at rank 100 (505,000 and 17,170,000 exponents for audit) and at its
# edge: the orbit and the character of w1 at rank 2000 write exactly
# 4,000,000 exponents.  From rank 257 on an alternant of w1 would pass the
# packed-degree limit, but the character's terms have degree 1.  At rank
# 100000 every packed key has 1.6 million bits, so any step that is O(N^2)
# (all N - 1 power sums seeded, a shift-built key, N! in an orbit size)
# blows the budget or the memory: on a 2-core machine the three rows took
# 0.26-0.37 s (37 MB), 0.47-0.77 s (58 MB) and 0.02 s, where seeding all
# N - 1 power sums alone would take about 2 N^2 bytes, 20 GB
RANK_GATE = [
    (["mult", "--rank", "2", "--partition", "3"], EXIT_OK, 1.0),
    (["orbit", "--rank", "2", "--partition", "3"], EXIT_OK, 1.0),
    (["character", "--rank", "2", "--partition", "3"], EXIT_OK, 1.0),
    (["audit", "--ranks", "2", "--max-height", "4"], EXIT_OK, 1.0),
    (["mult", "--rank", "9", "--partition", "2,1"], EXIT_OK, 1.0),
    (["orbit", "--rank", "9", "--partition", "2,1"], EXIT_OK, 1.0),
    (["character", "--rank", "9", "--partition", "2,1"], EXIT_OK, 1.0),
    (["audit", "--ranks", "9", "--max-height", "4"], EXIT_OK, 1.0),
    (["mult", "--rank", "100", "--partition", "2,1"], EXIT_OK, 1.0),
    (["orbit", "--rank", "100", "--partition", "2,1"], EXIT_OK, 1.0),
    (["character", "--rank", "100", "--partition", "1"], EXIT_OK, 1.0),
    (["character", "--rank", "257", "--partition", "1"], EXIT_OK, 1.0),
    (["character", "--rank", "100", "--partition", "2,1"], EXIT_USAGE, 1.0),
    (["audit", "--ranks", "100", "--max-height", "2"], EXIT_OK, 2.0),
    (["audit", "--ranks", "100", "--max-height", "3"], EXIT_USAGE, 1.0),
    (["orbit", "--rank", "1000", "--partition", "1,1"], EXIT_USAGE, 1.0),
    (["mult", "--rank", "2000", "--partition", "1"], EXIT_OK, 1.5),
    (["orbit", "--rank", "2000", "--partition", "1"], EXIT_OK, 3.0),
    (["character", "--rank", "2000", "--partition", "1"], EXIT_OK, 3.0),
    (["audit", "--ranks", "2000", "--max-height", "1"], EXIT_OK, 3.0),
    (["mult", "--rank", "100000", "--partition", "1"], EXIT_OK, 1.0),
    (["mult", "--rank", "100000", "--partition", "2,1"], EXIT_OK, 2.0),
    (["schur", "--rank", "100000", "--partition", "1"], EXIT_OK, 1.0),
]


def test_any_rank_finishes_or_is_refused_up_front(capsys):
    for argv, status, budget in RANK_GATE:
        start = time.perf_counter()
        assert main(argv) == status, argv
        assert time.perf_counter() - start < budget, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err, argv
        if status == EXIT_OK:
            assert captured.out and captured.err == "", argv
        else:
            assert captured.out == "", argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_audit_builds_no_factorial_polynomial(monkeypatch):
    # the alternant route solves in the basis of alternants and builds no
    # character
    query = Query("audit", ranks=(3, 4), max_height=4)
    status, out = run(query)
    assert status == EXIT_OK
    assert out.endswith("audit: 18 passed, 0 failed\n")

    def refuse(*args):
        raise AssertionError("an N!-term polynomial was built")

    monkeypatch.setattr(cli, "weyl_character_u", refuse)
    assert run(query) == (status, out)


def test_mult_builds_no_orbit_column_or_power_sum(monkeypatch, capsys):
    # the class matrix counts p_r m_μ off the partitions and the Schur stage
    # takes e_k from h_k, so a table past the e-recurrence's first degree
    # reads no orbit character in x
    argv = ["mult", "--rank", "9", "--partition", "6,4"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("an orbit column or a power sum was built")

    monkeypatch.setattr(schur, "_elementary_cache", {})
    monkeypatch.setattr(schur, "_generalized_cache", {})
    monkeypatch.setattr(orbitchar, "orbit_char_x", refuse)
    monkeypatch.setattr(orbitchar, "_power_sum_x", refuse)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_audit_of_rank_8_within_time_gate():
    # on a 2-core machine the factorial route took 17.3 s, the alternant basis 0.03 s
    start = time.perf_counter()
    status, out = run(Query("audit", ranks=(8,), max_height=4))
    assert status == EXIT_OK, out
    assert time.perf_counter() - start < 5.0


def test_audit_of_rank_9_to_height_10_within_time_gate(capsys):
    # on a 2-core machine the expanded recursion and an unshared alternant
    # route took 15.8 s, the dominant table and one straightened orbit per
    # partition 0.6 s
    weyl._straightened_orbit.cache_clear()
    start = time.perf_counter()
    assert main(["audit", "--ranks", "9", "--max-height", "10"]) == EXIT_OK
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.endswith("audit: 135 passed, 0 failed\n")


def test_oracle_check_of_a9_within_time_gate(capsys):
    # expanding the recursion to all 1,445,970 weights took 7.1 s and 439 MB
    # on a 2-core machine, the dominant table 0.1 s
    start = time.perf_counter()
    assert main(["mult", "--rank", "10", "--partition", "6,4,3,2,1", "--oracle"]) == EXIT_OK
    assert time.perf_counter() - start < 2.0
    assert json.loads(capsys.readouterr().out)["oracle_check"] == "ok"


def test_internal_error_maps_to_exit_code(monkeypatch):
    def explode(_):
        raise SolverError("forced failure")

    monkeypatch.setattr("schurmult.cli.solve_multiplicities", explode)
    status, out = run(Query("mult", rank=3, weight=(1, 0), fmt="json"))
    assert status == EXIT_INTERNAL
    assert "internal inconsistency" in out


def test_character_coefficient_sum_off_the_dimension_maps_to_exit_code(monkeypatch, capsys):
    # a multiplicity lost from the alternant route leaves the character short
    # of the dimension that the product formula gives
    original = weyl.alternant_multiplicities

    def doctored(w):
        found = original(w)
        found.pop(next(iter(found)))
        return found

    monkeypatch.setattr(weyl, "alternant_multiplicities", doctored)
    assert main(["character", "--rank", "3", "--weight", "1,1"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: ")


def test_character_builds_no_factorial_polynomial():
    # the character is read off the straightened alternants; at the
    # division route this case took 8 s on a 2-core machine
    query = Query("character", rank=8, partition=(5, 4, 2))
    expected = run(query)
    assert expected[0] == EXIT_OK
    start = time.perf_counter()
    assert run(query) == expected
    assert time.perf_counter() - start < 2.0


def test_no_module_expands_a_signed_permutation_sum():
    # N!-term alternants are gone from the package: nothing imports permutations
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        imported = _names(ast.parse(path.read_text(), filename=str(path)))
        assert "permutations" not in imported, path.name


def test_repeated_mult_reads_orbit_sizes_off_the_table(monkeypatch, capsys):
    argv = ["mult", "--rank", "8", "--partition", "4,3,2,1"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    calls = []
    original = cli.orbit_size

    def counted(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(cli, "orbit_size", counted)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert calls == []


def test_orbit_at_the_term_bound_is_not_refused(monkeypatch):
    # the orbit of w1 + w2 in A2 has 6 weights
    query = Query("orbit", rank=3, weight=(1, 1), fmt="json")
    monkeypatch.setattr(lattice, "MAX_OUTPUT_TERMS", 6)
    status, out = run(query)
    assert status == EXIT_OK
    assert json.loads(out)["orbit_size"] == 6
    monkeypatch.setattr(lattice, "MAX_OUTPUT_TERMS", 5)
    status, out = run(query)
    assert status == EXIT_USAGE
    assert out == "error: the orbit of w1 + w2 has 6 weights; at most 5 are supported\n"


# the bounds the library checks; the CLI only maps their LimitError to exit 1
LIBRARY_BOUNDS = {
    "MAX_CLASS_MEMBERS", "MAX_OUTPUT_TERMS", "MAX_OUTPUT_EXPONENTS", "DEGREE_LIMIT", "class_size"
}


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_cli_names_no_library_bound():
    tree = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
    assert _names(tree) & LIBRARY_BOUNDS == set()


def test_bound_named_in_cli_is_reported():
    tree = ast.parse(
        "from .lattice import class_size as count\n"
        "from . import lattice\n"
        "print(lattice.MAX_OUTPUT_EXPONENTS, MAX_OUTPUT_TERMS, check_class_size)\n"
    )
    named = {"class_size", "MAX_OUTPUT_EXPONENTS", "MAX_OUTPUT_TERMS"}
    assert _names(tree) & LIBRARY_BOUNDS == named


def test_oracle_mismatch_detected_on_doctored_table():
    target = DominantWeight((1, 1), AlgebraContext(3))
    table = solve_multiplicities(target)
    doctored = MultiplicityTable(
        target,
        tuple((w, m + (1 if w != target else 0)) for w, m in table.entries),
        table.dimension,
        table.orbit_sizes,
    )
    with pytest.raises(AuditMismatch):
        _check_against_oracles(doctored)


def _doctor_dominant_table(monkeypatch, change):
    original = cli.dominant_freudenthal

    def doctored(w):
        table = original(w)
        change(table, w)
        return table

    monkeypatch.setattr(cli, "dominant_freudenthal", doctored)


def test_oracle_mismatch_detected_on_a_doctored_recursion(monkeypatch, capsys):
    def off_by_one(table, w):
        table[DominantWeight((1, 2), w.context)] += 1

    _doctor_dominant_table(monkeypatch, off_by_one)
    target = DominantWeight((3, 1), AlgebraContext(3))
    message = "multiplicity of w1 + 2 w2 in 3 w1 + w2: solver=1, recursion=2, tableaux=1"
    with pytest.raises(AuditMismatch, match=f"^{re.escape(message)}$"):
        _check_against_oracles(solve_multiplicities(target))
    assert main(["mult", "--rank", "3", "--weight", "3,1", "--oracle"]) == EXIT_AUDIT
    assert capsys.readouterr().out == ""


def test_oracle_mismatch_detected_on_an_extra_dominant_weight(monkeypatch):
    # a weight outside the height class matches no table member, so only the
    # dimension, summed over orbits of the dominant table, can catch it
    def extra(table, w):
        table[DominantWeight((1, 0), w.context)] = 1

    _doctor_dominant_table(monkeypatch, extra)
    with pytest.raises(AuditMismatch, match=f"^{re.escape('dimension mismatch for w1 + w2')}$"):
        _check_against_oracles(solve_multiplicities(DominantWeight((1, 1), AlgebraContext(3))))


# -- argv parsing ----------------------------------------------------------------


def test_parse_query_roundtrip():
    q = parse_query(["mult", "--rank", "6", "--weight", "5,1,0,0,0", "--oracle"])
    assert q == Query("mult", rank=6, weight=(5, 1, 0, 0, 0), fmt="json", oracle=True)
    q = parse_query(["sub", "--rank", "6", "--height", "7", "--format", "csv"])
    assert q.command == "sub" and q.height == 7 and q.fmt == "csv"


def test_main_success(capsys):
    code = main(["schur", "--rank", "6", "--partition", "6,1"])
    assert code == EXIT_OK
    assert "1/15 x1^5 x2" in capsys.readouterr().out


def test_readme_examples_run(capsys):
    commands = [
        shlex.split(line)[1:]
        for line in readme_block("Command line", "sh").splitlines()
        if line.startswith("schurmult ")
    ]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    exec(readme_block("Library use", "python"), {})
    assert capsys.readouterr().out.endswith("+ 1/15 x1^5 x2\n")


def test_main_usage_error(capsys):
    code = main(["mult", "--rank", "6", "--weight", "nope"])
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    code = main(["mult", "--rank", "6"])
    assert code == EXIT_USAGE
    code = main(["bogus"])
    assert code == EXIT_USAGE
