import ast
import json
import shlex
import time
from math import factorial
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
from schurmult import cli, lattice, weyl
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
    ("character", "--rank", "9", "--partition", "1"): "9! = 362880 terms",
    ("audit", "--ranks", "3,9"): "9! = 362880 terms",
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
        "total degree 40003, at or above the packed-monomial limit 32768"
    ),
    ("character", "--rank", "3", "--weight", "1000,0"): "has dimension 501501",
    ("audit", "--ranks", "3,8", "--max-height", "40"): "height class 40 of A7 has 9749 members",
    ("orbit", "--rank", "10", "--weight", "1,1,1,1,1,1,1,1,1"): "has 3628800 weights",
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
        ["character", "--rank", "1558", "--partition", "1"],
        ["character", "--rank", "1559", "--partition", "1"],
        ["character", "--rank", "3000", "--partition", "1"],
        ["audit", "--ranks", "1559"],
        ["audit", "--ranks", "3,3000"],
    ],
)
def test_rank_past_the_int_string_limit_is_refused_without_traceback(argv, capsys):
    # from N = 1559 on, N! has more digits than Python converts to a string
    rank = int(argv[2].split(",")[-1])
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    terms = f"{rank}! = {factorial(rank)}" if rank < 1559 else f"{rank}!"
    assert captured.err == (
        f"error: rank {rank} needs an alternant of {terms} terms; at most 8 rows are supported\n"
    )


def test_audit_builds_no_factorial_polynomial(monkeypatch):
    # the alternant route solves in the basis of alternants; neither the
    # N!-term alternant nor the character it divides down to is built
    query = Query("audit", ranks=(3, 4), max_height=4)
    status, out = run(query)
    assert status == EXIT_OK
    assert out.endswith("audit: 18 passed, 0 failed\n")

    def refuse(*args):
        raise AssertionError("an N!-term polynomial was built")

    monkeypatch.setattr(cli, "weyl_character_u", refuse)
    monkeypatch.setattr(weyl, "alternant_matrix", refuse)
    assert run(query) == (status, out)


def test_audit_of_rank_8_within_time_gate():
    # on a 2-core machine the factorial route took 17.3 s, the alternant basis 0.03 s
    start = time.perf_counter()
    status, out = run(Query("audit", ranks=(8,), max_height=4))
    assert status == EXIT_OK, out
    assert time.perf_counter() - start < 5.0


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


def test_character_builds_no_factorial_polynomial(monkeypatch):
    # the character is read off the straightened alternants; at the
    # division route this case took 8 s on a 2-core machine
    query = Query("character", rank=8, partition=(5, 4, 2))
    expected = run(query)
    assert expected[0] == EXIT_OK

    def refuse(*args):
        raise AssertionError("an N!-term polynomial was built")

    monkeypatch.setattr(weyl, "alternant_matrix", refuse)
    start = time.perf_counter()
    assert run(query) == expected
    assert time.perf_counter() - start < 2.0


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
    "MAX_CLASS_MEMBERS", "MAX_OUTPUT_TERMS", "ALTERNANT_MAX_ROWS", "DEGREE_LIMIT", "class_size"
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
        "from . import weyl\n"
        "print(weyl.ALTERNANT_MAX_ROWS, MAX_OUTPUT_TERMS, check_class_size)\n"
    )
    assert _names(tree) & LIBRARY_BOUNDS == {"class_size", "ALTERNANT_MAX_ROWS", "MAX_OUTPUT_TERMS"}


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
