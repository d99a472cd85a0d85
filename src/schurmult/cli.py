"""Command-line front door.

Commands: ``mult`` (multiplicity table), ``schur`` (generalized Schur
polynomial), ``orbit`` (orbit weights), ``character`` (character from the
straightened alternants), ``sub`` (height class of dominant weights), ``audit``
(oracle-equivalence sweep).  Output is JSON, CSV, or text, and is
byte-identical across runs.

The CLI parses a query, calls the library and renders its result; the
size bounds live in the library, which raises ``LimitError`` before any
work.  Exit codes: 0 success, 1 usage error or ``LimitError``, 2 audit
mismatch, 3 internal inconsistency (a generalized Schur function with a
monomial outside its height class or with a multiplicity that is not an
integer, or a character whose coefficients do not sum to its dimension),
4 internal error (an ``ArithmeticError``, such as an ``OverflowError``, or
a ``MemoryError``, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from math import comb

from .lattice import (
    AlgebraContext, DominantWeight, LimitError, Partition, _Record, check_class_size,
    check_listed_exponents, height, orbit_size, orbit_weights, partition_to_dominant,
    partitions_of, sub_Q_lambda1,
)
from .oracle import dominant_freudenthal, inflated_exponents, kostka_numbers
from .polyengine import XPoly
from .schur import generalized_schur
from .solver import MultiplicityTable, SolverError, dimension, solve_multiplicities
from .weyl import alternant_multiplicities, weyl_character_u

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_INTERNAL = 3
EXIT_ERROR = 4


class UsageError(Exception):
    pass


class AuditMismatch(Exception):
    pass


class Query(_Record):
    """A parsed CLI request."""

    __slots__ = (
        "command", "rank", "weight", "partition", "height",
        "fmt", "oracle", "ranks", "max_height", "flagship",
    )

    def __init__(
        self,
        command: str,
        rank: int = 0,
        weight: tuple[int, ...] | None = None,
        partition: tuple[int, ...] | None = None,
        height: int | None = None,
        fmt: str = "text",
        oracle: bool = False,
        ranks: tuple[int, ...] = (),
        max_height: int = 4,
        flagship: bool = False,
    ):
        self._set(
            command, rank, weight, partition, height, fmt, oracle, ranks, max_height, flagship
        )


def _context(q: Query) -> AlgebraContext:
    if q.rank < 2:
        raise UsageError("--rank must be at least 2")
    return AlgebraContext(q.rank)


def _target_weight(q: Query, ctx: AlgebraContext) -> DominantWeight:
    if (q.weight is None) == (q.partition is None):
        raise UsageError("give exactly one of --weight or --partition")
    if q.weight is not None:
        if len(q.weight) != ctx.N - 1:
            raise UsageError(
                f"--weight needs {ctx.N - 1} comma-separated coordinates for rank {ctx.N}"
            )
        if any(c < 0 for c in q.weight):
            raise UsageError("--weight coordinates must be nonnegative")
        return DominantWeight(q.weight, ctx)
    return partition_to_dominant(_partition_arg(q, ctx), ctx)


def _partition_arg(q: Query, ctx: AlgebraContext) -> Partition:
    assert q.partition is not None
    try:
        p = Partition(q.partition)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if p.length > ctx.N:
        raise UsageError(f"partition {p} has more than {ctx.N} rows")
    return p


def _height_partition(member: DominantWeight, total: int) -> list[int]:
    return [v for v in inflated_exponents(member, total) if v > 0]


def _poly_terms_json(p) -> Iterator[dict]:
    for exps, coeff in p.sorted_terms():
        c = str(coeff) if isinstance(p, XPoly) else coeff
        yield {"monomial": list(exps), "coefficient": c}


def _csv_rows(entries: Iterable[dict], header: list[str]) -> Iterator[list]:
    """One CSV row per JSON entry, holding its values under ``header``; a
    list value becomes its items joined by spaces."""
    for e in entries:
        yield [" ".join(map(str, e[k])) if isinstance(e[k], list) else e[k] for k in header]


def _render(q: Query, payload: dict, header: list[str], rows: Iterable, lines: Iterable) -> str:
    """The output of ``q`` in its format: ``payload`` as JSON, ``rows``
    under ``header`` as CSV, or ``lines`` as text.

    Only the format asked for is built: ``rows`` and ``lines`` may be
    generators, and so may a list inside ``payload``.  A text line is any
    object whose ``str`` is that line, such as a polynomial.
    """
    if q.fmt == "json":
        return json.dumps(payload, indent=2, default=list) + "\n"
    if q.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join(map(str, lines)) + "\n"


def _run_mult(q: Query) -> str:
    ctx = _context(q)
    target = _target_weight(q, ctx)
    total = height(target)
    table = solve_multiplicities(target)
    if q.oracle:
        _check_against_oracles(table)
    payload = {
        "algebra": str(ctx),
        "highest_weight": list(target.coords),
        "dimension": table.dimension,
        "entries": [
            {
                "weight": list(member.coords),
                "partition": _height_partition(member, total),
                "multiplicity": mult,
                "orbit_size": size,
            }
            for (member, mult), size in zip(table, table.orbit_sizes)
        ],
    }
    header = ["weight", "partition", "multiplicity", "orbit_size"]
    lines = [
        f"{payload['algebra']}  highest weight {payload['highest_weight']}  dimension {table.dimension}"
    ]
    for e in payload["entries"]:
        lines.append(
            f"  {','.join(map(str, e['partition'])):18s}"
            f" weight {' '.join(map(str, e['weight'])):14s}"
            f" multiplicity {e['multiplicity']:3d}  orbit {e['orbit_size']}"
        )
    if q.oracle:
        payload["oracle_check"] = "ok"
        lines.append("oracle check: ok")
    return _render(q, payload, header, _csv_rows(payload["entries"], header), lines)


def _check_against_oracles(table: MultiplicityTable) -> None:
    target = table.highest_weight
    total = height(target)
    fm = dominant_freudenthal(target)
    contents = [inflated_exponents(member, total) for member, _ in table]
    for (member, mult), tableau in zip(table, kostka_numbers(target.to_partition(), contents)):
        freud = fm.get(member, 0)
        if mult != freud or mult != tableau:
            raise AuditMismatch(
                f"multiplicity of {member} in {target}: solver={mult}, "
                f"recursion={freud}, tableaux={tableau}"
            )
    if table.dimension != sum(mult * orbit_size(member) for member, mult in fm.items()):
        raise AuditMismatch(f"dimension mismatch for {target}")


def _run_schur(q: Query) -> str:
    ctx = _context(q)
    if q.partition is None:
        raise UsageError("schur requires --partition")
    p = _partition_arg(q, ctx)
    poly = generalized_schur(p, ctx)
    payload = {
        "algebra": str(ctx),
        "partition": list(p.parts),
        "variables": ctx.N - 1,
        "terms": _poly_terms_json(poly),
    }
    header = ["monomial", "coefficient"]
    return _render(q, payload, header, _csv_rows(_poly_terms_json(poly), header), [poly])


def _run_orbit(q: Query) -> str:
    ctx = _context(q)
    target = _target_weight(q, ctx)
    weights = orbit_weights(target)
    payload = {
        "algebra": str(ctx),
        "weight": list(target.coords),
        "partition": list(target.to_partition().parts),
        "orbit_size": len(weights),
        "weights": (list(w.mu_exponents) for w in weights),
    }
    rows = ([" ".join(map(str, w.mu_exponents))] for w in weights)
    lines = chain(
        [f"{payload['algebra']}  weight {payload['weight']}  orbit size {payload['orbit_size']}"],
        ("  " + " ".join(map(str, w.mu_exponents)) for w in weights),
    )
    return _render(q, payload, ["exponents"], rows, lines)


def _run_character(q: Query) -> str:
    ctx = _context(q)
    target = _target_weight(q, ctx)
    ch = weyl_character_u(target)
    # the character's coefficients sum to the dimension; weyl_character_u checks it
    dim = dimension(target)
    payload = {
        "algebra": str(ctx),
        "weight": list(target.coords),
        "dimension": dim,
        "terms": _poly_terms_json(ch),
    }
    header = ["monomial", "coefficient"]
    rows = _csv_rows(_poly_terms_json(ch), header)
    return _render(q, payload, header, rows, [f"dimension {dim}", ch])


def _run_sub(q: Query) -> str:
    ctx = _context(q)
    if q.height is None or q.height < 1:
        raise UsageError("sub requires --height >= 1")
    members = sub_Q_lambda1(q.height, ctx)
    entries = [
        {
            "partition": _height_partition(member, q.height),
            "weight": list(member.coords),
            "height": height(member),
            "orbit_size": orbit_size(member),
        }
        for member in members
    ]
    payload = {"algebra": str(ctx), "height": q.height, "entries": entries}
    header = ["partition", "weight", "height", "orbit_size"]
    lines = [f"{ctx}  height class {q.height}: {len(entries)} dominant weights"]
    for e in entries:
        lines.append(
            f"  {','.join(map(str, e['partition'])):18s}"
            f" weight {' '.join(map(str, e['weight'])):14s}"
            f" height {e['height']:2d}  orbit {e['orbit_size']}"
        )
    return _render(q, payload, header, _csv_rows(entries, header), lines)


def _run_audit(q: Query) -> str:
    ranks = q.ranks or (3, 4)
    for n in ranks:
        if n < 2:
            raise UsageError("audit ranks must be at least 2")
    if q.max_height < 1:
        raise UsageError("audit max height must be at least 1")
    contexts = [AlgebraContext(n) for n in ranks]
    # a box added to the first row embeds each class in the next and keeps
    # every orbit as large, so the top height's class is the largest of the
    # sweep and lists the most weights: its orbits are the exponent vectors
    # of sum max_height, C(max_height + N - 1, N - 1) of them
    for ctx in contexts:
        check_class_size(q.max_height, ctx)
        weights = comb(q.max_height + ctx.N - 1, ctx.N - 1)
        check_listed_exponents(f"height class {q.max_height} of {ctx}", weights, ctx.N)
    cases = [
        partition_to_dominant(Partition(parts), ctx)
        for ctx in contexts
        for h in range(1, q.max_height + 1)
        for parts in partitions_of(h, ctx.N - 1)
    ]
    if q.flagship:
        cases.append(DominantWeight((5, 1, 0, 0, 0), AlgebraContext(6)))
    lines = []
    failures = []
    for target in cases:
        label = f"{target.context} h={height(target)} {target.to_partition()}"
        try:
            table = solve_multiplicities(target)
            _check_against_oracles(table)
            found = alternant_multiplicities(target)
            direct = [found.get(m.mu_vector(), 0) for m, _ in table]
            solved = [m for _, m in table]
            if direct != solved:
                raise AuditMismatch(f"alternant route {direct} != solver route {solved}")
        except AuditMismatch as exc:
            failures.append(f"{label}: {exc}")
            lines.append(f"FAIL {label}: {exc}")
        else:
            lines.append(f"ok   {label}")
    lines.append(f"audit: {len(cases) - len(failures)} passed, {len(failures)} failed")
    text = "\n".join(lines) + "\n"
    if failures:
        raise AuditMismatch(text)
    return text


_RUNNERS = {
    "mult": _run_mult,
    "schur": _run_schur,
    "orbit": _run_orbit,
    "character": _run_character,
    "sub": _run_sub,
    "audit": _run_audit,
}


def run(q: Query) -> tuple[int, str]:
    """Execute a query; returns (exit status, serialized output)."""
    runner = _RUNNERS.get(q.command)
    if runner is None:
        return EXIT_USAGE, f"error: unknown command {q.command!r}\n"
    try:
        return EXIT_OK, runner(q)
    except (UsageError, LimitError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    except AuditMismatch as exc:
        return EXIT_AUDIT, str(exc)
    except SolverError as exc:
        return EXIT_INTERNAL, f"internal inconsistency: {exc}\n"
    except (ArithmeticError, MemoryError) as exc:
        return EXIT_ERROR, f"internal error: {type(exc).__name__}: {exc}\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="schurmult", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, fmt_default="text", formats=("json", "csv", "text")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--format", dest="fmt", choices=formats, default=fmt_default)
        return sub

    mult = add("mult", "multiplicity table of an irreducible representation", "json")
    schur = add("schur", "generalized Schur polynomial of a partition")
    orbit = add("orbit", "weights of one Weyl orbit")
    character = add("character", "irreducible character from the straightened alternants")
    sub_cmd = add("sub", "dominant weights of one height class")
    audit = add(
        "audit", "cross-check solver against the independent oracles", formats=("text",)
    )

    for cmd in (mult, schur, orbit, character, sub_cmd):
        cmd.add_argument("--rank", type=int, required=True, help="number of rows N (algebra A(N-1))")
    for cmd in (mult, orbit, character):
        cmd.add_argument("--weight", type=_int_tuple, default=None)
        cmd.add_argument("--partition", type=_int_tuple, default=None)
    schur.add_argument("--partition", type=_int_tuple, required=True)
    sub_cmd.add_argument("--height", type=int, required=True)
    mult.add_argument("--oracle", action="store_true", help="cross-check against oracles")

    audit.add_argument("--ranks", type=_int_tuple, default=())
    audit.add_argument("--max-height", type=int, default=4)
    audit.add_argument("--flagship", action="store_true")
    return parser


def parse_query(argv: list[str]) -> Query:
    return Query(**vars(_build_parser().parse_args(argv)))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    try:
        query = parse_query(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status, output = run(query)
    if status == EXIT_OK:
        sys.stdout.write(output)
    else:
        sys.stderr.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
