"""Oracle-pinned reference multiplicities for every benchmark target.

The reference of a target is its dimension and a digest of its nonzero
dominant multiplicities, keyed by fundamental-weight coordinates.  It is
built only from the classical recursion (``oracle.freudenthal``),
cross-checked by tableau counting (``oracle.kostka_multiplicity``) on the
smaller targets and by the product-formula ``dimension``; the Schur
pipeline is never used.  Regenerate with::

    python3 perfbench/reference.py

which rewrites ``perfbench/reference.json`` (a few minutes on 2 cores).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tableau counting is brute force; only targets up to this dimension get it.
_KOSTKA_MAX_DIMENSION = 20000


def key(N: int, coords) -> str:
    return f"{N}:{','.join(map(str, coords))}"


def digest(mults: dict) -> str:
    """Digest of a ``{coords: multiplicity}`` map, zero entries dropped."""
    pairs = sorted((list(c), m) for c, m in mults.items() if m)
    text = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def dominant_mults(N: int, terms: dict) -> dict:
    """``{coords: multiplicity}`` of the dominant terms of ``{mu-exponents: coeff}``.

    The one rule, shared by the generator and the benchmark's character
    check, for which weights a digest covers.
    """
    from schurmult import AlgebraContext, Weight

    ctx = AlgebraContext(N)
    return {
        Weight(exps, ctx).dominant_representative().coords: coeff
        for exps, coeff in terms.items()
        if all(exps[i] >= exps[i + 1] for i in range(N - 1))
    }


def _oracle_entry(N: int, coords) -> tuple[int, str]:
    from schurmult import AlgebraContext, DominantWeight, dimension
    from schurmult.oracle import freudenthal, kostka_multiplicity

    w = DominantWeight(coords, AlgebraContext(N))
    full = freudenthal(w)
    mults = dominant_mults(N, {weight.mu_exponents: mult for weight, mult in full.items()})
    dim = dimension(w)
    if sum(full.values()) != dim:
        raise ArithmeticError(f"recursion and product formula disagree on {key(N, coords)}")
    if dim <= _KOSTKA_MAX_DIMENSION:
        for member_coords, mult in mults.items():
            member = DominantWeight(member_coords, w.context)
            if kostka_multiplicity(w, member) != mult:
                raise ArithmeticError(f"recursion and tableaux disagree on {key(N, coords)}")
    return dim, digest(mults)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    tables = {}
    targets = workloads.reference_targets()
    for i, (N, coords) in enumerate(targets):
        tables[key(N, coords)] = _oracle_entry(N, coords)
        if i % 100 == 0:
            print(f"{i}/{len(targets)}", file=sys.stderr, flush=True)
    audit_cases = sum(
        1
        for n in workloads.AUDIT_RANKS
        for h in range(1, workloads.AUDIT_MAX_HEIGHT + 1)
        for _ in workloads.partitions(h, n - 1)
    )
    write({"audit_cases": audit_cases, "tables": tables})
    return 0


def write(payload: dict, path: Path = REFERENCE_PATH) -> None:
    """JSON with one target per line."""
    tables = sorted(payload["tables"].items())
    lines = ",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in tables)
    with open(path, "w") as fh:
        fh.write(f'{{\n"audit_cases": {payload["audit_cases"]},\n"tables": {{\n{lines}\n}}\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
