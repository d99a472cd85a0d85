"""Independent ground-truth generators for auditing the Schur pipeline.

Nothing here touches the Schur or solver machinery: multiplicities come
from the classical top-down recursion over positive roots, from counting
semistandard tableau fillings strip by strip, and orbit characters from
direct orbit expansion.  That independence, not speed, makes them ground
truth; :func:`dominant_freudenthal` and :func:`kostka_numbers` still run
at the solver's scale.
"""

from __future__ import annotations

from .lattice import (
    DominantWeight,
    Partition,
    Weight,
    distinct_permutations,
    height,
    partitions_of,
)
from .polyengine import UPoly

WeightMultiplicityMap = dict[Weight, int]


def inflated_exponents(w: DominantWeight, total: int) -> tuple[int, ...]:
    """Exponent vector of ``w`` raised to the given total by adding full columns.

    Inverse of the column reduction used when converting partitions to
    dominant weights; ``total`` must exceed the height by a multiple of N.
    """
    vec = w.mu_vector()
    deficit = total - sum(vec)
    n = w.context.N
    if deficit < 0 or deficit % n:
        raise ValueError(
            f"cannot inflate weight of height {sum(vec)} to total {total} for {w.context}"
        )
    add = deficit // n
    return tuple(v + add for v in vec)


def _dominated(v: tuple[int, ...], top: tuple[int, ...]) -> bool:
    # partial sums of v never exceed those of top (equal totals assumed)
    acc = 0
    for a, b in zip(v, top):
        acc += a - b
        if acc > 0:
            return False
    return True


def dominant_freudenthal(w: DominantWeight) -> dict[DominantWeight, int]:
    """Nonzero multiplicities of the dominant weights of ``w``'s
    representation by the classical top-down recursion, in the order the
    recursion reaches them.

    Works in exponent coordinates where positive roots are differences of
    coordinate vectors and all inner products reduce to integers.  Every
    weight of an orbit has its dominant member's multiplicity, so the
    recursion looks its terms up by their sorted exponents and keeps only
    the dominant weights; full columns are removed from the keys.
    """
    n = w.context.N
    top = w.mu_vector()
    total = sum(top)
    rho = tuple(n - 1 - i for i in range(n))

    candidates = [
        parts + (0,) * (n - len(parts))
        for parts in partitions_of(total, n)
        if _dominated(parts + (0,) * (n - len(parts)), top)
    ]

    def depth(v: tuple[int, ...]) -> int:
        acc = 0
        run = 0
        for i in range(n):
            run += top[i] - v[i]
            acc += run
        return acc

    candidates.sort(key=lambda v: (depth(v), v))

    def norm_shifted(v: tuple[int, ...]) -> int:
        return sum((a + r) ** 2 for a, r in zip(v, rho))

    top_norm = norm_shifted(top)
    table: dict[tuple[int, ...], int] = {}
    for v in candidates:
        if v == top:
            table[v] = 1
            continue
        numerator = 0
        for i in range(n):
            for j in range(i + 1, n):
                k = 1
                while True:
                    hi = v[i] + k
                    lo = v[j] - k
                    if hi > top[0] or lo < 0:
                        break
                    shifted = list(v)
                    shifted[i] = hi
                    shifted[j] = lo
                    m = table.get(tuple(sorted(shifted, reverse=True)))
                    if m:
                        numerator += m * (hi - lo)
                    k += 1
        denominator = top_norm - norm_shifted(v)
        mult, rem = divmod(2 * numerator, denominator)
        if rem or mult <= 0:
            raise ArithmeticError(
                f"recursion produced non-weight multiplicity {2 * numerator}/{denominator} at {v}"
            )
        table[v] = mult

    ctx = w.context
    return {
        DominantWeight(tuple(v[i] - v[i + 1] for i in range(n - 1)), ctx): mult
        for v, mult in table.items()
    }


def freudenthal(w: DominantWeight) -> WeightMultiplicityMap:
    """Full weight-multiplicity map: :func:`dominant_freudenthal` with each
    multiplicity at every weight of its orbit."""
    return {
        Weight(perm, w.context): mult
        for member, mult in dominant_freudenthal(w).items()
        for perm in distinct_permutations(member.mu_vector())
    }


def _inners(rows: tuple[int, ...], i: int, left: int):
    """``rows[i:]`` less ``left`` cells, no two in a column: row i keeps
    rows[i + 1] to rows[i] cells, so rows[i:] spare at most rows[i], and
    keeps enough that the rows below can spare the rest."""
    if left > (rows[i] if i < len(rows) else 0):
        return
    if i == len(rows):
        yield ()
        return
    below = rows[i + 1] if i + 1 < len(rows) else 0
    for kept in range(max(below, rows[i] - left), min(rows[i], rows[i] - left + below) + 1):
        for rest in _inners(rows, i + 1, left - rows[i] + kept):
            yield (kept,) + rest if kept else rest


def kostka_numbers(shape: Partition, contents) -> list[int]:
    """Number of semistandard fillings of ``shape`` for each content.

    Rows weakly increase, columns strictly increase, and entry ``i+1``
    appears exactly ``content[i]`` times.  The cells holding the largest
    entry form a horizontal strip, so the entries are peeled from the last
    to the first: a map from shapes to their number of fillings replaces
    each shape by the shapes left after removing such a strip (Macdonald,
    *Symmetric Functions and Hall Polynomials*, ch. I section 5).  The map
    left after peeling depends only on the content's length and the
    entries peeled, so the contents share it along a trie, one entry per
    step, and contents with a common suffix peel it once.
    """
    all_counts = []
    for content in contents:
        counts = list(content)
        if any(c < 0 for c in counts):
            raise ValueError(f"content must be nonnegative, got {content}")
        if sum(counts) != shape.weight:
            raise ValueError(f"content {content} does not fill shape {shape}")
        all_counts.append(counts)
    # a trie node is the peeled map and its children by the next entry
    roots: dict[int, tuple[dict, dict]] = {}
    out = []
    for counts in all_counts:
        node = roots.setdefault(len(counts), ({tuple(shape.parts): 1}, {}))
        for left in range(len(counts) - 1, -1, -1):
            ways, children = node
            node = children.get(counts[left])
            if node is None:
                peeled: dict[tuple[int, ...], int] = {}
                for rows, n in ways.items():
                    # entries 1..left fill at most ``left`` rows
                    for inner in _inners(rows, 0, counts[left]):
                        if len(inner) <= left:
                            peeled[inner] = peeled.get(inner, 0) + n
                node = children[counts[left]] = (peeled, {})
        out.append(node[0].get((), 0))
    return out


def kostka(shape: Partition, content) -> int:
    """Number of semistandard fillings of ``shape`` with the given content;
    see :func:`kostka_numbers`."""
    return kostka_numbers(shape, [content])[0]


def brute_orbit_char(w: DominantWeight) -> UPoly:
    """Orbit character by direct orbit expansion: one u-monomial per weight."""
    n = w.context.N
    return UPoly(n, {vec: 1 for vec in distinct_permutations(w.mu_vector())})


def kostka_multiplicity(highest: DominantWeight, member: DominantWeight) -> int:
    """Weight multiplicity via tableau counting.

    The member weight is re-inflated to the height of the highest weight
    (undoing column reduction) and used as filling content for the
    highest weight's shape.
    """
    shape = highest.to_partition()
    content = inflated_exponents(member, height(highest))
    return kostka(shape, content)
