"""Independent ground-truth generators for auditing the Schur pipeline.

Nothing here touches the Schur or solver machinery: multiplicities come
from the classical top-down recursion over positive roots, from counting
semistandard tableau fillings, and orbit characters from direct orbit
expansion.  These are desk-scale brute-force tools; performance is a
non-goal.
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


def freudenthal(w: DominantWeight) -> WeightMultiplicityMap:
    """Full weight-multiplicity map by the classical top-down recursion.

    Works in exponent coordinates where positive roots are differences of
    coordinate vectors and all inner products reduce to integers.  Desk
    scale only.
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

    out: WeightMultiplicityMap = {}
    for v, mult in table.items():
        for perm in distinct_permutations(v):
            out[Weight(perm, w.context)] = mult
    return out


def kostka(shape: Partition, content) -> int:
    """Number of semistandard fillings of ``shape`` with the given content.

    Rows weakly increase, columns strictly increase, and entry ``i+1``
    appears exactly ``content[i]`` times.  Brute-force backtracking over
    the cells in row order, with an explicit stack, so a long row costs no
    recursion depth.
    """
    counts = list(content)
    if any(c < 0 for c in counts):
        raise ValueError(f"content must be nonnegative, got {content}")
    if sum(counts) != shape.weight:
        raise ValueError(f"content {content} does not fill shape {shape}")
    rows = shape.parts
    nvals = len(counts)
    cells = [(r, c) for r in range(len(rows)) for c in range(rows[r])]
    grid = [[0] * rows[r] for r in range(len(rows))]

    if not cells:
        return 1
    total = 0
    # the value in each filled cell, then the cell being filled (0 before
    # its first value); popping a cell returns to the one before it
    stack = [0]
    while stack:
        pos = len(stack) - 1
        r, c = cells[pos]
        val = stack[pos]
        if val:
            counts[val - 1] += 1
        else:
            val = grid[r][c - 1] - 1 if c else 0
            if r and grid[r - 1][c] > val:
                val = grid[r - 1][c]
        # the next value above val still left in the content
        val += 1
        while val <= nvals and not counts[val - 1]:
            val += 1
        if val > nvals:
            stack.pop()
            continue
        counts[val - 1] -= 1
        grid[r][c] = val
        stack[pos] = val
        if pos + 1 < len(cells):
            stack.append(0)
        else:
            total += 1
    return total


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
