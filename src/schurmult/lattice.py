"""Weight-lattice bookkeeping for the rank-(N-1) special linear algebras.

Dominant weights are stored as coordinates over the fundamental dominant
weights; general weights as integer exponent vectors over the N auxiliary
weights of the defining representation, which sum to zero.  In that basis
a Weyl-orbit is just the set of distinct permutations of the exponent
vector, and adding a constant to every entry does not change the weight,
so the canonical representative has minimum entry zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

# Largest height class that the multiplicity pipeline takes on.  On a
# 2-core machine `mult` of A11 at height 20 (582 members) takes about 0.14 s
# and 32 MB, and of A1 at height 1998 (1,000 members, at the bound)
# 1.6 s and 151 MB, most of it the class rows (148 MB for the build alone);
# solving A11 at height 25 (1,686 members) in-process took 0.8 s and 135 MB.
MAX_CLASS_MEMBERS = 1000

# Most terms that a character (its dimension bounds its term count) or an
# orbit may have.  On a 2-core machine, text output of the A2 character
# 800,0 (dimension 321,201) takes about 2.3 s and 121 MB, and of 1000,0
# (501,501) 3.1 s and 189 MB; the A8 orbit of 1,...,1 (362,880 weights)
# takes 2.1 s and 130 MB as text, 5.4 s and 400 MB as JSON.
MAX_OUTPUT_TERMS = 500_000

# Most exponents, weights times N, that a listing of weights may write:
# at high rank each listed weight costs O(N) to pack, permute and
# straighten.  On a 2-core machine (Python 3.11.7) `character` of (2,1) at
# rank 100 (333,300 weights, 171,600 terms) took 9.1 s and 224 MB, `audit`
# of rank 100 at height 3 13.6 s and at height 4 more than 45 s, and the
# orbit of 1,1 at rank 1000 (499,500 weights) more than 45 s; `audit` of
# rank 100 at height 2 takes 0.49 s and of rank 9 at height 4 0.19 s.  At
# 8 * MAX_OUTPUT_TERMS the term bound implies this one up to N = 8, and
# the A8 orbit of 1,...,1 (3,265,920 exponents) still runs.
MAX_OUTPUT_EXPONENTS = 4_000_000


class LimitError(ValueError):
    """A valid input refused before any work because it exceeds a size bound."""


@dataclass(frozen=True)
class AlgebraContext:
    """Fixes the algebra: N >= 2 selects the rank-(N-1) special linear algebra."""

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("rank context requires N >= 2")

    def __str__(self) -> str:
        return f"A{self.N - 1}"


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, q in enumerate(parts):
            if not isinstance(q, int) or q <= 0:
                raise ValueError(f"partition parts must be positive integers, got {parts}")
            if i and parts[i - 1] < q:
                raise ValueError(f"partition parts must be weakly decreasing, got {parts}")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts padded with zeros to length ``n``."""
        if len(self.parts) > n:
            raise ValueError(f"partition {self} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(q) for q in self.parts) + ")"


@dataclass(frozen=True)
class DominantWeight:
    """Nonnegative integer coordinates over the fundamental dominant weights."""

    coords: tuple[int, ...]
    context: AlgebraContext

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.context.N - 1:
            raise ValueError(
                f"expected {self.context.N - 1} coordinates for {self.context}, got {len(coords)}"
            )
        if any(not isinstance(c, int) or c < 0 for c in coords):
            raise ValueError(f"dominant weight coordinates must be nonnegative, got {coords}")

    def mu_vector(self) -> tuple[int, ...]:
        """Canonical exponent vector (length N, weakly decreasing, last entry 0)."""
        n = self.context.N
        out = [0] * n
        acc = 0
        for i in range(n - 2, -1, -1):
            acc += self.coords[i]
            out[i] = acc
        return tuple(out)

    def to_partition(self) -> Partition:
        return Partition(tuple(q for q in self.mu_vector() if q > 0))

    def __str__(self) -> str:
        pieces = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            term = f"w{i + 1}" if c == 1 else f"{c} w{i + 1}"
            pieces.append(term)
        return " + ".join(pieces) if pieces else "0"


@dataclass(frozen=True)
class Weight:
    """A weight as an exponent vector, canonicalized to minimum entry zero."""

    mu_exponents: tuple[int, ...]
    context: AlgebraContext

    def __post_init__(self):
        exps = tuple(self.mu_exponents)
        if len(exps) != self.context.N:
            raise ValueError(f"expected {self.context.N} exponents, got {len(exps)}")
        low = min(exps)
        if low:
            exps = tuple(e - low for e in exps)
        object.__setattr__(self, "mu_exponents", exps)

    def dominant_representative(self) -> DominantWeight:
        vec = sorted(self.mu_exponents, reverse=True)
        coords = tuple(vec[i] - vec[i + 1] for i in range(self.context.N - 1))
        return DominantWeight(coords, self.context)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.mu_exponents) + ")"


def partition_to_dominant(p: Partition, ctx: AlgebraContext) -> DominantWeight:
    """Dominant weight of a partition with at most N rows.

    The padded part vector is reduced by its last entry (full columns act
    trivially) and differenced into fundamental-weight coordinates.
    """
    q = p.padded(ctx.N)
    coords = tuple(q[i] - q[i + 1] for i in range(ctx.N - 1))
    return DominantWeight(coords, ctx)


def height(w: DominantWeight) -> int:
    """Sum of the canonical exponent vector."""
    return sum((i + 1) * c for i, c in enumerate(w.coords))


def partitions_of(total: int, max_parts: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``total`` with at most ``max_parts`` parts, descending lex order."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    top = total if max_part is None else min(max_part, total)
    if max_parts == 1:
        if 0 < total == top:
            yield (total,)
        return
    for first in range(top, 0, -1):
        # max_parts parts no larger than first cannot reach the total
        if first * max_parts < total:
            return
        for rest in partitions_of(total - first, max_parts - 1, first):
            yield (first,) + rest


def class_size(Q: int, ctx: AlgebraContext) -> int:
    """Number of members of the height-``Q`` class, without enumerating it.

    Partitions with at most N parts are the conjugates of those with
    parts at most N, which the recurrence over the largest allowed part
    counts in O(N * Q) additions.
    """
    ways = [1] + [0] * Q
    for part in range(1, min(ctx.N, Q) + 1):
        for total in range(part, Q + 1):
            ways[total] += ways[total - part]
    return ways[Q]


def check_class_size(Q: int, ctx: AlgebraContext) -> None:
    """Refuse a height class above :data:`MAX_CLASS_MEMBERS` before building it."""
    # The Q // 2 + 1 members with at most two rows alone exceed the bound
    # at a large height, where even counting would cost O(N * Q).
    at_least = Q // 2 + 1
    if at_least > MAX_CLASS_MEMBERS:
        count = f"at least {at_least}"
    else:
        size = class_size(Q, ctx)
        if size <= MAX_CLASS_MEMBERS:
            return
        count = str(size)
    raise LimitError(
        f"height class {Q} of {ctx} has {count} members; "
        f"at most {MAX_CLASS_MEMBERS} are supported"
    )


def sub_Q_lambda1(Q: int, ctx: AlgebraContext) -> list[DominantWeight]:
    """Dominant weights of all partitions of Q with at most N rows.

    Ordered by partition length, then reverse-lexicographically on parts,
    which keeps downstream linear systems and golden files reproducible.
    Full-column reduction lowers heights by multiples of N, so members
    share the height of Q only modulo N.  A class above
    :data:`MAX_CLASS_MEMBERS` raises :class:`LimitError`.
    """
    if Q < 1:
        raise ValueError("weight must be positive")
    check_class_size(Q, ctx)
    shapes = sorted(
        partitions_of(Q, ctx.N),
        key=lambda parts: (len(parts), tuple(-q for q in parts)),
    )
    return [partition_to_dominant(Partition(parts), ctx) for parts in shapes]


def distinct_permutations(items) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, ascending lexicographic order."""
    seq = sorted(items)
    n = len(seq)
    if n == 0:
        yield ()
        return
    while True:
        yield tuple(seq)
        i = n - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = reversed(seq[i + 1 :])


def check_listed_exponents(subject: str, count: int, n: int) -> None:
    """Refuse a listing of ``count`` weights of ``n`` exponents each above
    :data:`MAX_OUTPUT_EXPONENTS` exponents in all."""
    if count * n > MAX_OUTPUT_EXPONENTS:
        raise LimitError(
            f"{subject} lists {count} weights of {n} exponents, {count * n} in all; "
            f"at most {MAX_OUTPUT_EXPONENTS} are supported"
        )


def orbit_weights(w: DominantWeight) -> list[Weight]:
    """Every weight of the Weyl orbit, each exactly once; an orbit above
    :data:`MAX_OUTPUT_TERMS` weights or :data:`MAX_OUTPUT_EXPONENTS`
    exponents raises :class:`LimitError`."""
    size = orbit_size(w)
    if size > MAX_OUTPUT_TERMS:
        raise LimitError(
            f"the orbit of {w} has {size} weights; at most {MAX_OUTPUT_TERMS} are supported"
        )
    check_listed_exponents(f"the orbit of {w}", size, w.context.N)
    return [Weight(vec, w.context) for vec in distinct_permutations(w.mu_vector())]


def orbit_size(w: DominantWeight) -> int:
    """Multiset-permutation count of the exponent vector, a product of one
    binomial per distinct entry: placing an entry's copies among the
    places left costs at most the smaller of the two counts, so the long
    run of zeros at high rank is no N! of big-int work."""
    vec = w.mu_vector()
    count = 1
    left = w.context.N
    for value in set(vec):
        copies = vec.count(value)
        count *= comb(left, copies)
        left -= copies
    return count
