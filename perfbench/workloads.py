"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python on tuples: the process that forks the
cold-table children must not have touched ``schurmult`` beyond importing
it, so no library call happens while inputs are generated.  A target is
``(N, coords)``: the number of rows N of A(N-1) and the highest weight in
fundamental-weight coordinates.
"""

from __future__ import annotations

import random

WORKLOADS = ("mult-cold", "class-sweep-warm", "audit-sweep")

# mult-cold strata: (N, lowest height, highest height).  The first eight are
# high rank at moderate height, where building orbit columns dominates; the
# last two are low rank at large height, where exact elimination on large
# integers dominates.  Heights stay far below the A1 RecursionError height
# (about 1500) for run time, not to hide that defect.
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
# Each round solves two targets of every high-rank stratum, one A1 and two A2
# targets, so the elimination-bound tail carries weight in every round.  Two
# high-rank slots per round double the draws around the median table, where
# which targets a seed draws moves the median the most.
COLD_ROUND = tuple(range(8)) * 2 + (8, 9, 9)
# A cycle is this many rounds.  Within a cycle each stratum's candidates,
# sorted by height, are cut into one block per pick and one target is drawn
# from every block: each seed draws other targets, but every cycle covers
# each height range evenly, so the quantiles hardly depend on the seed.
COLD_CYCLE_ROUNDS = 12

# class-sweep-warm: every highest weight of one height class.  Seven-row
# targets (partitions of 10 with 7 parts) take the det_bareiss route.
WARM_N = 8
WARM_HEIGHT = 10

# audit-sweep: the CLI oracle-equivalence sweep plus the alternant character
# and factorization audit of fixed A4/A5 partitions: every A4 partition of
# heights 2 to 5, three heavier A4 cases ((4,3,2) is bound by polynomial
# products) and two A5 cases.
AUDIT_RANKS = (3, 4, 5)
AUDIT_MAX_HEIGHT = 7
AUDIT_PARTITIONS = tuple(
    (5, parts)
    for parts in (
        (2,), (1, 1),
        (3,), (2, 1), (1, 1, 1),
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (3, 2, 1), (4, 2), (4, 3, 2),
    )
) + ((6, (2, 1)), (6, (3, 1)))


def partitions(total: int, max_parts: int, max_part: int | None = None):
    """Partitions of ``total`` into at most ``max_parts`` parts, descending lex."""
    if total == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    top = total if max_part is None else min(max_part, total)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def coords_of(N: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """Fundamental-weight coordinates of a partition with fewer than N rows."""
    q = tuple(parts) + (0,) * (N - len(parts))
    return tuple(q[i] - q[i + 1] for i in range(N - 1))


def stratum_candidates(stratum) -> list[tuple[int, tuple[int, ...]]]:
    """All targets of a stratum, ordered by height, then partition."""
    N, low, high = stratum
    return [
        (N, coords_of(N, parts))
        for Q in range(low, high + 1)
        for parts in sorted(partitions(Q, N - 1))
    ]


def warm_targets() -> list[tuple[int, tuple[int, ...]]]:
    return [(WARM_N, coords_of(WARM_N, p)) for p in partitions(WARM_HEIGHT, WARM_N - 1)]


def audit_targets() -> list[tuple[int, tuple[int, ...]]]:
    return [(N, coords_of(N, parts)) for N, parts in AUDIT_PARTITIONS]


def reference_targets() -> list[tuple[int, tuple[int, ...]]]:
    """Every target any workload can solve: the pools of the reference."""
    out = []
    for stratum in COLD_STRATA:
        out.extend(stratum_candidates(stratum))
    out.extend(warm_targets())
    out.extend(audit_targets())
    return sorted(set(out))


def cold_rounds(seed: int):
    """Endless stream of rounds of distinct cold targets, cycle by cycle.

    A cycle draws one unused candidate from every block of every stratum
    (a stratum with two slots per round has twice the blocks), deals the
    draws out to ``COLD_CYCLE_ROUNDS`` rounds at random, and shuffles the
    slots of each round.
    """
    rng = random.Random(seed)
    pools = [stratum_candidates(s) for s in COLD_STRATA]
    used = [set() for _ in pools]
    while True:
        draws = []
        for i, pool in enumerate(pools):
            n = COLD_ROUND.count(i) * COLD_CYCLE_ROUNDS
            if len(used[i]) + n > len(pool):
                used[i].clear()
            picks = []
            for b in range(n):
                lo = len(pool) * b // n
                block = range(lo, max(lo + 1, len(pool) * (b + 1) // n))
                free = [j for j in block if j not in used[i]] or list(block)
                j = rng.choice(free)
                used[i].add(j)
                picks.append(pool[j])
            rng.shuffle(picks)
            draws.append(picks)
        for _ in range(COLD_CYCLE_ROUNDS):
            round_ = [draws[i].pop() for i in COLD_ROUND]
            rng.shuffle(round_)
            yield round_


def warm_passes(seed: int):
    """Endless stream of passes over the warm class, each in seeded order."""
    rng = random.Random(seed)
    targets = warm_targets()
    while True:
        order = list(targets)
        rng.shuffle(order)
        yield order


def audit_passes(seed: int):
    """Endless stream of audit passes: one CLI sweep, then every partition case.

    A pass is a list of cases, each a list of calls that share one process:
    ``[("audit", ranks)]`` for the CLI sweep, ``[("character", N, parts),
    ("verify", N, parts)]`` for a partition.  Each case starts with empty
    caches, so a call costs the same wherever the seed puts its case; the
    seed orders the partition cases.
    """
    rng = random.Random(seed)
    while True:
        cases = list(AUDIT_PARTITIONS)
        rng.shuffle(cases)
        yield [[("audit", AUDIT_RANKS)]] + [
            [("character", N, parts), ("verify", N, parts)] for N, parts in cases
        ]
