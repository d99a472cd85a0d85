"""Multiplicity solving: equate the generalized Schur function with the
orbital decomposition and solve the exact linear system.

The unknowns are the orbit multiplicities of the dominant weights obtained
from all partitions of the height; the equations come from matching
coefficients of x-monomials.  Pinning e_N = 1 lowers the x-weight (x_i has
weight i) by N, so the column of a member mu has terms only at weights |mu|,
|mu| - N, ...: sorted by weight, the system is block lower triangular, and
it is solved one diagonal block at a time, from the top weight down.  The
system must be exactly consistent with a unique, integral, nonnegative
solution; anything else signals a bug in the degeneration machinery and
fails loudly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, groupby
from math import lcm
from operator import mul

from .lattice import (
    AlgebraContext,
    DominantWeight,
    height,
    orbit_size,
    sub_Q_lambda1,
)
from .orbitchar import orbit_char_x
from .polyengine import XPoly, unpack_monomial
from .schur import generalized_schur


class SolverError(RuntimeError):
    """Singular, inconsistent, or non-integral multiplicity system."""


@dataclass(frozen=True)
class MultiplicityTable:
    """Orbit multiplicities of one irreducible representation.

    ``entries`` pairs each dominant weight of the height class with its
    multiplicity, in the deterministic enumeration order, and
    ``orbit_sizes`` holds those weights' orbit sizes in the same order.
    """

    highest_weight: DominantWeight
    entries: tuple[tuple[DominantWeight, int], ...]
    dimension: int
    orbit_sizes: tuple[int, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# Height-class systems kept at once; each holds the steps of its diagonal
# weight blocks, O(block size ** 2) integers, and one entry per column term
# below its block, so the bound caps the memory a long-lived process spends.
SYSTEM_CACHE_SIZE = 16


# The primes of the modular solve, Mersenne primes tried in order: every
# class is factored modulo the first, and a solve it cannot certify is
# retried modulo the next.
PRIMES = ((1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1)


class HeightClassSystem:
    """Orbit-character system of one height class, factored once.

    The unknowns are the orbit multiplicities of ``members``; there is one
    row per monomial of the column support, sorted by x-weight, then
    packed monomial, both descending, and the rows are scaled to integers
    by the lcm L of the column denominators.  A column's top weight is the
    largest weight among its terms; the diagonal block at weight d, the
    rows of weight d against the columns of top weight d, is square in a
    class system (the m -> p transition in degree d).

    Construction factors only the diagonal blocks, modulo the first of
    :data:`PRIMES`, and keeps in ``factored`` one ``(forward, backward)``
    pair per block, top weight first, or ``None`` if a pivot vanishes:
    the block's steps ``(pivot row, pivot inverse, target rows, factors)``,
    then, in reverse, each pivot column with its pivot row, its pivot-row
    tail inside the block and its entries below the block.  :meth:`solve`
    replays each block's steps on a right-hand side, back-substitutes its
    unknowns and subtracts their entries below the block, then lifts the
    solution to the symmetric range and certifies it exactly in integers
    against the columns: nonzero pivots in every diagonal block make the
    rational system nonsingular, so an integer vector that satisfies
    every equation is its unique solution.  A solve that the first prime
    cannot certify factors the blocks again modulo each later prime.

    The class also keeps what a table needs from its members: ``position``
    maps each member to its unknown, and ``orbit_sizes`` holds their orbit
    sizes (given by :func:`height_class_system`, which has the members as
    weights), so a warm solve only replays, certifies and sums.  The
    object is never mutated after construction, so one instance is shared
    by every solve of the class, across threads too.
    """

    def __init__(
        self,
        members: Sequence[DominantWeight],
        columns: Sequence[XPoly],
        orbit_sizes: Sequence[int] = (),
    ):
        self.members = tuple(members)
        self.position = {member: i for i, member in enumerate(self.members)}
        self.orbit_sizes = tuple(orbit_sizes)
        self.columns = tuple(columns)
        nvars = max((col.nvars for col in columns), default=0)
        support = set().union(*(col.num for col in columns))
        weight = {mono: sum(map(mul, unpack_monomial(mono, nvars), count(1))) for mono in support}
        monomials = sorted(weight, key=lambda mono: (weight[mono], mono), reverse=True)
        self.row_of = {mono: i for i, mono in enumerate(monomials)}
        # each column's rows, in the order of its numerators
        self.column_rows = tuple(tuple(map(self.row_of.__getitem__, col.num)) for col in columns)
        # each diagonal block: its run of rows and its columns in pivot order
        keys = [-weight[mono] for mono in monomials]
        top = [-keys[min(rows)] if rows else 0 for rows in self.column_rows]
        order = sorted(range(len(columns)), key=lambda c: (-top[c], c))
        self.blocks = tuple(
            (range(bisect_left(keys, -d), bisect_right(keys, -d)), tuple(cols))
            for d, cols in groupby(order, top.__getitem__)
        )
        # the system is compared over L, the lcm of the column denominators,
        # so column j is scaled by L / den_j
        self.den_lcm = lcm(*(col.den for col in columns))
        self.multipliers = tuple(self.den_lcm // col.den for col in columns)
        self.prime = PRIMES[0]
        self.factored = self._factor(self.prime)

    def _factor(self, p: int) -> tuple | None:
        """Steps of each diagonal block modulo ``p``; ``None`` if a pivot vanishes."""
        factored = []
        for rows, cols in self.blocks:
            block = [[0] * len(cols) for _ in rows]
            below = []
            for k, j in enumerate(cols):
                mult = self.multipliers[j]
                lower, lower_values = [], []
                for i, c in zip(self.column_rows[j], self.columns[j].num.values()):
                    c = c * mult % p
                    if i < rows.stop:
                        block[i - rows.start][k] = c
                    else:
                        lower.append(i)
                        lower_values.append(c)
                below.append((tuple(lower), tuple(lower_values)))
            free = list(range(len(rows)))
            forward, backward = [], []
            # entries of the rows not yet pivots are reduced only when read:
            # each update adds less than p**2, so they stay a few words long
            for k, j in enumerate(cols):
                pivot = next((i for i in free if block[i][k] % p), None)
                if pivot is None:
                    return None
                free.remove(pivot)
                row = block[pivot]
                inv = pow(row[k], -1, p)
                # earlier pivot columns are eliminated from the pivot row
                tail = [c for c in range(k + 1, len(cols)) if row[c] % p]
                tail_values = [row[c] * inv % p for c in tail]
                targets, factors = [], []
                for i in free:
                    target = block[i]
                    factor = target[k] % p
                    if factor:
                        targets.append(rows.start + i)
                        factors.append(factor)
                        for c, v in zip(tail, tail_values):
                            target[c] -= factor * v
                forward.append((rows.start + pivot, inv, tuple(targets), tuple(factors)))
                tail_cols = tuple(cols[c] for c in tail)
                backward.append((j, rows.start + pivot, tail_cols, tuple(tail_values), *below[k]))
            factored.append((tuple(forward), tuple(reversed(backward))))
        return tuple(factored)

    def solve(self, rhs: XPoly) -> list[int]:
        """Unique solution for the right-hand side ``rhs``, certified in integers.

        Raises :class:`SolverError` when ``rhs`` has a monomial outside the
        column support, when a pivot vanishes modulo every prime (singular
        system), or when no prime yields a certified solution (the system
        is inconsistent or its solution is not integral).
        """
        entries = []
        for mono, coeff in rhs.num.items():
            i = self.row_of.get(mono)
            if i is None:
                raise SolverError(
                    f"system is inconsistent: rhs monomial {unpack_monomial(mono, rhs.nvars)} "
                    "lies outside the column support"
                )
            entries.append((i, coeff))
        singular = True
        for p in PRIMES:
            factored = self.factored if p == self.prime else self._factor(p)
            if factored is None:
                continue
            singular = False
            # a lift that fails the certificate is non-integral, too large
            # for p, or not a solution at all
            if rhs.den % p:
                x = self._solve_modular(p, factored, entries, rhs.den)
                if self._certifies(x, entries, rhs.den):
                    return x
        if singular:
            raise SolverError("system is singular: a pivot vanishes modulo every prime")
        raise SolverError("system is inconsistent or not integral: no prime certifies a solution")

    def _solve_modular(self, p: int, factored, entries, denom: int) -> list[int]:
        """Solution modulo ``p``, lifted to the symmetric range."""
        scale = self.den_lcm * pow(denom, -1, p)
        b = [0] * len(self.row_of)
        for i, coeff in entries:
            b[i] = coeff * scale % p
        x = [0] * len(self.columns)
        # block forward substitution, top weight down, in place on b
        for forward, backward in factored:
            for row, pivot_inv, targets, factors in forward:
                top = b[row] = b[row] * pivot_inv % p
                if top:
                    for i, factor in zip(targets, factors):
                        b[i] -= factor * top
            for col, row, tail, tail_values, lower, lower_values in backward:
                dot = sum(map(mul, tail_values, map(x.__getitem__, tail)))
                value = x[col] = (b[row] - dot) % p
                if value:
                    for i, c in zip(lower, lower_values):
                        b[i] -= c * value
        half = p // 2
        return [v - p if v > half else v for v in x]

    def _certifies(self, x: list[int], entries, denom: int) -> bool:
        """Whether ``sum_j x_j num_j (L / den_j) * denom == L * rhs.num`` holds
        exactly on every monomial."""
        acc = [0] * len(self.row_of)
        for value, mult, rows, col in zip(x, self.multipliers, self.column_rows, self.columns):
            if value:
                value *= mult
                for i, c in zip(rows, col.num.values()):
                    acc[i] += value * c
        if denom != 1:
            acc = [a * denom for a in acc]
        for i, coeff in entries:
            acc[i] -= self.den_lcm * coeff
        return not any(acc)


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def height_class_system(N: int, Q: int) -> HeightClassSystem:
    """The factored system of the height-``Q`` class of the rank-``N`` algebra."""
    ctx = AlgebraContext(N)
    members = sub_Q_lambda1(Q, ctx)
    return HeightClassSystem(
        members,
        [orbit_char_x(m.to_partition(), ctx) for m in members],
        [orbit_size(m) for m in members],
    )


def solve_multiplicities(w: DominantWeight) -> MultiplicityTable:
    """Solve the x-monomial linear system for all orbit multiplicities.

    The system of the height class is built and factored once per (N, Q)
    and shared by every highest weight of the class, with its members'
    positions and orbit sizes.  Asserts that the solution is unique,
    integral, and nonnegative, that the highest weight itself carries
    multiplicity one, and that the orbit sizes weighted by the
    multiplicities sum to the dimension of :func:`dimension`.
    """
    ctx = w.context
    q = height(w)
    if q == 0:
        return MultiplicityTable(w, ((w, 1),), 1, (1,))

    system = height_class_system(ctx.N, q)
    rhs = generalized_schur(w.to_partition(), ctx)
    solution = system.solve(rhs)

    if min(solution) < 0:
        i = next(i for i, mult in enumerate(solution) if mult < 0)
        raise SolverError(
            f"multiplicity of {system.members[i]} solved to {solution[i]}; "
            "expected a nonnegative integer"
        )
    top = solution[system.position[w]]
    if top != 1:
        raise SolverError(f"highest weight {w} solved to multiplicity {top}")
    dim = sum(map(mul, solution, system.orbit_sizes))
    expected = dimension(w)
    if dim != expected:
        raise SolverError(
            f"orbit sizes of {w} weighted by multiplicity sum to {dim}; "
            f"the product formula gives dimension {expected}"
        )
    return MultiplicityTable(w, tuple(zip(system.members, solution)), dim, system.orbit_sizes)


def dimension(w: DominantWeight) -> int:
    """Dimension by the exact product formula over positive root pairs."""
    n = w.context.N
    vec = w.mu_vector()
    shifted = [vec[i] + n - 1 - i for i in range(n)]
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= shifted[i] - shifted[j]
            den *= j - i
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"dimension formula gave non-integer {num}/{den} for {w}")
    return value
