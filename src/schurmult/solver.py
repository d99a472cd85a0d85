"""Multiplicity solving: equate the generalized Schur function with the
orbital decomposition and solve the exact linear system.

The unknowns are the orbit multiplicities of the dominant weights obtained
from all partitions of the height; the equations come from matching
coefficients of x-monomials.  The system must be exactly consistent with a
unique, integral, nonnegative solution; anything else signals a bug in the
degeneration machinery and fails loudly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
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


# Height-class systems kept at once; each holds O(class size ** 2) integers,
# so the bound caps the memory a long-lived process spends on them.
SYSTEM_CACHE_SIZE = 16


# The primes of the modular solve, Mersenne primes tried in order: every
# class is factored modulo the first, and a solve it cannot certify is
# retried modulo the next.
PRIMES = ((1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1)


class HeightClassSystem:
    """Orbit-character system of one height class, factored once.

    The unknowns are the orbit multiplicities of ``members``; there is one
    row per monomial of the column support, in descending graded-lex
    order.  The rows are scaled to integers by the lcm L of the column
    denominators.  Construction factors them modulo the first of
    :data:`PRIMES`, with pivot columns visited largest-support first, and
    keeps in ``factored`` every step's ``(pivot row, pivot inverse, target
    rows, factors)`` plus the nonzero tail of each normalized pivot row, or
    ``None`` if a pivot vanishes.  :meth:`solve` replays those steps on a
    right-hand side, lifts the solution to the symmetric range and
    certifies it exactly in integers against the columns: the nonzero
    pivots mean the rational system has a unique solution, so an integer
    vector that satisfies every equation is that solution.

    A solve that the first prime cannot certify factors the rows again
    modulo each later prime in turn, within the call.

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
        support: set[int] = set()
        for col in columns:
            support.update(col.num)
        # packed monomials sort in graded-lex order as ints
        monomials = sorted(support, reverse=True)
        self.row_of = {mono: i for i, mono in enumerate(monomials)}
        self.order = tuple(sorted(range(len(columns)), key=lambda c: (-len(columns[c].num), c)))
        # the system is compared over L, the lcm of the column denominators,
        # so column j is scaled by L / den_j; its numerators are read in the
        # order of its rows here
        self.den_lcm = lcm(*(col.den for col in columns))
        self.multipliers = tuple(self.den_lcm // col.den for col in columns)
        self.column_rows = tuple(tuple(self.row_of[mono] for mono in col.num) for col in columns)
        self.prime = PRIMES[0]
        self.factored = self._factor(self.prime)

    def _factor(self, p: int) -> tuple[tuple, tuple] | None:
        """Steps and pivot-row tails of the scaled rows modulo ``p``;
        ``None`` when a pivot vanishes modulo it."""
        rows = [[0] * len(self.columns) for _ in self.row_of]
        for j, (mult, col) in enumerate(zip(self.multipliers, self.columns)):
            for mono, c in col.num.items():
                rows[self.row_of[mono]][j] = c * mult % p
        steps = []
        upper = []
        # entries below the pivot rows are reduced only when read: each
        # update adds less than p**2, so they stay a few words long
        for step, col in enumerate(self.order):
            pivot_row = next((i for i in range(step, len(rows)) if rows[i][col] % p), None)
            if pivot_row is None:
                return None
            rows[step], rows[pivot_row] = rows[pivot_row], rows[step]
            inv = pow(rows[step][col], -1, p)
            # the nonzero tail of the normalized pivot row; earlier pivot
            # columns are already zero in it, so a sparse row costs little
            tail = [j for j, v in enumerate(rows[step]) if j != col and v % p]
            tail_values = [rows[step][j] * inv % p for j in tail]
            targets = []
            factors = []
            for i in range(step + 1, len(rows)):
                row = rows[i]
                factor = row[col] % p
                if not factor:
                    continue
                targets.append(i)
                factors.append(factor)
                row[col] = 0
                for j, v in zip(tail, tail_values):
                    row[j] -= factor * v
            steps.append((pivot_row, inv, tuple(targets), tuple(factors)))
            upper.append((tuple(tail), tuple(tail_values)))
        return tuple(steps), tuple(upper)

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
        steps, upper = factored
        scale = self.den_lcm * pow(denom, -1, p)
        b = [0] * len(self.row_of)
        for i, coeff in entries:
            b[i] = coeff * scale % p
        for step, (pivot_row, pivot_inv, targets, factors) in enumerate(steps):
            b[step], b[pivot_row] = b[pivot_row], b[step]
            top = b[step] = b[step] * pivot_inv % p
            if top:
                for i, factor in zip(targets, factors):
                    b[i] -= factor * top
        x = [0] * len(self.order)
        for step in reversed(range(len(self.order))):
            tail, tail_values = upper[step]
            dot = sum(map(mul, tail_values, map(x.__getitem__, tail)))
            x[self.order[step]] = (b[step] - dot) % p
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
