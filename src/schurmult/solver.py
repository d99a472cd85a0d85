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
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .lattice import (
    AlgebraContext,
    DominantWeight,
    height,
    orbit_size,
    sub_Q_lambda1,
)
from .orbitchar import orbit_char_x
from .polyengine import XPoly, _grlex_key
from .schur import generalized_schur, schur_context


class SolverError(RuntimeError):
    """Singular, inconsistent, or non-integral multiplicity system."""


@dataclass(frozen=True)
class MultiplicityTable:
    """Orbit multiplicities of one irreducible representation.

    ``entries`` pairs each dominant weight of the height class with its
    multiplicity, in the deterministic enumeration order.
    """

    highest_weight: DominantWeight
    entries: tuple[tuple[DominantWeight, int], ...]
    dimension: int

    def multiplicity(self, w: DominantWeight) -> int:
        for weight, mult in self.entries:
            if weight == w:
                return mult
        raise KeyError(f"{w} is not in the height class of {self.highest_weight}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# Height-class systems kept at once; each holds O(class size ** 2) integers,
# so the bound caps the memory a long-lived process spends on them.
SYSTEM_CACHE_SIZE = 16


class HeightClassSystem:
    """Orbit-character system of one height class, factored once.

    The unknowns are the orbit multiplicities of ``members``; there is one
    row per monomial of the column support, in descending graded-lex
    order, scaled by the lcm of its denominators to integers.
    Construction runs fraction-free elimination with pivot columns visited
    largest-support first, and keeps the eliminated rows plus every step's
    ``(pivot row, pivot, prev, factors)``; :meth:`solve` replays those
    steps on a right-hand side.  The object is never mutated after
    construction, so one instance is shared by every solve of the class,
    across threads too.

    Raises :class:`SolverError` when a pivot is missing (non-unique
    solution).
    """

    def __init__(self, members: Sequence[DominantWeight], columns: Sequence[XPoly]):
        self.members = tuple(members)
        n = len(columns)
        support: set[tuple[int, ...]] = set()
        for col in columns:
            support.update(col.num)
        monomials = sorted(support, key=_grlex_key, reverse=True)
        self.row_of = row_of = {mono: i for i, mono in enumerate(monomials)}
        # a row's scale is the lcm of its entries' denominators in lowest terms
        scales = [1] * len(monomials)
        for col in columns:
            d = col.den
            if d != 1:
                for mono, c in col.num.items():
                    i = row_of[mono]
                    scales[i] = lcm(scales[i], d // gcd(c, d))
        rows: list[list[int]] = [[0] * n for _ in monomials]
        for j, col in enumerate(columns):
            d = col.den
            for mono, c in col.num.items():
                i = row_of[mono]
                rows[i][j] = c * scales[i] // d
        self.scales = tuple(scales)

        self.order = tuple(sorted(range(n), key=lambda c: (-len(columns[c].num), c)))
        steps = []
        prev = 1
        for step, col in enumerate(self.order):
            pivot_row = next((i for i in range(step, len(rows)) if rows[i][col]), None)
            if pivot_row is None:
                raise SolverError(f"no pivot for unknown {col}: system is singular")
            rows[step], rows[pivot_row] = rows[pivot_row], rows[step]
            pivot = rows[step][col]
            factors = []
            for i in range(step + 1, len(rows)):
                # a row with a zero coefficient part stays zero; solve only
                # checks its right-hand side entry at the end
                if not any(rows[i]):
                    continue
                factor = rows[i][col]
                factors.append((i, factor))
                new_row = []
                for j in range(n):
                    value, rem = divmod(pivot * rows[i][j] - factor * rows[step][j], prev)
                    if rem:
                        raise SolverError("fraction-free elimination lost exactness")
                    new_row.append(value)
                rows[i] = new_row
            steps.append((pivot_row, pivot, prev, tuple(factors)))
            prev = pivot
        self.steps = tuple(steps)
        self.rows = tuple(tuple(row) for row in rows[:n])

    def solve(self, rhs: XPoly) -> list[Fraction]:
        """Unique exact solution for the right-hand side ``rhs``.

        Raises :class:`SolverError` when ``rhs`` is outside the column span
        (inconsistent system).
        """
        # the rhs denominator is common to the whole augmented column, so it
        # stays integral and the exactness checks of the elimination hold
        # for it as well
        denom = rhs.den
        b = [0] * len(self.scales)
        for mono, coeff in rhs.num.items():
            i = self.row_of.get(mono)
            if i is None:
                raise SolverError(
                    f"system is inconsistent: rhs monomial {mono} lies outside the column support"
                )
            b[i] = coeff * self.scales[i]

        for step, (pivot_row, pivot, prev, factors) in enumerate(self.steps):
            b[step], b[pivot_row] = b[pivot_row], b[step]
            top = b[step]
            for i, factor in factors:
                value, rem = divmod(pivot * b[i] - factor * top, prev)
                if rem:
                    raise SolverError("fraction-free elimination lost exactness")
                b[i] = value

        n = len(self.order)
        if any(b[n:]):
            raise SolverError("system is inconsistent: residual equation is nonzero")

        # the last pivot is the determinant of the eliminated square system,
        # so by Cramer's rule it times each unknown is an integer
        det = self.steps[-1][1]
        scaled = [0] * n
        for step in reversed(range(n)):
            col = self.order[step]
            row = self.rows[step]
            acc = det * b[step] - sum(row[c] * scaled[c] for c in self.order[step + 1 :])
            scaled[col], rem = divmod(acc, row[col])
            if rem:
                raise SolverError("fraction-free back-substitution lost exactness")
        return [Fraction(value, det * denom) for value in scaled]


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def height_class_system(N: int, Q: int) -> HeightClassSystem:
    """The factored system of the height-``Q`` class of the rank-``N`` algebra."""
    ctx = AlgebraContext(N)
    members = sub_Q_lambda1(Q, ctx)
    return HeightClassSystem(members, [orbit_char_x(m.to_partition(), ctx) for m in members])


def solve_multiplicities(w: DominantWeight) -> MultiplicityTable:
    """Solve the x-monomial linear system for all orbit multiplicities.

    The system of the height class is built and factored once per (N, Q)
    and shared by every highest weight of the class.  Asserts that the
    solution is unique, integral, and nonnegative, and that the highest
    weight itself carries multiplicity one.
    """
    ctx = w.context
    q = height(w)
    if q == 0:
        return MultiplicityTable(w, ((w, 1),), 1)

    system = height_class_system(ctx.N, q)
    rhs = generalized_schur(w.to_partition(), schur_context(ctx.N))
    solution = system.solve(rhs)

    entries = []
    dim = 0
    for member, value in zip(system.members, solution):
        if value.denominator != 1 or value < 0:
            raise SolverError(
                f"multiplicity of {member} solved to {value}; expected a nonnegative integer"
            )
        mult = int(value)
        entries.append((member, mult))
        dim += mult * orbit_size(member)
    table = MultiplicityTable(w, tuple(entries), dim)
    if table.multiplicity(w) != 1:
        raise SolverError(f"highest weight {w} solved to multiplicity {table.multiplicity(w)}")
    return table


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
