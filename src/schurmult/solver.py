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
from math import lcm

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


# The one modulus of the modular factorization, the Mersenne prime 2**61 - 1.
MODULUS = (1 << 61) - 1


class HeightClassSystem:
    """Orbit-character system of one height class, factored once.

    The unknowns are the orbit multiplicities of ``members``; there is one
    row per monomial of the column support, in descending graded-lex
    order.  Construction factors the rows modulo :data:`MODULUS`, with
    pivot columns visited largest-support first, and keeps every step's
    ``(pivot row, pivot inverse, target rows, factors)`` plus the nonzero
    tail of each normalized pivot row.  :meth:`solve` replays those steps
    on a right-hand side, lifts the solution to the symmetric range and
    certifies it exactly in integers against the columns: the nonzero
    pivots mean the rational system has a unique solution, so an integer
    vector that satisfies every equation is that solution.

    If a column denominator or a pivot vanishes modulo the modulus,
    ``steps`` and ``upper`` are ``None``.  Every solve the modular route
    cannot certify, those included, is answered by
    :func:`_fraction_free_solve`.  The object is never mutated after
    construction, so one instance is shared by every solve of the class,
    across threads too.
    """

    def __init__(self, members: Sequence[DominantWeight], columns: Sequence[XPoly]):
        self.members = tuple(members)
        self.columns = tuple(columns)
        support: set[int] = set()
        for col in columns:
            support.update(col.num)
        # packed monomials sort in graded-lex order as ints
        monomials = sorted(support, reverse=True)
        self.row_of = {mono: i for i, mono in enumerate(monomials)}
        self.order = tuple(sorted(range(len(columns)), key=lambda c: (-len(columns[c].num), c)))
        # the certificate compares every equation over L, the lcm of the
        # column denominators, so column j is scaled by L / den_j; its
        # numerators are read in the order of its rows here
        self.den_lcm = lcm(*(col.den for col in columns))
        self.multipliers = tuple(self.den_lcm // col.den for col in columns)
        self.column_rows = tuple(tuple(self.row_of[mono] for mono in col.num) for col in columns)
        self.modulus = MODULUS
        self.steps, self.upper = self._factor_modular() or (None, None)

    def _factor_modular(self) -> tuple[tuple, tuple] | None:
        """Steps and pivot-row tails modulo the modulus; ``None`` when a
        column denominator or a pivot vanishes modulo it."""
        p = self.modulus
        rows = [[0] * len(self.columns) for _ in self.row_of]
        for j, col in enumerate(self.columns):
            if col.den % p == 0:
                return None
            inv = pow(col.den, -1, p)
            for mono, c in col.num.items():
                rows[self.row_of[mono]][j] = c * inv % p
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

    def solve(self, rhs: XPoly) -> list[int] | list[Fraction]:
        """Unique exact solution for the right-hand side ``rhs``.

        A certified solution is a list of ints; the fraction-free fallback
        returns ``Fraction``s, which may be non-integral.  Raises
        :class:`SolverError` when ``rhs`` is outside the column span
        (inconsistent system) or the system is singular.
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
        if self.steps is not None and rhs.den % self.modulus:
            x = self._solve_modular(entries, rhs.den)
            if self._certifies(x, entries, rhs.den):
                return x
        # no modular factorization, the modulus divides the rhs denominator,
        # or the lift is not the solution (it is non-integral, too large, or
        # there is none)
        return _fraction_free_solve(self.row_of, self.columns, self.order, entries, rhs.den)

    def _solve_modular(self, entries, denom: int) -> list[int]:
        """Solution modulo the modulus, lifted to the symmetric range."""
        p = self.modulus
        inv = pow(denom, -1, p)
        b = [0] * len(self.row_of)
        for i, coeff in entries:
            b[i] = coeff * inv % p
        for step, (pivot_row, pivot_inv, targets, factors) in enumerate(self.steps):
            b[step], b[pivot_row] = b[pivot_row], b[step]
            top = b[step] = b[step] * pivot_inv % p
            if top:
                for i, factor in zip(targets, factors):
                    b[i] -= factor * top
        x = [0] * len(self.order)
        for step in reversed(range(len(self.order))):
            tail, tail_values = self.upper[step]
            x[self.order[step]] = (b[step] - sum(v * x[j] for j, v in zip(tail, tail_values))) % p
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


def _fraction_free_solve(row_of, columns, order, entries, denom: int) -> list[Fraction]:
    """Exact solution by fraction-free (Bareiss) elimination.

    The rows of the ``columns`` and, as a last entry, the right-hand side
    (``(row, numerator)`` pairs in ``entries`` over the common denominator
    ``denom``) are scaled by the lcm of the column denominators to
    integers, and the pivot columns are eliminated in ``order``.  Pivots
    grow to hundreds of bits, so this answers only the solves that the
    modular route of :class:`HeightClassSystem` cannot certify.

    Raises :class:`SolverError` when a pivot is missing (singular system)
    or a residual equation is nonzero (inconsistent system).
    """
    n = len(columns)
    scale = lcm(*(col.den for col in columns))
    rows = [[0] * (n + 1) for _ in row_of]
    for j, col in enumerate(columns):
        mult = scale // col.den
        for mono, c in col.num.items():
            rows[row_of[mono]][j] = c * mult
    # the rhs denominator is common to the whole augmented column, so the
    # scaled system is solved for denom times the unknowns
    for i, coeff in entries:
        rows[i][n] = coeff * scale

    prev = 1
    for step, col in enumerate(order):
        pivot_row = next((i for i in range(step, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            raise SolverError(f"no pivot for unknown {col}: system is singular")
        rows[step], rows[pivot_row] = rows[pivot_row], rows[step]
        top = rows[step]
        pivot = top[col]
        for i in range(step + 1, len(rows)):
            factor = rows[i][col]
            new_row = []
            for a, b in zip(rows[i], top):
                value, rem = divmod(pivot * a - factor * b, prev)
                if rem:
                    raise SolverError("fraction-free elimination lost exactness")
                new_row.append(value)
            rows[i] = new_row
        prev = pivot
    if any(row[n] for row in rows[n:]):
        raise SolverError("system is inconsistent: residual equation is nonzero")

    # the last pivot is the determinant of the eliminated square system,
    # so by Cramer's rule it times each unknown is an integer
    det = prev
    scaled = [0] * n
    for step in reversed(range(n)):
        col = order[step]
        row = rows[step]
        acc = det * row[n] - sum(row[c] * scaled[c] for c in order[step + 1 :])
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
    rhs = generalized_schur(w.to_partition(), ctx)
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
