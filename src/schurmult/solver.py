"""Multiplicity solving: expand the generalized Schur function in the orbit
characters by a change of basis.

With e_N = 1 the x-indeterminates x_i = p_i / i are independent, and each
x-monomial x^α is p_ρ(α) / w_α, where ρ(α) has α_i parts equal to i and
w_α = prod(i ** α_i).  In N variables p_r m_μ is a sum of c m_ν: each ν
adds r to one distinct part of μ, or appends r when μ has fewer than N
parts, and c counts the part so formed in ν; modulo e_N = 1 an m_ν of N
parts is m_(ν - ν_N) (Macdonald, *Symmetric Functions and Hall
Polynomials*, I §6).  So the multiplicity of the orbit of ν is
K_ν = sum_α s_α [m_ν] p_ρ(α) / w_α over the terms s_α x^α of the
generalized Schur function, read off with no elimination.  The solution
must be integral and nonnegative; anything else signals a bug in the
degeneration machinery and fails loudly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, lcm, prod
from operator import mul

from .lattice import (
    AlgebraContext,
    DominantWeight,
    height,
    orbit_size,
    sub_Q_lambda1,
)
from .polyengine import XPoly, pack_monomial, unpack_monomial
from .schur import generalized_schur


class SolverError(RuntimeError):
    """Inconsistent or non-integral multiplicity system."""


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


# Height-class systems kept at once; each holds one integer per nonzero of
# its monomial -> orbit matrix (610 for the 40 rows of A7 at height 10), so
# the bound caps the memory a long-lived process spends.
SYSTEM_CACHE_SIZE = 16


def _times_power_sum(n: int, r: int, mu: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (ν, c) of p_r m_μ = sum(c m_ν) in n variables modulo e_n = 1.

    Each ν adds r to one distinct part of μ, or to a zero part when μ has
    fewer than n parts; the part so formed moves up to its sorted place,
    past the smaller parts before it.  It exceeds every part after it, so
    c, its count in ν, is one more than its count in μ.  A ν of n parts is
    replaced by ν - ν_n, its zeros dropped.
    """
    length = len(mu)
    pairs = []
    previous = None
    for i in range(length + (length < n)):
        part = mu[i] if i < length else 0
        if part == previous:
            continue
        previous = part
        formed = part + r
        j = i
        while j and mu[j - 1] < formed:
            j -= 1
        nu = mu[:j] + (formed,) + mu[j:i] + mu[i + 1 :]
        if len(nu) == n:
            low = nu[-1]
            nu = tuple(q - low for q in nu if q > low)
        pairs.append((nu, mu.count(formed) + 1))
    return pairs


def _power_products(alphas, start, times):
    """p_ρ(α) ``start`` for each α of ``alphas`` in the basis ``times`` acts
    on: ``times(r, b)`` gives the pairs (b', c) of p_r b = sum(c b').

    Each p_ρ(α) comes from α less its largest part (a unit off its last
    nonzero entry), one power sum at a time, with no recursion (A1 at
    height 1998 is a chain 1998 deep).  Basis elements are numbered as
    they are met, so the memos of the pairs per (r, b) hash ints.
    Returns ``expanded`` ({b's number: coefficient} for each α met),
    ``number`` ({b: its number}, ``start`` 0, in the order met) and the
    memos: a caller that builds tuples from ``expanded`` keeps them until
    done, or its tuples reuse their freed blocks, scattered (warm solves
    over class rows built so ran 10-15 % slower).
    """
    number = {start: 0}
    basis = [start]
    expanded = {(0,) * len(alphas[0]): {0: 1}}
    memos = {}  # r -> {b's number: pairs of p_r b, b' numbered}
    for alpha in alphas:
        # peel largest parts down to an expanded α, then expand back up
        peeled = []
        while alpha not in expanded:
            r = len(alpha) - next(i for i, a in enumerate(reversed(alpha)) if a)
            parent = alpha[: r - 1] + (alpha[r - 1] - 1,) + alpha[r:]
            peeled.append((alpha, r, parent))
            alpha = parent
        for alpha, r, parent in reversed(peeled):
            memo = memos.setdefault(r, {})
            out = {}
            for b, c in expanded[parent].items():
                pairs = memo.get(b)
                if pairs is None:
                    pairs = memo[b] = []
                    for image, count in times(r, basis[b]):
                        if image not in number:
                            number[image] = len(basis)
                            basis.append(image)
                        pairs.append((number[image], count))
                for image, count in pairs:
                    out[image] = out.get(image, 0) + c * count
            expanded[alpha] = out
    return expanded, number, memos


def _denominator(alpha: Sequence[int]) -> int:
    """w_α = prod(i ** α_i), the denominator of x^α = p_ρ(α) / w_α."""
    return prod(i**a for i, a in enumerate(alpha, 1))


class HeightClassSystem:
    """Monomial -> orbit matrix of one height class, built once.

    The unknowns are the orbit multiplicities of ``members``.  The rows
    are the members' own coordinates read as x-exponents: the conjugate of
    a member's partition has ``coords[i]`` parts equal to i + 1, so the
    row α = ``coords`` has the x-weight of the member, and the x-monomials
    of the class are exactly the members' (the matrix is square).
    ``rows`` maps each packed row monomial x^α to its pairs
    ``(member index, c L / w_α)``, c = [m_ν] p_ρ(α) for the member's
    partition ν, scaled to integers by ``scale``, L = lcm w_α.  The
    p_ρ(α) are built by :func:`_power_products` in the m-basis.
    :meth:`solve` is one pass over the generalized Schur function's terms
    and an exact division by L ``rhs.den``.

    The class also keeps what a table needs from its members: ``position``
    maps each member to its unknown, and ``orbit_sizes`` holds their orbit
    sizes, so a warm solve only sums and divides.  The object is never
    mutated after construction, so one instance is shared by every solve
    of the class, across threads too.
    """

    def __init__(self, members: Sequence[DominantWeight]):
        self.members = tuple(members)
        self.position = {member: i for i, member in enumerate(self.members)}
        self.orbit_sizes = tuple(map(orbit_size, self.members))
        n = self.members[0].context.N
        alphas = [member.coords for member in self.members]
        # the memos stay alive until the rows are built: see _power_products
        expanded, number, memos = _power_products(alphas, (), partial(_times_power_sum, n))
        w_alpha = list(map(_denominator, alphas))
        self.scale = lcm(*w_alpha)
        column = {number[member.to_partition().parts]: j for j, member in enumerate(self.members)}
        self.rows = {}
        for alpha, w in zip(alphas, w_alpha):
            factor = self.scale // w
            self.rows[pack_monomial(alpha, n - 1)] = tuple(
                (column[nu], c * factor) for nu, c in expanded[alpha].items()
            )

    def solve(self, rhs: XPoly) -> list[int]:
        """The multiplicities that expand ``rhs`` in the members' orbit characters.

        Raises :class:`SolverError` when ``rhs`` has a monomial outside the
        class rows (the system is inconsistent) or when a multiplicity is
        not an integer.
        """
        acc = [0] * len(self.members)
        rows = self.rows
        for mono, coeff in rhs.num.items():
            row = rows.get(mono)
            if row is None:
                raise SolverError(
                    f"system is inconsistent: rhs monomial {unpack_monomial(mono, rhs.nvars)} "
                    "lies outside the class rows"
                )
            for j, value in row:
                acc[j] += coeff * value
        denom = self.scale * rhs.den
        solution = []
        for j, total in enumerate(acc):
            mult, rem = divmod(total, denom)
            if rem:
                raise SolverError(
                    f"system is not integral: the multiplicity of {self.members[j]} "
                    f"solves to {Fraction(total, denom)}"
                )
            solution.append(mult)
        return solution


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def height_class_system(N: int, Q: int) -> HeightClassSystem:
    """The monomial -> orbit matrix of the height-``Q`` class of the rank-``N`` algebra."""
    return HeightClassSystem(sub_Q_lambda1(Q, AlgebraContext(N)))


def solve_multiplicities(w: DominantWeight) -> MultiplicityTable:
    """Expand the generalized Schur function in the orbit characters.

    The matrix of the height class is built once per (N, Q) and shared
    by every highest weight of the class, with its members' positions
    and orbit sizes.  Asserts that the solution is integral and
    nonnegative, that the highest weight itself carries multiplicity
    one, and that the orbit sizes weighted by the multiplicities sum to
    the dimension of :func:`dimension`.
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
    """Dimension by the exact product formula over positive root pairs.

    With l_i = μ_i + N - 1 - i, the pairs i < j contribute
    (l_i - l_j) / (j - i).  A pair of equal entries contributes 1 and is
    skipped.  The pairs of row i of the partition (k rows) with the N - k
    zero entries telescope to comb(μ_i + N - 1 - i, μ_i) /
    comb(μ_i + k - 1 - i, μ_i), so the work is one factor per pair of
    unequal rows plus binomials of at most min(μ_i, N) factors each,
    not O(N^2).
    """
    n = w.context.N
    parts = w.to_partition().parts
    k = len(parts)
    num = 1
    den = 1
    for i, part in enumerate(parts):
        num *= comb(part + n - 1 - i, part)
        den *= comb(part + k - 1 - i, part)
        for j in range(i + 1, k):
            if parts[j] != part:
                num *= part - parts[j] + j - i
                den *= j - i
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"dimension formula gave non-integer {num}/{den} for {w}")
    return value
