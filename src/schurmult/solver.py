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
generalized Schur function, read off with no elimination.  The first
solve of a height class folds the sum over the peel of the α by Horner's
rule, one p_r at a time, and builds no matrix; a class solved again
builds its monomial -> orbit matrix and keeps it, so later solves only
sum and divide.  The solution must be integral and nonnegative; anything
else signals a bug in the degeneration machinery and fails loudly.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from math import comb, lcm, prod
from operator import mul

from .lattice import (
    AlgebraContext,
    DominantWeight,
    _Record,
    height,
    orbit_size,
    sub_Q_lambda1,
)
from .polyengine import XPoly, pack_monomial, unpack_monomial
from .schur import generalized_schur


class SolverError(RuntimeError):
    """Inconsistent or non-integral multiplicity system."""


class MultiplicityTable(_Record):
    """Orbit multiplicities of one irreducible representation.

    ``entries`` pairs each dominant weight of the height class with its
    multiplicity, in the deterministic enumeration order, and
    ``orbit_sizes`` holds those weights' orbit sizes in the same order.
    """

    __slots__ = ("highest_weight", "entries", "dimension", "orbit_sizes")

    def __init__(
        self,
        highest_weight: DominantWeight,
        entries: tuple[tuple[DominantWeight, int], ...],
        dimension: int,
        orbit_sizes: tuple[int, ...],
    ):
        self._set(highest_weight, entries, dimension, orbit_sizes)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# Height-class systems kept at once; a class solved more than once holds one
# integer per nonzero of its monomial -> orbit matrix (610 for the 40 rows of
# A7 at height 10), so the bound caps the memory a long-lived process spends.
SYSTEM_CACHE_SIZE = 16


def _times_power_sum(n: int, r: int, mu: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (ν, c) of p_r m_μ = sum(c m_ν) in n variables modulo e_n = 1.

    Each ν adds r to one distinct part of μ, or to a zero part when μ has
    fewer than n parts; the part so formed moves up to its sorted place,
    past the smaller parts before it.  It exceeds every part after it, so
    its copies in μ sit right above that place, and the backward walk goes
    on past them: c, the formed part's count in ν, is one more than the
    copies walked past.  Only a zero part made into r can give a ν of n
    parts, which is replaced by ν - ν_n, its zeros dropped.
    """
    length = len(mu)
    pairs = []
    previous = 0
    for i, part in enumerate(mu):
        if part == previous:
            continue
        previous = part
        formed = part + r
        j = i
        while j and mu[j - 1] < formed:
            j -= 1
        k = j
        while k and mu[k - 1] == formed:
            k -= 1
        pairs.append((mu[:j] + (formed,) + mu[j:i] + mu[i + 1 :], j - k + 1))
    if length < n:
        j = length
        while j and mu[j - 1] < r:
            j -= 1
        k = j
        while k and mu[k - 1] == r:
            k -= 1
        nu = mu[:j] + (r,) + mu[j:]
        if length == n - 1:
            low = nu[-1]
            nu = tuple([q - low for q in nu if q > low])
        pairs.append((nu, j - k + 1))
    return pairs


def _peel(alphas):
    """The steps (α, r, parent) that build every α of ``alphas`` from the
    root, each α after its parent.

    An α is its parent, α less its largest part (a unit off its last
    nonzero entry r), times one power sum p_r.  Each α is peeled down to
    one met before and the steps are laid out back up, with no recursion
    (A1 at height 1998 is a chain 1998 deep).
    """
    root = (0,) * len(alphas[0])
    met = {root}
    steps = []
    for alpha in alphas:
        peeled = []
        while alpha not in met:
            r = len(alpha)
            while not alpha[r - 1]:
                r -= 1
            parent = alpha[: r - 1] + (alpha[r - 1] - 1,) + alpha[r:]
            met.add(alpha)
            peeled.append((alpha, r, parent))
            alpha = parent
        steps.extend(reversed(peeled))
    return steps


def _power_sum_action(start, times):
    """``act(r, vector, out)``, which adds p_r ``vector`` to ``out``, and
    ``number``, {b: its number}, ``start`` 0, in the order met.

    ``times(r, b)`` gives the pairs (b', c) of p_r b = sum(c b').  Vectors
    map basis elements' numbers to coefficients, so the memos of the pairs
    per (r, b) hash ints.
    """
    number = {start: 0}
    basis = [start]
    memos = {}  # r -> {b's number: pairs of p_r b, b' numbered}

    def act(r, vector, out):
        memo = memos.setdefault(r, {})
        recall = memo.get
        held = out.get
        for b, c in vector.items():
            pairs = recall(b)
            if pairs is None:
                pairs = memo[b] = []
                for image, count in times(r, basis[b]):
                    numbered = number.setdefault(image, len(basis))
                    if numbered == len(basis):
                        basis.append(image)
                    pairs.append((numbered, count))
            for image, count in pairs:
                out[image] = held(image, 0) + c * count
        return out

    return act, number


def _weights(alphas):
    """w_α = prod(i ** α_i) for each α, and L = lcm w_α."""
    w_alpha = [prod(i**a for i, a in enumerate(alpha, 1)) for alpha in alphas]
    return w_alpha, lcm(*w_alpha)


def _fold(alphas, coeffs, start, times):
    """L sum(s_α x^α) ``start`` over the α of ``alphas`` and their
    ``coeffs`` s_α, in the basis ``times`` acts on (see
    :func:`_power_sum_action`), with x^α = p_ρ(α) / w_α and L = lcm w_α.

    Horner's rule over the peel tree of :func:`_peel`: for a node β,
    G(β) = c_β ``start`` + sum over its children α of p_r G(α), with
    c_β = s_β L / w_β (0 off ``alphas``), runs children first, so G(root)
    is the sum and no p_ρ(α) is expanded alone.  Returns ({b: its
    coefficient}, L).
    """
    if not alphas:
        return {}, 1
    w_alpha, scale = _weights(alphas)
    # β -> c_β start, plus p_r G(α) for each child α of β folded so far
    folded = {alpha: {0: s * (scale // w)} for alpha, s, w in zip(alphas, coeffs, w_alpha)}
    act, number = _power_sum_action(start, times)
    for alpha, r, parent in reversed(_peel(alphas)):
        act(r, folded.pop(alpha), folded.setdefault(parent, {}))
    basis = list(number)
    return {basis[b]: c for b, c in folded[(0,) * len(alphas[0])].items()}, scale


def _power_products(alphas, start, times):
    """L x^α ``start`` for each distinct α of ``alphas``, in the basis
    ``times`` acts on (see :func:`_power_sum_action`), with
    x^α = p_ρ(α) / w_α and L = lcm w_α.

    Each α is expanded from its parent along the steps of :func:`_peel`,
    and an expansion that is no row is dropped once its last child is
    expanded.  Returns ``rows`` ({b's number: c L / w_α} for each α, in
    order), ``number`` and ``scale``, L.
    """
    steps = _peel(alphas)
    children = dict.fromkeys(alphas, 1)  # α -> its children still to expand, plus one for a row
    for _, _, parent in steps:
        children[parent] = children.get(parent, 0) + 1
    act, number = _power_sum_action(start, times)
    expanded = {(0,) * len(alphas[0]): {0: 1}}
    for alpha, r, parent in steps:
        expanded[alpha] = act(r, expanded[parent], {})
        children[parent] -= 1
        if not children[parent]:
            del expanded[parent]
    w_alpha, scale = _weights(alphas)
    rows = [expanded[alpha] for alpha in alphas]
    for row, w in zip(rows, w_alpha):
        factor = scale // w
        for b in row:
            row[b] *= factor
    return rows, number, scale


def _inconsistent(alpha: tuple[int, ...]) -> SolverError:
    return SolverError(f"system is inconsistent: rhs monomial {alpha} lies outside the class rows")


class HeightClassSystem:
    """The multiplicity system of one height class.

    The unknowns are the orbit multiplicities of ``members``.  The rows
    are the members' own coordinates read as x-exponents: the conjugate of
    a member's partition has ``coords[i]`` parts equal to i + 1, so the
    row α = ``coords`` has the x-weight of the member, and the x-monomials
    of the class are exactly the members' (the matrix is square).  Row α
    holds c = [m_ν] p_ρ(α) / w_α for each member's partition ν.

    The first :meth:`solve` of the class folds the right-hand side over
    the peel (:func:`_fold`) and builds no row.  Any later solve reads
    the rows off :meth:`matrix`, built then and kept, so a class solved
    again only sums and divides.  The class also keeps what a table
    needs from its members: ``position`` maps each member to its unknown,
    ``orbit_sizes`` holds their orbit sizes and ``partitions`` the parts
    of their partitions, which name the columns of the fold and the matrix.

    One instance is shared by every solve of the class, across threads
    too.  ``members``, ``position``, ``orbit_sizes`` and ``partitions`` are
    never mutated; the matrix is published as one ``(rows, scale)`` value,
    and threads that race to the first solves fold or build the same
    values.
    """

    def __init__(self, members: Sequence[DominantWeight]):
        self.members = tuple(members)
        self.position = {member: i for i, member in enumerate(self.members)}
        self.orbit_sizes = tuple(map(orbit_size, self.members))
        # a member's partition, its canonical exponent vector less the zeros,
        # is the nonzero suffix sums of its coordinates
        self.partitions = tuple(
            tuple(filter(None, accumulate(reversed(member.coords))))[::-1]
            for member in self.members
        )
        self._folded = False  # whether a solve has folded already
        self._matrix = None

    def matrix(self) -> tuple[dict[int, tuple[tuple[int, int], ...]], int]:
        """The monomial -> orbit matrix as ``(rows, scale)``, built at the
        first call and kept.

        ``rows`` maps each packed row monomial x^α to its pairs
        ``(member index, c L / w_α)``, scaled to integers by ``scale``,
        L = lcm w_α.  :func:`_power_products` builds these scaled rows and
        L in the m-basis; the class only numbers their columns by member.
        """
        matrix = self._matrix
        if matrix is None:
            n = self.members[0].context.N
            alphas = [member.coords for member in self.members]
            rows, number, scale = _power_products(alphas, (), partial(_times_power_sum, n))
            column = {number[parts]: j for j, parts in enumerate(self.partitions)}
            rows = {
                pack_monomial(alpha, n - 1): tuple((column[b], c) for b, c in row.items())
                for alpha, row in zip(alphas, rows)
            }
            matrix = self._matrix = (rows, scale)
        return matrix

    def solve(self, rhs: XPoly) -> list[int]:
        """The multiplicities that expand ``rhs`` in the members' orbit characters.

        Raises :class:`SolverError` when ``rhs`` has a monomial outside the
        class rows (the system is inconsistent) or when a multiplicity is
        not an integer.
        """
        if self._matrix is None and not self._folded:
            self._folded = True
            acc, scale = self._by_fold(rhs)
        else:
            rows, scale = self.matrix()
            acc = [0] * len(self.members)
            for mono, coeff in rhs.num.items():
                row = rows.get(mono)
                if row is None:
                    raise _inconsistent(unpack_monomial(mono, rhs.nvars))
                for j, value in row:
                    acc[j] += coeff * value
        denom = scale * rhs.den
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

    def _by_fold(self, rhs: XPoly) -> tuple[list[int], int]:
        """L times the solution, by :func:`_fold`, and L."""
        coords = {member.coords for member in self.members}
        alphas = [unpack_monomial(mono, rhs.nvars) for mono in rhs.num]
        for alpha in alphas:
            if alpha not in coords:
                raise _inconsistent(alpha)
        n = self.members[0].context.N
        total, scale = _fold(alphas, rhs.num.values(), (), partial(_times_power_sum, n))
        return [total.get(parts, 0) for parts in self.partitions], scale


@lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def height_class_system(N: int, Q: int) -> HeightClassSystem:
    """The multiplicity system of the height-``Q`` class of the rank-``N`` algebra."""
    return HeightClassSystem(sub_Q_lambda1(Q, AlgebraContext(N)))


def solve_multiplicities(w: DominantWeight) -> MultiplicityTable:
    """Expand the generalized Schur function in the orbit characters.

    The system of the height class is built once per (N, Q) and shared
    by every highest weight of the class, with its members' positions
    and orbit sizes; the first table of a class folds, and the matrix
    is built when the class is solved again.  Asserts that the solution is integral and
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
