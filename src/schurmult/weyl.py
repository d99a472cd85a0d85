"""Alternating sums over the Weyl group, specialized to the u-indeterminates.

The Weyl character formula a_(λ+δ) = s_λ a_δ, δ = (N-1, ..., 0), is read
without division, as coefficients of alternants (Macdonald, *Symmetric
Functions and Hall Polynomials*, I §3): for a symmetric S = sum(s_α u^α),
S a_δ = sum(s_α a_(α+δ)), and a_(α+δ) straightens to 0 or ±a_(μ+δ) modulo
the product constraint.  The character and both audits build no N! terms;
:func:`alternant_matrix` expands an alternant only to show a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .lattice import (
    MAX_OUTPUT_TERMS, AlgebraContext, DominantWeight, LimitError, Partition,
    distinct_permutations, height, partitions_of,
)
from .orbitchar import orbit_char_u
from .polyengine import DEGREE_LIMIT, UPoly, pack_monomial, poly_dot, unpack_monomial
from .schur import generalized_schur
from .solver import SolverError, dimension

# The alternant has N! terms; 8 rows is 40320 of them.
ALTERNANT_MAX_ROWS = 8


def check_alternant_rows(n: int) -> None:
    """Refuse an alternant of more than :data:`ALTERNANT_MAX_ROWS` rows."""
    if n > ALTERNANT_MAX_ROWS:
        try:
            terms = f"{n}! = {factorial(n)}"
        except ValueError:  # N! has more digits than int -> str converts (from N = 1559)
            terms = f"{n}!"
        raise LimitError(
            f"rank {n} needs an alternant of {terms} terms; "
            f"at most {ALTERNANT_MAX_ROWS} rows are supported"
        )


def _sign(exps) -> int:
    """(-1) ** (number of rises) of ``exps``; 0 when two entries coincide."""
    if len(set(exps)) < len(exps):
        return 0
    rises = sum(x < y for i, x in enumerate(exps) for y in exps[i + 1 :])
    return -1 if rises % 2 else 1


def _straighten(terms, out: dict) -> dict:
    """Add sum(c a_(α+δ)) over the pairs ``(α, c)`` of ``terms`` into ``out``
    by a_(α+δ) ≡ sign · a_(μ+δ) modulo the product constraint: μ is
    sort(α + δ) - δ less its full columns, a canonical exponent vector of
    fewer than N parts, and the sign is 0 when two entries of α + δ meet."""
    for alpha, c in terms:
        n = len(alpha)
        gamma = [a + n - 1 - j for j, a in enumerate(alpha)]
        sign = _sign(gamma)
        if sign:
            gamma.sort(reverse=True)
            mu = tuple(g - gamma[-1] - (n - 1 - j) for j, g in enumerate(gamma))
            out[mu] = out.get(mu, 0) + sign * c
    return out


def alternant_matrix(p: Partition, ctx: AlgebraContext) -> UPoly:
    """Alternant of the shifted weight as the signed sum over permutations.

    The term for a permutation of the shifted exponents is that exponent
    tuple with the permutation's sign.  The empty partition gives the
    Vandermonde determinant.  Factorial cost, so refused above
    ``ALTERNANT_MAX_ROWS`` rows.
    """
    n = ctx.N
    check_alternant_rows(n)
    shifted = [e + n - 1 - j for j, e in enumerate(p.padded(n))]
    return UPoly._make(n, {pack_monomial(key, n): _sign(key) for key in permutations(shifted)})


def weyl_character_u(w: DominantWeight) -> UPoly:
    """Irreducible character: each μ of :func:`alternant_multiplicities`, its
    full columns restored ((height(w) - |μ|) / N in every entry), with its
    multiplicity at every distinct permutation.

    Raises :class:`LimitError` before any work above ``ALTERNANT_MAX_ROWS``
    rows, at an alternant degree of ``DEGREE_LIMIT`` or above a dimension
    (a bound on the term count) of ``MAX_OUTPUT_TERMS``, and
    :class:`SolverError` when the coefficients do not sum to the dimension.
    """
    n = w.context.N
    check_alternant_rows(n)
    total = height(w)
    degree = total + n * (n - 1) // 2
    if degree >= DEGREE_LIMIT:
        raise LimitError(
            f"the alternant of {w} has total degree {degree}, "
            f"at or above the packed-monomial limit {DEGREE_LIMIT}"
        )
    size = dimension(w)
    if size > MAX_OUTPUT_TERMS:
        raise LimitError(
            f"the character of {w} has dimension {size}; at most {MAX_OUTPUT_TERMS} is supported"
        )
    terms = {}
    for mu, k in alternant_multiplicities(w).items():
        columns = (total - sum(mu)) // n
        for alpha in distinct_permutations(e + columns for e in mu):
            terms[pack_monomial(alpha, n)] = k
    if sum(terms.values()) != size:
        raise SolverError(
            f"the coefficients of the character of {w} sum to {sum(terms.values())}; "
            f"the product formula gives dimension {size}"
        )
    return UPoly._make(n, terms)


def alternant_multiplicities(w: DominantWeight) -> dict[tuple[int, ...], int]:
    """Nonzero multiplicities of ``w``'s representation by canonical exponent
    vector, from the Weyl character formula alone, without division.

    Solves a_(λ+δ) = sum(K_μ m_μ a_δ) top-down over the partitions μ of
    λ's height with at most N rows in descending lexicographic order,
    which refines dominance: m_μ a_δ sums a_(α+δ) over the orbit of μ, and
    each term but a_(μ+δ) straightens to a lower μ.  So K_μ is the
    coefficient of a_(μ+δ) in a_(λ+δ) less the K_ν m_ν a_δ solved so far.
    """
    n = w.context.N
    lam = w.mu_vector()
    residual, found = {lam: 1}, {}
    for parts in partitions_of(sum(lam), n, lam[0]):
        q = parts + (0,) * (n - len(parts))
        mu = tuple(e - q[-1] for e in q)
        k = residual.get(mu, 0)
        if k:
            found[mu] = k
            _straighten(((alpha, -k) for alpha in distinct_permutations(mu)), residual)
    return found


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of one alternant-factorization audit."""

    partition: Partition
    context: AlgebraContext
    ok: bool
    difference: UPoly

    def __str__(self) -> str:
        status = "ok" if self.ok else f"MISMATCH: {self.difference}"
        return f"{self.context} {self.partition}: {status}"


def verify_factorization(p: Partition, ctx: AlgebraContext) -> FactorizationReport:
    """Check that the shifted alternant equals Vandermonde times the Schur function.

    The generalized Schur function is pushed into the u-ring by replacing
    each x_i with the i-th power sum over i.  Degenerated Schur functions
    mix graded degrees, so the sides are compared modulo the product
    constraint, as coefficients of alternants.  A mismatch is reported as
    data: the difference in the product-one normal form (each monomial
    shifted down by its minimum exponent), expanded by
    :func:`alternant_matrix`, which refuses more than ``ALTERNANT_MAX_ROWS``.
    """
    n = ctx.N
    power_sums = [orbit_char_u(Partition((k,)), ctx) * Fraction(1, k) for k in range(1, n)]
    schur = generalized_schur(p, ctx).substitute(power_sums)
    # S_λ(u) is a polynomial in power sums, so it is symmetric, and that
    # makes the sum of s_α a_(α+δ) over its terms s_α u^α equal to S_λ(u) a_δ.
    terms = [(unpack_monomial(key, n), -c) for key, c in schur.num.items()]
    diff = _straighten([(p.padded(n), schur.den)] + terms, {})
    wrong = [(Fraction(c, schur.den), Partition(mu[: mu.index(0)])) for mu, c in diff.items() if c]
    difference = poly_dot(UPoly, n, [(c, alternant_matrix(q, ctx), None) for c, q in wrong])
    return FactorizationReport(p, ctx, difference.is_zero, difference)
