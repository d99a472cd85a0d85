"""Alternating sums over the Weyl group, specialized to the u-indeterminates.

The Weyl character formula a_(λ+δ) = s_λ a_δ, δ = (N-1, ..., 0), is read
without division, as coefficients of alternants (Macdonald, *Symmetric
Functions and Hall Polynomials*, I §3): for a symmetric S = sum(s_α u^α),
S a_δ = sum(s_α a_(α+δ)), and a_(α+δ) straightens to 0 or ±a_(μ+δ) modulo
the product constraint.  Nothing here builds an alternant of N! terms:
the character, both audits and a factorization mismatch all stay in the
basis of alternants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    MAX_OUTPUT_TERMS, AlgebraContext, DominantWeight, LimitError, Partition,
    check_listed_exponents, distinct_permutations, height, partitions_of,
)
from .orbitchar import orbit_char_u
from .polyengine import DEGREE_LIMIT, UPoly, pack_monomial, unpack_monomial
from .schur import generalized_schur
from .solver import SolverError, dimension

# Straightened orbits kept by :func:`_straightened_orbit`, one per canonical
# exponent vector: every μ that one target reaches lies in its height
# class, so a class at the bound lattice.MAX_CLASS_MEMBERS fits whole.
ORBIT_CACHE_SIZE = 1024


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


def weyl_character_u(w: DominantWeight) -> UPoly:
    """Irreducible character: each μ of :func:`alternant_multiplicities`, its
    full columns restored ((height(w) - |μ|) / N in every entry), with its
    multiplicity at every distinct permutation.

    Raises :class:`LimitError` before any work at an alternant degree of
    ``DEGREE_LIMIT``, above a dimension (a bound on the term count) of
    ``MAX_OUTPUT_TERMS``, or when that many weights of N exponents exceed
    ``MAX_OUTPUT_EXPONENTS``; raises :class:`SolverError` when the
    coefficients do not sum to the dimension.
    """
    n = w.context.N
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
    check_listed_exponents(f"the character of {w}", size, n)
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
            for nu, c in _straightened_orbit(mu):
                residual[nu] = residual.get(nu, 0) - k * c
    return found


@lru_cache(maxsize=ORBIT_CACHE_SIZE)
def _straightened_orbit(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """m_μ a_δ, the sum of a_(α+δ) over the orbit of μ, straightened: its
    (ν, coefficient of a_(ν+δ)) pairs.  It depends on μ alone, so every
    target of a height class that reaches μ reuses it."""
    straightened = _straighten(((alpha, 1) for alpha in distinct_permutations(mu)), {})
    return tuple((nu, c) for nu, c in straightened.items() if c)


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of one alternant-factorization audit.

    ``difference`` maps each partition μ to its nonzero coefficient of
    a_(μ+δ) in a_(λ+δ) - S_λ a_δ, modulo the product constraint, in
    descending lexicographic order of μ; it is empty when the audit passes.
    """

    partition: Partition
    context: AlgebraContext
    difference: dict[Partition, Fraction]

    @property
    def ok(self) -> bool:
        return not self.difference

    def __str__(self) -> str:
        terms = " + ".join(f"{c} a[{mu}]" for mu, c in self.difference.items())
        status = "ok" if self.ok else f"MISMATCH: {terms.replace('+ -', '- ')}"
        return f"{self.context} {self.partition}: {status}"


def verify_factorization(p: Partition, ctx: AlgebraContext) -> FactorizationReport:
    """Check that the shifted alternant equals Vandermonde times the Schur function.

    The generalized Schur function is pushed into the u-ring by replacing
    each x_i with the i-th power sum over i.  Degenerated Schur functions
    mix graded degrees, so the sides are compared modulo the product
    constraint, as coefficients of alternants.  A mismatch is reported as
    those coefficients, one per partition μ of a_(μ+δ) (rendered a[μ]), so
    no alternant is expanded at any rank.
    """
    n = ctx.N
    power_sums = [orbit_char_u(Partition((k,)), ctx) * Fraction(1, k) for k in range(1, n)]
    schur = generalized_schur(p, ctx).substitute(power_sums)
    # S_λ(u) is a polynomial in power sums, so it is symmetric, and that
    # makes the sum of s_α a_(α+δ) over its terms s_α u^α equal to S_λ(u) a_δ.
    terms = [(unpack_monomial(key, n), -c) for key, c in schur.num.items()]
    diff = _straighten([(p.padded(n), schur.den)] + terms, {})
    wrong = sorted(((mu, c) for mu, c in diff.items() if c), reverse=True)
    difference = {Partition(mu[: mu.index(0)]): Fraction(c, schur.den) for mu, c in wrong}
    return FactorizationReport(p, ctx, difference)
