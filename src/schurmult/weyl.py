"""Alternating sums over the Weyl group, specialized to the u-indeterminates.

The Weyl character formula a_(λ+δ) = s_λ a_δ, δ = (N-1, ..., 0), is read
without division, as coefficients of alternants (Macdonald, *Symmetric
Functions and Hall Polynomials*, I §3): a_(α+δ) straightens to 0 or
±a_(μ+δ) modulo the product constraint.  Nothing here builds an alternant
of N! terms: the character, both audits and a factorization mismatch all
stay in the basis of alternants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .lattice import (
    MAX_OUTPUT_TERMS, AlgebraContext, DominantWeight, LimitError, Partition,
    check_listed_exponents, distinct_permutations, height, partitions_of,
)
from .polyengine import DEGREE_LIMIT, UPoly, pack_monomial, unpack_monomial
from .schur import generalized_schur
from .solver import SolverError, _denominator, _power_products, dimension

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

    Raises :class:`LimitError` before any work when its terms' total
    degree, height(w), reaches ``DEGREE_LIMIT``, above a dimension (a bound
    on the term count) of ``MAX_OUTPUT_TERMS``, or when that many weights
    of N exponents exceed ``MAX_OUTPUT_EXPONENTS``; raises
    :class:`SolverError` when the coefficients do not sum to the dimension.
    """
    n = w.context.N
    total = height(w)
    if total >= DEGREE_LIMIT:
        raise LimitError(
            f"the character of {w} has total degree {total}, "
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

    Each term s_α x^α of the generalized Schur function is s_α p_ρ(α) / w_α,
    and p_r a_(γ+δ) = sum_j a_(γ+δ + r e_j) (Macdonald, I §3), so
    :func:`_power_products` builds S_λ a_δ from a_δ, straightened after each
    shift: no step leaves the basis of alternants.  Degenerated Schur
    functions mix graded degrees, so the sides are compared modulo the
    product constraint.  A mismatch is reported as the coefficients of
    a_(λ+δ) - S_λ a_δ, one per partition μ of a_(μ+δ) (rendered a[μ]).
    """
    n = ctx.N
    schur = generalized_schur(p, ctx)
    alphas = [unpack_monomial(key, n - 1) for key in schur.num]
    scale = lcm(*map(_denominator, alphas))
    den = scale * schur.den
    diff = _straighten([(p.padded(n), den)], {})  # refuses more than N parts

    def shift(r, mu):
        shifted = _straighten(((mu[:j] + (mu[j] + r,) + mu[j + 1 :], 1) for j in range(n)), {})
        return [(nu, c) for nu, c in shifted.items() if c]

    expanded, number, _ = _power_products(alphas, (0,) * n, shift)
    basis = list(number)
    for alpha, s in zip(alphas, schur.num.values()):
        factor = s * (scale // _denominator(alpha))
        for b, c in expanded[alpha].items():
            diff[basis[b]] = diff.get(basis[b], 0) - factor * c
    wrong = sorted(((mu, c) for mu, c in diff.items() if c), reverse=True)
    difference = {Partition(mu[: mu.index(0)]): Fraction(c, den) for mu, c in wrong}
    return FactorizationReport(p, ctx, difference)
