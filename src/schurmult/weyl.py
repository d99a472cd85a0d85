"""Alternating sums over the Weyl group, specialized to the u-indeterminates.

The Weyl character formula a_(λ+δ) = s_λ a_δ, δ = (N-1, ..., 0), is read
without division, as coefficients of alternants (Macdonald, *Symmetric
Functions and Hall Polynomials*, I §3): a_(α+δ) straightens to 0 or
±a_(μ+δ) modulo the product constraint.  Nothing here builds an alternant
of N! terms: the character, both audits and a factorization mismatch all
stay in the basis of alternants.  Straightening sorts nothing: each entry
of α + δ is inserted once among entries in order, the sign is the parity
of the entries it passes, and an alternant is dropped when two meet.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, partial

from .lattice import (
    MAX_OUTPUT_TERMS, AlgebraContext, DominantWeight, LimitError, Partition, _Record,
    check_listed_exponents, distinct_permutations, height, partitions_of,
)
from .polyengine import DEGREE_LIMIT, UPoly, pack_monomial, unpack_monomial
from .schur import generalized_schur
from .solver import SolverError, _fold, dimension

# Straightened orbits kept by :func:`_straightened_orbit`, one per canonical
# exponent vector: every μ that one target reaches lies in its height
# class, so a class at the bound lattice.MAX_CLASS_MEMBERS fits whole.
ORBIT_CACHE_SIZE = 1024


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
    target of a height class that reaches μ reuses it.

    Each entry of α + δ is inserted once, without recursion, into the
    ascending entries placed before it: a value whose entry is taken is
    skipped, the sign counts the entries each one lands above, and the
    entries of a completed α give ν."""
    n = len(mu)
    values = sorted(set(mu), reverse=True)
    left = [mu.count(v) for v in values]
    taken, at, choice, signs = [], [0] * n, [-1] * n, [1] * (n + 1)
    by_entries = {}
    i = 0
    while i >= 0:
        if choice[i] >= 0:
            left[choice[i]] += 1
            del taken[at[i]]
        for c in range(choice[i] + 1, len(values)):
            g = values[c] + n - 1 - i
            k = bisect_left(taken, g)
            if left[c] and (k == len(taken) or taken[k] != g):
                break
        else:
            choice[i] = -1
            i -= 1
            continue
        choice[i], at[i] = c, k
        left[c] -= 1
        taken.insert(k, g)
        signs[i + 1] = -signs[i] if k & 1 else signs[i]
        if i + 1 < n:
            i += 1
        else:
            key = tuple(taken)
            by_entries[key] = by_entries.get(key, 0) + signs[n]
    return tuple(
        (tuple(e[t] - e[0] - t for t in reversed(range(n))), k) for e, k in by_entries.items() if k
    )


class FactorizationReport(_Record):
    """Outcome of one alternant-factorization audit.

    ``difference`` maps each partition μ to its nonzero coefficient of
    a_(μ+δ) in a_(λ+δ) - S_λ a_δ, modulo the product constraint, in
    descending lexicographic order of μ; it is empty when the audit passes.
    """

    __slots__ = ("partition", "context", "difference")

    def __init__(
        self, partition: Partition, context: AlgebraContext, difference: dict[Partition, Fraction]
    ):
        self._set(partition, context, difference)

    @property
    def ok(self) -> bool:
        return not self.difference

    def __str__(self) -> str:
        terms = " + ".join(f"{c} a[{mu}]" for mu, c in self.difference.items())
        status = "ok" if self.ok else f"MISMATCH: {terms.replace('+ -', '- ')}"
        return f"{self.context} {self.partition}: {status}"


def _shift(n: int, r: int, mu: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The pairs (ν, ±1) of p_r a_(μ+δ) = sum_j a_(μ+δ + r e_j), straightened:
    entry j of the strictly decreasing γ = μ + δ raised by r passes the k
    entries it now exceeds, 0 on a tie, else (-1) ** k."""
    gamma = [m + n - 1 - t for t, m in enumerate(mu)]
    pairs = []
    for j in range(n):
        raised = gamma[j] + r
        i = j
        while i and gamma[i - 1] < raised:
            i -= 1
        if i and gamma[i - 1] == raised:
            continue
        entries = gamma[:i] + [raised] + gamma[i:j] + gamma[j + 1 :]
        nu = tuple(g - entries[-1] - (n - 1 - t) for t, g in enumerate(entries))
        pairs.append((nu, -1 if (j - i) & 1 else 1))
    return pairs


def verify_factorization(p: Partition, ctx: AlgebraContext) -> FactorizationReport:
    """Check that the shifted alternant equals Vandermonde times the Schur function.

    Each term s_α x^α of the generalized Schur function is s_α p_ρ(α) / w_α,
    and p_r a_(γ+δ) = sum_j a_(γ+δ + r e_j) (Macdonald, I §3), so the
    solver's fold over the peel, :func:`_fold`, builds S_λ a_δ from a_δ,
    straightened after each shift: no step leaves the basis of alternants.
    Degenerated Schur functions mix graded degrees, so the sides are
    compared modulo the product constraint.  A mismatch is reported as the
    coefficients of a_(λ+δ) - S_λ a_δ, one per partition μ of a_(μ+δ)
    (rendered a[μ]).
    """
    n = ctx.N
    schur = generalized_schur(p, ctx)
    alphas = [unpack_monomial(key, n - 1) for key in schur.num]
    q = p.padded(n)  # refuses more than N parts
    product, scale = _fold(alphas, schur.num.values(), (0,) * n, partial(_shift, n))
    den = scale * schur.den
    diff = {tuple(e - q[-1] for e in q): den}
    for mu, c in product.items():
        diff[mu] = diff.get(mu, 0) - c
    wrong = sorted(((mu, c) for mu, c in diff.items() if c), reverse=True)
    difference = {Partition(mu[: mu.index(0)]): Fraction(c, den) for mu, c in wrong}
    return FactorizationReport(p, ctx, difference)
