"""Alternating sums over the Weyl group, specialized to the u-indeterminates.

The alternant of a shifted dominant weight is built directly as its
Leibniz expansion: the signed sum over all permutations of the shifted
exponents, which are strictly decreasing, so every permutation gives its
own monomial.  The Vandermonde is never expanded: characters are the
alternant divided by the linear factors u_i - u_j one at a time, each in
one pass over the binary forms in u_i and u_j, and the factorization
audit multiplies by the same factors, all in :class:`UPoly`.  The
product constraint on the u's is never imposed here: alternants and
their quotients live in the free polynomial ring, where exact division
is available, and the constraint only enters when translating to and
from the x-indeterminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .lattice import AlgebraContext, DominantWeight, Partition
from .orbitchar import orbit_char_u
from .polyengine import UPoly, pack_monomial, poly_divide_difference, unpack_monomial
from .schur import generalized_schur

# The alternant has N! terms; 8 rows is 40320 of them.
ALTERNANT_MAX_ROWS = 8


def _shifted_exponents(p: Partition, ctx: AlgebraContext) -> tuple[int, ...]:
    """Staircase-shifted part vector; strictly decreasing for a partition."""
    q = p.padded(ctx.N)
    n = ctx.N
    return tuple(q[j] + n - 1 - j for j in range(n))


def alternant_matrix(p: Partition, ctx: AlgebraContext) -> UPoly:
    """Alternant of the shifted weight as the signed sum over permutations.

    The term for a permutation of the shifted exponents is that exponent
    tuple with the permutation's sign.  The empty partition gives the
    Vandermonde determinant.  Factorial cost, so refused above
    ``ALTERNANT_MAX_ROWS`` rows.
    """
    n = ctx.N
    if n > ALTERNANT_MAX_ROWS:
        raise ValueError(
            f"alternant of {n} rows has {n}! = {factorial(n)} terms; "
            f"at most {ALTERNANT_MAX_ROWS} rows are supported"
        )
    terms = {}
    # Exponents decrease strictly, so a rise in the permuted tuple is an
    # inversion of the permutation.
    for key in permutations(_shifted_exponents(p, ctx)):
        rises = sum(1 for a in range(n) for b in range(a + 1, n) if key[a] < key[b])
        terms[pack_monomial(key, n)] = -1 if rises % 2 else 1
    return UPoly._make(n, terms)


def _linear_factors(n: int) -> list[UPoly]:
    """The factors u_i - u_j (i < j) of the Vandermonde."""
    u = [UPoly.variable(n, i) for i in range(n)]
    return [u[i] - u[j] for i in range(n) for j in range(i + 1, n)]


def weyl_character_u(w: DominantWeight) -> UPoly:
    """Irreducible character: the alternant divided by each u_i - u_j.

    Inexact division cannot happen for a valid dominant weight; if it
    does, the alternant machinery is inconsistent and the error from the
    polynomial engine propagates.
    """
    ctx = w.context
    n = ctx.N
    quotient = alternant_matrix(w.to_partition(), ctx)
    for i in range(n):
        for j in range(i + 1, n):
            quotient = poly_divide_difference(quotient, i, j)
    return quotient


def product_one_normal_form(p):
    """Canonical representative modulo (product of all variables) = 1.

    Each monomial is shifted down by its minimum exponent; the resulting
    minimum-zero monomials are a basis of the quotient ring, so two
    polynomials are congruent iff their normal forms are equal.
    """
    n = p.nvars
    ones = pack_monomial((1,) * n, n)
    out: dict[int, int] = {}
    for key, c in p.num.items():
        low = min(unpack_monomial(key, n))
        if low:
            key -= low * ones
        out[key] = out.get(key, 0) + c
    return type(p)._make(p.nvars, {e: c for e, c in out.items() if c}, p.den)


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
    each x_i with the i-th power sum over i, then multiplied by each
    linear factor u_i - u_j of the Vandermonde.  Degenerated Schur
    functions mix graded degrees, so both sides are compared in the normal
    form of the product-one quotient, where the factorization is an
    identity.
    Failure is reported as data, with the difference polynomial attached.
    """
    n = ctx.N
    power_sums = [orbit_char_u(Partition((k,)), ctx) * Fraction(1, k) for k in range(1, n)]
    product = generalized_schur(p, ctx).substitute(power_sums)
    for factor in _linear_factors(n):
        product = product * factor
    lhs = product_one_normal_form(alternant_matrix(p, ctx))
    rhs = product_one_normal_form(product)
    difference = lhs - rhs
    return FactorizationReport(p, ctx, difference.is_zero, difference)
