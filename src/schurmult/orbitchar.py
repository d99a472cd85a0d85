"""Weyl-orbit characters in the u-variables and in the x-indeterminates.

An orbit character is a monomial symmetric polynomial in u1..uN (each
distinct monomial exactly once); :func:`orbit_char_u` builds it directly.
:func:`orbit_char_x` writes the same character in the x-indeterminates,
where K(Q) -> Q*x_Q sends the Q-th power sum to Q*x_Q.  Because the
product of all u's is constrained to 1, the x-variables of degree >= N
are not independent: their expressions in x1..x(N-1) are produced here by
the Newton recursion with the top elementary symmetric polynomial pinned
to 1.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import AlgebraContext, Partition, distinct_permutations
from .polyengine import UPoly, XPoly, pack_monomial, poly_dot


def orbit_char_u(p: Partition, ctx: AlgebraContext) -> UPoly:
    """Orbit character as a polynomial in u1..uN.

    Sum over the distinct permutations of the zero-padded parts of ``p``,
    each distinct monomial counted once.  Partitions with more than N
    parts have no valid placement and give zero.
    """
    n = ctx.N
    if p.length > n:
        return UPoly.zero(n)
    return UPoly(n, dict.fromkeys(distinct_permutations(p.padded(n)), 1))


_elem_cache: dict[tuple[int, int], XPoly] = {}
_psum_cache: dict[tuple[int, int], XPoly] = {}


def elementary_symmetric_x(n: int, k: int) -> XPoly:
    """Elementary symmetric polynomial of n variables, written in x1..x(n-1).

    Built by the Newton recursion from the power sums i*x_i; the top one
    is pinned to 1 (the degeneration constraint) and everything above
    vanishes.
    """
    nvars = n - 1
    if k == 0 or k == n:
        return XPoly.one(nvars)
    if k > n:
        return XPoly.zero(nvars)
    cached = _elem_cache.get((n, k))
    if cached is not None:
        return cached
    # Newton's identity k*e_k = sum (-1)**(i-1) * e_(k-i) * p_i, with p_i = i*x_i
    result = poly_dot(
        XPoly,
        nvars,
        [
            (Fraction(1 if i % 2 else -1, k), elementary_symmetric_x(n, k - i), _power_sum_x(n, i))
            for i in range(1, k + 1)
        ],
    )
    _elem_cache[(n, k)] = result
    return result


def _unit(nvars: int, i: int) -> tuple[int, ...]:
    exps = [0] * nvars
    exps[i - 1] = 1
    return tuple(exps)


def _power_sum_x(n: int, Q: int) -> XPoly:
    """Power sum of n constrained variables as a polynomial in x1..x(n-1).

    Independent degrees give Q*x_Q directly; degree zero counts the
    variables; higher degrees fall back on the Newton recursion with the
    elementary polynomials of :func:`elementary_symmetric_x`, filling the
    cache upward from the lowest missing degree so that no call recurses.
    """
    nvars = n - 1
    if Q == 0:
        return XPoly.constant(nvars, n)
    if Q < n:
        # built straight from its integer numerator: every merge step of
        # every column asks for it, too often for the validating constructor
        return XPoly._make(nvars, {pack_monomial(_unit(nvars, Q), nvars): Q})
    cached = _psum_cache.get((n, Q))
    if cached is not None:
        return cached
    start = Q
    while start > n and (n, start - 1) not in _psum_cache:
        start -= 1
    for d in range(start, Q + 1):
        _psum_cache[(n, d)] = poly_dot(
            XPoly,
            nvars,
            [
                (
                    1 if i % 2 else -1,
                    elementary_symmetric_x(n, i),
                    _psum_cache[(n, d - i)] if d - i >= n else _power_sum_x(n, d - i),
                )
                for i in range(1, n + 1)
            ],
        )
    return _psum_cache[(n, Q)]


def degenerate_x(Q: int, ctx: AlgebraContext) -> XPoly:
    """The dependent indeterminate x_Q (Q >= N) in terms of x1..x(N-1)."""
    if Q < ctx.N:
        raise ValueError(f"x_{Q} is an independent indeterminate for {ctx}")
    return _power_sum_x(ctx.N, Q) * Fraction(1, Q)


_orbit_x_cache: dict[tuple[int, tuple[int, ...]], XPoly] = {}


def orbit_char_x(p: Partition, ctx: AlgebraContext) -> XPoly:
    """Orbit character as a polynomial in the independent x-indeterminates.

    Eliminates the largest part recursively: multiplying the shorter
    character by the power sum of q1 reproduces the original (with
    multiplicity equal to the count of q1) plus characters where q1 merged
    into another part, each weighted by the merged value's multiplicity.
    Each column thus costs one product of a power sum with a smaller
    column, memoized per rank; every call recurses on strictly shorter
    partitions.  Partitions with more than N parts give zero.
    """
    n = ctx.N

    def merge(parts: tuple[int, ...]) -> XPoly:
        key = (n, parts)
        cached = _orbit_x_cache.get(key)
        if cached is not None:
            return cached
        if len(parts) == 0:
            value = XPoly.one(n - 1)
        elif len(parts) == 1:
            value = _power_sum_x(n, parts[0])
        else:
            q1 = parts[0]
            rest = parts[1:]
            r = parts.count(q1)
            products = [(1, _power_sum_x(n, q1), merge(rest))]
            for v in sorted(set(rest), reverse=True):
                i = rest.index(v)
                merged = tuple(sorted(rest[:i] + (v + q1,) + rest[i + 1 :], reverse=True))
                products.append((-merged.count(v + q1), merge(merged), None))
            if r != 1:
                products = [(Fraction(c, r), a, b) for c, a, b in products]
            value = poly_dot(XPoly, n - 1, products)
        _orbit_x_cache[key] = value
        return value

    return merge(p.parts)
