"""Weyl-orbit characters in the u-variables and in the x-indeterminates.

An orbit character is a monomial symmetric polynomial in u1..uN (each
distinct monomial exactly once); :func:`orbit_char_u` builds it directly.
:func:`orbit_char_x` writes the same character in the x-indeterminates,
where K(Q) -> Q*x_Q sends the Q-th power sum to Q*x_Q.  Because the
product of all u's is constrained to 1 (e_N = 1), the x-variables of
degree >= N are not independent.  The power sums from degree N on and
the complete homogeneous functions then obey one recurrence
f_m = sum_(k=1..min(m,N)) (-1)^(k+1) e_k f_(m-k), run by one fill-upward
helper.  For 0 < k < N, e_k is the orbit column of (1^k), which the
merge recursion builds from p_1..p_k alone, so no call cycles.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .lattice import AlgebraContext, Partition, distinct_permutations
from .polyengine import UPoly, XPoly, poly_dot


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


_psum_cache: dict[tuple[int, int], XPoly] = {}


def elementary_symmetric_x(n: int, k: int) -> XPoly:
    """Elementary symmetric polynomial of n variables, written in x1..x(n-1).

    The top one is pinned to 1 (the degeneration constraint) and degrees
    outside 0..n vanish; in between, e_k is the orbit column of (1^k).
    """
    if k == 0 or k == n:
        return XPoly.one(n - 1)
    if not 0 < k < n:
        return XPoly.zero(n - 1)
    return orbit_char_x(Partition((1,) * k), AlgebraContext(n))


def _fill_upward(
    cache: dict[tuple[int, int], XPoly],
    n: int,
    m: int,
    first_terms: Callable[[int], list[XPoly]],
) -> XPoly:
    """Degree m of a sequence over x1..x(n-1) that obeys the e-recurrence.

    Past the sequence's first terms ``first_terms(n)`` (degrees 0, 1, ...),
    f_d = sum_(k=1..min(d,n)) (-1)^(k+1) e_k f_(d-k).  ``cache`` maps
    (n, d) to f_d; it is seeded with the first terms in one update, then
    filled upward from the highest cached degree, so no call recurses.
    """
    if (n, 0) not in cache:
        cache.update({(n, d): f for d, f in enumerate(first_terms(n))})
    top = m
    while (n, top) not in cache:
        top -= 1
    if top < m:
        es = [elementary_symmetric_x(n, k) for k in range(1, min(m, n) + 1)]
        for d in range(top + 1, m + 1):
            cache[(n, d)] = poly_dot(
                XPoly,
                n - 1,
                [
                    (1 if k % 2 else -1, es[k - 1], cache[(n, d - k)])
                    for k in range(1, min(d, n) + 1)
                ],
            )
    return cache[(n, m)]


def _first_power_sums(n: int) -> list[XPoly]:
    """p_0 = n, and p_i = i*x_i for the independent degrees 0 < i < n."""
    return [XPoly.constant(n - 1, n)] + [XPoly.variable(n - 1, i - 1) * i for i in range(1, n)]


def _power_sum_x(n: int, Q: int) -> XPoly:
    """Power sum of n constrained variables as a polynomial in x1..x(n-1)."""
    return _fill_upward(_psum_cache, n, Q, _first_power_sums)


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
