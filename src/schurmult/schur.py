"""Elementary, degenerated, and generalized Schur functions.

Below the rank bound the elementary functions are the generic exponential-
series coefficients, computed by the differentiated recurrence
Q*S_Q = sum(i * x_i * S_(Q-i)).  From degree N on they degenerate: the
complete-homogeneous Newton recursion with the top elementary symmetric
polynomial pinned to 1 expresses them in the independent x1..x(N-1).
Generalized Schur functions are determinants of the banded matrix with
entries S_(q_i - i + j).
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import AlgebraContext, Partition
from .orbitchar import elementary_symmetric_x
from .polyengine import XPoly, poly_det, poly_dot

_elementary_cache: dict[tuple[int, int], XPoly] = {}
_generalized_cache: dict[tuple[int, tuple[int, ...]], XPoly] = {}


def elementary_schur(Q: int, ctx: AlgebraContext) -> XPoly:
    """Elementary Schur function of degree Q over x1..x(N-1).

    Degree 0 is 1 and negative degrees are 0.  Degrees at or above N are
    degenerated via the complete-homogeneous recursion.  The cache is
    filled upward from the lowest missing degree, so every degree from 0
    to Q ends up cached and no call recurses.
    """
    n = ctx.N
    nvars = n - 1
    if Q < 0:
        return XPoly.zero(nvars)
    cache = _elementary_cache
    cached = cache.get((n, Q))
    if cached is not None:
        return cached
    start = Q
    while start > 0 and (n, start - 1) not in cache:
        start -= 1
    for d in range(start, Q + 1):
        if d == 0:
            result = XPoly.one(nvars)
        elif d < n:
            products = [
                (Fraction(i, d), XPoly.variable(nvars, i - 1), cache[(n, d - i)])
                for i in range(1, d + 1)
            ]
            result = poly_dot(XPoly, nvars, products)
        else:
            result = poly_dot(
                XPoly,
                nvars,
                [
                    (1 if k % 2 else -1, elementary_symmetric_x(n, k), cache[(n, d - k)])
                    for k in range(1, n + 1)
                ],
            )
        cache[(n, d)] = result
    return cache[(n, Q)]


def star_schur(Q: int, ctx: AlgebraContext) -> XPoly:
    """Elementary Schur function with every variable negated."""
    return elementary_schur(Q, ctx).negate_variables()


def generalized_schur(p: Partition, ctx: AlgebraContext) -> XPoly:
    """Generalized Schur function: determinant with entries S_(q_i - i + j)."""
    key = (ctx.N, p.parts)
    cached = _generalized_cache.get(key)
    if cached is not None:
        return cached
    k = p.length
    if k == 0:
        result = XPoly.one(ctx.N - 1)
    else:
        matrix = [
            [elementary_schur(p.parts[i] - i + j, ctx) for j in range(k)]
            for i in range(k)
        ]
        result = poly_det(matrix)
    _generalized_cache[key] = result
    return result
