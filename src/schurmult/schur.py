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

from .lattice import Partition
from .orbitchar import elementary_symmetric_x
from .polyengine import XPoly, poly_det, poly_dot


class SchurContext:
    """Per-rank cache of elementary and generalized Schur functions."""

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("rank context requires N >= 2")
        self.N = N
        self._elementary: dict[int, XPoly] = {}
        self._generalized: dict[tuple[int, ...], XPoly] = {}


_contexts: dict[int, SchurContext] = {}


def schur_context(N: int) -> SchurContext:
    """Shared per-rank context (idempotent; safe to call repeatedly)."""
    ctx = _contexts.get(N)
    if ctx is None:
        ctx = _contexts.setdefault(N, SchurContext(N))
    return ctx


def elementary_schur(Q: int, ctx: SchurContext) -> XPoly:
    """Elementary Schur function of degree Q over x1..x(N-1).

    Degree 0 is 1 and negative degrees are 0.  Degrees at or above N are
    degenerated via the complete-homogeneous recursion.  The cache is
    filled upward from the lowest missing degree, so every degree from 0
    to Q ends up cached and no call recurses.
    """
    nvars = ctx.N - 1
    if Q < 0:
        return XPoly.zero(nvars)
    cache = ctx._elementary
    cached = cache.get(Q)
    if cached is not None:
        return cached
    start = Q
    while start > 0 and start - 1 not in cache:
        start -= 1
    for d in range(start, Q + 1):
        if d == 0:
            result = XPoly.one(nvars)
        elif d < ctx.N:
            products = []
            for i in range(1, d + 1):
                exps = [0] * nvars
                exps[i - 1] = 1
                products.append((Fraction(i, d), XPoly.monomial(nvars, exps), cache[d - i]))
            result = poly_dot(XPoly, nvars, products)
        else:
            result = poly_dot(
                XPoly,
                nvars,
                [
                    (1 if k % 2 else -1, elementary_symmetric_x(ctx.N, k), cache[d - k])
                    for k in range(1, ctx.N + 1)
                ],
            )
        cache[d] = result
    return cache[Q]


def star_schur(Q: int, ctx: SchurContext) -> XPoly:
    """Elementary Schur function with every variable negated."""
    return elementary_schur(Q, ctx).negate_variables()


def generalized_schur(p: Partition, ctx: SchurContext) -> XPoly:
    """Generalized Schur function: determinant with entries S_(q_i - i + j)."""
    cached = ctx._generalized.get(p.parts)
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
    ctx._generalized[p.parts] = result
    return result
