"""Elementary, degenerated, and generalized Schur functions.

The elementary Schur function S_Q is the degree-Q coefficient of the
exponential series exp(sum x_i t^i), that is the complete homogeneous
function h_Q.  Differentiating the series in t gives Newton's identity
Q h_Q = sum_(i=1..Q) i x_i h_(Q-i), which builds every degree below N
from the independent x1..x(N-1) alone.  For 0 < k < N the involution
omega, x_i -> (-1)^(i-1) x_i, sends h_k to the elementary symmetric
function e_k (Macdonald, *Symmetric Functions and Hall Polynomials*,
I §2).  With the top elementary symmetric polynomial pinned to 1
(H(t)E(-t) = 1), every degree from N on follows the e-recurrence
f_m = sum_(k=1..N) (-1)^(k+1) e_k f_(m-k), which gives the degenerated
functions; the power sums of :mod:`orbitchar` obey the same recurrence
and share its fill-upward helper.  Generalized Schur functions are
determinants of the banded matrix with entries S_(q_i - i + j).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .lattice import AlgebraContext, Partition, check_class_size
from .polyengine import FIELD_BITS, XPoly, poly_det, poly_dot

_elementary_cache: dict[tuple[int, int], XPoly] = {}
_generalized_cache: dict[tuple[int, tuple[int, ...]], XPoly] = {}


def elementary_symmetric_x(n: int, k: int) -> XPoly:
    """Elementary symmetric polynomial of n variables, written in x1..x(n-1).

    The top one is pinned to 1 (the degeneration constraint) and degrees
    outside 0..n vanish.  In between, e_k is the omega-twist of h_k:
    every term x^α of h_k has weighted degree k, so omega multiplies it
    by (-1)^(k - |α|), read off the total-degree field of its packed key.
    """
    if k == 0 or k == n:
        return XPoly.one(n - 1)
    if not 0 < k < n:
        return XPoly.zero(n - 1)
    h = elementary_schur(k, AlgebraContext(n))
    shift = FIELD_BITS * h.nvars
    num = {key: -c if (k - (key >> shift)) & 1 else c for key, c in h.num.items()}
    return XPoly._make(h.nvars, num, h.den)


def _fill_upward(
    cache: dict[tuple[int, int], XPoly],
    n: int,
    m: int,
    seed: Callable[[int], XPoly],
) -> XPoly:
    """Degree m of a sequence over x1..x(n-1) that obeys the e-recurrence.

    Below degree n, f_d = ``seed(d)``, which may read the cached lower
    degrees; from degree n on, f_d = sum_(k=1..n) (-1)^(k+1) e_k f_(d-k).
    ``cache`` maps (n, d) to f_d and holds every degree from 0 up to the
    highest one asked for; it is filled upward from there, so no call
    recurses and no degree above m is built.
    """
    top = m
    while top >= 0 and (n, top) not in cache:
        top -= 1
    es = None
    for d in range(top + 1, m + 1):
        if d < n:
            cache[(n, d)] = seed(d)
            continue
        if es is None:
            es = [elementary_symmetric_x(n, k) for k in range(1, n + 1)]
        cache[(n, d)] = poly_dot(
            XPoly,
            n - 1,
            [(1 if k % 2 else -1, es[k - 1], cache[(n, d - k)]) for k in range(1, n + 1)],
        )
    return cache[(n, m)]


def elementary_schur(Q: int, ctx: AlgebraContext) -> XPoly:
    """Elementary Schur function of degree Q over x1..x(N-1).

    Degree 0 is 1 and negative degrees are 0.  Every degree from 0 to Q
    ends up cached: below N by Newton's identity, from N on by the
    e-recurrence, so no call recurses.
    """
    n = ctx.N
    if Q < 0:
        return XPoly.zero(n - 1)

    def newton(d: int) -> XPoly:
        if d == 0:
            return XPoly.one(n - 1)
        products = [
            (i, XPoly.variable(n - 1, i - 1), _elementary_cache[(n, d - i)])
            for i in range(1, d + 1)
        ]
        return poly_dot(XPoly, n - 1, products).scale(Fraction(1, d))

    return _fill_upward(_elementary_cache, n, Q, newton)


def generalized_schur(p: Partition, ctx: AlgebraContext) -> XPoly:
    """Generalized Schur function: determinant with entries S_(q_i - i + j);
    ``LimitError`` when the height class of ``p``'s size is too large."""
    key = (ctx.N, p.parts)
    cached = _generalized_cache.get(key)
    if cached is not None:
        return cached
    check_class_size(p.weight, ctx)
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
