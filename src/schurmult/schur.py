"""Elementary, degenerated, and generalized Schur functions.

The elementary Schur function S_Q is the degree-Q coefficient of the
exponential series exp(sum x_i t^i), that is the complete homogeneous
function h_Q.  With the top elementary symmetric polynomial pinned to 1
(H(t)E(-t) = 1), h_Q = sum_(k=1..min(Q,N)) (-1)^(k+1) e_k h_(Q-k) over
x1..x(N-1) at every degree, the same recurrence the power sums obey in
:mod:`orbitchar`; from degree N on it gives the degenerated functions.
Generalized Schur functions are determinants of the banded matrix with
entries S_(q_i - i + j).
"""

from __future__ import annotations

from .lattice import AlgebraContext, Partition, check_class_size
from .orbitchar import _fill_upward
from .polyengine import XPoly, poly_det

_elementary_cache: dict[tuple[int, int], XPoly] = {}
_generalized_cache: dict[tuple[int, tuple[int, ...]], XPoly] = {}


def elementary_schur(Q: int, ctx: AlgebraContext) -> XPoly:
    """Elementary Schur function of degree Q over x1..x(N-1).

    Degree 0 is 1 and negative degrees are 0.  Every degree from 0 to Q
    ends up cached, filled upward by the e-recurrence, so no call
    recurses.
    """
    if Q < 0:
        return XPoly.zero(ctx.N - 1)
    return _fill_upward(_elementary_cache, ctx.N, Q, lambda n: [XPoly.one(n - 1)])


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
