"""Weyl-orbit characters in the x-indeterminates.

An orbit character is a monomial symmetric polynomial in u1..uN (each
distinct monomial once, as :func:`oracle.brute_orbit_char` lists it);
:func:`orbit_char_x` writes it in the x-indeterminates, where K(Q) ->
Q*x_Q sends the Q-th power sum to Q*x_Q.  Because the
product of all u's is constrained to 1 (e_N = 1), the x-variables of
degree >= N are not independent.  The power sums from degree N on obey
the recurrence f_m = sum_(k=1..N) (-1)^(k+1) e_k f_(m-k) that
:mod:`schur` runs for the complete homogeneous functions, with the same
helper; e_k comes from :mod:`schur`, built without any orbit
column, so the solver and the Schur stage never call :func:`orbit_char_x`.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import AlgebraContext, Partition
from .polyengine import XPoly, poly_dot
from .schur import _recurrence_degrees


_psum_cache: dict[tuple[int, int], XPoly] = {}
_psum_window: dict[int, tuple[int, tuple[XPoly, ...]]] = {}


def _power_seed(n: int, d: int, lower: list[XPoly]) -> XPoly:
    """p_d below n: p_0 = n and p_d = d x_d."""
    return XPoly.constant(n - 1, n) if d == 0 else XPoly.variable(n - 1, d - 1) * d


def _power_sum_x(n: int, Q: int) -> XPoly:
    """Power sum of n constrained variables as a polynomial in x1..x(n-1).

    Below n from :func:`_power_seed`, from n on by the e-recurrence; no
    degree above Q is built.
    """
    return _recurrence_degrees(_psum_cache, _psum_window, n, (Q,), _power_seed)[Q]


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
