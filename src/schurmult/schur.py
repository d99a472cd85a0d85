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
and share its helper, which keeps the degrees below N, the degrees asked
for and a window of the last N degrees, not every degree.  Generalized
Schur functions are determinants of the banded matrix with entries
S_(q_i - i + j) (Jacobi-Trudi), or, for a shape with more rows than
columns, of the smaller matrix with entries e_(q'_i - i + j) over the
conjugate partition q' (its dual form, Macdonald I (3.5)): e_k needs only
the seeds below N, since e_N = 1 and e_k = 0 above N.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction

from .lattice import AlgebraContext, Partition, check_class_size
from .polyengine import FIELD_BITS, XPoly, poly_det, poly_dot

_elementary_cache: dict[tuple[int, int], XPoly] = {}
_elementary_window: dict[int, tuple[int, tuple[XPoly, ...]]] = {}
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


def _recurrence_degrees(
    cache: dict[tuple[int, int], XPoly],
    windows: dict[int, tuple[int, tuple[XPoly, ...]]],
    n: int,
    degrees: Iterable[int],
    seed: Callable[[int, int, list[XPoly]], XPoly],
) -> dict[int, XPoly]:
    """The degrees ``degrees`` (none negative) of a sequence over x1..x(n-1)
    that obeys the e-recurrence, keyed by degree.

    Below degree n, f_d = ``seed(n, d, [f_0, ..., f_(d-1)])``; from degree
    n on, f_d = sum_(k=1..n) (-1)^(k+1) e_k f_(d-k), which reads only the
    last n degrees.  ``cache`` maps (n, d) to f_d for the seeds below n,
    stored upward so a cached seed has every lower one beside it, and for
    every degree ever asked for.  ``windows`` maps n to (top, (f_(top-n+1),
    ..., f_top)), the last n degrees of the highest pass, stored as one
    immutable value so a concurrent reader never sees a torn window (a lost
    race keeps a lower window, never a wrong one).  The missing degrees
    from n on are built in one upward pass: from the window when it lies
    below them all, else from the seeds, so a degree below the window that
    was never asked for is recomputed locally.  No call recurses and no
    degree above the highest asked for is built.
    """
    found = {d: cache.get((n, d)) for d in degrees}
    missing = sorted(d for d, f in found.items() if f is None)
    if not missing:
        return found
    low = [d for d in missing if d < n]
    high = missing[len(low) :]
    start = windows.get(n)
    if start is not None and high and start[0] >= high[0]:
        start = None
    last_seed = n - 1 if high and start is None else (low[-1] if low else -1)
    seeds: list[XPoly] = []
    for d in range(last_seed + 1):
        f = cache.get((n, d))
        if f is None:
            f = cache[(n, d)] = seed(n, d, seeds)
        seeds.append(f)
        if d in found:
            found[d] = f
    if high:
        top, window = start if start is not None else (n - 1, seeds)
        window = list(window)
        es = [elementary_symmetric_x(n, k) for k in range(1, n + 1)]
        wanted = set(high)
        for d in range(top + 1, high[-1] + 1):
            f = poly_dot(
                XPoly,
                n - 1,
                [(1 if k % 2 else -1, es[k - 1], window[-k]) for k in range(1, n + 1)],
            )
            del window[0]
            window.append(f)
            if d in wanted:
                found[d] = cache[(n, d)] = f
        current = windows.get(n)
        if current is None or current[0] < high[-1]:
            windows[n] = (high[-1], tuple(window))
    return found


def _newton(n: int, d: int, lower: list[XPoly]) -> XPoly:
    """h_d below n by Newton's identity d h_d = sum_(i=1..d) i x_i h_(d-i)."""
    if d == 0:
        return XPoly.one(n - 1)
    products = [(i, XPoly.variable(n - 1, i - 1), lower[d - i]) for i in range(1, d + 1)]
    return poly_dot(XPoly, n - 1, products).scale(Fraction(1, d))


def _complete(n: int, degrees: Iterable[int]) -> dict[int, XPoly]:
    """h_d = S_d over x1..x(n-1) for each of ``degrees`` (none negative)."""
    return _recurrence_degrees(_elementary_cache, _elementary_window, n, degrees, _newton)


def elementary_schur(Q: int, ctx: AlgebraContext) -> XPoly:
    """Elementary Schur function of degree Q over x1..x(N-1).

    Degree 0 is 1 and negative degrees are 0.  Below N it comes from
    Newton's identity, from N on from the e-recurrence; degree Q stays
    cached, with the seeds below N and the window of the last N degrees.
    """
    n = ctx.N
    if Q < 0:
        return XPoly.zero(n - 1)
    return _complete(n, (Q,))[Q]


def _elementary(n: int, degrees: Iterable[int]) -> dict[int, XPoly]:
    """e_k over x1..x(n-1) for each k of ``degrees`` (none negative) up to
    n; those above n vanish and are left out."""
    return {k: elementary_symmetric_x(n, k) for k in degrees if k <= n}


def _jacobi_trudi(
    parts: tuple[int, ...],
    n: int,
    sequence: Callable[[int, Iterable[int]], dict[int, XPoly]],
) -> XPoly:
    """det(f_(q_i - i + j)) over the parts q_i of ``parts``, in x1..x(n-1).

    ``sequence(n, degrees)`` maps each of ``degrees`` (none negative) to
    f_degree, or leaves it out where f vanishes; negative degrees are 0.
    """
    k = len(parts)
    degrees = [[parts[i] - i + j for j in range(k)] for i in range(k)]
    entries = sequence(n, {q for row in degrees for q in row if q >= 0})
    zero = XPoly.zero(n - 1)
    return poly_det([[entries.get(q, zero) for q in row] for row in degrees])


def generalized_schur(p: Partition, ctx: AlgebraContext) -> XPoly:
    """Generalized Schur function; ``LimitError`` when the height class of
    ``p``'s size is too large.

    A shape with at least as many columns as rows takes the Jacobi-Trudi
    determinant det(S_(q_i - i + j)), k x k for k rows; a taller one its
    dual form det(e_(q'_i - i + j)) over the conjugate partition q', q_1 x
    q_1 (Macdonald I (3.5)).  The two agree in every rank, since the
    degeneration e_N = 1 is a ring map.  The e_k are the omega-twists of
    the seeds h_k below N, 1 at N and 0 above it, so the dual form asks
    the e-recurrence for no degree.
    """
    key = (ctx.N, p.parts)
    cached = _generalized_cache.get(key)
    if cached is not None:
        return cached
    check_class_size(p.weight, ctx)
    parts = p.parts
    if not parts:
        result = XPoly.one(ctx.N - 1)
    elif parts[0] >= len(parts):
        result = _jacobi_trudi(parts, ctx.N, _complete)
    else:
        conjugate = tuple(sum(q >= j for q in parts) for j in range(1, parts[0] + 1))
        result = _jacobi_trudi(conjugate, ctx.N, _elementary)
    _generalized_cache[key] = result
    return result
