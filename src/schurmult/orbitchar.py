"""Weyl-orbit characters and their two polynomial realizations.

An orbit character is a monomial symmetric polynomial in u1..uN (each
distinct monomial exactly once).  It can equivalently be rewritten as a
polynomial in the power-sum generators and, from there, pushed into the
x-indeterminates via K(Q) -> Q*x_Q.  Because the product of all u's is
constrained to 1, the x-variables of degree >= N are not independent:
their expressions in x1..x(N-1) are produced here by the Newton recursion
with the top elementary symmetric polynomial pinned to 1.

K(Q) -> Q*x_Q is a ring homomorphism, so one merge recursion serves both
rings: :func:`orbit_char_x` runs it directly on x-polynomials (memoized
per rank), while :func:`reduce_to_generators` followed by
:func:`generator_to_x` is kept as the reference route that tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .lattice import AlgebraContext, Partition
from .polyengine import UPoly, XPoly


@dataclass(frozen=True)
class GeneratorExpr:
    """Formal polynomial in the power-sum generators with rational coefficients.

    Keys are descending-sorted multisets (Q1,...,Qm) standing for the
    product K(Q1)...K(Qm); the empty multiset is the constant 1.  A zero
    degree is dropped on construction since K(0) is 1 by convention.
    """

    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple[int, ...], Fraction] = {}
        for multiset, coeff in self.terms.items():
            key = tuple(sorted((q for q in multiset if q != 0), reverse=True))
            if any(q < 0 for q in key):
                raise ValueError(f"generator degrees must be nonnegative, got {multiset}")
            c = clean.get(key, Fraction(0)) + Fraction(coeff)
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def one(cls) -> "GeneratorExpr":
        return cls({(): Fraction(1)})

    @classmethod
    def generator(cls, Q: int) -> "GeneratorExpr":
        return cls({(Q,): Fraction(1)})

    def __add__(self, other: "GeneratorExpr") -> "GeneratorExpr":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return GeneratorExpr(out)

    def __sub__(self, other: "GeneratorExpr") -> "GeneratorExpr":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, GeneratorExpr):
            out: dict[tuple[int, ...], Fraction] = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    key = tuple(sorted(ka + kb, reverse=True))
                    out[key] = out.get(key, Fraction(0)) + ca * cb
            return GeneratorExpr(out)
        return GeneratorExpr({k: c * Fraction(other) for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=lambda k: (sum(k), len(k), k)):
            prod = "*".join(f"K({q})" for q in key) if key else "1"
            pieces.append(f"{self.terms[key]} {prod}")
        return " + ".join(pieces)


def orbit_char_u(p: Partition, ctx: AlgebraContext) -> UPoly:
    """Orbit character as a polynomial in u1..uN.

    Sum over all monomials with the parts of ``p`` placed at distinct
    variable indices, each distinct monomial counted once.  Partitions
    with more than N parts have no valid placement and give zero.
    """
    n = ctx.N
    if p.length > n:
        return UPoly.zero(n)
    groups = []
    for q in p.parts:
        if groups and groups[-1][0] == q:
            groups[-1][1] += 1
        else:
            groups.append([q, 1])
    terms: dict[tuple[int, ...], int] = {}

    def place(gi: int, free: tuple[int, ...], exps: list[int]):
        if gi == len(groups):
            terms[tuple(exps)] = 1
            return
        value, count = groups[gi]
        for chosen in combinations(free, count):
            for i in chosen:
                exps[i] = value
            remaining = tuple(i for i in free if i not in chosen)
            place(gi + 1, remaining, exps)
            for i in chosen:
                exps[i] = 0

    place(0, tuple(range(n)), [0] * n)
    return UPoly(n, terms)


_reduce_cache: dict[tuple[None, tuple[int, ...]], GeneratorExpr] = {}


def reduce_to_generators(p: Partition) -> GeneratorExpr:
    """Rewrite an orbit character as a polynomial in the generators K(Q).

    The reference route to :func:`orbit_char_x`: the merge recursion of
    :func:`_newton_merge` run in the formal generator ring.  The result
    does not depend on the number of variables.
    """
    return _newton_merge(
        None, p.parts, GeneratorExpr.generator, GeneratorExpr.one(), _reduce_cache
    )


def _newton_merge(rank, parts, generator, one, cache):
    """Orbit character of ``parts`` in a ring where K(Q) maps to ``generator(Q)``.

    Eliminates the largest part recursively: multiplying the shorter
    character by K(q1) reproduces the original (with multiplicity equal
    to the count of q1) plus characters where q1 merged into another
    part, each weighted by the merged value's multiplicity.  K(Q) -> p_Q
    is a ring homomorphism, so the same recursion holds in every ring the
    generators map into.  Values are memoized in ``cache`` under
    ``(rank, parts)``; each call recurses on strictly shorter partitions.
    """
    key = (rank, parts)
    cached = cache.get(key)
    if cached is not None:
        return cached
    if len(parts) == 0:
        value = one
    elif len(parts) == 1:
        value = generator(parts[0])
    else:
        q1 = parts[0]
        rest = parts[1:]
        r = parts.count(q1)
        value = generator(q1) * _newton_merge(rank, rest, generator, one, cache)
        for v in sorted(set(rest), reverse=True):
            i = rest.index(v)
            merged = tuple(sorted(rest[:i] + (v + q1,) + rest[i + 1 :], reverse=True))
            lower = _newton_merge(rank, merged, generator, one, cache)
            value = value - merged.count(v + q1) * lower
        if r != 1:
            value = value * Fraction(1, r)
    cache[key] = value
    return value


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
    acc = XPoly.zero(nvars)
    for i in range(1, k + 1):
        term = elementary_symmetric_x(n, k - i) * XPoly.monomial(nvars, _unit(nvars, i), i)
        acc = acc + term if i % 2 == 1 else acc - term
    result = acc * Fraction(1, k) if k != 1 else acc
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
        return XPoly._make(nvars, {_unit(nvars, Q): Q})
    cached = _psum_cache.get((n, Q))
    if cached is not None:
        return cached
    start = Q
    while start > n and (n, start - 1) not in _psum_cache:
        start -= 1
    for d in range(start, Q + 1):
        acc = XPoly.zero(nvars)
        for i in range(1, n + 1):
            lower = d - i
            term = elementary_symmetric_x(n, i) * (
                _psum_cache[(n, lower)] if lower >= n else _power_sum_x(n, lower)
            )
            acc = acc + term if i % 2 == 1 else acc - term
        _psum_cache[(n, d)] = acc
    return _psum_cache[(n, Q)]


def degenerate_x(Q: int, ctx: AlgebraContext) -> XPoly:
    """The dependent indeterminate x_Q (Q >= N) in terms of x1..x(N-1)."""
    if Q < ctx.N:
        raise ValueError(f"x_{Q} is an independent indeterminate for {ctx}")
    return _power_sum_x(ctx.N, Q) * Fraction(1, Q)


def generator_to_x(g: GeneratorExpr, ctx: AlgebraContext) -> XPoly:
    """Substitute K(Q) -> Q*x_Q, degenerating dependent degrees, and expand."""
    nvars = ctx.N - 1
    out = XPoly.zero(nvars)
    for multiset, coeff in g.terms.items():
        term = XPoly.constant(nvars, coeff)
        for Q in multiset:
            term = term * _power_sum_x(ctx.N, Q)
        out = out + term
    return out


_orbit_x_cache: dict[tuple[int, tuple[int, ...]], XPoly] = {}


def orbit_char_x(p: Partition, ctx: AlgebraContext) -> XPoly:
    """Orbit character as a polynomial in the independent x-indeterminates.

    Runs the merge recursion directly in x, so each column costs one
    product of a power sum with a smaller memoized column; it equals
    ``generator_to_x(reduce_to_generators(p), ctx)``.  Partitions with
    more than N parts give zero.
    """
    n = ctx.N
    return _newton_merge(
        n, p.parts, lambda Q: _power_sum_x(n, Q), XPoly.one(n - 1), _orbit_x_cache
    )
