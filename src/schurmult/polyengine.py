"""Exact sparse multivariate polynomial arithmetic and determinants.

Two concrete rings are provided: :class:`XPoly` with arbitrary-precision
rational coefficients and :class:`UPoly` with arbitrary-precision integer
coefficients.  Both are one integer representation: a map ``num`` from
exponent tuples (one entry per variable) to nonzero integer numerators
over one positive common denominator ``den``, in lowest terms
(``gcd(den, *num.values()) == 1``; ``den`` is always 1 for ``UPoly``).
Equality is therefore structural and all arithmetic is integer
arithmetic on numerators.  ``terms`` is a read-only coefficient view
built on each access: integers for ``UPoly``, fractions for ``XPoly``.
Exact division divides the numerators by the divisor's primitive part in
Z[x] (Gauss's lemma keeps the quotient integral) and moves the divisor's
content into the denominator.  The canonical term order is graded
lexicographic.

Values are immutable after construction; every operation returns a new
polynomial.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, neg, sub
from types import MappingProxyType
from typing import Sequence


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


class _FractionView(Mapping):
    """Read-only ``{exponents: Fraction}`` view of numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den

    def __getitem__(self, exps):
        return Fraction(self._num[exps], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _SparsePoly:
    """Shared machinery for exact sparse polynomials.

    Subclasses fix the coefficient domain via :meth:`_coerce` and the
    symbol used for printing.  ``num`` maps fixed-length exponent tuples
    to nonzero integers and ``den`` is the positive common denominator.
    """

    __slots__ = ("nvars", "num", "den")

    _symbol = "t"

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("number of variables must be nonnegative")
        coeffs: dict[tuple[int, ...], object] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = self._coerce(coeff)
                if c:
                    coeffs[exps] = coeffs.get(exps, 0) + c
        den = lcm(*(c.denominator for c in coeffs.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items() if c}
        self._assign(nvars, num, den)

    def _assign(self, nvars: int, num: dict, den: int) -> None:
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, nvars: int, num: dict, den: int = 1):
        """Polynomial from nonzero integer numerators over ``den``, in lowest terms."""
        obj = object.__new__(cls)
        obj._assign(nvars, num, den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The default slot-state restore would go through __setattr__.
        return type(self), (self.nvars, dict(self.terms))

    @classmethod
    def _coerce(cls, value):
        raise NotImplementedError

    @classmethod
    def _zero_coeff(cls):
        return cls._coerce(0)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls._make(nvars, {})

    @classmethod
    def one(cls, nvars: int):
        return cls._make(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int):
        """The polynomial consisting of the single variable at ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff=1):
        return cls(nvars, {tuple(exponents): coeff})

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    def degree(self) -> int:
        """Total degree; undefined (raises) for the zero polynomial."""
        if not self.num:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.num)

    def coefficient(self, exponents: Sequence[int]):
        return self.terms.get(tuple(exponents), self._zero_coeff())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in ascending graded-lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "_SparsePoly"):
        if type(self) is not type(other):
            raise TypeError(f"cannot mix {type(self).__name__} and {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"ring size mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SparsePoly):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.num == other.num
        )

    def _combine(self, other, sign: int):
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_ring(other)
        da, db = self.den, other.den
        if da == db:
            out = dict(self.num)
            fb = sign
        else:
            g = gcd(da, db)
            fa = db // g
            fb = sign * (da // g)
            da *= fa
            out = {e: c * fa for e, c in self.num.items()}
        for exps, coeff in other.num.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff * fb
            else:
                acc += coeff * fb
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return self._make(self.nvars, out, da)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._make(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, _SparsePoly):
            self._check_ring(other)
            a, b = self.num, other.num
            if len(a) < len(b):
                a, b = b, a
            out: dict[tuple[int, ...], int] = {}
            get = out.get
            for ea, ca in a.items():
                for eb, cb in b.items():
                    exps = tuple(map(add, ea, eb))
                    out[exps] = get(exps, 0) + ca * cb
            return self._make(
                self.nvars, {e: c for e, c in out.items() if c}, self.den * other.den
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self._coerce(value)
        if not c:
            return self._make(self.nvars, {})
        n, d = c.numerator, c.denominator
        if n == 1 and d == 1:
            return self
        num = self.num if n == 1 else {e: k * n for e, k in self.num.items()}
        return self._make(self.nvars, num, self.den * d)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self.one(self.nvars)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def negate_variables(self):
        """Substitute -v for every variable (signs flip by monomial parity)."""
        return self._make(
            self.nvars,
            {e: (-c if sum(e) % 2 else c) for e, c in self.num.items()},
            self.den,
        )

    # -- substitution and printing --------------------------------------

    def _power_table(self, values: Sequence, one) -> list[list]:
        """``table[i][e] == values[i] ** e`` for every exponent the terms use.

        Each power is the previous one times the value, once per call.
        """
        top = [max(column) for column in zip(*self.num)]
        table = []
        for value, t in zip(values, top):
            powers = [one]
            for _ in range(t):
                powers.append(powers[-1] * value)
            table.append(powers)
        return table

    def substitute(self, values: Sequence["_SparsePoly"]) -> "_SparsePoly":
        """Evaluate with each variable replaced by a polynomial.

        All replacement polynomials must live in one common ring; the
        result lives there too.
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} replacement values, got {len(values)}")
        if not values:
            raise ValueError("substitution into a 0-variable polynomial needs a target ring")
        target = values[0]
        for v in values[1:]:
            target._check_ring(v)
        one = target.one(target.nvars)
        table = self._power_table(values, one)
        out = target.zero(target.nvars)
        for exps, coeff in self.num.items():
            term = one
            for powers, e in zip(table, exps):
                if e:
                    term = term * powers[e]
            out = out + term.scale(coeff)
        result = target._make(target.nvars, out.num, out.den * self.den)
        if result.den != 1 and isinstance(result, UPoly):
            raise TypeError(f"substitution into UPoly values left denominator {result.den}")
        return result

    def evaluate(self, point: Sequence):
        """Exact value at a point (one coefficient-domain value per variable)."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        table = self._power_table(point, 1)
        total = self._zero_coeff()
        for exps, coeff in self.num.items():
            term = coeff
            for powers, e in zip(table, exps):
                if e:
                    term = term * powers[e]
            total = total + term
        return total / self.den if self.den != 1 else total

    def __str__(self) -> str:
        if not self.num:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{self._symbol}{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mono = " ".join(factors)
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} {mono}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nvars}, {self})"


class XPoly(_SparsePoly):
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ()
    _symbol = "x"

    @classmethod
    def _coerce(cls, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"XPoly coefficients must be rational, got {type(value).__name__}")

    @property
    def terms(self) -> Mapping:
        """Read-only ``{exponents: Fraction}`` view, built on each access."""
        return _FractionView(self.num, self.den)


class UPoly(_SparsePoly):
    """Sparse polynomial with exact integer coefficients."""

    __slots__ = ()
    _symbol = "u"

    @classmethod
    def _coerce(cls, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise TypeError(f"UPoly coefficients must be integers, got {type(value).__name__}")

    @property
    def terms(self) -> Mapping:
        """Read-only ``{exponents: int}`` view, built on each access."""
        return MappingProxyType(self.num)


def rationalize(p: UPoly) -> XPoly:
    """View an integer-coefficient polynomial in the rational ring."""
    return XPoly._make(p.nvars, p.num)


def _check_square(matrix: Sequence[Sequence[_SparsePoly]]) -> int:
    n = len(matrix)
    if n == 0:
        raise ValueError("determinant of an empty matrix is not defined here")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    first = matrix[0][0]
    for row in matrix:
        for entry in row:
            first._check_ring(entry)
    return n


def det_cofactor(matrix: Sequence[Sequence[_SparsePoly]]) -> _SparsePoly:
    """Exact determinant by recursive cofactor expansion along the first row."""
    n = _check_square(matrix)
    ring = type(matrix[0][0])
    nvars = matrix[0][0].nvars

    def expand(rows: list[list[_SparsePoly]]) -> _SparsePoly:
        m = len(rows)
        if m == 1:
            return rows[0][0]
        if m == 2:
            return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        acc = ring.zero(nvars)
        sub = rows[1:]
        for j in range(m):
            top = rows[0][j]
            if top.is_zero:
                continue
            minor = [[row[c] for c in range(m) if c != j] for row in sub]
            piece = top * expand(minor)
            acc = acc + piece if j % 2 == 0 else acc - piece
        return acc

    return expand([list(row) for row in matrix])


def det_bareiss(matrix: Sequence[Sequence[_SparsePoly]]) -> _SparsePoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact by the Sylvester identity, so the
    computation never leaves the coefficient domain.
    """
    n = _check_square(matrix)
    ring = type(matrix[0][0])
    nvars = matrix[0][0].nvars
    m = [list(row) for row in matrix]
    sign = 1
    prev = ring.one(nvars)
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero(nvars)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = pivot * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = poly_divide_exact(elt, prev)
            m[i][k] = ring.zero(nvars)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


_COFACTOR_LIMIT = 6


def poly_det(matrix: Sequence[Sequence[_SparsePoly]]) -> _SparsePoly:
    """Exact determinant of a square polynomial matrix.

    Each row is first cleared of its denominators (scaled by their lcm),
    so the expansion runs on integer numerators only; the determinant is
    divided by the product of the row scales once at the end.  Uses
    cofactor expansion up to 6x6 and fraction-free elimination above;
    the two methods agree wherever both apply (enforced by tests).
    """
    n = _check_square(matrix)
    ring = type(matrix[0][0])
    nvars = matrix[0][0].nvars
    scales = [lcm(*(entry.den for entry in row)) for row in matrix]
    cleared = [
        row
        if scale == 1
        else [
            ring._make(nvars, {e: c * (scale // entry.den) for e, c in entry.num.items()})
            for entry in row
        ]
        for row, scale in zip(matrix, scales)
    ]
    det = det_cofactor(cleared) if n <= _COFACTOR_LIMIT else det_bareiss(cleared)
    return ring._make(nvars, det.num, det.den * prod(scales))


def poly_divide_exact(num: _SparsePoly, den: _SparsePoly) -> _SparsePoly:
    """Exact quotient ``q`` with ``q * den == num``.

    The numerators of ``num`` are divided in Z[x] by the primitive part of
    ``den``'s numerators, by leading-term elimination in graded-lex
    order; by Gauss's lemma an exact quotient has integer coefficients,
    so every step is an exact integer division.  ``den``'s content and
    both denominators then go into the quotient's denominator.  An
    inexact division raises :class:`InexactDivisionError`; results are
    never truncated.
    """
    num._check_ring(den)
    ring = type(num)
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return ring.zero(num.nvars)

    content = gcd(*den.num.values())
    divisor = den.num if content == 1 else {e: c // content for e, c in den.num.items()}
    den_lead = max(divisor, key=_grlex_key)
    den_lc = divisor[den_lead]
    den_rest = [(e, c) for e, c in divisor.items() if e != den_lead]
    rem = dict(num.num)
    quot: dict[tuple[int, ...], int] = {}

    # Lazy max-heap over the remainder's monomials (grlex order).
    heap: list[tuple] = []
    seen: set[tuple[int, ...]] = set()

    def push(exps):
        if exps not in seen:
            seen.add(exps)
            heapq.heappush(heap, (-sum(exps), tuple(map(neg, exps)), exps))

    for exps in rem:
        push(exps)

    while heap:
        _, _, exps = heapq.heappop(heap)
        seen.discard(exps)
        coeff = rem.get(exps)
        if not coeff:
            continue
        qexps = tuple(map(sub, exps, den_lead))
        if any(e < 0 for e in qexps):
            raise InexactDivisionError(
                f"leading monomial {exps} is not divisible by {den_lead}"
            )
        qc, r = divmod(coeff, den_lc)
        if r:
            raise InexactDivisionError(f"coefficient {coeff} is not divisible by {den_lc}")
        # leading monomials strictly decrease, so each quotient monomial is new
        quot[qexps] = qc
        del rem[exps]
        for e, c in den_rest:
            target = tuple(map(add, qexps, e))
            acc = rem.get(target)
            delta = qc * c
            if acc is None:
                rem[target] = -delta
                push(target)
            else:
                acc = acc - delta
                if acc:
                    rem[target] = acc
                else:
                    del rem[target]
    if den.den != 1:
        quot = {e: c * den.den for e, c in quot.items()}
    quotient = ring._make(num.nvars, quot, num.den * content)
    if quotient.den != 1 and isinstance(quotient, UPoly):
        raise InexactDivisionError(f"quotient coefficients are not divisible by {content}")
    return quotient
