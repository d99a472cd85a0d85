"""Exact sparse multivariate polynomial arithmetic and determinants.

Two concrete rings are provided: :class:`XPoly` with arbitrary-precision
rational coefficients and :class:`UPoly` with arbitrary-precision integer
coefficients.  Both store terms as a map from exponent tuples (one entry
per variable) to nonzero coefficients, so equality is structural and all
arithmetic is exact.  The canonical term order is graded lexicographic.

Values are immutable after construction; every operation returns a new
polynomial.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping, Sequence


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


class _SparsePoly:
    """Shared machinery for exact sparse polynomials.

    Subclasses fix the coefficient domain via :meth:`_coerce` and the
    symbol used for printing.  ``terms`` maps fixed-length exponent
    tuples to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    _symbol = "t"

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("number of variables must be nonnegative")
        clean: dict[tuple[int, ...], object] = {}
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
                    clean[exps] = clean.get(exps, self._zero_coeff()) + c
                    if not clean[exps]:
                        del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The default slot-state restore would go through __setattr__.
        return type(self), (self.nvars, self.terms)

    @classmethod
    def _coerce(cls, value):
        raise NotImplementedError

    @classmethod
    def _zero_coeff(cls):
        return cls._coerce(0)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int):
        return cls.constant(nvars, 1)

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
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; undefined (raises) for the zero polynomial."""
        if not self.terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents: Sequence[int]):
        return self.terms.get(tuple(exponents), self._zero_coeff())

    def leading_term(self) -> tuple[tuple[int, ...], object]:
        """Largest (monomial, coefficient) pair in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

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
        return type(self) is type(other) and self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            if acc is None:
                out[exps] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return self._raw(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SparsePoly):
            self._check_ring(other)
            if len(self.terms) < len(other.terms):
                self, other = other, self
            out: dict[tuple[int, ...], object] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    exps = tuple(x + y for x, y in zip(ea, eb))
                    c = ca * cb
                    acc = out.get(exps)
                    if acc is None:
                        out[exps] = c
                    else:
                        acc = acc + c
                        if acc:
                            out[exps] = acc
                        else:
                            del out[exps]
            return self._raw(self.nvars, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        c = self._coerce(value)
        if not c:
            return self._raw(self.nvars, {})
        return self._raw(self.nvars, {e: k * c for e, k in self.terms.items()})

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
        return self._raw(
            self.nvars,
            {e: (-c if sum(e) % 2 else c) for e, c in self.terms.items()},
        )

    @classmethod
    def _raw(cls, nvars: int, terms: dict):
        # Bypass normalization for term maps already known to be clean.
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "terms", terms)
        return obj

    # -- substitution and printing --------------------------------------

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
        out = target.zero(target.nvars)
        for exps, coeff in self.terms.items():
            term = target.constant(target.nvars, coeff)
            for value, e in zip(values, exps):
                if e:
                    term = term * value**e
            out = out + term
        return out

    def evaluate(self, point: Sequence):
        """Exact value at a point (one coefficient-domain value per variable)."""
        if len(point) != self.nvars:
            raise ValueError(f"expected {self.nvars} coordinates, got {len(point)}")
        total = self._zero_coeff()
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(point, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __str__(self) -> str:
        if not self.terms:
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


class UPoly(_SparsePoly):
    """Sparse polynomial with exact integer coefficients."""

    __slots__ = ()
    _symbol = "u"

    @classmethod
    def _coerce(cls, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise TypeError(f"UPoly coefficients must be integers, got {type(value).__name__}")


def rationalize(p: UPoly) -> XPoly:
    """View an integer-coefficient polynomial in the rational ring."""
    return XPoly._raw(p.nvars, {e: Fraction(c) for e, c in p.terms.items()})


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

    Uses cofactor expansion up to 6x6 and fraction-free elimination above;
    the two methods agree wherever both apply (enforced by tests).
    """
    n = _check_square(matrix)
    if n <= _COFACTOR_LIMIT:
        return det_cofactor(matrix)
    return det_bareiss(matrix)


def _coeff_quotient(num, den, ring):
    if ring is UPoly:
        q, r = divmod(num, den)
        if r:
            raise InexactDivisionError(f"coefficient {num} is not divisible by {den}")
        return q
    return num / den


def poly_divide_exact(num: _SparsePoly, den: _SparsePoly) -> _SparsePoly:
    """Exact quotient ``q`` with ``q * den == num``.

    Division is performed by leading-term elimination in graded-lex order.
    An inexact division raises :class:`InexactDivisionError`; results are
    never truncated.
    """
    num._check_ring(den)
    ring = type(num)
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return ring.zero(num.nvars)

    den_lead, den_lc = den.leading_term()
    den_rest = [(e, c) for e, c in den.terms.items() if e != den_lead]
    rem = dict(num.terms)
    quot: dict[tuple[int, ...], object] = {}

    # Lazy max-heap over the remainder's monomials (grlex order).
    heap: list[tuple] = []
    seen: set[tuple[int, ...]] = set()

    def push(exps):
        if exps not in seen:
            seen.add(exps)
            heapq.heappush(heap, (-sum(exps), tuple(-e for e in exps), exps))

    for exps in rem:
        push(exps)

    while heap:
        _, _, exps = heapq.heappop(heap)
        seen.discard(exps)
        coeff = rem.get(exps)
        if not coeff:
            continue
        qexps = tuple(a - b for a, b in zip(exps, den_lead))
        if any(e < 0 for e in qexps):
            raise InexactDivisionError(
                f"leading monomial {exps} is not divisible by {den_lead}"
            )
        qc = _coeff_quotient(coeff, den_lc, ring)
        quot[qexps] = quot.get(qexps, 0) + qc
        del rem[exps]
        for e, c in den_rest:
            target = tuple(a + b for a, b in zip(qexps, e))
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
    return ring._raw(num.nvars, {e: c for e, c in quot.items() if c})
