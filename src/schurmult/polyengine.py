"""Exact sparse multivariate polynomial arithmetic and determinants.

Two rings are named by their variables and never mix: :class:`XPoly` in
x1..x(N-1) and :class:`UPoly` in u1..uN.  A coefficient of either is an
``int`` or a ``Fraction``; a polynomial stores a map ``num`` from packed
monomials to nonzero integer numerators over one positive common
denominator ``den``, in lowest terms (``gcd(den, *num.values()) == 1``).
Equality is therefore structural and all arithmetic is integer
arithmetic on numerators.

A packed monomial is one int (Monagan and Pearce, ISSAC 2009): each
exponent takes a field of :data:`FIELD_BITS` bits, the first variable's
field highest, and the total degree sits above all of them.  Int order
is therefore graded-lexicographic order, the canonical term order, and
the product of two monomials is the sum of their keys.  The top bit of
every exponent field stays clear, so total degrees stay below
:data:`DEGREE_LIMIT`; packing or multiplying past it raises
:class:`OverflowError` instead of wrapping into another monomial.
Callers see exponent tuples: the constructor,
:meth:`~_SparsePoly.sorted_terms` and ``terms``, a read-only
``{exponents: coefficient}`` snapshot unpacked on each access.  A
coefficient read back is an ``int`` when ``den`` is 1 and a ``Fraction``
otherwise.  Only :mod:`solver` and :mod:`weyl` read packed keys, through
``num``, :func:`pack_monomial`, :func:`unpack_monomial` and ``_make``,
and :mod:`schur`, which reads the total-degree field above
``FIELD_BITS * nvars`` to twist h_k into e_k.

:func:`poly_dot` is the one accumulate kernel: it sums ``c * a * b`` over
many products in one numerator map over one lcm denominator.  Nothing
here divides one polynomial by another.

Values are immutable after construction; every operation returns a new
polynomial.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from struct import pack, unpack_from
from types import MappingProxyType
from typing import Sequence

# Bits per exponent field of a packed monomial.  The field's top bit is a
# guard: total degrees stay below 2**15, so the sum of two keys within the
# limit cannot carry from one field into the next.  Packing writes each
# field as an unsigned 16-bit word (struct format "H").
FIELD_BITS = 16
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)


def pack_monomial(exponents: Sequence[int], nvars: int) -> int:
    """Packed key of an exponent tuple of length ``nvars``.

    The degree and exponent fields are packed as big-endian 16-bit words
    and read as one int, so the cost is linear in ``nvars``.  Raises
    :class:`ValueError` for a wrong length or a negative exponent and
    :class:`OverflowError` for a total degree of at least
    :data:`DEGREE_LIMIT`.
    """
    if len(exponents) != nvars:
        raise ValueError(
            f"exponent tuple {tuple(exponents)} has length {len(exponents)}, expected {nvars}"
        )
    if nvars and min(exponents) < 0:
        raise ValueError(f"negative exponent in {tuple(exponents)}")
    degree = sum(exponents)
    if degree >= DEGREE_LIMIT:
        raise OverflowError(
            f"monomial {tuple(exponents)} has total degree {degree}, "
            f"at or above the packed-monomial limit {DEGREE_LIMIT}"
        )
    return int.from_bytes(pack(f">{nvars + 1}H", degree, *exponents), "big")


def unpack_monomial(key: int, nvars: int) -> tuple[int, ...]:
    """Exponent tuple of a packed key, read from its bytes in linear time."""
    return unpack_from(f">{nvars}H", key.to_bytes(2 * nvars + 2, "big"), 2)


class _SparsePoly:
    """Shared machinery for exact sparse polynomials.

    Subclasses fix only the symbol of their variables.  ``num`` maps packed
    monomials to nonzero integers and ``den`` is the positive common
    denominator.
    """

    __slots__ = ("nvars", "num", "den")

    _symbol = "t"

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if nvars < 0:
            raise ValueError("number of variables must be nonnegative")
        coeffs: dict[int, object] = {}
        if terms:
            for exps, coeff in terms.items():
                key = pack_monomial(tuple(exps), nvars)
                c = self._coerce(coeff)
                if c:
                    coeffs[key] = coeffs.get(key, 0) + c
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

    @staticmethod
    def _coerce(value):
        """``value`` as an exact coefficient: an ``int`` or a ``Fraction``."""
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return value
        raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__}")

    def _coefficient_value(self, numerator: int):
        return numerator if self.den == 1 else Fraction(numerator, self.den)

    @property
    def terms(self) -> Mapping:
        """Read-only ``{exponents: coefficient}`` snapshot, built on each access."""
        nvars, value = self.nvars, self._coefficient_value
        return MappingProxyType({unpack_monomial(k, nvars): value(c) for k, c in self.num.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int):
        return cls._make(nvars, {})

    @classmethod
    def one(cls, nvars: int):
        return cls._make(nvars, {0: 1})

    @classmethod
    def constant(cls, nvars: int, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int):
        """The polynomial consisting of the single variable at ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        # total degree 1 on top, and a 1 in the variable's field
        key = 1 << FIELD_BITS * nvars | 1 << FIELD_BITS * (nvars - 1 - index)
        return cls._make(nvars, {key: 1})

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in ascending graded-lex order (the canonical print order)."""
        return [
            (unpack_monomial(key, self.nvars), self._coefficient_value(self.num[key]))
            for key in sorted(self.num)
        ]

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

    def __add__(self, other):
        return poly_dot(type(self), self.nvars, [(1, self, None), (1, other, None)])

    def __sub__(self, other):
        return poly_dot(type(self), self.nvars, [(1, self, None), (-1, other, None)])

    def __neg__(self):
        return self._make(self.nvars, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, _SparsePoly):
            return poly_dot(type(self), self.nvars, [(1, self, other)])
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

    # -- substitution and printing --------------------------------------

    def _power_table(self, values: Sequence, one) -> list[list]:
        """``table[i][e] == values[i] ** e`` for every exponent the terms use.

        Each power is the previous one times the value, once per call.
        """
        nvars = self.nvars
        top = [max(column) for column in zip(*(unpack_monomial(k, nvars) for k in self.num))]
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
        result lives there too.  Each term's last power factor goes into
        one :func:`poly_dot` with the term's coefficient.
        """
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} replacement values, got {len(values)}")
        if not values:
            raise ValueError("substitution into a 0-variable polynomial needs a target ring")
        target = values[0]
        for v in values[1:]:
            target._check_ring(v)
        ring, nvars = type(target), target.nvars
        one = ring.one(nvars)
        table = self._power_table(values, one)
        products = []
        for key, coeff in self.num.items():
            factors = [
                powers[e] for powers, e in zip(table, unpack_monomial(key, self.nvars)) if e
            ]
            head = one
            for factor in factors[:-1]:
                head = head * factor
            products.append((coeff, head, factors[-1] if factors else None))
        out = poly_dot(ring, nvars, products)
        return ring._make(nvars, out.num, out.den * self.den)

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
    """Sparse polynomial in the independent indeterminates x1, x2, ..."""

    __slots__ = ()
    _symbol = "x"


class UPoly(_SparsePoly):
    """Sparse polynomial in the u-indeterminates u1, u2, ... of the Weyl character formula."""

    __slots__ = ()
    _symbol = "u"


def _accumulate(out: dict, factor: int, a: dict, b: dict, nvars: int) -> None:
    """Add ``factor * a * b`` (packed numerator maps) into ``out``.

    One row of key shifts per term of the shorter operand, so a monomial
    operand costs one pass over the other.  Raises :class:`OverflowError`
    when the operand degrees sum to :data:`DEGREE_LIMIT` or more, before
    any key could wrap.
    """
    if not a or not b:
        return
    if len(a) < len(b):
        a, b = b, a
    # every exponent field is below the guard bit, so adding the largest
    # keys adds their degree fields without a carry
    degree = max(a) + max(b) >> FIELD_BITS * nvars
    if degree >= DEGREE_LIMIT:
        raise OverflowError(
            f"product of total degree {degree} is at or above the packed-monomial "
            f"limit {DEGREE_LIMIT}"
        )
    rows = iter(b.items())
    if not out:
        kb, cb = next(rows)
        fb = factor * cb
        out.update({ka + kb: fb * ca for ka, ca in a.items()})
    get = out.get
    for kb, cb in rows:
        fb = factor * cb
        for ka, ca in a.items():
            key = ka + kb
            out[key] = get(key, 0) + fb * ca


def _add_scaled(out: dict, factor: int, a: dict) -> None:
    """Add ``factor * a`` into ``out``, keeping ``a``'s key objects."""
    if not out:
        out.update(a if factor == 1 else {ka: factor * ca for ka, ca in a.items()})
        return
    get = out.get
    for ka, ca in a.items():
        out[ka] = get(ka, 0) + factor * ca


def poly_dot(ring: type, nvars: int, products: Sequence) -> _SparsePoly:
    """``sum(c * a * b)`` over ``products``, a sequence of ``(c, a, b)`` triples.

    ``c`` is a coefficient of ``ring`` and ``a``, ``b`` are polynomials of
    ``ring`` in ``nvars`` variables; ``b`` may be ``None`` for the term
    ``c * a``.  Every term goes into one numerator map over the lcm of the
    term denominators, so no partial sum is ever normalized.
    """
    terms = []
    for c, a, b in products:
        for p in (a, b) if b is not None else (a,):
            if type(p) is not ring:
                raise TypeError(f"cannot mix {ring.__name__} and {type(p).__name__}")
            if p.nvars != nvars:
                raise ValueError(f"ring size mismatch: {nvars} vs {p.nvars}")
        if type(c) is not int:
            c = ring._coerce(c)
        if c:
            terms.append((c, a, b, c.denominator * a.den * (1 if b is None else b.den)))
    den = lcm(*(d for _, _, _, d in terms))
    out: dict[int, int] = {}
    for c, a, b, d in terms:
        factor = c.numerator * (den // d)
        if b is None:
            _add_scaled(out, factor, a.num)
        else:
            _accumulate(out, factor, a.num, b.num, nvars)
    if 0 in out.values():
        out = {e: v for e, v in out.items() if v}
    return ring._make(nvars, out, den)


def poly_det(matrix: Sequence[Sequence[_SparsePoly]]) -> _SparsePoly:
    """Exact determinant of a square polynomial matrix, by Laplace expansion.

    The expansion runs from the last row upward and computes every minor
    once (Gentleman and Johnson, ACM TOMS 1976).  A minor of the bottom
    rows is keyed by the bitmask of its columns; extending it by the entry
    of the row above in a free column ``j`` carries the sign
    ``(-1) ** (number of its columns below j)``.  Each new minor is one
    :func:`poly_dot` over its products, and zero minors are dropped, so a
    matrix that is zero below a band keeps few minors alive.  Nothing is
    divided: rational entries go into :func:`poly_dot` as they are, and
    each minor comes out over the lcm of its term denominators.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("determinant of an empty matrix is not defined here")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    first = matrix[0][0]
    for row in matrix:
        for entry in row:
            first._check_ring(entry)
    ring, nvars = type(first), first.nvars
    minors = {1 << j: entry for j, entry in enumerate(matrix[n - 1]) if entry}
    for i in range(n - 2, -1, -1):
        row = [(1 << j, entry) for j, entry in enumerate(matrix[i]) if entry]
        products: dict[int, list] = {}
        for cols, minor in minors.items():
            for bit, entry in row:
                if not cols & bit:
                    sign = -1 if (cols & (bit - 1)).bit_count() & 1 else 1
                    products.setdefault(cols | bit, []).append((sign, entry, minor))
        minors = {}
        for cols, terms in products.items():
            minor = poly_dot(ring, nvars, terms)
            if minor:
                minors[cols] = minor
    return minors.get((1 << n) - 1, ring.zero(nvars))

