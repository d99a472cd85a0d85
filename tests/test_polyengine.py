import copy
import pickle
import time
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmult import polyengine
from schurmult.polyengine import (
    DEGREE_LIMIT,
    FIELD_BITS,
    UPoly,
    XPoly,
    pack_monomial,
    poly_det,
    poly_dot,
    unpack_monomial,
)

from helpers import evaluate, substitute, up, xp


def u_var(i, n=3):
    return UPoly.variable(n, i)


# -- strategies ---------------------------------------------------------

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
coeffs = st.integers(-9, 9).filter(bool)
upolys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: UPoly(2, d))
xcoeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
xpolys = st.dictionaries(exponents, xcoeffs, max_size=5).map(lambda d: XPoly(2, d))
exponents3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
upolys3 = st.dictionaries(exponents3, coeffs, max_size=5).map(lambda d: UPoly(3, d))
xpolys3 = st.dictionaries(exponents3, xcoeffs, max_size=5).map(lambda d: XPoly(3, d))


# -- construction and canonical form ------------------------------------


def test_zero_terms_dropped():
    p = UPoly(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): 3}


def test_constructor_merges_duplicate_keys_via_map_identity():
    # the term map is already keyed uniquely; normalizing twice changes nothing
    p = XPoly(2, {(1, 1): Fraction(1, 2)})
    q = XPoly(2, dict(p.terms))
    assert p == q


@given(upolys)
def test_canonical_idempotence(p):
    assert UPoly(2, p.terms) == p


def test_exponent_length_enforced():
    with pytest.raises(ValueError):
        UPoly(2, {(1,): 1})


@pytest.mark.parametrize("ring", [UPoly, XPoly])
@pytest.mark.parametrize("nvars", [1, 2, 3, 7, 2000])
def test_variable_key_is_the_packed_monomial(ring, nvars):
    for index in {0, nvars - 1}:
        var = ring.variable(nvars, index)
        exps = tuple(int(k == index) for k in range(nvars))
        assert var.num == {pack_monomial(exps, nvars): 1} and var.den == 1, (nvars, index)
        assert var == ring(nvars, {exps: 1})
    for index in (-1, nvars):
        with pytest.raises(ValueError, match="out of range"):
            ring.variable(nvars, index)


def test_coefficient_domains_enforced():
    # one rule in both rings: int and Fraction in, bool and float refused
    for ring in (UPoly, XPoly):
        for bad in (0.5, True, False, "1"):
            with pytest.raises(TypeError):
                ring(1, {(1,): bad})
            with pytest.raises(TypeError):
                ring.one(1).scale(bad)
        p = ring(1, {(1,): 3, (0,): Fraction(4, 2)})
        assert [type(c) for c in p.terms.values()] == [int, int]
        assert p.terms[(1,)] == 3 and (2,) not in p.terms
        half = ring(1, {(1,): Fraction(1, 2), (0,): 1})
        assert half.den == 2
        assert [type(c) for c in half.terms.values()] == [Fraction, Fraction]
        assert half.terms[(1,)] == Fraction(1, 2) and half.terms[(0,)] == 1


def test_immutability():
    p = UPoly.one(2)
    with pytest.raises(AttributeError):
        p.nvars = 3


@pytest.mark.parametrize(
    "p",
    [
        UPoly.one(2),
        up(3, [(2, {1: 1, 2: 1}), (-1, {3: 2})]),
        XPoly(2, {(1, 0): Fraction(1, 2), (0, 3): Fraction(-4, 3)}),
        XPoly.zero(2),
    ],
)
def test_pickle_and_copy_roundtrip(p):
    for clone in (
        pickle.loads(pickle.dumps(p)),
        copy.copy(p),
        copy.deepcopy(p),
    ):
        assert clone == p
        assert type(clone) is type(p)
        with pytest.raises(AttributeError):
            clone.nvars = 3


# -- arithmetic ----------------------------------------------------------


def test_additive_inverse_gives_empty_polynomial():
    x1 = XPoly.variable(2, 0)
    assert not x1 + (-x1)
    assert x1 + -x1 == XPoly.zero(2)


def test_disjoint_supports():
    p = XPoly(2, {(2, 0): 1})
    q = XPoly(2, {(0, 1): 1})
    assert p + q == XPoly(2, {(2, 0): 1, (0, 1): 1})


def test_doubling():
    x1 = XPoly.variable(2, 0)
    assert x1 + x1 == x1.scale(2)


def test_mul_identity():
    p = up(3, [(2, {1: 1, 2: 1}), (-1, {3: 2})])
    assert UPoly.one(3) * p == p


def test_difference_of_squares():
    u1, u2 = u_var(0), u_var(1)
    assert (u1 + u2) * (u1 - u2) == u1 * u1 - u2 * u2


def test_first_power_sum_squared():
    # (u1+u2+u3)^2 = sum of squares + 2 * sum of distinct products
    p1 = u_var(0) + u_var(1) + u_var(2)
    squares = up(3, [(1, {1: 2}), (1, {2: 2}), (1, {3: 2})])
    pairs = up(3, [(2, {1: 1, 2: 1}), (2, {1: 1, 3: 1}), (2, {2: 1, 3: 1})])
    assert p1 * p1 == squares + pairs


def test_ring_size_mismatch_rejected():
    with pytest.raises(ValueError):
        UPoly.one(2) + UPoly.one(3)
    with pytest.raises(TypeError):
        UPoly.one(2) + XPoly.one(2)
    with pytest.raises(ValueError):
        UPoly.one(2) * UPoly.one(3)
    with pytest.raises(TypeError):
        UPoly.one(2) * XPoly.one(2)


@given(upolys, upolys, upolys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(xpolys, xpolys)
@settings(max_examples=40)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    third = (a * Fraction(1, 3)).scale(3)
    assert third == a


# -- the integer core against plain coefficient dicts ---------------------


def _canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c for c in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    if isinstance(p, UPoly):
        assert p.den == 1


def _plain(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def _plain_combine(a, b, sign):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _plain_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


same_ring_pairs = st.one_of(st.tuples(upolys, upolys), st.tuples(xpolys, xpolys))


@given(same_ring_pairs, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
@settings(max_examples=80, deadline=None)
def test_integer_core_matches_plain_coefficients(pair, factor):
    a, b = pair
    pa, pb = _plain(a), _plain(b)
    if isinstance(a, UPoly):
        factor = factor.numerator
    results = {
        "+": (a + b, _plain_combine(pa, pb, 1)),
        "-": (a - b, _plain_combine(pa, pb, -1)),
        "*": (a * b, _plain_mul(pa, pb)),
        "scale": (a.scale(factor), {e: c * factor for e, c in pa.items() if c * factor}),
    }
    for op, (got, expected) in results.items():
        assert type(got) is type(a), op
        _canonical(got)
        assert _plain(got) == expected, op


def test_substitute_polynomials():
    # the tests' reference substitution: x1^2 + x2 at x1 -> u1+u2, x2 -> u1*u2
    p = xp(2, [(1, {1: 2}), (1, {2: 1})])
    u1 = UPoly.variable(2, 0)
    u2 = UPoly.variable(2, 1)
    expected = u1 * u1 + u1 * u2.scale(3) + u2 * u2
    result = substitute(p, [u1 + u2, u1 * u2])
    assert type(result) is UPoly
    assert result == expected
    # a rational x-polynomial lands in the u-ring over its denominator
    half = XPoly(1, {(1,): Fraction(1, 2)})
    halved = substitute(half, [u1 + u2])
    assert type(halved) is UPoly and halved.den == 2
    assert halved == (u1 + u2) * Fraction(1, 2)


def test_evaluate_exact():
    p = xp(2, [(1, {1: 2}), (-1, {2: 1})], prefactor=2)
    assert evaluate(p, [Fraction(1, 3), Fraction(2)]) == Fraction(1, 18) - 1


# -- determinants --------------------------------------------------------


def _permanent_style_det(matrix):
    n = len(matrix)
    ring = type(matrix[0][0])
    acc = ring.zero(matrix[0][0].nvars)
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = ring.one(matrix[0][0].nvars)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        acc = acc + term if inv % 2 == 0 else acc - term
    return acc


small_entries = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), max_size=2).map(
    lambda d: UPoly(2, d)
)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=25, deadline=None)
def test_det_matches_signed_permutation_definition(matrix):
    assert poly_det(matrix) == _permanent_style_det(matrix)


small_xentries = st.dictionaries(
    exponents, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)), max_size=2
).map(lambda d: XPoly(2, d))


@pytest.mark.parametrize("n", [3, 4])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_det_methods_agree_on_rational_matrices(n, data):
    # the Laplace expansion against the signed permutation sum
    row = st.lists(small_xentries, min_size=n, max_size=n)
    matrix = data.draw(st.lists(row, min_size=n, max_size=n))
    got = poly_det(matrix)
    _canonical(got)
    assert got == _permanent_style_det(matrix)


def test_det_identity():
    n = 4
    eye = [
        [UPoly.one(1) if i == j else UPoly.zero(1) for j in range(n)]
        for i in range(n)
    ]
    assert poly_det(eye) == UPoly.one(1)


def test_det_two_by_two_pattern():
    # det [[a, b], [c, d]] = a*d - b*c on generic monomials
    a, b, c, d = (UPoly.variable(4, i) for i in range(4))
    assert poly_det([[a, b], [c, d]]) == a * d - b * c


def test_det_non_square_rejected():
    with pytest.raises(ValueError):
        poly_det([[UPoly.one(1), UPoly.one(1)]])


def test_det_zero_diagonal_and_zero_row():
    z = UPoly.zero(1)
    o = UPoly.one(1)
    matrix = [[z, o], [o, z]]
    assert poly_det(matrix) == -o
    singular = [[z, z], [o, o]]
    assert not poly_det(singular)


def test_det_of_larger_monomial_matrix():
    # 6x6 staircase monomial matrix (the production alternant shape)
    n = 6
    exps = [7, 5, 4, 3, 2, 0]
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            e = [0] * n
            e[i] = exps[j]
            row.append(UPoly(n, {tuple(e): 1}))
        matrix.append(row)
    expected = _permanent_style_det(matrix)
    assert len(expected) == 720
    assert poly_det(matrix) == expected


def test_sorted_terms_graded_lex():
    p = up(2, [(1, {1: 1}), (1, {2: 2}), (1, {}), (1, {1: 1, 2: 1})])
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (0, 2), (1, 1)]


def test_str_rendering():
    p = xp(2, [(-1, {}), (1, {1: 2}), (-1, {2: 1})], prefactor=2)
    assert str(p) == "-1/2 - 1/2 x2 + 1/2 x1^2"
    assert str(UPoly.zero(2)) == "0"


# -- the packed core -------------------------------------------------------


def _grlex_key(exponents):
    return (sum(exponents), exponents)


@st.composite
def dot_products(draw):
    """A ring and a list of ``(c, a, b)`` terms, ``b`` sometimes ``None`` or a monomial."""
    ring, polys, scalars = draw(
        st.sampled_from(
            [(UPoly, upolys3, st.integers(-9, 9)), (XPoly, xpolys3, xcoeffs)]
        )
    )
    monomials = st.builds(
        lambda e, c: ring(3, {e: c}), exponents3, scalars.filter(bool)
    )
    second = st.one_of(st.none(), polys, monomials)
    return ring, draw(st.lists(st.tuples(scalars, polys, second), max_size=5))


@given(dot_products())
@settings(max_examples=80, deadline=None)
def test_poly_dot_matches_mul_add_scale(case):
    ring, products = case
    expected = ring.zero(3)
    for c, a, b in products:
        expected = expected + (a if b is None else a * b).scale(c)
    got = poly_dot(ring, 3, products)
    assert type(got) is ring
    _canonical(got)
    assert got == expected


@given(st.one_of(upolys3, xpolys3))
def test_sorted_terms_is_grlex_order(p):
    order = [e for e, _ in p.sorted_terms()]
    assert order == sorted(p.terms, key=_grlex_key)


def test_degree_limit_raises_and_never_wraps():
    top = DEGREE_LIMIT - 1
    for ring in (UPoly, XPoly):
        high = ring(2, {(top, 0): 1})
        assert high.terms == {(top, 0): 1}
        with pytest.raises(OverflowError, match=str(DEGREE_LIMIT)):
            ring(2, {(top, 1): 1})
        with pytest.raises(OverflowError, match=str(DEGREE_LIMIT)):
            ring(2, {(DEGREE_LIMIT // 2, DEGREE_LIMIT // 2): 1})
        x2 = ring.variable(2, 1)
        for product in (
            lambda: high * x2,
            lambda: x2 * high,
            lambda: high * (x2 + ring.one(2)),
            lambda: poly_dot(ring, 2, [(1, ring.one(2), None), (1, x2, high)]),
        ):
            with pytest.raises(OverflowError, match=f"degree {DEGREE_LIMIT}"):
                product()
        # one below the limit still multiplies, into the expected monomial
        lower = ring(2, {(top - 1, 0): 1})
        assert (lower * x2).terms == {(top - 1, 1): 1}


@pytest.mark.parametrize("ring", [UPoly, XPoly])
def test_terms_lookup_of_invalid_keys_is_missing(ring):
    p = ring(2, {(0, 0): 3, (1, 0): 5, (0, 1): 7})
    wrong_length = [(0,), (1,), (0, 0, 0), (0, 0, 1)]
    negative = [(-1, 1), (1, -1)]
    over_limit = [(0, DEGREE_LIMIT), (DEGREE_LIMIT, 0), (0, 2 * DEGREE_LIMIT)]
    for key in wrong_length + negative + over_limit + ["ab", 5, None]:
        assert key not in p.terms
        assert p.terms.get(key) is None
        with pytest.raises(KeyError):
            p.terms[key]
    assert p.terms.get((2, -1), 0) == 0
    assert p.terms.get((1, 0), 0) == 5
    assert dict(p.terms) == {(0, 0): 3, (1, 0): 5, (0, 1): 7}
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 6
    assert p.terms[(1, 0)] == 5


@pytest.mark.parametrize(
    "p",
    [
        up(3, [(2, {1: 1, 2: 1}), (-1, {3: 2})]),
        XPoly(2, {(1, 0): Fraction(1, 2), (0, 3): Fraction(-4, 3), (0, 0): 5}),
        XPoly.zero(2),
    ],
)
def test_terms_snapshot_reads_without_packing(monkeypatch, p):
    # ``terms`` is a read-only dict built from the packed keys: its items,
    # values, length and pickled form unpack each key and pack none
    expected = [(exps, p.terms[exps]) for exps in p.terms]
    calls = []

    def counted(exps, nvars):
        calls.append(exps)
        return pack_monomial(exps, nvars)

    monkeypatch.setattr(polyengine, "pack_monomial", counted)
    assert list(p.terms.items()) == expected
    assert list(p.terms.values()) == [c for _, c in expected]
    assert [type(c) for c in p.terms.values()] == [type(c) for _, c in expected]
    assert len(p.terms.items()) == len(p.terms.values()) == len(expected)
    assert p.__reduce__() == (type(p), (p.nvars, dict(expected)))
    assert p.terms == dict(p.sorted_terms())
    assert calls == []


def test_packing_is_linear_at_high_rank():
    # one 16-bit field per variable through bytes: a shift per field made
    # each key O(nvars^2) bit work, about 2-3 s at 100,000 variables
    nvars = 100_000
    exps = (3,) + (0,) * (nvars - 3) + (1, 2)
    start = time.perf_counter()
    for _ in range(10):
        key = pack_monomial(exps, nvars)
        assert unpack_monomial(key, nvars) == exps
    assert time.perf_counter() - start < 1.0
    assert key >> FIELD_BITS * nvars == 6
    assert key & (1 << FIELD_BITS * 3) - 1 == 1 << FIELD_BITS | 2
    with pytest.raises(ValueError, match="negative"):
        pack_monomial((1, -1, 0), 3)
    with pytest.raises(OverflowError, match=str(DEGREE_LIMIT)):
        pack_monomial((DEGREE_LIMIT - 1, 0, 1), 3)
