"""Shared builders and brute-force numeric oracles for the test suite."""

import ast
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

from schurmult.lattice import Partition, distinct_permutations, partitions_of
from schurmult.orbitchar import orbit_char_x
from schurmult.polyengine import UPoly, XPoly, poly_det, poly_dot
from schurmult.schur import elementary_schur, generalized_schur


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The first fenced ``language`` block under a README ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def package_modules(tree: ast.Module) -> set[str]:
    """The ``schurmult`` modules a syntax tree imports, by short name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "schurmult" + (f".{node.module}" if node.module else "")
            names = [base]
            if base == "schurmult":
                names = [f"schurmult.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("schurmult."))
    return found


def xp(nvars, terms, prefactor=1):
    """Build an XPoly from (coefficient, {var: exp}) pairs over a common prefactor.

    Variables are 1-based in the term dicts, e.g. {1: 2, 3: 1} is x1^2*x3.
    """
    out = {}
    for coeff, mono in terms:
        exps = [0] * nvars
        for var, e in mono.items():
            exps[var - 1] = e
        out[tuple(exps)] = Fraction(coeff, prefactor)
    return XPoly(nvars, out)


def up(nvars, terms):
    """Build a UPoly from (coefficient, {var: exp}) pairs (1-based variables)."""
    out = {}
    for coeff, mono in terms:
        exps = [0] * nvars
        for var, e in mono.items():
            exps[var - 1] = e
        out[tuple(exps)] = coeff
    return UPoly(nvars, out)


def orbit_char_u(p, ctx):
    """The orbit character of ``p`` in u1..uN: each distinct permutation of
    its zero-padded parts once, and zero when ``p`` has more than N parts."""
    n = ctx.N
    if p.length > n:
        return UPoly.zero(n)
    return UPoly(n, dict.fromkeys(distinct_permutations(p.padded(n)), 1))


def substitute(poly, values):
    """``poly`` with its i-th variable replaced by ``values[i]``, in their ring."""
    ring, nvars = type(values[0]), values[0].nvars
    powers = [[ring.one(nvars)] for _ in values]
    products = []
    for exps, coeff in poly.terms.items():
        term = ring.one(nvars)
        for known, value, e in zip(powers, values, exps):
            while len(known) <= e:
                known.append(known[-1] * value)
            term = term * known[e]
        products.append((coeff, term, None))
    return poly_dot(ring, nvars, products)


def in_power_sums(poly, ctx):
    """A polynomial in x1..x(N-1) pushed into the u-ring by x_k -> p_k / k."""
    power_sums = [orbit_char_u(Partition((k,)), ctx) * Fraction(1, k) for k in range(1, ctx.N)]
    return substitute(poly, power_sums)


def degenerate_x(Q, ctx):
    """The dependent indeterminate x_Q = p_Q / Q (Q >= N) in x1..x(N-1).

    The orbit column of the one-part partition (Q) is the power sum p_Q.
    """
    return orbit_char_x(Partition((Q,)), ctx) * Fraction(1, Q)


def complete_closed_form(Q, n):
    """h_Q below n in closed form: sum(x^α / prod(α_i!)) over the x^α of
    weighted degree Q, one for each partition of Q (α_i parts equal to i)."""
    terms = {}
    for parts in partitions_of(Q, Q):
        alpha = [0] * (n - 1)
        for part in parts:
            alpha[part - 1] += 1
        terms[tuple(alpha)] = Fraction(1, prod(map(factorial, alpha)))
    return XPoly(n - 1, terms)


def recurrence_schur(p, ctx):
    """The generalized Schur function with every degree of S_Q from the
    e-recurrence, e_k (0 < k < N) the orbit column of (1^k): the route the
    Schur stage took before Newton's identity."""
    n = ctx.N
    k = p.length
    if k == 0:
        return XPoly.one(n - 1)
    es = [orbit_char_x(Partition((1,) * j), ctx) for j in range(1, n)] + [XPoly.one(n - 1)]
    h = [XPoly.one(n - 1)]
    for d in range(1, p.parts[0] + k):
        products = [(1 if j % 2 else -1, es[j - 1], h[d - j]) for j in range(1, min(d, n) + 1)]
        h.append(poly_dot(XPoly, n - 1, products))

    def entry(q):
        return h[q] if q >= 0 else XPoly.zero(n - 1)

    return poly_det([[entry(p.parts[i] - i + j) for j in range(k)] for i in range(k)])


def star_schur(Q, ctx):
    """The elementary Schur function S_Q with every variable negated."""
    n = ctx.N - 1
    return substitute(elementary_schur(Q, ctx), [-XPoly.variable(n, i) for i in range(n)])


def product_one_normal_form(p):
    """Canonical representative modulo (product of all variables) = 1.

    Each monomial is shifted down by its minimum exponent; the resulting
    minimum-zero monomials are a basis of the quotient ring, so two
    polynomials are congruent iff their normal forms are equal.
    """
    out = {}
    for exps, c in p.terms.items():
        low = min(exps)
        key = tuple(e - low for e in exps)
        out[key] = out.get(key, 0) + c
    return type(p)(p.nvars, out)


def multiplied_out_factorization(p, ctx):
    """The factorization audit done in full: the reference for ``verify_factorization``.

    The Schur function in u (x_k replaced by p_k / k) is multiplied by
    every factor u_i - u_j of the Vandermonde, and the alternant minus
    that product is returned in the product-one normal form; it is zero
    exactly when the audit passes.
    """
    n = ctx.N
    product = in_power_sums(generalized_schur(p, ctx), ctx)
    u = [UPoly.variable(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            product = product * (u[i] - u[j])
    alternant = monomial_alternant(p.parts, n)
    return product_one_normal_form(alternant) - product_one_normal_form(product)


def expanded_difference(report):
    """A factorization report's coefficients of alternants expanded into u,
    sum(c a_(μ+δ)), in the product-one normal form."""
    n = report.context.N
    products = [(c, monomial_alternant(mu.parts, n), None) for mu, c in report.difference.items()]
    return product_one_normal_form(poly_dot(UPoly, n, products))


def orbit_equation(table):
    """The paper's equation for a multiplicity table, as its difference
    sum(K_ν orbit_char_x(ν)) - S_λ; zero when the table is right."""
    target = table.highest_weight
    ctx = target.context
    products = [(-1, generalized_schur(target.to_partition(), ctx), None)]
    products += [(mult, orbit_char_x(member.to_partition(), ctx), None) for member, mult in table]
    return poly_dot(XPoly, ctx.N - 1, products)


def product_formula_dimension(w):
    """Weyl's product formula over every positive root pair, equal entries included."""
    n = w.context.N
    vec = w.mu_vector()
    shifted = [vec[i] + n - 1 - i for i in range(n)]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= shifted[i] - shifted[j]
            den *= j - i
    value, rem = divmod(num, den)
    assert not rem, (num, den)
    return value


def evaluate(poly, point):
    """Exact value of a polynomial at a point (one coordinate per variable)."""
    if len(point) != poly.nvars:
        raise ValueError(f"expected {poly.nvars} coordinates, got {len(point)}")
    total = 0
    for exps, coeff in poly.terms.items():
        for value, e in zip(point, exps):
            coeff *= value**e
        total += coeff
    return total


def product_one_point(n, rng):
    """Distinct random rationals whose product is one."""
    values = set()
    while len(values) < n - 1:
        values.add(Fraction(rng.randint(1, 30), rng.randint(1, 30)))
    us = sorted(values)
    prod = Fraction(1)
    for u in us:
        prod *= u
    last = 1 / prod
    if last in values:
        return product_one_point(n, rng)
    us.append(last)
    return us


def power_sum_values(us):
    """The x-coordinates induced by a u-point: i-th power sum over i."""
    return [sum(u**i for u in us) / i for i in range(1, len(us))]


def fraction_det(matrix):
    """Plain Gaussian-elimination determinant over Fractions (oracle use)."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return det


def character_value(parts, us):
    """Alternant-quotient character value at a u-point (bialternant oracle)."""
    n = len(us)
    q = list(parts) + [0] * (n - len(parts))
    num = fraction_det([[us[i] ** (q[j] + n - 1 - j) for j in range(n)] for i in range(n)])
    den = fraction_det([[us[i] ** (n - 1 - j) for j in range(n)] for i in range(n)])
    return num / den


def monomial_alternant(parts, n):
    """det [u_i ^ (q_j + n - 1 - j)] of the padded partition q, by poly_det."""
    q = list(parts) + [0] * (n - len(parts))
    exps = [q[j] + n - 1 - j for j in range(n)]
    matrix = [
        [UPoly(n, {tuple(e if k == i else 0 for k in range(n)): 1}) for e in exps]
        for i in range(n)
    ]
    return poly_det(matrix)


def kostka_backtrack(shape, content):
    """Semistandard fillings of ``shape`` with ``content``, one tableau at a time.

    The reference for ``oracle.kostka``: backtracking over the cells in row
    order with an explicit stack, trying each value still left in the
    content.  Only for small shapes; it walks every dead end.
    """
    counts = list(content)
    rows = shape.parts
    nvals = len(counts)
    cells = [(r, c) for r in range(len(rows)) for c in range(rows[r])]
    grid = [[0] * rows[r] for r in range(len(rows))]
    if not cells:
        return 1
    total = 0
    # the value in each filled cell, then the cell being filled (0 before
    # its first value); popping a cell returns to the one before it
    stack = [0]
    while stack:
        pos = len(stack) - 1
        r, c = cells[pos]
        val = stack[pos]
        if val:
            counts[val - 1] += 1
        else:
            val = grid[r][c - 1] - 1 if c else 0
            if r and grid[r - 1][c] > val:
                val = grid[r - 1][c]
        # the next value above val still left in the content
        val += 1
        while val <= nvals and not counts[val - 1]:
            val += 1
        if val > nvals:
            stack.pop()
            continue
        counts[val - 1] -= 1
        grid[r][c] = val
        stack[pos] = val
        if pos + 1 < len(cells):
            stack.append(0)
        else:
            total += 1
    return total
