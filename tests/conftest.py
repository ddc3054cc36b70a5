"""Shared fixtures and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations

import pytest

from toricnash.monomial_jacobian import GeneratorMatrix

# Reference surface used throughout: four generators in Z^2.
SURFACE = GeneratorMatrix(columns=((1, 0), (1, 1), (1, 2), (2, 5)))

CONE3 = GeneratorMatrix(columns=((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))

S1_EXPECTED = ((1, 0), (1, 1), (1, 2), (2, 4), (2, 5), (2, 6))


def s2_expected():
    out = []
    for x, lo, hi in [(3, 0, 8), (4, 0, 11), (5, 4, 15),
                      (6, 8, 18), (7, 12, 21), (8, 16, 24)]:
        out.extend((x, y) for y in range(lo, hi + 1))
    return tuple(out)


S2_EXPECTED = s2_expected()


def cyclic_quotient(p, r):
    """A = Hilbert basis of cone((1,0),(p,r)): its irreducible points.

    The cone lies in the first quadrant, so a summand of a point is below
    it in both coordinates, and the Hilbert basis lies in the closed
    fundamental parallelogram, inside the box x <= p + 1, y <= r.
    """
    cone = {(x, y) for x in range(p + 2) for y in range(r + 1)
            if (x, y) != (0, 0) and r * x - p * y >= 0}
    return GeneratorMatrix(columns=tuple(sorted(
        v for v in cone
        if not any((v[0] - u[0], v[1] - u[1]) in cone for u in cone))))


@pytest.fixture
def surface():
    return SURFACE


def det_cofactor(mat):
    """Brute-force determinant by first-row cofactor expansion."""
    k = len(mat)
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        if mat[0][j]:
            sub = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_cofactor(sub)
    return total


def det_gauss(mat):
    """Exact determinant of a rational matrix by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in mat]
    k = len(m)
    det = Fraction(1)
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, k):
            if m[r][i]:
                f = m[r][i] / m[i][i]
                m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def rank_rational(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def exhaustive_member(target, gens, weight_cap):
    """Whether target is an N-combination of gens, by plain enumeration of
    all multiplier vectors with total count <= weight_cap."""
    target = tuple(target)
    zero = (0,) * len(target)

    def rec(t, i, budget):
        if t == zero:
            return True
        if i == len(gens) or budget == 0:
            return False
        g = gens[i]
        cur = t
        for k in range(budget + 1):
            if rec(cur, i + 1, budget - k):
                return True
            cur = tuple(a - b for a, b in zip(cur, g))
        return False

    return rec(target, 0, weight_cap)


def chart_certificate_holds(gens, w, irreducibles=()):
    """Check the certificate of one chart verdict in integers only.

    With w None the chart is skipped: some generator g has -g among the
    generators, so 0 = (g + (-g)) / 2 lies in their convex hull.  Otherwise
    w.g >= 1 for every generator shows that 0 lies outside the hull (the
    chart is essential), and the irreducibles are its minimal generators:
    each is a generator of w-weight 1, so it is no sum of two nonzero
    elements, and every generator is a sum of exactly w.g of them.  When
    there are d irreducibles they must also have det = +-1.
    """
    gens = {tuple(g) for g in gens}
    if w is None:
        return any(tuple(-x for x in g) in gens for g in gens)

    def weight(v):
        return sum(a * b for a, b in zip(w, v))

    irreducibles = [tuple(h) for h in irreducibles]
    if any(weight(g) < 1 for g in gens):
        return False
    if not all(h in gens and weight(h) == 1 for h in irreducibles):
        return False
    if (len(irreducibles) == len(w)
            and abs(det_cofactor([list(h) for h in irreducibles])) != 1):
        return False
    return all(exhaustive_member(g, irreducibles, weight(g)) for g in gens)


def random_poly(rng, nvars, max_degree, n_terms=3, coeff_range=3):
    from toricnash.jets import Poly
    terms = {}
    for _ in range(n_terms):
        expo = [0] * nvars
        deg = rng.randint(0, max_degree)
        for _ in range(deg):
            expo[rng.randrange(nvars)] += 1
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[tuple(expo)] = terms.get(tuple(expo), 0) + c
    return Poly(nvars, terms)


def jet_exponent_oracle(A, n, x):
    """Exponent set computed straight from truncated Taylor expansions at x,
    bypassing the coefficient-matrix machinery entirely.  Requires the
    generator exponents to be non-negative."""
    from toricnash.jets import Poly, jet_jacobian
    from toricnash.minors import sigma_shift
    from toricnash.multiindex import enumerate_lambda
    g = [Poly.monomial(A.d, c) for c in A.columns]
    JM = jet_jacobian(g, x, n)
    rows_idx = enumerate_lambda(A.s, n)
    D = len(enumerate_lambda(A.d, n))
    sigma = sigma_shift(A.d, n)
    found = set()
    for rows in combinations(range(len(rows_idx)), D):
        if det_gauss([JM.entries[r] for r in rows]) != 0:
            m = [0] * A.d
            for r in rows:
                for i, v in enumerate(A.apply(rows_idx[r])):
                    m[i] += v
            found.add(tuple(a - b for a, b in zip(m, sigma)))
    return found
