"""Exact convex geometry over Q and lattice span checks over Z.

Whether the origin lies in the convex hull of a finite point set is
decided exactly, by one phase-one simplex over the rationals.  Both
possible certificates are re-verified by substitution before being
returned: a convex combination hitting 0, or an integer functional w with
w.p >= 1 on every point (the Farkas dual).
"""

from fractions import Fraction
from math import lcm


def _phase_one(points):
    """Exact simplex for: lambda >= 0, sum lambda = 1, sum lambda p = 0.

    Returns ("inside", lambdas) or ("outside", w) with w a list of
    Fractions satisfying w.p >= 1 for every point.  Bland's rule keeps
    the pivoting cycle-free.
    """
    d = len(points[0])
    k = len(points)
    m = d + 1
    # Constraint rows: coordinates == 0, then sum-to-one == 1.
    # Columns: k lambdas, m artificials, rhs.  All rhs are >= 0 already.
    rows = []
    for i in range(d):
        rows.append([Fraction(p[i]) for p in points]
                    + [Fraction(int(j == i)) for j in range(m)] + [Fraction(0)])
    rows.append([Fraction(1)] * k
                + [Fraction(int(j == d)) for j in range(m)] + [Fraction(1)])
    basis = list(range(k, k + m))
    # z-row holds z_j - c_j for the phase-one objective (sum of artificials).
    z = [Fraction(0)] * (k + m + 1)
    for row in rows:
        for j in range(k + m + 1):
            z[j] += row[j]
    for j in range(k, k + m):
        z[j] -= 1

    while True:
        enter = None
        for j in range(k + m):
            if z[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best
                                                   and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded by 0")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if z[enter]:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, rows[leave])]
        basis[leave] = enter

    if z[-1] == 0:
        lambdas = [Fraction(0)] * k
        for i, b in enumerate(basis):
            if b < k:
                lambdas[b] = rows[i][-1]
        return "inside", lambdas
    # Dual values from the artificial columns: y_j = (z_j - c_j) + 1.
    y = [z[k + j] + 1 for j in range(m)]
    t = y[d]
    if t <= 0:
        raise AssertionError("infeasible LP must have positive dual weight")
    w = [-u / t for u in y[:d]]
    return "outside", w


def _check_inside(points, lambdas):
    # Zero weights add nothing to any sum, so only the support is summed.
    support = [(l, p) for l, p in zip(lambdas, points) if l]
    if any(l < 0 for l, _ in support) or sum(l for l, _ in support) != 1:
        return False
    return all(sum(l * p[i] for l, p in support) == 0
               for i in range(len(points[0])))


def origin_certificate(points):
    """("inside", lambdas) or ("outside", w) with the certificate verified.

    lambdas are Fractions; w is an integer vector with w.p >= 1 for all p.
    """
    points = [tuple(p) for p in points]
    if not points:
        raise ValueError("empty point set")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    kind, cert = _phase_one(points)
    if kind == "inside":
        if not _check_inside(points, cert):
            raise AssertionError("convex-combination certificate failed")
        return kind, cert
    denom = lcm(*[f.denominator for f in cert]) if cert else 1
    w = tuple(int(f * denom) for f in cert)
    if any(sum(wi * pi for wi, pi in zip(w, p)) < 1 for p in points):
        raise AssertionError("separating functional failed verification")
    return "outside", w


def contains_origin(points):
    """Whether 0 is a convex combination of the points (exact)."""
    return origin_certificate(points)[0] == "inside"


def positive_functional(points):
    """Integer w with w.p >= 1 for every point, or None if 0 is in the hull."""
    kind, cert = origin_certificate(points)
    return None if kind == "inside" else cert


def zspan_is_full(points):
    """Whether the points generate all of Z^d as a lattice."""
    points = [tuple(int(v) for v in p) for p in points]
    if not points:
        return False
    d = len(points[0])
    if len(points) < d:
        return False
    rows = [list(p) for p in points]
    pivots = []
    col = 0
    r0 = 0
    while col < d and r0 < len(rows):
        # Combine rows to leave a single gcd entry in this column.
        piv = None
        for r in range(r0, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        for r in range(r0 + 1, len(rows)):
            while rows[r][col]:
                q = rows[r0][col] // rows[r][col]
                rows[r0] = [a - q * b for a, b in zip(rows[r0], rows[r])]
                rows[r0], rows[r] = rows[r], rows[r0]
        pivots.append(abs(rows[r0][col]))
        r0 += 1
        col += 1
    if len(pivots) < d:
        return False
    index = 1
    for p in pivots:
        index *= p
    return index == 1
