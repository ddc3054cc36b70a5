"""The exponent set S of the non-vanishing maximal minors.

Each D-row subset J of the coefficient matrix with det != 0 contributes
the exponent m_J = A*beta_1 + ... + A*beta_D; after subtracting the
global shift sigma_n = sum of all alpha in Lambda_{d,n} this is the
canonical form in which chart centers are reported.

The default mode ("pruned") looks at no row subset.  With C the scaled
M x D matrix and w_r = A*beta_r the weight of row r, Cauchy-Binet gives

    det(C^T diag(t^{w_r}) C) = sum_J det(C_J)^2 t^{m_J},

so S is the support of one Laurent polynomial in d variables.  The
search evaluates that determinant mod one proved prime on a grid of
roots of unity that covers the support exactly, in coordinates that make
the grid small, and reads the support off an inverse DFT.  Where the
C(M, D) row subsets are fewer than the grid's points, as with few rows
and large coordinates, it scans the subsets instead.  Mode "naive"
always scans the C(M, D) row subsets in lex order and takes every
determinant; it is the reference the tests compare against, and it
supplies each exponent's lex-first witness subset.

A node of either search is one D x D determinant, of a row subset or at
an evaluation point.  The budget caps the nodes before the matrix is
built; its default depends on the mode.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd, lcm, log10, prod
from operator import add, mul

from .multiindex import enumerate_lambda, lambda_size


class BudgetExceeded(Exception):
    """The minor search needs more nodes than its budget."""


# Node budget when none is given: row subsets in mode "naive", points or
# row subsets, whichever the search takes, in mode "pruned".
DEFAULT_BUDGET = {"naive": 5_000_000, "pruned": 50_000}


def det_exact(mat):
    """Exact determinant of a square integer matrix (Bareiss)."""
    m = [list(map(int, row)) for row in mat]
    k = len(m)
    if any(len(row) != k for row in m):
        raise ValueError("matrix is not square")
    if k == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(k - 1):
        if m[i][i] == 0:
            for r in range(i + 1, k):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[k - 1][k - 1]


@dataclass(frozen=True)
class ExponentSet:
    """Canonical exponents of the non-zero maximal minors, lex-sorted."""

    order: int
    shift: tuple                      # sigma_n
    exponents: tuple                  # canonical: m_J - sigma_n
    matrix: object = field(compare=False, repr=False, default=None)
    members: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.exponents))

    @cached_property
    def witnesses(self):
        """Lex-first witness row subset of each exponent.

        The naive scan computes them when this is first read.
        """
        return _scan(self.matrix, self.shift)

    def raw(self):
        """Unshifted exponents m_J = A*beta_1 + ... + A*beta_D."""
        return tuple(tuple(a + b for a, b in zip(e, self.shift))
                     for e in self.exponents)

    def __contains__(self, m):
        return tuple(m) in self.members

    def __len__(self):
        return len(self.exponents)


def sigma_shift(d, n):
    """Coordinate-wise sum of all alpha in Lambda_{d,n}."""
    sigma = [0] * d
    for alpha in enumerate_lambda(d, n):
        for i, a in enumerate(alpha):
            sigma[i] += a
    return tuple(sigma)


def _reduction(weights, D):
    """Rows of a unimodular U that narrow the box of S, with loose widths.

    The loose width of u is the spread of u.m_J over every D-subset J,
    plus one: the sum of the D largest u.w_r minus the D smallest.  Each
    next row of U is the narrowest primitive u in [-R, R]^d that still
    extends the rows so far to a basis of Z^d, that is, the gcd of their
    k x k minors is 1.  R = 1 above d = 3 keeps the candidates few; should
    the greedy pass then stop short of d rows, U is the identity.
    """
    d = len(weights[0])
    radius = 4 if d <= 3 else 1
    width = {}
    for u in product(range(-radius, radius + 1), repeat=d):
        if gcd(*u) != 1 or next(x for x in u if x) < 0:
            continue                  # primitive u only, one of u and -u
        dots = sorted(sum(map(mul, u, w)) for w in weights)
        width[u] = sum(dots[-D:]) - sum(dots[:D]) + 1
    U = []
    for u in sorted(width, key=lambda u: (width[u], u)):
        rows = U + [u]
        if gcd(*(det_exact([[r[c] for c in cols] for r in rows])
                 for cols in combinations(range(d), len(rows)))) == 1:
            U.append(u)
            if len(U) == d:
                break
    if len(U) < d:
        U = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return U, [width[u] for u in U]


def _plan(weights, D, mode, budget_nodes):
    """Choose the search and check its nodes against the budget.

    Returns ("scan", None) or ("interpolate", U).  Mode "naive" always
    scans the C(M, D) row subsets.  Mode "pruned" interpolates over the
    points of the loose box in U-coordinates unless the row subsets are
    no more.  Both counts come from the row weights alone.  A budget of
    None is the mode's DEFAULT_BUDGET.
    """
    if mode not in DEFAULT_BUDGET:
        raise ValueError("unknown mode %r" % (mode,))
    if budget_nodes is None:
        budget_nodes = DEFAULT_BUDGET[mode]
    M = len(weights)
    if M < D:
        raise ValueError("degenerate input: %d rows but %d columns" % (M, D))
    plan, nodes = ("scan", None), comb(M, D)
    if mode == "pruned":
        U, widths = _reduction(weights, D)
        if prod(widths) < nodes:
            plan, nodes = ("interpolate", U), prod(widths)
            what = "up to %d evaluation points (box %s)" % (
                nodes, " x ".join(map(str, widths)))
    if nodes > budget_nodes:
        if plan[0] == "scan":       # str() refuses ints of over 4300 digits
            count = ("= %d" % nodes if nodes < 10 ** 100
                     else "~ 10^%d" % (nodes.bit_length() * log10(2)))
            what = "C(%d, %d) %s row subsets" % (M, D, count)
        raise BudgetExceeded("minor search needs %s, budget %d"
                             % (what, budget_nodes))
    return plan


def check_budget(A, n, mode, budget_nodes):
    """Plan the order-n search, refusing it before its matrix is built.

    Only M, D and the row weights A*beta enter, so no entry is computed.
    The loose box holds the exact one, so an admitted search stays in
    budget.  The plan returned is what nonzero_minor_exponents takes.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    weights = [A.apply(beta) for beta in enumerate_lambda(A.s, n)]
    return _plan(weights, lambda_size(A.d, n), mode, budget_nodes)


def _scan(L, sigma):
    """{canonical exponent: lex-first witness} by a determinant per subset."""
    scaled = L.scaled_entries()
    weights = [L.A.apply(beta) for beta in L.row_index]
    found = {}
    for rows in combinations(range(L.shape[0]), L.shape[1]):
        if det_exact([scaled[r] for r in rows]) == 0:
            continue
        m = [0] * L.A.d
        for r in rows:
            for i, v in enumerate(weights[r]):
                m[i] += v
        key = tuple(a - b for a, b in zip(m, sigma))
        if key not in found:
            found[key] = tuple(L.row_index[r] for r in rows)
    return {e: found[e] for e in sorted(found)}


def _greedy_basis(C, order, D):
    """Matroid greedy: the rows of C, in the given order, that raise the
    rank over Q; kept in integer echelon form."""
    echelon = []
    chosen = []
    for r in order:
        v = C[r]
        for j, b in echelon:
            if v[j]:
                f, g = b[j], v[j]
                v = [f * x - g * y for x, y in zip(v, b)]
        if any(v):
            g = gcd(*v)
            v = [x // g for x in v]
            echelon.append((next(j for j, x in enumerate(v) if x), v))
            chosen.append(r)
            if len(chosen) == D:
                break
    return chosen


def _proved_prime(modulus, bound):
    """Least p = c*modulus*2^k + 1 > bound with c*modulus < 2^k that
    Pocklington's criterion proves prime: some a has a^((p-1)/2) = -1
    mod p, and 2^k > sqrt(p)."""
    k = max(modulus.bit_length(), (bound.bit_length() + 1) // 2) + 2
    while True:
        F = 1 << k
        c = bound // (modulus * F) + 1
        while c * modulus < F:
            p = c * modulus * F + 1
            if pow(2, p - 1, p) == 1:
                for a in range(2, 100):
                    x = pow(a, (p - 1) // 2, p)
                    if x == p - 1:
                        return p
                    if x != 1:
                        break         # p is composite
            c += 1
        k += 1


def _root_of_unity(W, p):
    """An element of exact order W mod p, where W divides p - 1."""
    primes = [q for q in range(2, W + 1)
              if W % q == 0 and all(q % f for f in range(2, q))]
    for h in range(2, p):
        w = pow(h, (p - 1) // W, p)
        if all(pow(w, W // q, p) != 1 for q in primes):
            return w


def _det_mod(m, p):
    """Determinant mod p by elimination; m is consumed.

    Rows are combined without division, each such step scaling the
    determinant by the pivot, so one inversion at the end undoes them.
    """
    det = scale = 1
    while m:
        piv = next((r for r, row in enumerate(m) if row[0]), None)
        if piv is None:
            return 0
        if piv:
            m[0], m[piv] = m[piv], m[0]
            det = -det
        x = m[0][0]
        tail = m[0][1:]
        det = det * x % p
        rest = []
        for row in m[1:]:
            f = row[0]
            if f:
                rest.append([(x * a - f * b) % p
                             for a, b in zip(row[1:], tail)])
                scale = scale * x % p
            else:
                rest.append(row[1:])
        m = rest
    return det * pow(scale, -1, p) % p


def _support(C, weights, U, D):
    """The raw exponents m_J of the non-zero minors of C, and the number
    of evaluation points.

    The result is exact.  Each coefficient of sum_J det(C_J)^2 t^{m_J}
    is a sum of squares, so none cancels, and it lies in [0, B] with
    B = det(C^T C), its value at t = 1; as p > B it is non-zero mod p
    exactly when it is non-zero.  Along each row u of U the extent of
    u.m_J is attained by a minimum- and a maximum-weight basis of the row
    matroid, so a grid of W_i = hi - lo + 1 roots of unity per axis holds
    the whole support with no two exponents on the same residue.
    """
    d = len(U)
    V = [tuple(sum(map(mul, u, w)) for u in U) for w in weights]
    lo, W = [], []
    for i in range(d):
        order = sorted(range(len(V)), key=lambda r: V[r][i])
        low = _greedy_basis(C, order, D)
        if len(low) < D:
            return [], 0              # rank < D: every minor vanishes
        high = _greedy_basis(C, order[::-1], D)
        lo.append(sum(V[r][i] for r in low))
        W.append(sum(V[r][i] for r in high) - lo[-1] + 1)

    # Gram matrix of each weight class, upper triangle, in Z.
    upper = [(a, b) for a in range(D) for b in range(a, D)]
    grams = {}
    for v, c in zip(V, C):
        outer = [c[a] * c[b] for a, b in upper]
        grams[v] = list(map(add, grams[v], outer)) if v in grams else outer
    total = [sum(col) for col in zip(*grams.values())]
    full = [[0] * D for _ in range(D)]
    for (a, b), x in zip(upper, total):
        full[a][b] = full[b][a] = x
    p = _proved_prime(lcm(*W), det_exact(full))
    roots = [_root_of_unity(w, p) for w in W]
    powers = [[pow(r, e, p) for e in range(w)] for r, w in zip(roots, W)]

    # G(y) = sum over weight classes of y^v * Gram; det G at every point.
    cols = [(ab, col) for ab, col in zip(upper, zip(*grams.values()))
            if any(col)]
    tables = [[[pw[k * v[i] % w] for v in grams] for k in range(w)]
              for i, (pw, w) in enumerate(zip(powers, W))]
    vals = []
    for ks in product(*tables):
        xs = ks[0]
        for t in ks[1:]:
            xs = [a * b % p for a, b in zip(xs, t)]
        m = [[0] * D for _ in range(D)]
        for (a, b), col in cols:
            m[a][b] = m[b][a] = sum(map(mul, xs, col)) % p
        vals.append(_det_mod(m, p))

    # Inverse DFT, one axis at a time (up to the unit factor prod W).
    stride = prod(W)
    for pw, w in zip(powers, W):
        stride //= w
        inverse = [[pw[-k * e % w] for k in range(w)] for e in range(w)]
        for base in range(len(vals)):
            if base // stride % w:
                continue
            line = vals[base:base + w * stride:stride]
            for e, row in enumerate(inverse):
                vals[base + e * stride] = sum(map(mul, line, row)) % p

    # Residues back to U-coordinates in [lo, hi], then to m = U^-1 z.
    sign = det_exact(U)
    inv = [[sign * (-1) ** (i + j) * det_exact(
        [r[:i] + r[i + 1:] for k, r in enumerate(U) if k != j])
        for j in range(d)] for i in range(d)]
    out = []
    for flat, x in enumerate(vals):
        if not x:
            continue
        z = []
        for l, w in zip(reversed(lo), reversed(W)):
            flat, e = divmod(flat, w)
            z.append(l + (e - l) % w)
        z.reverse()
        out.append(tuple(sum(map(mul, row, z)) for row in inv))
    return out, len(vals)


def nonzero_minor_exponents(L, mode="pruned", budget_nodes=None, stats=None,
                            plan=None):
    """The set S of canonical exponents of non-vanishing maximal minors.

    Mode "pruned" interpolates the Cauchy-Binet determinant, or scans the
    row subsets where they are fewer than its points.  Mode "naive" takes
    the determinant of each of the C(M, D) row subsets.  budget_nodes caps
    the nodes and is checked before the search starts.  A plan from
    check_budget for the same input and order stands for that check.
    """
    M, D = L.shape
    weights = [L.A.apply(beta) for beta in L.row_index]
    if plan is None:
        plan = _plan(weights, D, mode, budget_nodes)
    search, U = plan
    sigma = sigma_shift(L.A.d, L.order)
    if search == "scan":
        exps = tuple(_scan(L, sigma))
        nodes = comb(M, D)
    else:
        raw, nodes = _support(L.scaled_entries(), weights, U, D)
        exps = tuple(sorted(tuple(a - b for a, b in zip(m, sigma))
                            for m in raw))
    if stats is not None:
        stats["nodes"] = nodes
        stats["mode"] = mode
    return ExponentSet(order=L.order, shift=sigma, exponents=exps, matrix=L)
