"""Enumeration of the non-vanishing maximal minors of the coefficient matrix.

Each D-row subset J with det != 0 contributes the exponent
A*beta_1 + ... + A*beta_D; after subtracting the global shift
sigma_n = sum of all alpha in Lambda_{d,n} this is the canonical form in
which chart centers are reported.  One scan visits the C(M, D) row
subsets in lex order and keeps the first witness of each exponent.  Mode
"pruned" skips, without a determinant, the subsets that the matrix's
triangular structure by degree makes singular; mode "naive" evaluates
every subset and is the reference the tests compare against.
"""

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import lt

from .multiindex import enumerate_lambda


class BudgetExceeded(Exception):
    """The minor search needs more row subsets than its node ceiling."""


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
    witnesses: dict = field(compare=False, repr=False, default=None)

    def raw(self):
        """Unshifted exponents m_J = A*beta_1 + ... + A*beta_D."""
        return tuple(tuple(a + b for a, b in zip(e, self.shift))
                     for e in self.exponents)

    def __contains__(self, m):
        return tuple(m) in set(self.exponents)

    def __len__(self):
        return len(self.exponents)


def sigma_shift(d, n):
    """Coordinate-wise sum of all alpha in Lambda_{d,n}."""
    sigma = [0] * d
    for alpha in enumerate_lambda(d, n):
        for i, a in enumerate(alpha):
            sigma[i] += a
    return tuple(sigma)


def _row_sums(L):
    """A*beta for each row beta of the coefficient matrix."""
    return [L.A.apply(beta) for beta in L.row_index]


def nonzero_minor_exponents(L, mode="pruned", budget_nodes=None, stats=None):
    """The set S of canonical exponents of non-vanishing maximal minors.

    Both modes scan the C(M, D) row subsets in lex order, so each exponent
    keeps its lex-first witness.  Mode "naive" evaluates a determinant per
    subset; mode "pruned" first drops subsets that are singular by degree
    alone.  budget_nodes caps C(M, D) and is checked before the scan.
    """
    if mode not in ("naive", "pruned"):
        raise ValueError("unknown mode %r" % (mode,))
    M, D = L.shape
    if M < D:
        raise ValueError("degenerate input: %d rows but %d columns" % (M, D))
    nodes = comb(M, D)
    if budget_nodes is not None and nodes > budget_nodes:
        raise BudgetExceeded("minor search needs C(%d, %d) = %d row subsets, "
                             "budget %d" % (M, D, nodes, budget_nodes))
    scaled = L.scaled_entries()
    row_sums = _row_sums(L)
    sigma = sigma_shift(L.A.d, L.order)
    # c_{beta,alpha} = 0 when |alpha| < |beta|, and rows and columns are
    # sorted by degree.  If the i-th chosen row has a higher degree than
    # column i, the last D - i rows vanish on the first i + 1 columns and
    # the minor is 0.  bound[i] counts the rows of degree <= deg(column i),
    # so mode "pruned" skips any subset with rows[i] >= bound[i].
    row_deg = [sum(beta) for beta in L.row_index]
    bound = [bisect_right(row_deg, sum(alpha)) for alpha in L.col_index]
    pruned = mode == "pruned"
    found = {}
    for rows in combinations(range(M), D):
        if pruned and not all(map(lt, rows, bound)):
            continue
        if det_exact([scaled[r] for r in rows]) == 0:
            continue
        m = [0] * L.A.d
        for r in rows:
            for i, v in enumerate(row_sums[r]):
                m[i] += v
        key = tuple(a - b for a, b in zip(m, sigma))
        if key not in found:
            found[key] = tuple(L.row_index[r] for r in rows)

    if stats is not None:
        stats["nodes"] = nodes
        stats["mode"] = mode
    exps = tuple(sorted(found))
    return ExponentSet(order=L.order, shift=sigma, exponents=exps,
                       witnesses={e: found[e] for e in exps})
