"""Benchmark inputs: the three workloads and the seeded change of coordinates.

cq-resolve   `resolve --max-order 2` on the 17 cyclic-quotient surfaces
             whose cone is cone((1,0),(p,r)) with 1 <= p < r <= 7 and
             gcd(p, r) = 1; A is the cone's Hilbert basis.  Many small
             steps, LP-heavy; (2,5) is the reference surface of the tests.
tall-minors  `step --order 2` on the A6 cone (1,0),(1,1),...,(1,6): a
             35x5 matrix whose search for S dominates the step.
cone3-n2     `step --order 2` on {e1,e2,e3,e1+e2+e3}: the only d >= 3
             input, dominated by the 3-D essential-test LPs.
"""

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

# args: CLI subcommand and its order flag; --input and --emit are added by
# the runner, every other flag keeps the program's default.
Item = namedtuple("Item", "key args generators")

WORKLOADS = ("cq-resolve", "tall-minors", "cone3-n2")


def cyclic_quotient_basis(p, r):
    """Hilbert basis of cone((1,0),(p,r)), sorted by slope."""
    # Every basis element lies in the closed fundamental parallelogram of
    # the two rays, so 0 <= x <= p + 1 and 0 <= y <= r bound the search.
    cone = [(x, y) for y in range(r + 1) for x in range(p + 2)
            if (x, y) != (0, 0) and r * x - p * y >= 0]

    def reducible(v):
        return any(u != v and u[0] <= v[0] and u[1] <= v[1]
                   and r * (v[0] - u[0]) - p * (v[1] - u[1]) >= 0
                   for u in cone)

    return sorted((v for v in cone if not reducible(v)),
                  key=lambda v: Fraction(v[1], v[0]))


def items(workload):
    """The workload's items in reference coordinates."""
    if workload == "cq-resolve":
        return [Item("cq-%d-%d" % (p, r), ("resolve", "--max-order", "2"),
                     cyclic_quotient_basis(p, r))
                for r in range(2, 8) for p in range(1, r) if gcd(p, r) == 1]
    if workload == "tall-minors":
        return [Item("a6", ("step", "--order", "2"),
                     [(1, i) for i in range(7)])]
    if workload == "cone3-n2":
        return [Item("cone3", ("step", "--order", "2"),
                     [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])]
    raise ValueError("unknown workload %r" % (workload,))


def coordinate_change(seed, d):
    """Seeded unimodular d x d matrix: a coordinate permutation followed by
    one shear row_i += row_j.  Seed 0 is the identity."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    if seed == 0:
        return U
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    U = [U[k] for k in perm]
    i, j = rng.sample(range(d), 2)
    U[i] = [a + b for a, b in zip(U[i], U[j])]
    return U


def apply(U, v):
    return tuple(sum(u * x for u, x in zip(row, v)) for row in U)


def moved(item, U):
    """`step --order 1` on the item's generators mapped by U, order kept.

    Order 1 keeps the covariance check cheap: a moved order-2 pass costs as
    much as a timed pass, which the run's time budget cannot spare.
    """
    return Item(item.key + "@1", ("step", "--order", "1"),
                [apply(U, g) for g in item.generators])
