"""Walk the reference surface A = {(1,0),(1,1),(1,2),(2,5)} through
orders 1 to max_order (default 2; at 3 it resolves) and print every
chart with its certificate data.

Usage: python3 scripts/surface_demo.py [max_order]
"""

import sys

from toricnash.lattice_geometry import positive_functional
from toricnash.monomial_jacobian import GeneratorMatrix
from toricnash.pipeline import nash_step

A = GeneratorMatrix(columns=((1, 0), (1, 1), (1, 2), (2, 5)))


def main():
    max_order = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    for n in range(1, max_order + 1):
        step = nash_step(A, n)
        print("== order %d: %dx%d matrix, |S| = %d, %d search nodes "
              "(%.3fs) ==" % (n, step.m_rows, step.d_cols,
                              len(step.exponents), step.search_nodes,
                              step.elapsed))
        for c in step.charts:
            if not c.essential:
                print("  %-8s skipped (origin in hull)" % (str(c.center),))
                continue
            w = positive_functional(list(c.generators))
            status = "smooth" if c.smooth else "SINGULAR"
            print("  %-8s %-8s w=%s  minimal gens: %s"
                  % (str(c.center), status, w,
                     " ".join(map(str, c.minimal_generators))))
        print("order %d verdict: %s" % (
            n, "smooth" if step.all_smooth else "singular"))
        print()


if __name__ == "__main__":
    main()
