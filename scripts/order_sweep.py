"""Order sweep for the xy = z^4 surface, A = {(1,0),(-1,4),(0,1)}.

Tracks how |S|, the essential chart count, and the worst chart
(most minimal generators) evolve as the order grows.  The "nodes"
column counts the determinants the minor search takes: evaluation
points, or row subsets where those are fewer.  A step that needs more
nodes than the budget stops before its matrix is built.

Usage: python3 scripts/order_sweep.py [max_order] [budget_nodes]
"""

import sys

from toricnash.minors import BudgetExceeded
from toricnash.monomial_jacobian import GeneratorMatrix
from toricnash.pipeline import StepConfig, nash_step

A = GeneratorMatrix(columns=((1, 0), (-1, 4), (0, 1)))


def main():
    max_order = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    budget = (int(sys.argv[2]) if len(sys.argv) > 2
              else StepConfig.budget_nodes)
    print("A =", " ".join(map(str, A.columns)))
    print("%5s %8s %8s %6s %10s %7s %8s  %s"
          % ("n", "M", "nodes", "|S|", "essential", "worst", "time", ""))
    for n in range(1, max_order + 1):
        try:
            step = nash_step(A, n, StepConfig(budget_nodes=budget))
        except BudgetExceeded as e:
            print("%5d  %s, stopping" % (n, e))
            break
        essential = [c for c in step.charts if c.essential]
        worst = max(len(c.minimal_generators) for c in essential)
        print("%5d %8d %8d %6d %10d %7d %7.2fs  %s"
              % (n, step.m_rows, step.search_nodes,
                 len(step.exponents), len(essential), worst, step.elapsed,
                 "smooth" if step.all_smooth else "singular"))


if __name__ == "__main__":
    main()
