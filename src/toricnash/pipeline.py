"""End-to-end driver: one blowup order per step, iterate until smooth.

Each step starts again from the original generator matrix with the order
raised by one; the algorithm never recurses into charts.
"""

import json
import time
from dataclasses import dataclass, field

from . import lattice_geometry, semigroup
from .minors import BudgetExceeded, check_budget, nonzero_minor_exponents
from .monomial_jacobian import build_coeff_matrix

__all__ = ["InputError", "BudgetExceeded", "StepConfig", "StepReport",
           "ResolutionReport", "nash_step", "resolve", "report_to_json",
           "step_report_from_dict", "resolution_report_from_dict"]


class InputError(Exception):
    """The generator set fails a precondition (span or essentiality)."""


@dataclass(frozen=True)
class StepConfig:
    mode: str = "pruned"
    budget_nodes: int | None = None   # None: minors.DEFAULT_BUDGET[mode]


@dataclass(frozen=True)
class StepReport:
    order: int
    m_rows: int
    d_cols: int
    shift: tuple
    exponents: tuple             # canonical form
    charts: tuple
    essential_count: int
    all_smooth: bool
    search_nodes: int
    search_mode: str
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class ResolutionReport:
    generators: tuple
    dimension: int
    steps: tuple
    verdict: str                 # "smooth_at_order" | "budget_exhausted"
    order: int


def validate_input(A):
    """Reject generator sets outside the algorithm's hypotheses."""
    if not lattice_geometry.zspan_is_full(A.columns):
        raise InputError("generators do not span Z^%d as a lattice" % A.d)
    kind, cert = lattice_geometry.origin_certificate(A.columns)
    if kind == "inside":
        raise InputError(
            "input is not essential: 0 is the convex combination with "
            "weights %s" % (tuple(str(c) for c in cert),))


def nash_step(A, n, config=StepConfig()):
    """Run a single order-n step: minors, exponent set, chart analysis."""
    validate_input(A)
    t0 = time.perf_counter()
    plan = check_budget(A, n, config.mode, config.budget_nodes)
    L = build_coeff_matrix(A, n)
    stats = {}
    S = nonzero_minor_exponents(L, mode=config.mode, stats=stats, plan=plan)
    charts = tuple(semigroup.analyze_chart(A, S, m0) for m0 in S.exponents)
    essential = [c for c in charts if c.essential]
    return StepReport(
        order=n,
        m_rows=L.shape[0],
        d_cols=L.shape[1],
        shift=S.shift,
        exponents=S.exponents,
        charts=charts,
        essential_count=len(essential),
        all_smooth=all(c.smooth for c in essential),
        search_nodes=stats["nodes"],
        search_mode=stats["mode"],
        elapsed=time.perf_counter() - t0,
    )


def resolve(A, max_n, config=StepConfig()):
    """Raise the order from 1 to max_n, stopping at the first smooth step.

    When the budget refuses an order, the BudgetExceeded raised names that
    order and carries, as .report, the steps finished before it.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    steps = []

    def report(verdict, order):
        return ResolutionReport(generators=A.columns, dimension=A.d,
                                steps=tuple(steps), verdict=verdict,
                                order=order)

    for n in range(1, max_n + 1):
        try:
            step = nash_step(A, n, config)
        except BudgetExceeded as e:
            stop = BudgetExceeded("order %d: %s" % (n, e))
            stop.report = report("budget_exhausted", n - 1)
            raise stop from e
        steps.append(step)
        if step.all_smooth:
            return report("smooth_at_order", n)
    return report("budget_exhausted", max_n)


# --- JSON serialization ----------------------------------------------------

def report_to_json(r):
    """One JSON object, keyed by the report's own fields in their order."""
    return json.dumps(r, default=vars)


def _tuples(v):
    """JSON lists back to tuples, at every depth."""
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def _fields(d):
    return {k: _tuples(v) for k, v in d.items()}


def step_report_from_dict(d):
    charts = tuple(semigroup.Chart(**_fields(c)) for c in d["charts"])
    return StepReport(**{**_fields(d), "charts": charts})


def resolution_report_from_dict(d):
    steps = tuple(map(step_report_from_dict, d["steps"]))
    return ResolutionReport(**{**_fields(d), "steps": steps})
