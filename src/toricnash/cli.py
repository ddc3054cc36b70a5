"""Command-line front end.

Subcommands:
  step     run a single order and report charts and verdict
  resolve  iterate the order until every essential chart is smooth
  matrix   dump the coefficient matrix with its exponents
  minors   dump the exponent set S

Input is a JSON document {"d": int, "generators": [[...], ...]}.
Exit codes: 0 success, 1 budget exhausted or no smooth order found,
2 input error, 3 internal error.
"""

import argparse
import json
import sys

from .minors import (DEFAULT_BUDGET, BudgetExceeded, check_budget,
                     nonzero_minor_exponents)
from .monomial_jacobian import GeneratorMatrix, build_coeff_matrix
from .pipeline import (InputError, StepConfig, nash_step, report_to_json,
                       resolve)

EXIT_OK = 0
EXIT_BUDGET = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def load_input(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise InputError("cannot read input file: %s" % e)
    except json.JSONDecodeError as e:
        raise InputError("malformed JSON in %s: %s" % (path, e))
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    d = doc.get("d")
    gens = doc.get("generators")
    if not isinstance(d, int) or d < 1:
        raise InputError("field 'd' must be a positive integer")
    if not isinstance(gens, list) or not gens:
        raise InputError("field 'generators' must be a non-empty list")
    cols = []
    for g in gens:
        if (not isinstance(g, list) or len(g) != d
                or not all(isinstance(v, int) for v in g)):
            raise InputError(
                "field 'generators': entry %r is not an integer vector "
                "of length %d" % (g, d))
        cols.append(tuple(g))
    return GeneratorMatrix(columns=tuple(cols))


def _config(args):
    return StepConfig(mode=args.mode, budget_nodes=args.budget_nodes)


def _grouped_lines(exponents):
    """Exponents grouped by first coordinate, one group per line."""
    groups = {}
    for e in exponents:
        groups.setdefault(e[0], []).append(e)
    lines = []
    for k in sorted(groups):
        lines.append("  " + "  ".join(str(tuple(e)) for e in groups[k]))
    return lines


def _print_chart(c, out):
    if not c.essential:
        print("  center %s: skipped (origin in convex hull)"
              % (tuple(c.center),), file=out)
        return
    status = "smooth" if c.smooth else "singular"
    print("  center %s: essential, %s, minimal generators %s"
          % (tuple(c.center), status,
             " ".join(str(tuple(g)) for g in c.minimal_generators)), file=out)


def _print_step(step, out):
    print("order %d: matrix %dx%d, |S| = %d (canonical form)"
          % (step.order, step.m_rows, step.d_cols, len(step.exponents)),
          file=out)
    for line in _grouped_lines(step.exponents):
        print(line, file=out)
    for c in step.charts:
        _print_chart(c, out)
    verdict = "smooth" if step.all_smooth else "singular"
    print("order %d verdict: %s (%d essential charts)"
          % (step.order, verdict, step.essential_count), file=out)


def cmd_step(args, out):
    A = load_input(args.input)
    step = nash_step(A, args.order, _config(args))
    if args.emit == "json":
        out.write(report_to_json(step) + "\n")
    else:
        _print_step(step, out)
    return EXIT_OK


def _write_resolution(report, args, out):
    if args.emit == "json":
        out.write(report_to_json(report) + "\n")
        return
    for step in report.steps:
        _print_step(step, out)
    if report.verdict == "smooth_at_order":
        print("smooth at order %d" % report.order, file=out)
    else:
        print("no smooth order found up to %d" % report.order, file=out)


def cmd_resolve(args, out):
    A = load_input(args.input)
    try:
        report = resolve(A, args.max_order, _config(args))
    except BudgetExceeded as e:
        _write_resolution(e.report, args, out)
        raise
    _write_resolution(report, args, out)
    if report.verdict != "smooth_at_order":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_matrix(args, out):
    A = load_input(args.input)
    L = build_coeff_matrix(A, args.order)
    if args.emit == "json":
        doc = {
            "order": L.order,
            "rows": [list(b) for b in L.row_index],
            "cols": [list(a) for a in L.col_index],
            "c": [[str(v) for v in row] for row in L.entries],
            "scaled": [list(row) for row in L.scaled_entries()],
            "exponents": [[list(L.exponent(b, a)) for a in L.col_index]
                          for b in L.row_index],
        }
        out.write(json.dumps(doc) + "\n")
    else:
        print("coefficient matrix, order %d (%d x %d)"
              % (L.order, *L.shape), file=out)
        print("columns: %s" % " ".join(str(a) for a in L.col_index), file=out)
        for beta, row in zip(L.row_index, L.entries):
            cells = ["%s | %s" % (v, L.exponent(beta, a))
                     for v, a in zip(row, L.col_index)]
            print("%s : %s" % (beta, "   ".join(cells)), file=out)
    return EXIT_OK


def cmd_minors(args, out):
    A = load_input(args.input)
    plan = check_budget(A, args.order, args.mode, args.budget_nodes)
    L = build_coeff_matrix(A, args.order)
    S = nonzero_minor_exponents(L, mode=args.mode, plan=plan)
    exps = S.exponents if args.exponent_form == "canonical" else S.raw()
    if args.emit == "json":
        doc = {"order": S.order, "shift": list(S.shift),
               "form": args.exponent_form,
               "exponents": [list(e) for e in exps]}
        out.write(json.dumps(doc) + "\n")
    else:
        print("S, order %d, %d exponents (%s form)"
              % (S.order, len(exps), args.exponent_form), file=out)
        for line in _grouped_lines(exps):
            print(line, file=out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricnash",
        description="Combinatorial higher Nash blowup of affine toric varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order="--order"):
        p.add_argument("--input", required=True, help="path to JSON input")
        p.add_argument("--emit", choices=("text", "json"), default="text")
        p.add_argument(order, type=int, required=True)

    def search(p):
        p.add_argument("--mode", choices=("naive", "pruned"), default="pruned")
        p.add_argument("--budget-nodes", type=int,
                       help="default: %(naive)d in naive mode, "
                            "%(pruned)d otherwise" % DEFAULT_BUDGET)

    p = sub.add_parser("step", help="run a single order")
    common(p)
    search(p)
    p.set_defaults(func=cmd_step)

    p = sub.add_parser("resolve", help="iterate orders until smooth")
    common(p, "--max-order")
    search(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("matrix", help="dump the coefficient matrix")
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("minors", help="dump the exponent set S")
    common(p)
    search(p)
    p.add_argument("--exponent-form", choices=("canonical", "raw"),
                   default="canonical")
    p.set_defaults(func=cmd_minors)
    return parser


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except InputError as e:
        print("input error: %s" % e, file=err)
        return EXIT_INPUT
    except BudgetExceeded as e:
        print("budget exhausted: %s" % e, file=err)
        return EXIT_BUDGET
    except ValueError as e:
        print("input error: %s" % e, file=err)
        return EXIT_INPUT
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=err)
        return EXIT_INTERNAL


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
