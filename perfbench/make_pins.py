#!/usr/bin/env python3
"""Regenerate pins.json: every item's answer and the spans each workload fires.

    python3 perfbench/make_pins.py

Run from the root of a source checkout.  Each answer, and the order-1
answer the moved pass checks, is computed with the default minor search
(the workload's answers inside a traced pass) and again with `--mode naive`;
the two must agree, pass the structural checks, and match the values the
test suite pins for the reference surface (2,5).  Regenerate only when the
program's answers are meant to change, and review the diff.
"""

import io
import json
import shutil
import sys
import tempfile

import answers
import corpus
import spans
from run import PINS, ROOT, SRC, Bench

sys.path.insert(0, SRC)
from toricnash import cli  # noqa: E402


def surface_reference():
    """Reference-surface answer as pinned in tests/test_pipeline.py and
    tests/conftest.py; exit 1 because the chart at (3,8) stays singular."""
    s1 = [(1, 0), (1, 1), (1, 2), (2, 4), (2, 5), (2, 6)]
    s2 = [(x, y) for x, lo, hi in [(3, 0, 8), (4, 0, 11), (5, 4, 15),
                                   (6, 8, 18), (7, 12, 21), (8, 16, 24)]
          for y in range(lo, hi + 1)]
    return {"exit": 1, "steps": [
        {"order": 1, "exponents": s1, "essential": [
            ((1, 0), None, None), ((1, 2), None, None),
            ((2, 6), [(-1, -4), (0, -1), (1, 2), (2, 5)], False)]},
        {"order": 2, "exponents": s2, "essential": [
            ((3, 0), [(0, 1), (1, 0)], True),
            ((3, 8), [(0, -1), (1, 3), (2, 7)], False),
            ((5, 15), [(-2, -7), (1, 3)], True),
            ((8, 24), [(-1, -3), (2, 5)], True)]}]}


def agrees_with_reference(ans, ref):
    if ans["exit"] != ref["exit"] or len(ans["steps"]) != len(ref["steps"]):
        return False
    for got, want in zip(ans["steps"], ref["steps"]):
        if got["exponents"] != want["exponents"]:
            return False
        if [c for c, _, _ in got["essential"]] != [c for c, _, _ in
                                                    want["essential"]]:
            return False
        for (_, mg, smooth), (_, wmg, wsmooth) in zip(got["essential"],
                                                      want["essential"]):
            if wmg is not None and (mg != wmg or smooth != wsmooth):
                return False
    return True


def naive_answer(item, path):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(item.args) + ["--input", path, "--emit", "json",
                                       "--mode", "naive"], out=out, err=err)
    return answers.answer(code, json.loads(out.getvalue()), item.args[0])


def main():
    pins = {"items": {}, "spans": {}}
    computed = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in corpus.WORKLOADS:
            bench = Bench(cli, corpus.items(workload), 0, workdir)
            tracer = spans.Tracer()
            with spans.installed(tracer):
                runs = bench.run_pass(tracer=tracer)
            pins["spans"][workload] = sorted(tracer.totals())
            bench.moved_pass()  # seed 0: order 1 in reference coordinates
            runs = bench.runs
            for run in runs:
                with open(run.out_path) as f:
                    doc = json.load(f)
                command = run.item.args[0]
                errors = answers.structural_errors(doc, command,
                                                   run.item.generators)
                ans = answers.answer(run.code, doc, command)
                naive = naive_answer(run.item, bench.input_path(run.item))
                if errors or ans != naive:
                    raise SystemExit("%s: %s" % (run.item.key, errors or
                                                 "naive mode disagrees"))
                computed[run.item.key] = ans
                pins["items"][run.item.key] = ans
                print("%-8s exit %d, orders %s, |S| %s, essential %s" % (
                    run.item.key, ans["exit"],
                    [s["order"] for s in ans["steps"]],
                    [len(s["exponents"]) for s in ans["steps"]],
                    [len(s["essential"]) for s in ans["steps"]]))
    finally:
        shutil.rmtree(workdir)
    if not agrees_with_reference(computed["cq-2-5"], surface_reference()):
        raise SystemExit("reference surface disagrees with the test suite")
    with open(PINS, "w") as f:
        f.write('{"items": {\n')
        f.write(",\n".join("%s: %s" % (json.dumps(k), json.dumps(v))
                           for k, v in pins["items"].items()))
        f.write('\n},\n"spans": %s}\n' % json.dumps(pins["spans"], indent=1))
    print("wrote", PINS)


if __name__ == "__main__":
    main()
