import io
import json
from math import comb

import pytest

from toricnash import monomial_jacobian
from toricnash.cli import main
from toricnash.pipeline import resolution_report_from_dict


@pytest.fixture
def surface_input(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(
        {"d": 2, "generators": [[1, 0], [1, 1], [1, 2], [2, 5]]}))
    return str(path)


@pytest.fixture
def plane_input(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"d": 2, "generators": [[1, 0], [0, 1]]}))
    return str(path)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_step_order_one_text(surface_input):
    code, out, err = run(["step", "--input", surface_input, "--order", "1"])
    assert code == 0
    assert "|S| = 6" in out
    assert "(2, 6)" in out
    assert "singular" in out


def test_step_json_emits_report(surface_input):
    code, out, _ = run(["step", "--input", surface_input, "--order", "1",
                        "--emit", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1
    assert len(doc["exponents"]) == 6


def test_resolve_smooth_plane(plane_input):
    code, out, _ = run(["resolve", "--input", plane_input, "--max-order", "1"])
    assert code == 0
    assert "smooth at order 1" in out


def test_resolve_json_roundtrip(plane_input):
    code, out, _ = run(["resolve", "--input", plane_input, "--max-order", "1",
                        "--emit", "json"])
    assert code == 0
    report = resolution_report_from_dict(json.loads(out))
    assert report.verdict == "smooth_at_order"
    assert report.order == 1


def test_resolve_exhausted_returns_budget_code(surface_input):
    code, out, _ = run(["resolve", "--input", surface_input,
                        "--max-order", "1"])
    assert code == 1
    assert "no smooth order" in out


def test_resolve_keeps_finished_orders_when_budget_refuses(surface_input):
    # Order 1 needs fewer than 100 evaluation points, order 2 needs 144.
    argv = ["resolve", "--input", surface_input, "--max-order", "3",
            "--budget-nodes", "100"]
    code, out, err = run(argv + ["--emit", "json"])
    assert code == 1
    assert err == ("budget exhausted: order 2: minor search needs up to 144 "
                   "evaluation points (box 9 x 16), budget 100\n")
    report = resolution_report_from_dict(json.loads(out))
    assert [s.order for s in report.steps] == [1]
    assert (report.verdict, report.order) == ("budget_exhausted", 1)
    code, text, text_err = run(argv)
    assert (code, text_err) == (1, err)
    assert "order 1 verdict: singular" in text
    assert text.endswith("no smooth order found up to 1\n")


def test_matrix_command(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps({"d": 1, "generators": [[1], [2]]}))
    code, out, _ = run(["matrix", "--input", str(path), "--order", "2",
                        "--emit", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == [["1", "0"], ["2", "1"], ["0", "1"], ["0", "2"],
                        ["0", "4"]]
    assert doc["scaled"] == [[1, 0], [2, 2], [0, 2], [0, 4], [0, 8]]


def test_minors_canonical_and_raw(surface_input):
    code, out, _ = run(["minors", "--input", surface_input, "--order", "1",
                        "--emit", "json"])
    assert code == 0
    canonical = json.loads(out)
    code, out, _ = run(["minors", "--input", surface_input, "--order", "1",
                        "--emit", "json", "--exponent-form", "raw"])
    raw = json.loads(out)
    shift = canonical["shift"]
    assert raw["exponents"] == [
        [a + b for a, b in zip(e, shift)] for e in canonical["exponents"]]


def test_minors_naive_mode_agrees(surface_input):
    _, out_p, _ = run(["minors", "--input", surface_input, "--order", "2",
                       "--emit", "json"])
    _, out_n, _ = run(["minors", "--input", surface_input, "--order", "2",
                       "--emit", "json", "--mode", "naive"])
    assert json.loads(out_p)["exponents"] == json.loads(out_n)["exponents"]


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(["step", "--input", str(path), "--order", "1"])
    assert code == 2
    assert "malformed JSON" in err


def test_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "generators": [[1, 0], [1]]}))
    code, _, err = run(["step", "--input", str(path), "--order", "1"])
    assert code == 2
    assert "generators" in err


def test_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generators": [[1, 0]]}))
    code, _, err = run(["step", "--input", str(path), "--order", "1"])
    assert code == 2
    assert "'d'" in err


def test_non_essential_input_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"d": 2, "generators": [[1, 0], [-1, 0], [0, 1]]}))
    code, _, err = run(["step", "--input", str(path), "--order", "1"])
    assert code == 2
    assert "essential" in err


def test_budget_exhausted_exit_code(surface_input):
    code, _, err = run(["step", "--input", surface_input, "--order", "2",
                        "--budget-nodes", "5"])
    assert code == 1
    assert "budget" in err.lower()


def test_oversized_minor_search_stops_before_scanning(tmp_path, surface_input,
                                                      monkeypatch):
    # The budget is checked on the row weights alone, so even M = 1715 rows
    # stop with one line before a single matrix entry is computed.
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(
        {"d": 2, "generators": [[1, k] for k in range(6)] + [[2, 11]]}))
    calls = []
    c_coeff = monomial_jacobian.c_coeff
    monkeypatch.setattr(monomial_jacobian, "c_coeff",
                        lambda *a: calls.append(a) or c_coeff(*a))
    needs = {"pruned": "up to 199584 evaluation points (box 231 x 864)",
             "naive": "C(1715, 27) = %d row subsets" % comb(1715, 27)}
    budgets = {"pruned": 50000, "naive": 5000000}
    for command in ("step", "minors"):
        for mode, what in needs.items():
            code, out, err = run([command, "--input", str(path), "--order",
                                  "6", "--mode", mode])
            assert (code, out, calls) == (1, "", [])
            assert err == ("budget exhausted: minor search needs %s, "
                           "budget %d\n" % (what, budgets[mode]))
    # C(34, 9) = 52,451,256 row subsets, but only 448 evaluation points.
    code, out, err = run(["step", "--input", surface_input, "--order", "3"])
    assert (code, err) == (0, "")
    assert "|S| = 370" in out
    assert "order 3 verdict: smooth (4 essential charts)" in out


@pytest.mark.parametrize("command", ["step", "resolve", "minors", "matrix"])
def test_json_is_written_on_one_line(command, surface_input):
    order = "--max-order" if command == "resolve" else "--order"
    _, out, _ = run([command, "--input", surface_input, order, "2",
                     "--emit", "json"])
    assert out.endswith("}\n") and out.count("\n") == 1
    json.loads(out)
    # default separators, so a reported time reads '"elapsed": <digits>'
    assert ('"elapsed": ' in out) == (command in ("step", "resolve"))


def test_unknown_flag(surface_input):
    code, _, _ = run(["step", "--input", surface_input, "--order", "1",
                      "--bogus"])
    assert code == 2
    # Each subcommand takes only the flags it honours.
    for command, flag in [("matrix", "--mode=naive"),
                          ("matrix", "--budget-nodes=10"),
                          ("matrix", "--exponent-form=raw"),
                          ("step", "--exponent-form=raw"),
                          ("resolve", "--exponent-form=raw")]:
        order = "--max-order" if command == "resolve" else "--order"
        code, out, _ = run([command, "--input", surface_input, order, "1",
                            flag])
        assert (code, out) == (2, "")


@pytest.mark.parametrize("mode", ["pruned", "naive"])
def test_huge_minor_search_is_refused_in_one_line(tmp_path, mode):
    # C(20348, 4844) has 4,848 digits, more than str() converts.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"d": 4, "generators": [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
        [1, 1, 1, 1]]}))
    code, out, err = run(["step", "--input", str(path), "--order", "16",
                          "--mode", mode])
    assert (code, out) == (1, "")
    assert err.startswith("budget exhausted: minor search needs ")
    assert err.count("\n") == 1 and len(err) < 200


def test_heavy_generator_step_has_no_recursion_limit(tmp_path):
    # Membership tests on (1,3000) take about 3000 search steps deep.
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(
        {"d": 2, "generators": [[1, 0], [0, 1], [1, 3000]]}))
    code, out, err = run(["step", "--input", str(path), "--order", "1",
                          "--emit", "json"])
    assert code == 0, err
    doc = json.loads(out)
    assert len(doc["exponents"]) == 3
    essential = [c for c in doc["charts"] if c["essential"]]
    assert len(essential) == 1
    assert essential[0]["center"] == [0, 0]
    assert essential[0]["smooth"] is True
    assert essential[0]["minimal_generators"] == [[0, 1], [1, 0]]


def test_unexpected_exception_exits_internal(surface_input, monkeypatch):
    import toricnash.cli

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(toricnash.cli, "nash_step", broken)
    code, out, err = run(["step", "--input", surface_input, "--order", "1"])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"
