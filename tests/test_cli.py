import json

import pytest

from evalbench.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_nary(capsys):
    code, out, _ = run(
        capsys, "eval", "--expr", "x+y+1", "--method", "nary",
        "--bind", "x=0.5", "--bind", "y=0.25",
    )
    assert code == 0
    assert out.strip() == "1.75"


def test_eval_string_sin_zero(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "sin(0)", "--method", "string")
    assert code == 0
    assert out.strip() == "0"


def test_eval_binary_method(capsys):
    code, out, _ = run(
        capsys, "eval", "--expr", "2^3^2", "--method", "binary"
    )
    assert code == 0
    assert out.strip() == "512"


def test_eval_default_method(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "1+2*3")
    assert code == 0
    assert out.strip() == "7"


def test_eval_parse_error_caret(capsys):
    code, out, err = run(capsys, "eval", "--expr", "x+")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert "position 2" in lines[0]
    assert lines[1] == "  x+"
    assert lines[2] == "  " + " " * 2 + "^"


def test_eval_string_deeply_nested_parentheses(capsys):
    expr = "(" * 300 + "1+2" + ")" * 300
    code, out, err = run(capsys, "eval", "--expr", expr, "--method", "string")
    assert code == 0
    assert out.strip() == "3"
    assert err == ""


def test_eval_unbound_variable(capsys):
    code, _, err = run(capsys, "eval", "--expr", "x+y", "--bind", "x=1")
    assert code == 2
    assert "unbound" in err


def test_eval_domain_fault(capsys):
    code, _, err = run(capsys, "eval", "--expr", "1/0")
    assert code == 2
    assert "domain fault" in err


@pytest.mark.parametrize("method", ["binary", "nary", "string"])
def test_eval_extra_variable_under_every_method(capsys, method):
    code, out, err = run(
        capsys, "eval", "--expr", "z*2+x", "--method", method, "--bind", "z=3", "--bind", "x=0.5"
    )
    assert (code, out, err) == (0, "6.5\n", "")


def test_eval_extra_variable_extends_table(capsys):
    code, out, _ = run(
        capsys, "eval", "--expr", "z*2", "--bind", "z=3"
    )
    assert code == 0
    assert out.strip() == "6"


def test_eval_rejects_non_finite_binding(capsys):
    code, _, err = run(capsys, "eval", "--expr", "x", "--bind", "x=nan")
    assert code == 1
    assert "finite" in err


def test_eval_rejects_malformed_binding(capsys):
    code, _, _ = run(capsys, "eval", "--expr", "x", "--bind", "x")
    assert code == 1


def test_parse_renders_five_nodes(capsys):
    code, out, _ = run(capsys, "parse", "--expr", "x+y+1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("sum (2 children)")


def test_parse_flatten_renders_four_nodes(capsys):
    code, out, _ = run(capsys, "parse", "--expr", "x+y+1", "--flatten")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("sum (3 children)")


def test_parse_dump(capsys):
    code, out, _ = run(capsys, "parse", "--expr", "x+y+1", "--flatten", "--dump")
    assert code == 0
    assert out.strip() == "(sum (var 0) (var 1) (const 1.0))"


@pytest.mark.parametrize("dump", [False, True])
def test_parse_prints_deeply_nested_tree(capsys, dump):
    depth = 2000
    expr = "sin(" * depth + "x" + ")" * depth
    code, out, err = run(capsys, "parse", "--expr", expr, *(["--dump"] if dump else []))
    assert code == 0
    assert err == ""
    if dump:
        assert out.strip() == "(fn sin " * depth + "(var 0)" + ")" * depth
    else:
        lines = out.strip().splitlines()
        assert len(lines) == depth + 1
        assert lines[0] == "fn[sin] (1 child)"
        assert lines[-1] == "  " * depth + "var[0]"


def test_eval_tree_methods_on_deeply_nested_text(capsys):
    depth = 2000
    expr = "sin(" * depth + "x" + ")" * depth
    outs = []
    for method in ("string", "binary", "nary"):
        code, out, err = run(capsys, "eval", "--expr", expr, "--method", method, "--bind", "x=0.5")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]
    code, out, err = run(capsys, "parse", "--expr", expr, "--flatten")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == depth + 1


def test_parse_unbalanced_paren(capsys):
    code, _, err = run(capsys, "parse", "--expr", "(")
    assert code == 1
    assert "missing ')'" in err


def test_validate_passes(capsys):
    code, out, _ = run(capsys, "validate", "--digits", "3", "--points", "200")
    assert code == 0
    assert out.count("max relative deviation") == 8
    assert "PASS" in out


def test_validate_zero_points_warns(capsys):
    code, out, err = run(capsys, "validate", "--points", "0")
    assert code == 0
    assert "0 points" in err
    assert "PASS" in out


def test_validate_rejects_bad_digits(capsys):
    code, _, _ = run(capsys, "validate", "--digits", "0")
    assert code == 1


def test_validate_at_machine_precision(capsys):
    # near machine epsilon this may legitimately fail; if it does, the
    # failing method pair must be named
    code, out, _ = run(capsys, "validate", "--digits", "15", "--points", "100")
    if code == 0:
        assert "PASS" in out
    else:
        assert code == 3
        assert "FAIL" in out
        assert " vs " in out


def test_bench_csv_subset(capsys):
    code, out, err = run(
        capsys, "bench", "--n", "60", "--repetitions", "2", "--min-window", "5",
        "--methods", "nary,string", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("method,expression_id")
    assert len(lines) == 1 + 2 * 8
    assert sum(1 for line in lines if line.startswith("nary,")) == 8
    assert sum(1 for line in lines if line.startswith("string,")) == 8
    assert "cross-validation passed" in err


def test_bench_json_is_machine_consumable(capsys):
    code, out, _ = run(
        capsys, "bench", "--n", "50", "--repetitions", "2", "--min-window", "5",
        "--methods", "blackbox", "--expressions", "1,2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 2


def test_bench_table_has_method_rows(capsys):
    code, out, _ = run(
        capsys, "bench", "--n", "50", "--repetitions", "2", "--min-window", "5",
        "--expressions", "7",
    )
    assert code == 0
    for label in ("Black-box", "Binary", "N-ary", "String"):
        assert sum(1 for line in out.splitlines() if line.startswith(label)) == 1


def test_bench_rejects_zero_points(capsys):
    code, _, _ = run(capsys, "bench", "--n", "0")
    assert code == 1


def test_bench_clock_unavailable_exits_4(capsys, monkeypatch):
    import evalbench.cli as cli_mod
    from evalbench import ClockUnavailableError

    def no_clock(cfg):
        raise ClockUnavailableError("no process-CPU clock")

    monkeypatch.setattr(cli_mod, "run_benchmark", no_clock)
    code, _, err = run(
        capsys, "bench", "--n", "50", "--repetitions", "2", "--min-window", "5",
        "--methods", "blackbox", "--expressions", "1",
    )
    assert code == 4
    assert "environment error" in err


def test_bench_validation_failure_exits_3(capsys, monkeypatch):
    import evalbench.cli as cli_mod
    from evalbench import ValidationFailureError

    def disagree(**kwargs):
        raise ValidationFailureError(None, "methods disagree on expression 2")

    monkeypatch.setattr(cli_mod, "cross_validate", disagree)
    code, out, err = run(capsys, "bench", "--n", "50")
    assert code == 3
    assert out == ""
    assert "benchmark aborted" in err


def test_validate_disagreement_exits_3_with_a_fail_line(capsys, monkeypatch):
    from evalbench.evaluators import BLACKBOX_FUNCTIONS

    # test double: expression 2 computes x - y
    monkeypatch.setitem(BLACKBOX_FUNCTIONS, 2, lambda x, y: x - y)
    code, out, _ = run(capsys, "validate", "--points", "50")
    assert code == 3
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert len(fails) == 1 and fails[0].startswith("FAIL: expression 2 (x+y)")
    assert "PASS" not in out


def test_bench_abort_and_validate_fail_report_the_same_text(capsys, monkeypatch):
    from evalbench.evaluators import BLACKBOX_FUNCTIONS

    monkeypatch.setitem(BLACKBOX_FUNCTIONS, 2, lambda x, y: x - y)
    # bench cross-validates 1000 points to 9 digits with its own seed
    code, out, _ = run(capsys, "validate", "--points", "1000", "--digits", "9", "--seed", "5")
    assert code == 3
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    code, out, err = run(capsys, "bench", "--n", "50", "--seed", "5")
    assert code == 3 and out == ""
    (abort,) = [line for line in err.splitlines() if "benchmark aborted" in line]
    assert abort.endswith(fail[len("FAIL: "):])


@pytest.mark.parametrize("ids", ["a", "9", "1,a", "0"])
def test_bench_rejects_bad_expression_ids(capsys, ids):
    code, out, err = run(capsys, "bench", "--n", "50", "--expressions", ids)
    assert code == 1 and out == "" and "expression" in err


def test_bench_runs_repeated_expression_ids_once(capsys):
    code, out, _ = run(
        capsys, "bench", "--n", "50", "--repetitions", "2", "--min-window", "5",
        "--methods", "blackbox", "--expressions", "1,1,2", "--format", "json",
    )
    assert code == 0
    assert sorted(cell["expression_id"] for cell in json.loads(out)["cells"]) == [1, 2]


def test_bench_rejects_unknown_method(capsys):
    code, _, _ = run(capsys, "bench", "--methods", "nary,quantum")
    assert code == 1


def test_unknown_flag_is_an_error(capsys):
    code, _, _ = run(capsys, "eval", "--expr", "x", "--frobnicate")
    assert code == 1


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_subcommand(capsys):
    code, _, _ = run(capsys)
    assert code == 1


@pytest.mark.parametrize(
    "expr", ["x+", "(", "x @ y", "2.5e-", "1 2", "sin(", "sin x", ")x", "x+*y"]
)
def test_malformed_expressions_exit_nonzero(capsys, expr):
    code, out, err = run(capsys, "eval", "--expr", expr)
    assert code == 1
    assert "^" in err
