import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evalbench

from evalbench import (
    ALL_METHODS,
    BenchConfig,
    EvalMethod,
    ValidationFailureError,
    cross_validate,
    emit_report,
    generate_inputs,
    run_benchmark,
)
from evalbench.benchmark import EXPRESSIONS, _hash_points
from evalbench.evaluators import BLACKBOX_FUNCTIONS

# Small but real: every method, two expressions, tiny windows.
SMALL = BenchConfig(
    n_points=200, seed=11, repetitions=3, min_window_ms=5.0, expressions=(7, 8)
)


@pytest.fixture(scope="module")
def small_report():
    return run_benchmark(SMALL)


def test_generate_inputs_protocol():
    points = generate_inputs(5000, 42)
    assert len(points) == 5000
    assert all(0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 for x, y in points)


def test_generate_inputs_deterministic():
    assert generate_inputs(100, 7) == generate_inputs(100, 7)
    assert generate_inputs(100, 7) != generate_inputs(100, 8)


def test_generate_inputs_empty():
    assert generate_inputs(0, 42) == []
    with pytest.raises(ValueError):
        generate_inputs(-1, 42)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_points": 0},
        {"repetitions": 0},
        {"min_window_ms": 0.0},
        {"expressions": (9,)},
        {"expressions": ()},
        {"methods": ()},
        {"expressions": (2, 2)},
        {"methods": (EvalMethod.BINARY_TREE, EvalMethod.NARY_TREE, EvalMethod.NARY_TREE)},
        {"min_window_ms": math.inf},
    ],
)
def test_bench_config_validation(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs)


def test_run_benchmark_cell_grid(small_report):
    report = small_report
    assert len(report.cells) == 4 * 2
    assert report.methods == ALL_METHODS
    assert report.expression_ids == (7, 8)
    for cell in report.cells:
        assert cell.median_s > 0
        assert cell.min_s > 0
        assert cell.min_s <= cell.median_s
        assert cell.loop_multiplier >= 1
        assert cell.total_window_s >= SMALL.min_window_ms / 1000.0
        assert cell.evals_per_s == pytest.approx(SMALL.n_points / cell.median_s)


def test_run_benchmark_checksums_agree(small_report):
    for eid in small_report.expression_ids:
        sums = [small_report.cell(m, eid).checksum for m in small_report.methods]
        ref = sums[0]
        for s in sums[1:]:
            assert abs(s - ref) <= 1e-9 * max(1.0, abs(ref))


def test_run_benchmark_input_hash_stamped(small_report):
    hashes = {cell.input_hash for cell in small_report.cells}
    assert len(hashes) == 1
    assert hashes.pop() == _hash_points(generate_inputs(SMALL.n_points, SMALL.seed))


def test_run_benchmark_method_subset():
    cfg = BenchConfig(
        n_points=100,
        repetitions=2,
        min_window_ms=2.0,
        methods=(EvalMethod.NARY_TREE,),
        expressions=(1, 5),
    )
    report = run_benchmark(cfg)
    assert len(report.cells) == 2
    assert report.methods == (EvalMethod.NARY_TREE,)


def test_run_benchmark_same_seed_reproducible(small_report):
    again = run_benchmark(SMALL)
    for cell, repeat in zip(small_report.cells, again.cells):
        assert cell.checksum == repeat.checksum
        assert cell.input_hash == repeat.input_hash


def test_cross_validate_passes():
    report = cross_validate(n_points=300, seed=42, tolerance_sig_digits=3)
    assert report.passed
    assert len(report.checks) == 8
    assert report.tolerance == 0.5e-3
    for check in report.checks:
        assert check.max_rel_deviation <= report.tolerance


def test_cross_validate_single_method_vacuous():
    report = cross_validate(
        n_points=50, methods=(EvalMethod.NARY_TREE,), tolerance_sig_digits=3
    )
    assert report.passed
    assert all(c.max_rel_deviation == 0.0 for c in report.checks)
    assert all(c.worst_pair is None for c in report.checks)


def test_cross_validate_zero_points_vacuous():
    report = cross_validate(n_points=0, tolerance_sig_digits=3)
    assert report.passed


@pytest.mark.parametrize(
    "routine",
    [
        pytest.param(lambda x, y: x - y, id="x-y"),
        pytest.param(lambda x, y: math.nan, id="nan"),
        pytest.param(lambda x, y: math.inf, id="inf"),
    ],
)
def test_cross_validate_detects_faulty_routine(monkeypatch, routine):
    # test double: function 2 computes something other than x + y
    monkeypatch.setitem(BLACKBOX_FUNCTIONS, 2, routine)
    with pytest.raises(ValidationFailureError) as exc:
        cross_validate(n_points=100, tolerance_sig_digits=3)
    report = exc.value.report
    assert not report.passed
    failing = [c for c in report.checks if c.max_rel_deviation > report.tolerance]
    assert [c.expression_id for c in failing] == [2]
    worst = report.worst()
    assert worst.expression_id == 2
    assert EvalMethod.BLACKBOX in worst.worst_pair
    assert worst.worst_point is not None
    assert "blackbox" in str(exc.value) and str(exc.value).endswith(f"at point {worst.worst_point}")


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param({"tolerance_sig_digits": 0}, id="zero-digits"),
        pytest.param({"expressions": [9]}, id="unknown-id"),
        pytest.param({"expressions": [3, 3]}, id="repeated-id"),
        pytest.param({"methods": [EvalMethod.NARY_TREE, EvalMethod.NARY_TREE]}, id="repeated-method"),
    ],
)
def test_cross_validate_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        cross_validate(**kwargs)


def test_cross_validate_same_seed_same_verdict():
    first = cross_validate(n_points=100, seed=3, tolerance_sig_digits=3)
    second = cross_validate(n_points=100, seed=3, tolerance_sig_digits=3)
    assert first.passed == second.passed
    assert [c.max_rel_deviation for c in first.checks] == [
        c.max_rel_deviation for c in second.checks
    ]


def test_emit_table(small_report):
    text = emit_report(small_report, "table")
    lines = text.splitlines()
    for label in ("Black-box", "Binary", "N-ary", "String"):
        assert sum(1 for line in lines if line.startswith(label)) == 1


def test_emit_csv_single_cell():
    cfg = BenchConfig(
        n_points=50,
        repetitions=2,
        min_window_ms=2.0,
        methods=(EvalMethod.BLACKBOX,),
        expressions=(1,),
    )
    report = run_benchmark(cfg)
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "method,expression_id,median_s,min_s,evals_per_s,n_points,repetitions,seed"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "blackbox"
    assert fields[1] == "1"
    # 17 significant digits round-trip exactly
    assert float(fields[2]) == report.cells[0].median_s


def test_emit_json_round_trip(small_report):
    payload = json.loads(emit_report(small_report, "json"))
    assert payload["schema_version"] == 1
    meta = payload["metadata"]
    assert meta["n_points"] == SMALL.n_points
    assert meta["seed"] == SMALL.seed
    assert meta["repetitions"] == SMALL.repetitions
    assert len(payload["cells"]) == len(small_report.cells)
    for record, cell in zip(payload["cells"], small_report.cells):
        assert record["method"] == cell.method.value
        assert record["expression_id"] == cell.expression_id
        assert record["median_s"] == cell.median_s
        assert record["min_s"] == cell.min_s
        assert record["evals_per_s"] == cell.evals_per_s
        assert record["checksum"] == cell.checksum
        assert record["input_hash"] == cell.input_hash


def test_emit_unknown_format(small_report):
    with pytest.raises(ValueError):
        emit_report(small_report, "xml")


def test_expression_suite_contents():
    assert EXPRESSIONS == {
        1: "x",
        2: "x+y",
        3: "x^y",
        4: "(x+y)*x^y",
        5: "sin(x)",
        6: "sin((x+y)*x^y)",
        7: "x+y+1",
        8: "2*x*y*(x+y+1)",
    }


def test_harness_is_imported_on_first_use():
    src = str(Path(evalbench.__file__).resolve().parent.parent)
    code = (
        "import sys, evalbench\n"
        "assert 'evalbench.benchmark' not in sys.modules\n"
        "from evalbench import run_benchmark, EXPRESSIONS\n"
        "assert run_benchmark is sys.modules['evalbench.benchmark'].run_benchmark and EXPRESSIONS\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with pytest.raises(AttributeError):
        evalbench.no_such_name
