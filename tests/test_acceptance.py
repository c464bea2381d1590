"""End-to-end checks of the package's headline guarantees.

Each test prints one pass/fail line; run with -s (or -v) to see them.
"""

import importlib.util
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from evalbench import (
    BenchConfig,
    Bindings,
    DomainFaultError,
    EvalMethod,
    ParseError,
    count_nodes,
    cross_validate,
    eval_binary,
    eval_nary,
    eval_string,
    flatten,
    is_binary_form,
    parse_to_tree,
    run_benchmark,
    tokenize,
)
from evalbench.benchmark import EXPRESSIONS
from evalbench.cli import main as cli_main
from evalbench.evaluators import _walk_counts
from strategies import has_like_chain, random_bindings, random_tree


_spec = importlib.util.spec_from_file_location(
    "opcount", Path(__file__).resolve().parent.parent / "scripts" / "opcount.py"
)
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def default_report():
    # the full desk-scale experiment: 5000 points, >=100 ms windows,
    # median of 10 repetitions, all methods, all expressions
    return run_benchmark(BenchConfig())


def _aggregate(report, method):
    return sum(report.cell(method, e).median_s for e in report.expression_ids)


def test_criterion_1_cross_method_agreement():
    label = "criterion 1: all four methods agree within 1e-9 over 1000 points"
    with verdict(label):
        started = time.perf_counter()
        report = cross_validate(n_points=1000, seed=42, tolerance_sig_digits=9)
        elapsed = time.perf_counter() - started
        assert report.passed
        assert len(report.checks) == 8
        for check in report.checks:
            assert check.max_rel_deviation <= 1e-9
        print(f"  max deviation {report.worst().max_rel_deviation:.3e}, {elapsed:.2f}s", end=" ")


def test_criterion_2_corrected_timing_ordering(default_report):
    label = "criterion 2: blackbox < nary <= 1.05*binary (strict on 7,8) < string/1.5"
    with verdict(label):
        r = default_report
        assert len(r.cells) == 4 * 8
        agg = {m: _aggregate(r, m) for m in r.methods}
        assert agg[EvalMethod.BLACKBOX] < agg[EvalMethod.NARY_TREE]
        assert agg[EvalMethod.NARY_TREE] <= 1.05 * agg[EvalMethod.BINARY_TREE]
        for eid in (7, 8):
            nary = r.cell(EvalMethod.NARY_TREE, eid).median_s
            binary = r.cell(EvalMethod.BINARY_TREE, eid).median_s
            assert nary < binary, f"expression {eid}: {nary:.3e} !< {binary:.3e}"
        assert agg[EvalMethod.STRING_PARSE] > 1.5 * agg[EvalMethod.BINARY_TREE]
        cell8 = {m: r.cell(m, 8).median_s for m in r.methods}
        assert cell8[EvalMethod.BLACKBOX] < cell8[EvalMethod.NARY_TREE] < cell8[EvalMethod.STRING_PARSE]
        ordering = " < ".join(
            m.value for m in sorted(agg, key=agg.get)
        )
        print(f"  aggregate ordering: {ordering}", end=" ")


def test_criterion_2_instruction_count_ordering():
    label = "criterion 2 in bytecode instructions: blackbox < nary <= binary < string on each expression"
    with verdict(label):
        # Counts differ between CPython versions, so only their order is checked.
        for eid, cells in opcount.cell_counts().items():
            assert cells["blackbox"] < cells["nary"] <= cells["binary"] < cells["string"], (eid, cells)
            # The n-ary walk is shorter exactly where flatten saved walker entries or steps.
            tree = parse_to_tree(EXPRESSIONS[eid])
            saved = _walk_counts(flatten(tree)) != _walk_counts(tree)
            assert (cells["nary"] < cells["binary"]) == saved, (eid, cells)


def test_criterion_3_flatten_equivalence_oracle():
    label = "criterion 3: 10000 random trees, flatten preserves values to 1e-12"
    with verdict(label):
        started = time.perf_counter()
        rng = random.Random(20250810)
        accepted = 0
        while accepted < 10000:
            tree = random_tree(rng, depth=5)
            b = random_bindings(rng)
            try:
                want = eval_nary(tree, b).value
            except DomainFaultError:
                continue
            if not math.isfinite(want):
                continue
            flat = flatten(tree)
            got = eval_nary(flat, b).value
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want), abs(got))
            assert flatten(flat) == flat
            assert not has_like_chain(flat)
            accepted += 1
        elapsed = time.perf_counter() - started
        print(f"  10000 trees in {elapsed:.2f}s", end=" ")


def test_criterion_4_handbuilt_tree_shapes():
    label = "criterion 4: x+y+1 parses to 5 nodes, flattens to 4 with a 3-child sum"
    with verdict(label):
        tree = parse_to_tree("x+y+1")
        assert count_nodes(tree) == 5
        assert is_binary_form(tree)
        flat = flatten(tree)
        assert count_nodes(flat) == 4
        assert len(flat.children) == 3
        b = Bindings((0.5, 0.25))
        assert eval_nary(tree, b).visits == 5
        assert eval_nary(flat, b).visits == 4
        assert eval_nary(flat, b).value == 1.75


VALID_CORPUS = [
    # the eight suite functions in string form
    *EXPRESSIONS.values(),
    "1",
    "2.5",
    "2.5e-1",
    "y",
    "x-y",
    "x*y",
    "x/y",
    "-x",
    "--x",
    "-x^2",
    "2^3^2",
    "2^-2",
    "x+y+x+y",
    "x*y*x",
    "1+2*3",
    "(1+2)*3",
    "4/2/2",
    "8-2-1",
    "cos(x)",
    "tan(x)",
    "exp(x)",
    "log(x+1)",
    "sqrt(x)",
    "sin(cos(x))",
    "sin(x)+cos(y)",
    "x^y^x",
    "(x+y)^2",
    "x*(y+1)",
    "x/(y+1)",
    "1/(1+x)",
    "sqrt(x*x+y*y)",
    "exp(-x)",
    "log(exp(x))",
    "x*2+y*3",
    "0.5*x+0.25",
    "x-y-1",
    "x- -y",
    "x^0",
    "0^x",
    "x^1",
    "(x)",
    "((x+y))",
    " x + y ",
    "x *y",
    "1e2/x+3E-1",
    "sin(x)*sin(x)",
    "x+x+x+x+x",
]

MALFORMED_CORPUS = [
    "x+",
    "(",
    "x @ y",
    "2.5e-",
    "1 2",
    "sin(",
    "sin x",
    ")x",
    "x+*y",
    "2..5",
    "foo(1)",
    "x^",
    "",
]


def test_criterion_5_parser_round_trip(capsys):
    label = "criterion 5: >=50-expression round trip and malformed-input handling"
    with verdict(label):
        assert len(VALID_CORPUS) >= 50
        rng = random.Random(5)
        for text in VALID_CORPUS:
            tree = parse_to_tree(text)
            for _ in range(3):
                b = Bindings((rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
                want = eval_binary(tree, b).value
                got = eval_string(text, bindings=b)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), text
        for text in MALFORMED_CORPUS:
            with pytest.raises(ParseError) as exc:
                parse_to_tree(text)
            position = exc.value.position
            assert 0 <= position <= len(text)
            tokenize(text[:position])  # offset marks the first offending char
            code = cli_main(["eval", "--expr", text])
            assert code != 0, text
        capsys.readouterr()  # swallow the CLI's error renderings


def test_criterion_6_benchmark_integrity(default_report):
    label = "criterion 6: checksums agree across methods and reproduce by seed"
    with verdict(label):
        r = default_report
        hashes = {cell.input_hash for cell in r.cells}
        assert len(hashes) == 1
        for eid in r.expression_ids:
            sums = [r.cell(m, eid).checksum for m in r.methods]
            ref = sums[0]
            for s in sums[1:]:
                assert abs(s - ref) <= 1e-9 * max(1.0, abs(ref))
        small = BenchConfig(
            n_points=150, seed=99, repetitions=2, min_window_ms=5.0, expressions=(4, 7)
        )
        first = run_benchmark(small)
        second = run_benchmark(small)
        assert [c.checksum for c in first.cells] == [c.checksum for c in second.cells]
        assert [c.input_hash for c in first.cells] == [c.input_hash for c in second.cells]
