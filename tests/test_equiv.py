"""``scripts/equiv.py`` on stub outcomes: no side's corpus run is started."""

import importlib.util
import io
import json
import subprocess
from pathlib import Path

import pytest

from evalbench import EvalMethod, ParseError, evaluate, parse_to_tree

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("equiv", ROOT / "scripts" / "equiv.py")
equiv = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equiv)


def test_an_outcome_is_bits_visits_shape_or_the_exception():
    out = io.StringIO()
    record = equiv._Recorder(out)
    assert record("zero", lambda: -0.0) == -0.0
    record("outcome", lambda: evaluate(EvalMethod.STRING_PARSE, "log(x+x)", (0.5,)))
    assert record("tree", parse_to_tree, "x+-0.0") is not None
    assert record("fault", parse_to_tree, "x+") is None
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    with pytest.raises(ParseError) as info:
        parse_to_tree("x+")
    assert lines == [
        ["zero", "8000000000000000"],
        ["outcome", "0000000000000000 7"],  # log(1.0), after the 7 tokens of log ( x + x ) and the end
        ["tree", "4 nodes (sum (var 0) (negate (const 0.0)))"],
        ["fault", f"raise ParseError: {info.value}"],
    ]


def test_every_label_of_a_build_has_the_build_as_its_root():
    out = io.StringIO()
    equiv._trees(equiv._Recorder(out), "_DEEP 3 picked 7", [("parsed", parse_to_tree("x+y+1-sin(-x)*2"))])
    labels = [json.loads(line)[0] for line in out.getvalue().splitlines()]
    assert "_DEEP 3 picked 7: parsed flat pickled: binary_value p0" in labels
    assert {label.split(":")[0] for label in labels} == {"_DEEP 3 picked 7"}


def test_a_planted_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # equiv imports its sibling bench_pairs
    ran = []

    def fake_outcomes(src, corpus_path, out_path):
        ran.append(src)
        items = json.loads(corpus_path.read_text())
        assert [tuple(item) for item in items] == equiv.corpus()
        if src != ROOT / "src":  # the base: an extracted copy of the revision, with no .git
            assert not (src.parent / ".git").exists()
            assert (src / "evalbench" / "tree.py").read_bytes() == subprocess.run(
                ["git", "-C", str(ROOT), "show", "HEAD:src/evalbench/tree.py"], capture_output=True,
                check=True).stdout
        with open(out_path, "w") as out:
            for label, _, _ in items:
                shown = "planted" if label == planted and src != ROOT / "src" else "3fe8000000000000"
                out.write(json.dumps([f"{label}: eval_string p0", shown]) + "\n")
        return str(src / "evalbench" / "__init__.py")

    monkeypatch.setattr(equiv, "outcomes", fake_outcomes)
    args = ["--base", "HEAD"]
    planted = None
    assert equiv.main(args) == 0
    assert " 0 mismatches" in capsys.readouterr().out
    planted = "fresh 1 edit"
    assert equiv.main(args) == 1
    out = capsys.readouterr().out
    assert " 1 mismatches" in out
    assert "fresh 1 edit: eval_string p0\n    base:   planted\n    change: 3fe8000000000000" in out
    assert len(ran) == 4 and ran[1] == ran[3] == ROOT / "src"
    # Each base copy lies outside the repository and is removed at the end.
    assert not any(src.exists() or ROOT in src.parents for src in (ran[0], ran[2]))


def _write(path, outcomes):
    path.write_text("".join(json.dumps(list(outcome)) + "\n" for outcome in outcomes))


def test_outcomes_that_end_early_are_a_mismatch(tmp_path):
    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    _write(base, [("a", "1"), ("b: walk", "2")])
    _write(change, [("a", "1")])
    assert equiv.compare(base, change) == (2, 1, [("b: walk", "2", "(no such outcome)")], {"b": 1})


def test_an_outcome_on_one_side_only_is_one_mismatch(tmp_path):
    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    outcomes = [(f"t{i}: p{p}", str(i * p)) for i in range(3) for p in range(2)]
    _write(base, outcomes)
    _write(change, outcomes[:3] + [("t1: built", "raise ValueError: no")] + outcomes[3:])
    assert equiv.compare(base, change) == (7, 1, [("t1: built", "(no such outcome)", "raise ValueError: no")],
                                           {"t1": 1})
    # A label that repeats within one side is an error.
    _write(change, outcomes + outcomes[-1:])
    with pytest.raises(SystemExit, match="repeats"):
        equiv.compare(base, change)
