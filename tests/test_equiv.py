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
    record("outcome", lambda: evaluate(EvalMethod.STRING_PARSE, "log(x-x)", (0.5,), nan_on_fault=True))
    assert record("tree", parse_to_tree, "x+-0.0") is not None
    assert record("fault", parse_to_tree, "x+") is None
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    with pytest.raises(ParseError) as info:
        parse_to_tree("x+")
    assert lines == [
        ["zero", "8000000000000000"],
        ["outcome", "7ff8000000000000 7"],  # math.nan, after the 7 tokens of log ( x - x ) and the end
        ["tree", "4 nodes (sum (var 0) (negate (const 0.0)))"],
        ["fault", f"raise ParseError: {info.value}"],
    ]


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


def test_outcomes_that_end_early_are_a_mismatch(tmp_path):
    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    base.write_text(json.dumps(["a", "1"]) + "\n" + json.dumps(["b", "2"]) + "\n")
    change.write_text(json.dumps(["a", "1"]) + "\n")
    assert equiv.compare(base, change) == (2, 1, [("b | (none)", "2", "(the change's outcomes ended)")])
