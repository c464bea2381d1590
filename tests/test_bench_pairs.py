"""``scripts/bench_pairs.py`` on synthetic runs: no perfbench is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values: dict[str, list[float]], failed: list[int]) -> list[dict]:
    return [{**{name: v[i] for name, v in values.items()}, "failed": failed[i], "attempted": 100}
            for i in range(len(failed))]


def test_compare_medians_wins_claims_and_regressions():
    metrics = [{"name": "rate", "unit": "nodes/s", "better": "higher", "bound": 0.2},
               {"name": "latency", "unit": "ns/node", "better": "lower", "bound": 0.1}]
    base = _runs({"rate": [10, 20, 30, 40], "latency": [10, 10, 10, 10]}, [0, 0, 0, 0])
    change = _runs({"rate": [50, 60, 70, 80], "latency": [12, 12, 12, 9]}, [0, 1, 0, 0])
    table = bench_pairs.compare(metrics, base, change)
    assert table["metrics"]["rate"] == {
        "unit": "nodes/s", "better": "higher",
        "base_median": 25, "base_q1": 17.5, "base_q3": 32.5,
        "change_median": 65, "change_q1": 57.5, "change_q3": 72.5,
        "delta": 1.6, "wins": 4, "claim": True, "bound": 0.2, "regressed": False,
    }
    latency = table["metrics"]["latency"]
    assert (latency["base_median"], latency["change_median"]) == (10, 12)
    assert latency["delta"] == pytest.approx(0.2)
    assert (latency["wins"], latency["claim"], latency["regressed"]) == (1, False, True)
    assert table["failed_share"] == {"base": 0.0, "change": 0.0025, "rose": True}
    assert table["regressions"] == ["latency", "failed share"]


def test_runs_both_sides_from_copies_and_appends_a_record_per_table(tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ran = []

    def fake_run(checkout, side, workload, seed, seconds, pair):
        ran.append((side, checkout))
        assert not (checkout / ".git").exists()
        if side == "change":
            script = "scripts/bench_pairs.py"
            assert (checkout / script).read_bytes() == (ROOT / script).read_bytes()
        values = {m["name"]: 2.0 if side == "change" else 1.0 for m in spec["end_to_end"]}
        return {**values, "failed": 0, "attempted": 10}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--workload", "fresh-exprs", "--pairs", "2", "--json", str(out)]) == 0
    assert bench_pairs.main(["--workload", "long-chains", "--seed", "7", "--pairs", "3", "--json", str(out)]) == 0
    assert "regressed past bound: tree_request.p50_ns_per_node" in capsys.readouterr().out

    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    records = json.loads(out.read_text())
    assert [(r["workload"], r["seed"], r["pairs"]) for r in records] == [("fresh-exprs", 1, 2), ("long-chains", 7, 3)]
    for record in records:
        assert record["base"] == head and record["change"].startswith(head)
        assert record["seconds"] == spec["run_seconds"]
        assert list(record["metrics"]) == [m["name"] for m in spec["end_to_end"]]
        rate = record["metrics"]["binary.nodes_per_s"]
        assert (rate["delta"], rate["wins"], rate["regressed"]) == (1.0, record["pairs"], False)
        assert record["metrics"]["tree_request.p50_ns_per_node"]["regressed"]
        assert record["failed_share"] == {"base": 0.0, "change": 0.0, "rose": False}

    # Each run's two sides are sibling copies, outside the repository, removed at the end.
    parents = {checkout.parent for _, checkout in ran}
    assert len(parents) == 2
    assert {(side, checkout.name) for side, checkout in ran} == {("base", "base"), ("change", "change")}
    assert not any(ROOT in parent.parents or parent.exists() for parent in parents)
