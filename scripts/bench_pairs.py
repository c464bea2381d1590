#!/usr/bin/env python3
"""Compare a base revision with the working tree on perfbench, in pairs.

    python3 scripts/bench_pairs.py --workload fresh-exprs --seed 1 --pairs 10
    python3 scripts/bench_pairs.py --workload long-chains --base HEAD~1
    python3 scripts/bench_pairs.py --workload paper-suite --workload fresh-exprs --workload long-chains

The base revision (default HEAD, so the uncommitted change is measured) is
extracted once with ``git archive`` into a temporary directory, removed
again at the end; the repository's ``.git`` is not written to. ``--workload``
may be given more than once: the workloads run one after another against
that one extraction, and each gets its own table when its pairs are done.
Each pair runs ``perfbench/run.py --trace 0`` once in that checkout and
once in the working tree, each with its own copy of perfbench, for
BENCHMARK.json's ``run_seconds``; the side that runs first alternates
from pair to pair. For every end-to-end metric in BENCHMARK.json the
script prints each side's median and quartiles, the change's wins (ties
count for neither side), whether a gain could be claimed (wins in at
least 9/10 of the pairs and medians further apart than the base's
interquartile spread), and whether the change regressed: its median worse
than the base's by more than the metric's ``bound``, a fraction of the
base's median. Each table ends with both sides' share of failed operations
over all pairs; any larger share on the change side is a regression too.
Run it from anywhere in the repo.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, side: str, workload: str, seed: int, seconds: float, pair: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    run = f"{side} run of {workload}, seed {seed}, pair {pair} (in {checkout})"
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["correct"]:
            values = {name: m["value"] for name, m in result["metrics"].items()}
            values["failed"], values["attempted"] = result["failed"], result["attempted"]
            return values
        failure = f"{run} gave incorrect output"
    else:
        failure = f"{run} exited with code {proc.returncode}"
    tail = "\n".join(proc.stderr.splitlines()[-20:])
    raise SystemExit(f"{failure}; the last lines of its stderr:\n{tail}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metrics: list[dict], base_runs: list[dict], change_runs: list[dict]) -> None:
    pairs = len(base_runs)
    regressions = []
    print(f"{'metric':34} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'delta':>7} {'wins':>6}  claim  regressed")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        better = cm - bm if higher else bm - cm
        claim = wins * 10 >= pairs * 9 and better > b3 - b1
        regressed = -better > m["bound"] * abs(bm)
        if regressed:
            regressions.append(name)
        delta = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
        print(f"{name:34} {bm:>12.5g} [{b1:.5g}, {b3:.5g}] {cm:>12.5g} [{c1:.5g}, {c3:.5g}]"
              f" {delta:>7} {wins:>3}/{pairs}  {'yes' if claim else 'no':5}  "
              f"{'YES' if regressed else 'no'} (bound {m['bound']:.0%})")
    # Any larger share of failed operations counts, whatever the bound on success_rate.
    base_share, change_share = (sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                for runs in (base_runs, change_runs))
    rose = change_share > base_share
    if rose:
        regressions.append("failed share")
    print(f"{'failed share, all pairs':34} {base_share:>34.5g} {change_share:>34.5g} {'':23}"
          f"{'YES' if rose else 'no'} (any rise)")
    print(f"regressed past bound: {', '.join(regressions)}" if regressions
          else "no metric regressed past its bound")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    args = parser.parse_args()

    git = ["git", "-C", str(Path(__file__).resolve().parent)]
    root = Path(subprocess.run(git + ["rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        base_dir = Path(tmp) / "base"
        base_dir.mkdir()
        archive = Path(tmp) / "base.tar"
        # From the top level: run in a subdirectory, git archive packs only that subtree.
        subprocess.run(["git", "-C", str(root), "archive", "--format=tar", f"--output={archive}", args.base],
                       check=True)
        shutil.unpack_archive(archive, base_dir)
        sides = {"base": base_dir, "change": root}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], side, workload, args.seed, seconds, i + 1))
                print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
            print(f"workload {workload} seed {args.seed} {seconds:g} s, {args.pairs} pairs, "
                  f"base {args.base} vs working tree")
            report(spec["end_to_end"], runs["base"], runs["change"])
            print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
