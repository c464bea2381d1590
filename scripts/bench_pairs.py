#!/usr/bin/env python3
"""Compare a base revision with the working tree on perfbench, in pairs.

    python3 scripts/bench_pairs.py --workload fresh-exprs --seed 1 --pairs 10
    python3 scripts/bench_pairs.py --workload long-chains --base HEAD~1
    python3 scripts/bench_pairs.py --workload paper-suite --workload fresh-exprs --json BENCH.json

Both sides run from copies made the same way, in sibling directories of one
temporary directory, ``before`` and ``change`` (names of one length),
removed again at the end: the base revision (default HEAD, so the
uncommitted change is measured) is extracted with ``git archive``, and the
working tree's files (tracked and untracked, less the ignored ones) are
packed into a tar and unpacked likewise. The repository's
``.git`` is not written to. ``--workload`` may be given more than once: the
workloads run one after another against those two copies, and each gets its
own table when its pairs are done. Each pair runs ``perfbench/run.py
--trace 0`` once in each copy, each with its own copy of perfbench, for
BENCHMARK.json's ``run_seconds``; the side that runs first alternates from
pair to pair. For every end-to-end metric in BENCHMARK.json the script
prints each side's median and quartiles, the change's wins (ties count for
neither side), whether a gain could be claimed (wins in at least 9/10 of
the pairs and medians further apart than the base's interquartile spread),
and whether the change regressed: its median worse than the base's by more
than the metric's ``bound``, a fraction of the base's median. Each table
ends with both sides' share of failed operations over all pairs; any larger
share on the change side is a regression too. With ``--json PATH`` each
table is also appended to PATH, a JSON list, as one record, so the file
keeps earlier runs' tables. Run it from anywhere in the repo.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


# Each side's copy, by a directory name of the same length, so that the two
# copies' paths, and what perfbench derives from them, are the same size.
_COPIES = {"base": "before", "change": "change"}


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


def compare(metrics: list[dict], base_runs: list[dict], change_runs: list[dict]) -> dict:
    """Per end-to-end metric, both sides' median and quartiles, the change's
    wins, delta, claim and regression verdict; then both sides' failed shares."""
    pairs = len(base_runs)
    table, regressions = {}, []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        better = cm - bm if higher else bm - cm
        regressed = -better > m["bound"] * abs(bm)
        if regressed:
            regressions.append(name)
        table[name] = {
            "unit": m["unit"], "better": m["better"],
            "base_median": bm, "base_q1": b1, "base_q3": b3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "delta": (cm - bm) / bm if bm else None, "wins": wins,
            "claim": wins * 10 >= pairs * 9 and better > b3 - b1,
            "bound": m["bound"], "regressed": regressed,
        }
    # Any larger share of failed operations counts, whatever the bound on success_rate.
    base_share, change_share = (sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                for runs in (base_runs, change_runs))
    if change_share > base_share:
        regressions.append("failed share")
    return {"metrics": table,
            "failed_share": {"base": base_share, "change": change_share, "rose": change_share > base_share},
            "regressions": regressions}


def report(record: dict) -> None:
    pairs = record["pairs"]
    print(f"workload {record['workload']} seed {record['seed']} {record['seconds']:g} s, {pairs} pairs, "
          f"base {record['base']} vs change {record['change']}")
    print(f"{'metric':34} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'delta':>7} {'wins':>6}  claim  regressed")
    for name, m in record["metrics"].items():
        delta = "n/a" if m["delta"] is None else f"{m['delta']:+.1%}"
        print(f"{name:34} {m['base_median']:>12.5g} [{m['base_q1']:.5g}, {m['base_q3']:.5g}]"
              f" {m['change_median']:>12.5g} [{m['change_q1']:.5g}, {m['change_q3']:.5g}]"
              f" {delta:>7} {m['wins']:>3}/{pairs}  {'yes' if m['claim'] else 'no':5}  "
              f"{'YES' if m['regressed'] else 'no'} (bound {m['bound']:.0%})")
    share = record["failed_share"]
    print(f"{'failed share, all pairs':34} {share['base']:>34.5g} {share['change']:>34.5g} {'':23}"
          f"{'YES' if share['rose'] else 'no'} (any rise)")
    regressions = record["regressions"]
    print(f"regressed past bound: {', '.join(regressions)}" if regressions
          else "no metric regressed past its bound")


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``, starting one if it is absent."""
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1) + "\n")


def unpack(archive: Path, checkout: Path) -> Path:
    """Unpack the tar ``archive`` into the new directory ``checkout``, under
    the ``"data"`` filter where the interpreter has one, as Python 3.14 will
    by default."""
    checkout.mkdir()
    filtered = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    shutil.unpack_archive(archive, checkout, **filtered)
    return checkout


def extract(root: Path, base: str, tmp: Path) -> tuple[str, Path]:
    """(the commit ``base`` names in the repository at ``root``, a copy of
    its tree in ``tmp``), packed with ``git archive``, so the copy has no
    ``.git``."""
    git = ["git", "--no-optional-locks", "-C", str(root)]  # no lock files, no index refresh
    base_rev = subprocess.run(git + ["rev-parse", "--verify", f"{base}^{{commit}}"], capture_output=True,
                              text=True, check=True).stdout.strip()
    # From the top level: run in a subdirectory, git archive packs only that subtree.
    subprocess.run(git + ["archive", "--format=tar", f"--output={tmp / 'base.tar'}", base_rev], check=True)
    return base_rev, unpack(tmp / "base.tar", tmp / _COPIES["base"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="workload to run; repeat for several")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--json", type=Path, help="append each table to this JSON list as one record")
    args = parser.parse_args(argv)

    git = ["git", "-C", str(Path(__file__).resolve().parent)]
    root = Path(subprocess.run(git + ["rev-parse", "--show-toplevel"], capture_output=True,
                               text=True, check=True).stdout.strip())
    git = ["git", "--no-optional-locks", "-C", str(root)]  # no lock files, no index refresh

    def output(*command: str) -> str:
        return subprocess.run(git + list(command), capture_output=True, text=True, check=True).stdout

    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    change_rev = output("rev-parse", "HEAD").strip() + ("+working tree" if output("status", "--porcelain") else "")
    files = output("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        base_rev, base_checkout = extract(root, args.base, tmp)
        with tarfile.open(tmp / "change.tar", "w") as tar:
            for name in files:
                if name and (root / name).exists():  # a file deleted but not yet staged is left out
                    tar.add(root / name, arcname=name, recursive=False)
        sides = {"base": base_checkout, "change": unpack(tmp / "change.tar", tmp / _COPIES["change"])}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_once(sides[side], side, workload, args.seed, seconds, i + 1))
                print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
            record = {"base": base_rev, "change": change_rev, "workload": workload, "seed": args.seed,
                      "pairs": args.pairs, "seconds": seconds,
                      **compare(spec["end_to_end"], runs["base"], runs["change"])}
            report(record)
            print(flush=True)
            if args.json:
                append_record(args.json, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
