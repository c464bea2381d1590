#!/usr/bin/env python3
"""Determinism self-check for the benchmark's inputs and exact counts.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 2]

For every workload it makes three traced runs: two with the same seed and
one with the next seed. The input digest and every exact count (metrics
in calls or count units) must be identical between the first two; the
digest must differ for the other seed. Counts may legitimately repeat
across seeds where the work's shape does not depend on the seed, as on
paper-suite. Exits 1 if any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_UNITS = ("calls", "count")


def traced_run(workload: str, seed: int, seconds: float):
    """(input digest, {exact count name: value}, correct) of one traced run."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout.splitlines()
    digest = out[0].rsplit(" ", 1)[1]
    result = json.loads(out[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS}
    return digest, counts, result["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    ok = True
    for name in WORKLOADS:
        d1, c1, ok1 = traced_run(name, args.seed, args.seconds)
        d2, c2, ok2 = traced_run(name, args.seed, args.seconds)
        d3, c3, ok3 = traced_run(name, args.seed + 1, args.seconds)
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        checks = {
            "outputs correct": ok1 and ok2 and ok3,
            "same seed, same digest": d1 == d2,
            "same seed, same counts": not diff,
            "other seed, other digest": d1 != d3,
        }
        moved = sum(c1[k] != c3.get(k) for k in c1)
        for label, passed in checks.items():
            print(f"{name}: {label}: {'ok' if passed else 'FAILED'}")
            ok &= passed
        if diff:
            print(f"{name}: counts that differ between same-seed runs: {', '.join(diff)}")
        print(f"{name}: {len(c1)} exact counts, {moved} differ for seed {args.seed + 1}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
