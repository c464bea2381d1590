#!/usr/bin/env python3
"""evalbench benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the closed loop runs for ``--seconds`` with tracing off
and the end-to-end metrics are printed. With ``--trace 1`` a fixed
schedule sized from ``--seconds`` runs twice, untraced and with spans
around every call into a layer, round by round in alternation; the
per-layer metrics are printed, including the tracing overhead between
the two.

End-to-end times are CPU time of this single-threaded process, scaled to
a fixed reference speed by calibration probes timed alongside (see
calib.py); per-layer times are unscaled CPU time. The last line of
standard output is the JSON result; lines before it are for people.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
import gen
import spans
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "binary.nodes_per_s": "nodes/s",
    "nary.nodes_per_s": "nodes/s",
    "string.nodes_per_s": "nodes/s",
    "tree_request.p50_ns_per_node": "ns/node",
    "tree_request.p90_ns_per_node": "ns/node",
    "string_request.p50_ns_per_node": "ns/node",
    "string_request.p90_ns_per_node": "ns/node",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

CELL_SPANS = {
    "blackbox": "evaluators.blackbox",
    "binary": "evaluators.binary_value",
    "nary": "evaluators.nary_value",
    "string": "parser.eval_string",
}
TIMED_SPANS = (
    "parser.eval_string", "parser.parse_to_tree", "parser.tokenize", "transform.flatten",
    "tree.Bindings", "evaluators.binary_value", "evaluators.nary_value",
    "evaluators.blackbox", "evaluators.evaluate",
)
COUNTS = (
    "parser.tokenize.tokens", "parser.failures", "transform.nodes_in", "transform.nodes_out",
    "transform.failures", "evaluators.binary.visits", "evaluators.nary.visits", "evaluators.failures",
)


def forget_program() -> None:
    """Drop every evalbench module, so the next import executes them again."""
    for name in [m for m in sys.modules if m == "evalbench" or m.startswith("evalbench.")]:
        del sys.modules[name]


def end_to_end(wl, seconds):
    setup = []
    for _ in range(SETUP_REPEATS):
        # every repetition starts from the same heap: the previous one's
        # modules and prepared trees are freed outside the timed region
        wl.unprepare()
        forget_program()
        gc.collect()
        before = calib.calibrate()
        t0 = time.process_time_ns()
        eb = importlib.import_module("evalbench")
        wl.prepare(eb, spans.NULL)
        took = time.process_time_ns() - t0
        probe = (sum(before) + sum(calib.calibrate())) / 2
        setup.append(took * (calib.WALK_NOMINAL_NS + calib.LEX_NOMINAL_NS) / probe / 1e9)
    bad_points = wl.check_points(eb)
    deadline = time.perf_counter() + seconds
    served = wl.serve(wl.rounds(("binary", "nary", "string"), spans.NULL), spans.NULL,
                      lambda s: time.perf_counter() >= deadline)
    p = served.paths
    # read before the percentiles below copy the latency samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "binary.nodes_per_s": p["binary"].nodes_per_s(),
        "nary.nodes_per_s": p["nary"].nodes_per_s(),
        "string.nodes_per_s": p["string"].nodes_per_s(),
        "tree_request.p50_ns_per_node": p["nary"].percentile_ns(0.50),
        "tree_request.p90_ns_per_node": p["nary"].percentile_ns(0.90),
        "string_request.p50_ns_per_node": p["string"].percentile_ns(0.50),
        "string_request.p90_ns_per_node": p["string"].percentile_ns(0.90),
        "success_rate": 1.0 - served.failed / served.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    for path, st in sorted(p.items()):
        print(f"{path}: {st.attempted} evaluations, {st.failed} failed, "
              f"{len(st.latency)} requests timed, {len(st.rates)} windows")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return [served], bad_points, metrics


def per_layer(wl, seconds):
    eb = importlib.import_module("evalbench")
    tr = spans.Tracer()
    wl.prepare(eb, tr)
    bad_points = wl.check_points(eb)
    rounds = max(1, round(seconds * wl.rounds_per_s))
    # Untraced and traced rounds alternate, so drift in machine speed falls
    # on both sides of the overhead comparison alike.
    untraced, traced = workloads.Served(), workloads.Served()
    plain, spanned = wl.rounds(wl.traced_paths, spans.NULL), wl.rounds(wl.traced_paths, tr)
    one_round = lambda s: True
    for _ in range(rounds):
        wl.serve(plain, spans.NULL, one_round, untraced)
        wl.serve(spanned, tr, one_round, traced)
    by_name, by_key = tr.summary()
    metrics = {}
    for name in TIMED_SPANS:
        calls, ns = by_name.get(name, (0, 0))
        metrics[name + ".calls"] = (calls, "calls")
        metrics[name + ".self_s"] = (ns / 1e9, "s")
    for name in COUNTS:
        metrics[name] = (tr.counts[name], "count")
    for method, span in CELL_SPANS.items():
        for i in gen.PAPER:
            calls, ns = by_key.get((span, i), (0, 0))
            metrics[f"evaluators.{method}.e{i}.ns_per_eval"] = (ns / calls if calls else 0.0, "ns")
    overhead = traced.request_cpu_ns / untraced.request_cpu_ns - 1.0
    metrics["trace.overhead"] = (overhead, "fraction")
    print(f"{rounds} rounds each; request CPU untraced {untraced.request_cpu_ns / 1e9:.3f} s, "
          f"traced {traced.request_cpu_ns / 1e9:.3f} s, overhead {overhead:+.2%}")
    return [untraced, traced], bad_points, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "evalbench" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'evalbench'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    wl = WORKLOADS[args.workload](args.seed)
    print(f"workload {wl.name} seed {args.seed} inputs {wl.digest()}")
    served, bad_points, metrics = (per_layer if args.trace else end_to_end)(wl, args.seconds)
    errors = sum((s.errors for s in served), wl.setup_errors.copy())
    for (where, kind), n in sorted(errors.items()):
        print(f"failure: {kind} in {where} x{n}")
    mismatches = sum(s.mismatches for s in served)
    attempted = sum(s.attempted for s in served)
    failed = sum(s.failed for s in served)
    correct = bad_points == 0 and mismatches == 0
    print(f"correct {correct}: {bad_points} point mismatches, {mismatches} request mismatches")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
