#!/usr/bin/env python3
"""Bytecode instructions per evaluation and per parse on the paper suite and on long chains, base against working tree.

    python3 scripts/opcount.py                 # base HEAD, so the uncommitted change is counted
    python3 scripts/opcount.py --base HEAD~1

For each of the eight paper expressions and each method, the script counts
the bytecode instructions that one evaluation at the point (0.3, 0.7)
executes, with ``sys.settrace`` and ``frame.f_trace_opcodes``: black-box
(the routine itself), n-ary (``nary_value`` on the flattened tree), binary
(``binary_value`` on the parsed tree) and string (``eval_string`` on the
text). The last column counts one ``parse_to_tree`` of the text. A second
table gives the string and parse counts per node on four short long-chains
texts, a sum and a product of 8 and of 32 terms, drawn by perfbench's own
``gen.chain`` (seed 1), which the script loads from the working tree
without changing it. Work done
in C (``math``, the regex scan, allocation) is not counted, so a count is a
witness of the Python-level path, not a time; it is exact and repeats,
where timings drift. The base revision is extracted
with ``git archive`` into a temporary directory, and each side is counted
in its own interpreter. The tables give both sides' counts and the change.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("blackbox", "nary", "binary", "string")
COLUMNS = METHODS + ("parse",)
POINT = (0.3, 0.7)
ROOT = Path(__file__).resolve().parent.parent
CHAIN_COLUMNS = ("string", "parse")


def opcodes(fn, *args) -> int:
    """Bytecode instructions executed in Python frames entered by ``fn(*args)``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def cell_counts() -> dict[int, dict[str, int]]:
    """Per paper expression, instructions per evaluation of each method and
    per ``parse_to_tree``, for the ``evalbench`` on ``sys.path``."""
    from evalbench import Bindings, blackbox_lookup, eval_string, flatten, parse_to_tree
    from evalbench.benchmark import EXPRESSIONS
    from evalbench.evaluators import binary_value, nary_value

    b = Bindings(POINT)
    counts = {}
    for eid, text in EXPRESSIONS.items():
        tree = parse_to_tree(text)
        counts[eid] = {
            "blackbox": opcodes(blackbox_lookup(eid), *b),
            "nary": opcodes(nary_value, flatten(tree), b),
            "binary": opcodes(binary_value, tree, b),
            "string": opcodes(eval_string, text, None, b),
            "parse": opcodes(parse_to_tree, text),
        }
    return counts


def chain_counts() -> dict[str, dict[str, float]]:
    """Per long-chains text, named like ``sum-8``, instructions per node of
    one ``eval_string`` at ``POINT`` and of one ``parse_to_tree``."""
    from evalbench import Bindings, eval_string, parse_to_tree

    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = gen.rng_for(1, "long-chains")
    b = Bindings(POINT)
    counts = {}
    for terms in (8, 32):
        for family in ("sum", "product"):
            ast = gen.chain(rng, terms, family)
            text, nodes = gen.render(ast), gen.count_nodes(ast)
            counts[f"{family}-{terms}"] = {"string": opcodes(eval_string, text, None, b) / nodes,
                                           "parse": opcodes(parse_to_tree, text) / nodes}
    return counts


def counted(src: Path) -> tuple[dict[int, dict[str, int]], dict[str, dict[str, float]]]:
    """``cell_counts`` and ``chain_counts`` of the package under ``src``, in
    a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, __file__, "--count"], env=env, capture_output=True,
                         text=True, check=True).stdout
    cells, chains = json.loads(out)
    return {int(eid): row for eid, row in cells.items()}, chains


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count:  # the child: count the package on PYTHONPATH
        print(json.dumps([cell_counts(), chain_counts()]))
        return 0

    with tempfile.TemporaryDirectory(prefix="opcount-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        base, base_chains = counted(Path(tmp) / "src")
    change, change_chains = counted(ROOT / "src")

    print(f"instructions per evaluation at {POINT} and per parse, base {args.base} -> working tree")
    print(f"{'expr':6}" + "".join(f"{m:>22}" for m in COLUMNS))
    for eid in sorted(change):
        cells = "".join(f"{f'{base[eid][m]} -> {change[eid][m]} ({change[eid][m] - base[eid][m]:+d})':>22}"
                        for m in COLUMNS)
        print(f"e{eid:<5}{cells}")
    print(f"\ninstructions per node on long-chains texts (perfbench gen.chain, seed 1), base {args.base} -> working tree")
    print(f"{'text':12}" + "".join(f"{m:>28}" for m in CHAIN_COLUMNS))
    for name, row in change_chains.items():
        was = base_chains[name]
        cells = "".join(f"{f'{was[m]:.2f} -> {row[m]:.2f} ({row[m] - was[m]:+.2f})':>28}" for m in CHAIN_COLUMNS)
        print(f"{name:12}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
