#!/usr/bin/env python3
"""Bytecode instructions per evaluation and per parse on the paper suite, base against working tree.

    python3 scripts/opcount.py                 # base HEAD, so the uncommitted change is counted
    python3 scripts/opcount.py --base HEAD~1

For each of the eight paper expressions and each method, the script counts
the bytecode instructions that one evaluation at the point (0.3, 0.7)
executes, with ``sys.settrace`` and ``frame.f_trace_opcodes``: black-box
(the routine itself), n-ary (``nary_value`` on the flattened tree), binary
(``binary_value`` on the parsed tree) and string (``eval_string`` on the
text). The last column counts one ``parse_to_tree`` of the text. Work done
in C (``math``, the regex scan, allocation) is not counted, so a count is a
witness of the Python-level path, not a time; it is exact and repeats,
where timings drift. The base revision is extracted
with ``git archive`` into a temporary directory, and each side is counted
in its own interpreter. The table gives both sides' counts and the change.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("blackbox", "nary", "binary", "string")
COLUMNS = METHODS + ("parse",)
POINT = (0.3, 0.7)


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


def counted(src: Path) -> dict[int, dict[str, int]]:
    """``cell_counts`` of the package under ``src``, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, __file__, "--count"], env=env, capture_output=True,
                         text=True, check=True).stdout
    return {int(eid): cells for eid, cells in json.loads(out).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count:  # the child: count the package on PYTHONPATH
        print(json.dumps(cell_counts()))
        return 0

    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory(prefix="opcount-") as tmp:
        archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", args.base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        base = counted(Path(tmp) / "src")
    change = counted(root / "src")

    print(f"instructions per evaluation at {POINT} and per parse, base {args.base} -> working tree")
    print(f"{'expr':6}" + "".join(f"{m:>22}" for m in COLUMNS))
    for eid in sorted(change):
        cells = "".join(f"{f'{base[eid][m]} -> {change[eid][m]} ({change[eid][m] - base[eid][m]:+d})':>22}"
                        for m in COLUMNS)
        print(f"e{eid:<5}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
