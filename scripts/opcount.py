#!/usr/bin/env python3
"""Bytecode instructions per evaluation, per parse and per flatten, and what a parse keeps, on the paper suite and on long chains, base against working tree.

    python3 scripts/opcount.py                 # base HEAD, so the uncommitted change is counted
    python3 scripts/opcount.py --base HEAD~1

For each of the eight paper expressions and each method, the script counts
the bytecode instructions that one evaluation at the point (0.3, 0.7)
executes, with ``sys.settrace`` and ``frame.f_trace_opcodes``: black-box
(the routine itself), n-ary (``nary_value`` on the flattened tree), binary
(``binary_value`` on the parsed tree) and string (``eval_string`` on the
text). The last two columns count one ``parse_to_tree`` of the text and
one ``flatten`` of its parsed tree. A second
table gives the string and parse counts per node on four short long-chains
texts, a sum and a product of 8 and of 32 terms, drawn by perfbench's own
``gen.chain`` (seed 1), which the script loads from the working tree
without changing it. Work done
in C (``math``, the regex scan, allocation) is not counted, so a count is a
witness of the Python-level path, not a time; it is exact and repeats,
where timings drift. A third table gives, on the same texts less ``e1``
(a lone leaf), the objects that the cyclic garbage collector tracks
(``gc.get_objects()``) and the bytes that ``tracemalloc`` traces, which
``parse_to_tree`` keeps, per interior node of its tree, and which
``flatten`` then keeps besides, per interior node of the flat tree; these
counts are exact too. The base revision is extracted
into a temporary directory by ``scripts/bench_pairs.py``'s ``extract``, and
each side is counted in its own interpreter. The tables give both sides'
counts and the change.
"""

import argparse
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

METHODS = ("blackbox", "nary", "binary", "string")
COLUMNS = METHODS + ("parse", "flatten")
POINT = (0.3, 0.7)
ROOT = Path(__file__).resolve().parent.parent
CHAIN_COLUMNS = ("string", "parse")
KEPT_COLUMNS = ("parse objects", "parse bytes", "flatten objects", "flatten bytes")
KEPT = 100  # parses of one text kept at once by ``kept_counts``


def opcodes(fn, *args) -> int:
    """Bytecode instructions executed in Python frames entered by ``fn(*args)``.

    ``fn(*args)`` runs once first in a tracing session of its own, whose
    count is dropped: from CPython 3.12, ``sys.settrace`` runs on PEP 669
    monitoring, and a code object's first session delivers no ``opcode``
    events when ``f_trace_opcodes`` is set from the ``call`` event, so a
    fresh function would count 0."""

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    for _ in range(2):
        count = 0
        sys.settrace(call)
        try:
            fn(*args)
        finally:
            sys.settrace(previous)
    return count


def cell_counts() -> dict[int, dict[str, int]]:
    """Per paper expression, instructions per evaluation of each method,
    per ``parse_to_tree`` and per ``flatten`` of the parsed tree, for the
    ``evalbench`` on ``sys.path``."""
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
            "flatten": opcodes(flatten, tree),
        }
    return counts


def chain_texts() -> dict[str, tuple[str, int]]:
    """Four long-chains texts, named like ``sum-8``, with their node counts."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = gen.rng_for(1, "long-chains")
    texts = {}
    for terms in (8, 32):
        for family in ("sum", "product"):
            ast = gen.chain(rng, terms, family)
            texts[f"{family}-{terms}"] = gen.render(ast), gen.count_nodes(ast)
    return texts


def chain_counts() -> dict[str, dict[str, float]]:
    """Per long-chains text, instructions per node of one ``eval_string`` at
    ``POINT`` and of one ``parse_to_tree``."""
    from evalbench import Bindings, eval_string, parse_to_tree

    b = Bindings(POINT)
    return {name: {"string": opcodes(eval_string, text, None, b) / nodes,
                   "parse": opcodes(parse_to_tree, text) / nodes}
            for name, (text, nodes) in chain_texts().items()}


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def _traced() -> int:
    gc.collect()  # a full collection also empties CPython's free lists
    return tracemalloc.get_traced_memory()[0]


def kept_counts() -> dict[str, dict[str, float]]:
    """Per paper text with an interior node (``e2``..``e8``) and per
    long-chains text, tracked objects and traced bytes that ``parse_to_tree``
    keeps, per interior node of its tree, and that ``flatten`` then keeps
    besides, per interior node of the flat tree. Each is taken over ``KEPT``
    parses kept at once, so that the few blocks that CPython's free lists
    keep after a parse weigh next to nothing."""
    from evalbench import flatten, parse_to_tree
    from evalbench.benchmark import EXPRESSIONS
    from evalbench.tree import _preorder

    def interior(tree) -> int:
        return KEPT * sum(1 for node, _ in _preorder(tree) if node.children)

    texts = {f"e{eid}": text for eid, text in EXPRESSIONS.items() if eid != 1}
    texts |= {name: text for name, (text, _) in chain_texts().items()}
    counts = {}
    tracemalloc.start()
    try:
        for name, text in texts.items():
            flatten(parse_to_tree(text))  # anything made on first use is made now
            nodes = interior(parse_to_tree(text)), interior(flatten(parse_to_tree(text)))
            row = counts[name] = {}
            for unit, measure in (("objects", _tracked), ("bytes", _traced)):
                trees, flats = [None] * KEPT, [None] * KEPT
                before = measure()
                for i in range(KEPT):
                    trees[i] = parse_to_tree(text)
                parsed = measure()
                for i in range(KEPT):
                    flats[i] = flatten(trees[i])
                row[f"parse {unit}"] = (parsed - before) / nodes[0]
                row[f"flatten {unit}"] = (measure() - parsed) / nodes[1]
    finally:
        tracemalloc.stop()
    return counts


def counted(src: Path) -> tuple[dict[int, dict[str, int]], dict[str, dict[str, float]], dict[str, dict[str, float]]]:
    """``cell_counts``, ``chain_counts`` and ``kept_counts`` of the package
    under ``src``, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, __file__, "--count"], env=env, capture_output=True,
                         text=True, check=True).stdout
    cells, chains, kept = json.loads(out)
    return {int(eid): row for eid, row in cells.items()}, chains, kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count:  # the child: count the package on PYTHONPATH
        print(json.dumps([cell_counts(), chain_counts(), kept_counts()]))
        return 0

    from bench_pairs import extract  # a sibling script, so its directory leads sys.path

    with tempfile.TemporaryDirectory(prefix="opcount-") as tmp:
        base_rev, checkout = extract(ROOT, args.base, Path(tmp))
        base, base_chains, base_kept = counted(checkout / "src")
    change, change_chains, change_kept = counted(ROOT / "src")

    print(f"instructions per evaluation at {POINT}, per parse and per flatten, "
          f"base {args.base} ({base_rev[:12]}) -> working tree")
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
    print(f"\ntracked objects and traced bytes kept per interior node by parse_to_tree, then by flatten, base {args.base} -> working tree")
    print(f"{'text':12}" + "".join(f"{m:>28}" for m in KEPT_COLUMNS))
    for name, row in change_kept.items():
        was = base_kept[name]
        cells = "".join(f"{f'{was[m]:.2f} -> {row[m]:.2f} ({row[m] - was[m]:+.2f})':>28}" for m in KEPT_COLUMNS)
        print(f"{name:12}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
