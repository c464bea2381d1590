#!/usr/bin/env python3
"""Check that a base revision and the working tree give the same outcomes on one seeded corpus.

    python3 scripts/equiv.py                 # base HEAD, so the uncommitted change is checked
    python3 scripts/equiv.py --base HEAD~1

The corpus is drawn from ``SEED`` with the standard library and
perfbench's own ``gen`` (loaded from the working tree without changing it):
token soups; fresh-exprs texts (``gen.random_expr``) and one random
one-character edit of each; the long-chains texts (``gen.chain``);
deep-nesting edge cases around the depth bound ``tree._DEEP``; and the paper
texts with some picked by hand. Each text goes through ``eval_string``,
``interpret_string`` and ``evaluate(STRING_PARSE, ...)`` at five points
(``POINTS``, the last one short), and once through ``parse_to_tree`` and
``flatten``; the parsed and the flat tree go through ``binary_value``,
``nary_value`` and ``evaluate`` under both tree methods at the same
points. The black-box routines, and sources of the wrong shape, go through
``evaluate`` under every method.
Then, under ``tree._DEEP`` = 300 and 3, trees from every build route (the
parser, ``make_*`` and ``ExprNode(...)``, and ``ExprNode(...)`` of every
interior kind and of ``"bogus"`` with 0 to 4 children), each also
flattened, and all of those pickled and copied, are compared by shape and
walked by the tree calls at the same points.

An outcome is a value's bits (so its sign, a zero's included), the
``visits`` beside it, a tree's ``count_nodes`` and ``to_sexpr``, or an
exception's type and message, a domain fault's included. Every label
begins with the label of its corpus item or direct build and a ``:``. The
base revision is extracted into a temporary directory by
``scripts/bench_pairs.py``'s ``extract``, and each side runs in its own
interpreter, this one, on the package under its ``src``. The two sides'
outcomes are matched by label, which is unique within a side. The script
prints the totals, the first mismatches and the mismatches per root label,
the text before its first ``:``, so one line per item or build, and exits 1
on any mismatch. Run it from anywhere in the repo.
"""

import argparse
import copy
import hashlib
import importlib.util
import itertools
import json
import os
import pickle
import random
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the corpus's seed
POINTS = ((0.5, 0.25), (0.0, -0.0), (-2.0, 3.5), (1e300, 1e-300), (0.5,))
DEEPS = (300, 3)
SOUPS = 5000  # token soups
FRESH = 2000  # fresh-exprs texts, each also edited
SHOWN = 10  # mismatches printed
SEXPR = 200  # a longer s-expression is compared by its digest
_SOUP = ("x", "y", "z", "0", "1", "2.5", "1e308", "1e-320", "0.0", "+", "-", "*", "/", "^", "(", ")",
         "sin", "cos", "tan", "exp", "log", "sqrt", "foo", " ", ".", "e", "#", "_")
_EDIT = "xyz0123456789.e+-*/^() sincoexplgqrt#"
_PICKED = (
    "", " ", "x", "2.5", " x + y ", "x+", "x+  ", "sin(", "sin()", "sin x", "((x)", "x))", "x y", "3.", ".5",
    "1e", "1e+5", "1e309", "1e-400", "z", "foo(x)", "x+-y", "--x", "x^-y", "x^y^x", "2^1024", "exp(1000)",
    "1/(x-x)", "log(x-x)+y", "sqrt(-1)", "log(0)", "0/0", "0^-1", "(-8)^(1/3)", "tan(1.5707963267948966)",
    "-0.0*x", "0*-x", "x*0*-1", "-x+x", "x-x", "-(x-x)", "y-y+x-x", "x*y*x/3", "sin(x)*2.5 + y^-x - x*y*x/3",
    "x+y+1-sin(-x)*2",
)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _edit(rng: random.Random, text: str) -> str:
    """``text`` with one random character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    how = rng.choice(("insert", "delete", "replace") if i < len(text) else ("insert",))
    keep = i + (how != "insert")
    return text[:i] + ("" if how == "delete" else rng.choice(_EDIT)) + text[keep:]


def _deep_texts(depth: int) -> list[str]:
    """Texts nested ``depth`` levels deep, or chained ``depth`` terms long."""
    d = depth
    terms = "+".join(["x*y"] * d)
    return [
        "sin(" * d + "x" + ")" * d, "-" * d + "x", "(" * d + "x+y" + ")" * d, "x^" * d + "y",
        "x" + "+x" * d, "-".join(["x"] * (d + 1)), "*".join(["y"] * (d + 1)),
        f"sin({terms})", f"-({terms})", f"x^({terms})", f"1/({terms})", f"({terms})-x",
        "log(" + "-" * d + "(x-x))", "1/(" + "(" * d + "x-x" + ")" * d + ")",
        "(" * d + "x", "sin(" * d + "x" + ")" * (d - 1),
    ]


def corpus() -> list[tuple[str, str, bool]]:
    """(label, text, tree source) triples, drawn from ``SEED`` alone. A tree
    source's parsed tree is also built by every route under every ``DEEPS``
    bound: the picked and paper texts, every tenth fresh text, the deep cases
    up to 302 levels and the two shortest chains of each family."""
    gen = _load_gen()
    rng = random.Random(SEED)
    items = [(f"picked {i}", text, True) for i, text in enumerate(_PICKED)]
    items += [(f"paper e{eid}", text, True) for eid, (text, _, _) in gen.PAPER.items()]
    for i in range(SOUPS):
        items.append((f"soup {i}", "".join(rng.choice(_SOUP) for _ in range(rng.randint(1, 12))), False))
    stream = gen.rng_for(SEED, "fresh-exprs")
    for i in range(FRESH):
        text = gen.render(gen.random_expr(stream))
        items += [(f"fresh {i}", text, i % 10 == 0), (f"fresh {i} edit", _edit(rng, text), False)]
    stream = gen.rng_for(SEED, "long-chains")
    for n, terms in enumerate(gen.chain_terms(12)):
        for family in ("sum", "product"):
            items.append((f"chain {family} {terms}", gen.render(gen.chain(stream, terms, family)), n < 2))
    for depth in (1, 2, 3, 4, 199, 200, 201, 298, 299, 300, 301, 302, 500, 999, 1000):
        items += [(f"deep {depth} #{i}", text, depth <= 302) for i, text in enumerate(_deep_texts(depth))]
    return items


# --- one side: run in a child interpreter, on the package on PYTHONPATH --------


def _raised(exc: BaseException) -> str:
    return f"raise {type(exc).__qualname__}: {exc}"


def _shown(result) -> str:
    """A call's result as text: a float's bits, a tuple's items, a tree's
    node count and s-expression."""
    from evalbench import ExprNode, count_nodes
    from evalbench.tree import to_sexpr

    if isinstance(result, float):
        return struct.pack(">d", result).hex()
    if isinstance(result, tuple):  # EvalOutcome and interpret_string's (value, visits)
        return " ".join(map(_shown, result))
    if isinstance(result, ExprNode):
        sexpr = to_sexpr(result)
        if len(sexpr) > SEXPR:
            sexpr = f"sha256 {hashlib.sha256(sexpr.encode()).hexdigest()} of {len(sexpr)} characters"
        return f"{count_nodes(result)} nodes {sexpr}"
    return repr(result)


class _Recorder:
    """Writes one JSON line ``[label, outcome]`` per call."""

    def __init__(self, out):
        self.out = out

    def __call__(self, label: str, fn, *args):
        """``fn(*args)``'s outcome, written under ``label``; returns its
        result, or None if it raised."""
        try:
            result = fn(*args)
        except Exception as exc:
            result, shown = None, _raised(exc)
        else:
            try:
                shown = _shown(result)
            except Exception as exc:
                shown = "shown as " + _raised(exc)
        self.out.write(json.dumps([label, shown]) + "\n")
        return result


def _walks(record: _Recorder, label: str, tree) -> None:
    from evalbench import Bindings, EvalMethod, evaluate
    from evalbench.evaluators import binary_value, nary_value

    for p, point in enumerate(POINTS):
        b = Bindings(point)
        record(f"{label}: binary_value p{p}", binary_value, tree, b)
        record(f"{label}: nary_value p{p}", nary_value, tree, b)
        for method in (EvalMethod.BINARY_TREE, EvalMethod.NARY_TREE):
            record(f"{label}: evaluate {method.name} p{p}", evaluate, method, tree, b)


def _remake(tree, build):
    """``tree`` built again bottom-up, each node by ``build(node, children)``,
    on an explicit stack."""
    built = []
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            n = len(node.children)
            children = tuple(built[len(built) - n:])
            del built[len(built) - n:]
            built.append(build(node, children))
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
    return built[0]


def _through_make(node, children):
    from evalbench import OpKind, make_constant, make_op, make_variable

    if node.kind is OpKind.CONSTANT:
        return make_constant(node.value)
    if node.kind is OpKind.VARIABLE:
        return make_variable(node.var_index)
    return make_op(node.kind, children, node.fn_name)


def _through_node(node, children):
    from evalbench import ExprNode

    return ExprNode(node.kind, node.value, node.var_index, node.fn_name, children)


def _trees(record: _Recorder, label: str, roots: list) -> None:
    """Each of ``roots``, a (name, tree) pair, and its flat form, each also
    pickled and copied: compared by shape and walked, under labels that
    begin with ``label`` and a ``:``."""
    from evalbench import flatten

    built = []
    for name, tree in roots:
        built.append((name, tree))
        flat = record(f"{label}: {name}: flatten", flatten, tree)
        if flat is not None:
            built.append((f"{name} flat", flat))
    copies = (("pickled", lambda t: pickle.loads(pickle.dumps(t))), ("copy", copy.copy), ("deepcopy", copy.deepcopy))
    for name, tree in built:
        _walks(record, f"{label}: {name}", tree)
        for how, make in copies:
            copied = record(f"{label}: {name} {how}", make, tree)
            if copied is not None:
                _walks(record, f"{label}: {name} {how}", copied)


def _direct_nodes(record: _Recorder, prefix: str) -> None:
    """``ExprNode(...)`` of every interior kind and of ``"bogus"``, with 0 to
    4 children: leaves, small subtrees, or a first child of 301 nodes; each
    label begins with ``prefix``."""
    from evalbench import ExprNode, OpKind, parse_to_tree

    kinds = [kind for kind in OpKind if kind not in (OpKind.CONSTANT, OpKind.VARIABLE)] + ["bogus"]
    texts = {"leaves": ("x", "2.5", "y", "-0.0"), "subtrees": ("x*y", "sin(x)", "x-y", "2^x"),
             "deep": ("-" * 300 + "x", "y", "x+y", "0.5")}
    pools = {pool: [record(f"{prefix}direct {pool} {i}: parse_to_tree", parse_to_tree, t) for i, t in enumerate(ts)]
             for pool, ts in texts.items()}
    for kind, (pool, children), n in itertools.product(kinds, pools.items(), range(5)):
        fn_name = "sin" if kind is OpKind.UNARY_FN else None
        label = f"{prefix}direct {getattr(kind, 'name', kind)} of {n} {pool}"
        node = record(f"{label}: ExprNode", lambda: ExprNode(kind, fn_name=fn_name, children=children[:n]))
        if node is not None:
            _trees(record, label, [("node", node)])


def run_side(items: list[tuple[str, str, bool]], out) -> None:
    """Write every outcome of the corpus ``items`` to ``out``, for the
    ``evalbench`` on ``sys.path``."""
    from evalbench import DEFAULT_SYMBOLS, Bindings, EvalMethod, eval_string, evaluate, flatten, parse_to_tree
    from evalbench import tree as tree_module
    from evalbench.parser import interpret_string

    record = _Recorder(out)
    for label, text, _ in items:
        for p, point in enumerate(POINTS):
            b = Bindings(point)
            record(f"{label}: eval_string p{p}", eval_string, text, None, b)
            record(f"{label}: interpret_string p{p}", interpret_string, text, DEFAULT_SYMBOLS, b)
            record(f"{label}: evaluate STRING_PARSE p{p}", evaluate, EvalMethod.STRING_PARSE, text, b)
        tree = record(f"{label}: parse_to_tree", parse_to_tree, text)
        if tree is not None:
            _walks(record, f"{label}: parsed", tree)
            flat = record(f"{label}: flatten", flatten, tree)
            if flat is not None:
                _walks(record, f"{label}: flat", flat)
    sources = ["x+y", record("source 1: parse_to_tree", parse_to_tree, "x+y"), 0, 1, 8, 9, True, 1.0, None]
    for method, (s, source), (p, point) in itertools.product(EvalMethod, enumerate(sources), enumerate(POINTS)):
        record(f"source {s}: evaluate {method.name} p{p}", evaluate, method, source, point)

    deep = tree_module._DEEP
    try:
        for bound in DEEPS:
            tree_module._DEEP = bound
            for label, text, source in items:
                where = f"_DEEP {bound} {label}"
                parsed = record(f"{where}: parse_to_tree", parse_to_tree, text) if source else None
                if parsed is not None:
                    roots = [("parsed", parsed)] + [
                        (name, record(f"{where}: {name}", _remake, parsed, build))
                        for name, build in (("make", _through_make), ("node", _through_node))]
                    _trees(record, where, [(name, tree) for name, tree in roots if tree is not None])
            _direct_nodes(record, f"_DEEP {bound} ")
    finally:
        tree_module._DEEP = deep


# --- the comparison ----------------------------------------------------------


def outcomes(src: Path, corpus_path: Path, out_path: Path) -> str:
    """Run the corpus at ``corpus_path`` through the package under ``src``,
    in a fresh interpreter, writing its outcomes to ``out_path``; returns
    where that package was imported from."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--run", str(corpus_path), str(out_path)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"the run on {src} exited with code {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip()


def _read(path: Path) -> dict[str, str]:
    """The outcomes in the file at ``path``, by label, in file order; a
    label that repeats is an error."""
    read = {}
    with open(path) as lines:
        for line in lines:
            label, shown = json.loads(line)
            if label in read:
                raise SystemExit(f"the label {label!r} repeats in {path}")
            read[label] = shown
    return read


def compare(base_path: Path, change_path: Path) -> tuple[int, int, list[tuple[str, str, str]], Counter]:
    """(labels compared, mismatches, the first ``SHOWN`` mismatches as
    (label, base, change), mismatches per root label, the text before a
    label's first ``:``). Outcomes are matched by label, so an outcome that
    only one side writes is one mismatch, and shifts no other."""
    base, change = _read(base_path), _read(change_path)
    missing = "(no such outcome)"
    labels = base | change  # the base's labels in order, then the change's own
    first, roots = [], Counter()
    for label in labels:
        b, c = base.get(label, missing), change.get(label, missing)
        if b != c:
            roots[label.split(":")[0]] += 1
            if len(first) < SHOWN:
                first.append((label, b, c))
    return len(labels), sum(roots.values()), first, roots


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default: HEAD)")
    parser.add_argument("--run", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run:  # the child: run the corpus through the package on PYTHONPATH
        import evalbench

        corpus_path, out_path = args.run
        with open(out_path, "w") as out:
            run_side([tuple(item) for item in json.loads(corpus_path.read_text())], out)
        print(evalbench.__file__)
        return 0

    from bench_pairs import extract  # a sibling script, so its directory leads sys.path

    items = corpus()
    with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
        tmp = Path(tmp)
        corpus_path = tmp / "corpus.json"
        corpus_path.write_text(json.dumps(items))
        base_rev, checkout = extract(ROOT, args.base, tmp)
        sides = {"base": checkout / "src", "change": ROOT / "src"}
        for side, src in sides.items():
            imported = outcomes(src, corpus_path, tmp / f"{side}.jsonl")
            if not Path(imported).resolve().is_relative_to(src.resolve()):
                raise SystemExit(f"the {side} run imported evalbench from {imported}, not from {src}")
        total, mismatches, first, roots = compare(tmp / "base.jsonl", tmp / "change.jsonl")

    print(f"{len(items)} texts (seed {SEED}), {total} outcomes under {sys.implementation.name} "
          f"{sys.version.split()[0]}, base {args.base} ({base_rev[:12]}) -> working tree: "
          f"{mismatches} mismatches")
    for label, base, change in first:
        print(f"  {label}\n    base:   {base[:300]}\n    change: {change[:300]}")
    if roots:
        print("mismatches per root label:")
        for root, count in roots.items():
            print(f"  {count:7d}  {root}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
