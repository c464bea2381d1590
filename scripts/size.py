#!/usr/bin/env python3
"""Code, docstring, comment and blank lines per module of ``src/evalbench``.

    python3 scripts/size.py                # the working tree
    python3 scripts/size.py --base HEAD    # each count as base -> working tree (change)

A docstring line is any line of a module, class or function docstring; a
comment line holds nothing but a comment; a blank line holds only
whitespace; every other line is code, a line with code and a trailing
comment included. The four columns add up to ``wc -l``. With ``--base`` the
base revision's modules are read with ``git show``; a module on one side
only counts as empty on the other. Run it from anywhere in the repo.
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/evalbench"
KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """Lines of ``source`` by kind."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif line.strip():
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def sizes(base: str | None) -> dict[str, dict[str, int]]:
    """Per module file name, ``line_kinds`` of the working tree, or of
    revision ``base``."""
    if base is None:
        return {path.name: line_kinds(path.read_text()) for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    names = subprocess.run(["git", "-C", str(ROOT), "ls-tree", "--name-only", f"{base}:{PACKAGE}"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: line_kinds(subprocess.run(["git", "-C", str(ROOT), "show", f"{base}:{PACKAGE}/{name}"],
                                            capture_output=True, text=True, check=True).stdout)
            for name in sorted(names) if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="revision to compare against (default: none, the working tree alone)")
    args = parser.parse_args(argv)
    change = sizes(None)
    base = sizes(args.base) if args.base else change
    empty = dict.fromkeys(KINDS, 0)
    rows = {name: (base.get(name, empty), change.get(name, empty)) for name in sorted(base.keys() | change.keys())}
    rows["total"] = tuple({k: sum(r[side][k] for r in rows.values()) for k in KINDS} for side in (0, 1))

    def cell(before: int, after: int) -> str:
        return f"{after}" if args.base is None else f"{before} -> {after} ({after - before:+d})"

    width = 10 if args.base is None else 22
    print(f"lines per module of {PACKAGE}" + ("" if args.base is None else f", base {args.base} -> working tree"))
    print(f"{'module':16}" + "".join(f"{k:>{width}}" for k in KINDS + ("total",)))
    for name, (before, after) in rows.items():
        cells = [cell(before[k], after[k]) for k in KINDS] + [cell(sum(before.values()), sum(after.values()))]
        print(f"{name:16}" + "".join(f"{c:>{width}}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
