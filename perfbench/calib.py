"""Machine-speed reference: fixed pure-Python work owned by the benchmark.

On a shared host the speed of this process drifts by tens of percent
within seconds, as neighbours load the machine. The loop in workloads.py
times ``calibrate()`` between requests and scales the CPU time of the
requests in between by the ratio of a nominal to the measured probe
time, so drift cancels out of comparisons between runs.

Different code slows by different amounts when the machine gets busy, so
there are two probes, each imitating one kind of the program's work: a
recursive walk over slotted node objects with identity tests on the node
kind (for tree walks), and a character-scanning lexer that allocates
frozen slotted tokens (for anything that parses). Each tracks its kind
within about 2% across the host's speed states, where a mismatched probe
drifts by 4-5%. None of it comes from the program, so no change to the
program can move it.
"""

from dataclasses import dataclass

from spans import clock

WALK_NOMINAL_NS = 75_000
LEX_NOMINAL_NS = 100_000


class _Node:
    __slots__ = ("kind", "value", "children")

    def __init__(self, kind, value=0.0, children=()):
        self.kind = kind
        self.value = value
        self.children = children


_ADD, _MUL, _LEAF = object(), object(), object()


def _walk(node, x):
    kind = node.kind
    if kind is _LEAF:
        return node.value * x
    children = node.children
    if kind is _ADD:
        return _walk(children[0], x) + _walk(children[1], x)
    return _walk(children[0], x) * _walk(children[1], x)


def _tree(depth, i):
    if depth == 0:
        return _Node(_LEAF, 1.0 + i / 64)
    return _Node(_ADD if (depth + i) % 2 else _MUL, children=(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    position: int
    text: str


def _lex(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        start = i
        if "0" <= c <= "9":
            while i < n and ("0" <= text[i] <= "9" or text[i] == "."):
                i += 1
            tokens.append(_Token("number", start, text[start:i]))
        elif "a" <= c <= "z":
            while i < n and "a" <= text[i] <= "z":
                i += 1
            tokens.append(_Token("name", start, text[start:i]))
        else:
            i += 1
            tokens.append(_Token(c, start, c))
    return tokens


_TREE = _tree(6, 0)
_TEXT = "2.5*x*y+sin(x+y)^1.5-(3*x+y)/(1.25+y*y)+exp(0.5*x)*sqrt(y+2)" * 2


def calibrate() -> tuple[int, int]:
    """CPU ns of one pass of each probe: (walk, lex)."""
    t0 = clock()
    for i in range(8):
        _walk(_TREE, 0.5 + i / 32)
    t1 = clock()
    _lex(_TEXT)
    return t1 - t0, clock() - t1
