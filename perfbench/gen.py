"""Seeded input generators and the independent reference for the benchmark.

Nothing here imports the program under test: the workloads must stay the
same whatever a change to the program does. Expressions are built as the
benchmark's own binary-form AST (nested tuples), rendered to text with
just the parentheses the program's grammar needs, and evaluated by an
iterative reference that folds operands in source order.

AST nodes:
    ("v", 0) / ("v", 1)        variable x / y
    ("c", value, text)         non-negative literal; value == float(text)
    ("neg", a)                 unary minus
    ("fn", name, a)            sin, cos, exp, log, sqrt
    (op, a, b)                 op in "+", "-", "*", "/", "^"
"""

import hashlib
import math
import random
import struct

X = ("v", 0)
Y = ("v", 1)

FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "sqrt": math.sqrt}

# Precedence as the grammar sees it: "-" factor binds looser than "^",
# whose base must be an atom.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "v": 5, "c": 5, "fn": 5}


def rng_for(seed: int, stream: str) -> random.Random:
    """Independent deterministic stream; str seeds hash with SHA-512."""
    return random.Random(f"perfbench/{stream}/{seed}")


def const(text: str) -> tuple:
    return ("c", float(text), text)


def unit_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return [(rng.random(), rng.random()) for _ in range(n)]


def count_nodes(ast: tuple) -> int:
    total = 0
    stack = [ast]
    while stack:
        node = stack.pop()
        total += 1
        kind = node[0]
        if kind == "neg":
            stack.append(node[1])
        elif kind == "fn":
            stack.append(node[2])
        elif kind not in ("v", "c"):
            stack.append(node[1])
            stack.append(node[2])
    return total


def _push(stack: list, node: tuple, paren: bool) -> None:
    if paren:
        stack += [")", node, "("]
    else:
        stack.append(node)


def render(ast: tuple) -> str:
    """Source text that the program's parser turns back into exactly ``ast``."""
    out = []
    stack = [ast]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kind = item[0]
        if kind == "v":
            out.append("xy"[item[1]])
        elif kind == "c":
            out.append(item[2])
        elif kind == "fn":
            stack += [")", item[2], item[1] + "("]
        elif kind == "neg":
            _push(stack, item[1], _PREC[item[1][0]] < 3)
            stack.append("-")
        elif kind == "^":
            _push(stack, item[2], _PREC[item[2][0]] < 3)
            stack.append("^")
            _push(stack, item[1], _PREC[item[1][0]] < 5)
        else:
            p = _PREC[kind]
            _push(stack, item[2], _PREC[item[2][0]] <= p)
            stack.append(kind)
            _push(stack, item[1], _PREC[item[1][0]] < p)
    return "".join(out)


def ref_eval(ast: tuple, x: float, y: float) -> float:
    """Iterative post-order evaluation, left operand before right."""
    vals = []
    stack = [(ast, False)]
    while stack:
        node, ready = stack.pop()
        kind = node[0]
        if kind == "v":
            vals.append(x if node[1] == 0 else y)
        elif kind == "c":
            vals.append(node[1])
        elif not ready:
            stack.append((node, True))
            if kind == "neg":
                stack.append((node[1], False))
            elif kind == "fn":
                stack.append((node[2], False))
            else:
                stack.append((node[2], False))
                stack.append((node[1], False))
        elif kind == "neg":
            vals.append(-vals.pop())
        elif kind == "fn":
            vals.append(FUNCS[node[1]](vals.pop()))
        else:
            b = vals.pop()
            a = vals.pop()
            if kind == "+":
                vals.append(a + b)
            elif kind == "-":
                vals.append(a - b)
            elif kind == "*":
                vals.append(a * b)
            elif kind == "/":
                vals.append(a / b)
            else:
                vals.append(math.pow(a, b))
    return vals[0]


def close(a: float, b: float) -> bool:
    """Agreement to 9 significant digits, absolute below magnitude 1."""
    return abs(a - b) <= 5e-10 * max(1.0, abs(a), abs(b))


def digest(texts, points) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    for x, y in points:
        h.update(struct.pack("<dd", x, y))
    return h.hexdigest()[:16]


# --- the paper's eight expressions --------------------------------------------
# Texts, binary-form ASTs (for node counts) and hand-written formulas that
# serve as the reference; none of it comes from the program.

def _xy_pow():
    return ("^", X, Y)


PAPER = {
    1: ("x", X, lambda x, y: x),
    2: ("x+y", ("+", X, Y), lambda x, y: x + y),
    3: ("x^y", _xy_pow(), lambda x, y: x ** y),
    4: ("(x+y)*x^y", ("*", ("+", X, Y), _xy_pow()), lambda x, y: (x + y) * x ** y),
    5: ("sin(x)", ("fn", "sin", X), lambda x, y: math.sin(x)),
    6: ("sin((x+y)*x^y)", ("fn", "sin", ("*", ("+", X, Y), _xy_pow())),
        lambda x, y: math.sin((x + y) * x ** y)),
    7: ("x+y+1", ("+", ("+", X, Y), const("1")), lambda x, y: x + y + 1.0),
    8: ("2*x*y*(x+y+1)", ("*", ("*", ("*", const("2"), X), Y), ("+", ("+", X, Y), const("1"))),
        lambda x, y: 2.0 * x * y * (x + y + 1.0)),
}


# --- random domain-safe expressions -------------------------------------------
# Every node carries a conservative value interval over [0,1]^2; an
# operator is only placed where the interval keeps it inside its domain,
# so any error the program raises on these inputs is a program failure.

_LIMIT = 1e6


def _iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


def _iv_binary(op, a, b):
    if op == "+":
        return a[0] + b[0], a[1] + b[1]
    if op == "-":
        return a[0] - b[1], a[1] - b[0]
    if op == "*":
        return _iv_mul(a, b)
    if op == "/":
        if not (b[0] >= 0.05 or b[1] <= -0.05):
            return None
        return _iv_mul(a, (1.0 / b[1], 1.0 / b[0]))
    # "^": positive base and a small exponent keep pow finite and real
    if a[0] < 0.05 or max(abs(b[0]), abs(b[1])) > 4.0:
        return None
    corners = [math.exp(e * math.log(v)) for v in a for e in b]
    return min(corners), max(corners)


def _iv_unary(name, a):
    if name == "neg":
        return -a[1], -a[0]
    if name in ("sin", "cos"):
        return -1.0, 1.0
    if name == "exp":
        return (math.exp(a[0]), math.exp(a[1])) if a[1] <= 10.0 else None
    if name == "log":
        return (math.log(a[0]), math.log(a[1])) if a[0] >= 1e-3 else None
    return (math.sqrt(a[0]), math.sqrt(a[1])) if a[0] >= 0.0 else None


def _bounded(iv):
    return iv is not None and -_LIMIT <= iv[0] and iv[1] <= _LIMIT


def _random_leaf(rng):
    r = rng.random()
    if r < 0.35:
        return X, (0.0, 1.0)
    if r < 0.7:
        return Y, (0.0, 1.0)
    c = const(f"{rng.randint(1, 40) / 8:g}")
    return c, (c[1], c[1])


_BINARY_OPS = ["+", "+", "*", "*", "-", "/", "^"]
_UNARY_OPS = ["neg", "sin", "cos", "exp", "log", "sqrt"]


def _random_node(rng, n):
    """AST with exactly ``n`` binary-form nodes, and its value interval."""
    if n == 1:
        return _random_leaf(rng)
    if n == 2 or rng.random() < 0.15:
        arg, iv = _random_node(rng, n - 1)
        for name in rng.sample(_UNARY_OPS, len(_UNARY_OPS)):
            out = _iv_unary(name, iv)
            if _bounded(out):
                return (("neg", arg) if name == "neg" else ("fn", name, arg)), out
        # only an operand already past _LIMIT gets here; negation stays finite
        return ("neg", arg), _iv_unary("neg", iv)
    left_n = rng.randint(1, n - 2)
    a, a_iv = _random_node(rng, left_n)
    b, b_iv = _random_node(rng, n - 1 - left_n)
    ops = rng.sample(_BINARY_OPS, len(_BINARY_OPS))
    for op in ops + ["-", "+"]:
        out = _iv_binary(op, a_iv, b_iv)
        if _bounded(out):
            return (op, a, b), out
    # magnitudes at most double per level, so at 60 nodes they stay finite
    return ("-", a, b), _iv_binary("-", a_iv, b_iv)


def random_expr(rng: random.Random, lo: int = 5, hi: int = 60) -> tuple:
    ast, _ = _random_node(rng, rng.randint(lo, hi))
    return ast


# --- long chains ---------------------------------------------------------------

def _left_chain(op: str, items: list) -> tuple:
    node = items[0]
    for item in items[1:]:
        node = (op, node, item)
    return node


def poly_term(rng: random.Random) -> tuple:
    c = const(f"{rng.randint(5, 20) / 10:g}")
    return ("*", ("*", c, ("^", X, const(str(rng.randint(1, 4))))), ("^", Y, const(str(rng.randint(1, 4)))))


def product_factor(rng: random.Random) -> tuple:
    r = rng.random()
    if r < 1 / 3:
        return const(rng.choice(("0.999", "1.001", "0.9995", "1.0005")))
    return ("^", X if r < 2 / 3 else Y, const(f"{rng.randint(1, 9)}e-4"))


def chain_terms(count: int, lo: int = 8, hi: int = 4096) -> list[int]:
    """Term counts at the midpoints of ``count`` equal strata of log(size)
    over [lo, hi]. The grid is fixed rather than drawn, so every seed puts
    the same number of chains past each of the program's size limits."""
    span = math.log(hi / lo)
    return [int(round(lo * math.exp(span * (i + 0.5) / count))) for i in range(count)]


def chain(rng: random.Random, terms: int, family: str) -> tuple:
    """Sum of c*x^a*y^b terms, or a product of factors close to 1."""
    if family == "sum":
        return _left_chain("+", [poly_term(rng) for _ in range(terms)])
    return _left_chain("*", [product_factor(rng) for _ in range(terms)])
