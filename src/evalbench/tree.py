"""Expression-tree data model shared by every evaluation strategy.

A tree node carries an operator kind, one payload and its ordered
children, which ``children`` reads as a tuple; ``_Slots`` says where a
node keeps them. The payload is a constant's value, a variable's index or a
function's name; the public fields ``value``, ``var_index`` and ``fn_name``
read it, each ``None`` where the kind does not use it. Nodes are immutable
after construction; the ``make_*`` constructors validate the arity rules
once, so everything downstream may rely on them.

Every node also stores its subtree's node count when it is built, so
``count_nodes`` is O(1). A subtree shared by several parents counts once
per occurrence, exactly as a walk would enter it.

Every node is built by one route, ``_Node``: ``make_*``, ``ExprNode(...)``,
the parser, ``flatten`` and ``_rebuild`` (pickling and copying) all end
there. It checks nothing and takes the node count from its caller, so only
code whose own input rules guarantee the arity rules calls it directly: the
parser (the lexer rejects non-finite constants, the symbol table admits
only known function names and the grammar fixes every arity), ``flatten``
(which only regroups a valid tree's children) and ``_rebuild``. Public
callers use ``make_*``; ``ExprNode(...)`` is not checked. ``_Node`` alone
chooses a node's layout and sets the private opcode ``_op`` the walkers
dispatch on, both derived from the other fields, so equality, hashing,
``repr`` and pickling ignore them.

A point is an exact ``tuple`` of finite floats, which ``Bindings`` builds
and checks. It is a plain tuple, not a subclass, so that CPython
specialises the walkers' reads ``bindings[i]`` to its tuple index. The
walkers index it directly, so a variable with no value raises
``IndexError`` there; the public evaluation entry points turn that into
``UnboundVariableError``.
"""

import enum
import math
from dataclasses import FrozenInstanceError
from typing import Iterable, Iterator

from .errors import (
    ArityMismatchError,
    DomainFaultError,
    LeafKindError,
    NonFiniteValueError,
    UnboundVariableError,
    UnknownFunctionError,
)

#: Supported unary functions, by name. Fixed table; parser and evaluators
#: share it so a parsable function is always evaluatable.
UNARY_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

# The fault rule: an operator whose operands leave its real domain (a zero
# divisor, or ``math.pow`` or a function raising ``ValueError`` or
# ``OverflowError``) is a domain fault, and the checked helpers below raise
# it as ``DomainFaultError(op, operands)``. No other code builds one, so all
# four methods name a fault alike. Timed paths apply the bare operator and,
# on its exception, hand the same operands to the helper, which names it.
# A fault becomes NaN only under ``evaluators.evaluate``'s ``nan_on_fault``;
# for a string, ``evaluate`` passes it to ``parser.interpret_string``, whose
# one scan then gives ``visits``.


def _quotient(num: float, den: float) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        raise DomainFaultError("quotient", (num, den)) from None


def _power(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError):
        raise DomainFaultError("power", (base, exponent)) from None


def _value_call(name: str):
    fn = UNARY_FUNCTIONS[name]

    def call(arg: float) -> float:
        try:
            return fn(arg)
        except (ValueError, OverflowError):
            raise DomainFaultError(name, (arg,)) from None

    return call


# Each function's checked call, built once.
_CHECKED_CALLS = {name: _value_call(name) for name in UNARY_FUNCTIONS}


class OpKind(enum.Enum):
    """Node kind: two leaf kinds, six binary/n-ary operators, one fn call."""

    CONSTANT = "const"
    VARIABLE = "var"
    SUM = "sum"
    PRODUCT = "product"
    DIFFERENCE = "difference"
    QUOTIENT = "quotient"
    POWER = "power"
    NEGATE = "negate"
    UNARY_FN = "fn"


#: Associative kinds whose chains may be collapsed into n-ary nodes.
ASSOCIATIVE_KINDS = (OpKind.SUM, OpKind.PRODUCT)

# (min, max) child counts for interior kinds; None means unbounded.
_ARITY = {
    OpKind.SUM: (2, None),
    OpKind.PRODUCT: (2, None),
    OpKind.DIFFERENCE: (2, 2),
    OpKind.QUOTIENT: (2, 2),
    OpKind.POWER: (2, 2),
    OpKind.NEGATE: (1, 1),
    OpKind.UNARY_FN: (1, 1),
}
# The interior kinds, by the child count that they keep in the operand
# slots: their least. Tuples, not a dict: an enum member hashes in Python.
_TWO_OPERANDS = tuple(kind for kind, (lo, _) in _ARITY.items() if lo == 2)
_ONE_OPERAND = tuple(kind for kind, (lo, _) in _ARITY.items() if lo == 1)


_CONSTANT = OpKind.CONSTANT
_VARIABLE = OpKind.VARIABLE
_UNARY_FN = OpKind.UNARY_FN

#: The depth rule. A node is marked ``_DEEP_OP`` when it is built if one of
#: its children has at least ``_DEEP`` nodes. An unmarked node's children are
#: then each at most ``_DEEP - 1`` high, so it is at most ``_DEEP`` high and
#: none of its descendants is marked. The walkers and ``flatten`` recurse only
#: into unmarked nodes and take marked ones on an explicit stack, so a walk
#: started below the recursion limit's last few hundred frames stays inside
#: it at any depth, and a flat sum of any number of small operands is not
#: marked. At least 1, so that no leaf is marked. Read when a node is built.
_DEEP = 300

# The one ``_op`` rule: a node's opcode is its kind, or this marker if
# ``_DEEP``'s rule marks the node. A fold or a bad child count is said by the
# layout (``_Slots``) and the kind, not by the opcode.
_DEEP_OP = "deep"


class _Slots:
    """A node's six slots, with no ``__init__``: ``_Node`` allocates a
    node as one and re-classes it once its slots are filled.

    ``_arg`` is the payload: a constant's value, a variable's index, a
    function call's name, or None. One slot for all three leaves room for
    the operand slots inside the allocator's 80-byte class.

    The layout rule: a sum, product, difference, quotient or power of two
    children, and a negation or function call of one, keep them in
    ``_left`` and ``_right`` (None for one), so the node is one object and
    has no child tuple. Every other node, a leaf, a fold or a node whose
    child count its kind cannot take, has ``_left`` None and its children
    tuple in ``_right``. ``ExprNode.children`` reads either back as a
    tuple, and the walkers (``evaluators._walker``) branch on it before
    they test ``_op``, the kind or ``_DEEP_OP``: so a sum or product with a
    children tuple is a fold."""

    __slots__ = ("kind", "_arg", "_size", "_op", "_left", "_right")


def _Node(kind, arg, size, children, left=None, right=None):
    """The node over the given fields, unchecked (see the module docstring),
    laid out by ``_Slots``'s rule: over the tuple ``children``, or, if that
    is None, over the operands ``left`` and, for two, ``right``, which the
    caller gives only where that rule keeps them.

    ``_op`` is the node's kind, or ``_DEEP_OP`` if ``_DEEP``'s rule marks
    the node."""
    if children:
        n = len(children)
        if n == 2 and kind in _TWO_OPERANDS:
            left, right = children
        elif n == 1 and kind in _ONE_OPERAND:
            left = children[0]
    node = _Slots()
    node.kind = kind
    node._arg = arg
    node._size = size
    op = kind
    if left is None:
        node._left = None
        node._right = children
        if size > _DEEP:
            for child in children:
                if child._size >= _DEEP:
                    op = _DEEP_OP
                    break
    else:
        node._left = left
        node._right = right
        if size > _DEEP and (left._size >= _DEEP or right is not None and right._size >= _DEEP):
            op = _DEEP_OP
    node._op = op
    node.__class__ = ExprNode
    return node


class ExprNode(_Slots):
    """One immutable tree node. Build through the ``make_*`` constructors;
    ``ExprNode(...)`` is not checked, and ``flatten`` and the evaluators
    assume a valid tree. Equality, hashing and ``repr`` use no recursion,
    and neither do pickling and copying, so all of them work at any depth."""

    __slots__ = ()

    def __new__(cls, kind, value=None, var_index=None, fn_name=None, children=()):
        arg = (value if kind is _CONSTANT else var_index if kind is _VARIABLE
               else fn_name if kind is _UNARY_FN else None)
        children = tuple(children)
        return _Node(kind, arg, 1 + sum(child._size for child in children), children)

    @property
    def children(self) -> tuple:
        """The node's children, in order: a tuple equal on every read, built
        afresh on each read of a node that keeps them in its operand slots."""
        left = self._left
        if left is None:
            return self._right
        right = self._right
        return (left,) if right is None else (left, right)

    @property
    def value(self) -> float | None:
        """A constant's value; None for every other kind."""
        return self._arg if self.kind is _CONSTANT else None

    @property
    def var_index(self) -> int | None:
        """A variable's index; None for every other kind."""
        return self._arg if self.kind is _VARIABLE else None

    @property
    def fn_name(self) -> str | None:
        """A function call's name; None for every other kind."""
        return self._arg if self.kind is _UNARY_FN else None

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (_shapes(self),)

    def __eq__(self, other):
        if not isinstance(other, ExprNode):
            return NotImplemented
        return self._size == other._size and _shapes(self) == _shapes(other)

    def __hash__(self):
        return hash(_shapes(self))

    def __repr__(self):
        return _render(self, _repr_head, ", ", lambda node: ",))" if len(node.children) == 1 else "))")


def _shapes(tree: ExprNode) -> tuple:
    """Each node's kind, payload and child count, in preorder: they fix the tree."""
    return tuple((node.kind, node._arg, len(node.children)) for node, _ in _preorder(tree))


def _rebuild(shapes: tuple) -> ExprNode:
    """The tree whose ``_shapes`` are ``shapes``, built from the last node
    back with an explicit stack, so pickling and copying work at any depth."""
    built: list[ExprNode] = []  # the subtrees built so far, the leftmost on top
    for kind, arg, n in reversed(shapes):
        children = tuple(built[:-n - 1:-1])
        del built[len(built) - n:]
        built.append(_Node(kind, arg, 1 + sum(c._size for c in children), children))
    return built[0]


def make_constant(v: float) -> ExprNode:
    """Constant leaf holding the finite value ``v``."""
    v = float(v)
    if not math.isfinite(v):
        raise NonFiniteValueError(f"constant must be finite, got {v!r}")
    return ExprNode(OpKind.CONSTANT, value=v)


def make_variable(i: int) -> ExprNode:
    """Variable leaf for index ``i`` (0 is conventionally x, 1 is y)."""
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"variable index must be a non-negative integer, got {i!r}")
    return ExprNode(OpKind.VARIABLE, var_index=i)


def make_op(kind: OpKind, children: Iterable[ExprNode], fn_name: str | None = None) -> ExprNode:
    """Interior node of ``kind`` owning ``children`` in order.

    Arity rules: sum and product take two or more children, difference /
    quotient / power exactly two, negate and unary functions exactly one.
    ``fn_name`` is required for (and only for) UNARY_FN.
    """
    rule = _ARITY.get(kind)
    if rule is None:
        raise LeafKindError(f"{kind.name} is a leaf kind; use make_constant/make_variable")
    kids = tuple(children)
    for child in kids:
        if not isinstance(child, ExprNode):
            raise TypeError(f"children must be ExprNode, got {type(child).__name__}")
    lo, hi = rule
    if len(kids) < lo or (hi is not None and len(kids) > hi):
        expected = f">= {lo}" if hi is None else (f"exactly {lo}" if lo == hi else f"{lo}..{hi}")
        raise ArityMismatchError(kind, len(kids), expected)
    if kind is OpKind.UNARY_FN:
        if fn_name is None:
            raise UnknownFunctionError("UNARY_FN requires a function name")
        if fn_name not in UNARY_FUNCTIONS:
            raise UnknownFunctionError(
                f"unsupported function {fn_name!r}; supported: {', '.join(sorted(UNARY_FUNCTIONS))}"
            )
    elif fn_name is not None:
        raise UnknownFunctionError(f"{kind.name} does not take a function name")
    return ExprNode(kind, fn_name=fn_name, children=kids)


def Bindings(values: Iterable[float] = ()) -> tuple[float, ...]:
    """Variable values as an exact tuple of finite floats: position ``i``
    is the value of variable ``i``. An exact tuple of exact, finite floats
    is returned as it is, after one pass, which is all that the evaluation
    entry points, calling this on every point, spend on one built here.
    Anything else is converted item by item with ``float``; a value that is
    not finite, or too large for ``float`` (it rounds to an infinity),
    raises ``NonFiniteValueError`` naming the first such index."""
    if type(values) is tuple:
        for v in values:
            if type(v) is not float or not math.isfinite(v):
                break
        else:
            return values
    point = []
    for i, v in enumerate(values):
        try:
            v = float(v)
        except OverflowError:
            v = -math.inf if v < 0 else math.inf
        if not math.isfinite(v):
            raise NonFiniteValueError(f"binding {i} must be finite, got {v!r}")
        point.append(v)
    return tuple(point)


def _raise_unbound(indices: Iterable[int | None], bound: int) -> None:
    """Raise ``UnboundVariableError`` for the first of ``indices`` (variable
    reads in reading order, None for other reads) outside ``bound`` values."""
    for index in indices:
        if index is not None and not -bound <= index < bound:
            raise UnboundVariableError(index) from None


def _preorder(tree: ExprNode) -> Iterator[tuple[ExprNode, int]]:
    """(node, depth) pairs, each node before its children, left to right:
    the order in which the evaluators' walkers read variables."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children))


def is_binary_form(tree: ExprNode) -> bool:
    """True iff every sum and product node has exactly two children."""
    return all(node.kind not in ASSOCIATIVE_KINDS or len(node.children) == 2 for node, _ in _preorder(tree))


def count_nodes(tree: ExprNode) -> int:
    """Total node count, leaves included; stored on the node, so O(1)."""
    return tree._size


def variable_indices(tree: ExprNode) -> set[int]:
    """Set of variable indices referenced anywhere in the tree."""
    return {node.var_index for node, _ in _preorder(tree) if node.kind is OpKind.VARIABLE}


def _node_label(node: ExprNode) -> str:
    if node.kind is OpKind.CONSTANT:
        return f"const {node.value!r}"
    if node.kind is OpKind.VARIABLE:
        return f"var[{node.var_index}]"
    if node.kind is OpKind.UNARY_FN:
        head = f"fn[{node.fn_name}]"
    else:
        head = node.kind.value
    n = len(node.children)
    return f"{head} ({n} {'child' if n == 1 else 'children'})"


def format_tree(tree: ExprNode) -> str:
    """Indented rendering, one node per line: kind, value/index, child count."""
    return "\n".join("  " * depth + _node_label(node) for node, depth in _preorder(tree))


def _render(tree: ExprNode, head, sep: str, tail) -> str:
    """Text of ``tree``: per node, ``head(node)``, the children's texts
    separated by ``sep``, then ``tail(node)``. Explicit stack, any depth."""
    parts: list[str] = []
    stack: list = [tree]  # nodes still to render, and text to emit after them
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
            continue
        parts.append(head(node))
        stack.append(tail(node))
        for i, child in enumerate(reversed(node.children)):
            stack.extend((sep, child) if i else (child,))
    return "".join(parts)


def _repr_head(node: ExprNode) -> str:
    return (f"ExprNode(kind={node.kind!r}, value={node.value!r}, var_index={node.var_index!r}, "
            f"fn_name={node.fn_name!r}, children=(")


def _sexpr_head(node: ExprNode) -> str:
    if node.kind is OpKind.CONSTANT:
        return f"(const {node.value!r}"
    if node.kind is OpKind.VARIABLE:
        return f"(var {node.var_index}"
    return f"(fn {node.fn_name} " if node.kind is OpKind.UNARY_FN else f"({node.kind.value} "


def to_sexpr(tree: ExprNode) -> str:
    """Machine-readable nested-list form, e.g. ``(sum (var 0) (const 1.0))``."""
    return _render(tree, _sexpr_head, " ", lambda node: ")")
