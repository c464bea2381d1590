"""Evaluation strategies over a shared bindings model.

Three strategies live here: black-box routines whose formulas are fixed in
the source and compiled at import, a binary-tree walker, and an n-ary-tree
walker that folds sums and products over all children. A uniform
``evaluate`` dispatcher (which also covers direct string evaluation) serves
the CLI; the benchmark harness times the walkers directly.

There is one walker per tree form. ``binary_value`` and ``nary_value``
return the bare value and are what timed loops call; ``eval_binary`` and
``eval_nary`` wrap them in an ``EvalOutcome`` whose ``visits`` is the
tree's node count, stored on the tree, so the walkers count nothing and
add no per-node cost to the path being timed.

The two walkers are one function body, built twice by ``_walker``. They
dispatch on each node's private opcode ``_op``, set once when the node is
built (see ``tree._Node``), in one branch order. Every operand that is a
leaf, under any operator, is read in place (``bindings[node._arg]`` or
``node._arg``) rather than walked, so a walker is entered only at interior
nodes and at the root. A sum or product with exactly two children runs the
same unpack code in both walkers; only the nodes ``flatten`` merged carry a
fold opcode, which the n-ary walker folds and the binary walker rejects
with ``ArityMismatchError``. What separates the walkers is therefore the
one call the n-ary form saves per collapsed node.

Both walkers work at any depth without touching the recursion limit. A
node with a child of at least ``tree._DEEP`` nodes carries a deep
opcode; every other node is at most ``tree._DEEP`` high, has no marked
descendant, and is walked by plain recursion. So a flattened sum or
product of small operands, however many, is folded in place. The walkers
test no size: their last branch hands a deep node to ``_deep_value``,
one explicit-stack post-order loop shared by both. It gives a deep sum
or product one frame for its whole left spine of deep nodes of its kind,
folding the spine's operands into one accumulator; it applies every
other deep node's operator to its operands' values through the string
evaluator's checked helpers, so a walk builds no node; and it hands
every operand without the deep opcode back to the recursive walker. It
keeps reading order, so values and the first fault are the same either
way.

So below ``tree._DEEP`` the n-ary form saves exactly one walker call per
node that ``flatten`` removed. Above it, the binary form takes a deep
spine's operands as steps of ``_deep_value``'s loop, not calls, so the
n-ary form saves fewer calls than nodes and gains mostly by folding
those operands in the walker's tighter loop. ``_walk_counts`` gives a
walk's calls and steps without walking.
"""

import enum
import math
from typing import Callable, NamedTuple

from .errors import (
    ArityMismatchError,
    DomainFaultError,
    MethodSourceMismatchError,
    UnknownFunctionIdError,
)
from .parser import DEFAULT_SYMBOLS, _CHECKED_CALLS, SymbolTable, _power, _quotient, interpret_string
from .tree import (
    UNARY_FUNCTIONS,
    _DEEP_OP,
    _PRODUCT_FOLD,
    _SUM_FOLD,
    Bindings,
    ExprNode,
    OpKind,
    _preorder,
    _raise_unbound,
    as_bindings,
    count_nodes,
)


class EvalMethod(enum.Enum):
    BLACKBOX = "blackbox"
    BINARY_TREE = "binary"
    NARY_TREE = "nary"
    STRING_PARSE = "string"


_BLACKBOX = EvalMethod.BLACKBOX
_BINARY_TREE = EvalMethod.BINARY_TREE
_NARY_TREE = EvalMethod.NARY_TREE
_STRING_PARSE = EvalMethod.STRING_PARSE


class EvalOutcome(NamedTuple):
    """Result of one evaluation: a tuple, equal to ``(value, visits)``.

    ``visits`` counts units of work: the tree's node count for the tree
    methods (a walk enters only interior nodes and the root, and reads
    leaf operands in place), tokens consumed for direct string evaluation,
    and 0 for black-box calls (the routine's interior is opaque by
    definition). A domain fault turned into NaN by ``nan_on_fault`` leaves
    the tree methods' count unchanged.
    """

    value: float
    visits: int


# --- black-box functions ---------------------------------------------------
# Eight fixed routines of (x, y), expected on the unit square. Callers pick
# one by id but have no run-time control over its body. Powers and sines go
# through the string evaluator's checked operators, so outside the square
# a routine raises the same ``DomainFaultError`` as the other methods.

_sin = _CHECKED_CALLS["sin"]

def _f1(x, y):
    return x


def _f2(x, y):
    return x + y


def _f3(x, y):
    return _power(x, y)


def _f4(x, y):
    return (x + y) * _power(x, y)


def _f5(x, y):
    return math.sin(x)


def _f6(x, y):
    return _sin((x + y) * _power(x, y))


def _f7(x, y):
    return x + y + 1.0


def _f8(x, y):
    return 2.0 * x * y * (x + y + 1.0)


BLACKBOX_FUNCTIONS: dict[int, Callable[[float, float], float]] = {
    1: _f1, 2: _f2, 3: _f3, 4: _f4, 5: _f5, 6: _f6, 7: _f7, 8: _f8,
}


def blackbox_lookup(fid: int) -> Callable[[float, float], float]:
    """The compiled routine computing test function ``fid`` (1..8)."""
    try:
        return BLACKBOX_FUNCTIONS[fid]
    except (KeyError, TypeError):
        raise UnknownFunctionIdError(fid) from None


# --- tree walkers ----------------------------------------------------------

_CONSTANT = OpKind.CONSTANT
_VARIABLE = OpKind.VARIABLE
_SUM = OpKind.SUM
_PRODUCT = OpKind.PRODUCT
_DIFFERENCE = OpKind.DIFFERENCE
_QUOTIENT = OpKind.QUOTIENT
_POWER = OpKind.POWER
_NEGATE = OpKind.NEGATE
_UNARY_FN = OpKind.UNARY_FN
_new_outcome = tuple.__new__  # EvalOutcome from a 2-tuple, skipping its Python __new__


def _walker(folds: bool):
    """The recursive walker over ``tree._Node._op``; it folds the sums and
    products that ``flatten`` merged if ``folds``, and raises
    ``ArityMismatchError`` on them if not. Each operand that is a leaf is
    read in place, not walked. Fixed-arity operands are indexed, so a node
    built directly with too few children raises ``IndexError``."""

    def walk(node, bindings):
        # Branches by how often the benchmark workloads meet them: power
        # first, each fold ahead of its two-child form, leaves (met only at
        # the root) late, and a deep node, met only at the root, last.
        op = node._op
        if op is _POWER:
            children = node.children
            child = children[0]
            k = child._op
            base = (bindings[child._arg] if k is _VARIABLE
                    else child._arg if k is _CONSTANT else walk(child, bindings))
            child = children[1]
            k = child._op
            exponent = (bindings[child._arg] if k is _VARIABLE
                        else child._arg if k is _CONSTANT else walk(child, bindings))
            try:
                return math.pow(base, exponent)
            except (ValueError, OverflowError):
                raise DomainFaultError("power", (base, exponent)) from None
        if op is _SUM_FOLD:
            if not folds:
                raise ArityMismatchError(_SUM, len(node.children), "exactly 2 (binary form)")
            ret = -0.0  # the exact additive identity: -0.0 + v is v, sign of zero included
            for child in node.children:
                k = child._op
                ret += (bindings[child._arg] if k is _VARIABLE
                        else child._arg if k is _CONSTANT else walk(child, bindings))
            return ret
        if op is _SUM:
            left, right = node.children
            k = left._op
            a = (bindings[left._arg] if k is _VARIABLE
                 else left._arg if k is _CONSTANT else walk(left, bindings))
            k = right._op
            return a + (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
        if op is _PRODUCT_FOLD:
            if not folds:
                raise ArityMismatchError(_PRODUCT, len(node.children), "exactly 2 (binary form)")
            ret = 1.0
            for child in node.children:
                k = child._op
                ret *= (bindings[child._arg] if k is _VARIABLE
                        else child._arg if k is _CONSTANT else walk(child, bindings))
            return ret
        if op is _PRODUCT:
            left, right = node.children
            k = left._op
            a = (bindings[left._arg] if k is _VARIABLE
                 else left._arg if k is _CONSTANT else walk(left, bindings))
            k = right._op
            return a * (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
        if op is _UNARY_FN:
            child = node.children[0]
            k = child._op
            arg = (bindings[child._arg] if k is _VARIABLE
                   else child._arg if k is _CONSTANT else walk(child, bindings))
            try:
                return UNARY_FUNCTIONS[node._arg](arg)
            except (ValueError, OverflowError):
                raise DomainFaultError(node._arg, (arg,)) from None
        if op is _VARIABLE:
            return bindings[node._arg]
        if op is _DIFFERENCE:
            children = node.children
            child = children[0]
            k = child._op
            a = (bindings[child._arg] if k is _VARIABLE
                 else child._arg if k is _CONSTANT else walk(child, bindings))
            child = children[1]
            k = child._op
            return a - (bindings[child._arg] if k is _VARIABLE
                        else child._arg if k is _CONSTANT else walk(child, bindings))
        if op is _QUOTIENT:
            children = node.children
            child = children[0]
            k = child._op
            num = (bindings[child._arg] if k is _VARIABLE
                   else child._arg if k is _CONSTANT else walk(child, bindings))
            child = children[1]
            k = child._op
            den = (bindings[child._arg] if k is _VARIABLE
                   else child._arg if k is _CONSTANT else walk(child, bindings))
            try:
                return num / den
            except ZeroDivisionError:
                raise DomainFaultError("quotient", (num, den)) from None
        if op is _NEGATE:
            child = node.children[0]
            k = child._op
            return -(bindings[child._arg] if k is _VARIABLE
                     else child._arg if k is _CONSTANT else walk(child, bindings))
        if op is _CONSTANT:
            return node._arg
        if op is _DEEP_OP:
            return _deep_value(node, bindings, walk)
        raise TypeError(f"not a node kind: {node.kind!r}")

    return walk


binary_value = _walker(folds=False)
binary_value.__name__ = binary_value.__qualname__ = "binary_value"
binary_value.__doc__ = """Evaluate a binary-form tree; every sum and product has two children.
    An unbound variable raises ``IndexError``."""

nary_value = _walker(folds=True)
nary_value.__name__ = nary_value.__qualname__ = "nary_value"
nary_value.__doc__ = """Evaluate any valid tree, folding sums and products over all children;
    an unbound variable raises ``IndexError``."""


def _deep_value(node: ExprNode, bindings: Bindings, walker) -> float:
    """``walker``'s value of ``node``, a node marked ``_DEEP_OP``: a
    post-order loop, on an explicit stack, over its subtrees so marked, that
    hands every other operand to ``walker``. A marked sum or product takes
    one frame for its whole left spine of marked nodes of its kind, whose
    operands, gathered in reading order, fold into one accumulator from
    -0.0 or 1.0; both are exact identities, so the bits are recursion's.
    Under ``binary_value`` every spine node must have two children, checked
    top-down before any operand is evaluated. The other kinds apply their
    operator to their operands' values through the string evaluator's
    checked helpers, so a walk builds no node."""
    binary = walker is binary_value
    # Each unfinished ancestor's node, operands, operand count, next operand
    # index and fold, laid flat: a frame object per level would keep
    # thousands of new objects alive for the garbage collector to promote
    # and rescan during a long walk.
    stack = []
    child, node, kind, operands, n, i, acc = node, None, None, (), 0, 0, None  # node None: the caller's frame
    while True:
        k = child._op
        if k is _DEEP_OP:
            stack += node, operands, n, i, acc
            node, kind, i = child, child.kind, 0
            if kind is _SUM or kind is _PRODUCT:
                operands = []  # the spine's later operands, last first
                while True:
                    children = child.children
                    n = len(children)
                    if n == 2:
                        operands.append(children[1])
                    elif binary:
                        raise ArityMismatchError(kind, n, "exactly 2 (binary form)")
                    else:
                        operands += children[:0:-1]
                    child = children[0]
                    if child._op is not _DEEP_OP or child.kind is not kind:
                        break
                operands.append(child)
                operands.reverse()
                n = len(operands)
                acc = -0.0 if kind is _SUM else 1.0
            else:  # fixed arity, indexed as the walker does
                operands = child.children
                n = 1 if kind is _NEGATE or kind is _UNARY_FN else 2
        else:
            value = (bindings[child._arg] if k is _VARIABLE
                     else child._arg if k is _CONSTANT else walker(child, bindings))
            while True:  # fold value into node, finishing every node it completes
                if kind is _SUM:
                    acc += value
                elif kind is _PRODUCT:
                    acc *= value
                elif i < n:
                    acc = value  # a two-operand kind's first operand
                elif kind is _DIFFERENCE:
                    acc -= value
                elif kind is _QUOTIENT:
                    acc = _quotient(acc, value)
                elif kind is _POWER:
                    acc = _power(acc, value)
                elif kind is _NEGATE:
                    acc = -value
                else:
                    acc = _CHECKED_CALLS[node._arg](value)
                if i < n:
                    break
                value = acc
                node, operands, n, i, acc = stack[-5:]
                del stack[-5:]
                if node is None:
                    return value
                kind = node.kind
        child = operands[i]
        i += 1


def _walk_counts(tree: ExprNode) -> tuple[int, int]:
    """(walker entries, deep-loop steps) of a walk over ``tree``, by the
    walkers' rule, computing no value. Both walkers follow the one rule, on
    any tree they accept (``binary_value`` takes only binary form). The
    walker is entered at the root and at every interior operand without the
    deep opcode; ``_deep_value`` takes one step per operand that it gathers
    for a marked node, or for a marked spine of like sums or products."""
    entries, steps = int(tree._op is _DEEP_OP), 0  # a marked root is entered, then handed to _deep_value
    stack = [tree]
    while stack:
        node = stack.pop()
        if node._op is not _DEEP_OP:  # the walker is entered here
            entries += 1
            stack += [child for child in node.children if child.children]
            continue
        kind = node.kind
        operands = node.children
        if kind is _SUM or kind is _PRODUCT:
            operands = []
            while node._op is _DEEP_OP and node.kind is kind:
                operands += node.children[1:]
                node = node.children[0]
            operands.append(node)
        steps += len(operands)
        stack += [child for child in operands if child.children]
    return entries, steps


def _outcome(walker, tree: ExprNode, bindings: Bindings, nan_on_fault: bool) -> EvalOutcome:
    """Run ``walker`` over ``tree``; visits are the tree's node count."""
    try:
        value = walker(tree, bindings)
    except DomainFaultError:
        if not nan_on_fault:
            raise
        value = math.nan
    except IndexError:
        _raise_unbound((n.var_index for n, _ in _preorder(tree) if n.kind is _VARIABLE), len(bindings))
        raise
    return _new_outcome(EvalOutcome, (value, count_nodes(tree)))


def eval_binary(tree: ExprNode, bindings, *, nan_on_fault: bool = False) -> EvalOutcome:
    """Evaluate a binary-form tree; ``visits`` is its node count.

    With ``nan_on_fault`` a domain fault yields NaN instead of raising, so
    batch loops are never interrupted by error handling.
    """
    return _outcome(binary_value, tree, as_bindings(bindings), nan_on_fault)


def eval_nary(tree: ExprNode, bindings, *, nan_on_fault: bool = False) -> EvalOutcome:
    """Evaluate any valid tree with the n-ary fold; ``visits`` is its node count."""
    return _outcome(nary_value, tree, as_bindings(bindings), nan_on_fault)


def evaluate(
    method: EvalMethod,
    source,
    bindings,
    *,
    symbols: SymbolTable | None = None,
    nan_on_fault: bool = False,
) -> EvalOutcome:
    """Uniform dispatch: route ``source`` to the strategy named by ``method``.

    The source shape must match the method: an int id for BLACKBOX, an
    ExprNode for the tree methods, an expression string for STRING_PARSE
    (``symbols`` applies only there; defaults to the x,y table). With
    ``nan_on_fault`` a domain fault gives NaN, under every method.
    """
    b = as_bindings(bindings)
    if method is _BLACKBOX:
        if not isinstance(source, int) or isinstance(source, bool):
            raise MethodSourceMismatchError(f"BLACKBOX needs an int id, got {type(source).__name__}")
        fn = blackbox_lookup(source)
        _raise_unbound((0, 1), len(b))
        try:
            value = fn(b[0], b[1])
        except DomainFaultError:
            if not nan_on_fault:
                raise
            value = math.nan
        return _new_outcome(EvalOutcome, (value, 0))
    if method is _BINARY_TREE:
        if not isinstance(source, ExprNode):
            raise MethodSourceMismatchError(f"BINARY_TREE needs an ExprNode, got {type(source).__name__}")
        return _outcome(binary_value, source, b, nan_on_fault)
    if method is _NARY_TREE:
        if not isinstance(source, ExprNode):
            raise MethodSourceMismatchError(f"NARY_TREE needs an ExprNode, got {type(source).__name__}")
        return _outcome(nary_value, source, b, nan_on_fault)
    if method is _STRING_PARSE:
        if not isinstance(source, str):
            raise MethodSourceMismatchError(f"STRING_PARSE needs a string, got {type(source).__name__}")
        return _new_outcome(EvalOutcome, interpret_string(source, symbols or DEFAULT_SYMBOLS, b, nan_on_fault))
    raise MethodSourceMismatchError(f"unknown method {method!r}")
