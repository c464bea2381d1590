"""Evaluation strategies over a shared bindings model.

Three strategies live here: black-box routines whose formulas are fixed in
the source and compiled at import, a binary-tree walker, and an n-ary-tree
walker that folds sums and products over all children. A uniform
``evaluate`` dispatcher (which also covers direct string evaluation) serves
the CLI and the benchmark harness.

There is one walker per tree form. ``binary_value`` and ``nary_value``
return the bare value and are what timed loops call; ``eval_binary`` and
``eval_nary`` wrap them in an ``EvalOutcome`` whose ``visits`` is the
tree's node count. Every walk enters each node exactly once, so counting
inside the walker would only add per-node cost to the path being timed.

Both walkers read the leaf operands of a sum or product in place rather
than calling themselves on them. Sums and products are the operators that
flattening merges, so the calls both forms would spend on those leaves are
gone, and what separates the walkers is the one call the n-ary form saves
per collapsed node.

Both walkers work at any depth without touching the recursion limit. A
subtree's height is at most its node count, which every node stores, so a
subtree of at most ``_DEEP`` nodes is walked by plain recursion. A larger
one goes to ``_deep_value``, one explicit-stack post-order loop shared by
both walkers, which hands every subtree of ``_DEEP`` nodes or fewer back to
the recursive walker. It keeps reading order, so values and the first fault
are the same either way.
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
from .parser import DEFAULT_SYMBOLS, SymbolTable, interpret_string
from .tree import UNARY_FUNCTIONS, Bindings, ExprNode, OpKind, _preorder, _raise_unbound, as_bindings, count_nodes


class EvalMethod(enum.Enum):
    BLACKBOX = "blackbox"
    BINARY_TREE = "binary"
    NARY_TREE = "nary"
    STRING_PARSE = "string"


class EvalOutcome(NamedTuple):
    """Result of one evaluation: a tuple, equal to ``(value, visits)``.

    ``visits`` counts units of work: tree nodes entered for the tree
    methods, tokens consumed for direct string evaluation, and 0 for
    black-box calls (the routine's interior is opaque by definition).
    When ``nan_on_fault`` turns a domain fault into NaN, the tree methods
    still report the whole tree's node count, not the nodes entered before
    the fault.
    """

    value: float
    visits: int


# --- black-box functions ---------------------------------------------------
# Eight fixed routines of (x, y), expected on the unit square. Callers pick
# one by id but have no run-time control over its body.

def _f1(x, y):
    return x


def _f2(x, y):
    return x + y


def _f3(x, y):
    return x ** y


def _f4(x, y):
    return (x + y) * x ** y


def _f5(x, y):
    return math.sin(x)


def _f6(x, y):
    return math.sin((x + y) * x ** y)


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
_new_outcome = tuple.__new__  # EvalOutcome from a 2-tuple, skipping its Python __new__

#: Largest subtree the walkers enter by recursion: its height is at most its
#: node count, so a walk started below the recursion limit's last few
#: hundred frames stays inside it. At least 3, the size of ``_apply``'s node.
_DEEP = 300


def binary_value(node: ExprNode, bindings: Bindings) -> float:
    """Evaluate a binary-form tree; every sum and product has two children.
    An unbound variable raises ``IndexError``."""
    kind = node.kind
    if kind is _CONSTANT:
        return node.value
    if kind is _VARIABLE:
        return bindings[node.var_index]
    if node._size > _DEEP:
        return _deep_value(node, bindings, binary_value)
    children = node.children
    if kind is _SUM:
        try:
            left, right = children
        except ValueError:
            raise ArityMismatchError(kind, len(children), "exactly 2 (binary form)") from None
        k = left.kind
        a = (bindings[left.var_index] if k is _VARIABLE
             else left.value if k is _CONSTANT else binary_value(left, bindings))
        k = right.kind
        b = (bindings[right.var_index] if k is _VARIABLE
             else right.value if k is _CONSTANT else binary_value(right, bindings))
        return a + b
    if kind is _PRODUCT:
        try:
            left, right = children
        except ValueError:
            raise ArityMismatchError(kind, len(children), "exactly 2 (binary form)") from None
        k = left.kind
        a = (bindings[left.var_index] if k is _VARIABLE
             else left.value if k is _CONSTANT else binary_value(left, bindings))
        k = right.kind
        b = (bindings[right.var_index] if k is _VARIABLE
             else right.value if k is _CONSTANT else binary_value(right, bindings))
        return a * b
    if kind is _DIFFERENCE:
        return binary_value(children[0], bindings) - binary_value(children[1], bindings)
    if kind is _QUOTIENT:
        num = binary_value(children[0], bindings)
        den = binary_value(children[1], bindings)
        try:
            return num / den
        except ZeroDivisionError:
            raise DomainFaultError("quotient", (num, den)) from None
    if kind is _POWER:
        base = binary_value(children[0], bindings)
        exponent = binary_value(children[1], bindings)
        try:
            return math.pow(base, exponent)
        except (ValueError, OverflowError):
            raise DomainFaultError("power", (base, exponent)) from None
    if kind is _NEGATE:
        return -binary_value(children[0], bindings)
    arg = binary_value(children[0], bindings)
    try:
        return UNARY_FUNCTIONS[node.fn_name](arg)
    except (ValueError, OverflowError):
        raise DomainFaultError(node.fn_name, (arg,)) from None


def nary_value(node: ExprNode, bindings: Bindings) -> float:
    """Evaluate any valid tree, folding sums and products over all children;
    an unbound variable raises ``IndexError``."""
    kind = node.kind
    if kind is _CONSTANT:
        return node.value
    if kind is _VARIABLE:
        return bindings[node.var_index]
    if node._size > _DEEP:
        return _deep_value(node, bindings, nary_value)
    children = node.children
    if kind is _SUM:
        ret = -0.0  # the exact additive identity: -0.0 + v is v, sign of zero included
        for child in children:
            k = child.kind
            ret += (bindings[child.var_index] if k is _VARIABLE
                    else child.value if k is _CONSTANT else nary_value(child, bindings))
        return ret
    if kind is _PRODUCT:
        ret = 1.0
        for child in children:
            k = child.kind
            ret *= (bindings[child.var_index] if k is _VARIABLE
                    else child.value if k is _CONSTANT else nary_value(child, bindings))
        return ret
    if kind is _DIFFERENCE:
        return nary_value(children[0], bindings) - nary_value(children[1], bindings)
    if kind is _QUOTIENT:
        num = nary_value(children[0], bindings)
        den = nary_value(children[1], bindings)
        try:
            return num / den
        except ZeroDivisionError:
            raise DomainFaultError("quotient", (num, den)) from None
    if kind is _POWER:
        base = nary_value(children[0], bindings)
        exponent = nary_value(children[1], bindings)
        try:
            return math.pow(base, exponent)
        except (ValueError, OverflowError):
            raise DomainFaultError("power", (base, exponent)) from None
    if kind is _NEGATE:
        return -nary_value(children[0], bindings)
    arg = nary_value(children[0], bindings)
    try:
        return UNARY_FUNCTIONS[node.fn_name](arg)
    except (ValueError, OverflowError):
        raise DomainFaultError(node.fn_name, (arg,)) from None


def _deep_value(node: ExprNode, bindings: Bindings, walker) -> float:
    """``walker``'s value of ``node``, a tree of more than ``_DEEP`` nodes: a
    post-order loop, on an explicit stack, over its subtrees of more than
    ``_DEEP`` nodes, that hands every smaller child to ``walker``. Sums and
    products fold in place from -0.0 and 1.0 (under ``binary_value`` they
    must have two children); ``_apply`` finishes the other kinds."""
    binary = walker is binary_value
    # Each unfinished ancestor's node, next child index and fold, laid flat:
    # a frame object per level would keep thousands of new objects alive for
    # the garbage collector to promote and rescan during a long walk.
    stack = []
    child, node, kind, children, n, i, acc = node, None, None, (), 0, 0, None  # node None: the caller's frame
    while True:
        if child._size > _DEEP:
            stack += node, i, acc
            node, kind, children, i = child, child.kind, child.children, 0
            n = len(children)
            if kind is _SUM or kind is _PRODUCT:
                if binary and n != 2:
                    raise ArityMismatchError(kind, n, "exactly 2 (binary form)")
                acc = -0.0 if kind is _SUM else 1.0
            else:
                acc = ()  # the operands, in order
        else:
            k = child.kind
            value = (bindings[child.var_index] if k is _VARIABLE
                     else child.value if k is _CONSTANT else walker(child, bindings))
            while True:  # fold value into node, finishing every node it completes
                if kind is _SUM:
                    acc += value
                elif kind is _PRODUCT:
                    acc *= value
                else:
                    acc += (value,)
                if i < n:
                    break
                value = acc if kind is _SUM or kind is _PRODUCT else _apply(walker, node, acc, bindings)
                acc = stack.pop()
                i = stack.pop()
                node = stack.pop()
                if node is None:
                    return value
                kind, children = node.kind, node.children
                n = len(children)
        child = children[i]
        i += 1


def _apply(walker, node, operands, bindings):
    """``node``'s operator applied to ``operands`` by ``walker`` itself, so
    the operator and fault rules live in the walker alone."""
    leaves = tuple(ExprNode(_CONSTANT, value) for value in operands)
    return walker(ExprNode(node.kind, fn_name=node.fn_name, children=leaves), bindings)


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
    (``symbols`` applies only there; defaults to the x,y table).
    """
    b = as_bindings(bindings)
    if method is EvalMethod.BLACKBOX:
        if not isinstance(source, int) or isinstance(source, bool):
            raise MethodSourceMismatchError(f"BLACKBOX needs an int id, got {type(source).__name__}")
        fn = blackbox_lookup(source)
        _raise_unbound((0, 1), len(b))
        return _new_outcome(EvalOutcome, (fn(b[0], b[1]), 0))
    if method is EvalMethod.BINARY_TREE:
        if not isinstance(source, ExprNode):
            raise MethodSourceMismatchError(f"BINARY_TREE needs an ExprNode, got {type(source).__name__}")
        return _outcome(binary_value, source, b, nan_on_fault)
    if method is EvalMethod.NARY_TREE:
        if not isinstance(source, ExprNode):
            raise MethodSourceMismatchError(f"NARY_TREE needs an ExprNode, got {type(source).__name__}")
        return _outcome(nary_value, source, b, nan_on_fault)
    if method is EvalMethod.STRING_PARSE:
        if not isinstance(source, str):
            raise MethodSourceMismatchError(f"STRING_PARSE needs a string, got {type(source).__name__}")
        return _new_outcome(EvalOutcome, interpret_string(source, symbols or DEFAULT_SYMBOLS, b, nan_on_fault))
    raise MethodSourceMismatchError(f"unknown method {method!r}")
