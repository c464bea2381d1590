"""Evaluation strategies over a shared bindings model.

Three strategies live here: black-box routines whose formulas are fixed in
the source and compiled at import, a binary-tree walker, and an n-ary-tree
walker that folds sums and products over all children. A uniform
``evaluate`` dispatcher (which also covers direct string evaluation) serves
the CLI; the benchmark harness times the walkers directly.

``binary_value`` and ``nary_value`` return the bare value and are what
timed loops call (``_walker`` gives their rules); ``eval_binary`` and
``eval_nary`` wrap them in an ``EvalOutcome`` whose ``visits`` is the
tree's stored node count, so the walkers count nothing.
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
from .tree import (
    _CHECKED_CALLS,
    _ONE_OPERAND,
    _TWO_OPERANDS,
    UNARY_FUNCTIONS,
    _DEEP_OP,
    Bindings,
    ExprNode,
    OpKind,
    _power,
    _preorder,
    _quotient,
    _raise_unbound,
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
    methods, tokens consumed for direct string evaluation, and 0 for
    black-box calls, whose interior is opaque by definition. A domain fault
    turned into NaN by ``nan_on_fault`` leaves it as on success.
    """

    value: float
    visits: int


# --- black-box functions ---------------------------------------------------
# Eight fixed routines of (x, y), expected on the unit square. Callers pick
# one by id but have no run-time control over its body. Powers and sines go
# through ``tree``'s checked helpers, or a bare call replays through one on
# its exception, so outside the square a routine raises the same
# ``DomainFaultError`` as the other methods.

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
    try:
        return math.sin(x)
    except ValueError:
        return _sin(x)


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
    """The compiled routine computing test function ``fid`` (1..8): an
    int, so neither ``True`` nor ``1.0``, though both equal the key 1."""
    if not isinstance(fid, int) or isinstance(fid, bool):
        raise UnknownFunctionIdError(fid)
    try:
        return BLACKBOX_FUNCTIONS[fid]
    except KeyError:
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
    """The recursive walker over the opcode ``_op`` (see ``tree._Node``):
    ``binary_value`` if not ``folds``, ``nary_value`` if ``folds``.

    The leaf-in-place rule: an operand that is a leaf, under any operator,
    is read in place (``bindings[node._arg]`` or ``node._arg``), not walked,
    so a walker is entered only at interior nodes and at the root.

    The layout-first rule: a walker branches on ``tree._Slots``'s layout
    before it tests an opcode, which is the node's kind or ``_DEEP_OP``.
    By the layout, a sum or product with a children tuple is a fold, and
    any other interior kind with one has a child count the kind cannot
    take: built directly so, it raises ``IndexError``, too few and too many
    alike. No node tests the other layout's opcodes, and a root leaf passes
    no interior kind's test.

    The one-call-per-collapsed-node rule: a sum or product of two children
    runs the same code in both walkers; only the nodes ``flatten`` merged
    fold: ``nary_value`` folds them, ``binary_value`` rejects them with
    ``ArityMismatchError``. So on an unmarked tree (see
    ``tree._DEEP``) the n-ary form saves one call per node ``flatten``
    removed. A marked node goes to ``_deep_value``, where the binary form
    takes a marked spine's operands as steps, not calls, so there the n-ary
    form saves fewer calls than nodes; ``_walk_counts`` gives both."""

    def walk(node, bindings):
        # Within each layout, branches by how often the benchmark workloads
        # meet them. Children tuple: a sum or product fold, the leaves (met
        # only at the root), a deep fold, a bad arity, then a kind that is no
        # kind. Operand slots: power, sum, product, function, difference,
        # quotient, negation, then a deep node, met only at the root.
        op = node._op
        left = node._left
        if left is None:
            if op is _SUM:
                if not folds:
                    raise ArityMismatchError(_SUM, len(node._right), "exactly 2 (binary form)")
                ret = -0.0  # the exact additive identity: -0.0 + v is v, sign of zero included
                for child in node._right:  # a fold's children tuple
                    k = child._op
                    ret += (bindings[child._arg] if k is _VARIABLE
                            else child._arg if k is _CONSTANT else walk(child, bindings))
                return ret
            if op is _PRODUCT:
                if not folds:
                    raise ArityMismatchError(_PRODUCT, len(node._right), "exactly 2 (binary form)")
                ret = 1.0
                for child in node._right:
                    k = child._op
                    ret *= (bindings[child._arg] if k is _VARIABLE
                            else child._arg if k is _CONSTANT else walk(child, bindings))
                return ret
            if op is _VARIABLE:
                return bindings[node._arg]
            if op is _CONSTANT:
                return node._arg
            if op is _DEEP_OP:
                return _deep_value(node, bindings, walk)
            if op in _TWO_OPERANDS or op in _ONE_OPERAND:
                raise IndexError(f"{node.kind} node with {len(node._right)} children")
            raise TypeError(f"not a node kind: {node.kind!r}")
        if op is _POWER:
            k = left._op
            base = (bindings[left._arg] if k is _VARIABLE
                    else left._arg if k is _CONSTANT else walk(left, bindings))
            right = node._right
            k = right._op
            exponent = (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
            try:
                return math.pow(base, exponent)
            except (ValueError, OverflowError):
                return _power(base, exponent)
        if op is _SUM:
            k = left._op
            a = (bindings[left._arg] if k is _VARIABLE
                 else left._arg if k is _CONSTANT else walk(left, bindings))
            right = node._right
            k = right._op
            return a + (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
        if op is _PRODUCT:
            k = left._op
            a = (bindings[left._arg] if k is _VARIABLE
                 else left._arg if k is _CONSTANT else walk(left, bindings))
            right = node._right
            k = right._op
            return a * (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
        if op is _UNARY_FN:
            k = left._op
            arg = (bindings[left._arg] if k is _VARIABLE
                   else left._arg if k is _CONSTANT else walk(left, bindings))
            try:
                return UNARY_FUNCTIONS[node._arg](arg)
            except (ValueError, OverflowError):
                return _CHECKED_CALLS[node._arg](arg)
        if op is _DIFFERENCE:
            k = left._op
            a = (bindings[left._arg] if k is _VARIABLE
                 else left._arg if k is _CONSTANT else walk(left, bindings))
            right = node._right
            k = right._op
            return a - (bindings[right._arg] if k is _VARIABLE
                        else right._arg if k is _CONSTANT else walk(right, bindings))
        if op is _QUOTIENT:
            k = left._op
            num = (bindings[left._arg] if k is _VARIABLE
                   else left._arg if k is _CONSTANT else walk(left, bindings))
            right = node._right
            k = right._op
            den = (bindings[right._arg] if k is _VARIABLE
                   else right._arg if k is _CONSTANT else walk(right, bindings))
            try:
                return num / den
            except ZeroDivisionError:
                return _quotient(num, den)
        if op is _NEGATE:
            k = left._op
            return -(bindings[left._arg] if k is _VARIABLE
                     else left._arg if k is _CONSTANT else walk(left, bindings))
        return _deep_value(node, bindings, walk)  # the only other opcode of a slotted node

    return walk


binary_value = _walker(folds=False)
binary_value.__name__ = binary_value.__qualname__ = "binary_value"
binary_value.__doc__ = """Evaluate a binary-form tree; every sum and product has two children.
    An unbound variable raises ``IndexError``."""

nary_value = _walker(folds=True)
nary_value.__name__ = nary_value.__qualname__ = "nary_value"
nary_value.__doc__ = """Evaluate any valid tree, folding sums and products over all children;
    an unbound variable raises ``IndexError``."""


def _deep_value(node: ExprNode, bindings: tuple[float, ...], walker) -> float:
    """``walker``'s value of ``node``, a node marked ``_DEEP_OP``: a
    post-order loop, on an explicit stack, over its marked subtrees, that
    hands every other operand to ``walker``. A marked sum or product takes
    one frame for its whole left spine of marked nodes of its kind, whose
    operands, gathered in reading order by ``_spine``, fold into one
    accumulator from -0.0 or 1.0; both are exact identities, so the bits are
    recursion's. The fold leaves its tight loop only for a marked operand,
    and resumes after it. Under ``binary_value`` every spine node must have
    two children, checked top-down before any operand is evaluated. The
    other kinds apply ``tree``'s checked helpers, so a walk builds no node."""
    binary = walker is binary_value
    # Each unfinished ancestor's node, operands, operand count, next operand
    # index and fold, laid flat: a frame object per level would keep
    # thousands of new objects alive for the garbage collector to promote
    # and rescan during a long walk.
    stack = []
    child, node, operands, n, i, acc = node, None, (), 0, 0, None  # node None: the caller's frame
    while True:
        # child, operand i of node, is marked: set node aside and take up child.
        stack += node, operands, n, i + 1, acc
        node, kind, i = child, child.kind, 0
        if kind is _SUM or kind is _PRODUCT:
            operands = _spine(child, binary)
            n = len(operands)
            acc = -0.0 if kind is _SUM else 1.0
        elif child._left is None:  # a child count the kind cannot take, as in the walker
            raise IndexError(f"{kind} node with {len(child._right)} children")
        else:  # fixed arity
            operands = child.children
            n = len(operands)
        while True:  # take node's operands from i up to a marked one, finishing every node completed
            if i == n:  # node is complete: its value is its parent's next operand
                value = acc
                acc = stack.pop()
                i = stack.pop()
                n = stack.pop()
                operands = stack.pop()
                node = stack.pop()
                if node is None:
                    return value
                kind = node.kind
            elif kind is _SUM:
                for i in range(i, n):
                    child = operands[i]
                    k = child._op
                    if k is _DEEP_OP:
                        break
                    acc += (bindings[child._arg] if k is _VARIABLE
                            else child._arg if k is _CONSTANT else walker(child, bindings))
                else:  # node is complete
                    i = n
                    continue
                break  # child, operands[i], is marked
            elif kind is _PRODUCT:
                for i in range(i, n):
                    child = operands[i]
                    k = child._op
                    if k is _DEEP_OP:
                        break
                    acc *= (bindings[child._arg] if k is _VARIABLE
                            else child._arg if k is _CONSTANT else walker(child, bindings))
                else:  # node is complete
                    i = n
                    continue
                break  # child, operands[i], is marked
            else:
                child = operands[i]
                k = child._op
                if k is _DEEP_OP:
                    break
                value = (bindings[child._arg] if k is _VARIABLE
                         else child._arg if k is _CONSTANT else walker(child, bindings))
                i += 1
            if kind is _SUM:  # fold value, operand i - 1, into node
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


def _spine(node: ExprNode, binary: bool) -> list:
    """The operands, in reading order, of the spine of ``node``, a marked sum
    or product: ``node`` and, down its first children, every marked node of
    its kind. With ``binary`` every spine node must have two children,
    checked top-down, as ``binary_value`` requires."""
    kind = node.kind
    operands = []  # the spine's later operands, last first
    while True:
        left = node._left
        if left is None:  # a fold keeps its children tuple
            children = node._right
            if binary:
                raise ArityMismatchError(kind, len(children), "exactly 2 (binary form)")
            operands += children[:0:-1]
            node = children[0]
        else:
            operands.append(node._right)
            node = left
        if node._op is not _DEEP_OP or node.kind is not kind:
            break
    operands.append(node)
    operands.reverse()
    return operands


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
        operands = _spine(node, False) if kind is _SUM or kind is _PRODUCT else node.children
        steps += len(operands)
        stack += [child for child in operands if child.children]
    return entries, steps


def eval_binary(tree: ExprNode, bindings, *, nan_on_fault: bool = False) -> EvalOutcome:
    """``evaluate(EvalMethod.BINARY_TREE, ...)``: evaluate a binary-form tree;
    ``visits`` is its node count. With ``nan_on_fault`` a domain fault yields
    NaN instead of raising, so batch loops are never interrupted by error
    handling."""
    return evaluate(_BINARY_TREE, tree, bindings, nan_on_fault=nan_on_fault)


def eval_nary(tree: ExprNode, bindings, *, nan_on_fault: bool = False) -> EvalOutcome:
    """``evaluate(EvalMethod.NARY_TREE, ...)``: evaluate any valid tree with
    the n-ary fold; ``visits`` is its node count."""
    return evaluate(_NARY_TREE, tree, bindings, nan_on_fault=nan_on_fault)


def evaluate(
    method: EvalMethod,
    source,
    bindings,
    *,
    symbols: SymbolTable | None = None,
    nan_on_fault: bool = False,
) -> EvalOutcome:
    """Uniform dispatch: route ``source`` to the strategy named by ``method``.

    The source shape must match the method, or ``MethodSourceMismatchError``
    is raised: an int id for BLACKBOX, an ExprNode for the tree methods, an
    expression string for STRING_PARSE (``symbols`` applies only there;
    defaults to the x,y table). The tree methods run their walker here: a
    variable past the point's end raises ``UnboundVariableError``, and
    ``visits`` is the tree's node count. With ``nan_on_fault`` a domain fault
    gives NaN, under every method, with the method's usual ``visits``; see
    ``tree``'s fault rule.
    """
    b = Bindings(bindings)
    try:
        if method is _BLACKBOX:
            if not isinstance(source, int) or isinstance(source, bool):
                raise MethodSourceMismatchError(f"BLACKBOX needs an int id, got {type(source).__name__}")
            fn = blackbox_lookup(source)
            _raise_unbound((0, 1), len(b))
            return _new_outcome(EvalOutcome, (fn(b[0], b[1]), 0))
        if method is _BINARY_TREE or method is _NARY_TREE:
            if not isinstance(source, ExprNode):
                raise MethodSourceMismatchError(f"{method.name} needs an ExprNode, got {type(source).__name__}")
            try:
                value = (binary_value if method is _BINARY_TREE else nary_value)(source, b)
            except IndexError:
                _raise_unbound((n.var_index for n, _ in _preorder(source) if n.kind is _VARIABLE), len(b))
                raise
            return _new_outcome(EvalOutcome, (value, count_nodes(source)))
        if method is _STRING_PARSE:
            if not isinstance(source, str):
                raise MethodSourceMismatchError(f"STRING_PARSE needs a string, got {type(source).__name__}")
            return _new_outcome(EvalOutcome, interpret_string(source, symbols or DEFAULT_SYMBOLS, b, nan_on_fault))
    except DomainFaultError:
        if not nan_on_fault:
            raise
        return _new_outcome(EvalOutcome, (math.nan, 0 if method is _BLACKBOX else count_nodes(source)))
    raise MethodSourceMismatchError(f"unknown method {method!r}")
