"""Collapse chains of like associative operators into n-ary nodes.

``flatten`` merges a sum child into its parent sum (likewise for products),
so a binary chain becomes one node over the whole operand sequence, in the
same order: floating-point addition is not associative. Difference,
quotient and power never merge, and nothing is rewritten algebraically.

It follows ``tree._DEEP``'s rule: ``_operands`` flattens unmarked subtrees
by recursion, one frame per tree level, and ``_flatten_deep`` expands the
marked nodes on an explicit stack. A subtree with nothing to merge is
shared with the input, not copied, so flattening a flat tree returns the
tree itself. Operands are read from the slots that ``tree._Slots``'s layout
rule names, and new nodes are built through ``tree._Node``, which checks
nothing.
"""

from operator import attrgetter, is_

from .tree import _DEEP_OP, ExprNode, OpKind, _Node

_SUM = OpKind.SUM
_PRODUCT = OpKind.PRODUCT
_size = attrgetter("_size")
#: The five-node rule: the smallest tree that holds a merge,
#: ``sum(sum(a, b), c)``, has five nodes, so no subtree of fewer is entered;
#: it is kept as it is, which is what entering it would return. A fact of
#: the grammar, not a tuning knob.
_MERGEABLE = 5


def flatten(tree: ExprNode) -> ExprNode:
    """Tree semantically equal to ``tree`` with no sum-under-sum or
    product-under-product edge, sharing every subtree of ``tree`` that has
    nothing to merge; ``flatten(flatten(t)) is flatten(t)``. Total at any
    depth."""
    if tree._op is _DEEP_OP:
        return _flatten_deep(tree)
    out: list[ExprNode] = []
    _operands(tree, None, None, out)  # the tree as a lone operand
    return out[0]


def _operands(left, right, kind: OpKind | None, out: list) -> bool:
    """Append to ``out`` the flattened operands of a node of ``kind`` whose
    operand slots hold ``left`` and ``right``, left to right; True unless
    they are that node's children themselves. ``kind`` is the node's own
    kind for a sum or product, whose like children are merged into it, and
    None for every other kind, which never merges. An operand of another
    kind is entered, and rebuilt if anything under it merged, only if it
    has at least ``_MERGEABLE`` nodes."""
    merged = False
    for child in right if left is None else (left,) if right is None else (left, right):
        if child.kind is kind:
            _operands(child._left, child._right, kind, out)
            merged = True
            continue
        if child._size >= _MERGEABLE:
            own = child.kind
            kids = []
            if _operands(child._left, child._right, own if own is _SUM or own is _PRODUCT else None, kids):
                child = _Node(own, child._arg, sum(map(_size, kids), 1), tuple(kids))
                merged = True
        out.append(child)
    return merged


def _flatten_deep(tree: ExprNode) -> ExprNode:
    """``flatten(tree)`` on an explicit stack, for a tree marked ``_DEEP_OP``:
    only marked nodes are expanded, and pass 2 hands each of the others of
    at least ``_MERGEABLE`` nodes to ``_operands`` as a lone operand."""
    # Pass 1, mirror preorder (each node, then its operands right to left):
    # a marked sum or product stands for its whole chain of like nodes,
    # whose operands are gathered once and counted in ``counts``.
    order: list[ExprNode] = []
    counts: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        if node._op is not _DEEP_OP:
            continue
        kind = node.kind
        if kind is not _SUM and kind is not _PRODUCT:
            kind = None  # as in ``_operands``: no child is merged
        start = len(stack)
        pending = list(node.children)
        pending.reverse()
        while pending:
            child = pending.pop()
            if child.kind is not kind:
                stack.append(child)
            elif child._left is None:  # a fold keeps its children tuple
                pending.extend(reversed(child._right))
            else:
                pending += child._right, child._left
        counts.append(len(stack) - start)
    # Pass 2, the reverse: post-order, so each node's results lie on top of
    # ``built``, left to right.
    built: list[ExprNode] = []
    for node in reversed(order):
        if node._op is not _DEEP_OP:
            if node._size < _MERGEABLE:
                built.append(node)
            else:
                _operands(node, None, None, built)
            continue
        children = node.children
        n = counts.pop()
        kids = built[-n:]
        del built[-n:]
        if n == len(children) and all(map(is_, kids, children)):
            built.append(node)
            continue
        built.append(_Node(node.kind, node._arg, sum(map(_size, kids), 1), tuple(kids)))
    return built[0]
