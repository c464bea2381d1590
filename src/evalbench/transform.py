"""Collapse chains of like associative operators into n-ary nodes.

``flatten`` merges a sum child into its parent sum (likewise for products)
so that a left- or right-leaning binary chain becomes a single operator
node over the whole operand sequence. Operand order is preserved exactly:
floating-point addition is not associative, so reordering could change
results. Difference, quotient and power are never collapsed; no algebraic
rewriting (a-b into a + (-1*b), etc.) is performed.

It works at any depth by the walkers' pattern (see ``evaluators``): a
node is marked ``tree._DEEP_OP`` when one of its children has at least
``tree._DEEP`` nodes, so an unmarked subtree is at most ``tree._DEEP`` high
and is flattened by recursion, and only the marked nodes are expanded on an
explicit stack. A subtree with nothing to merge is not copied: the result
shares it with the input, so flattening a flat tree returns the tree itself.

The smallest tree with something to merge, ``sum(sum(a, b), c)``, has
``_MERGEABLE`` (five) nodes: a sum or product of at least two children, one
of them a like node of at least two children. So no subtree of fewer nodes
is entered: its operands are shared as they are, which is what entering it
would return, and the output is the same tree, sharing the same nodes.

New nodes are built with the unchecked ``tree._Node``: regrouping the
children of a valid tree keeps every arity and function name valid. The
input must therefore be valid; a tree built through the ``make_*``
constructors or by the parser is, while one built directly with
``ExprNode(...)`` is not checked, and its faults show only in evaluation.
"""

from operator import attrgetter, is_

from .tree import _DEEP_OP, ExprNode, OpKind, _Node, count_nodes

_SUM = OpKind.SUM
_PRODUCT = OpKind.PRODUCT
_size = attrgetter("_size")
#: Nodes in the smallest tree that holds a merge, ``sum(sum(a, b), c)``; a
#: fact of the grammar, not a tuning knob.
_MERGEABLE = 5


def flatten(tree: ExprNode) -> ExprNode:
    """Tree semantically equal to ``tree`` with no sum-under-sum or
    product-under-product edge, sharing every subtree of ``tree`` that has
    nothing to merge; ``flatten(flatten(t)) is flatten(t)``. Total on valid
    trees at any depth. ``tree`` is assumed valid: a directly built
    ``ExprNode`` is not checked."""
    return _flatten_deep(tree) if tree._op is _DEEP_OP else _flat(tree)


def _flat(node: ExprNode) -> ExprNode:
    """``flatten(node)`` by recursion, for a node not marked ``_DEEP_OP``:
    it is at most ``_DEEP`` high and holds no marked node, so the recursion
    is at most ``_DEEP`` deep. A child of fewer than ``_MERGEABLE`` nodes,
    leaves included, holds no merge and is kept as it is, not entered."""
    kind = node.kind
    children = node.children
    if kind is _SUM or kind is _PRODUCT:
        kids = []
        if not _operands(children, kind, kids):
            return node
    else:
        kids = None
        for i, child in enumerate(children):
            if child._size >= _MERGEABLE:
                new = _flat(child)
                if new is not child:
                    if kids is None:
                        kids = list(children)
                    kids[i] = new
        if kids is None:
            return node
    return _Node(kind, node._arg, tuple(kids), sum(map(_size, kids), 1))


def _operands(children: tuple, kind: OpKind, out: list) -> bool:
    """Append to ``out`` the flattened operands of the ``kind`` chain over
    ``children``, left to right; True unless they are ``children`` itself.
    An operand of another kind is entered only if it has at least
    ``_MERGEABLE`` nodes: a smaller one holds no merge and is kept as it is."""
    merged = False
    for child in children:
        if child.kind is kind:
            _operands(child.children, kind, out)
            merged = True
        elif child._size >= _MERGEABLE:
            new = _flat(child)
            out.append(new)
            merged = merged or new is not child
        else:
            out.append(child)
    return merged


def _flatten_deep(tree: ExprNode) -> ExprNode:
    """``flatten(tree)`` on an explicit stack, for a tree marked ``_DEEP_OP``:
    only marked nodes are expanded, and pass 2 hands the others of at least
    ``_MERGEABLE`` nodes to ``_flat``."""
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
        start = len(stack)
        if kind is _SUM or kind is _PRODUCT:
            pending = list(node.children)
            pending.reverse()
            while pending:
                child = pending.pop()
                if child.kind is kind:
                    pending.extend(reversed(child.children))
                else:
                    stack.append(child)
        else:
            stack.extend(node.children)
        counts.append(len(stack) - start)
    # Pass 2, the reverse: post-order, so each node's results lie on top of
    # ``built``, left to right.
    built: list[ExprNode] = []
    for node in reversed(order):
        if node._op is not _DEEP_OP:
            built.append(_flat(node) if node._size >= _MERGEABLE else node)
            continue
        children = node.children
        n = counts.pop()
        kids = built[-n:]
        del built[-n:]
        if n == len(children) and all(map(is_, kids, children)):
            built.append(node)
            continue
        built.append(_Node(node.kind, node._arg, tuple(kids), sum(map(_size, kids), 1)))
    return built[0]


def flatten_stats(tree: ExprNode) -> tuple[int, int]:
    """Node counts before and after flattening: (nodes_before, nodes_after)."""
    return count_nodes(tree), count_nodes(flatten(tree))
