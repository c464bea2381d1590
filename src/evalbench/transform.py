"""Collapse chains of like associative operators into n-ary nodes.

``flatten`` merges a sum child into its parent sum (likewise for products)
so that a left- or right-leaning binary chain becomes a single operator
node over the whole operand sequence. Operand order is preserved exactly:
floating-point addition is not associative, so reordering could change
results. Difference, quotient and power are never collapsed; no algebraic
rewriting (a-b into a + (-1*b), etc.) is performed.

The pass is iterative and linear, so it works at any depth. It gathers the
operands of each maximal same-kind chain once, then builds the result
children first. A subtree with nothing to merge is not copied: the result
shares it with the input, so flattening a flat tree returns the tree itself.

New nodes are built with the unchecked ``tree._Node``: regrouping the
children of a valid tree keeps every arity and function name valid. The
input must therefore be valid; a tree built through the ``make_*``
constructors or by the parser is, while one built directly with
``ExprNode(...)`` is not checked, and its faults show only in evaluation.
"""

from operator import is_

from .tree import ExprNode, OpKind, _Node, count_nodes

_SUM = OpKind.SUM
_PRODUCT = OpKind.PRODUCT


def flatten(tree: ExprNode) -> ExprNode:
    """Tree semantically equal to ``tree`` with no sum-under-sum or
    product-under-product edge, sharing every subtree of ``tree`` that has
    nothing to merge; ``flatten(flatten(t)) is flatten(t)``. Total on valid
    trees at any depth. ``tree`` is assumed valid: a directly built
    ``ExprNode`` is not checked."""
    # Pass 1, mirror preorder (each node, then its operands right to left):
    # a sum or product stands for its whole chain of like nodes, whose
    # operands are gathered once and counted in ``counts``.
    order: list[ExprNode] = []
    counts: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = node.kind
        if kind is _SUM or kind is _PRODUCT:
            start = len(stack)
            pending = list(node.children)
            pending.reverse()
            while pending:
                child = pending.pop()
                if child.kind is kind:
                    pending.extend(reversed(child.children))
                else:
                    stack.append(child)
            counts.append(len(stack) - start)
        else:
            stack.extend(node.children)
    # Pass 2, the reverse: post-order, so each node's results lie on top of
    # ``built``, left to right.
    built: list[ExprNode] = []
    for node in reversed(order):
        children = node.children
        if not children:
            built.append(node)
            continue
        kind = node.kind
        n = counts.pop() if kind is _SUM or kind is _PRODUCT else len(children)
        kids = built[-n:]
        del built[-n:]
        if n == len(children) and all(map(is_, kids, children)):
            built.append(node)
            continue
        size = 1
        for kid in kids:
            size += kid._size
        built.append(_Node(kind, None, None, node.fn_name, tuple(kids), size))
    return built[0]


def flatten_stats(tree: ExprNode) -> tuple[int, int]:
    """Node counts before and after flattening: (nodes_before, nodes_after)."""
    return count_nodes(tree), count_nodes(flatten(tree))
