"""Collapse chains of like associative operators into n-ary nodes.

``flatten`` merges a sum child into its parent sum (likewise for products)
so that a left- or right-leaning binary chain becomes a single operator
node over the whole operand sequence. Operand order is preserved exactly:
floating-point addition is not associative, so reordering could change
results. Difference, quotient and power are never collapsed; no algebraic
rewriting (a-b into a + (-1*b), etc.) is performed.

Nodes are built with the unchecked ``tree._Node``: regrouping the
children of a valid tree keeps every arity and function name valid. The
input must therefore be valid; a tree built through the ``make_*``
constructors or by the parser is, while one built directly with
``ExprNode(...)`` is not checked, and its faults show only in evaluation.
"""

from .tree import ASSOCIATIVE_KINDS, ExprNode, _Node, count_nodes


def flatten(tree: ExprNode) -> ExprNode:
    """New tree, semantically equal to ``tree``, with no sum-under-sum or
    product-under-product edge. Total on valid trees and idempotent.
    ``tree`` is assumed valid: a directly built ``ExprNode`` is not checked."""
    if not tree.children:
        return tree
    kind = tree.kind
    flat_children = [flatten(child) for child in tree.children]
    if kind in ASSOCIATIVE_KINDS:
        merged: list[ExprNode] = []
        for child in flat_children:
            if child.kind is kind:
                # child is already flat, so splicing is transitive
                merged.extend(child.children)
            else:
                merged.append(child)
        flat_children = merged
    size = 1
    for child in flat_children:
        size += child._size
    return _Node(kind, None, None, tree.fn_name, tuple(flat_children), size)


def flatten_stats(tree: ExprNode) -> tuple[int, int]:
    """Node counts before and after flattening: (nodes_before, nodes_after)."""
    return count_nodes(tree), count_nodes(flatten(tree))
