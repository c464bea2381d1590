import itertools
import math
import pickle
import sys

import pytest
from hypothesis import assume, example, given

from evalbench import (
    DomainFaultError,
    OpKind,
    count_nodes,
    eval_nary,
    flatten,
    flatten_stats,
    make_constant,
    make_op,
    make_variable,
    parse_to_tree,
)
from evalbench.benchmark import EXPRESSIONS
import evalbench.transform as transform_module
import evalbench.tree as tree_module
from strategies import (
    FN_NAMES,
    bindings,
    handbuilt_binary_tree,
    handbuilt_nary_tree,
    has_like_chain,
    leaf_sequence,
    trees,
)


def _x():
    return make_variable(0)


def _y():
    return make_variable(1)


def test_flatten_collapses_sum_chain():
    tree = make_op(OpKind.SUM, (make_op(OpKind.SUM, (_x(), _y())), make_constant(1.0)))
    flat = flatten(tree)
    assert flat == handbuilt_nary_tree()
    assert count_nodes(flat) == 4


def test_flatten_already_flat_unchanged():
    tree = handbuilt_nary_tree()
    assert flatten(tree) == tree


def test_flatten_never_collapses_power():
    tree = make_op(OpKind.POWER, (_x(), make_op(OpKind.POWER, (_y(), _x()))))
    assert flatten(tree) == tree


def test_flatten_collapses_transitively():
    # Sum(Sum(Sum(a,b),c),d) becomes one 4-child sum in a single call
    a, b, c, d = (make_constant(float(i)) for i in range(4))
    tree = make_op(
        OpKind.SUM, (make_op(OpKind.SUM, (make_op(OpKind.SUM, (a, b)), c)), d)
    )
    flat = flatten(tree)
    assert flat.kind is OpKind.SUM
    assert len(flat.children) == 4
    assert all(not ch.children for ch in flat.children)


def test_flatten_mixed_kinds_kept_apart():
    # a sum below a product is not a like-operator chain
    tree = make_op(OpKind.PRODUCT, (make_op(OpKind.SUM, (_x(), _y())), _x()))
    flat = flatten(tree)
    assert flat.kind is OpKind.PRODUCT
    assert len(flat.children) == 2
    assert flat.children[0].kind is OpKind.SUM


def test_flatten_stats_handbuilt_tree():
    assert flatten_stats(handbuilt_binary_tree()) == (5, 4)


def test_flatten_stats_left_comb():
    # left comb over 8 leaves: 2n-1 nodes collapse to n+1
    n = 8
    comb = make_variable(0)
    for i in range(1, n):
        comb = make_op(OpKind.SUM, (comb, make_constant(float(i))))
    before = 2 * n - 1
    after = n + 1
    assert flatten_stats(comb) == (before, after)
    assert flatten_stats(comb) == (15, 9)


def test_flatten_stats_leaf():
    assert flatten_stats(make_constant(1.0)) == (1, 1)


def test_flatten_reproduces_hand_built_suite_shapes():
    # functions 1..6 have no like-operator chain; 7 and 8 collapse
    expected = {
        1: make_variable(0),
        2: make_op(OpKind.SUM, (_x(), _y())),
        7: handbuilt_nary_tree(),
        8: make_op(OpKind.PRODUCT, (make_constant(2.0), _x(), _y(), handbuilt_nary_tree())),
    }
    for fid, text in EXPRESSIONS.items():
        binary = parse_to_tree(text)
        flat = flatten(binary)
        if fid in expected:
            assert flat == expected[fid], f"function {fid}"
        if fid <= 6:
            assert flat == binary, f"function {fid} should be unchanged"


@given(tree=trees(), b=bindings)
def test_flatten_preserves_semantics(tree, b):
    # oracle: the n-ary fold applied to the unflattened tree
    try:
        want = eval_nary(tree, b).value
    except DomainFaultError:
        assume(False)
    assume(math.isfinite(want))
    got = eval_nary(flatten(tree), b).value
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want), abs(got))


@given(tree=trees())
def test_flatten_idempotent(tree):
    flat = flatten(tree)
    assert flatten(flat) == flat
    assert flatten(flat) is flat


def test_flatten_shares_what_it_does_not_merge():
    tree = parse_to_tree("x+y+x^y")
    power = tree.children[1]
    assert power.kind is OpKind.POWER
    flat = flatten(tree)
    assert flat.children == (tree.children[0].children[0], tree.children[0].children[1], power)
    assert flat.children[2] is power


def test_flatten_long_left_chain():
    terms = 10**4
    tree = parse_to_tree("+".join(["x"] * (terms - 1) + ["y^x"]))
    flat = flatten(tree)
    assert flat.kind is OpKind.SUM and len(flat.children) == terms
    assert count_nodes(flat) == 1 + (terms - 1) + 3
    assert flat.children[-1] is tree.children[1]
    assert flatten(flat) is flat


@given(tree=trees())
def test_flatten_normal_form(tree):
    assert not has_like_chain(flatten(tree))


@given(tree=trees())
def test_flatten_preserves_operand_order(tree):
    assert leaf_sequence(flatten(tree)) == leaf_sequence(tree)


@given(tree=trees())
def test_flatten_monotone_shrinkage(tree):
    before, after = flatten_stats(tree)
    assert after <= before
    if has_like_chain(tree):
        assert after < before
    else:
        assert after == before


@given(tree=trees(binary_only=True))
def test_flatten_never_grows_binary_trees(tree):
    assert count_nodes(flatten(tree)) <= count_nodes(tree)


def _nodes(tree):
    return [node for node, _ in tree_module._preorder(tree)]


def _sharing(result, tree):
    """Per node of ``result`` in preorder, its preorder position in ``tree``
    if it is a node of ``tree`` itself, else None."""
    position = {id(node): i for i, node in enumerate(_nodes(tree))}
    return [position.get(id(node)) for node in _nodes(result)]


# At the bound of three: a five-node sum whose children are all smaller (not
# marked), and a sum with a three-node child (marked).
@example(tree=make_op(OpKind.SUM, (_x(), _y(), make_op(OpKind.NEGATE, (_x(),)))))
@example(tree=make_op(OpKind.SUM, (make_op(OpKind.DIFFERENCE, (_x(), _y())), _x())))
@given(tree=trees())
def test_explicit_stack_flatten_matches_recursion(tree):
    want = flatten(tree)
    driven = []
    flatten_deep = transform_module._flatten_deep
    with pytest.MonkeyPatch.context() as patch:
        # Construction marks a node deep, so the tree is rebuilt under a
        # bound of three: every node with a child of at least three nodes is
        # then expanded by the explicit-stack loop.
        patch.setattr(tree_module, "_DEEP", 3)
        rebuilt = pickle.loads(pickle.dumps(tree))
        patch.setattr(transform_module, "_flatten_deep", lambda t: driven.append(t) or flatten_deep(t))
        got = flatten(rebuilt)
        assert flatten(got) is got
        ops = [node._op for node in _nodes(pickle.loads(pickle.dumps(want)))]
    assert got == want
    assert [node._op for node in _nodes(got)] == ops
    assert _sharing(got, rebuilt) == _sharing(want, tree)
    assert bool(driven) == any(count_nodes(child) >= 3 for child in tree.children)


def _small_trees(n):
    """Every tree of exactly ``n`` nodes over the leaves x and 1.0: each
    operator kind, each arity that fits, one function name."""
    if n == 1:
        return [_x(), make_constant(1.0)]
    out = [make_op(OpKind.NEGATE, (c,)) for c in _small_trees(n - 1)]
    out += [make_op(OpKind.UNARY_FN, (c,), fn_name=FN_NAMES[0]) for c in _small_trees(n - 1)]
    # Split the n - 1 nodes below the root among two or more children.
    for sizes in _splits(n - 1):
        kinds = (OpKind.SUM, OpKind.PRODUCT) + ((OpKind.DIFFERENCE, OpKind.QUOTIENT, OpKind.POWER)
                                                if len(sizes) == 2 else ())
        for children in itertools.product(*map(_small_trees, sizes)):
            out += [make_op(kind, children) for kind in kinds]
    return out


def _splits(total):
    """Tuples of two or more positive sizes summing to ``total``."""
    return [(first,) + rest for first in range(1, total) for rest in [(total - first,)] + _splits(total - first)]


def test_trees_too_small_to_merge_flatten_to_themselves():
    small = [tree for n in range(1, 5) for tree in _small_trees(n)]
    assert {count_nodes(tree) for tree in small} == {1, 2, 3, 4}
    assert any(len(tree.children) == 3 for tree in small)
    for tree in small:
        assert flatten(tree) is tree


@pytest.mark.parametrize("deep", [3, 300])
@given(tree=trees())
def test_flatten_enters_no_subtree_too_small_to_merge(deep, tree):
    want = flatten(tree)
    if count_nodes(tree) < 5:
        assert want is tree
    entered = []
    flat = transform_module._flat
    with pytest.MonkeyPatch.context() as patch:
        # Construction marks a node deep, so the tree is rebuilt under ``deep``.
        patch.setattr(tree_module, "_DEEP", deep)
        rebuilt = pickle.loads(pickle.dumps(tree))
        patch.setattr(transform_module, "_flat", lambda node: entered.append(node) or flat(node))
        assert flatten(rebuilt) == want
    # The root is handed to ``_flat`` whatever its size, unless it is marked deep.
    assert any(node is rebuilt for node in entered) == (rebuilt._op is not tree_module._DEEP_OP)
    assert all(count_nodes(node) >= 5 for node in entered if node is not rebuilt)


def _chain_leaves(node, kind, operands):
    """Assert ``node`` is a ``kind`` node over exactly the leaf objects
    ``operands``."""
    assert node.kind is kind
    assert len(node.children) == len(operands)
    assert all(child is leaf for child, leaf in zip(node.children, operands))


_DEPTH = 10**4


def _check_nested_sin(tree, flat):
    for _ in range(_DEPTH):
        assert flat.fn_name == tree.fn_name == "sin" and flat is not tree
        tree, flat = tree.children[0], flat.children[0]
    _chain_leaves(flat, OpKind.SUM, tree.children[0].children + (tree.children[1],))  # (x+y)+x


def _check_difference_chain(tree, flat):
    for _ in range(_DEPTH - 1):
        assert flat.kind is tree.kind is OpKind.DIFFERENCE and flat is not tree
        operand = tree.children[1]
        _chain_leaves(flat.children[1], OpKind.SUM, operand.children[0].children + (operand.children[1],))
        tree, flat = tree.children[0], flat.children[0]
    _chain_leaves(flat, OpKind.SUM, tree.children[0].children + (tree.children[1],))


def _check_sum_of_products(tree, flat):
    assert flat.kind is OpKind.SUM and len(flat.children) == _DEPTH
    for i in reversed(range(_DEPTH)):
        term = tree.children[1] if i else tree
        _chain_leaves(flat.children[i], OpKind.PRODUCT, term.children[0].children + (term.children[1],))
        tree = tree.children[0]


@pytest.mark.parametrize("text, check", [
    pytest.param("sin(" * _DEPTH + "x+y+x" + ")" * _DEPTH, _check_nested_sin, id="nested-sin"),
    pytest.param("-".join(["(x+y+x)"] * _DEPTH), _check_difference_chain, id="difference-chain"),
    pytest.param("+".join(["x*y*x"] * _DEPTH), _check_sum_of_products, id="sum-of-products"),
])
def test_flatten_deep_tree_merges_below_the_deep_part(text, check):
    limit = sys.getrecursionlimit()
    tree = parse_to_tree(text)
    flat = flatten(tree)
    check(tree, flat)
    assert flatten(flat) is flat
    assert sys.getrecursionlimit() == limit
