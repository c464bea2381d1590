import copy
import dataclasses
import gc
import math
import pickle
import random
import sys
import tracemalloc
import types

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from evalbench import (
    ArityMismatchError,
    Bindings,
    ExprNode,
    LeafKindError,
    NonFiniteValueError,
    OpKind,
    SymbolTable,
    UnknownFunctionError,
    count_nodes,
    flatten,
    is_binary_form,
    make_constant,
    make_op,
    make_variable,
    parse_to_tree,
)
import evalbench.evaluators as evaluators
import evalbench.tree as tree_module
from evalbench.tree import _DEEP_OP, _preorder
from strategies import handbuilt_binary_tree, handbuilt_nary_tree, random_tree, to_source, trees

_XYZ = SymbolTable(("x", "y", "z"))


def test_make_constant():
    node = make_constant(1.0)
    assert node.kind is OpKind.CONSTANT
    assert node.value == 1.0
    assert node.children == ()
    assert make_constant(0.0).value == 0.0
    # an int value is stored as a float by every route
    for node in (make_constant(1), ExprNode(OpKind.CONSTANT, value=1), pickle.loads(pickle.dumps(make_constant(1)))):
        assert type(node.value) is float and node.value == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_constant_rejects_non_finite(bad):
    with pytest.raises(NonFiniteValueError):
        make_constant(bad)


def test_make_variable():
    assert make_variable(0).var_index == 0
    assert make_variable(1).var_index == 1
    # indices beyond x,y are legal; bindings supply values
    assert make_variable(7).var_index == 7


@pytest.mark.parametrize("bad", [-1, 1.5, "x", True])
def test_make_variable_rejects(bad):
    with pytest.raises(ValueError):
        make_variable(bad)


def test_make_op_nary_sum():
    node = make_op(OpKind.SUM, (make_variable(0), make_variable(1), make_constant(1.0)))
    assert len(node.children) == 3


def test_make_op_arity_errors():
    x = make_variable(0)
    y = make_variable(1)
    with pytest.raises(ArityMismatchError):
        make_op(OpKind.SUM, (x,))
    with pytest.raises(ArityMismatchError):
        make_op(OpKind.UNARY_FN, (x, y), fn_name="sin")
    with pytest.raises(ArityMismatchError):
        make_op(OpKind.DIFFERENCE, (x, y, x))
    with pytest.raises(ArityMismatchError):
        make_op(OpKind.NEGATE, ())


def test_make_op_leaf_kinds_rejected():
    with pytest.raises(LeafKindError):
        make_op(OpKind.CONSTANT, ())
    with pytest.raises(LeafKindError):
        make_op(OpKind.VARIABLE, ())


def test_make_op_fn_name_rules():
    x = make_variable(0)
    with pytest.raises(UnknownFunctionError):
        make_op(OpKind.UNARY_FN, (x,))
    with pytest.raises(UnknownFunctionError):
        make_op(OpKind.UNARY_FN, (x,), fn_name="sinh")
    with pytest.raises(UnknownFunctionError):
        make_op(OpKind.SUM, (x, x), fn_name="sin")
    node = make_op(OpKind.UNARY_FN, (x,), fn_name="sqrt")
    assert node.fn_name == "sqrt"


def test_make_op_rejects_non_nodes():
    with pytest.raises(TypeError):
        make_op(OpKind.SUM, (make_variable(0), 1.0))


class _Shapes:
    """Pickles as a call of ``tree._rebuild`` on ``shapes``: a crafted payload."""

    def __init__(self, shapes):
        self.shapes = shapes

    def __reduce__(self):
        return tree_module._rebuild, (self.shapes,)


@pytest.mark.parametrize(
    "kind, fields, n, error",
    [
        (OpKind.VARIABLE, {"var_index": -1}, 0, ValueError),
        (OpKind.VARIABLE, {"var_index": True}, 0, ValueError),
        (OpKind.CONSTANT, {"value": math.inf}, 0, NonFiniteValueError),
        (OpKind.CONSTANT, {"value": None}, 0, TypeError),
        (OpKind.UNARY_FN, {"fn_name": "foo"}, 1, UnknownFunctionError),
        ("bogus", {}, 0, TypeError),
        (OpKind.NEGATE, {}, 0, ArityMismatchError),
        (OpKind.SUM, {}, 1, ArityMismatchError),
        (OpKind.POWER, {}, 3, ArityMismatchError),
        (OpKind.CONSTANT, {"value": 1.0}, 1, ArityMismatchError),
        (OpKind.VARIABLE, {"var_index": 0}, 2, ArityMismatchError),
    ],
    ids=["variable-1", "variable-True", "constant-inf", "constant-None", "function-foo", "bogus-kind",
         "negate-of-0", "sum-of-1", "power-of-3", "constant-of-1", "variable-of-2"],
)
def test_no_route_builds_a_malformed_node(kind, fields, n, error):
    # ExprNode(...), make_* where one applies, and unpickling a payload
    # crafted for _rebuild all raise the typed error where the node is built.
    children = (make_variable(0),) * n
    arg = next(iter(fields.values()), None)
    shapes = ((kind, arg, n),) + ((OpKind.VARIABLE, 0, 0),) * n
    routes = [lambda: ExprNode(kind, children=children, **fields), lambda: pickle.loads(pickle.dumps(_Shapes(shapes)))]
    if kind is OpKind.CONSTANT and not n:
        routes.append(lambda: make_constant(arg))
    elif kind is OpKind.VARIABLE and not n:
        routes.append(lambda: make_variable(arg))
    elif kind not in (OpKind.CONSTANT, OpKind.VARIABLE):
        routes.append(lambda: make_op(kind, children, fields.get("fn_name")))
    for route in routes:
        with pytest.raises(error):
            route()


@pytest.mark.parametrize(
    "shapes",
    [
        ((OpKind.SUM, None, 5), (OpKind.VARIABLE, 0, 0), (OpKind.VARIABLE, 1, 0)),
        ((OpKind.VARIABLE, 0, 0), (OpKind.VARIABLE, 1, 0)),
        ((OpKind.VARIABLE, 0, 0), (OpKind.VARIABLE, 1, 0), (OpKind.VARIABLE, 2, -1)),
    ],
    ids=["count-5-over-2-leaves", "two-roots", "count-minus-1"],
)
def test_unpickling_rejects_child_counts_that_do_not_fit(shapes):
    # Each crafted payload used to build some other valid tree.
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(_Shapes(shapes)))
    tree = parse_to_tree("x+y+1-sin(-x)*2")
    assert pickle.loads(pickle.dumps(_Shapes(tree_module._shapes(tree)))) == tree


def test_is_binary_form():
    assert is_binary_form(handbuilt_binary_tree())
    assert not is_binary_form(handbuilt_nary_tree())
    assert is_binary_form(make_constant(3.0))


def test_count_nodes():
    assert count_nodes(handbuilt_binary_tree()) == 5
    assert count_nodes(handbuilt_nary_tree()) == 4
    assert count_nodes(make_constant(1.0)) == 1
    # the count is stored by every construction route, counts a shared node
    # once per occurrence and takes no part in equality or repr
    x = make_variable(0)
    direct = ExprNode(OpKind.SUM, children=(ExprNode(OpKind.PRODUCT, children=(x, x)), x))
    assert count_nodes(direct) == 5
    assert count_nodes(make_op(OpKind.NEGATE, (direct,))) == 6
    parsed = parse_to_tree("x*x+x")
    assert parsed.children[1] is parsed.children[0].children[0]
    assert count_nodes(parsed) == 5
    assert parsed == direct and repr(parsed) == repr(direct)


def test_nodes_are_immutable():
    node = make_constant(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.value = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.children = ()
    for field in ("kind", "value", "var_index", "fn_name", "_arg", "children", "_size", "_op", "_left", "_right"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, field)
    assert node == make_constant(1.0) and count_nodes(node) == 1
    # a look-alike with every field is still not a node
    fake = types.SimpleNamespace(kind=OpKind.CONSTANT, value=1.0, var_index=None, fn_name=None, children=(), _size=1)
    with pytest.raises(TypeError):
        make_op(OpKind.NEGATE, (fake,))


def test_payload_fields_are_none_where_the_kind_does_not_use_them():
    tree = parse_to_tree("sin(x) * 2.5 - -y ^ 3 / z", _XYZ)
    used = {OpKind.CONSTANT: "value", OpKind.VARIABLE: "var_index", OpKind.UNARY_FN: "fn_name"}
    for node in (node for built in (tree, flatten(tree), _pickled(tree)) for node, _ in _preorder(built)):
        for field in ("value", "var_index", "fn_name"):
            assert (getattr(node, field) is None) is (used.get(node.kind) != field)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, 1.0)
    # a direct ExprNode(...) keeps only the payload its kind uses, and
    # rejects a function name on another interior kind, as make_op does
    odd = ExprNode(OpKind.SUM, value=1.0, var_index=0, children=(make_variable(0),) * 2)
    assert (odd.value, odd.var_index, odd.fn_name) == (None, None, None)
    assert odd == make_op(OpKind.SUM, (make_variable(0),) * 2)
    assert ExprNode(OpKind.VARIABLE, value=2.0, var_index=3).value is None
    with pytest.raises(UnknownFunctionError, match="SUM does not take a function name"):
        ExprNode(OpKind.SUM, fn_name="sin", children=(make_variable(0),) * 2)


def test_nodes_fit_the_80_byte_allocation_class():
    # CPython's allocator rounds an object up to a multiple of 16 bytes, so
    # 80 bytes is the most that stays in the 80-byte class: six slots fit,
    # and a seventh (88 bytes) would take the 96-byte class.
    tree = flatten(parse_to_tree("sin(x) + 2 + -y"))
    for node, _ in _preorder(tree):
        assert sys.getsizeof(node) <= 80


def test_a_parsed_node_is_one_object():
    # A two-operand node keeps its operands in its own slots, so a parse
    # keeps one object that the collector tracks, and one 80-byte block,
    # per interior node. 100 terms keep every stored size below 257, so no
    # size is a new int object.
    text = "+".join(["x", "y"] * 50)
    interior = count_nodes(parse_to_tree(text)) // 2
    assert interior == 99
    gc.collect()
    before = len(gc.get_objects())
    tree = parse_to_tree(text)
    assert (len(gc.get_objects()) - before) / interior <= 1.1
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        again = parse_to_tree(text)
        assert (tracemalloc.get_traced_memory()[0] - start) / interior <= 84
    finally:
        tracemalloc.stop()
    assert again == tree


def test_children_is_a_tuple_equal_on_every_read():
    x = make_variable(0)
    negation = make_op(OpKind.NEGATE, (x,))
    binary = make_op(OpKind.POWER, (negation, x))
    fold = make_op(OpKind.SUM, (x, binary, x))
    for node, want in ((x, ()), (negation, (x,)), (binary, (negation, x)), (fold, (x, binary, x))):
        first, second = node.children, node.children
        assert type(first) is tuple and first == second == want
        assert all(a is b for a, b in zip(first, want))


def test_one_leaf_per_variable_and_per_constant_value_within_a_parse():
    tree = parse_to_tree("2*x + 2*y + 2.0 + 20e-1 + 3")
    leaves = [node for node, _ in _preorder(tree) if not node.children]
    twos = [leaf for leaf in leaves if leaf.kind is OpKind.CONSTANT and leaf.value == 2.0]
    assert len(twos) == 4 and all(leaf is twos[0] for leaf in twos)
    three = next(leaf for leaf in leaves if leaf.value == 3.0)
    assert three is not twos[0]
    # a constant leaf is per parse; a variable leaf is the symbol table's
    again = parse_to_tree("2*x")
    first = tree.children[0].children[0].children[0].children[0]
    assert repr(again) == repr(first)
    assert again.children[0] is not first.children[0] and again.children[1] is first.children[1]


def _unshared(tree):
    """``tree`` rebuilt with a new node at every position: no leaf shared."""
    return _remake(tree, lambda node, kids: ExprNode(node.kind, node.value, node.var_index, node.fn_name, kids))


@given(tree=trees())
def test_shared_leaves_change_nothing_visible(tree):
    parsed = parse_to_tree(to_source(tree), _XYZ)
    fresh = _unshared(parsed)
    assert count_nodes(parsed) == count_nodes(fresh)
    assert parsed == fresh and hash(parsed) == hash(fresh) and repr(parsed) == repr(fresh)
    assert pickle.dumps(parsed) == pickle.dumps(fresh) and _pickled(parsed) == fresh
    flat = flatten(parsed)
    assert flatten(flat) is flat
    assert flat == flatten(fresh) and repr(flat) == repr(flatten(fresh))
    assert count_nodes(flat) == count_nodes(flatten(fresh))


def _every_node_is_frozen(tree):
    return all(type(node) is ExprNode for node, _ in _preorder(tree))


@given(tree=trees())
def test_no_mutable_node_escapes(tree):
    for built in _on_every_route(tree, 300):
        assert _every_node_is_frozen(built)
        for node, _ in _preorder(built):
            with pytest.raises(dataclasses.FrozenInstanceError):
                node.children = ()


def _deep_pair(text_of):
    """Two separately parsed trees of ``text_of(deepest leaf)``, and a third
    whose deepest leaf differs."""
    return parse_to_tree(text_of("x")), parse_to_tree(text_of("x")), parse_to_tree(text_of("y"))


@pytest.mark.parametrize(
    "text_of",
    [
        lambda leaf: "sin(" * 10**4 + leaf + ")" * 10**4,
        lambda leaf: "+".join([f"{leaf}*y"] + ["x*y"] * (10**4 - 1)),
    ],
    ids=["nested-sin", "sum-of-products"],
)
def test_equality_hash_and_repr_at_any_depth(text_of):
    limit = sys.getrecursionlimit()
    a, b, changed = _deep_pair(text_of)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != changed and not a == changed
    text = repr(a)
    assert text.startswith("ExprNode(kind=") and text == repr(b) and text != repr(changed)
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert copied is not a and copied == a and copied != changed
        assert count_nodes(copied) == count_nodes(a) and _every_node_is_frozen(copied)
    assert sys.getrecursionlimit() == limit


def _expected_op(node, deep):
    if any(child._size >= deep for child in node.children):
        return _DEEP_OP
    return node.kind


def _remake(tree, node_of):
    """``tree`` built again bottom-up, each node by ``node_of(node, children)``."""
    return node_of(tree, tuple(_remake(child, node_of) for child in tree.children))


def _pickled(tree):
    return pickle.loads(pickle.dumps(tree))


def _through_make(node, children):
    if node.kind is OpKind.CONSTANT:
        return make_constant(node.value)
    if node.kind is OpKind.VARIABLE:
        return make_variable(node.var_index)
    return make_op(node.kind, children, node.fn_name)


def _on_every_route(tree, deep):
    """``tree`` built under ``_DEEP`` = ``deep`` by the parser, by ``make_*``
    and by direct ``ExprNode(...)``, each also flattened, and all of those
    pickled and copied."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_DEEP", deep)
        built = [
            parse_to_tree(to_source(tree), _XYZ),
            _remake(tree, _through_make),
            _remake(tree, lambda node, kids: ExprNode(node.kind, node.value, node.var_index, node.fn_name, kids)),
        ]
        built += [flatten(t) for t in built]
        built += [copied(t) for t in built for copied in (_pickled, copy.copy, copy.deepcopy)]
    return built


@given(tree=trees(), deep=st.sampled_from([3, 300]))
def test_opcode_follows_kind_children_and_size_on_every_route(tree, deep):
    for t in _on_every_route(tree, deep):
        for node, _ in _preorder(t):
            assert node._size == 1 + sum(child._size for child in node.children)
            assert node._op is _expected_op(node, deep)
            # The layout the walkers branch on first: by the child count alone.
            assert (node._left is not None) is (len(node.children) in (1, 2))


def _heights(tree):
    """Each node's height, a leaf's being 1, by ``id``, from an explicit
    post-order stack."""
    height = {}
    stack = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if done:
            height[id(node)] = 1 + max((height[id(child)] for child in node.children), default=0)
        elif id(node) not in height:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
    return height


def _nested_sin(depth):
    return parse_to_tree("sin(" * depth + "x" + ")" * depth)


# Trees around the bound of 300: nested calls of 299, 300 and 301 nodes (the
# last is the first marked), a binary sum spine whose operands are small,
# and sums of 40 operands of 299 nodes, with and without one of 300.
@example(tree=_nested_sin(298), deep=300)
@example(tree=_nested_sin(299), deep=300)
@example(tree=_nested_sin(300), deep=300)
@example(tree=parse_to_tree("+".join(["sin(x)*y"] * 400)), deep=300)
@example(tree=make_op(OpKind.SUM, [_nested_sin(298)] * 40), deep=300)
@example(tree=make_op(OpKind.SUM, [_nested_sin(298)] * 39 + [_nested_sin(299)]), deep=300)
@given(tree=trees(), deep=st.sampled_from([3, 300]))
def test_unmarked_nodes_are_at_most_deep_high_on_every_route(tree, deep):
    for t in _on_every_route(tree, deep):
        height = _heights(t)
        for node, _ in _preorder(t):
            if node._op is _DEEP_OP:
                assert any(child._size >= deep for child in node.children)
            else:
                assert height[id(node)] <= deep


def test_nodes_pickle_and_copy():
    parsed = parse_to_tree("sin(x)*2.5 + y^-x - x*y*x/3")
    built = make_op(OpKind.SUM, (make_variable(0), make_constant(-0.0), make_op(OpKind.NEGATE, (make_variable(1),))))
    for tree in (parsed, flatten(parsed), built):
        for copied in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
            assert type(copied) is ExprNode and _every_node_is_frozen(copied)
            assert copied == tree and hash(copied) == hash(tree)
            assert count_nodes(copied) == count_nodes(tree) and repr(copied) == repr(tree)


def test_trees_of_different_sizes_compare_unequal_without_a_walk():
    def no_walk(tree):
        raise AssertionError("_shapes called")

    a = parse_to_tree("+".join(["x"] * 10**4))
    b = parse_to_tree("+".join(["x"] * (10**4 - 1)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_shapes", no_walk)
        assert a != b and not a == b


def test_equality_and_hash_follow_the_fields():
    x = make_variable(0)
    assert make_op(OpKind.SUM, (x, make_constant(0.0))) == make_op(OpKind.SUM, (x, make_constant(-0.0)))
    assert hash(make_constant(0.0)) == hash(make_constant(-0.0))
    # the same nodes in preorder, grouped differently
    y, z = make_variable(1), make_variable(2)
    assert make_op(OpKind.SUM, (make_op(OpKind.SUM, (x, y)), z, x)) != make_op(
        OpKind.SUM, (make_op(OpKind.SUM, (x, y, z)), x)
    )
    assert make_op(OpKind.UNARY_FN, (x,), "sin") != make_op(OpKind.UNARY_FN, (x,), "cos")
    assert make_variable(0) != make_variable(1) and make_constant(1.0) != make_variable(1)
    assert x.__eq__(0) is NotImplemented and x != 0 and x != (OpKind.VARIABLE, None, 0, None, 0)
    assert len({parse_to_tree("x+y"), parse_to_tree("x+y"), parse_to_tree("y+x")}) == 2


# The field layout and repr of the frozen dataclass that ExprNode once was.
_DataclassNode = dataclasses.make_dataclass(
    "ExprNode", ["kind", "value", "var_index", "fn_name", "children"], frozen=True
)


def _as_dataclass(node):
    return _DataclassNode(
        node.kind, node.value, node.var_index, node.fn_name, tuple(_as_dataclass(c) for c in node.children)
    )


def test_repr_is_the_dataclass_repr():
    rng = random.Random(7)
    for _ in range(2000):
        tree = parse_to_tree(to_source(random_tree(rng, 5)), _XYZ)
        for shown in (tree, flatten(tree)):
            assert repr(shown) == repr(_as_dataclass(shown))


_RULES = {
    OpKind.SUM: (2, None),
    OpKind.PRODUCT: (2, None),
    OpKind.DIFFERENCE: (2, 2),
    OpKind.QUOTIENT: (2, 2),
    OpKind.POWER: (2, 2),
    OpKind.NEGATE: (1, 1),
    OpKind.UNARY_FN: (1, 1),
}


@given(kind=st.sampled_from(sorted(_RULES, key=lambda k: k.name)), n=st.integers(0, 6))
def test_make_op_accepts_iff_arity_rule_holds(kind, n):
    children = [make_constant(float(i)) for i in range(n)]
    fn_name = "sin" if kind is OpKind.UNARY_FN else None
    lo, hi = _RULES[kind]
    ok = n >= lo and (hi is None or n <= hi)
    if ok:
        node = make_op(kind, children, fn_name=fn_name)
        assert node.kind is kind and len(node.children) == n
    else:
        with pytest.raises(ArityMismatchError):
            make_op(kind, children, fn_name=fn_name)


def test_bindings_lookup_and_validation():
    b = Bindings((0.5, 0.25))
    assert len(b) == 2
    assert b[0] == 0.5 and b[1] == 0.25
    assert list(b) == [0.5, 0.25]
    assert b == Bindings([0.5, 0.25])
    assert isinstance(b, tuple) and b == (0.5, 0.25) and hash(b) == hash((0.5, 0.25))
    assert repr(b) == "(0.5, 0.25)"
    assert Bindings((1, "2")) == (1.0, 2.0)
    with pytest.raises(IndexError):
        b[2]
    with pytest.raises(NonFiniteValueError):
        Bindings((1.0, math.nan))
    with pytest.raises(NonFiniteValueError):
        Bindings((math.inf,))


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, math.nan, math.inf), "binding 1 must be finite, got nan"),
        ([math.inf], "binding 0 must be finite, got inf"),
        ((0, 1, "-inf"), "binding 2 must be finite, got -inf"),
        ((10**400, 0.5), "binding 0 must be finite, got inf"),
        ([0.5, -10**400], "binding 1 must be finite, got -inf"),
        ((0.5, math.inf, math.nan), "binding 1 must be finite, got inf"),
        ((0.5, 0.25, math.nan), "binding 2 must be finite, got nan"),
    ],
)
def test_bindings_names_first_non_finite_index(values, message):
    with pytest.raises(NonFiniteValueError) as exc:
        Bindings(values)
    assert str(exc.value) == message


def test_bindings_empty():
    b = Bindings()
    assert len(b) == 0 and b == () and repr(b) == "()"
    with pytest.raises(IndexError):
        b[0]


class _Float(float):
    pass


@pytest.mark.parametrize(
    "values",
    [(0.5, 0.25), [0.5, 0.25], (1, 0.25), (True, 0.25), ("0.5", "0.25"), (_Float(0.5), 0.25),
     iter((0.5, 0.25)), (), []],
    ids=["float-tuple", "list", "int", "bool", "str", "float-subclass", "iterator", "empty-tuple", "empty-list"],
)
def test_bindings_is_an_exact_tuple_of_exact_floats(values):
    b = Bindings(values)
    assert type(b) is tuple
    assert all(type(v) is float for v in b)


def test_bindings_returns_an_exact_float_tuple_as_it_is():
    t = (0.5, -0.0, 1e300)
    assert Bindings(t) is t
    b = Bindings([True, _Float(0.5), 2])
    assert b == (1.0, 0.5, 2.0) and [type(v) for v in b] == [float, float, float]
    assert math.copysign(1.0, Bindings([-0.0])[0]) == -1.0
    assert math.copysign(1.0, Bindings((-0.0,))[0]) == -1.0


def test_evaluate_hands_the_walker_an_exact_tuple(monkeypatch):
    seen = []
    walker = evaluators.binary_value

    def spy(tree, bindings):
        seen.append(bindings)
        return walker(tree, bindings)

    monkeypatch.setattr(evaluators, "binary_value", spy)
    tree = parse_to_tree("x*y")
    assert evaluators.evaluate(evaluators.EvalMethod.BINARY_TREE, tree, [0.5, 2]).value == 1.0
    assert [type(b) for b in seen] == [tuple] and seen[0] == (0.5, 2.0)
    assert type(seen[0][1]) is float
