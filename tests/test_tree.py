import dataclasses
import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from evalbench import (
    ArityMismatchError,
    Bindings,
    ExprNode,
    LeafKindError,
    NonFiniteValueError,
    OpKind,
    UnknownFunctionError,
    count_nodes,
    is_binary_form,
    make_constant,
    make_op,
    make_variable,
    parse_to_tree,
)
from strategies import handbuilt_binary_tree, handbuilt_nary_tree


def test_make_constant():
    node = make_constant(1.0)
    assert node.kind is OpKind.CONSTANT
    assert node.value == 1.0
    assert node.children == ()
    assert make_constant(0.0).value == 0.0


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
    assert repr(b) == "Bindings([0.5, 0.25])"
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
    ],
)
def test_bindings_names_first_non_finite_index(values, message):
    with pytest.raises(NonFiniteValueError) as exc:
        Bindings(values)
    assert str(exc.value) == message


def test_bindings_empty():
    b = Bindings()
    assert len(b) == 0 and b == () and repr(b) == "Bindings([])"
    with pytest.raises(IndexError):
        b[0]
