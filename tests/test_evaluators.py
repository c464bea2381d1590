import inspect
import math
import pickle
import struct
import sys

import pytest
from hypothesis import assume, example, given

from evalbench import (
    ArityMismatchError,
    Bindings,
    DomainFaultError,
    EvalMethod,
    EvalOutcome,
    ExprNode,
    MethodSourceMismatchError,
    OpKind,
    SymbolTable,
    UnboundVariableError,
    UnknownFunctionIdError,
    blackbox_lookup,
    count_nodes,
    eval_binary,
    eval_nary,
    eval_string,
    evaluate,
    flatten,
    generate_inputs,
    make_constant,
    make_op,
    make_variable,
    parse_to_tree,
)
from evalbench.benchmark import EXPRESSIONS
import evalbench.evaluators as evaluators_module
import evalbench.parser as parser_module
import evalbench.tree as tree_module
from evalbench.evaluators import _walk_counts, binary_value, nary_value
from strategies import bindings, handbuilt_binary_tree, handbuilt_nary_tree, has_like_chain, trees


def test_blackbox_lookup_values():
    assert blackbox_lookup(4)(1.0, 1.0) == 2.0
    assert blackbox_lookup(1)(0.3, 0.9) == 0.3
    assert blackbox_lookup(2)(0.2, 0.3) == 0.5


@pytest.mark.parametrize("bad", [0, 9, -1, "1", None])
def test_blackbox_lookup_unknown_id(bad):
    with pytest.raises(UnknownFunctionIdError):
        blackbox_lookup(bad)


def test_eval_binary_handbuilt_tree():
    outcome = eval_binary(handbuilt_binary_tree(), Bindings((0.5, 0.25)))
    assert outcome.value == 1.75
    assert outcome.visits == 5
    assert isinstance(outcome, tuple) and outcome == (1.75, 5)
    assert repr(outcome) == "EvalOutcome(value=1.75, visits=5)"


def test_eval_binary_sin_at_zero():
    tree = make_op(OpKind.UNARY_FN, (make_variable(0),), fn_name="sin")
    assert eval_binary(tree, Bindings((0.0,))).value == 0.0


def test_eval_binary_pow_zero_zero():
    tree = make_op(OpKind.POWER, (make_variable(0), make_variable(1)))
    assert eval_binary(tree, Bindings((0.0, 0.0))).value == 1.0


def test_eval_binary_rejects_nary_node():
    with pytest.raises(ArityMismatchError):
        eval_binary(handbuilt_nary_tree(), Bindings((0.5, 0.25)))


def test_eval_nary_handbuilt_tree():
    outcome = eval_nary(handbuilt_nary_tree(), Bindings((0.5, 0.25)))
    assert outcome.value == 1.75
    assert outcome.visits == 4


def test_eval_nary_accepts_binary_form_too():
    outcome = eval_nary(handbuilt_binary_tree(), Bindings((0.5, 0.25)))
    assert outcome.value == 1.75
    assert outcome.visits == 5


def test_eval_nary_product_chain():
    x, y = make_variable(0), make_variable(1)
    inner = make_op(OpKind.SUM, (make_variable(0), make_variable(1), make_constant(1.0)))
    tree = make_op(OpKind.PRODUCT, (make_constant(2.0), x, y, inner))
    assert eval_nary(tree, Bindings((1.0, 1.0))).value == 6.0


def test_eval_nary_matches_blackbox_oracle():
    tree = flatten(parse_to_tree("sin((x+y)*x^y)"))
    got = eval_nary(tree, Bindings((0.5, 0.5))).value
    want = blackbox_lookup(6)(0.5, 0.5)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_unbound_variable():
    tree = make_op(OpKind.SUM, (make_variable(0), make_variable(2)))
    with pytest.raises(UnboundVariableError) as exc:
        eval_binary(tree, Bindings((1.0, 2.0)))
    assert exc.value.index == 2


_XYZ = SymbolTable(("x", "y", "z"))
_XZY_BINARY = parse_to_tree("x+z+y", _XYZ)  # sum(sum(var0, var2), var1)
_XZY_NARY = make_op(OpKind.SUM, (make_variable(0), make_variable(2), make_variable(1)))
# Entry point -> (call on bindings, index reported with one bound value).
_ENTRY_POINTS = {
    "eval_binary": (lambda b: eval_binary(_XZY_BINARY, b), 2),
    "eval_nary": (lambda b: eval_nary(_XZY_NARY, b), 2),
    "evaluate-blackbox": (lambda b: evaluate(EvalMethod.BLACKBOX, 2, b), 1),
    "evaluate-binary": (lambda b: evaluate(EvalMethod.BINARY_TREE, _XZY_BINARY, b), 2),
    "evaluate-nary": (lambda b: evaluate(EvalMethod.NARY_TREE, _XZY_NARY, b), 2),
    "evaluate-string": (lambda b: evaluate(EvalMethod.STRING_PARSE, "x+z+y", b, symbols=_XYZ), 2),
    "eval_string": (lambda b: eval_string("x+z+y", _XYZ, b), 2),
}


@pytest.mark.parametrize("values", [Bindings(), Bindings((1.0,)), (1.0,)], ids=["empty", "one", "tuple"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_unbound_variable_index_at_every_entry_point(entry, values):
    call, index = _ENTRY_POINTS[entry]
    with pytest.raises(UnboundVariableError) as exc:
        call(values)
    # the first variable read with no value: x when nothing is bound, else z
    assert exc.value.index == (index if values else 0)


def test_malformed_tree_index_error_is_not_relabelled():
    # fixed-arity operands are indexed, not unpacked: too few children is an
    # IndexError, never a ValueError or an unbound variable
    x = make_variable(0)
    malformed = [ExprNode(OpKind.NEGATE), ExprNode(OpKind.UNARY_FN, fn_name="sin"), ExprNode(OpKind.POWER)]
    malformed += [ExprNode(kind, children=(x,)) for kind in (OpKind.DIFFERENCE, OpKind.QUOTIENT, OpKind.POWER)]
    for ev in (eval_binary, eval_nary):
        with pytest.raises(IndexError):
            ev(ExprNode(OpKind.NEGATE), Bindings())
        for node in malformed:
            with pytest.raises(IndexError):
                ev(node, Bindings((0.5,)))
        with pytest.raises(TypeError):  # not a RecursionError
            ev(ExprNode("bogus"), Bindings())


@pytest.mark.parametrize("kind, identity", [(OpKind.SUM, -0.0), (OpKind.PRODUCT, 1.0)])
def test_short_sums_and_products_fold_under_nary_only(kind, identity):
    b = Bindings((0.5,))
    for children in ((), (make_variable(0),)):
        node = ExprNode(kind, children=children)
        assert float.hex(nary_value(node, b)) == float.hex(0.5 if children else identity)
        with pytest.raises(ArityMismatchError) as info:
            binary_value(node, b)
        assert info.value.kind is kind and info.value.got == len(children)


def test_binary_walk_rejects_a_three_child_sum_at_any_size():
    x, y = make_variable(0), make_variable(1)
    b = Bindings((0.5, 0.25))
    deep = parse_to_tree("-".join(["x"] * 200))  # 399 nodes: walked by the explicit-stack loop
    for first, op in ((x, tree_module._SUM_FOLD), (deep, tree_module._DEEP_OP)):
        tree = make_op(OpKind.SUM, (first, y, x))
        assert tree._op is op
        with pytest.raises(ArityMismatchError) as info:
            binary_value(tree, b)
        assert info.value.kind is OpKind.SUM and info.value.got == 3
        assert nary_value(tree, b) == nary_value(first, b) + 0.25 + 0.5


@pytest.mark.parametrize(
    "tree, op",
    [
        (make_op(OpKind.QUOTIENT, (make_constant(1.0), make_constant(0.0))), "quotient"),
        (make_op(OpKind.POWER, (make_constant(-1.0), make_constant(0.5))), "power"),
        (make_op(OpKind.UNARY_FN, (make_constant(-1.0),), fn_name="sqrt"), "sqrt"),
        (make_op(OpKind.UNARY_FN, (make_constant(0.0),), fn_name="log"), "log"),
        (make_op(OpKind.UNARY_FN, (make_constant(-3.0),), fn_name="log"), "log"),
    ],
)
def test_domain_faults(tree, op):
    for ev in (eval_binary, eval_nary):
        with pytest.raises(DomainFaultError) as exc:
            ev(tree, Bindings())
        assert exc.value.op == op


def test_nan_on_fault_mode():
    tree = make_op(OpKind.UNARY_FN, (make_constant(-1.0),), fn_name="log")
    assert math.isnan(eval_binary(tree, Bindings(), nan_on_fault=True).value)
    assert math.isnan(eval_nary(tree, Bindings(), nan_on_fault=True).value)
    out = evaluate(EvalMethod.STRING_PARSE, "log(0-1)", Bindings(), nan_on_fault=True)
    assert math.isnan(out.value)
    # visits is the whole tree's node count, though the walk stops at the
    # fault after 3 of the 4 nodes
    tree = make_op(OpKind.SUM, (tree, make_variable(0)))
    for ev in (eval_binary, eval_nary):
        outcome = ev(tree, Bindings((0.5,)), nan_on_fault=True)
        assert math.isnan(outcome.value)
        assert outcome.visits == count_nodes(tree) == 4


def _outcome_or_fault(method, source, point, nan_on_fault):
    try:
        return evaluate(method, source, Bindings(point), nan_on_fault=nan_on_fault).value
    except DomainFaultError as fault:
        return fault.op, fault.operands


@pytest.mark.parametrize("fid", [3, 4, 6])
@pytest.mark.parametrize("point", [(-1.0, 0.5), (-2.0, 0.5), (10.0, 400.0), (0.0, -1.0), (1e200, 1.0)])
def test_every_method_meets_the_same_fault_outside_the_unit_square(fid, point):
    text = EXPRESSIONS[fid]
    tree = parse_to_tree(text)
    sources = {EvalMethod.BLACKBOX: fid, EvalMethod.BINARY_TREE: tree,
               EvalMethod.NARY_TREE: flatten(tree), EvalMethod.STRING_PARSE: text}
    raised = {method: _outcome_or_fault(method, source, point, False) for method, source in sources.items()}
    assert len(set(map(repr, raised.values()))) == 1, raised
    quiet = [_outcome_or_fault(method, source, point, True) for method, source in sources.items()]
    first = raised[EvalMethod.BLACKBOX]
    if isinstance(first, tuple):  # a typed fault: NaN under nan_on_fault, whatever the method
        assert all(math.isnan(value) for value in quiet)
    else:
        assert quiet == [first] * 4
    if fid == 6 and point[0] == 1e200:  # (x+y)*x^y overflows to inf, and sin(inf) faults
        assert first == ("sin", (math.inf,))
    elif point[0] != 1e200:
        assert first[0] == "power" and first[1] == point


def test_oracle_equivalence_all_functions():
    # Both tree encodings of every suite function must match its black-box
    # routine at 1000 shared points.
    points = generate_inputs(1000, seed=42)
    for fid, text in EXPRESSIONS.items():
        fn = blackbox_lookup(fid)
        binary_tree = parse_to_tree(text)
        nary_tree = flatten(binary_tree)
        for x, y in points:
            want = fn(x, y)
            b = Bindings((x, y))
            for got in (eval_binary(binary_tree, b).value, eval_nary(nary_tree, b).value):
                assert abs(got - want) / max(1.0, abs(want)) <= 1e-12


@given(tree=trees(binary_only=True), b=bindings)
def test_flatten_consistency(tree, b):
    try:
        want = eval_binary(tree, b).value
    except DomainFaultError:
        assume(False)
    assume(math.isfinite(want))
    got = eval_nary(flatten(tree), b).value
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want), abs(got))


@given(tree=trees(binary_only=True), b=bindings)
def test_visit_count_dominance(tree, b):
    try:
        binary_visits = eval_binary(tree, b).visits
        nary_visits = eval_nary(flatten(tree), b).visits
    except DomainFaultError:
        assume(False)
    assert nary_visits <= binary_visits
    if has_like_chain(tree):
        assert nary_visits < binary_visits


@given(tree=trees(), b=bindings)
def test_purity_bit_identical(tree, b):
    try:
        first = eval_nary(tree, b).value
    except DomainFaultError:
        assume(False)
    second = eval_nary(tree, b).value
    assert struct.pack("<d", first) == struct.pack("<d", second)


def _walk_result(walker, tree, b):
    """The walk's value, or its first fault, in a form compared bit for bit."""
    try:
        return float.hex(walker(tree, b))
    except DomainFaultError as err:
        return err.op, tuple(map(float.hex, err.operands))
    except ArityMismatchError as err:
        return err.kind, err.got


_X, _Y, _Z = make_variable(0), make_variable(1), make_variable(2)
_DIFFERENCES = make_op(OpKind.DIFFERENCE, (make_op(OpKind.DIFFERENCE, (_X, _Y)), _Z))
_LOG_OF_ZERO = make_op(OpKind.UNARY_FN, (make_op(OpKind.DIFFERENCE, (_X, _X)),), fn_name="log")
_THREE_SUM = make_op(OpKind.SUM, (_X, _Y, _Z))


def _sum(*children):
    return make_op(OpKind.SUM, children)


# Shapes the strategy does not find: a same-kind spine over a deep operand
# of another kind, at the spine's bottom and in its middle; a three-child
# sum met after a domain fault, as a spine's operand and as a spine link;
# and, at the bound of three, a five-node sum whose children are all smaller
# (not marked) and a sum with a three-node child (marked).
@example(tree=_sum(_sum(_sum(_DIFFERENCES, _Y), _X), _Z), b=Bindings((0.5, 0.25, 1.5)))
@example(tree=_sum(_sum(_sum(_X, _DIFFERENCES), _Y), _Z), b=Bindings((0.5, 0.25, 1.5)))
@example(tree=_sum(_sum(_LOG_OF_ZERO, _THREE_SUM), _Y), b=Bindings((0.5, 0.25, 1.5)))
@example(tree=_sum(make_op(OpKind.SUM, (_sum(_LOG_OF_ZERO, _X), _Y, _Z)), _X), b=Bindings((0.5, 0.25, 1.5)))
@example(tree=_sum(_X, _Y, make_op(OpKind.NEGATE, (_X,))), b=Bindings((0.5, 0.25, 1.5)))
@example(tree=_sum(make_op(OpKind.DIFFERENCE, (_X, _Y)), _Z), b=Bindings((0.5, 0.25, 1.5)))
@given(tree=trees(), b=bindings)
def test_explicit_stack_walk_matches_recursion(tree, b):
    walks = ((binary_value, tree), (nary_value, tree), (nary_value, flatten(tree)))
    want = [_walk_result(walker, t, b) for walker, t in walks]
    driven = []
    deep_value = evaluators_module._deep_value
    with pytest.MonkeyPatch.context() as patch:
        # Construction marks a node deep, so the trees are rebuilt under a
        # bound of three: every node with a child of at least three nodes is
        # then walked by the explicit-stack loop.
        patch.setattr(tree_module, "_DEEP", 3)
        rebuilt = pickle.loads(pickle.dumps(tree))
        walks = ((binary_value, rebuilt), (nary_value, rebuilt), (nary_value, flatten(rebuilt)))
        patch.setattr(evaluators_module, "_deep_value", lambda *args: driven.append(1) or deep_value(*args))
        assert [_walk_result(walker, t, b) for walker, t in walks] == want
    assert bool(driven) == any(count_nodes(child) >= 3 for child in tree.children)


def test_walks_build_no_nodes(monkeypatch):
    texts = ["-".join(["x"] * 1000), "/".join(["x"] * 1000), "^".join(["x"] * 1000),
             "-" * 1000 + "x", "sin(" * 1000 + "x" + ")" * 1000]
    parsed = [parse_to_tree(text) for text in texts]
    flat = [flatten(tree) for tree in parsed]
    assert all(tree._op is tree_module._DEEP_OP for tree in parsed)
    b = Bindings((0.5,))
    built = []
    init = tree_module._Node.__init__
    monkeypatch.setattr(tree_module._Node, "__init__", lambda node, *args: built.append(1) or init(node, *args))
    for tree in parsed + flat:
        binary_value(tree, b)
        nary_value(tree, b)
    assert built == []
    make_constant(1.0)  # the counter sees every node built
    assert built == [1]


def test_deep_function_nodes_build_no_checked_calls(monkeypatch):
    tree = parse_to_tree("sin(" * 10_000 + "x" + ")" * 10_000)
    assert tree._op is tree_module._DEEP_OP
    built = []

    def counted(name):
        built.append(name)
        return parser_module._value_call(name)

    monkeypatch.setattr(evaluators_module, "_value_call", counted, raising=False)
    b = Bindings((0.5,))
    assert float.hex(binary_value(tree, b)) == float.hex(nary_value(tree, b))
    assert built == []


def _sum_of_nested_sin(depths):
    return "+".join("sin(" * depth + "x" + ")" * depth for depth in depths)


_DEEP_LINES, _DEEP_START = inspect.getsourcelines(evaluators_module._deep_value)
# The line of ``_deep_value`` that takes each gathered operand: one step.
_STEP_LINE = _DEEP_START + next(i for i, line in enumerate(_DEEP_LINES) if line.strip() == "child = operands[i]")


def _traced_walk(walker, tree, b):
    """(entries into the code object both walkers share, runs of
    ``_deep_value``'s step line) in ``walker(tree, b)``."""
    walk_code, deep_code = binary_value.__code__, evaluators_module._deep_value.__code__
    counts = [0, 0]

    def step(frame, event, arg):
        if event == "line" and frame.f_lineno == _STEP_LINE:
            counts[1] += 1
        return step

    def call(frame, event, arg):
        if frame.f_code is walk_code:
            counts[0] += 1
        return step if frame.f_code is deep_code else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        walker(tree, b)
    finally:
        sys.settrace(previous)
    return tuple(counts)


@pytest.mark.parametrize("deep", [3, 300])
@example(tree=parse_to_tree("+".join(["x*y"] * 400)), b=Bindings((0.5, 0.25, 1.5)))
@given(tree=trees(binary_only=True), b=bindings)
def test_walk_counts_match_the_walkers(deep, tree, b):
    with pytest.MonkeyPatch.context() as patch:
        # Construction marks a node deep, so the tree is rebuilt, and flattened, under ``deep``.
        patch.setattr(tree_module, "_DEEP", deep)
        tree = pickle.loads(pickle.dumps(tree))
        flat = flatten(tree)
    walks = ((binary_value, tree), (nary_value, tree), (nary_value, flat))
    try:
        traced = [_traced_walk(walker, t, b) for walker, t in walks]
    except DomainFaultError:
        assume(False)
    assert traced == [_walk_counts(t) for _, t in walks]
    if tree._op is not tree_module._DEEP_OP:
        # Below ``_DEEP`` the n-ary form saves one call per node that ``flatten`` removed.
        (binary, _), _, (nary, _) = traced
        assert binary - nary == count_nodes(tree) - count_nodes(flat)
        assert [steps for _, steps in traced] == [0, 0, 0]


@pytest.mark.parametrize(
    "text, op",
    [
        pytest.param("+".join(["1.5*x^2*y^3"] * 4000), tree_module._SUM_FOLD, id="sum-of-terms"),
        pytest.param("*".join(["x^0.0003"] * 4000), tree_module._PRODUCT_FOLD, id="product-of-powers"),
        # Operands of 299 nodes, one short of the bound; then one of 300.
        pytest.param(_sum_of_nested_sin([298] * 40), tree_module._SUM_FOLD, id="sum-of-299-node-operands"),
        pytest.param(_sum_of_nested_sin([298] * 39 + [299]), tree_module._DEEP_OP, id="one-300-node-operand"),
    ],
)
def test_flat_trees_fold_in_the_walker(text, op):
    limit = sys.getrecursionlimit()
    tree = parse_to_tree(text)
    flat = flatten(tree)
    assert flat._op is op
    driven = []
    deep_value = evaluators_module._deep_value
    for b in (Bindings((0.5, 0.25)), Bindings((1.5, -0.75)), Bindings((-0.0, 0.0)), Bindings((-0.5, 2.0))):
        want = _walk_result(binary_value, tree, b)
        assert _walk_result(lambda text, b: eval_string(text, bindings=b), text, b) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evaluators_module, "_deep_value", lambda *args: driven.append(1) or deep_value(*args))
            assert _walk_result(nary_value, flat, b) == want
    assert bool(driven) == (op is tree_module._DEEP_OP)
    assert sys.getrecursionlimit() == limit


@given(tree=trees(), binary_tree=trees(binary_only=True), b=bindings)
def test_visits_equal_node_count(tree, binary_tree, b):
    try:
        nary_outcome = eval_nary(tree, b)
        binary_outcome = eval_binary(binary_tree, b)
    except DomainFaultError:
        assume(False)
    assert nary_outcome.visits == count_nodes(tree)
    assert binary_outcome.visits == count_nodes(binary_tree)


@pytest.mark.parametrize("text", ["-x+-y", "-x+-y+-x", pytest.param("+".join(["-x"] * 1000), id="deep-sum")])
def test_sign_of_zero_agrees_across_methods(text):
    b = Bindings((0.0, 0.0))
    tree = parse_to_tree(text)
    values = (
        eval_binary(tree, b).value,
        eval_nary(flatten(tree), b).value,
        eval_string(text, bindings=b),
    )
    assert {struct.pack("<d", v) for v in values} == {struct.pack("<d", -0.0)}


def test_evaluate_dispatch():
    b = Bindings((0.5, 0.25))
    assert evaluate(EvalMethod.NARY_TREE, handbuilt_nary_tree(), b).value == 1.75
    assert evaluate(EvalMethod.BLACKBOX, 2, Bindings((0.2, 0.3))).value == 0.5
    assert evaluate(EvalMethod.BINARY_TREE, handbuilt_binary_tree(), b).value == 1.75
    assert evaluate(EvalMethod.STRING_PARSE, "x+y+1", b).value == 1.75
    outcomes = [evaluate(EvalMethod.BLACKBOX, 7, b), evaluate(EvalMethod.NARY_TREE, handbuilt_nary_tree(), b),
                evaluate(EvalMethod.STRING_PARSE, "log(0-1)", b, nan_on_fault=True)]
    assert all(type(o) is EvalOutcome for o in outcomes)


def test_evaluate_visit_conventions():
    b = Bindings((0.5, 0.25))
    assert evaluate(EvalMethod.BLACKBOX, 7, b).visits == 0
    assert evaluate(EvalMethod.BINARY_TREE, handbuilt_binary_tree(), b).visits == 5
    assert evaluate(EvalMethod.NARY_TREE, handbuilt_nary_tree(), b).visits == 4
    # string parsing reports tokens consumed; always nonzero
    assert evaluate(EvalMethod.STRING_PARSE, "x+y+1", b).visits == 6


@pytest.mark.parametrize(
    "method, source",
    [
        (EvalMethod.BINARY_TREE, "x+y"),
        (EvalMethod.NARY_TREE, 3),
        (EvalMethod.BLACKBOX, "1"),
        (EvalMethod.BLACKBOX, True),
        (EvalMethod.STRING_PARSE, 1),
    ],
)
def test_evaluate_source_mismatch(method, source):
    with pytest.raises(MethodSourceMismatchError):
        evaluate(method, source, Bindings((1.0, 1.0)))
