import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from evalbench import (
    ArityMismatchError,
    Bindings,
    DomainFaultError,
    EvalMethod,
    OpKind,
    ParseError,
    ParseErrorKind,
    SymbolTable,
    blackbox_lookup,
    count_nodes,
    eval_binary,
    eval_string,
    flatten,
    is_binary_form,
    make_constant,
    make_op,
    make_variable,
    parse_to_tree,
    UnboundVariableError,
    evaluate,
    tokenize,
)
import evalbench.evaluators as evaluators_module
import evalbench.parser as parser_module
from evalbench.evaluators import binary_value, nary_value
from evalbench.parser import TokenTag, interpret_string
import reference_grammar
import reference_lexer
from strategies import bindings, handbuilt_binary_tree, has_like_chain, to_source, trees


def tags(text):
    return [t.tag for t in tokenize(text)]


def test_tokenize_function_call():
    assert tags("sin(x)") == [
        TokenTag.IDENT,
        TokenTag.LPAREN,
        TokenTag.IDENT,
        TokenTag.RPAREN,
        TokenTag.END,
    ]
    toks = tokenize("sin(x)")
    assert toks[0].text == "sin" and toks[2].text == "x"
    assert [t.position for t in toks] == [0, 3, 4, 5, 6]


def test_tokenize_exponent_literal():
    toks = tokenize("2.5e-1")
    assert [t.tag for t in toks] == [TokenTag.NUMBER, TokenTag.END]
    assert toks[0].value == 0.25


@pytest.mark.parametrize(
    "text, value",
    [("2", 2.0), ("2.5", 2.5), ("10e2", 1000.0), ("3E+2", 300.0), ("0.125", 0.125)],
)
def test_tokenize_number_forms(text, value):
    toks = tokenize(text)
    assert toks[0].value == value


def test_tokenize_illegal_character():
    with pytest.raises(ParseError) as exc:
        tokenize("x @ y")
    assert exc.value.kind is ParseErrorKind.UNEXPECTED_TOKEN
    assert exc.value.position == 2


@pytest.mark.parametrize(
    "text, pos",
    [("2.", 1), ("2..5", 1), ("1e", 1), ("1e+", 1), ("2.5e-", 3), ("1e999", 0)],
)
def test_tokenize_bad_numbers(text, pos):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert exc.value.kind is ParseErrorKind.BAD_NUMBER
    assert exc.value.position == pos


def test_tokenize_empty_input():
    toks = tokenize("")
    assert [t.tag for t in toks] == [TokenTag.END]
    assert toks[0].position == 0


def test_parse_left_associative_sum():
    got = parse_to_tree("x+y+1")
    want = make_op(
        OpKind.SUM,
        (make_op(OpKind.SUM, (make_variable(0), make_variable(1))), make_constant(1.0)),
    )
    assert got == want
    assert is_binary_form(got)


def test_parse_matches_handbuilt_tree_by_value():
    # grammar nests left, the hand-built tree nests right; same values
    parsed = parse_to_tree("x+y+1")
    built = handbuilt_binary_tree()
    rng = random.Random(7)
    for _ in range(10):
        b = Bindings((rng.random(), rng.random()))
        assert eval_binary(parsed, b).value == pytest.approx(
            eval_binary(built, b).value, rel=1e-15
        )


def test_power_right_associative():
    assert eval_string("2^3^2") == 512.0


def test_power_binds_tighter_than_unary_minus():
    tree = parse_to_tree("-x^2")
    assert tree.kind is OpKind.NEGATE
    assert tree.children[0].kind is OpKind.POWER
    assert eval_string("-x^2", bindings=(3.0,)) == -9.0


def test_negative_exponent_parses():
    assert eval_string("2^-2") == 0.25


def test_precedence_and_parens():
    assert eval_string("1+2*3") == 7.0
    assert eval_string("(1+2)*3") == 9.0
    assert eval_string("4/2/2") == 1.0
    assert eval_string("8-2-1") == 5.0


@pytest.mark.parametrize(
    "text, kind, pos",
    [
        ("x+*y", ParseErrorKind.UNEXPECTED_TOKEN, 2),
        ("x+", ParseErrorKind.UNEXPECTED_TOKEN, 2),
        ("", ParseErrorKind.UNEXPECTED_TOKEN, 0),
        ("(", ParseErrorKind.UNBALANCED_PAREN, 1),
        ("(x+y", ParseErrorKind.UNBALANCED_PAREN, 4),
        ("sin(x", ParseErrorKind.UNBALANCED_PAREN, 5),
        ("x)", ParseErrorKind.TRAILING_INPUT, 1),
        ("1 2", ParseErrorKind.TRAILING_INPUT, 2),
        ("foo(x)", ParseErrorKind.UNKNOWN_IDENTIFIER, 0),
        ("sin + 1", ParseErrorKind.UNKNOWN_IDENTIFIER, 0),
        ("x+q", ParseErrorKind.UNKNOWN_IDENTIFIER, 2),
        ("x + 1e999", ParseErrorKind.BAD_NUMBER, 4),
        ("q+2.", ParseErrorKind.BAD_NUMBER, 3),  # a lexical error anywhere comes first
    ],
)
def test_parse_errors(text, kind, pos):
    with pytest.raises(ParseError) as exc:
        parse_to_tree(text)
    assert exc.value.kind is kind
    assert exc.value.position == pos
    # the reported offset is the first offending character: the prefix lexes
    tokenize(text[: exc.value.position])


def test_function_call_parses():
    tree = parse_to_tree("sin(x)")
    assert tree.kind is OpKind.UNARY_FN
    assert tree.fn_name == "sin"
    assert len(tree.children) == 1


def test_eval_string_function_list_item_4():
    assert eval_string("(x+y)*x^y", bindings=(1.0, 1.0)) == 2.0


def test_eval_string_matches_blackbox_oracle():
    got = eval_string("sin((x+y)*x^y)", bindings=(0.5, 0.5))
    want = blackbox_lookup(6)(0.5, 0.5)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_eval_string_unbound_variable():
    from evalbench import UnboundVariableError

    with pytest.raises(UnboundVariableError):
        eval_string("x+y", bindings=(1.0,))


def test_eval_string_domain_fault():
    with pytest.raises(DomainFaultError):
        eval_string("1/(x-x)", bindings=(1.0,))


def test_eval_string_power_fault_names_its_operands():
    with pytest.raises(DomainFaultError) as info:
        eval_string("(0-1)^0.5")
    assert info.value.op == "power" and info.value.operands == (-1.0, 0.5)


def test_symbol_table_validation():
    with pytest.raises(ValueError):
        SymbolTable(("x", "x"))
    with pytest.raises(ValueError):
        SymbolTable(("sin",))
    with pytest.raises(ValueError):
        SymbolTable(("2bad",))
    table = SymbolTable(("a", "b", "c"))
    assert [table.variable_index(n) for n in ("a", "b", "c")] == [0, 1, 2]
    assert table.variable_index("x") is None


def test_custom_symbol_table_round_trip():
    table = SymbolTable(("u", "v"))
    assert eval_string("u*v", table, (3.0, 4.0)) == 12.0
    tree = parse_to_tree("u*v", table)
    assert eval_binary(tree, Bindings((3.0, 4.0))).value == 12.0


def _rebuild(node):
    """Copy of ``node`` built bottom-up through the checked constructors."""
    if node.kind is OpKind.CONSTANT:
        return make_constant(node.value)
    if node.kind is OpKind.VARIABLE:
        return make_variable(node.var_index)
    return make_op(node.kind, [_rebuild(c) for c in node.children], fn_name=node.fn_name)


@given(tree=trees())
def test_unchecked_construction_builds_only_valid_trees(tree):
    # parse_to_tree and flatten build nodes without make_*'s checks; every
    # tree they return must be one make_* accepts and rebuilds equal
    parsed = parse_to_tree(to_source(tree), SymbolTable(("x", "y", "z")))
    assert is_binary_form(parsed)
    for flat in (flatten(parsed), flatten(tree)):
        assert not has_like_chain(flat)
    for built in (parsed, flatten(parsed), flatten(tree)):
        rebuilt = _rebuild(built)
        assert rebuilt == built
        assert count_nodes(rebuilt) == count_nodes(built)


@given(tree=trees(binary_only=True), b=bindings)
def test_round_trip_tree_source_tree(tree, b):
    source = to_source(tree)
    table = SymbolTable(("x", "y", "z"))
    try:
        want = eval_binary(tree, b).value
    except DomainFaultError:
        assume(False)
    assume(math.isfinite(want))
    reparsed = eval_binary(parse_to_tree(source, table), b).value
    direct = eval_string(source, table, b)
    scale = max(1.0, abs(want))
    assert abs(reparsed - want) <= 1e-12 * scale
    assert abs(direct - want) <= 1e-12 * scale


@given(text=st.text(alphabet="xy sincostan+-*/^(). 0123456789e_", max_size=40))
def test_grammar_totality(text):
    # every string either parses or yields exactly one ParseError
    try:
        node = parse_to_tree(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        tokenize(text[: err.position])
    else:
        assert is_binary_form(node)


@given(text=st.text(max_size=30))
def test_grammar_totality_arbitrary_text(text):
    try:
        parse_to_tree(text)
    except ParseError:
        pass
    # anything else escaping would be a bug; pytest reports it as an error


@given(text=st.text(alphabet="xy+-*/^() 0123456789.", max_size=30))
def test_tokenize_deterministic(text):
    try:
        first = tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as second:
            tokenize(text)
        assert second.value.position == err.position
        assert second.value.kind is err.kind
        return
    assert tokenize(text) == first


# Characters the old per-character scanner and a regex could disagree on:
# the token alphabet, plus non-ASCII digits, letters and whitespace.
_LEXER_EDGE_CHARACTERS = list("0123456789.eE+-*/^()xy_ \t\n") + [
    "\u0663", "\uff11", "\u00b2", "\u00e9", "\u017f", "\u212a", "\u00a0", "\u2003", "\x1c", "\u3000",
]


def _scan_outcome(scan, text):
    try:
        return [tuple(tok) for tok in scan(text)]
    except ParseError as err:
        return err.kind, err.position, err.message


# An all-digit lexeme is either a complete number or the digit run of a
# bad one: one-digit numbers at the end and before an operator, ")" or a
# letter; bad numbers after and inside valid ones, of one digit and of
# several; Unicode whitespace.
@example(text="x+2")
@example(text="2+x")
@example(text="(2)")
@example(text="2x")
@example(text="7e1e")
@example(text="2.5.")
@example(text="1.5e3.")
@example(text="25.")
@example(text="3..4")
@example(text="2.e5")
@example(text="2e+")
@example(text="\xa02.\u2003")
@example(text="123e")
@example(text="12.5e+")
@example(text="99..1")
@example(text="10e5e")
@given(
    text=st.text(max_size=40)
    | st.text(alphabet=st.sampled_from(_LEXER_EDGE_CHARACTERS) | st.characters(), max_size=40)
    | st.text(alphabet="0123456789.eE+-x ", max_size=20)
)
def test_tokenize_matches_reference_lexer(text):
    assert _scan_outcome(tokenize, text) == _scan_outcome(reference_lexer.tokenize, text)


@pytest.mark.parametrize(
    "text", ["9" * 400 + ".", "9" * 400 + ".55e", "1." + "5" * 400 + "e+", "9" * 400 + ".5.5", "1e" + "9" * 400]
)
def test_tokenize_overlong_literals_match_reference_lexer(text):
    # a number that cannot be completed is an error at its "." or "e", even
    # when a prefix of its digits alone would already overflow a float
    assert _scan_outcome(tokenize, text) == _scan_outcome(reference_lexer.tokenize, text)


def test_incomplete_number_is_one_lexeme():
    # the scanner takes a digit run it cannot complete as one lexeme, so it
    # never retries the number branch from each of its digits
    assert len(parser_module._LEXEMES("1" * 5000 + ".")) == 3


@pytest.mark.parametrize("parse", [eval_string, parse_to_tree])
def test_long_incomplete_number_is_a_bad_number(parse):
    with pytest.raises(ParseError) as exc:
        parse("1" * 100_000 + ".")
    assert exc.value.kind is ParseErrorKind.BAD_NUMBER
    assert exc.value.position == 100_000


_points = st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 1e300]) | st.floats(-3.0, 3.0)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@given(
    text=st.text(alphabet="xy sincostanexplog+-*/^(). 0123456789e_", max_size=40),
    point=st.tuples(_points, _points),
)
def test_eval_string_and_parse_to_tree_agree(text, point):
    # both run one grammar loop: the same value bit for bit, the same fault,
    # or the same parse error unless a domain fault is met before it
    b = Bindings(point)
    try:
        tree = parse_to_tree(text)
    except ParseError as err:
        try:
            eval_string(text, None, b)
        except DomainFaultError:
            return
        except ParseError as direct:
            assert (direct.kind, direct.position) == (err.kind, err.position)
            return
        pytest.fail("eval_string accepted a text that parse_to_tree rejects")
    try:
        want = binary_value(tree, b)
    except DomainFaultError as fault:
        with pytest.raises(DomainFaultError) as direct:
            eval_string(text, None, b)
        assert direct.value.op == fault.op
        return
    assert _same_float(eval_string(text, None, b), want)


@pytest.mark.parametrize(
    "text, error",
    [
        ("(1/0", DomainFaultError),  # the innermost group closes before "missing ')'"
        ("1/0)", DomainFaultError),  # the expression closes before trailing input
        ("(1/0+(", DomainFaultError),  # "+" reduces the quotient first
        ("1/0^", ParseError),  # "^" binds tighter: its operand is missing first
        ("(1/(0", ParseError),  # only the innermost group closes
        ("log(0", ParseError),  # a call applies only at its ")"
        ("log(0)x", DomainFaultError),
        # a lexical error anywhere in the text comes before any fault
        ("1/0+@", ParseError),
        ("log(0)+1.", ParseError),
        ("1/0+1e999", ParseError),
        ("x+@", ParseError),  # x is unbound: no bindings are given
        ("x+y", UnboundVariableError),
    ],
)
def test_eval_string_meets_faults_and_errors_in_grammar_order(text, error):
    with pytest.raises(error):
        eval_string(text)


@pytest.mark.parametrize("text", ["sin (x)", "sin\t(\n x )", " sin ( x ) "])
def test_whitespace_between_function_name_and_parenthesis(text):
    assert parse_to_tree(text) == parse_to_tree("sin(x)")
    assert eval_string(text, None, (0.5,)) == eval_string("sin(x)", None, (0.5,))


@pytest.mark.parametrize(
    "text, nan_on_fault", [(" sin (x) +  y ", False), (" sin (x) +  y ", True), (" log (x - x) +  y ", True)]
)
def test_string_visits_are_the_token_count(text, nan_on_fault):
    # whitespace is no token; the count includes the END token
    outcome = evaluate(EvalMethod.STRING_PARSE, text, Bindings((0.5, 2.0)), nan_on_fault=nan_on_fault)
    assert outcome.visits == len(tokenize(text))


def test_faulting_string_is_tokenized_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser_module, "tokenize", counted)
    monkeypatch.setattr(evaluators_module, "tokenize", counted, raising=False)
    outcome = evaluate(EvalMethod.STRING_PARSE, "log(x-x)+y", Bindings((0.5, 2.0)), nan_on_fault=True)
    assert math.isnan(outcome.value) and outcome.visits == len(tokenize("log(x-x)+y"))
    assert calls == ["log(x-x)+y"]


# Texts for the differential test against the Token-based grammar loop:
# valid sources with a few pieces (valid, bad and overflowing numbers,
# unknown names, stray characters) or whitespace inserted anywhere; the
# same pieces joined with or without whitespace; free text.
_PIECES = [
    "x", "y", "z", "w", "sin", "log", "sqrt", "foo", "e",
    "0", "1", "2.5", "1e3", "0.0", "1e999", "2.", "1e", "3.5e-", "7.5.",
    "+", "-", "*", "/", "^", "(", ")", "@", "\u00e9", "\u0663",
]
_SEPARATORS = st.sampled_from(["", "", "", " ", "\t", "\n "])


@st.composite
def _edited_sources(draw):
    text = to_source(draw(trees()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_PIECES) | _SEPARATORS) + text[at:]
    return text


_texts = (
    _edited_sources()
    | st.lists(st.tuples(st.sampled_from(_PIECES), _SEPARATORS), max_size=20).map(
        lambda parts: "".join(piece + sep for piece, sep in parts)
    )
    | st.text(alphabet="xyzw sinlog+-*/^(). 0123456789e@\t", max_size=30)
)
_XYZ = SymbolTable(("x", "y", "z"))


def _outcome(run):
    """What ``run()`` gives, as something ``==`` compares exactly."""
    try:
        got = run()
    except ParseError as err:
        return "ParseError", err.kind, err.position, err.message
    except DomainFaultError as err:
        return "DomainFaultError", err.op
    except UnboundVariableError as err:
        return "UnboundVariableError", err.index
    if isinstance(got, tuple):  # (value, tokens consumed): compare the value's bits
        return float.hex(got[0]), got[1]
    return got


@settings(max_examples=300)
@given(text=_texts, values=st.lists(_points, max_size=3))
def test_lexeme_loop_matches_token_loop(text, values):
    b = Bindings(values)
    assert _outcome(lambda: parse_to_tree(text, _XYZ)) == _outcome(
        lambda: reference_grammar.parse_to_tree(text, _XYZ)
    )
    assert _outcome(lambda: interpret_string(text, _XYZ, b)) == _outcome(
        lambda: reference_grammar.interpret_string(text, _XYZ, b)
    )


_DEPTH = 10**4


def _in_nested_frames(frames, fn):
    """``fn()`` called from ``frames`` Python frames further down the stack."""
    return fn() if frames == 0 else _in_nested_frames(frames - 1, fn)


def _deep_values(text, b):
    tree = parse_to_tree(text)
    return [float.hex(v) for v in (binary_value(tree, b), nary_value(flatten(tree), b), eval_string(text, None, b))]


def _terms(count, scale=_DEPTH):
    """``count`` distinct constants near 1, so a change in the order of the
    operations shows in the bits."""
    return [repr(1 + i / scale) for i in range(1, count + 1)]


_HALF, _QUARTER = _DEPTH // 2, _DEPTH // 4
# a deep difference chain and a deep quotient chain, as one operand each
_MINUS_CHAIN = "(" + "-".join(["x"] + _terms(_HALF - 1)) + ")"
_DIVIDE_CHAIN = "(" + "/".join(["x"] + _terms(_HALF - 1, _DEPTH**2)) + ")"


@pytest.mark.parametrize(
    "text, nodes",
    [
        ("(" * _DEPTH + "x" + ")" * _DEPTH, 1),
        ("-" * _DEPTH + "x", _DEPTH + 1),
        ("sin(" * _DEPTH + "x" + ")" * _DEPTH, _DEPTH + 1),
        ("^".join(["x"] * _DEPTH), 2 * _DEPTH - 1),
        # distinct terms, so a change in the order of the additions shows
        ("+".join(f"{1 + i / _DEPTH!r}*x" for i in range(_DEPTH)), 4 * _DEPTH - 1),
        ("*".join(["x"] + [repr(1 + i / _DEPTH**2) for i in range(1, _DEPTH)]), 2 * _DEPTH - 1),
        ("x" + "".join("+-"[i % 2] + term for i, term in enumerate(_terms(_DEPTH - 1))), 2 * _DEPTH - 1),
        ("-".join(["x"] + _terms(_DEPTH - 1)), 2 * _DEPTH - 1),
        # a same-kind spine whose operands include a deep subtree of another kind
        (_MINUS_CHAIN + "+" + "+".join(_terms(_HALF)), 2 * _DEPTH - 1),
        ("+".join(_terms(_QUARTER) + [_MINUS_CHAIN] + _terms(_QUARTER)), 2 * _DEPTH - 1),
        ("*".join(_terms(_QUARTER, _DEPTH**2) + [_DIVIDE_CHAIN] + _terms(_QUARTER, _DEPTH**2)), 2 * _DEPTH - 1),
    ],
    ids=["parentheses", "prefix-minus", "nested-sin", "power-chain", "sum-chain", "product-chain",
         "mixed-sum-difference-chain", "difference-chain", "sum-over-deep-difference-first",
         "sum-over-deep-difference-middle", "product-over-deep-quotient"],
)
def test_parser_depth_needs_no_python_stack(text, nodes):
    limit = sys.getrecursionlimit()
    assert limit < _DEPTH
    assert count_nodes(parse_to_tree(text)) == nodes
    b = Bindings((0.5,))
    assert math.isfinite(eval_string(text, None, b))
    # both walkers agree with the string path bit for bit, also with most
    # of the recursion limit already spent by the caller
    values = _deep_values(text, b)
    assert values[0] == values[1] == values[2]
    assert _in_nested_frames(500, lambda: _deep_values(text, b)) == values
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize(
    "text, op",
    [
        # the first fault is the root's operand, finished on the explicit stack
        ("sqrt(-(" + "+".join(["x"] * _DEPTH) + "))+log(x-x)", "sqrt"),
        # the first fault sits in a small subtree near the bottom of the chain
        ("+".join(["x"] * 3 + ["log(x-x)"] + ["x"] * _DEPTH + ["1/(x-x)"]), "log"),
        ("sin(" * _DEPTH + "x^(x-x-1)/(x-x)" + ")" * _DEPTH + "+sqrt(-x)", "quotient"),
        # the first fault sits in a deep operand of a spine; in the first
        # case, after another deep operand
        (_MINUS_CHAIN + "+" + "+".join(["x"] * 100) + "+(" + "/".join(["x"] * 400) + "/(x-x))+sqrt(-x)",
         "quotient"),
        ("*".join(["x"] * 100) + "*(" + "-".join(["x"] * 600) + "-log(x-x))*" + _DIVIDE_CHAIN + "*sqrt(-x)",
         "log"),
    ],
    ids=["deep-operand", "shallow-operand", "nested-quotient", "sum-spine-deep-operands",
         "product-spine-deep-operand"],
)
def test_deep_tree_raises_its_first_fault(text, op):
    b = Bindings((0.5,))
    tree = parse_to_tree(text)
    faults = []
    for run in (lambda: eval_string(text, None, b), lambda: binary_value(tree, b),
                lambda: nary_value(flatten(tree), b)):
        with pytest.raises(DomainFaultError) as info:
            run()
        faults.append((info.value.op, info.value.operands))
    assert faults[0][0] == op and faults[1] == faults[0] and faults[2] == faults[0]


def test_deep_nary_sum_is_not_binary_form():
    flat = flatten(parse_to_tree("+".join(["x"] * _DEPTH)))
    assert len(flat.children) == _DEPTH
    with pytest.raises(ArityMismatchError) as info:
        binary_value(flat, Bindings((0.5,)))
    assert info.value.kind is OpKind.SUM and info.value.got == _DEPTH
