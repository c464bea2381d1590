"""The ``Token``-based grammar loop that ``evalbench.parser`` replaced.

Kept unchanged in logic as an executable specification of the grammar and
its error order: the property tests in ``test_parser.py`` check that
``parse_to_tree`` and ``interpret_string``, which read bare lexeme strings,
give the same tree, value, token count, fault or error on any text. Like
``reference_lexer.py``, it is the code the program once ran, not a second
design.
"""

import operator
from typing import NamedTuple

from evalbench.errors import ParseError, ParseErrorKind
from evalbench.parser import (
    DEFAULT_SYMBOLS,
    SymbolTable,
    Token,
    TokenTag,
    _tree_binary,
    _tree_call,
    tokenize,
)
from evalbench.tree import UNARY_FUNCTIONS, ExprNode, OpKind, _power, _quotient, _raise_unbound, _value_call

# Operator-stack entries are (precedence, action) pairs. An incoming binary
# operator first reduces every entry whose precedence reaches its threshold.
# "(" and "name(" push markers of precedence 0, which no operator reduces;
# the bottom entry, precedence -1, marks the top level. Unary minus is the
# only entry of precedence 3 and the only one-operand reduction.

_IDENT, _NUMBER, _MINUS, _LPAREN, _RPAREN, _END = (
    TokenTag.IDENT, TokenTag.NUMBER, TokenTag.MINUS, TokenTag.LPAREN, TokenTag.RPAREN, TokenTag.END
)
_TOP = (-1, None)
_PAREN = (0, None)
_NEGATE_PRECEDENCE = 3

# tag -> (reduction threshold, precedence, tree kind, value action). "^"
# pushes at 4 but reduces only entries above 4 (none): right-associative.
_BINARY = {
    TokenTag.PLUS: (1, 1, OpKind.SUM, operator.add),
    TokenTag.MINUS: (1, 1, OpKind.DIFFERENCE, operator.sub),
    TokenTag.STAR: (2, 2, OpKind.PRODUCT, operator.mul),
    TokenTag.SLASH: (2, 2, OpKind.QUOTIENT, _quotient),
    TokenTag.CARET: (5, 4, OpKind.POWER, _power),
}


class _Actions(NamedTuple):
    """What the grammar loop does at each atom and reduction."""

    constant: object  # float -> operand
    negate: tuple  # operator-stack entry for unary minus
    binary: dict  # TokenTag -> (reduction threshold, operator-stack entry)
    calls: dict  # function name -> marker whose action applies the function


_TREE_ACTIONS = _Actions(
    lambda value: ExprNode(OpKind.CONSTANT, value),
    (_NEGATE_PRECEDENCE, lambda arg: ExprNode(OpKind.NEGATE, children=(arg,))),
    {tag: (threshold, (prec, _tree_binary(kind)))
     for tag, (threshold, prec, kind, _) in _BINARY.items()},
    {name: (0, _tree_call(name)) for name in UNARY_FUNCTIONS},
)
_VALUE_ACTIONS = _Actions(
    float,
    (_NEGATE_PRECEDENCE, operator.neg),
    {tag: (threshold, (prec, action))
     for tag, (threshold, prec, _, action) in _BINARY.items()},
    {name: (0, _value_call(name)) for name in UNARY_FUNCTIONS},
)


def _shown(tok: Token) -> str:
    return tok.tag.value if tok.text is None else tok.text


def _missing_operand(tok: Token, stack: list):
    expected = "a number, variable, function or '('"
    if tok.tag is not TokenTag.END:
        raise ParseError(
            ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected {_shown(tok)!r}, expected {expected}"
        )
    if any(entry[0] == 0 for entry in stack):  # inside a group
        raise ParseError(ParseErrorKind.UNBALANCED_PAREN, tok.position, "missing ')'")
    raise ParseError(
        ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected end of input, expected {expected}"
    )


def _run(tokens: list[Token], symbols: SymbolTable, variable, actions: _Actions):
    """Parse ``tokens`` with ``actions``; returns the one remaining operand.

    ``variable`` maps a variable index to its operand.
    """
    constant, negate, binary, calls = actions
    indices = symbols._indices
    functions = UNARY_FUNCTIONS
    operands = []
    stack = [_TOP]
    i = 0
    while True:
        # Operand position: any prefix "-", "(" or "name(", then one atom.
        tok = tokens[i]
        i += 1
        tag = tok[0]
        if tag is _IDENT:
            name = tok[3]
            if tokens[i][0] is _LPAREN:
                if name not in functions:
                    raise ParseError(
                        ParseErrorKind.UNKNOWN_IDENTIFIER, tok[1], f"unknown function {name!r}"
                    )
                stack.append(calls[name])
                i += 1
                continue
            index = indices.get(name)
            if index is None:
                raise ParseError(ParseErrorKind.UNKNOWN_IDENTIFIER, tok[1], f"unknown variable {name!r}")
            operands.append(variable(index))
        elif tag is _NUMBER:
            operands.append(constant(tok[2]))
        elif tag is _MINUS:
            stack.append(negate)
            continue
        elif tag is _LPAREN:
            stack.append(_PAREN)
            continue
        else:
            _missing_operand(tok, stack)
        # Operator position: close groups until a binary operator or the end.
        while True:
            tok = tokens[i]
            i += 1
            tag = tok[0]
            op = binary.get(tag)
            threshold = 1 if op is None else op[0]
            top = stack[-1]
            while top[0] >= threshold:
                del stack[-1]
                if top[0] == _NEGATE_PRECEDENCE:
                    operands[-1] = top[1](operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = top[1](operands[-1], right)
                top = stack[-1]
            if op is not None:
                stack.append(op[1])
                break
            # ")", the end or a stray token: the innermost group is complete.
            if top is _TOP:
                if tag is _END:
                    return operands[0]
                raise ParseError(
                    ParseErrorKind.TRAILING_INPUT, tok[1], f"trailing input {_shown(tok)!r}"
                )
            if tag is _RPAREN:
                del stack[-1]
                if top[1] is not None:
                    operands[-1] = top[1](operands[-1])
                continue
            if tag is _END:
                raise ParseError(ParseErrorKind.UNBALANCED_PAREN, tok[1], "missing ')'")
            raise ParseError(
                ParseErrorKind.UNEXPECTED_TOKEN, tok[1], f"unexpected {_shown(tok)!r}, expected ')'"
            )


def parse_to_tree(text: str, symbols: SymbolTable | None = None) -> ExprNode:
    """Parse ``text`` into a binary-form expression tree."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    return _run(tokenize(text), symbols, symbols._leaves.__getitem__, _TREE_ACTIONS)


def interpret_string(text: str, symbols: SymbolTable, bindings: tuple[float, ...]) -> tuple[float, int]:
    """Directly evaluate ``text``; returns (value, tokens consumed)."""
    tokens = tokenize(text)
    try:
        return _run(tokens, symbols, bindings.__getitem__, _VALUE_ACTIONS), len(tokens)
    except IndexError:
        # Variables are read in token order; no variable is named like a function.
        _raise_unbound(map(symbols.variable_index, [tok.text for tok in tokens]), len(bindings))
        raise
