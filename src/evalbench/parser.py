"""Lexer, tree-building parser and direct string evaluator.

Grammar (EBNF):

    expr   := term { ("+" | "-") term }        left-associative
    term   := factor { ("*" | "/") factor }    left-associative
    factor := "-" factor | power
    power  := atom [ "^" factor ]              right-associative; "^" binds
                                               tighter than unary minus
    atom   := Number | Ident | Ident "(" expr ")" | "(" expr ")"

An identifier followed by "(" must name a known unary function; any other
identifier must name a known variable. Numbers are decimal literals with
an optional fraction and optional exponent (2, 2.5, 2.5e-1). There is no
implicit multiplication: write 2*x*y, not 2xy.

``parse_to_tree`` builds a binary-form ExprNode; ``eval_string`` folds
values while it parses and allocates no tree, re-scanning on every call,
which is the whole cost of the direct-evaluation strategy. Both run one
operator-precedence loop (shunting-yard) with its own operand and operator
stacks, so nesting costs no Python stack, with one of two action sets: the
tree actions hand their operands to ``tree._Node``, with no child tuple,
and the value actions fold with the bare operators. The top operator entry
and the newest operand live in locals and the two lists hold the rest,
because CPython 3.11 specializes a list subscript only for a non-negative
index. Each reduction happens as soon as its rule is complete, so a domain
fault and a parse error in one text are met in reading order. On the value
path an arithmetic exception makes the loop run once more with the checked
actions, the helpers of ``tree``'s fault rule, which meet the same first
fault and name it.

The loop reads the bare lexeme strings of one regex scan, followed by an
empty end sentinel, and ``tokenize`` the matches of that same scan,
followed by END, so its token ``i`` is the loop's lexeme ``i``. Every
error exit first runs ``tokenize`` over the whole text, so a lexical error
anywhere wins; otherwise the failing token gives the error its position.
A symbol table holds one leaf per variable, shared by every tree parsed
with it, and a parse makes one leaf per distinct constant value; nodes are
immutable, so sharing changes no value, equality, hash or node count.
"""

import enum
import math
import operator
import re
import string
from typing import NamedTuple

from .errors import ParseError, ParseErrorKind
from .tree import (
    _CHECKED_CALLS, UNARY_FUNCTIONS, Bindings, ExprNode, OpKind, _Node, _power, _quotient, _raise_unbound,
)


class TokenTag(enum.Enum):
    NUMBER = "number"
    IDENT = "ident"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    LPAREN = "("
    RPAREN = ")"
    END = "end"


class Token(NamedTuple):
    tag: TokenTag
    position: int
    value: float | None = None
    text: str | None = None


# Builds a Token from a full 4-tuple, skipping the Python-level __new__.
_new_token = tuple.__new__

_IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"
_is_identifier = re.compile(_IDENTIFIER).fullmatch

# The token branches; the digit and letter classes are ASCII on purpose. A
# number may not stop at a "." or an exponent marker it cannot complete, so
# a valid number ends in a digit.
_TOKEN = (
    r"[-+*/^()]"
    rf"|{_IDENTIFIER}"
    r"|[0-9]+(?![0-9])(?:\.[0-9]+(?![0-9])|(?!\.))(?:[eE][+-]?[0-9]+|(?![eE]))"
)
# The one scanner. Each match is one lexeme: a token, a run of digits, or
# else any one non-space character. Only whitespace matches no branch
# (``\S`` is exactly ``not str.isspace``), so the search steps over it, and
# no match is empty: the scan ends with the text. A number the token branch
# cannot complete falls to ``[0-9]+``, so its whole run of digits becomes
# the lexeme and the next match starts after it: the number branch is tried
# once per run, not once per digit, and the scan stays linear. What follows
# the run ("." or "e") is never an operator, ")" or the end, so the loop
# stops there and ``tokenize`` reports the bad number. The loop reads plain
# strings through ``findall``, which makes no match objects, and stops at
# the empty lexeme that each entry point appends to the scan as its end
# sentinel; ``tokenize`` reads the same matches, with their positions,
# through ``finditer``, and appends END in the sentinel's place.
_SCANNER = re.compile(rf"{_TOKEN}|[0-9]+|\S")
_LEXEMES = _SCANNER.findall
# A number that cannot be completed, from its first digit up to and
# including the "." or exponent marker where it fails. A complete number of
# digits alone is followed by no digit, "." or "e", so this matches at none,
# and ``tokenize`` tries it only on all-digit lexemes.
_bad_number = re.compile(r"[0-9]+(?:\.[0-9]+)?[.eE]").match
# What a lexeme is, by its first character.
_LEAD = dict.fromkeys(string.ascii_letters + "_", TokenTag.IDENT) | dict.fromkeys(
    string.digits, TokenTag.NUMBER
) | {char: TokenTag(char) for char in "+-*/^()"}


class SymbolTable:
    """Immutable name->index map for variables.

    Variable indices are the positions in the name sequence, so they are
    unique and contiguous from 0. The default table maps x->0, y->1. The
    function names are the keys of ``tree.UNARY_FUNCTIONS``, and no
    variable may take one. ``_leaves`` holds each variable's leaf, by index,
    for every tree parsed with the table.
    """

    __slots__ = ("_names", "_indices", "_leaves")

    def __init__(self, variables=("x", "y")):
        names = tuple(variables)
        seen = set()
        for name in names:
            if not _is_identifier(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            if name in UNARY_FUNCTIONS:
                raise ValueError(f"{name!r} is a function name; variables must be disjoint")
            seen.add(name)
        self._names = names
        self._indices = {name: i for i, name in enumerate(names)}
        self._leaves = tuple(_Node(OpKind.VARIABLE, i, 1, ()) for i in range(len(names)))

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self._names

    def variable_index(self, name: str) -> int | None:
        return self._indices.get(name)

    def __repr__(self) -> str:
        return f"SymbolTable(variables={self._names!r})"


DEFAULT_SYMBOLS = SymbolTable()


def tokenize(text: str) -> list[Token]:
    """Full token list for ``text``, always terminated by an END token.

    Error positions point at the first offending character, so truncating
    the input just before that offset always leaves a lexable prefix.
    """
    tokens: list[Token] = []
    append = tokens.append
    for match in _SCANNER.finditer(text):
        lexeme = match[0]
        position = match.start()
        tag = _LEAD.get(lexeme[0])
        if tag is TokenTag.IDENT:
            append(_new_token(Token, (tag, position, None, lexeme)))
        elif tag is TokenTag.NUMBER:
            bad = _bad_number(text, position) if lexeme.isdigit() else None
            if bad is not None:
                end = bad.end() - 1
                if text[end] == ".":
                    raise ParseError(ParseErrorKind.BAD_NUMBER, end, "expected digits after decimal point")
                raise ParseError(ParseErrorKind.BAD_NUMBER, end, "expected digits in exponent")
            value = float(lexeme)
            if not math.isfinite(value):
                raise ParseError(ParseErrorKind.BAD_NUMBER, position, "literal overflows a float")
            append(_new_token(Token, (tag, position, value, None)))
        elif tag is not None:
            append(_new_token(Token, (tag, position, None, None)))
        else:
            raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, position, f"unexpected character {lexeme!r}")
    append(_new_token(Token, (TokenTag.END, len(text), None, None)))
    return tokens


# --- the grammar loop -------------------------------------------------------
# Operator-stack entries are (precedence, action) pairs. An incoming binary
# operator first reduces every entry whose precedence reaches its threshold.
# "(" and "name(" push markers of precedence 0, which no operator reduces;
# the bottom entry, precedence -1, marks the top level. Unary minus is the
# only entry of precedence 3; it reduces like a binary operator, over the
# placeholder operand it pushed, so every reduction pops one operand.
# The top entry is the local ``top`` and the newest operand ``acc``; the
# lists hold the rest, so a reduction is ``acc = top[1](operands.pop(),
# acc)`` then ``top = stack.pop()``, and no list is read by a negative
# index, which CPython 3.11 leaves a generic subscript.

_IDENT, _NUMBER, _MINUS, _LPAREN = TokenTag.IDENT, TokenTag.NUMBER, TokenTag.MINUS, TokenTag.LPAREN
# The kinds the tree actions name per node, bound once: an enum member
# lookup costs a Python-level attribute access each time.
_CONSTANT, _NEGATE, _UNARY_FN = OpKind.CONSTANT, OpKind.NEGATE, OpKind.UNARY_FN
_TOP = (-1, None)
_PAREN = (0, None)
_CLOSE = (1, None)  # ")", the end or a stray lexeme in operator position
_NEGATE_PRECEDENCE = 3
_INF = math.inf


def _tree_binary(kind: OpKind):
    return lambda left, right: _Node(kind, None, left._size + right._size + 1, None, left, right)


def _tree_call(name: str):
    return lambda arg: _Node(_UNARY_FN, name, arg._size + 1, None, arg)


def _negative(_, arg: float) -> float:
    return -arg


# lexeme -> (reduction threshold, precedence, tree kind, bare value action).
# "^" pushes at 4 but reduces only entries above 4 (none): right-associative.
_BINARY = {
    "+": (1, 1, OpKind.SUM, operator.add),
    "-": (1, 1, OpKind.DIFFERENCE, operator.sub),
    "*": (2, 2, OpKind.PRODUCT, operator.mul),
    "/": (2, 2, OpKind.QUOTIENT, operator.truediv),
    "^": (5, 4, OpKind.POWER, math.pow),
}


class _Actions(NamedTuple):
    """What the grammar loop does at each reduction."""

    negate: tuple  # operator-stack entry for unary minus, over a placeholder
    binary: dict  # lexeme -> (reduction threshold, operator-stack entry)
    calls: dict  # function name -> marker whose action applies the function


def _fold_actions(checked: dict, calls: dict) -> _Actions:
    """Value actions: the bare operators, less those that ``checked``
    replaces, and ``calls`` for the functions."""
    return _Actions(
        (_NEGATE_PRECEDENCE, _negative),
        {lexeme: (threshold, (prec, checked.get(lexeme, action)))
         for lexeme, (threshold, prec, _, action) in _BINARY.items()},
        {name: (0, call) for name, call in calls.items()},
    )


_TREE_ACTIONS = _Actions(
    (_NEGATE_PRECEDENCE, lambda _, arg: _Node(_NEGATE, None, arg._size + 1, None, arg)),
    {lexeme: (threshold, (prec, _tree_binary(kind)))
     for lexeme, (threshold, prec, kind, _) in _BINARY.items()},
    {name: (0, _tree_call(name)) for name in UNARY_FUNCTIONS},
)
_VALUE_ACTIONS = _fold_actions({}, UNARY_FUNCTIONS)
_CHECKED_ACTIONS = _fold_actions({"/": _quotient, "^": _power}, _CHECKED_CALLS)


class _Constants(dict):
    """Literal value -> this parse's constant leaf holding it, made on first
    use. A literal is finite and non-negative, so no key is NaN or -0.0, and
    equal keys are the same float."""

    __slots__ = ()

    def __missing__(self, value: float) -> ExprNode:
        leaf = self[value] = _Node(_CONSTANT, value, 1, ())
        return leaf


# --- error exits ------------------------------------------------------------
# The loop keeps no positions. An exit re-scans the text with ``tokenize``,
# which raises any lexical error in it first, and takes token ``i`` (the
# loop's lexeme ``i``) for the position and shown text of the grammar error.


def _shown(tok: Token) -> str:
    return tok.tag.value if tok.text is None else tok.text


def _missing_operand(text: str, i: int, top: tuple, stack: list):
    tok = tokenize(text)[i]
    expected = "a number, variable, function or '('"
    if tok.tag is not TokenTag.END:
        raise ParseError(
            ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected {_shown(tok)!r}, expected {expected}"
        )
    if top[0] == 0 or any(entry[0] == 0 for entry in stack):  # inside a group
        raise ParseError(ParseErrorKind.UNBALANCED_PAREN, tok.position, "missing ')'")
    raise ParseError(
        ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected end of input, expected {expected}"
    )


def _unexpected_operator(text: str, i: int, top: tuple):
    tok = tokenize(text)[i]
    if top is _TOP:
        raise ParseError(ParseErrorKind.TRAILING_INPUT, tok.position, f"trailing input {_shown(tok)!r}")
    if tok.tag is TokenTag.END:
        raise ParseError(ParseErrorKind.UNBALANCED_PAREN, tok.position, "missing ')'")
    raise ParseError(
        ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected {_shown(tok)!r}, expected ')'"
    )


def _unknown_name(text: str, i: int, what: str, name: str):
    raise ParseError(ParseErrorKind.UNKNOWN_IDENTIFIER, tokenize(text)[i].position, f"unknown {what} {name!r}")


def _run(lexemes: list[str], text: str, symbols: SymbolTable, variable, constant, actions: _Actions):
    """Parse ``text``, scanned into ``lexemes``, with ``actions``; returns
    the one remaining operand. An atom's operand is ``variable[index]``, or
    a literal's float value, passed through ``constant`` unless that is
    None, as on the value path."""
    negate, binary, calls = actions
    indices = symbols._indices
    operands = []  # every operand but the newest, ``acc``
    push = operands.append
    stack = []  # every operator-stack entry but the top one, ``top``
    top = _TOP
    i = 0
    while True:
        # Operand position: any prefix "-", "(" or "name(", then one atom.
        lexeme = lexemes[i]
        i += 1
        index = indices.get(lexeme)
        if index is not None:  # no variable is named like a function
            if lexemes[i] == "(":
                _unknown_name(text, i - 1, "function", lexeme)
            acc = variable[index]
        else:
            lead = _LEAD.get(lexeme[:1])
            if lead is _NUMBER:
                value = float(lexeme)
                if value == _INF:
                    tokenize(text)  # raises: the literal overflows a float
                acc = value if constant is None else constant(value)
            elif lead is _IDENT:
                if lexemes[i] != "(":
                    _unknown_name(text, i - 1, "variable", lexeme)
                call = calls.get(lexeme)
                if call is None:
                    _unknown_name(text, i - 1, "function", lexeme)
                stack.append(top)
                top = call
                i += 1
                continue
            elif lead is _MINUS:
                stack.append(top)
                top = negate
                push(None)  # the placeholder left operand
                continue
            elif lead is _LPAREN:
                stack.append(top)
                top = _PAREN
                continue
            else:
                _missing_operand(text, i - 1, top, stack)
        # Operator position: close groups until a binary operator or the end.
        while True:
            lexeme = lexemes[i]
            i += 1
            threshold, entry = binary.get(lexeme, _CLOSE)
            while top[0] >= threshold:
                acc = top[1](operands.pop(), acc)
                top = stack.pop()
            if entry is not None:
                push(acc)
                stack.append(top)
                top = entry
                break
            # ")", the end or a stray lexeme: the innermost group is complete.
            if top is _TOP:
                if not lexeme:
                    return acc
            elif lexeme == ")":
                if top[1] is not None:
                    acc = top[1](acc)
                top = stack.pop()
                continue
            _unexpected_operator(text, i - 1, top)


def parse_to_tree(text: str, symbols: SymbolTable | None = None) -> ExprNode:
    """Parse ``text`` into a binary-form expression tree."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    lexemes = _LEXEMES(text)
    lexemes.append("")
    return _run(lexemes, text, symbols, symbols._leaves, _Constants().__getitem__, _TREE_ACTIONS)


def _value_error(err: Exception, text: str, symbols: SymbolTable, lexemes: list[str], point: tuple):
    """Raise what the value path raises after ``_run`` raised ``err`` folding
    ``point``: a lexical error anywhere in the text first; then, for a short
    point, the first unbound variable; otherwise the domain fault that one
    replay of the loop with the checked actions meets. The replay reduces in
    the same order as the fold, so it meets the same first fault."""
    tokenize(text)
    if isinstance(err, IndexError):
        # Variables are read in lexeme order; no variable is named like a function.
        _raise_unbound(map(symbols.variable_index, lexemes), len(point))
    else:
        _run(lexemes, text, symbols, point, None, _CHECKED_ACTIONS)
    raise err


def interpret_string(text: str, symbols: SymbolTable, bindings: tuple[float, ...]) -> tuple[float, int]:
    """Directly evaluate ``text``; returns (value, tokens consumed). A domain
    fault raises; see ``tree``'s fault rule."""
    lexemes = _LEXEMES(text)
    lexemes.append("")
    try:
        return _run(lexemes, text, symbols, bindings, None, _VALUE_ACTIONS), len(lexemes)
    except (ArithmeticError, ValueError, IndexError) as err:
        _value_error(err, text, symbols, lexemes, bindings)


def eval_string(text: str, symbols: SymbolTable | None = None, bindings=()) -> float:
    """Evaluate ``text`` with no intermediate tree; re-parses on every call."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    point = Bindings(bindings)
    lexemes = _LEXEMES(text)
    lexemes.append("")
    try:
        return _run(lexemes, text, symbols, point, None, _VALUE_ACTIONS)
    except (ArithmeticError, ValueError, IndexError) as err:
        _value_error(err, text, symbols, lexemes, point)
