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

Two consumers share the grammar: ``parse_to_tree`` builds a binary-form
ExprNode, while ``eval_string`` folds numeric values during parsing and
never allocates a tree -- re-tokenizing and re-interpreting on every call
is the whole point of the direct-evaluation strategy, so nothing is cached.

One operator-precedence loop (Dijkstra's shunting-yard) serves both, with
one of two action sets: the tree actions build nodes, the value actions
fold floats and raise ``DomainFaultError``. The loop keeps its own operand
and operator stacks, so nesting depth costs no Python stack and never
raises ``RecursionError``. Unary minus sits between "*" and
"^" in precedence and "^" is right-associative, which is exactly the
grammar above. Each reduction happens as soon as the grammar's rule for it
is complete, so a domain fault and a parse error in one text are met in the
order a left-to-right reading meets them.

The loop reads the bare lexeme strings of one regex scan, whitespace
skipped and an empty string at the end: one dict lookup per lexeme picks
its action, and names and numbers are told apart by their first character.
It builds no ``Token`` and tracks no positions. ``tokenize`` reads the
matches of that same scan, so its token ``i`` is the loop's lexeme ``i``.
Errors are rare, so every error exit, and every domain fault or unbound
variable on the way out, first runs ``tokenize`` over the whole text: a
lexical error anywhere in the text wins, as if the text had been tokenized
first, and otherwise the failing lexeme's ``Token`` gives the error its
position. ``tokenize`` stays public API; a ``Token`` is a named tuple,
built straight from a plain tuple. The tree actions make their nodes
with the unchecked ``tree._Node``, passing the node counts they already
know (the ``tree`` docstring says why that is safe). Within one parse they
reuse one leaf per variable index and one leaf per distinct constant value,
so a tree may share its leaves; nodes are immutable, so sharing changes no
value, equality, hash or node count.
"""

import enum
import math
import operator
import re
import string
from typing import NamedTuple

from .errors import DomainFaultError, ParseError, ParseErrorKind
from .tree import (
    UNARY_FUNCTIONS,
    Bindings,
    ExprNode,
    OpKind,
    _Node,
    _raise_unbound,
    as_bindings,
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
# The one scanner. A match skips whitespace (``\s`` is exactly
# ``str.isspace``) and takes one lexeme as group 1: a token, a run of digits,
# or else any one non-space character. The last match is the empty one at
# the end of the text. A number the token branch cannot complete falls to
# ``[0-9]+``, so its whole run of digits becomes the lexeme and the next
# match starts after it: the number branch is tried once per run, not once
# per digit, and the scan stays linear. What follows the run ("." or "e") is
# never an operator, ")" or the end, so the loop stops there and
# ``tokenize`` reports the bad number. The loop reads plain strings through
# ``findall``; ``tokenize`` reads the same matches, with their positions,
# through ``finditer``.
_SCANNER = re.compile(rf"\s*({_TOKEN}|[0-9]+|\S)|\Z")
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
    variable may take one.
    """

    __slots__ = ("_names", "_indices")

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
        lexeme = match[1]
        if lexeme is None:  # the empty match at the end
            break
        position = match.start(1)
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
# only entry of precedence 3 and the only one-operand reduction.

_IDENT, _NUMBER, _MINUS, _LPAREN = TokenTag.IDENT, TokenTag.NUMBER, TokenTag.MINUS, TokenTag.LPAREN
# The kinds the tree actions name per node, bound once: an enum member
# lookup costs a Python-level attribute access each time.
_CONSTANT, _VARIABLE, _NEGATE, _UNARY_FN = OpKind.CONSTANT, OpKind.VARIABLE, OpKind.NEGATE, OpKind.UNARY_FN
_TOP = (-1, None)
_PAREN = (0, None)
_NEGATE_PRECEDENCE = 3
_INF = math.inf


def _quotient(num: float, den: float) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        raise DomainFaultError("quotient", (num, den)) from None


def _power(base: float, exponent: float) -> float:
    try:
        return math.pow(base, exponent)
    except (ValueError, OverflowError):
        raise DomainFaultError("power", (base, exponent)) from None


def _value_call(name: str):
    fn = UNARY_FUNCTIONS[name]

    def call(arg: float) -> float:
        try:
            return fn(arg)
        except (ValueError, OverflowError):
            raise DomainFaultError(name, (arg,)) from None

    return call


# Each function's checked call, built once: the value actions, the deep
# walk in ``evaluators`` and the black-box routines all read this table.
_CHECKED_CALLS = {name: _value_call(name) for name in UNARY_FUNCTIONS}


def _tree_binary(kind: OpKind):
    return lambda left, right: _Node(kind, None, (left, right), left._size + right._size + 1)


def _tree_call(name: str):
    return lambda arg: _Node(_UNARY_FN, name, (arg,), arg._size + 1)


# lexeme -> (reduction threshold, precedence, tree kind, value action). "^"
# pushes at 4 but reduces only entries above 4 (none): right-associative.
_BINARY = {
    "+": (1, 1, OpKind.SUM, operator.add),
    "-": (1, 1, OpKind.DIFFERENCE, operator.sub),
    "*": (2, 2, OpKind.PRODUCT, operator.mul),
    "/": (2, 2, OpKind.QUOTIENT, _quotient),
    "^": (5, 4, OpKind.POWER, _power),
}


class _Actions(NamedTuple):
    """What the grammar loop does at each reduction."""

    negate: tuple  # operator-stack entry for unary minus
    binary: dict  # lexeme -> (reduction threshold, operator-stack entry)
    calls: dict  # function name -> marker whose action applies the function


_TREE_ACTIONS = _Actions(
    (_NEGATE_PRECEDENCE, lambda arg: _Node(_NEGATE, None, (arg,), arg._size + 1)),
    {lexeme: (threshold, (prec, _tree_binary(kind)))
     for lexeme, (threshold, prec, kind, _) in _BINARY.items()},
    {name: (0, _tree_call(name)) for name in UNARY_FUNCTIONS},
)
_VALUE_ACTIONS = _Actions(
    (_NEGATE_PRECEDENCE, operator.neg),
    {lexeme: (threshold, (prec, action))
     for lexeme, (threshold, prec, _, action) in _BINARY.items()},
    {name: (0, call) for name, call in _CHECKED_CALLS.items()},
)


class _Leaves(dict):
    """Payload -> this parse's leaf of ``kind`` holding it, made on first use.
    Constants are keyed by their float value: a literal is finite and
    non-negative, so no key is NaN or -0.0, and equal keys are the same
    float."""

    __slots__ = ("kind",)

    def __init__(self, kind: OpKind):
        self.kind = kind

    def __missing__(self, arg) -> ExprNode:
        leaf = self[arg] = _Node(self.kind, arg, (), 1)
        return leaf


# --- error exits ------------------------------------------------------------
# The loop keeps no positions. An exit re-scans the text with ``tokenize``,
# which raises any lexical error in it first, and takes token ``i`` (the
# loop's lexeme ``i``) for the position and shown text of the grammar error.


def _shown(tok: Token) -> str:
    return tok.tag.value if tok.text is None else tok.text


def _missing_operand(text: str, i: int, stack: list):
    tok = tokenize(text)[i]
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
    the one remaining operand.

    ``variable`` maps a variable index, and ``constant`` a literal's float
    value, to its operand.
    """
    negate, binary, calls = actions
    indices = symbols._indices
    operands = []
    stack = [_TOP]
    i = 0
    while True:
        # Operand position: any prefix "-", "(" or "name(", then one atom.
        lexeme = lexemes[i]
        i += 1
        lead = _LEAD.get(lexeme[:1])
        if lead is _IDENT:
            if lexemes[i] == "(":
                call = calls.get(lexeme)
                if call is None:
                    _unknown_name(text, i - 1, "function", lexeme)
                stack.append(call)
                i += 1
                continue
            index = indices.get(lexeme)
            if index is None:
                _unknown_name(text, i - 1, "variable", lexeme)
            operands.append(variable(index))
        elif lead is _NUMBER:
            value = float(lexeme)
            if value == _INF:
                tokenize(text)  # raises: the literal overflows a float
            operands.append(constant(value))
        elif lead is _MINUS:
            stack.append(negate)
            continue
        elif lead is _LPAREN:
            stack.append(_PAREN)
            continue
        else:
            _missing_operand(text, i - 1, stack)
        # Operator position: close groups until a binary operator or the end.
        while True:
            lexeme = lexemes[i]
            i += 1
            op = binary.get(lexeme)
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
            # ")", the end or a stray lexeme: the innermost group is complete.
            if top is _TOP:
                if not lexeme:
                    return operands[0]
            elif lexeme == ")":
                del stack[-1]
                if top[1] is not None:
                    operands[-1] = top[1](operands[-1])
                continue
            _unexpected_operator(text, i - 1, top)


def parse_to_tree(text: str, symbols: SymbolTable | None = None) -> ExprNode:
    """Parse ``text`` into a binary-form expression tree."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    return _run(_LEXEMES(text), text, symbols, _Leaves(_VARIABLE).__getitem__,
                _Leaves(_CONSTANT).__getitem__, _TREE_ACTIONS)


def interpret_string(text: str, symbols: SymbolTable, bindings: Bindings, nan_on_fault=False) -> tuple[float, int]:
    """Directly evaluate ``text``; returns (value, tokens consumed). With
    ``nan_on_fault`` a domain fault gives NaN instead of raising."""
    lexemes = _LEXEMES(text)
    try:
        return _run(lexemes, text, symbols, bindings.__getitem__, float, _VALUE_ACTIONS), len(lexemes)
    except DomainFaultError:
        tokenize(text)  # a lexical error anywhere in the text comes first
        if nan_on_fault:
            return math.nan, len(lexemes)
        raise
    except IndexError:
        tokenize(text)
        # Variables are read in lexeme order; no variable is named like a function.
        _raise_unbound(map(symbols.variable_index, lexemes), len(bindings))
        raise


def eval_string(text: str, symbols: SymbolTable | None = None, bindings=()) -> float:
    """Evaluate ``text`` with no intermediate tree; re-parses on every call."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    value, _ = interpret_string(text, symbols, as_bindings(bindings))
    return value
