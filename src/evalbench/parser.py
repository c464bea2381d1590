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

A ``Token`` is a named tuple, built in the scanner straight from a plain
tuple. The tree builder makes its nodes with the unchecked
``tree._trusted_node`` (the ``tree`` docstring says why that is safe) and
reuses one leaf per variable index within a parse.
"""

import enum
import math
from typing import NamedTuple

from .errors import DomainFaultError, ParseError, ParseErrorKind
from .tree import (
    UNARY_FUNCTIONS,
    Bindings,
    ExprNode,
    OpKind,
    _trusted_node,
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


_SINGLE_CHAR = {
    "+": TokenTag.PLUS,
    "-": TokenTag.MINUS,
    "*": TokenTag.STAR,
    "/": TokenTag.SLASH,
    "^": TokenTag.CARET,
    "(": TokenTag.LPAREN,
    ")": TokenTag.RPAREN,
}


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


def _is_ident_start(c: str) -> bool:
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def _is_ident_part(c: str) -> bool:
    return _is_ident_start(c) or _is_digit(c)


class SymbolTable:
    """Immutable name->index map for variables plus the function-name set.

    Variable indices are the positions in the name sequence, so they are
    unique and contiguous from 0. The default table maps x->0, y->1.
    """

    __slots__ = ("_names", "_indices", "_functions")

    def __init__(self, variables=("x", "y"), functions=None):
        names = tuple(variables)
        funcs = frozenset(UNARY_FUNCTIONS if functions is None else functions)
        if not funcs <= set(UNARY_FUNCTIONS):
            unknown = ", ".join(sorted(funcs - set(UNARY_FUNCTIONS)))
            raise ValueError(f"unsupported function names: {unknown}")
        seen = set()
        for name in names:
            if not name or not _is_ident_start(name[0]) or not all(_is_ident_part(c) for c in name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            if name in funcs:
                raise ValueError(f"{name!r} is a function name; variables must be disjoint")
            seen.add(name)
        self._names = names
        self._indices = {name: i for i, name in enumerate(names)}
        self._functions = funcs

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self._names

    @property
    def functions(self) -> frozenset:
        return self._functions

    def variable_index(self, name: str) -> int | None:
        return self._indices.get(name)

    def is_function(self, name: str) -> bool:
        return name in self._functions

    def __repr__(self) -> str:
        return f"SymbolTable(variables={self._names!r})"


DEFAULT_SYMBOLS = SymbolTable()


def tokenize(text: str) -> list[Token]:
    """Full token list for ``text``, always terminated by an END token.

    Error positions point at the first offending character, so truncating
    the input just before that offset always leaves a lexable prefix.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        tag = _SINGLE_CHAR.get(c)
        if tag is not None:
            tokens.append(_new_token(Token, (tag, i, None, None)))
            i += 1
            continue
        if _is_digit(c):
            start = i
            while i < n and _is_digit(text[i]):
                i += 1
            if i < n and text[i] == ".":
                dot = i
                i += 1
                if i >= n or not _is_digit(text[i]):
                    raise ParseError(ParseErrorKind.BAD_NUMBER, dot, "expected digits after decimal point")
                while i < n and _is_digit(text[i]):
                    i += 1
            if i < n and text[i] in "eE":
                marker = i
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or not _is_digit(text[i]):
                    raise ParseError(ParseErrorKind.BAD_NUMBER, marker, "expected digits in exponent")
                while i < n and _is_digit(text[i]):
                    i += 1
            value = float(text[start:i])
            if not math.isfinite(value):
                raise ParseError(ParseErrorKind.BAD_NUMBER, start, "literal overflows a float")
            tokens.append(_new_token(Token, (TokenTag.NUMBER, start, value, None)))
            continue
        if _is_ident_start(c):
            start = i
            while i < n and _is_ident_part(text[i]):
                i += 1
            tokens.append(_new_token(Token, (TokenTag.IDENT, start, None, text[start:i])))
            continue
        raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, i, f"unexpected character {c!r}")
    tokens.append(_new_token(Token, (TokenTag.END, n, None, None)))
    return tokens


class _TokenStream:
    """Cursor plus the error helpers both grammar walkers need."""

    __slots__ = ("_tokens", "_pos", "_depth", "_symbols")

    def __init__(self, tokens: list[Token], symbols: SymbolTable):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self._symbols = symbols

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def fail(self, tok: Token, expected: str):
        if tok.tag is TokenTag.END:
            if self._depth > 0:
                raise ParseError(ParseErrorKind.UNBALANCED_PAREN, tok.position, "missing ')'")
            raise ParseError(
                ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected end of input, expected {expected}"
            )
        shown = tok.tag.value if tok.text is None else tok.text
        raise ParseError(
            ParseErrorKind.UNEXPECTED_TOKEN, tok.position, f"unexpected {shown!r}, expected {expected}"
        )

    def expect_rparen(self) -> None:
        tok = self.peek()
        if tok.tag is not TokenTag.RPAREN:
            self.fail(tok, "')'")
        self.advance()


class _TreeBuilder(_TokenStream):
    """Recursive-descent walk producing a binary-form ExprNode."""

    __slots__ = ("_variables",)

    def __init__(self, tokens: list[Token], symbols: SymbolTable):
        super().__init__(tokens, symbols)
        self._variables: dict[int, ExprNode] = {}  # index -> this parse's leaf

    def expr(self) -> ExprNode:
        node = self.term()
        while True:
            tag = self.peek().tag
            if tag is TokenTag.PLUS:
                self.advance()
                node = _trusted_node(OpKind.SUM, None, None, None, (node, self.term()))
            elif tag is TokenTag.MINUS:
                self.advance()
                node = _trusted_node(OpKind.DIFFERENCE, None, None, None, (node, self.term()))
            else:
                return node

    def term(self) -> ExprNode:
        node = self.factor()
        while True:
            tag = self.peek().tag
            if tag is TokenTag.STAR:
                self.advance()
                node = _trusted_node(OpKind.PRODUCT, None, None, None, (node, self.factor()))
            elif tag is TokenTag.SLASH:
                self.advance()
                node = _trusted_node(OpKind.QUOTIENT, None, None, None, (node, self.factor()))
            else:
                return node

    def factor(self) -> ExprNode:
        if self.peek().tag is TokenTag.MINUS:
            self.advance()
            return _trusted_node(OpKind.NEGATE, None, None, None, (self.factor(),))
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        if self.peek().tag is TokenTag.CARET:
            self.advance()
            return _trusted_node(OpKind.POWER, None, None, None, (base, self.factor()))
        return base

    def atom(self) -> ExprNode:
        tok = self.advance()
        if tok.tag is TokenTag.NUMBER:
            return _trusted_node(OpKind.CONSTANT, tok.value, None, None, ())
        if tok.tag is TokenTag.IDENT:
            name = tok.text
            if self.peek().tag is TokenTag.LPAREN:
                if not self._symbols.is_function(name):
                    raise ParseError(
                        ParseErrorKind.UNKNOWN_IDENTIFIER, tok.position, f"unknown function {name!r}"
                    )
                self.advance()
                self._depth += 1
                arg = self.expr()
                self.expect_rparen()
                self._depth -= 1
                return _trusted_node(OpKind.UNARY_FN, None, None, name, (arg,))
            index = self._symbols.variable_index(name)
            if index is None:
                raise ParseError(
                    ParseErrorKind.UNKNOWN_IDENTIFIER, tok.position, f"unknown variable {name!r}"
                )
            leaf = self._variables.get(index)
            if leaf is None:
                leaf = self._variables[index] = _trusted_node(OpKind.VARIABLE, None, index, None, ())
            return leaf
        if tok.tag is TokenTag.LPAREN:
            self._depth += 1
            node = self.expr()
            self.expect_rparen()
            self._depth -= 1
            return node
        self.fail(tok, "a number, variable, function or '('")


class _DirectInterpreter(_TokenStream):
    """The same grammar walk folding float values; no nodes allocated."""

    __slots__ = ("_bindings",)

    def __init__(self, tokens: list[Token], symbols: SymbolTable, bindings: Bindings):
        super().__init__(tokens, symbols)
        self._bindings = bindings

    def expr(self) -> float:
        value = self.term()
        while True:
            tag = self.peek().tag
            if tag is TokenTag.PLUS:
                self.advance()
                value = value + self.term()
            elif tag is TokenTag.MINUS:
                self.advance()
                value = value - self.term()
            else:
                return value

    def term(self) -> float:
        value = self.factor()
        while True:
            tag = self.peek().tag
            if tag is TokenTag.STAR:
                self.advance()
                value = value * self.factor()
            elif tag is TokenTag.SLASH:
                self.advance()
                den = self.factor()
                try:
                    value = value / den
                except ZeroDivisionError:
                    raise DomainFaultError("quotient", (value, den)) from None
            else:
                return value

    def factor(self) -> float:
        if self.peek().tag is TokenTag.MINUS:
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> float:
        base = self.atom()
        if self.peek().tag is TokenTag.CARET:
            self.advance()
            exponent = self.factor()
            try:
                return math.pow(base, exponent)
            except (ValueError, OverflowError):
                raise DomainFaultError("power", (base, exponent)) from None
        return base

    def atom(self) -> float:
        tok = self.advance()
        if tok.tag is TokenTag.NUMBER:
            return tok.value
        if tok.tag is TokenTag.IDENT:
            name = tok.text
            if self.peek().tag is TokenTag.LPAREN:
                if not self._symbols.is_function(name):
                    raise ParseError(
                        ParseErrorKind.UNKNOWN_IDENTIFIER, tok.position, f"unknown function {name!r}"
                    )
                self.advance()
                self._depth += 1
                arg = self.expr()
                self.expect_rparen()
                self._depth -= 1
                fn = UNARY_FUNCTIONS[name]
                try:
                    return fn(arg)
                except (ValueError, OverflowError):
                    raise DomainFaultError(name, (arg,)) from None
            index = self._symbols.variable_index(name)
            if index is None:
                raise ParseError(
                    ParseErrorKind.UNKNOWN_IDENTIFIER, tok.position, f"unknown variable {name!r}"
                )
            return self._bindings[index]
        if tok.tag is TokenTag.LPAREN:
            self._depth += 1
            value = self.expr()
            self.expect_rparen()
            self._depth -= 1
            return value
        self.fail(tok, "a number, variable, function or '('")


def parse_to_tree(text: str, symbols: SymbolTable | None = None) -> ExprNode:
    """Parse ``text`` into a binary-form expression tree."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    builder = _TreeBuilder(tokenize(text), symbols)
    node = builder.expr()
    tok = builder.peek()
    if tok.tag is not TokenTag.END:
        shown = tok.tag.value if tok.text is None else tok.text
        raise ParseError(ParseErrorKind.TRAILING_INPUT, tok.position, f"trailing input {shown!r}")
    return node


def interpret_string(text: str, symbols: SymbolTable, bindings: Bindings) -> tuple[float, int]:
    """Directly evaluate ``text``; returns (value, tokens consumed)."""
    tokens = tokenize(text)
    interp = _DirectInterpreter(tokens, symbols, bindings)
    value = interp.expr()
    tok = interp.peek()
    if tok.tag is not TokenTag.END:
        shown = tok.tag.value if tok.text is None else tok.text
        raise ParseError(ParseErrorKind.TRAILING_INPUT, tok.position, f"trailing input {shown!r}")
    return value, len(tokens)


def eval_string(text: str, symbols: SymbolTable | None = None, bindings=()) -> float:
    """Evaluate ``text`` with no intermediate tree; re-parses on every call."""
    if symbols is None:
        symbols = DEFAULT_SYMBOLS
    value, _ = interpret_string(text, symbols, as_bindings(bindings))
    return value
