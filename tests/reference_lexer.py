"""The per-character scanner that ``evalbench.parser.tokenize`` replaced.

Kept unchanged as an executable specification of the token language: the
property tests in ``test_parser.py`` check that the regex scanner gives
the same tokens, or the same error kind and position, on any text.
"""

import math

from evalbench.errors import ParseError, ParseErrorKind
from evalbench.parser import Token, TokenTag

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
