"""Regex lexer for MiniMPI.

One compiled master pattern matches a whole token, or a whole run of
whitespace and comments, per step; newlines inside a match advance the
line.  ``//`` and ``#`` line comments, ``/* */`` block comments.  Numbers
are ASCII ``[0-9]`` only (``_`` separators allowed); identifiers start
with a letter or ``_`` and continue with word characters.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from repro.minilang.errors import LexError, SourceLocation

__all__ = ["TokenKind", "Token", "tokenize", "KEYWORDS"]


class TokenKind(Enum):
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    # punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMI = ";"
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&&"
    OR = "||"
    NOT = "!"
    AMP = "&"
    EOF = "EOF"

    # Members are singletons compared by identity, so the identity hash is
    # consistent; it spares the parser's kind-set lookups Enum's Python-level
    # __hash__.
    __hash__ = object.__hash__


KEYWORDS = frozenset(
    {
        "def",
        "var",
        "for",
        "while",
        "if",
        "else",
        "return",
        "ANY",
        "true",
        "false",
    }
)

#: Keyword and operator spellings -> kind; other words are identifiers.
_KINDS = {word: TokenKind.KEYWORD for word in KEYWORDS} | {
    kind.value: kind for kind in TokenKind if not kind.value.isalpha()
}

#: One alternative per token class, tried in order; ``bad`` takes any
#: character nothing else matches, so consecutive matches tile the source.
_TOKEN = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|(?:\#|//)[^\n]*|/\*.*?\*/)+)
    |(?P<word>[^\W\d]\w*)
    |(?P<op>==|!=|<=|>=|&&|\|\||[-+*%<>=!&(){},;]|/(?!\*))
    |(?P<num>[0-9][0-9_]*(?:\.[0-9][0-9_]*)?(?:[eE][+-]?[0-9]+)?)
    |(?P<str>"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')
    |(?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


class Token(NamedTuple):
    kind: TokenKind
    text: str
    location: SourceLocation

    @property
    def int_value(self) -> int:
        return int(self.text)

    @property
    def float_value(self) -> float:
        return float(self.text)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Tokenize ``source`` fully, returning a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    ident, kinds = TokenKind.IDENT, _KINDS
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        text = m[0]
        if group == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        start = m.start()
        loc = SourceLocation(filename, line, start - line_start + 1)
        if group == "word":
            # [^\W\d] also admits non-ASCII numerals such as "\u00bd"
            if text[0] > "\x7f" and not text[0].isalpha():
                raise LexError(f"unexpected character {text[0]!r}", loc)
            append(Token(kinds.get(text, ident), text, loc))
        elif group == "op":
            append(Token(kinds[text], text, loc))
        elif group == "num":
            if "_" in text:
                text = text.replace("_", "")
            kind = TokenKind.INT if text.isdigit() else TokenKind.FLOAT
            append(Token(kind, text, loc))
        elif group == "str":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(Token(TokenKind.STRING, body, loc))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif text in "\"'":
            raise LexError("unterminated string literal", loc)
        elif source.startswith("/*", start):
            raise LexError("unterminated block comment", loc)
        else:
            raise LexError(f"unexpected character {text!r}", loc)
    loc = SourceLocation(filename, line, len(source) - line_start + 1)
    append(Token(TokenKind.EOF, "", loc))
    return tokens
