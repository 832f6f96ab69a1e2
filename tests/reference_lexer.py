"""The hand-written MiniMPI lexer, kept as the reference oracle.

``repro.minilang.lexer.tokenize`` must give the same ``(kind, text,
location)`` stream as :class:`ReferenceLexer`, or raise the same
``LexError`` message at the same location
(``tests/test_lexer.py::TestDifferential``).  Two of its behaviours are
bugs the production lexer fixes, and the differential test leaves them
out: a string literal ending in a backslash at end of input raises
``IndexError`` here, and any Unicode digit (``str.isdigit``) starts or
continues a number here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.minilang.errors import LexError, SourceLocation
from repro.minilang.lexer import KEYWORDS, TokenKind

_SINGLE = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "%": TokenKind.PERCENT,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation


class ReferenceLexer:
    """Tokenizes MiniMPI source text one character at a time."""

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor --------------------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.source[i] if i < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#" or (ch == "/" and self._peek(1) == "/"):
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance()
                self._advance()
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start)
            else:
                return

    # -- token scanners ----------------------------------------------------

    def _scan_number(self) -> Token:
        loc = self._loc()
        text = []
        is_float = False
        while self._peek().isdigit() or self._peek() == "_":
            text.append(self._advance())
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            text.append(self._advance())
            while self._peek().isdigit() or self._peek() == "_":
                text.append(self._advance())
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_float = True
            text.append(self._advance())
            if self._peek() in "+-":
                text.append(self._advance())
            while self._peek().isdigit():
                text.append(self._advance())
        raw = "".join(text).replace("_", "")
        kind = TokenKind.FLOAT if is_float else TokenKind.INT
        return Token(kind, raw, loc)

    def _scan_ident(self) -> Token:
        loc = self._loc()
        text = []
        while self._peek().isalnum() or self._peek() == "_":
            text.append(self._advance())
        word = "".join(text)
        kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        return Token(kind, word, loc)

    def _scan_string(self) -> Token:
        loc = self._loc()
        quote = self._advance()
        text = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string literal", loc)
            ch = self._advance()
            if ch == quote:
                break
            if ch == "\\":
                escaped = self._advance()
                text.append({"n": "\n", "t": "\t"}.get(escaped, escaped))
            else:
                text.append(ch)
        return Token(TokenKind.STRING, "".join(text), loc)

    # -- main loop ----------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                yield Token(TokenKind.EOF, "", self._loc())
                return
            loc = self._loc()
            ch = self._peek()
            if ch.isdigit():
                yield self._scan_number()
            elif ch.isalpha() or ch == "_":
                yield self._scan_ident()
            elif ch in "\"'":
                yield self._scan_string()
            elif ch == "/" and self._peek(1) == "/":
                continue  # comment, handled by trivia (unreachable)
            elif ch in _SINGLE:
                self._advance()
                yield Token(_SINGLE[ch], ch, loc)
            elif ch == "/":
                self._advance()
                yield Token(TokenKind.SLASH, "/", loc)
            elif ch == "=":
                self._advance()
                if self._peek() == "=":
                    self._advance()
                    yield Token(TokenKind.EQ, "==", loc)
                else:
                    yield Token(TokenKind.ASSIGN, "=", loc)
            elif ch == "<":
                self._advance()
                if self._peek() == "=":
                    self._advance()
                    yield Token(TokenKind.LE, "<=", loc)
                else:
                    yield Token(TokenKind.LT, "<", loc)
            elif ch == ">":
                self._advance()
                if self._peek() == "=":
                    self._advance()
                    yield Token(TokenKind.GE, ">=", loc)
                else:
                    yield Token(TokenKind.GT, ">", loc)
            elif ch == "!":
                self._advance()
                if self._peek() == "=":
                    self._advance()
                    yield Token(TokenKind.NE, "!=", loc)
                else:
                    yield Token(TokenKind.NOT, "!", loc)
            elif ch == "&":
                self._advance()
                if self._peek() == "&":
                    self._advance()
                    yield Token(TokenKind.AND, "&&", loc)
                else:
                    yield Token(TokenKind.AMP, "&", loc)
            elif ch == "|":
                self._advance()
                if self._peek() == "|":
                    self._advance()
                    yield Token(TokenKind.OR, "||", loc)
                else:
                    raise LexError(f"unexpected character {ch!r}", loc)
            else:
                raise LexError(f"unexpected character {ch!r}", loc)
