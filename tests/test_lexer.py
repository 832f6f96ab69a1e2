"""Lexer tests, including a differential test against the hand-written
reference lexer in ``tests/reference_lexer.py``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minilang.errors import LexError, SourceLocation
from repro.minilang.lexer import TokenKind, tokenize
from tests.reference_lexer import ReferenceLexer


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)][:-1]  # drop EOF


class TestBasics:
    def test_empty_source_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_integers(self):
        toks = tokenize("42 0 1_000")
        assert [t.int_value for t in toks[:-1]] == [42, 0, 1000]

    def test_floats(self):
        toks = tokenize("3.5 1e6 2.5e-3 1E+2")
        assert all(t.kind is TokenKind.FLOAT for t in toks[:-1])
        assert toks[0].float_value == 3.5
        assert toks[1].float_value == 1e6
        assert toks[2].float_value == 2.5e-3

    def test_int_dot_not_float_without_digit(self):
        # "1." followed by identifier must not absorb the dot
        with pytest.raises(LexError):
            tokenize("1.x")

    def test_identifiers_and_keywords(self):
        toks = tokenize("def main var x for ANY true false")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENT
        assert toks[2].kind is TokenKind.KEYWORD
        assert toks[7].text == "false"

    def test_strings(self):
        toks = tokenize('"hello" \'world\'')
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].text == "hello"
        assert toks[1].text == "world"

    def test_string_escapes(self):
        toks = tokenize(r'"a\nb\t\"q\""')
        assert toks[0].text == 'a\nb\t"q"'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')


class TestOperators:
    def test_two_char_operators(self):
        assert kinds("== != <= >= && ||")[:-1] == [
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.AND,
            TokenKind.OR,
        ]

    def test_single_char_operators(self):
        assert kinds("+ - * / % < > = ! &")[:-1] == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.ASSIGN,
            TokenKind.NOT,
            TokenKind.AMP,
        ]

    def test_punctuation(self):
        assert kinds("(){},;")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.COMMA,
            TokenKind.SEMI,
        ]

    def test_single_pipe_rejected(self):
        with pytest.raises(LexError):
            tokenize("a | b")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestComments:
    def test_line_comment_slashes(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_line_comment_hash(self):
        assert texts("a # comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")


class TestLocations:
    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].location.line == 1
        assert toks[1].location.line == 2
        assert toks[2].location.line == 3
        assert toks[2].location.column == 3

    def test_filename_recorded(self):
        toks = tokenize("x", filename="foo.mm")
        assert toks[0].location.filename == "foo.mm"
        assert str(toks[0].location) == "foo.mm:1"


class TestFixedErrors:
    """Inputs on which the reference lexer misbehaves."""

    def test_backslash_at_end_of_input_is_an_unterminated_string(self):
        # the reference raises IndexError here
        with pytest.raises(LexError, match="unterminated string literal") as exc:
            tokenize('x = "abc\\')
        assert exc.value.location == SourceLocation("<string>", 1, 5)

    @pytest.mark.parametrize(
        "source", ["\u00b2", "x = \u00b2;", "x = 1\u00b2;", "\u0663", "\u00bd"]
    )
    def test_unicode_digits_are_unexpected_characters(self, source):
        # "\u00b2" (superscript two) and "\u0663" (Arabic-Indic three) pass
        # str.isdigit(), so the reference lexed them as INT
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_unicode_letters_still_make_identifiers(self):
        toks = tokenize("\u00e9t\u00e9 a\u00b2 \u4e00")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            (TokenKind.IDENT, "\u00e9t\u00e9"),
            (TokenKind.IDENT, "a\u00b2"),
            (TokenKind.IDENT, "\u4e00"),
        ]


#: Pieces a differential input is glued from: every token class, its
#: near misses, trivia, error triggers and non-ASCII look-alikes.
FRAGMENTS = [
    "def", "var", "for", "while", "if", "else", "return", "ANY", "true", "false",
    "x", "_y", "a1", "compute", "\u00e9", "\u00df", "\u4e00",
    "0", "42", "1_000", "7_", "3.5", "1.", "1._5", ".5", "1e6", "2.5e-3", "1E+2", "1e", "1e+",
    '"s"', "'q'", '"a\\nb"', '"\\\\"', '"\\"', "'\\''", '"', "'", "\\", '"x\ny"',
    "//c\n", "#c\n", "/*c*/", "/*\n*/", "/*", "*/", "/*/",
    " ", "\t", "\n", "\r\n", "\x0c", "\u00a0",
    "(", ")", "{", "}", ",", ";", "=", "==", "!", "!=", "<", "<=", ">", ">=",
    "+", "-", "*", "/", "%", "&", "&&", "|", "||", "$", ".",
    "\u00b2", "\u0663", "\u00bd", "\u2160",
]

SOURCES = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
    st.text(max_size=40),
)


def _reference(source):
    """The reference's tokens up to its first error, and that error."""
    tokens = []
    try:
        for tok in ReferenceLexer(source, "f.mm").tokens():
            tokens.append((tok.kind, tok.text, tok.location))
    except LexError as exc:
        return tokens, (str(exc), exc.location)
    except IndexError:
        return tokens, IndexError
    return tokens, None


class TestDifferential:
    @settings(max_examples=600, deadline=None)
    @given(SOURCES)
    def test_tokenize_agrees_with_the_reference(self, source):
        want, error = _reference(source)
        if any(
            kind in (TokenKind.INT, TokenKind.FLOAT) and not text.isascii()
            for kind, text, _ in want
        ):
            return  # a Unicode digit: see TestFixedErrors
        if error is IndexError:
            with pytest.raises(LexError, match="unterminated string literal"):
                tokenize(source, "f.mm")
            return
        if error is not None:
            with pytest.raises(LexError) as exc:
                tokenize(source, "f.mm")
            assert (str(exc.value), exc.value.location) == error
            return
        got = [(t.kind, t.text, t.location) for t in tokenize(source, "f.mm")]
        assert got == want
