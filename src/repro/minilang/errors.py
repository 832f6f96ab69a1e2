"""Error types for the MiniMPI frontend."""

from __future__ import annotations

__all__ = ["MiniLangError", "LexError", "ParseError", "SourceLocation"]

from dataclasses import dataclass


@dataclass(frozen=True, order=True, init=False)
class SourceLocation:
    """A position in a MiniMPI source file.

    ScalAna reports root causes as ``file:line`` (e.g. ``bval3d.F:155``);
    every AST node, PSG vertex, and detection report carries one of these.
    """

    filename: str
    line: int
    column: int = 0

    def __init__(self, filename: str, line: int, column: int = 0) -> None:
        # The lexer makes one per token.  Filling __dict__ directly skips
        # the three object.__setattr__ calls of a generated frozen __init__.
        attrs = self.__dict__
        attrs["filename"] = filename
        attrs["line"] = line
        attrs["column"] = column

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


class MiniLangError(Exception):
    """Base class for frontend errors, carrying a source location."""

    def __init__(self, message: str, location: SourceLocation | None = None) -> None:
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(MiniLangError):
    """Raised on an unrecognized character or malformed literal."""


class ParseError(MiniLangError):
    """Raised on a syntax error."""
