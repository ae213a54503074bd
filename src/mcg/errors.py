"""Shared exception types, and the decoding of input files into text."""

from __future__ import annotations


class McgError(Exception):
    """Base class for all errors raised by this package."""


class InvalidLabel(McgError):
    """A curve or shift label violates the index ranges of its model."""


class UndefinedSymmetry(McgError):
    """A symmetry name is not resolvable in the model (alias not bound,
    or the symmetry has no label action, like the end-swap tau on S(n))."""


class ModelMismatch(McgError):
    """Two words built over different models were combined."""


class OutOfWindow(McgError):
    """A homology window below the floor of 2 (``normalize --matrix-window 1``)."""


class BudgetExhausted(McgError):
    """The rewrite budget ran out before normalization finished."""

    def __init__(self, spent: int):
        super().__init__(f"rewrite budget exhausted after {spent} applications")
        self.spent = spent


class ScriptError(McgError):
    """Base for proof-script parse/replay errors carrying a source position."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ParseError(ScriptError):
    pass


class UndefinedName(ScriptError):
    pass


class Redefinition(ScriptError):
    pass


class ModelFileError(McgError):
    """Model file error with its position; ``line`` 0 means the file as a whole."""

    def __init__(self, message: str, path: str, line: int):
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.message = message
        self.path = path
        self.line = line


def decode_utf8(data: bytes, path: str) -> str:
    """The UTF-8 text of an input file's bytes; a byte that does not decode
    is an error naming ``path`` and the line it sits on."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # lines numbered as the parsers number them, by str.splitlines
        line = len((data[: e.start].decode("utf-8") + "?").splitlines())
        raise McgError(f"{path}:{line}: not UTF-8 text: byte 0x{data[e.start]:02x} cannot be decoded") from None
