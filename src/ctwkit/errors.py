"""Exception types shared across the toolkit, and the errors of integer
fields that every text reader reports alike."""

import sys


class CtwError(Exception):
    """Base class for all toolkit errors."""


class InstanceError(CtwError):
    """An instance violates a structural invariant (bad job id, overlapping
    hard/soft constraint sets, b > k/2, ...)."""


class ParseError(CtwError):
    """A text input could not be parsed.

    Carries an optional 1-based line/column of the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class SchemaError(CtwError):
    """A structured document (JSON) does not match the expected schema.

    ``path`` locates the offending value, e.g. ``$.atomic[2][0]``.
    """

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


def digit_limit_error(digits: int, line: int, column: int = 1) -> ParseError:
    """The error for a numeral of ``digits`` digits, more than ``int()``
    reads (``sys.get_int_max_str_digits``)."""
    return ParseError(f"integer of {digits} digits exceeds the limit of "
                      f"{sys.get_int_max_str_digits()} digits", line, column)


def read_ints(tokens: list[str], line: int, message: str) -> tuple[int, ...]:
    """``tuple(map(int, tokens))``, or a ParseError at ``line``, column 1,
    for the first token ``int()`` refuses: a numeral longer than ``int()``
    reads gets ``digit_limit_error``, any other token ``message`` with the
    token put in for ``{token!r}``."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        pass
    for token in tokens:
        try:
            int(token)
        except ValueError:
            break
    digits = token[1:] if token[0] in "+-" else token
    if digits.isdecimal():
        raise digit_limit_error(len(digits), line)
    raise ParseError(message.format(token=token), line, 1)
