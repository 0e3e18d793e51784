"""Exception types shared across the package, its one JSON reader, and
the key check of its JSON loaders.

Precondition violations raise subclasses of BlockatlasError; internal
consistency failures raise InvariantViolation (the CLI maps the former to
exit code 2 and the latter to exit code 1).
"""

import json


class BlockatlasError(Exception):
    """Base class for all domain errors raised by this package."""


class DividesModulus(BlockatlasError):
    """The prime divides the base, so no multiplicative order exists."""


class BoundExceeded(BlockatlasError):
    """An input exceeds a configured desk-scale bound."""


class LengthTooShort(BlockatlasError):
    """Requested beta-set length is smaller than the number of parts."""


class NotSupported(BlockatlasError):
    """The operation is outside the supported family/configuration."""


class BadPrimeHypothesis(BlockatlasError):
    """A block-theoretic hypothesis on the prime fails; the message names it."""


class InvalidDatum(BlockatlasError):
    """A root datum fails its structural invariants."""


class ParseError(BlockatlasError):
    """Malformed input file; carries location information when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None and column is not None:
            prefix = f"line {line}, column {column}: "
        elif line is not None:
            prefix = f"line {line}: "
        else:
            prefix = ""
        super().__init__(prefix + message)
        self.line = line
        self.column = column


class InvariantViolation(Exception):
    """An internal cross-check failed; this is a defect, not a usage error."""


def parse_json(text: str):
    """The value of a JSON input file; malformed JSON reports line and
    column, and nesting too deep for the decoder is a ParseError too."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON is nested too deeply to decode") from exc


def only_keys(obj: dict, known: tuple, what: str) -> None:
    """Raise a ParseError naming the first key of obj outside known."""
    for key in obj:
        if key not in known:
            raise ParseError(f"{what} has the unknown key {key!r}")
