"""Exception hierarchy shared across the toolkit, the one text-file reader and
JSON parser, and the cap on values echoed in error messages."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

ECHO_LIMIT = 80


def capped(value: object, form: Callable[[object], str] = repr) -> str:
    """``form(value)``, its repr by default, cut to about ``ECHO_LIMIT``
    characters, so a message that echoes an outside value stays short. A
    value that cannot be printed (an int past
    ``sys.get_int_max_str_digits()``, or a container holding one) is named
    by its type."""
    try:
        text = form(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT - 3]}..."


class CndkitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CndkitError):
    """A graph, config, or measurement violates a structural constraint."""


class DuplicateIdError(ValidationError):
    pass


class UnknownInputError(ValidationError):
    pass


class ArityError(ValidationError):
    pass


class ShapeMismatchError(ValidationError):
    pass


class NonPositiveDimError(ValidationError):
    pass


class ParseError(CndkitError):
    """Malformed serialized input. Carries best-effort location info."""

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        field: str | None = None,
        row: int | None = None,
        column: str | None = None,
    ):
        self.message = message
        self.line = line
        self.field = field
        self.row = row
        self.column = column
        where = []
        if line is not None:
            where.append(f"line {line}")
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if field is not None:
            where.append(f"field {capped(field)}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class SchemaVersionError(CndkitError):
    """The serialized model declares a schema version we cannot read."""


class InvalidFireSpecError(ValidationError):
    """A fire-module spec breaks the squeeze/expand filter constraint."""

    def __init__(self, message: str, module: str | None = None):
        self.module = module
        super().__init__(message if module is None else f"{capped(module, str)}: {message}")


class UnknownModuleTagError(ValidationError):
    pass


class ModuleStructureError(ValidationError):
    """A module's wiring does not fit the shape a rewrite pass expects."""


class ResidualShapeBrokenError(CndkitError):
    """Residual wiring came out shape-inconsistent; indicates a pass bug."""


class MeasurementRangeError(ValidationError):
    pass


class EmptyInputError(ValidationError):
    pass


def read_text(path: str | Path) -> str:
    """The file's text, decoded as UTF-8; undecodable bytes are a ``ParseError``
    naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def parse_json(text: str, source: str | None = None):
    """``json.loads(text)``, every failure a ``ParseError`` whose message
    names ``source`` when given."""
    import json

    invalid = f"invalid JSON in {source}" if source else "invalid JSON"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{invalid}: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError(f"{invalid}: nested too deeply") from exc
    except ValueError as exc:  # after JSONDecodeError, a ValueError subclass
        raise ParseError(
            f"{invalid}: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
