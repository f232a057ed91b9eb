"""Exception hierarchy shared across the toolkit, and the one text-file reader."""

from __future__ import annotations

from pathlib import Path


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
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class SchemaVersionError(CndkitError):
    """The serialized model declares a schema version we cannot read."""


class InvalidFireSpecError(ValidationError):
    """A fire-module spec breaks the squeeze/expand filter constraint."""

    def __init__(self, message: str, module: str | None = None):
        self.module = module
        super().__init__(message if module is None else f"{module}: {message}")


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
