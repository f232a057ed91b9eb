"""Exception hierarchy shared across the toolkit, the one text-file reader and
JSON parser, the cap on values echoed in error messages, the escape for names
printed within a line of output, the chunking both text writers share, and the
frozen slotted dataclass form of every IR value and measurement record."""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path
from typing import Callable

ECHO_LIMIT = 80
# A writer that joins its chunks once holds the chunks, its output and the item
# strings of one chunk: about twice the output. Each item string has its own
# object header, so a list of every item, joined at the end, held 2.5 to 3.4
# times the output. 64 items keep the headers' share and one chunk small.
CHUNK_ITEMS = 64


def capped(value: object, form: Callable[[object], str] = repr, limit: int = ECHO_LIMIT) -> str:
    """``form(value)``, its repr by default, cut to ``limit`` characters, so a
    message that echoes an outside value stays short. A value that cannot be
    printed (an int past ``sys.get_int_max_str_digits()``, or a container
    holding one) is named by its type."""
    try:
        text = form(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"
    return text if len(text) <= limit else f"{text[:limit - 3]}..."


def printable(text: str) -> str:
    """``text`` with each character that ``str.isprintable`` rejects (a line
    break, ``\\x1b``, ``\\u2028``, a lone surrogate) replaced by its ``repr``
    escape, so that an outside name printed in a line of output stays on that
    line. Printable text comes back unchanged."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def chunks(texts: Iterable[str]) -> Iterator[str]:
    """``texts`` joined ``CHUNK_ITEMS`` at a time, for a writer to join once
    or to write out as they come."""
    texts = iter(texts)
    while batch := list(islice(texts, CHUNK_ITEMS)):
        yield "".join(batch)


def frozen_value(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass that refuses a set or delete with
    ``FrozenInstanceError`` as an unslotted one does: ``dataclass``'s own
    methods test the class ``slots=True`` replaced, so raised ``TypeError``."""
    from dataclasses import FrozenInstanceError, dataclass  # not at import: the CLI loads this module

    cls = dataclass(frozen=True, slots=True)(cls)

    def refuse(verb: str, allowed: Callable) -> Callable:
        def method(self, name, *value):
            if type(self) is cls or name in cls.__dataclass_fields__:
                raise FrozenInstanceError(f"cannot {verb} field {name!r}")
            allowed(self, name, *value)  # a subclass's own name
        return method

    cls.__setattr__ = refuse("assign to", object.__setattr__)
    cls.__delattr__ = refuse("delete", object.__delattr__)
    return cls


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


def unknown_keys(what: str, keys: Iterable[str], allowed: frozenset[str], field: str) -> ParseError:
    """The ParseError at ``field`` naming, sorted, the ``keys`` not in
    ``allowed``: a key a reader would skip is likely a misspelt one."""
    return ParseError(f"unknown {what}: {capped(sorted(set(keys).difference(allowed)))}", field=field)


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
    """The file's text, decoded as UTF-8, less one leading byte-order mark
    (U+FEFF, as ``utf-8-sig`` drops it); undecodable bytes are a
    ``ParseError`` naming the file and the first one's offset in it. Line
    ends are kept as written: a ``"\\r"`` in a quoted CSV cell stays one."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    # Decoded as plain UTF-8, so that offsets count the mark and a cut-off
    # mark is an error: utf-8-sig's stream decoder reads b"\xef\xbb" as "".
    return text[1:] if text.startswith("\ufeff") else text


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
