"""Dual-objective model selection over measurement records.

Records carry measured accuracy and memory per model; the analysis classifies
each record into accuracy/memory quadrants (accuracy frontier defaulting to
70%, memory frontier at the midpoint of the observed min and max) and
extracts the non-dominated set for the two objectives: maximize test
accuracy, minimize average memory. Test accuracy drives classification;
training accuracy and the time columns are carried but never enter
dominance.

Boundary rules are inclusive: a record exactly on the accuracy frontier is
High Accuracy, one exactly on the memory frontier is Low Memory.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from importlib import resources
from itertools import groupby, takewhile
from operator import attrgetter

from .errors import EmptyInputError, MeasurementRangeError, ParseError, capped

CSV_HEADER = (
    "model",
    "experiment",
    "train_acc",
    "test_acc",
    "avg_mem_mb",
    "avg_epoch_time_s",
    "avg_inf_time_ms",
    "params",
)

FIXTURE_NAMES = ("caltech101", "pcb_scratch", "pcb_pretrained")


class Quadrant(enum.Enum):
    HIGH_ACC_LOW_MEM = "HighAccLowMem"
    HIGH_ACC_HIGH_MEM = "HighAccHighMem"
    LOW_ACC_LOW_MEM = "LowAccLowMem"
    LOW_ACC_HIGH_MEM = "LowAccHighMem"


@dataclass(frozen=True, slots=True)
class ModelMeasurement:
    model: str
    experiment: str
    train_acc: float
    test_acc: float
    avg_mem_mb: float
    avg_epoch_time_s: float | None = None
    avg_inf_time_ms: float | None = None
    params: int | None = None

    def __post_init__(self):
        if not isinstance(self.model, str):
            raise MeasurementRangeError(f"model must be a string, got {capped(self.model)}")
        if not isinstance(self.experiment, str):
            raise MeasurementRangeError(
                f"{capped(self.model)}: experiment must be a string, got {capped(self.experiment)}"
            )
        _check_percent(self.model, "train_acc", self.train_acc)
        _check_percent(self.model, "test_acc", self.test_acc)
        _check_finite(self.model, "avg_mem_mb", self.avg_mem_mb)
        _check_finite(self.model, "avg_epoch_time_s", self.avg_epoch_time_s)
        _check_finite(self.model, "avg_inf_time_ms", self.avg_inf_time_ms)
        if self.avg_mem_mb <= 0:
            raise MeasurementRangeError(
                f"{capped(self.model)}: avg_mem_mb={capped(self.avg_mem_mb)} must be positive"
            )
        if self.params is not None and type(self.params) is not int:
            raise MeasurementRangeError(
                f"{capped(self.model)}: params must be an int or None, got {capped(self.params)}"
            )
        if self.params is not None and self.params < 0:
            raise MeasurementRangeError(
                f"{capped(self.model)}: params={capped(self.params)} must not be negative"
            )


# Numbers must be exact ints or floats: a string, None or a bool is not a
# measurement. An int past the float range counts as infinite, since every
# use of the value (midpoints, ``:g`` output) turns it into a float. The
# type tests are inline: they run on every field of every loaded row.
_NUMBER_TYPES = (int, float)
_FLOAT_MAX = sys.float_info.max


def _not_a_number(model: str, name: str, value: object) -> MeasurementRangeError:
    return MeasurementRangeError(f"{capped(model)}: {name} must be a number, got {capped(value)}")


def _check_percent(model: str, name: str, value: float) -> None:
    if type(value) is not float and type(value) is not int:
        raise _not_a_number(model, name, value)
    if not 0.0 <= value <= 100.0:
        raise MeasurementRangeError(f"{capped(model)}: {name}={capped(value)} outside [0, 100]")


def _check_finite(model: str, name: str, value: float | None) -> None:
    if value is None:
        return
    if type(value) is not float and type(value) is not int:
        raise _not_a_number(model, name, value)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise MeasurementRangeError(f"{capped(model)}: {name}={capped(value)} must be finite")


Placement = tuple[ModelMeasurement, Quadrant, bool]  # (record, quadrant, on_front)


@dataclass(frozen=True)
class QuadrantConfig:
    accuracy_frontier: float = 70.0
    memory_frontier: float | None = None  # None -> midpoint of min/max

    def __post_init__(self):
        acc, mem = self.accuracy_frontier, self.memory_frontier
        if type(acc) not in _NUMBER_TYPES:
            raise MeasurementRangeError(f"accuracy_frontier must be a number, got {capped(acc)}")
        if not 0.0 < acc < 100.0:
            raise MeasurementRangeError(f"accuracy_frontier={capped(acc)} outside (0, 100)")
        if mem is not None and type(mem) not in _NUMBER_TYPES:
            raise MeasurementRangeError(f"memory_frontier must be a number or None, got {capped(mem)}")
        if mem is not None and not 0 < mem <= _FLOAT_MAX:
            raise MeasurementRangeError(f"memory_frontier={capped(mem)} must be positive and finite")


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ParseError(f"cannot parse {capped(value)} as a number", row=row, column=column) from exc


def _parse_optional(value: str, row: int, column: str, kind) -> float | int | None:
    if not value:
        return None
    try:
        return kind(value)
    except ValueError as exc:
        raise ParseError(f"cannot parse {capped(value)}", row=row, column=column) from exc


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(row number, cells)`` per CSV row; a ``csv.Error`` (a cell over the
    field limit, a line break in an unquoted cell) is a ParseError at its row."""
    row_num = 0
    try:
        for row_num, cells in enumerate(csv.reader(io.StringIO(text)), start=1):
            yield row_num, cells
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", row=row_num + 1) from exc


def load_measurements(text: str) -> list[ModelMeasurement]:
    """Parse measurement CSV (see CSV_HEADER for the exact column set)."""
    rows = _csv_rows(text)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty input: missing header row", row=1)
    if tuple(h.strip() for h in header[1]) != CSV_HEADER:
        raise ParseError(
            f"header must be {','.join(CSV_HEADER)}", row=1
        )
    records: list[ModelMeasurement] = []
    for row_num, raw in rows:
        cells = [c.strip() for c in raw]
        if not any(cells):
            continue
        if len(cells) != len(CSV_HEADER):
            raise ParseError(
                f"expected {len(CSV_HEADER)} cells, got {len(cells)}", row=row_num
            )
        model, experiment, train_acc, test_acc, avg_mem_mb, epoch_s, inf_ms, params = cells
        if not model:
            raise ParseError("model name must not be empty", row=row_num, column="model")
        try:
            records.append(
                ModelMeasurement(
                    model,
                    experiment,
                    _parse_float(train_acc, row_num, "train_acc"),
                    _parse_float(test_acc, row_num, "test_acc"),
                    _parse_float(avg_mem_mb, row_num, "avg_mem_mb"),
                    _parse_optional(epoch_s, row_num, "avg_epoch_time_s", float),
                    _parse_optional(inf_ms, row_num, "avg_inf_time_ms", float),
                    _parse_optional(params, row_num, "params", int),
                )
            )
        except MeasurementRangeError as exc:
            raise MeasurementRangeError(f"row {row_num}: {exc}") from exc
    return records


def load_fixture(name: str) -> list[ModelMeasurement]:
    """Load one of the bundled measurement sets (see FIXTURE_NAMES)."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {capped(name)}; available: {FIXTURE_NAMES}")
    text = (resources.files("cndkit") / "fixtures" / f"{name}.csv").read_text(encoding="utf-8")
    return load_measurements(text)


def memory_frontier(records: list[ModelMeasurement]) -> float:
    """Midpoint of the smallest and largest measured memory."""
    if not records:
        raise EmptyInputError("memory_frontier needs at least one record")
    values = [r.avg_mem_mb for r in records]
    return (min(values) + max(values)) / 2


def resolve_memory_frontier(records: list[ModelMeasurement], config: QuadrantConfig) -> float:
    if config.memory_frontier is not None:
        return config.memory_frontier
    return memory_frontier(records)


def classify_quadrant(
    record: ModelMeasurement, config: QuadrantConfig, frontier_mem: float
) -> Quadrant:
    high_acc = record.test_acc >= config.accuracy_frontier
    low_mem = record.avg_mem_mb <= frontier_mem
    if high_acc:
        return Quadrant.HIGH_ACC_LOW_MEM if low_mem else Quadrant.HIGH_ACC_HIGH_MEM
    return Quadrant.LOW_ACC_LOW_MEM if low_mem else Quadrant.LOW_ACC_HIGH_MEM


def dominates(a: ModelMeasurement, b: ModelMeasurement) -> bool:
    """Weak dominance with one strict inequality (acc up, memory down)."""
    return (
        a.test_acc >= b.test_acc
        and a.avg_mem_mb <= b.avg_mem_mb
        and (a.test_acc > b.test_acc or a.avg_mem_mb < b.avg_mem_mb)
    )


def _sort_key(record: ModelMeasurement):
    return (record.avg_mem_mb, -record.test_acc, record.model, record.experiment)


def pareto_front(records: list[ModelMeasurement]) -> list[ModelMeasurement]:
    """Non-dominated subset, sorted by ascending memory.

    Single sweep over the memory-sorted records, which ``_sort_key`` orders
    by descending accuracy within an equal-memory group: only a group's
    leading, highest-accuracy records survive, and a group survives only
    when it improves on the best accuracy seen at strictly lower memory.
    Duplicated points do not dominate each other and are all kept.
    """
    front: list[ModelMeasurement] = []
    best_acc = -math.inf
    for _mem, group in groupby(sorted(records, key=_sort_key), key=attrgetter("avg_mem_mb")):
        first = next(group)
        if first.test_acc > best_acc:
            best_acc = first.test_acc
            front.append(first)
            front.extend(takewhile(lambda r: r.test_acc == best_acc, group))
    return front


def _csv_cell(text: str) -> str:
    """Quote a cell RFC 4180 style when it holds a comma, quote or line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def place_records(
    records: list[ModelMeasurement], config: QuadrantConfig
) -> tuple[float, list[ModelMeasurement], Iterator[Placement]]:
    """The memory frontier, ``pareto_front(records)`` and, lazily, one
    ``(record, quadrant, on_front)`` per record in input order.

    Without records the frontier is the explicit one, else NaN. Front
    membership is by identity: equal records always land in the same front
    group, so this matches equality and keeps the sweep O(n log n).
    """
    if records or config.memory_frontier is not None:
        frontier_mem = resolve_memory_frontier(records, config)
    else:
        frontier_mem = float("nan")
    front = pareto_front(records)
    on_front_ids = {id(r) for r in front}
    placements = (
        (r, classify_quadrant(r, config, frontier_mem), id(r) in on_front_ids) for r in records
    )
    return frontier_mem, front, placements


def export_plot_data(records: list[ModelMeasurement], config: QuadrantConfig) -> str:
    """CSV of (model, test_acc, avg_mem_mb, quadrant, on_front) rows plus
    comment lines carrying both frontier values.

    Model names are the only free-text cell and are quoted when needed.
    """
    frontier_mem, _front, placements = place_records(records, config)
    return plot_data(config, frontier_mem, placements)


def plot_data(config: QuadrantConfig, frontier_mem: float, placements: Iterable[Placement]) -> str:
    """The text of ``export_plot_data`` from the memory frontier and
    placements that ``place_records`` gave for ``config``."""
    lines = [
        f"# accuracy_frontier={config.accuracy_frontier:g}",
        f"# memory_frontier={frontier_mem:g}",
        "model,test_acc,avg_mem_mb,quadrant,on_front",
    ]
    for record, quadrant, on_front in placements:
        lines.append(
            f"{_csv_cell(record.model)},{record.test_acc:g},{record.avg_mem_mb:g},"
            f"{quadrant.value},{'true' if on_front else 'false'}"
        )
    return "\n".join(lines) + "\n"
