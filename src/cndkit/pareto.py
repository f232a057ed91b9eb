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
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from importlib import resources
from itertools import groupby
from operator import attrgetter

from .errors import EmptyInputError, MeasurementRangeError, ParseError, capped, chunks, frozen_value

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


@frozen_value
class ModelMeasurement:
    """One measured model in one experiment: accuracies in percent, mean
    memory in MB, and the optional time and parameter columns.

    ``dataclass`` keeps the one ``__init__`` below: it checks the fields in
    order, then writes each slot once by its descriptor, with no
    ``object.__setattr__`` or ``__post_init__`` call. With it and one step per
    row, ``load_measurements`` takes 5.7 ms, not 7.4, on 1,500 rows (README)."""

    model: str
    experiment: str
    train_acc: float
    test_acc: float
    avg_mem_mb: float
    avg_epoch_time_s: float | None = None
    avg_inf_time_ms: float | None = None
    params: int | None = None

    def __init__(self, model: str, experiment: str, train_acc: float, test_acc: float,
                 avg_mem_mb: float, avg_epoch_time_s: float | None = None,
                 avg_inf_time_ms: float | None = None, params: int | None = None):
        if not isinstance(model, str):
            raise MeasurementRangeError(f"model must be a string, got {capped(model)}")
        if not isinstance(experiment, str):
            raise MeasurementRangeError(
                f"{capped(model)}: experiment must be a string, got {capped(experiment)}"
            )
        _check_percent(model, "train_acc", train_acc)
        _check_percent(model, "test_acc", test_acc)
        _check_finite(model, "avg_mem_mb", avg_mem_mb, optional=False)
        _check_finite(model, "avg_epoch_time_s", avg_epoch_time_s)
        _check_finite(model, "avg_inf_time_ms", avg_inf_time_ms)
        if avg_mem_mb <= 0:
            raise MeasurementRangeError(f"{capped(model)}: avg_mem_mb={capped(avg_mem_mb)} must be positive")
        if params is not None and type(params) is not int:
            raise MeasurementRangeError(
                f"{capped(model)}: params must be an int or None, got {capped(params)}"
            )
        if params is not None and params < 0:
            raise MeasurementRangeError(f"{capped(model)}: params={capped(params)} must not be negative")
        _set_model(self, model)
        _set_experiment(self, experiment)
        _set_train_acc(self, train_acc)
        _set_test_acc(self, test_acc)
        _set_avg_mem_mb(self, avg_mem_mb)
        _set_avg_epoch_time_s(self, avg_epoch_time_s)
        _set_avg_inf_time_ms(self, avg_inf_time_ms)
        _set_params(self, params)


(_set_model, _set_experiment, _set_train_acc, _set_test_acc, _set_avg_mem_mb,
 _set_avg_epoch_time_s, _set_avg_inf_time_ms, _set_params) = (
    getattr(ModelMeasurement, name).__set__ for name in ModelMeasurement.__slots__)


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


def _check_finite(model: str, name: str, value: float | None, optional: bool = True) -> None:
    if value is None and optional:
        return
    if type(value) is not float and type(value) is not int:
        raise _not_a_number(model, name, value)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise MeasurementRangeError(f"{capped(model)}: {name}={capped(value)} must be finite")


Placement = tuple[ModelMeasurement, Quadrant, bool]  # (record, quadrant, on_front)


@dataclass(frozen=True)
class QuadrantConfig:
    """The accuracy frontier in percent and the memory frontier in MB, or
    None for the midpoint of the measured minimum and maximum."""

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


def _lines(text: str) -> Iterator[str]:
    """The lines that iterating ``io.StringIO(text)`` gives, each with its
    ``"\n"``, cut one at a time instead of from a UCS-4 copy of the text."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


# csv's text for a "\r" not followed by "\n"; its advice names a Python file mode
_LONE_CR = "new-line character seen in unquoted field"


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(row number, cells)`` per CSV row; a ``csv.Error`` (a cell over the
    field limit, a line break in an unquoted cell) is a ParseError at its row,
    and a lone ``"\\r"`` line end is named as one."""
    row_num = 0
    try:
        for row_num, cells in enumerate(csv.reader(_lines(text)), start=1):
            yield row_num, cells
    except csv.Error as exc:
        message = str(exc)
        if message.startswith(_LONE_CR):
            message = f"{_LONE_CR}: a line ends in a lone \\r, not \\n or \\r\\n"
        raise ParseError(f"malformed CSV: {message}", row=row_num + 1) from exc


def load_measurements(text: str) -> list[ModelMeasurement]:
    """Parse measurement CSV (see CSV_HEADER for the exact column set)."""
    rows = _csv_rows(text)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty input: missing header row", row=1)
    if tuple(h.strip() for h in header[1]) != CSV_HEADER:
        raise ParseError(f"header must be {','.join(CSV_HEADER)}", row=1)
    records: list[ModelMeasurement] = []
    experiments: dict[str, str] = {}  # one string per distinct name, shared by the records
    for row_num, raw in rows:
        cells = list(map(str.strip, raw))
        if not any(cells):
            continue
        if len(cells) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} cells, got {len(cells)}", row=row_num)
        model, experiment, train_acc, test_acc, avg_mem_mb, epoch_s, inf_ms, params = cells
        if not model:
            raise ParseError("model name must not be empty", row=row_num, column="model")
        try:
            records.append(ModelMeasurement(
                model, experiments.setdefault(experiment, experiment),
                float(train_acc), float(test_acc), float(avg_mem_mb),
                float(epoch_s) if epoch_s else None, float(inf_ms) if inf_ms else None,
                int(params) if params else None,
            ))
        except MeasurementRangeError as exc:
            raise MeasurementRangeError(f"row {row_num}: {exc}") from exc
        except ValueError:  # a cell is not a number: name the first one, in column order
            for n in range(2, len(CSV_HEADER)):
                cell, required = cells[n], n < 5  # train_acc, test_acc and avg_mem_mb
                try:
                    if cell or required:
                        (int if CSV_HEADER[n] == "params" else float)(cell)
                except ValueError as exc:
                    raise ParseError(f"cannot parse {capped(cell)}{' as a number' if required else ''}",
                                     row=row_num, column=CSV_HEADER[n]) from exc
            raise
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


def classify_quadrant(
    record: ModelMeasurement, config: QuadrantConfig, frontier_mem: float
) -> Quadrant:
    high_acc = record.test_acc >= config.accuracy_frontier
    low_mem = record.avg_mem_mb <= frontier_mem
    if high_acc:
        return Quadrant.HIGH_ACC_LOW_MEM if low_mem else Quadrant.HIGH_ACC_HIGH_MEM
    return Quadrant.LOW_ACC_LOW_MEM if low_mem else Quadrant.LOW_ACC_HIGH_MEM


def pareto_front(records: list[ModelMeasurement]) -> list[ModelMeasurement]:
    """Non-dominated subset, sorted by ascending memory.

    Single sweep over the records sorted by memory alone: an equal-memory
    group survives only when its best accuracy beats the best seen at
    strictly lower memory, and then only its records at that accuracy, in
    ``(model, experiment)`` order. Duplicated points do not dominate each
    other and are all kept.
    """
    front: list[ModelMeasurement] = []
    best_acc = -math.inf
    by_mem, by_name = attrgetter("avg_mem_mb"), attrgetter("model", "experiment")
    for _mem, group in groupby(sorted(records, key=by_mem), key=by_mem):
        top = [next(group)]  # the group's records at its best accuracy
        for record in group:
            if record.test_acc > top[0].test_acc:
                top = [record]
            elif record.test_acc == top[0].test_acc:
                top.append(record)
        if top[0].test_acc > best_acc:
            best_acc = top[0].test_acc
            front += sorted(top, key=by_name)
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
    frontier_mem = config.memory_frontier
    if frontier_mem is None:
        frontier_mem = memory_frontier(records) if records else float("nan")
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
    return "".join(chunks(plot_lines(config, frontier_mem, placements)))  # see CHUNK_ITEMS


def plot_lines(
    config: QuadrantConfig, frontier_mem: float, placements: Iterable[Placement]
) -> Iterator[str]:
    """Each line of ``export_plot_data``'s text, its newline included, as it is made."""
    yield f"# accuracy_frontier={config.accuracy_frontier:g}\n"
    yield f"# memory_frontier={frontier_mem:g}\n"
    yield "model,test_acc,avg_mem_mb,quadrant,on_front\n"
    for record, quadrant, on_front in placements:
        yield (
            f"{_csv_cell(record.model)},{record.test_acc:g},{record.avg_mem_mb:g},"
            f"{quadrant._value_},{'true' if on_front else 'false'}\n"
        )
