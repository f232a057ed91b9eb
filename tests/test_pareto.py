import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cndkit.errors import EmptyInputError, MeasurementRangeError, ParseError
from cndkit.pareto import (
    CSV_HEADER,
    ModelMeasurement,
    Quadrant,
    QuadrantConfig,
    classify_quadrant,
    export_plot_data,
    load_fixture,
    load_measurements,
    memory_frontier,
    pareto_front,
    place_records,
    resolve_memory_frontier,
)
from conftest import traced
from graphgen import oracle_pareto_front, reference_load_measurements

HEADER_LINE = ",".join(CSV_HEADER)


def _record(model="m", acc=50.0, mem=100.0, experiment="e"):
    return ModelMeasurement(model=model, experiment=experiment, train_acc=acc,
                            test_acc=acc, avg_mem_mb=mem)


class TestLoading:
    def test_caltech_fixture(self):
        records = load_fixture("caltech101")
        assert len(records) == 4
        by_model = {r.model: r for r in records}
        assert by_model["Optimized"].test_acc == 76.21
        assert by_model["Xception"].avg_mem_mb == 874.6
        assert by_model["MobileNetV2"].params == 2_400_000

    def test_unknown_fixture_name_is_capped(self):
        with pytest.raises(KeyError) as exc:
            load_fixture("q" * 5000)
        message = exc.value.args[0]
        assert message.startswith("unknown fixture 'qqq") and len(message) < 200
        assert message.endswith("available: ('caltech101', 'pcb_scratch', 'pcb_pretrained')")

    def test_optional_fields_can_be_empty(self):
        records = load_fixture("pcb_scratch")
        assert all(r.avg_epoch_time_s is None for r in records)
        assert all(r.avg_inf_time_ms is not None for r in records)

    def test_accuracy_out_of_range(self):
        text = HEADER_LINE + "\nm,e,50,120,100,,,\n"
        with pytest.raises(MeasurementRangeError):
            load_measurements(text)

    def test_nonpositive_memory(self):
        text = HEADER_LINE + "\nm,e,50,60,0,,,\n"
        with pytest.raises(MeasurementRangeError):
            load_measurements(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_nonfinite_memory_rejected_with_row(self, cell):
        text = HEADER_LINE + f"\na,e,50,60,100,,,\nb,e,50,60,{cell},,,\n"
        finite = r"^row 3: 'b': avg_mem_mb=.* must be finite"
        with pytest.raises(MeasurementRangeError, match=finite):
            load_measurements(text)

    @pytest.mark.parametrize("cells, message", [
        ("nan,inf,-7", "avg_epoch_time_s=nan must be finite"),
        ("1,inf,", "avg_inf_time_ms=inf must be finite"),
        ("-inf,,", "avg_epoch_time_s=-inf must be finite"),
        ("1,2,-7", "params=-7 must not be negative"),
    ])
    def test_bad_optional_cell_rejected_with_row(self, cells, message):
        text = HEADER_LINE + f"\na,e,50,60,100,,,\nb,e,50,60,100,{cells}\n"
        with pytest.raises(MeasurementRangeError, match=rf"^row 3: 'b': {message}$"):
            load_measurements(text)

    def test_header_only(self):
        assert load_measurements(HEADER_LINE + "\n") == []

    def test_wrong_header(self):
        with pytest.raises(ParseError):
            load_measurements("model,acc\nm,1\n")

    def test_bad_number_reports_location(self):
        text = HEADER_LINE + "\nm,e,50,sixty,100,,,\n"
        with pytest.raises(ParseError) as exc:
            load_measurements(text)
        assert exc.value.row == 2
        assert exc.value.column == "test_acc"

    def test_short_row_rejected(self):
        with pytest.raises(ParseError):
            load_measurements(HEADER_LINE + "\nm,e,50,60\n")

    @pytest.mark.parametrize("bad_row, message", [
        ("m" * 131_073 + ",e,50,60,100,,,", "field larger than field limit"),
        ("a\rb,e,50,60,100,,,", "new-line character seen in unquoted field"),
    ], ids=["oversized-cell", "bare-carriage-return"])
    def test_csv_error_is_a_parse_error_at_its_row(self, bad_row, message):
        text = HEADER_LINE + f"\na,e,50,60,100,,,\n{bad_row}\n"
        with pytest.raises(ParseError, match=f"^malformed CSV: {message}") as exc:
            load_measurements(text)
        assert exc.value.row == 3

    def test_csv_error_in_header_is_at_row_1(self):
        with pytest.raises(ParseError) as exc:
            load_measurements("model\r,experiment\n")
        assert exc.value.row == 1


_PADS = st.tuples(st.text(" \t", max_size=3), st.text(" \t", max_size=3))
_NAMES = st.text(st.sampled_from('ab Z,"-.\t'), min_size=1, max_size=8).filter(str.strip)
_CELL_VALUES = {
    "model": _NAMES,
    "experiment": st.text(st.sampled_from('ex ,"'), max_size=5),
    "train_acc": st.one_of(st.floats(0, 100).map(repr), st.integers(0, 100).map(str)),
    "test_acc": st.one_of(st.floats(0, 100).map(repr), st.integers(0, 100).map(str)),
    "avg_mem_mb": st.floats(0.01, 1e6).map(repr),
    "avg_epoch_time_s": st.one_of(st.just(""), st.floats(0, 1e4).map(repr)),
    "avg_inf_time_ms": st.one_of(st.just(""), st.floats(0, 1e4).map(repr)),
    "params": st.one_of(st.just(""), st.integers(0, 10**9).map(str)),
}
_BLANK_ROWS = st.sampled_from(["", " ", "\t", " ,\t, ", ",,,,,,,", " , , , , , , , "])
# One bad cell per column; each breaks exactly one of the loader's rules.
_BAD_CELLS = {
    "model": ["", " \t"],
    "train_acc": ["abc", "", "120", "-1", "nan", "1e400"],
    "test_acc": ["sixty", "", "100.5", "-0.1", "NaN"],
    "avg_mem_mb": ["x", "", "0", "-3", "inf", "-inf", "nan"],
    "avg_epoch_time_s": ["x", "inf", "-inf", "nan"],
    "avg_inf_time_ms": ["1,5", "Infinity"],
    "params": ["1.5", "x", "-7", "1e3"],
}


def _csv_text(cell: str, pad: tuple[str, str], quote: bool) -> str:
    """One cell padded with spaces and tabs, quoted when it must be (or when
    ``quote``): the padding goes inside the quotes, where csv keeps it."""
    text = pad[0] + cell + pad[1]
    if quote or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def measurement_csvs(draw):
    """``(lines, data rows)``: the lines of a padded measurement CSV with
    blank rows mixed in, and the index in ``lines`` of each record row."""
    lines = [",".join(_csv_text(h, draw(_PADS), False) for h in CSV_HEADER)]
    data_rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(_BLANK_ROWS))
        values = [draw(_CELL_VALUES[column]) for column in CSV_HEADER]
        data_rows.append(len(lines))
        lines.append(",".join(_csv_text(v, draw(_PADS), draw(st.booleans())) for v in values))
    return lines, data_rows


def _outcome(load, text: str):
    try:
        return load(text)
    except (ParseError, MeasurementRangeError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


class TestLoaderMatchesReference:
    """``load_measurements`` against the ``csv.DictReader`` reference loader."""

    @given(measurement_csvs(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_records(self, csv_lines, newline, trailing):
        lines, rows = csv_lines
        text = newline.join(lines) + (newline if trailing else "")
        records = load_measurements(text)
        assert records == reference_load_measurements(text)
        assert len(records) == len(rows)

    @pytest.mark.parametrize("column, bad", [(c, v) for c, cells in _BAD_CELLS.items() for v in cells])
    @given(measurement_csvs().filter(lambda c: c[1]), st.data())
    @settings(max_examples=5, deadline=None)
    def test_same_error_for_one_bad_cell(self, column, bad, csv_lines, data):
        lines, rows = csv_lines
        at = data.draw(st.sampled_from(rows))
        cells = next(csv.reader([lines[at]]))
        cells[CSV_HEADER.index(column)] = bad
        lines = lines[:]
        lines[at] = ",".join(_csv_text(c, ("", ""), False) for c in cells)
        text = "\n".join(lines) + "\n"
        got = _outcome(load_measurements, text)
        assert not isinstance(got, list), f"{lines[at]!r} was accepted"
        assert got == _outcome(reference_load_measurements, text)
        assert got[2] in (at + 1, None)  # a range error carries its row in the message

    @given(measurement_csvs().filter(lambda c: c[1]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_same_error_for_a_wrong_cell_count(self, csv_lines, data):
        lines, rows = csv_lines
        at = data.draw(st.sampled_from(rows))
        lines = lines[:]
        extra = data.draw(st.booleans())
        lines[at] = lines[at] + ",1" if extra else lines[at].rpartition(",")[0]
        text = "\n".join(lines) + "\n"
        got = _outcome(load_measurements, text)
        count = 9 if extra else 7
        assert got[:3] == (ParseError, f"expected 8 cells, got {count} (row {at + 1})", at + 1)
        assert got == _outcome(reference_load_measurements, text)

    EDGE_TEXTS = {
        "no-final-newline": HEADER_LINE + "\na,e,50,60,100,,,\nb,e,40,70,90,,,",
        "crlf-blank-rows": (HEADER_LINE + "\r\n\r\na,e,50,60,100,,,\r\n , ,\r\n"
                            "b,e,40,70,90,1,2,3\r\n\r\n"),
        "quoted-newline": HEADER_LINE + '\n"a\nb",e,50,60,100,,,\n"c",e,40,"70\n",90,,,\n',
        "open-quote-at-end": HEADER_LINE + '\na,e,50,60,100,,,\nb,e,40,70,90,,,"3',
        "open-quote-whole-row": HEADER_LINE + '\na,e,50,60,100,,,\n"b,e,40,70,90,,,',
        "nul-ff-cr-in-cells": HEADER_LINE + '\n"a\x00b\x0cc\rd",e\x0cf\x00,50,60,100,,,\n',
    }

    @pytest.mark.parametrize("text", EDGE_TEXTS.values(), ids=EDGE_TEXTS)
    def test_same_outcome_on_edge_texts(self, text):
        assert _outcome(load_measurements, text) == _outcome(reference_load_measurements, text)

    @pytest.mark.parametrize("text, row", [
        ("", 1),
        (HEADER_LINE + "\na,e,50,60,100,,,\n" + "m" * 131_073 + ",e,50,60,100,,,\n", 3),
    ], ids=["empty", "cell-over-field-limit"])
    def test_same_failure_on_edge_texts(self, text, row):
        # The reference names an empty text's header as wrong and lets csv's
        # own error out; the loader's ParseError is at the same row.
        with pytest.raises((ParseError, csv.Error)) as want:
            reference_load_measurements(text)
        with pytest.raises(ParseError) as got:
            load_measurements(text)
        assert got.value.row == row
        if isinstance(want.value, csv.Error):
            assert got.value.message == f"malformed CSV: {want.value}"
        else:
            assert want.value.row == row


_TEN_POW_400 = "1" + "0" * 76 + "..."  # as echoed: cut to 80 characters


class TestPythonApiTypes:
    # Values the CSV loader never builds, passed to the constructors directly:
    # each is a MeasurementRangeError that names its field.
    @pytest.mark.parametrize("fields, message", [
        (dict(train_acc=10**5000), "'m': train_acc=<int too large to print> outside [0, 100]"),
        (dict(avg_mem_mb=10**400), f"'m': avg_mem_mb={_TEN_POW_400} must be finite"),
        (dict(train_acc="50"), "'m': train_acc must be a number, got '50'"),
        (dict(params=1.5), "'m': params must be an int or None, got 1.5"),
        (dict(model=None), "model must be a string, got None"),
    ], ids=["huge-int-percent", "int-past-float-range", "string-percent", "float-params", "no-model"])
    def test_measurement_fields(self, fields, message):
        values = dict(model="m", experiment="e", train_acc=50, test_acc=50, avg_mem_mb=100)
        with pytest.raises(MeasurementRangeError) as exc:
            ModelMeasurement(**{**values, **fields})
        assert str(exc.value) == message

    @pytest.mark.parametrize("fields, message", [
        (dict(accuracy_frontier=10**5000), "accuracy_frontier=<int too large to print> outside (0, 100)"),
        (dict(memory_frontier=10**400), f"memory_frontier={_TEN_POW_400} must be positive and finite"),
    ], ids=["huge-int-accuracy", "int-past-float-range"])
    def test_config_fields(self, fields, message):
        with pytest.raises(MeasurementRangeError) as exc:
            QuadrantConfig(**fields)
        assert str(exc.value) == message


class TestMemoryFrontier:
    def test_caltech_midpoint(self):
        assert memory_frontier(load_fixture("caltech101")) == 848.8

    def test_pcb_midpoint(self):
        assert memory_frontier(load_fixture("pcb_scratch")) == 871.5

    def test_single_record(self):
        assert memory_frontier([_record(mem=500.0)]) == 500.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            memory_frontier([])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
    def test_explicit_frontier_must_be_positive_and_finite(self, value):
        with pytest.raises(MeasurementRangeError, match="memory_frontier"):
            QuadrantConfig(memory_frontier=value)

    def test_explicit_config_wins(self):
        cfg = QuadrantConfig(memory_frontier=123.0)
        assert resolve_memory_frontier(load_fixture("caltech101"), cfg) == 123.0


class TestQuadrants:
    def test_caltech_placements(self):
        records = load_fixture("caltech101")
        cfg = QuadrantConfig()
        frontier = memory_frontier(records)
        got = {r.model: classify_quadrant(r, cfg, frontier) for r in records}
        assert got == {
            "Optimized": Quadrant.HIGH_ACC_LOW_MEM,
            "Xception": Quadrant.HIGH_ACC_HIGH_MEM,
            "EfficientNetV2B1": Quadrant.LOW_ACC_LOW_MEM,
            "MobileNetV2": Quadrant.LOW_ACC_LOW_MEM,
        }

    def test_pcb_placements(self):
        records = load_fixture("pcb_scratch")
        cfg = QuadrantConfig()
        frontier = memory_frontier(records)
        got = {r.model: classify_quadrant(r, cfg, frontier) for r in records}
        assert got["Optimized"] == Quadrant.HIGH_ACC_LOW_MEM
        assert got["EfficientNetV2B1"] == Quadrant.LOW_ACC_HIGH_MEM

    def test_boundaries_inclusive(self):
        cfg = QuadrantConfig(accuracy_frontier=70.0)
        on_both = _record(acc=70.0, mem=848.8)
        assert classify_quadrant(on_both, cfg, 848.8) == Quadrant.HIGH_ACC_LOW_MEM

    def test_every_record_gets_one_label(self):
        rng = random.Random(5)
        cfg = QuadrantConfig()
        for _ in range(200):
            record = _record(acc=rng.uniform(0, 100), mem=rng.uniform(1, 1000))
            assert classify_quadrant(record, cfg, 500.0) in Quadrant

    def test_frontier_must_be_interior(self):
        with pytest.raises(MeasurementRangeError):
            QuadrantConfig(accuracy_frontier=0.0)
        with pytest.raises(MeasurementRangeError):
            QuadrantConfig(accuracy_frontier=100.0)


class TestParetoFront:
    def test_caltech_front(self):
        front = pareto_front(load_fixture("caltech101"))
        assert [r.model for r in front] == ["EfficientNetV2B1", "MobileNetV2", "Optimized"]

    def test_pcb_front(self):
        front = pareto_front(load_fixture("pcb_scratch"))
        assert [r.model for r in front] == ["MobileNetV2", "Optimized"]

    def test_single_record(self):
        record = _record()
        assert pareto_front([record]) == [record]

    def test_duplicates_survive_together(self):
        a = _record(model="a", acc=60, mem=100)
        b = _record(model="b", acc=60, mem=100)
        front = pareto_front([a, b])
        assert {r.model for r in front} == {"a", "b"}

    def test_no_mutual_dominance_on_front(self):
        rng = random.Random(6)
        for _ in range(50):
            records = [
                _record(model=f"m{i}", acc=round(rng.uniform(0, 100), 1),
                        mem=round(rng.uniform(1, 100), 1))
                for i in range(rng.randint(1, 40))
            ]
            front = pareto_front(records)
            for a in front:
                for b in front:
                    # weak dominance with one strict inequality (acc up, memory down)
                    assert not (a.test_acc >= b.test_acc and a.avg_mem_mb <= b.avg_mem_mb
                                and (a.test_acc > b.test_acc or a.avg_mem_mb < b.avg_mem_mb)) or a == b

    def test_sorted_by_memory(self):
        rng = random.Random(8)
        records = [
            _record(model=f"m{i}", acc=rng.uniform(0, 100), mem=rng.uniform(1, 100))
            for i in range(30)
        ]
        front = pareto_front(records)
        memories = [r.avg_mem_mb for r in front]
        assert memories == sorted(memories)

    def test_permutation_stable(self):
        rng = random.Random(9)
        records = [
            _record(model=f"m{i}", acc=round(rng.uniform(0, 100), 1),
                    mem=round(rng.uniform(1, 100), 1))
            for i in range(40)
        ]
        baseline = pareto_front(records)
        for _ in range(10):
            shuffled = records[:]
            rng.shuffle(shuffled)
            assert pareto_front(shuffled) == baseline

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(10)
        for _ in range(100):
            records = [
                _record(model=f"m{i}", acc=round(rng.uniform(0, 100), 1),
                        mem=round(rng.uniform(1, 100), 1))
                for i in range(rng.randint(1, 50))
            ]
            assert pareto_front(records) == oracle_pareto_front(records)


class TestExportPlotData:
    def test_caltech_export(self):
        records = load_fixture("caltech101")
        text = export_plot_data(records, QuadrantConfig())
        lines = text.strip().splitlines()
        assert lines[0] == "# accuracy_frontier=70"
        assert lines[1] == "# memory_frontier=848.8"
        assert lines[2] == "model,test_acc,avg_mem_mb,quadrant,on_front"
        assert len(lines) == 3 + 4
        assert "Optimized,76.21,847.9,HighAccLowMem,true" in lines

    def test_empty_input_header_only(self):
        text = export_plot_data([], QuadrantConfig(memory_frontier=500.0))
        lines = text.strip().splitlines()
        assert len(lines) == 3

    def test_quadrant_column_consistent(self):
        records = load_fixture("pcb_scratch")
        cfg = QuadrantConfig()
        frontier = resolve_memory_frontier(records, cfg)
        rows = export_plot_data(records, cfg).strip().splitlines()[3:]
        for record, row in zip(records, rows):
            assert classify_quadrant(record, cfg, frontier).value == row.split(",")[3]

    def test_model_cell_quoted_only_when_needed(self):
        records = [
            _record(model="resnet,v2", acc=80, mem=10),
            _record(model='say "hi"', acc=60, mem=20),
            _record(model="plain", acc=50, mem=30),
        ]
        rows = export_plot_data(records, QuadrantConfig()).splitlines()[3:]
        assert rows[0] == '"resnet,v2",80,10,HighAccLowMem,true'
        assert rows[1] == '"say ""hi""",60,20,LowAccLowMem,false'
        assert rows[2] == "plain,50,30,LowAccHighMem,false"
        cells = list(csv.reader(rows))
        assert [len(c) for c in cells] == [5, 5, 5]
        assert [c[0] for c in cells] == ["resnet,v2", 'say "hi"', "plain"]

    def test_fixture_rows_unchanged(self):
        cfg = QuadrantConfig()
        for name in ("caltech101", "pcb_scratch", "pcb_pretrained"):
            records = load_fixture(name)
            frontier = resolve_memory_frontier(records, cfg)
            front = oracle_pareto_front(records)
            rows = export_plot_data(records, cfg).splitlines()[3:]
            assert rows == [
                f"{r.model},{r.test_acc:g},{r.avg_mem_mb:g},"
                f"{classify_quadrant(r, cfg, frontier).value},{'true' if r in front else 'false'}"
                for r in records
            ]

    def test_on_front_matches_equality_with_duplicates(self):
        rng = random.Random(11)
        for _ in range(50):
            records = [
                _record(model=f"m{rng.randint(0, 3)}", acc=rng.choice((40, 60, 80)),
                        mem=rng.choice((10, 20, 30)))
                for _ in range(rng.randint(1, 30))
            ]
            front = oracle_pareto_front(records)
            rows = export_plot_data(records, QuadrantConfig()).splitlines()[3:]
            assert [row.split(",")[4] == "true" for row in rows] == [r in front for r in records]


class TestPlaceRecords:
    def test_matches_separate_derivations(self):
        rng = random.Random(5)
        for _ in range(30):
            records = [
                _record(model=f"m{i}", acc=rng.choice((40, 60, 80)), mem=rng.choice((10, 20, 30)))
                for i in range(rng.randint(1, 20))
            ]
            cfg = QuadrantConfig()
            frontier, front, placements = place_records(records, cfg)
            assert frontier == memory_frontier(records)
            assert front == pareto_front(records)
            assert list(placements) == [
                (r, classify_quadrant(r, cfg, frontier), r in front) for r in records
            ]

    def test_empty_records_use_explicit_frontier(self):
        frontier, front, placements = place_records([], QuadrantConfig(memory_frontier=500.0))
        assert (frontier, front, list(placements)) == (500.0, [], [])


def _sweep_csv(rows: int = 1500) -> str:
    """A measurement CSV of ``rows`` records under one experiment name."""
    rng = random.Random(27)
    return "".join([HEADER_LINE + "\n"] + [
        f"model{i},sweep,{rng.uniform(0, 100):.2f},{rng.uniform(0, 100):.2f},"
        f"{rng.uniform(1, 1000):.3f},{rng.uniform(1, 100):.1f},{rng.uniform(1, 50):.2f},{i * 1000}\n"
        for i in range(rows)
    ])


class TestMemory:
    """Each step holds one copy of its input and output. At the last commit
    before these guards, on the 1,500-record CSV: a load's transient peak
    was 4.2x the text (StringIO's four bytes per character), the front's
    peak 120 bytes per record (a key tuple each) and the export's peak 6.1x
    its output."""

    def test_load_peak_beyond_its_records_stays_under_its_text(self):
        text = _sweep_csv()
        records, kept, peak = traced(lambda: load_measurements(text))
        assert len(records) == 1500
        assert peak - kept <= len(text), (peak - kept, len(text))

    def test_loaded_records_share_one_experiment_string(self):
        records = load_measurements(_sweep_csv(2))
        assert records[0].experiment is records[1].experiment

    def test_front_peak_stays_under_40_bytes_per_record(self):
        records = load_measurements(_sweep_csv())
        _, _, peak = traced(lambda: pareto_front(records))
        assert peak <= 40 * len(records), (peak, len(records))

    def test_export_peak_stays_under_four_times_its_output(self):
        records = load_measurements(_sweep_csv())
        text, _, peak = traced(lambda: export_plot_data(records, QuadrantConfig()))
        assert peak <= 4 * len(text), (peak, len(text))
