import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cndkit
from cndkit.cli import build_parser
from cndkit.errors import capped
from cndkit.graph import Conv2D, Dense, GlobalAvgPool, Input, LayerNode, ModelGraph, TensorShape
from cndkit.pareto import CSV_HEADER
from cndkit.serialize import save_model, serialize
from cndkit.zoo import DEFAULT_OPTIMIZED_CONFIG, build_xception
from conftest import run_cli


def fixture_path(name):
    return str(resources.files("cndkit") / "fixtures" / f"{name}.csv")


def default_specs_json():
    cfg = DEFAULT_OPTIMIZED_CONFIG
    specs = {}
    for i, s in enumerate(cfg.entry_fire):
        specs[f"entry_flow/m{i + 2}"] = {"s1x1": s.s1x1, "e1x1": s.e1x1, "e3x3": s.e3x3}
    for i, s in enumerate(cfg.middle_fire):
        specs[f"middle_flow/m{i + 5}"] = {"s1x1": s.s1x1, "e1x1": s.e1x1, "e3x3": s.e3x3}
    return json.dumps(specs)


class TestBuild:
    def test_xception_summary(self):
        result = run_cli(["build", "xception", "--classes", "101"])
        assert result.exit_code == 0
        assert "21.1M" in result.output

    def test_optimized_summary(self):
        result = run_cli(["build", "optimized-xception", "--classes", "101"])
        assert result.exit_code == 0
        assert "15.8M" in result.output

    def test_mobilenet_summary(self):
        result = run_cli(["build", "mobilenetv2", "--input", "224x224x3"])
        assert result.exit_code == 0
        assert "2.4M" in result.output

    def test_single_class_rejected(self):
        result = run_cli(["build", "xception", "--classes", "1"])
        assert result.exit_code == 1

    def test_unwritable_out_path(self):
        result = run_cli(
            ["build", "xception", "--out", "/no/such/dir/model.json"]
        )
        assert result.exit_code == 2

    def test_malformed_input_is_usage_error_exit_2(self):
        # Usage errors share exit code 2 with I/O errors.
        result = run_cli(["build", "xception", "--input", "1x2"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("usage: cndkit build ")
        assert "cndkit build: error: argument --input: expected HxWxC, got '1x2'\n" in result.stderr

    @pytest.mark.parametrize("value", ["a" * 5000, "a" * 5000 + "x1x1"], ids=["whole", "one-dim"])
    def test_long_malformed_input_is_capped(self, value):
        result = run_cli(["build", "xception", "--input", value])
        assert result.exit_code == 2
        error = result.output.splitlines()[-1]
        assert error.startswith("cndkit build: error: argument --input: ") and len(error) < 160, error

    @pytest.mark.parametrize("model", ["xception", "mobilenetv2"])
    def test_config_rejected_for_models_that_take_none(self, model):
        result = run_cli(["build", model, "--config", "/nonexistent/none.json"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("usage: cndkit build ")
        assert (f"cndkit build: error: --config applies to optimized-xception only, not {model}\n"
                in result.stderr)

    def test_bad_config_is_parse_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = run_cli(
            ["build", "optimized-xception", "--config", str(cfg)]
        )
        assert result.exit_code == 3

    def test_eq2_violating_config_is_constraint_error(self, tmp_path):
        cfg = {
            "entry_fire": [
                {"s1x1": 224, "e1x1": 96, "e3x3": 128},
                {"s1x1": 128, "e1x1": 192, "e3x3": 256},
                {"s1x1": 256, "e1x1": 364, "e3x3": 728},
            ],
            "middle_fire": [{"s1x1": 414, "e1x1": 600, "e3x3": 728}] * 8,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        result = run_cli(["build", "optimized-xception", "--config", str(path)])
        assert result.exit_code == 1


class TestTransform:
    @pytest.fixture()
    def baseline_path(self, tmp_path):
        path = tmp_path / "x.json"
        assert run_cli(["build", "xception", "--out", str(path)]).exit_code == 0
        return path

    def test_strategy1_report(self, tmp_path, baseline_path):
        out = tmp_path / "t.json"
        report = tmp_path / "r.json"
        result = run_cli(["transform", "--in", str(baseline_path), "--pass", "strategy1",
                          "--out", str(out), "--report", str(report)])
        assert result.exit_code == 0
        payload = json.loads(report.read_text())
        assert payload[0]["pass_name"] == "strategy1_replace_kernels"
        assert len(payload[0]["nodes_changed"]) == 13

    @pytest.mark.parametrize("text", ["{broken", default_specs_json()], ids=["malformed", "well-formed"])
    def test_specs_rejected_for_strategy1(self, tmp_path, baseline_path, text):
        # strategy1 reads no specs, so the file is neither read nor ignored.
        specs = tmp_path / "specs.json"
        specs.write_text(text)
        out = tmp_path / "t.json"
        result = run_cli(["transform", "--in", str(baseline_path), "--pass", "strategy1",
                          "--specs", str(specs), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("usage: cndkit transform ")
        assert ("cndkit transform: error: --specs applies to strategy2 and all only, not strategy1\n"
                in result.stderr)
        assert not out.exists()

    def test_violating_spec_exits_1(self, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"entry_flow/m2": {"s1x1": 300, "e1x1": 100, "e3x3": 128}}))
        result = run_cli(["transform", "--in", str(baseline_path), "--pass", "strategy2",
                          "--specs", str(specs), "--out", str(tmp_path / "t.json")])
        assert result.exit_code == 1
        assert "entry_flow/m2" in result.output

    def test_pass_all_is_strategy1_then_strategy2(self, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(default_specs_json())
        combined = tmp_path / "combined.json"
        result = run_cli(["transform", "--in", str(baseline_path), "--pass", "all",
                          "--specs", str(specs), "--out", str(combined)])
        assert result.exit_code == 0
        stage1 = tmp_path / "s1.json"
        stage2 = tmp_path / "s2.json"
        assert run_cli(["transform", "--in", str(baseline_path), "--pass", "strategy1",
                        "--out", str(stage1)]).exit_code == 0
        assert run_cli(["transform", "--in", str(stage1), "--pass", "strategy2",
                        "--specs", str(specs), "--out", str(stage2)]).exit_code == 0
        assert combined.read_text() == stage2.read_text()

    def test_optimized_build_is_pass_all(self, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(default_specs_json())
        built = tmp_path / "built.json"
        passed = tmp_path / "passed.json"
        assert run_cli(["build", "optimized-xception", "--out", str(built)]).exit_code == 0
        assert run_cli(["transform", "--in", str(baseline_path), "--pass", "all",
                        "--specs", str(specs), "--out", str(passed)]).exit_code == 0
        a, b = json.loads(built.read_text()), json.loads(passed.read_text())
        assert (a.pop("name"), b.pop("name")) == ("optimized-xception", "xception")
        assert a.pop("metadata") == {"family": "xception", "variant": "optimized"}
        b.pop("metadata")
        assert a == b

    def test_parse_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = run_cli(
            ["transform", "--in", str(bad), "--out", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 3

    def test_strategy2_without_specs_is_identity(self, tmp_path, baseline_path):
        out = tmp_path / "t.json"
        result = run_cli(["transform", "--in", str(baseline_path), "--pass", "strategy2",
                          "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == baseline_path.read_text()


class TestAnalyze:
    @pytest.fixture()
    def model_path(self, tmp_path):
        path = tmp_path / "x.json"
        assert run_cli(["build", "xception", "--out", str(path)]).exit_code == 0
        return path

    def test_table_total(self, model_path):
        result = run_cli(["analyze", "--in", str(model_path)])
        assert result.exit_code == 0
        assert "21,068,429" in result.output
        assert "21.1M" in result.output

    def test_inference_zeroes_optimizer_state(self, model_path):
        result = run_cli(
            ["analyze", "--in", str(model_path), "--format", "json", "--mode", "inference"]
        )
        payload = json.loads(result.output)
        assert payload["memory"]["optimizer_state_bytes"] == 0
        assert payload["memory"]["gradients_bytes"] == 0

    def test_deterministic_output(self, model_path):
        args = ["analyze", "--in", str(model_path), "--format", "json", "--batch", "4"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.output == second.output

    def test_sgd_maps_to_momentum_multiplier(self, model_path):
        result = run_cli(
            ["analyze", "--in", str(model_path), "--format", "json", "--optimizer", "sgd"]
        )
        payload = json.loads(result.output)
        assert payload["memory"]["assumptions"]["optimizer"] == "sgd_momentum"
        assert payload["memory"]["assumptions"]["optimizer_state_multiplier"] == 1

    def test_parse_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        result = run_cli(["analyze", "--in", str(bad)])
        assert result.exit_code == 3

    @pytest.mark.parametrize("mode", ["training", "inference"])
    def test_one_shape_pass_per_loaded_model(self, model_path, shape_passes, mode):
        # the load's; count_params, memory_estimate and flops_estimate read
        # the shapes the loaded graph keeps
        result = run_cli(["analyze", "--in", str(model_path), "--mode", mode])
        assert result.exit_code == 0
        assert shape_passes == ["xception"]

    def test_table_columns_line_up_on_long_ids(self, tmp_path):
        path = tmp_path / "opt.json"
        assert run_cli(["build", "optimized-xception", "--out", str(path)]).exit_code == 0
        lines = run_cli(["analyze", "--in", str(path)]).output.splitlines()
        header = lines[1]
        rows = lines[2:next(i for i, line in enumerate(lines) if line.startswith("total params"))]
        in_ch_end = header.index("in_ch") + len("in_ch")
        assert max(len(row.split()[0]) for row in rows) > 28
        for row in rows:
            node_id, in_ch = row.split()[:2]
            assert row.index(in_ch, len(node_id)) + len(in_ch) == in_ch_end, row


class TestDiff:
    def test_reduction_line(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(["build", "xception", "--out", str(a)]).exit_code == 0
        assert run_cli(["build", "optimized-xception", "--out", str(b)]).exit_code == 0
        result = run_cli(["diff", "--a", str(a), "--b", str(b)])
        assert result.exit_code == 0
        assert "parameter reduction: 25.0%" in result.output

    def test_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        assert run_cli(["build", "xception", "--out", str(a)]).exit_code == 0
        result = run_cli(["diff", "--a", str(a), "--b", str(a)])
        assert result.exit_code == 0
        assert "parameter reduction: 0.0%" in result.output

    def test_missing_file_exits_2(self, tmp_path):
        a = tmp_path / "a.json"
        assert run_cli(["build", "xception", "--out", str(a)]).exit_code == 0
        result = run_cli(["diff", "--a", str(a), "--b", str(tmp_path / "nope.json")])
        assert result.exit_code == 2


class TestPareto:
    def test_caltech_defaults(self):
        result = run_cli(["pareto", "--csv", fixture_path("caltech101")])
        assert result.exit_code == 0
        assert "memory_frontier=848.8" in result.output
        assert "Optimized: test_acc=76.21 mem=847.9 quadrant=HighAccLowMem on_front=true" in result.output
        assert "pareto_front: EfficientNetV2B1, MobileNetV2, Optimized" in result.output

    def test_pcb_efficientnet_high_memory(self):
        result = run_cli(["pareto", "--csv", fixture_path("pcb_scratch")])
        assert result.exit_code == 0
        assert "EfficientNetV2B1" in result.output
        assert "quadrant=LowAccHighMem" in result.output

    def test_high_accuracy_frontier_demotes_all(self):
        result = run_cli(
            ["pareto", "--csv", fixture_path("caltech101"), "--accuracy-frontier", "95"]
        )
        assert result.exit_code == 0
        assert "HighAcc" not in result.output

    def test_plot_export(self, tmp_path):
        out = tmp_path / "plot.csv"
        result = run_cli(
            ["pareto", "--csv", fixture_path("caltech101"), "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "# memory_frontier=848.8"
        assert len(lines) == 7

    # Input, stdout and plot CSV as the command gave them when it placed the
    # records twice (once to print, once more in export_plot_data).
    PLACED = {
        "comma-names": (
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            '"resnet,v2", e ,80,80,10,,,\n"say ""hi""",e,60,60.5,20,1.5,2,100\n\n'
            " plain\t,e,50,50,30,,,\nplain,e,50,50,30,,,\n",
            "accuracy_frontier=70\nmemory_frontier=20\n"
            "resnet,v2: test_acc=80 mem=10 quadrant=HighAccLowMem on_front=true\n"
            'say "hi": test_acc=60.5 mem=20 quadrant=LowAccLowMem on_front=false\n'
            "plain: test_acc=50 mem=30 quadrant=LowAccHighMem on_front=false\n"
            "plain: test_acc=50 mem=30 quadrant=LowAccHighMem on_front=false\n"
            "pareto_front: resnet,v2\n",
            "# accuracy_frontier=70\n# memory_frontier=20\nmodel,test_acc,avg_mem_mb,quadrant,on_front\n"
            '"resnet,v2",80,10,HighAccLowMem,true\n"say ""hi""",60.5,20,LowAccLowMem,false\n'
            "plain,50,30,LowAccHighMem,false\nplain,50,30,LowAccHighMem,false\n",
        ),
        "caltech101": (
            None,
            "accuracy_frontier=70\nmemory_frontier=848.8\n"
            "Optimized: test_acc=76.21 mem=847.9 quadrant=HighAccLowMem on_front=true\n"
            "Xception: test_acc=75.89 mem=874.6 quadrant=HighAccHighMem on_front=false\n"
            "EfficientNetV2B1: test_acc=30.53 mem=823 quadrant=LowAccLowMem on_front=true\n"
            "MobileNetV2: test_acc=58.11 mem=838.6 quadrant=LowAccLowMem on_front=true\n"
            "pareto_front: EfficientNetV2B1, MobileNetV2, Optimized\n",
            "# accuracy_frontier=70\n# memory_frontier=848.8\nmodel,test_acc,avg_mem_mb,quadrant,on_front\n"
            "Optimized,76.21,847.9,HighAccLowMem,true\nXception,75.89,874.6,HighAccHighMem,false\n"
            "EfficientNetV2B1,30.53,823,LowAccLowMem,true\nMobileNetV2,58.11,838.6,LowAccLowMem,true\n",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PLACED))
    def test_out_places_the_records_once(self, tmp_path, monkeypatch, name):
        from cndkit import pareto

        text, stdout, plot = self.PLACED[name]
        path = fixture_path(name) if text is None else tmp_path / "m.csv"
        if text is not None:
            path.write_text(text)
        calls = []
        front = pareto.pareto_front
        monkeypatch.setattr(pareto, "pareto_front", lambda records: calls.append(1) or front(records))
        out = tmp_path / "plot.csv"
        result = run_cli(["pareto", "--csv", str(path), "--out", str(out)])
        assert result.exit_code == 0
        assert len(calls) == 1
        assert (result.output, out.read_text()) == (stdout, plot)

    def test_bad_csv_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,acc\nm,1\n")
        result = run_cli(["pareto", "--csv", str(bad)])
        assert result.exit_code == 3

    def test_explicit_memory_frontier(self):
        result = run_cli(
            ["pareto", "--csv", fixture_path("caltech101"), "--memory-frontier", "840"]
        )
        assert result.exit_code == 0
        assert "memory_frontier=840" in result.output
        # only EfficientNetV2B1 and MobileNetV2 sit at or below 840 MB
        assert "Optimized: test_acc=76.21 mem=847.9 quadrant=HighAccHighMem" in result.output

    def test_out_of_range_accuracy_exits_1(self, tmp_path):
        bad = tmp_path / "range.csv"
        bad.write_text(
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            "m,e,50,120,100,,,\n"
        )
        result = run_cli(["pareto", "--csv", str(bad)])
        assert result.exit_code == 1


class TestParetoNonFinite:
    def _csv(self, tmp_path, mem_cell):
        path = tmp_path / "m.csv"
        path.write_text(
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            f"a,e,50,60,100,,,\nb,e,50,70,{mem_cell},,,\n"
        )
        return str(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_nonfinite_memory_cell_exits_1(self, tmp_path, cell):
        result = run_cli(["pareto", "--csv", self._csv(tmp_path, cell)])
        assert result.exit_code == 1
        assert "error: row 3: 'b': avg_mem_mb=" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_bad_optional_cell_exits_1(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            "m,e,50,60,100,nan,inf,-7\n"
        )
        result = run_cli(["pareto", "--csv", str(path)])
        assert result.exit_code == 1
        assert "error: row 2: 'm': avg_epoch_time_s=nan must be finite" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bad_explicit_memory_frontier_exits_1(self, value):
        result = run_cli(
            ["pareto", "--csv", fixture_path("caltech101"), "--memory-frontier", value]
        )
        assert result.exit_code == 1
        assert "error: memory_frontier=" in result.output
        assert isinstance(result.exception, SystemExit)


UNDECODABLE = b"\xff\xfe{}\n"  # a UTF-16 byte-order mark is not UTF-8
TOO_DEEP_JSON = "[" * 200_000 + "]" * 200_000  # json.loads raises RecursionError
OVERSIZED_CELL_CSV = ",".join(CSV_HEADER) + "\n" + "m" * 131_073 + ",e,50,60,100,,,\n"
OVERSIZED_INT = "9" * 5001  # json.loads raises a plain ValueError past 4,300 digits
OVERSIZED_INT_SPECS = '{"entry_flow/m2": {"s1x1": %s, "e1x1": 8, "e3x3": 8}}' % OVERSIZED_INT
OVERSIZED_INT_CONFIG = ('{"entry_fire": [], "middle_fire": [], "exit_filters": [%s, 1, 1, 1]}'
                        % OVERSIZED_INT)
BOOL_EXIT_FILTER_CONFIG = json.dumps({
    "entry_fire": [{"s1x1": 64, "e1x1": 96, "e3x3": 128}, {"s1x1": 128, "e1x1": 192, "e3x3": 256},
                   {"s1x1": 256, "e1x1": 364, "e3x3": 728}],
    "middle_fire": [{"s1x1": 414, "e1x1": 600, "e3x3": 728}] * 8,
    "exit_filters": [True, 1024, 1536, 2048],
})


def oversized_int_model() -> str:
    return serialize(build_xception(TensorShape(71, 71, 3), 10)).replace(
        '"input_shape": [\n    71', '"input_shape": [\n    ' + OVERSIZED_INT, 1)


def assert_exit_3_with_one_error_line(result):
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output


BIG_INT = "9" * 4000  # under json's 4,300-digit limit, far over graph.MAX_SIZE


class TestSizesAreBounded:
    """A 4,000-digit size is read as a JSON int. It used to crash the CLI
    later, when a count derived from it was printed or rounded; it is now
    rejected where it is read."""

    @pytest.mark.parametrize("old, new, field", [
        ('"input_shape": [\n    71,\n    71', f'"input_shape": [\n    {BIG_INT},\n    {BIG_INT}',
         "input_shape"),
        ('"filters": 32', f'"filters": {BIG_INT}', "nodes[1].attrs"),
    ], ids=["input_shape", "filters"])
    def test_model_file(self, tmp_path, old, new, field):
        # before: exit 1, ValueError traceback (a count past 4,300 digits)
        path = tmp_path / "big.json"
        path.write_text(serialize(build_xception(TensorShape(71, 71, 3), 10)).replace(old, new, 1))
        for fmt in ("table", "json"):
            result = run_cli(["analyze", "--in", str(path), "--format", fmt])
            assert_exit_3_with_one_error_line(result)
            assert "must be at most 2147483647, got 999" in result.output
            assert result.output.endswith(f"(field {field!r})\n")

    def test_config_exit_filter(self, tmp_path):
        # before: exit 1, OverflowError from round_params_millions
        config = json.loads(BOOL_EXIT_FILTER_CONFIG)
        config["exit_filters"][0] = 0  # replaced by the big int in the text
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("[0,", f"[{BIG_INT},", 1))
        result = run_cli(["build", "optimized-xception", "--config", str(path)])
        assert_exit_3_with_one_error_line(result)
        assert result.output.startswith("error: exit filter must be at most 2147483647, got 999")
        assert result.output.endswith("(field 'exit_filters')\n")

    def test_batch(self, tmp_path):
        # before: exit 1, ValueError traceback (byte counts past 4,300 digits)
        path = tmp_path / "model.json"
        save_model(build_xception(TensorShape(71, 71, 3), 10), path)
        result = run_cli(["analyze", "--in", str(path), "--batch", "9" * 4299])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: batch must be at most 2147483647, got 999")


class TestUnreadableInputFiles:
    """Every file the CLI reads is rejected with exit 3 and one error line
    when it is not UTF-8, nested too deeply for json or breaks csv's rules."""

    @pytest.fixture()
    def paths(self, tmp_path, mobilenet):
        save_model(mobilenet, tmp_path / "model.json")
        return {"model": str(tmp_path / "model.json"), "bad": str(tmp_path / "bad"),
                "out": str(tmp_path / "out.json")}

    READERS = {
        "analyze-in": ["analyze", "--in", "{bad}"],
        "diff-b": ["diff", "--a", "{model}", "--b", "{bad}"],
        "transform-in": ["transform", "--in", "{bad}", "--out", "{out}"],
        "transform-specs": ["transform", "--in", "{model}", "--specs", "{bad}", "--out", "{out}"],
        "build-config": ["build", "optimized-xception", "--config", "{bad}"],
        "pareto-csv": ["pareto", "--csv", "{bad}"],
    }

    @pytest.mark.parametrize("args", READERS.values(), ids=READERS)
    def test_undecodable_file_is_named(self, paths, args):
        Path(paths["bad"]).write_bytes(UNDECODABLE)
        result = run_cli([a.format(**paths) for a in args])
        assert_exit_3_with_one_error_line(result)
        assert f"error: {paths['bad']} is not UTF-8 text: invalid start byte at byte 0" in result.output

    @pytest.mark.parametrize("args", [a for k, a in READERS.items() if k != "pareto-csv"],
                             ids=[k for k in READERS if k != "pareto-csv"])
    def test_too_deeply_nested_json(self, paths, args):
        Path(paths["bad"]).write_text(TOO_DEEP_JSON)
        result = run_cli([a.format(**paths) for a in args])
        assert_exit_3_with_one_error_line(result)
        assert "nested too deeply" in result.output

    def test_oversized_csv_cell(self, paths):
        Path(paths["bad"]).write_text(OVERSIZED_CELL_CSV)
        result = run_cli(["pareto", "--csv", paths["bad"]])
        assert_exit_3_with_one_error_line(result)
        assert "error: malformed CSV: field larger than field limit (131072) (row 2)" in result.output

    @pytest.mark.parametrize("reader", ["analyze-in", "diff-b", "transform-specs", "build-config"])
    def test_integer_past_the_digit_limit(self, paths, reader):
        text = {"transform-specs": OVERSIZED_INT_SPECS,
                "build-config": OVERSIZED_INT_CONFIG}.get(reader) or oversized_int_model()
        Path(paths["bad"]).write_text(text)
        result = run_cli([a.format(**paths) for a in self.READERS[reader]])
        assert_exit_3_with_one_error_line(result)
        assert "an integer has more than 4300 digits" in result.output

    def test_bool_exit_filter_is_located(self, paths):
        Path(paths["bad"]).write_text(BOOL_EXIT_FILTER_CONFIG)
        result = run_cli(["build", "optimized-xception", "--config", paths["bad"]])
        assert_exit_3_with_one_error_line(result)
        assert result.output == (
            "error: exit_filters must be a list of integers (field 'exit_filters')\n")

    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_model_parse_error_names_its_file_on_either_side_of_diff(self, paths, side):
        Path(paths["bad"]).write_text("{oops")
        files = {"--a": paths["model"], "--b": paths["model"], side: paths["bad"]}
        result = run_cli(["diff", *(a for item in files.items() for a in item)])
        assert_exit_3_with_one_error_line(result)
        assert result.output == (f"error: {paths['bad']}: invalid JSON: Expecting property name "
                                 "enclosed in double quotes (line 1)\n")


BOM = "\ufeff".encode()  # b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file the CLI reads is
    dropped; one anywhere else stays, as the character U+FEFF."""

    @pytest.fixture()
    def paths(self, tmp_path):
        files = {
            "model": serialize(build_xception(TensorShape(71, 71, 3), 10)),
            "specs": json.dumps({"middle_flow/m5": {"s1x1": 414, "e1x1": 600, "e3x3": 728}}),
            "config": BOOL_EXIT_FILTER_CONFIG.replace("true", "728"),
            "csv": Path(fixture_path("caltech101")).read_text(encoding="utf-8"),
        }
        paths = {"out": str(tmp_path / "out"), "plain": str(tmp_path / "plain.json")}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8", newline="")
            paths[name] = str(tmp_path / name)
        Path(paths["plain"]).write_text(files["model"], encoding="utf-8")
        return paths

    CALLS = {
        "analyze-in": ("model", ["analyze", "--in", "{model}", "--format", "json"]),
        "diff-a": ("model", ["diff", "--a", "{model}", "--b", "{plain}"]),
        "transform-in": ("model", ["transform", "--in", "{model}", "--out", "{out}"]),
        "transform-specs": ("specs", ["transform", "--in", "{plain}", "--pass", "strategy2",
                                      "--specs", "{specs}", "--out", "{out}"]),
        "build-config": ("config", ["build", "optimized-xception", "--config", "{config}",
                                    "--out", "{out}"]),
        "pareto-csv": ("csv", ["pareto", "--csv", "{csv}", "--out", "{out}"]),
    }

    def _run(self, paths, args):
        out = Path(paths["out"])
        out.unlink(missing_ok=True)
        result = run_cli([a.format(**paths) for a in args])
        return result.exit_code, result.output, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("kind, args", CALLS.values(), ids=CALLS)
    def test_leading_mark_is_dropped(self, paths, kind, args):
        plain = self._run(paths, args)
        assert plain[0] == 0
        path = Path(paths[kind])
        path.write_bytes(BOM + path.read_bytes())
        assert self._run(paths, args) == plain

    @pytest.mark.parametrize("kind, args", CALLS.values(), ids=CALLS)
    @pytest.mark.parametrize("where", ["twice", "second-byte", "end"])
    def test_mark_elsewhere_is_an_error(self, paths, kind, args, where):
        path = Path(paths[kind])
        data = path.read_bytes()
        path.write_bytes({"twice": BOM + BOM + data, "second-byte": data[:1] + BOM + data[1:],
                          "end": data + BOM}[where])
        code, output, written = self._run(paths, args)
        assert code == 3 and written is None
        assert output.count("\n") == 1 and output.startswith("error: ")
        if kind == "csv" and where == "end":
            # the mark after the last line's break is a record of one cell
            assert output == "error: expected 8 cells, got 1 (row 6)\n"

    def test_csv_of_only_a_mark_is_empty(self, paths):
        Path(paths["csv"]).write_bytes(BOM)
        result = run_cli(["pareto", "--csv", paths["csv"]])
        assert_exit_3_with_one_error_line(result)
        assert result.output == "error: empty input: missing header row (row 1)\n"

    @pytest.mark.parametrize("data, offset", [(BOM + b"\xff", 3), (BOM[:2], 0), (b"a" + BOM[:2], 1)],
                             ids=["after-mark", "cut-mark", "cut-mark-later"])
    def test_undecodable_offset_counts_the_mark(self, paths, data, offset):
        Path(paths["csv"]).write_bytes(data)
        result = run_cli(["pareto", "--csv", paths["csv"]])
        assert_exit_3_with_one_error_line(result)
        assert "is not UTF-8 text: " in result.output and result.output.endswith(
            f" at byte {offset}\n")


LONG = "x" * 100_000


def _model_with(edit) -> str:
    doc = json.loads(serialize(build_xception(TensorShape(71, 71, 3), 10)))
    edit(doc["nodes"])
    return json.dumps(doc)


def _measurements(*cells: str) -> str:
    return ",".join(CSV_HEADER) + "\n" + ",".join(cells) + "\n"


def _two_long_inputs(nodes: list) -> None:
    entry = {"id": LONG, "kind": "Input", "attrs": {}, "inputs": [], "tag": None}
    nodes[1:1] = [entry, entry]


class TestLongValuesAreCut:
    """A rejected 100,000-character value is echoed cut short: the error is
    one line under 1 KB that still names its location, at the end of a parse
    error and at the start of a measurement range error."""

    CASES = {  # command, input text, start and end of the error line
        "kind-attr": ("analyze", _model_with(lambda n: n[1]["attrs"].update(filters=LONG)),
                      "", "(field 'nodes[1].attrs')"),
        "kind-name": ("analyze", _model_with(lambda n: n[1].update(kind=LONG)),
                      "", "(field 'nodes[1].kind')"),
        "unknown-attr": ("analyze", _model_with(lambda n: n[1]["attrs"].update({LONG: 1})),
                         "", "(field 'nodes[1].attrs')"),
        "unknown-input": ("analyze", _model_with(lambda n: n[1].update(inputs=[LONG])),
                          "", "(field 'nodes[1]')"),
        "duplicate-id": ("analyze", _model_with(_two_long_inputs), "", "(field 'nodes[2]')"),
        "float-cell": ("pareto", _measurements("m", "e", "50", LONG, "100", "", "", ""),
                       "", "(row 2, column 'test_acc')"),
        "optional-cell": ("pareto", _measurements("m", "e", "50", "60", "100", "", "", LONG),
                          "", "(row 2, column 'params')"),
        "measurement": ("pareto", _measurements(LONG, "e", "50", "600", "100", "", "", ""),
                        "row 2: ", "test_acc=600.0 outside [0, 100]"),
        "fire-spec": ("specs", json.dumps({"entry_flow/m2": {"s1x1": LONG, "e1x1": 8, "e3x3": 8}}),
                      "", "(field 'entry_flow/m2')"),
        "spec-tag": ("specs", json.dumps({LONG: {"s1x1": 8}}), "", f"(field {capped(LONG)})"),
    }
    COMMANDS = {
        "analyze": ["analyze", "--in", "{bad}"],
        "pareto": ["pareto", "--csv", "{bad}"],
        "specs": ["transform", "--in", "{model}", "--specs", "{bad}", "--out", "{out}"],
    }

    @pytest.mark.parametrize("command, text, start, end", CASES.values(), ids=CASES)
    def test_one_short_line_with_its_location(self, tmp_path, command, text, start, end):
        paths = {"model": str(tmp_path / "model.json"), "bad": str(tmp_path / "bad"),
                 "out": str(tmp_path / "out.json")}
        Path(paths["model"]).write_text(fuzz_files()["model.json"])
        Path(paths["bad"]).write_text(text)
        result = run_cli([a.format(**paths) for a in self.COMMANDS[command]])
        assert result.exit_code in (1, 3) and isinstance(result.exception, SystemExit)
        line = result.output
        assert line.count("\n") == 1 and len(line.encode()) < 1024, len(line)
        assert line.startswith("error: " + start), line
        assert line.endswith(end + "\n"), line


class TestClosedStdout:
    """A consumer that has closed its end of the pipe (``head``, say) ends the
    command quietly: exit 2 and nothing on stderr, whether the output fills
    the pipe's buffer or is written only when it is flushed at exit."""

    @pytest.mark.parametrize("args", [
        ["build", "xception"],
        ["analyze", "--in", "{model}", "--format", "json"],
        ["pareto", "--csv", fixture_path("caltech101")],
    ], ids=["build", "analyze", "pareto"])
    def test_exit_2_with_empty_stderr(self, tmp_path, xception, args):
        model = tmp_path / "xception.json"
        save_model(xception, model)
        # buffered stdout, so that a short output is written only when flushed
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cndkit.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cndkit.cli", *(a.format(model=model) for a in args)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")


class TestUnencodableText:
    """A model name that stdout's encoding cannot hold is written escaped, as
    ``backslashreplace`` writes it, not raised as a ``UnicodeEncodeError``."""

    @pytest.mark.parametrize("encoding, name, shown", [
        ("utf-8:strict", "m\udc80", "m\\udc80"),
        ("ascii:strict", "r\u00e9sum\u00e9", "r\\xe9sum\\xe9"),
    ], ids=["lone-surrogate", "non-ascii"])
    @pytest.mark.parametrize("command", ["analyze", "diff"])
    def test_name_is_escaped(self, tmp_path, mobilenet, command, encoding, name, shown):
        doc = json.loads(serialize(mobilenet))
        doc["name"] = name
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        args = {"analyze": ["analyze", "--in", str(model)],
                "diff": ["diff", "--a", str(model), "--b", str(model)]}[command]
        env = dict(os.environ, PYTHONIOENCODING=encoding,
                   PYTHONPATH=str(Path(cndkit.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "cndkit.cli", *args],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert shown.encode() in proc.stdout.splitlines()[0]


# A control character in a name, how it prints, and how it prints when it
# comes from a CSV cell: a file is read in universal-newline mode, so a lone
# "\r" in a cell is read as "\n".
CONTROL = pytest.mark.parametrize("char, shown, shown_from_csv", [
    ("\n", "\\n", "\\n"),
    ("\r", "\\r", "\\n"),
    ("\x1b[2J", "\\x1b[2J", "\\x1b[2J"),
    ("\u2028", "\\u2028", "\\u2028"),
], ids=["newline", "carriage-return", "escape-sequence", "line-separator"])


def _control_model(tmp_path: Path, char: str) -> str:
    """A small model whose name, one node id and one module tag hold ``char``."""
    conv = f"conv{char}" + "x" * 24  # over the id column's 28 once escaped
    graph = ModelGraph(
        name=f"m{char}total params: 1 (0.0M), trainable: 1", input_shape=TensorShape(32, 32, 3),
        num_classes=10, nodes=(
            LayerNode("input", Input()),
            LayerNode(conv, Conv2D(8, 3), ("input",), f"flow/m{char}1/main"),
            LayerNode("gap", GlobalAvgPool(), (conv,)),
            LayerNode("fc", Dense(10), ("gap",)),
        ))
    path = tmp_path / "m.json"
    save_model(graph, path)
    return str(path)


class TestControlCharactersInNames:
    """A name holding a character that ``str.isprintable`` rejects prints on
    one line in escaped form, so it cannot forge a line of output."""

    @CONTROL
    def test_pareto_record_and_front_lines(self, tmp_path, char, shown, shown_from_csv):
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + f'\n"a{char}b: forged",run,90,80,10,,,\n'
                        "plain,run,90,60,20,,,\n", encoding="utf-8", newline="")
        result = run_cli(["pareto", "--csv", str(path)])
        assert result.exit_code == 0, result.output
        assert result.stdout.splitlines() == [
            "accuracy_frontier=70",
            "memory_frontier=15",
            f"a{shown_from_csv}b: forged: test_acc=80 mem=10 quadrant=HighAccLowMem on_front=true",
            "plain: test_acc=60 mem=20 quadrant=LowAccHighMem on_front=false",
            f"pareto_front: a{shown_from_csv}b: forged",
        ]

    @CONTROL
    def test_analyze_model_line_and_id_column(self, tmp_path, char, shown, shown_from_csv):
        result = run_cli(["analyze", "--in", _control_model(tmp_path, char)])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        conv = f"conv{shown}" + "x" * 24
        assert len(lines) == 7, lines  # model, header, conv, fc, params, flops, memory
        assert lines[0] == f"model: m{shown}total params: 1 (0.0M), trainable: 1"
        assert lines[1].startswith(f"{'id':<{len(conv)}} ")  # the width of the escaped id
        assert lines[2].startswith(f"{conv}       3        8")
        assert lines[4].startswith("total params: 306 ")

    @CONTROL
    def test_diff_model_lines_and_module_column(self, tmp_path, char, shown, shown_from_csv):
        model = _control_model(tmp_path, char)
        result = run_cli(["diff", "--a", model, "--b", model])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert len(lines) == 9, lines  # A, B, header, rule, module, untagged, rule, total, reduction
        assert lines[:2] == [f"model A: m{shown}total params: 1 (0.0M), trainable: 1",
                             f"model B: m{shown}total params: 1 (0.0M), trainable: 1"]
        assert lines[4].startswith(f"{f'flow/m{shown}1':<18} ")

    def test_json_and_plot_keep_names_as_they_are(self, tmp_path):
        model = _control_model(tmp_path, "\x1b")
        result = run_cli(["analyze", "--in", model, "--format", "json"])
        assert json.loads(result.stdout)["name"] == "m\x1btotal params: 1 (0.0M), trainable: 1"
        path = tmp_path / "m.csv"
        path.write_text(",".join(CSV_HEADER) + '\n"a\nb\x1b",run,90,80,10,,,\n', encoding="utf-8")
        plot = tmp_path / "plot.csv"
        assert run_cli(["pareto", "--csv", str(path), "--out", str(plot)]).exit_code == 0
        assert '"a\nb\x1b",80,10,HighAccLowMem,true' in plot.read_text(encoding="utf-8")


@functools.cache
def fuzz_files() -> dict[str, str]:
    """Valid inputs for the fuzzed runs: a small xception, fire specs for it,
    the default fire config and a measurement fixture."""
    specs = json.loads(default_specs_json())
    return {
        "model.json": serialize(build_xception(TensorShape(71, 71, 3), 10)),
        "specs.json": json.dumps(specs),
        "config.json": json.dumps({"entry_fire": list(specs.values())[:3],
                                   "middle_fire": list(specs.values())[3:]}),
        "data.csv": Path(fixture_path("caltech101")).read_text(encoding="utf-8"),
    }


def run_isolated(args: list[str], fuzz: bytes = b""):
    """Run the CLI in a fresh directory holding ``fuzz_files()`` and ``fuzz``
    as ``fuzz.in``, and check that it ends with a documented exit code and
    short stderr lines. An exception other than ``SystemExit`` propagates."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in fuzz_files().items():
                Path(name).write_text(text, encoding="utf-8")
            Path("fuzz.in").write_bytes(fuzz)
            result = run_cli(args)
        finally:
            os.chdir(cwd)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    assert all(len(line) < 160 for line in result.stderr.splitlines()), (args, result.stderr)
    return result


SUBPARSERS = next(a.choices for a in build_parser()._actions if a.dest == "command")
COMMANDS = {name: [a for a in sub._actions if a.dest != "help"] for name, sub in SUBPARSERS.items()}
FLAGS = sorted({opt for params in COMMANDS.values() for param in params
                for opt in param.option_strings} | {"--help"})
FILE_PARAMS = {"in_path": "model.json", "a_path": "model.json", "b_path": "model.json",
               "csv_path": "data.csv", "specs_path": "specs.json", "config_path": "config.json",
               "out_path": "out.json", "report_path": "report.json"}
LONG_ARG = "a" * 5000  # every error line that echoes it is cut short
STRINGS = ["model.json", "data.csv", "missing.json", ".", "", "auto", "840", "71x71x3", "1x1x1",
           "0x0x0", "abc", LONG_ARG]
NUMBERS = ["0", "1", "4", "70", "101", "-1", "0.5", "nan", "inf", "1e999", "99999999999999999999",
           "9" * 5000]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
WIDTH = st.integers(-1, 800)
FIRE_SPEC = st.fixed_dictionaries({"s1x1": WIDTH, "e1x1": WIDTH, "e3x3": WIDTH})


@st.composite
def argument_lists(draw) -> list[str]:
    """A command with its required and some of its optional parameters, each
    valued mostly by its type (a fuzz file for a path), else by any value;
    sometimes a stray flag or value too."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    args = [name]
    for param in COMMANDS[name]:
        typed = [FILE_PARAMS[param.dest]] if param.dest in FILE_PARAMS else param.choices or NUMBERS
        value = draw(st.sampled_from(list(typed) if draw(st.integers(0, 3)) else STRINGS + NUMBERS))
        if not param.option_strings:
            args.append(value)
        elif param.required or draw(st.booleans()):
            args += [param.option_strings[0], value]
    if not draw(st.integers(0, 3)):
        args.append(draw(st.sampled_from(FLAGS + STRINGS)))
    return args


MODULE_TAG = st.sampled_from(["entry_flow/m2", "entry_flow/m3", "middle_flow/m5", "exit_flow/m13",
                              "nowhere"])


class TestFuzzedInvocations:
    """Whatever the arguments and input files, the CLI exits 0, 1, 2 or 3 and
    raises nothing but SystemExit."""

    @given(args=argument_lists())
    @example(args=["build", "xception", "--classes", LONG_ARG])
    @example(args=["build", LONG_ARG])
    @example(args=["build", "xception", "--" + LONG_ARG])
    @example(args=["analyze", "--in", "model.json", "--batch", "9" * 5000])
    @example(args=["analyze", "--in", "model.json", "--format", LONG_ARG])
    @example(args=["analyze", "--in", LONG_ARG])
    @example(args=["pareto", "--csv", "data.csv", "--accuracy-frontier", LONG_ARG])
    @settings(max_examples=60, deadline=None)
    def test_argument_lists_from_the_commands_flags(self, args):
        run_isolated(args)

    @given(data=st.one_of(
        JSON_VALUES, st.dictionaries(MODULE_TAG, FIRE_SPEC | JSON_VALUES, max_size=3),
    ).map(lambda doc: json.dumps(doc).encode()))
    @example(data=UNDECODABLE)
    @example(data=TOO_DEEP_JSON.encode())
    @example(data=OVERSIZED_INT_SPECS.encode())
    @settings(max_examples=40, deadline=None)
    def test_any_json_as_specs(self, data):
        run_isolated(["transform", "--in", "model.json", "--specs", "fuzz.in", "--out", "out.json"],
                     data)

    @given(data=st.one_of(
        JSON_VALUES,
        st.fixed_dictionaries(
            {"entry_fire": st.lists(FIRE_SPEC, min_size=3, max_size=4),
             "middle_fire": st.lists(FIRE_SPEC, min_size=8, max_size=9)},
            optional={"exit_filters": st.lists(WIDTH, min_size=4, max_size=4) | JSON_VALUES},
        ),
    ).map(lambda doc: json.dumps(doc).encode()))
    @example(data=UNDECODABLE)
    @example(data=TOO_DEEP_JSON.encode())
    @example(data=OVERSIZED_INT_CONFIG.encode())
    @example(data=BOOL_EXIT_FILTER_CONFIG.encode())
    @settings(max_examples=40, deadline=None)
    def test_any_json_as_config(self, data):
        run_isolated(["build", "optimized-xception", "--input", "71x71x3", "--config", "fuzz.in"],
                     data)

    @given(command=st.sampled_from([["analyze", "--in"], ["pareto", "--csv"]]),
           data=st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
    @example(command=["analyze", "--in"], data=UNDECODABLE)
    @example(command=["analyze", "--in"], data=TOO_DEEP_JSON.encode())
    @example(command=["analyze", "--in"], data=oversized_int_model().encode())
    @example(command=["pareto", "--csv"], data=UNDECODABLE)
    @example(command=["pareto", "--csv"], data=OVERSIZED_CELL_CSV.encode())
    @settings(max_examples=60, deadline=None)
    def test_any_bytes_as_model_or_csv(self, command, data):
        run_isolated([*command, "fuzz.in"], data)


def _snapshot_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_cli_snapshot_calls_every_command():
    # tools/cli_snapshot.py is the byte-identity check on CLI output: a command
    # it does not call would go unchecked.
    snapshot = _snapshot_tool()
    names = [name for name, _ in snapshot.CALLS]
    assert len(set(names)) == len(names)  # one set of output files per call
    assert set(SUBPARSERS) <= {args[0] for _, args in snapshot.CALLS if args}


def test_cli_snapshot_lists_every_difference(tmp_path):
    # --against's comparison: a file on one side only, or with other bytes.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, files in ((parent, {"same.exit": b"0\n", "gone.stdout": b"x", "moved.exit": b"0\n"}),
                        (change, {"same.exit": b"0\n", "new.json": b"{}", "moved.exit": b"1\n"})):
        side.mkdir()
        for name, data in files.items():
            (side / name).write_bytes(data)
    tool = _snapshot_tool()
    assert tool.differences(parent, change) == [
        "only in parent: gone.stdout", "only in change: new.json", "differs: moved.exit"]
    assert tool.differences(parent, parent) == []
