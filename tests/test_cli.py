import functools
import json
from importlib import resources
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cndkit.cli import main
from cndkit.errors import capped
from cndkit.graph import TensorShape
from cndkit.pareto import CSV_HEADER
from cndkit.serialize import save_model, serialize
from cndkit.zoo import DEFAULT_OPTIMIZED_CONFIG, build_xception


@pytest.fixture()
def runner():
    return CliRunner()


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
    def test_xception_summary(self, runner):
        result = runner.invoke(main, ["build", "xception", "--classes", "101"])
        assert result.exit_code == 0
        assert "21.1M" in result.output

    def test_optimized_summary(self, runner):
        result = runner.invoke(main, ["build", "optimized-xception", "--classes", "101"])
        assert result.exit_code == 0
        assert "15.8M" in result.output

    def test_mobilenet_summary(self, runner):
        result = runner.invoke(main, ["build", "mobilenetv2", "--input", "224x224x3"])
        assert result.exit_code == 0
        assert "2.4M" in result.output

    def test_single_class_rejected(self, runner):
        result = runner.invoke(main, ["build", "xception", "--classes", "1"])
        assert result.exit_code == 1

    def test_unwritable_out_path(self, runner):
        result = runner.invoke(
            main, ["build", "xception", "--out", "/no/such/dir/model.json"]
        )
        assert result.exit_code == 2

    def test_malformed_input_is_usage_error_exit_2(self, runner):
        # Click's usage errors share exit code 2 with I/O errors.
        result = runner.invoke(main, ["build", "xception", "--input", "1x2"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.output
        assert "Invalid value for '--input': expected HxWxC, got '1x2'" in result.output

    @pytest.mark.parametrize("value", ["a" * 5000, "a" * 5000 + "x1x1"], ids=["whole", "one-dim"])
    def test_long_malformed_input_is_capped(self, runner, value):
        result = runner.invoke(main, ["build", "xception", "--input", value])
        assert result.exit_code == 2
        error = result.output.splitlines()[-1]
        assert error.startswith("Error: Invalid value for '--input': ") and len(error) < 160, error

    @pytest.mark.parametrize("model", ["xception", "mobilenetv2"])
    def test_config_rejected_for_models_that_take_none(self, runner, model):
        result = runner.invoke(main, ["build", model, "--config", "/nonexistent/none.json"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Usage:" in result.output
        assert f"Error: --config applies to optimized-xception only, not {model}" in result.output

    def test_bad_config_is_parse_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(
            main, ["build", "optimized-xception", "--config", str(cfg)]
        )
        assert result.exit_code == 3

    def test_eq2_violating_config_is_constraint_error(self, runner, tmp_path):
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
        result = runner.invoke(main, ["build", "optimized-xception", "--config", str(path)])
        assert result.exit_code == 1


class TestTransform:
    @pytest.fixture()
    def baseline_path(self, runner, tmp_path):
        path = tmp_path / "x.json"
        assert runner.invoke(main, ["build", "xception", "--out", str(path)]).exit_code == 0
        return path

    def test_strategy1_report(self, runner, tmp_path, baseline_path):
        out = tmp_path / "t.json"
        report = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["transform", "--in", str(baseline_path), "--pass", "strategy1",
             "--out", str(out), "--report", str(report)],
        )
        assert result.exit_code == 0
        payload = json.loads(report.read_text())
        assert payload[0]["pass_name"] == "strategy1_replace_kernels"
        assert len(payload[0]["nodes_changed"]) == 13

    def test_violating_spec_exits_1(self, runner, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps({"entry_flow/m2": {"s1x1": 300, "e1x1": 100, "e3x3": 128}}))
        result = runner.invoke(
            main,
            ["transform", "--in", str(baseline_path), "--pass", "strategy2",
             "--specs", str(specs), "--out", str(tmp_path / "t.json")],
        )
        assert result.exit_code == 1
        assert "entry_flow/m2" in result.output

    def test_pass_all_is_strategy1_then_strategy2(self, runner, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(default_specs_json())
        combined = tmp_path / "combined.json"
        result = runner.invoke(
            main,
            ["transform", "--in", str(baseline_path), "--pass", "all",
             "--specs", str(specs), "--out", str(combined)],
        )
        assert result.exit_code == 0
        stage1 = tmp_path / "s1.json"
        stage2 = tmp_path / "s2.json"
        assert runner.invoke(
            main, ["transform", "--in", str(baseline_path), "--pass", "strategy1",
                   "--out", str(stage1)],
        ).exit_code == 0
        assert runner.invoke(
            main, ["transform", "--in", str(stage1), "--pass", "strategy2",
                   "--specs", str(specs), "--out", str(stage2)],
        ).exit_code == 0
        assert combined.read_text() == stage2.read_text()

    def test_optimized_build_is_pass_all(self, runner, tmp_path, baseline_path):
        specs = tmp_path / "specs.json"
        specs.write_text(default_specs_json())
        built = tmp_path / "built.json"
        passed = tmp_path / "passed.json"
        assert runner.invoke(main, ["build", "optimized-xception", "--out", str(built)]).exit_code == 0
        assert runner.invoke(
            main, ["transform", "--in", str(baseline_path), "--pass", "all",
                   "--specs", str(specs), "--out", str(passed)],
        ).exit_code == 0
        a, b = json.loads(built.read_text()), json.loads(passed.read_text())
        assert (a.pop("name"), b.pop("name")) == ("optimized-xception", "xception")
        assert a.pop("metadata") == {"family": "xception", "variant": "optimized"}
        b.pop("metadata")
        assert a == b

    def test_parse_error_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(
            main, ["transform", "--in", str(bad), "--out", str(tmp_path / "o.json")]
        )
        assert result.exit_code == 3

    def test_strategy2_without_specs_is_identity(self, runner, tmp_path, baseline_path):
        out = tmp_path / "t.json"
        result = runner.invoke(
            main, ["transform", "--in", str(baseline_path), "--pass", "strategy2",
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text() == baseline_path.read_text()


class TestAnalyze:
    @pytest.fixture()
    def model_path(self, runner, tmp_path):
        path = tmp_path / "x.json"
        assert runner.invoke(main, ["build", "xception", "--out", str(path)]).exit_code == 0
        return path

    def test_table_total(self, runner, model_path):
        result = runner.invoke(main, ["analyze", "--in", str(model_path)])
        assert result.exit_code == 0
        assert "21,068,429" in result.output
        assert "21.1M" in result.output

    def test_inference_zeroes_optimizer_state(self, runner, model_path):
        result = runner.invoke(
            main, ["analyze", "--in", str(model_path), "--format", "json", "--mode", "inference"]
        )
        payload = json.loads(result.output)
        assert payload["memory"]["optimizer_state_bytes"] == 0
        assert payload["memory"]["gradients_bytes"] == 0

    def test_deterministic_output(self, runner, model_path):
        args = ["analyze", "--in", str(model_path), "--format", "json", "--batch", "4"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_sgd_maps_to_momentum_multiplier(self, runner, model_path):
        result = runner.invoke(
            main, ["analyze", "--in", str(model_path), "--format", "json", "--optimizer", "sgd"]
        )
        payload = json.loads(result.output)
        assert payload["memory"]["assumptions"]["optimizer"] == "sgd_momentum"
        assert payload["memory"]["assumptions"]["optimizer_state_multiplier"] == 1

    def test_parse_error_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        result = runner.invoke(main, ["analyze", "--in", str(bad)])
        assert result.exit_code == 3

    def test_table_columns_line_up_on_long_ids(self, runner, tmp_path):
        path = tmp_path / "opt.json"
        assert runner.invoke(main, ["build", "optimized-xception", "--out", str(path)]).exit_code == 0
        lines = runner.invoke(main, ["analyze", "--in", str(path)]).output.splitlines()
        header = lines[1]
        rows = lines[2:next(i for i, line in enumerate(lines) if line.startswith("total params"))]
        in_ch_end = header.index("in_ch") + len("in_ch")
        assert max(len(row.split()[0]) for row in rows) > 28
        for row in rows:
            node_id, in_ch = row.split()[:2]
            assert row.index(in_ch, len(node_id)) + len(in_ch) == in_ch_end, row


class TestDiff:
    def test_reduction_line(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert runner.invoke(main, ["build", "xception", "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["build", "optimized-xception", "--out", str(b)]).exit_code == 0
        result = runner.invoke(main, ["diff", "--a", str(a), "--b", str(b)])
        assert result.exit_code == 0
        assert "parameter reduction: 25.0%" in result.output

    def test_identical_files(self, runner, tmp_path):
        a = tmp_path / "a.json"
        assert runner.invoke(main, ["build", "xception", "--out", str(a)]).exit_code == 0
        result = runner.invoke(main, ["diff", "--a", str(a), "--b", str(a)])
        assert result.exit_code == 0
        assert "parameter reduction: 0.0%" in result.output

    def test_missing_file_exits_2(self, runner, tmp_path):
        a = tmp_path / "a.json"
        assert runner.invoke(main, ["build", "xception", "--out", str(a)]).exit_code == 0
        result = runner.invoke(main, ["diff", "--a", str(a), "--b", str(tmp_path / "nope.json")])
        assert result.exit_code == 2


class TestPareto:
    def test_caltech_defaults(self, runner):
        result = runner.invoke(main, ["pareto", "--csv", fixture_path("caltech101")])
        assert result.exit_code == 0
        assert "memory_frontier=848.8" in result.output
        assert "Optimized: test_acc=76.21 mem=847.9 quadrant=HighAccLowMem on_front=true" in result.output
        assert "pareto_front: EfficientNetV2B1, MobileNetV2, Optimized" in result.output

    def test_pcb_efficientnet_high_memory(self, runner):
        result = runner.invoke(main, ["pareto", "--csv", fixture_path("pcb_scratch")])
        assert result.exit_code == 0
        assert "EfficientNetV2B1" in result.output
        assert "quadrant=LowAccHighMem" in result.output

    def test_high_accuracy_frontier_demotes_all(self, runner):
        result = runner.invoke(
            main, ["pareto", "--csv", fixture_path("caltech101"), "--accuracy-frontier", "95"]
        )
        assert result.exit_code == 0
        assert "HighAcc" not in result.output

    def test_plot_export(self, runner, tmp_path):
        out = tmp_path / "plot.csv"
        result = runner.invoke(
            main, ["pareto", "--csv", fixture_path("caltech101"), "--out", str(out)]
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
    def test_out_places_the_records_once(self, runner, tmp_path, monkeypatch, name):
        from cndkit import pareto

        text, stdout, plot = self.PLACED[name]
        path = fixture_path(name) if text is None else tmp_path / "m.csv"
        if text is not None:
            path.write_text(text)
        calls = []
        front = pareto.pareto_front
        monkeypatch.setattr(pareto, "pareto_front", lambda records: calls.append(1) or front(records))
        out = tmp_path / "plot.csv"
        result = runner.invoke(main, ["pareto", "--csv", str(path), "--out", str(out)])
        assert result.exit_code == 0
        assert len(calls) == 1
        assert (result.output, out.read_text()) == (stdout, plot)

    def test_bad_csv_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,acc\nm,1\n")
        result = runner.invoke(main, ["pareto", "--csv", str(bad)])
        assert result.exit_code == 3

    def test_explicit_memory_frontier(self, runner):
        result = runner.invoke(
            main, ["pareto", "--csv", fixture_path("caltech101"), "--memory-frontier", "840"]
        )
        assert result.exit_code == 0
        assert "memory_frontier=840" in result.output
        # only EfficientNetV2B1 and MobileNetV2 sit at or below 840 MB
        assert "Optimized: test_acc=76.21 mem=847.9 quadrant=HighAccHighMem" in result.output

    def test_out_of_range_accuracy_exits_1(self, runner, tmp_path):
        bad = tmp_path / "range.csv"
        bad.write_text(
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            "m,e,50,120,100,,,\n"
        )
        result = runner.invoke(main, ["pareto", "--csv", str(bad)])
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
    def test_nonfinite_memory_cell_exits_1(self, runner, tmp_path, cell):
        result = runner.invoke(main, ["pareto", "--csv", self._csv(tmp_path, cell)])
        assert result.exit_code == 1
        assert "error: row 3: 'b': avg_mem_mb=" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_bad_optional_cell_exits_1(self, runner, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "model,experiment,train_acc,test_acc,avg_mem_mb,avg_epoch_time_s,avg_inf_time_ms,params\n"
            "m,e,50,60,100,nan,inf,-7\n"
        )
        result = runner.invoke(main, ["pareto", "--csv", str(path)])
        assert result.exit_code == 1
        assert "error: row 2: 'm': avg_epoch_time_s=nan must be finite" in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bad_explicit_memory_frontier_exits_1(self, runner, value):
        result = runner.invoke(
            main, ["pareto", "--csv", fixture_path("caltech101"), "--memory-frontier", value]
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
    def test_model_file(self, runner, tmp_path, old, new, field):
        # before: exit 1, ValueError traceback (a count past 4,300 digits)
        path = tmp_path / "big.json"
        path.write_text(serialize(build_xception(TensorShape(71, 71, 3), 10)).replace(old, new, 1))
        for fmt in ("table", "json"):
            result = runner.invoke(main, ["analyze", "--in", str(path), "--format", fmt])
            assert_exit_3_with_one_error_line(result)
            assert "must be at most 2147483647, got 999" in result.output
            assert result.output.endswith(f"(field {field!r})\n")

    def test_config_exit_filter(self, runner, tmp_path):
        # before: exit 1, OverflowError from round_params_millions
        config = json.loads(BOOL_EXIT_FILTER_CONFIG)
        config["exit_filters"][0] = 0  # replaced by the big int in the text
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("[0,", f"[{BIG_INT},", 1))
        result = runner.invoke(main, ["build", "optimized-xception", "--config", str(path)])
        assert_exit_3_with_one_error_line(result)
        assert result.output.startswith("error: exit filter must be at most 2147483647, got 999")
        assert result.output.endswith("(field 'exit_filters')\n")

    def test_batch(self, runner, tmp_path):
        # before: exit 1, ValueError traceback (byte counts past 4,300 digits)
        path = tmp_path / "model.json"
        save_model(build_xception(TensorShape(71, 71, 3), 10), path)
        result = runner.invoke(main, ["analyze", "--in", str(path), "--batch", "9" * 4299])
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
    def test_undecodable_file_is_named(self, runner, paths, args):
        Path(paths["bad"]).write_bytes(UNDECODABLE)
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert_exit_3_with_one_error_line(result)
        assert f"error: {paths['bad']} is not UTF-8 text: invalid start byte at byte 0" in result.output

    @pytest.mark.parametrize("args", [a for k, a in READERS.items() if k != "pareto-csv"],
                             ids=[k for k in READERS if k != "pareto-csv"])
    def test_too_deeply_nested_json(self, runner, paths, args):
        Path(paths["bad"]).write_text(TOO_DEEP_JSON)
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert_exit_3_with_one_error_line(result)
        assert "nested too deeply" in result.output

    def test_oversized_csv_cell(self, runner, paths):
        Path(paths["bad"]).write_text(OVERSIZED_CELL_CSV)
        result = runner.invoke(main, ["pareto", "--csv", paths["bad"]])
        assert_exit_3_with_one_error_line(result)
        assert "error: malformed CSV: field larger than field limit (131072) (row 2)" in result.output

    @pytest.mark.parametrize("reader", ["analyze-in", "diff-b", "transform-specs", "build-config"])
    def test_integer_past_the_digit_limit(self, runner, paths, reader):
        text = {"transform-specs": OVERSIZED_INT_SPECS,
                "build-config": OVERSIZED_INT_CONFIG}.get(reader) or oversized_int_model()
        Path(paths["bad"]).write_text(text)
        result = runner.invoke(main, [a.format(**paths) for a in self.READERS[reader]])
        assert_exit_3_with_one_error_line(result)
        assert "an integer has more than 4300 digits" in result.output

    def test_bool_exit_filter_is_located(self, runner, paths):
        Path(paths["bad"]).write_text(BOOL_EXIT_FILTER_CONFIG)
        result = runner.invoke(main, ["build", "optimized-xception", "--config", paths["bad"]])
        assert_exit_3_with_one_error_line(result)
        assert result.output == (
            "error: exit_filters must be a list of integers (field 'exit_filters')\n")

    @pytest.mark.parametrize("side", ["--a", "--b"])
    def test_model_parse_error_names_its_file_on_either_side_of_diff(self, runner, paths, side):
        Path(paths["bad"]).write_text("{oops")
        files = {"--a": paths["model"], "--b": paths["model"], side: paths["bad"]}
        result = runner.invoke(main, ["diff", *(a for item in files.items() for a in item)])
        assert_exit_3_with_one_error_line(result)
        assert result.output == (f"error: {paths['bad']}: invalid JSON: Expecting property name "
                                 "enclosed in double quotes (line 1)\n")


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
    def test_one_short_line_with_its_location(self, runner, tmp_path, command, text, start, end):
        paths = {"model": str(tmp_path / "model.json"), "bad": str(tmp_path / "bad"),
                 "out": str(tmp_path / "out.json")}
        Path(paths["model"]).write_text(fuzz_files()["model.json"])
        Path(paths["bad"]).write_text(text)
        result = runner.invoke(main, [a.format(**paths) for a in self.COMMANDS[command]])
        assert result.exit_code in (1, 3) and isinstance(result.exception, SystemExit)
        line = result.output
        assert line.count("\n") == 1 and len(line.encode()) < 1024, len(line)
        assert line.startswith("error: " + start), line
        assert line.endswith(end + "\n"), line


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
    """Invoke the CLI in a fresh directory holding ``fuzz_files()`` and ``fuzz``
    as ``fuzz.in``, and check that it ends with a documented exit code and no
    exception."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in fuzz_files().items():
            Path(name).write_text(text, encoding="utf-8")
        Path("fuzz.in").write_bytes(fuzz)
        result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception)
    assert result.exit_code in (0, 1, 2, 3), (args, result.output)
    return result


FLAGS = sorted({opt for command in main.commands.values() for param in command.params
                for opt in param.opts if opt.startswith("-")} | {"--help"})
FILE_PARAMS = {"in_path": "model.json", "a_path": "model.json", "b_path": "model.json",
               "csv_path": "data.csv", "specs_path": "specs.json", "config_path": "config.json",
               "out_path": "out.json", "report_path": "report.json"}
STRINGS = ["model.json", "data.csv", "missing.json", ".", "", "auto", "840", "71x71x3", "1x1x1",
           "0x0x0", "abc"]
NUMBERS = ["0", "1", "4", "70", "101", "-1", "0.5", "nan", "inf", "1e999", "99999999999999999999"]
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
    name = draw(st.sampled_from(sorted(main.commands)))
    args = [name]
    for param in main.commands[name].params:
        typed = ([FILE_PARAMS[param.name]] if param.name in FILE_PARAMS
                 else getattr(param.type, "choices", None) or NUMBERS)
        value = draw(st.sampled_from(list(typed) if draw(st.integers(0, 3)) else STRINGS + NUMBERS))
        if param.param_type_name == "argument":
            args.append(value)
        elif param.required or draw(st.booleans()):
            args += [param.opts[0], value]
    if not draw(st.integers(0, 3)):
        args.append(draw(st.sampled_from(FLAGS + STRINGS)))
    return args


MODULE_TAG = st.sampled_from(["entry_flow/m2", "entry_flow/m3", "middle_flow/m5", "exit_flow/m13",
                              "nowhere"])


class TestFuzzedInvocations:
    """Whatever the arguments and input files, the CLI exits 0, 1, 2 or 3 and
    raises nothing but SystemExit."""

    @given(args=argument_lists())
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
