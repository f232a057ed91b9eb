import json
from importlib import resources

import pytest
from click.testing import CliRunner

from cndkit.cli import main
from cndkit.zoo import DEFAULT_OPTIMIZED_CONFIG


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
        assert "expected HxWxC, got '1x2'" in result.output

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
