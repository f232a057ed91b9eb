"""Command-line entry point wiring builders, passes, analysis, and Pareto.

Exit codes: 0 success, 1 validation/constraint failure, 2 I/O error,
3 parse/schema error. Click also exits 2 on a usage error (an unknown
option, a bad choice or a malformed ``--input``), so 2 alone does not tell
the two apart; a usage error prints ``Usage:`` and ``Error:`` lines.

Only ``click``, the standard library and ``errors`` are imported here. Each
command imports the modules it uses, ``json`` included, so a process loads
no more than its command needs.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import CndkitError, ParseError, SchemaVersionError, capped, parse_json, read_text

if TYPE_CHECKING:
    from .graph import ModelGraph, TensorShape
    from .transforms import FireModuleSpec
    from .zoo import OptimizedConfig

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_IO = 2
EXIT_PARSE = 3


@contextmanager
def _handled():
    try:
        yield
    except (ParseError, SchemaVersionError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe; die quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_IO)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except CndkitError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONSTRAINT)


def _parse_input_shape(ctx, param, value: str) -> TensorShape:
    """``--input`` callback, so click names the option in its usage error."""
    from .graph import TensorShape

    parts = value.lower().split("x")
    if len(parts) != 3:
        raise click.BadParameter(f"expected HxWxC, got {capped(value)}")
    try:
        return TensorShape(*(int(p) for p in parts))
    except ValueError as exc:  # int() echoes up to 200 characters of a part
        raise click.BadParameter(capped(str(exc), str)) from exc
    except CndkitError as exc:
        raise click.BadParameter(str(exc)) from exc


def _fire_spec_from_obj(obj, where: str) -> FireModuleSpec:
    from .transforms import FireModuleSpec

    if not isinstance(obj, dict) or set(obj) != {"s1x1", "e1x1", "e3x3"}:
        raise ParseError("fire spec must be an object with keys s1x1, e1x1, e3x3", field=where)
    try:
        return FireModuleSpec(obj["s1x1"], obj["e1x1"], obj["e3x3"])
    except CndkitError as exc:
        raise ParseError(str(exc), field=where) from exc


def _load_optimized_config(path: str) -> OptimizedConfig:
    from . import zoo
    from .graph import check_size

    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object", field="<root>")
    entry = doc.get("entry_fire")
    middle = doc.get("middle_fire")
    if not isinstance(entry, list) or not isinstance(middle, list):
        raise ParseError("config needs entry_fire and middle_fire lists", field="<root>")
    exit_filters = doc.get("exit_filters", list(zoo.EXIT_FILTERS))
    if not isinstance(exit_filters, list) or not all(type(v) is int for v in exit_filters):
        raise ParseError("exit_filters must be a list of integers", field="exit_filters")
    for width in exit_filters:
        try:
            check_size("exit filter", width)
        except CndkitError as exc:
            raise ParseError(str(exc), field="exit_filters") from exc
    return zoo.OptimizedConfig(
        entry_fire=tuple(_fire_spec_from_obj(o, f"entry_fire[{i}]") for i, o in enumerate(entry)),
        middle_fire=tuple(_fire_spec_from_obj(o, f"middle_fire[{i}]") for i, o in enumerate(middle)),
        exit_filters=tuple(exit_filters),
    )


def _load_specs_map(path: str) -> dict[str, FireModuleSpec]:
    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict):
        raise ParseError("specs must be a JSON object mapping module tags to fire specs")
    return {tag: _fire_spec_from_obj(obj, tag) for tag, obj in doc.items()}


@click.group()
def main():
    """Compact-network-design toolkit: build, rewrite, and analyze CNN graphs."""


@main.command("build")
@click.argument("model", type=click.Choice(["xception", "optimized-xception", "mobilenetv2"]))
@click.option("--classes", default=101, show_default=True, help="Classifier output units.")
@click.option("--input", "shape", default="299x299x3", show_default=True,
              callback=_parse_input_shape, help="Input shape as HxWxC.")
@click.option("--config", "config_path", default=None,
              help="JSON fire-module config for optimized-xception.")
@click.option("--out", "out_path", default=None, help="Write the model JSON here.")
def cmd_build(model, classes, shape, config_path, out_path):
    """Build a zoo model and print a one-line parameter summary."""
    from . import analyzer, zoo
    from .serialize import save_model

    if config_path is not None and model != "optimized-xception":
        raise click.BadOptionUsage(
            "config_path", f"--config applies to optimized-xception only, not {model}"
        )
    with _handled():
        if model == "xception":
            graph = zoo.build_xception(shape, classes)
        elif model == "mobilenetv2":
            graph = zoo.build_mobilenet_v2(shape, classes)
        else:
            config = _load_optimized_config(config_path) if config_path else zoo.DEFAULT_OPTIMIZED_CONFIG
            graph = zoo.build_optimized_xception(shape, classes, config)
        report = analyzer.count_params(graph)
        if out_path:
            save_model(graph, out_path)
        click.echo(
            f"{graph.name}: {report.total:,} params "
            f"({analyzer.round_params_millions(report.total):.1f}M)"
        )


@main.command("transform")
@click.option("--in", "in_path", required=True, help="Input model JSON.")
@click.option("--pass", "pass_name", type=click.Choice(["strategy1", "strategy2", "all"]),
              default="all", show_default=True)
@click.option("--specs", "specs_path", default=None,
              help="JSON map of module tag -> fire spec (strategy2).")
@click.option("--out", "out_path", required=True, help="Write transformed model JSON here.")
@click.option("--report", "report_path", default=None, help="Write pass report JSON here.")
def cmd_transform(in_path, pass_name, specs_path, out_path, report_path):
    """Run parameter-reduction passes over a model."""
    from . import transforms
    from .serialize import load_model, save_model

    if specs_path is not None and pass_name == "strategy1":
        raise click.BadOptionUsage(
            "specs_path", "--specs applies to strategy2 and all only, not strategy1"
        )
    with _handled():
        graph = load_model(in_path)
        specs = _load_specs_map(specs_path) if specs_path else {}
        reports = []
        if pass_name in ("strategy1", "all"):
            graph, report = transforms.strategy1_replace_kernels(graph)
            reports.append(report)
        if pass_name in ("strategy2", "all"):
            graph, report = transforms.strategy2_insert_fire(graph, specs)
            reports.append(report)
        save_model(graph, out_path)
        if report_path:
            import json

            payload = [r.as_dict() for r in reports]
            Path(report_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        for report in reports:
            click.echo(
                f"{report.pass_name}: {len(report.nodes_changed)} node(s) changed, "
                f"params {report.params_before:,} -> {report.params_after:,}"
            )


def _analysis_payload(graph: ModelGraph, batch: int, mode: str, optimizer: str) -> dict:
    from . import analyzer

    report = analyzer.count_params(graph)
    memory = analyzer.memory_estimate(graph, batch=batch, mode=mode, optimizer=optimizer)
    keys = ("id", *analyzer.LayerParams._fields[1:])  # the LayerParams fields, node_id as id
    return {
        "name": graph.name,
        "params": {
            "total": report.total,
            "total_trainable": report.total_trainable,
            "rounded_millions": analyzer.round_params_millions(report.total),
            "per_layer": [dict(zip(keys, e)) for e in report.per_layer],
        },
        "flops_macs": analyzer.flops_estimate(graph),
        "memory": memory.as_dict(),
    }


def _analysis_table(payload: dict) -> str:
    listed = [e for e in payload["params"]["per_layer"] if e["kernel_params"] or e["aux_params"]]
    width = max([28] + [len(e["id"]) for e in listed])
    lines = [f"model: {payload['name']}"]
    lines.append(f"{'id':<{width}} {'in_ch':>7} {'filters':>8} {'kernel':>7} {'params':>12} {'aux':>8}")
    for e in listed:
        lines.append(
            f"{e['id']:<{width}} {e['channels_in']:>7} {e['filters']:>8} {e['kernel_elems']:>7} "
            f"{e['kernel_params']:>12,} {e['aux_params']:>8,}"
        )
    p = payload["params"]
    lines.append(
        f"total params: {p['total']:,} ({p['rounded_millions']:.1f}M), "
        f"trainable: {p['total_trainable']:,}"
    )
    lines.append(f"flops (MACs): {payload['flops_macs']:,}")
    m = payload["memory"]
    a = m["assumptions"]
    lines.append(
        f"memory [{a['mode']}, batch {a['batch_size']}, {a['optimizer']}]: "
        f"weights={m['weights_bytes']:,} gradients={m['gradients_bytes']:,} "
        f"optimizer={m['optimizer_state_bytes']:,} activations={m['activations_bytes']:,} "
        f"total={m['total_bytes']:,} bytes"
    )
    return "\n".join(lines)


@main.command("analyze")
@click.option("--in", "in_path", required=True, help="Input model JSON.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table",
              show_default=True)
@click.option("--batch", default=1, show_default=True)
@click.option("--mode", type=click.Choice(["training", "inference"]), default="training",
              show_default=True)
@click.option("--optimizer", type=click.Choice(["sgd", "adam"]), default="adam",
              show_default=True)
def cmd_analyze(in_path, fmt, batch, mode, optimizer):
    """Print parameter, FLOP, and memory analysis for a model."""
    from .serialize import load_model

    with _handled():
        graph = load_model(in_path)
        optimizer_name = "sgd_momentum" if optimizer == "sgd" else optimizer
        payload = _analysis_payload(graph, batch, mode, optimizer_name)
        if fmt == "json":
            import json

            click.echo(json.dumps(payload, indent=2))
        else:
            click.echo(_analysis_table(payload))


@main.command("diff")
@click.option("--a", "a_path", required=True, help="Baseline model JSON.")
@click.option("--b", "b_path", required=True, help="Comparison model JSON.")
def cmd_diff(a_path, b_path):
    """Show a per-module comparison of two models."""
    from . import transforms
    from .serialize import load_model

    with _handled():
        a = load_model(a_path)
        b = load_model(b_path)
        click.echo(transforms.diff(a, b), nl=False)


@main.command("pareto")
@click.option("--csv", "csv_path", required=True, help="Measurement CSV.")
@click.option("--accuracy-frontier", default=70.0, show_default=True)
@click.option("--memory-frontier", "memory_frontier_opt", default="auto", show_default=True,
              help="'auto' for the min/max midpoint, or an explicit value in MB.")
@click.option("--out", "out_path", default=None, help="Write plot-data CSV here.")
def cmd_pareto(csv_path, accuracy_frontier, memory_frontier_opt, out_path):
    """Quadrant and non-dominated-set analysis of measurement records."""
    from . import pareto

    with _handled():
        records = pareto.load_measurements(read_text(csv_path))
        if memory_frontier_opt == "auto":
            explicit = None
        else:
            try:
                explicit = float(memory_frontier_opt)
            except ValueError as exc:
                raise ParseError(
                    "--memory-frontier must be 'auto' or a number, "
                    f"got {capped(memory_frontier_opt)}"
                ) from exc
        config = pareto.QuadrantConfig(accuracy_frontier=accuracy_frontier, memory_frontier=explicit)
        frontier_mem, front, placements = pareto.place_records(records, config)
        placements = list(placements)  # printed here, then written to the plot
        click.echo(f"accuracy_frontier={config.accuracy_frontier:g}")
        click.echo(f"memory_frontier={frontier_mem:g}")
        for record, quadrant, on_front in placements:
            click.echo(
                f"{record.model}: test_acc={record.test_acc:g} mem={record.avg_mem_mb:g} "
                f"quadrant={quadrant.value} on_front={'true' if on_front else 'false'}"
            )
        click.echo("pareto_front: " + ", ".join(r.model for r in front))
        if out_path:
            Path(out_path).write_text(pareto.plot_data(config, frontier_mem, placements), encoding="utf-8")


if __name__ == "__main__":
    main()
