"""Command-line entry point wiring builders, passes, analysis, and Pareto.

Exit codes: 0 success, 1 validation/constraint failure, 2 I/O error,
3 parse/schema error. A usage error (an unknown option, a bad choice or a
malformed ``--input``) also exits 2, so 2 alone does not tell the two apart;
a usage error prints a ``usage:`` line and a ``cndkit <command>: error:``
line that names the option at fault.

Only the standard library (``argparse`` the largest) and ``errors`` are
imported here. Each command imports the modules it uses, ``json`` included,
so a process loads no more than its command needs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CndkitError, ParseError, SchemaVersionError, capped, chunks, parse_json, printable, read_text,
    unknown_keys,
)

if TYPE_CHECKING:
    from .graph import ModelGraph, TensorShape
    from .transforms import FireModuleSpec
    from .zoo import OptimizedConfig

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_IO = 2
EXIT_PARSE = 3
MESSAGE_LIMIT = 120  # with its "cndkit <command>: error: " prefix, an error line stays under 160


class _Parser(argparse.ArgumentParser):
    """``--help`` but no ``-h``, no abbreviated options, and each usage error cut
    to ``MESSAGE_LIMIT`` characters, as argparse echoes the argument at fault whole."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        super().error(capped(message, str, MESSAGE_LIMIT))


def _input_shape(value: str) -> TensorShape:
    """``--input``'s type, so a bad value is a usage error naming the option."""
    from .graph import TensorShape

    parts = value.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected HxWxC, got {value!r}")
    try:
        return TensorShape(*(int(p) for p in parts))
    except (ValueError, CndkitError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _fire_spec_from_obj(obj, where: str) -> FireModuleSpec:
    from .transforms import FireModuleSpec

    if not isinstance(obj, dict) or set(obj) != {"s1x1", "e1x1", "e3x3"}:
        raise ParseError("fire spec must be an object with keys s1x1, e1x1, e3x3", field=where)
    try:
        return FireModuleSpec(obj["s1x1"], obj["e1x1"], obj["e3x3"])
    except CndkitError as exc:
        raise ParseError(str(exc), field=where) from exc


_CONFIG_KEYS = frozenset(("entry_fire", "middle_fire", "exit_filters"))


def _load_optimized_config(path: str) -> OptimizedConfig:
    from . import zoo
    from .graph import check_size

    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object", field="<root>")
    if not doc.keys() <= _CONFIG_KEYS:
        raise unknown_keys("config keys", doc, _CONFIG_KEYS, "<root>")
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


def cmd_build(model, classes, shape, config_path, out_path):
    """Build a zoo model and print a one-line parameter summary."""
    from . import analyzer, zoo
    from .serialize import save_model

    if config_path is not None and model != "optimized-xception":
        raise argparse.ArgumentError(None, f"--config applies to optimized-xception only, not {model}")
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
    print(f"{graph.name}: {report.total:,} params ({analyzer.round_params_millions(report.total):.1f}M)")


def cmd_transform(in_path, pass_name, specs_path, out_path, report_path):
    """Run parameter-reduction passes over a model."""
    from . import transforms
    from .serialize import load_model, save_model

    if specs_path is not None and pass_name == "strategy1":
        raise argparse.ArgumentError(None, "--specs applies to strategy2 and all only, not strategy1")
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
        print(f"{report.pass_name}: {len(report.nodes_changed)} node(s) changed, "
              f"params {report.params_before:,} -> {report.params_after:,}")


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
    ids = [printable(e["id"]) for e in listed]
    width = max([28] + [len(i) for i in ids])
    lines = [f"model: {printable(payload['name'])}"]
    lines.append(f"{'id':<{width}} {'in_ch':>7} {'filters':>8} {'kernel':>7} {'params':>12} {'aux':>8}")
    for node_id, e in zip(ids, listed):
        lines.append(
            f"{node_id:<{width}} {e['channels_in']:>7} {e['filters']:>8} {e['kernel_elems']:>7} "
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


def cmd_analyze(in_path, fmt, batch, mode, optimizer):
    """Print parameter, FLOP, and memory analysis for a model."""
    from .serialize import load_model

    graph = load_model(in_path)
    optimizer_name = "sgd_momentum" if optimizer == "sgd" else optimizer
    payload = _analysis_payload(graph, batch, mode, optimizer_name)
    if fmt == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(_analysis_table(payload))


def cmd_diff(a_path, b_path):
    """Show a per-module comparison of two models."""
    from . import transforms
    from .serialize import load_model

    sys.stdout.write(transforms.diff(load_model(a_path), load_model(b_path)))


def cmd_pareto(csv_path, accuracy_frontier, memory_frontier_opt, out_path):
    """Quadrant and non-dominated-set analysis of measurement records."""
    from . import pareto

    records = pareto.load_measurements(read_text(csv_path))
    try:
        explicit = None if memory_frontier_opt == "auto" else float(memory_frontier_opt)
    except ValueError as exc:
        raise ParseError(
            f"--memory-frontier must be 'auto' or a number, got {capped(memory_frontier_opt)}") from exc
    config = pareto.QuadrantConfig(accuracy_frontier=accuracy_frontier, memory_frontier=explicit)
    frontier_mem, front, placements = pareto.place_records(records, config)
    placements = list(placements)  # printed here, then written to the plot
    print(f"accuracy_frontier={config.accuracy_frontier:g}")
    print(f"memory_frontier={frontier_mem:g}")
    for record, quadrant, on_front in placements:
        print(f"{printable(record.model)}: test_acc={record.test_acc:g} mem={record.avg_mem_mb:g} "
              f"quadrant={quadrant.value} on_front={'true' if on_front else 'false'}")
    print("pareto_front: " + ", ".join(printable(r.model) for r in front))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as out:  # each chunk written as it is made
            out.writelines(chunks(pareto.plot_lines(config, frontier_mem, placements)))


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, whose ``run`` takes its options as keywords."""
    parser = _Parser(prog="cndkit", description=(
        "Compact-network-design toolkit: build, rewrite, and analyze CNN graphs."))
    commands = parser.add_subparsers(dest="command", required=True)
    default = "(default: %(default)s)"

    def command(run):
        sub = commands.add_parser(run.__name__[4:], help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run, error=sub.error)
        return sub.add_argument

    arg = command(cmd_build)
    arg("model", choices=["xception", "optimized-xception", "mobilenetv2"])
    arg("--classes", type=int, default=101, help=f"Classifier output units {default}.")
    arg("--input", dest="shape", type=_input_shape, default="299x299x3",
        help=f"Input shape as HxWxC {default}.")
    arg("--config", dest="config_path", help="JSON fire-module config for optimized-xception.")
    arg("--out", dest="out_path", help="Write the model JSON here.")

    arg = command(cmd_transform)
    arg("--in", dest="in_path", required=True, help="Input model JSON.")
    arg("--pass", dest="pass_name", choices=["strategy1", "strategy2", "all"], default="all", help=default)
    arg("--specs", dest="specs_path", help="JSON map of module tag -> fire spec (strategy2).")
    arg("--out", dest="out_path", required=True, help="Write transformed model JSON here.")
    arg("--report", dest="report_path", help="Write pass report JSON here.")

    arg = command(cmd_analyze)
    arg("--in", dest="in_path", required=True, help="Input model JSON.")
    arg("--format", dest="fmt", choices=["json", "table"], default="table", help=default)
    arg("--batch", type=int, default=1, help=default)
    arg("--mode", choices=["training", "inference"], default="training", help=default)
    arg("--optimizer", choices=["sgd", "adam"], default="adam", help=default)

    arg = command(cmd_diff)
    arg("--a", dest="a_path", required=True, help="Baseline model JSON.")
    arg("--b", dest="b_path", required=True, help="Comparison model JSON.")

    arg = command(cmd_pareto)
    arg("--csv", dest="csv_path", required=True, help="Measurement CSV.")
    arg("--accuracy-frontier", type=float, default=70.0, help=default)
    arg("--memory-frontier", dest="memory_frontier_opt", default="auto",
        help=f"'auto' for the min/max midpoint, or an explicit value in MB {default}.")
    arg("--out", dest="out_path", help="Write plot-data CSV here.")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names; return its
    exit code. ``--help`` and a usage error raise ``SystemExit`` (0 and 2)."""
    args = vars(build_parser().parse_args(argv))
    run, error, _ = args.pop("run"), args.pop("error"), args.pop("command")
    if hasattr(sys.stdout, "reconfigure"):  # a name stdout cannot encode is escaped, not a crash
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        run(**args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
    except argparse.ArgumentError as exc:  # a rule between two options, checked by the command
        error(str(exc))
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe; die quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (OSError, CndkitError) as exc:
        code = (EXIT_IO if isinstance(exc, OSError) else
                EXIT_PARSE if isinstance(exc, (ParseError, SchemaVersionError)) else EXIT_CONSTRAINT)
        # an OSError's message holds its file name whole
        print(f"error: {capped(exc, str, MESSAGE_LIMIT) if code == EXIT_IO else exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
