"""Per-layer metrics: which program functions are traced, and how their
spans become the named metrics of ``BENCHMARK.json``.

A ``<layer>.<function>_ms`` metric is the median, over the operations that
call the function, of the self time its spans take in one operation (time in
the call minus time in traced calls it makes). ``*_calls`` is the median
number of calls per operation. ``cli.interpreter_ms`` is the median time of a
bare ``python -c pass`` child; the other ``cli.*`` metrics are medians of a
child's time minus that of the baseline child run just before it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

PER_LAYER = (
    "cli.interpreter_ms", "cli.import_ms", "cli.build_work_ms", "cli.analyze_work_ms",
    "cli.transform_work_ms", "cli.diff_work_ms", "cli.pareto_work_ms",
    "zoo.build_ms",
    "serialize.serialize_ms", "serialize.deserialize_ms", "serialize.bytes",
    "graph.validate_ms", "graph.topo_sort_ms", "graph.infer_shapes_ms",
    "graph.topo_sort_calls", "graph.infer_shapes_calls",
    "analyzer.count_params_ms", "analyzer.flops_estimate_ms", "analyzer.memory_estimate_ms",
    "analyzer.activation_sizes_ms",
    "transforms.strategy1_ms", "transforms.strategy2_ms", "transforms.strategy3_audit_ms",
    "transforms.diff_ms", "transforms.structurally_equal_ms", "transforms.nodes_changed",
    "pareto.load_measurements_ms", "pareto.pareto_front_ms", "pareto.classify_quadrant_ms",
    "pareto.export_plot_data_ms", "pareto.front_size",
    "deep.growth_x", "trace.overhead_ms",
)

# metric -> span names summed into it (span names are "<module>.<function>")
TIMED = {
    "zoo.build_ms": ("zoo.build_xception", "zoo.build_optimized_xception", "zoo.build_mobilenet_v2"),
    "serialize.serialize_ms": ("serialize.serialize",),
    "serialize.deserialize_ms": ("serialize.deserialize",),
    "graph.validate_ms": ("graph.validate",),
    "graph.topo_sort_ms": ("graph.topo_sort",),
    "graph.infer_shapes_ms": ("graph.infer_shapes",),
    "analyzer.count_params_ms": ("analyzer.count_params",),
    "analyzer.flops_estimate_ms": ("analyzer.flops_estimate",),
    "analyzer.memory_estimate_ms": ("analyzer.memory_estimate",),
    "analyzer.activation_sizes_ms": ("analyzer.activation_sizes",),
    "transforms.strategy1_ms": ("transforms.strategy1_replace_kernels",),
    "transforms.strategy2_ms": ("transforms.strategy2_insert_fire",),
    "transforms.strategy3_audit_ms": ("transforms.strategy3_audit",),
    "transforms.diff_ms": ("transforms.diff",),
    "transforms.structurally_equal_ms": ("transforms.structurally_equal",),
    "pareto.load_measurements_ms": ("pareto.load_measurements",),
    "pareto.pareto_front_ms": ("pareto.pareto_front",),
    "pareto.classify_quadrant_ms": ("pareto.classify_quadrant",),
    "pareto.export_plot_data_ms": ("pareto.export_plot_data",),
}
CALLS = {"graph.topo_sort_calls": "graph.topo_sort", "graph.infer_shapes_calls": "graph.infer_shapes"}
# metric -> (span names, unit); per operation, the values the spans recorded are summed
VALUES = {
    "serialize.bytes": (("serialize.serialize",), "bytes"),
    "transforms.nodes_changed": (("transforms.strategy1_replace_kernels",
                                  "transforms.strategy2_insert_fire"), "count"),
    "pareto.front_size": (("pareto.pareto_front",), "count"),
}
CLI_COMMANDS = ("build", "analyze", "transform", "diff", "pareto")


def targets(m: dict) -> dict:
    """Span name -> (function, value taken from its result) for Tracer.install."""
    names = {span for spans in TIMED.values() for span in spans}
    values = {
        "serialize.serialize": lambda text: len(text.encode("utf-8")),
        "transforms.strategy1_replace_kernels": lambda r: len(r[1].nodes_changed),
        "transforms.strategy2_insert_fire": lambda r: len(r[1].nodes_changed),
        "pareto.pareto_front": len,
    }
    out = {}
    for name in sorted(names):
        module, func = name.split(".")
        out[name] = (getattr(m[module], func), values.get(name))
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


@dataclass
class Operation:
    """One top-level operation of a traced run, from its spans."""

    label: str
    ns: int
    self_ns: dict = field(default_factory=lambda: defaultdict(int))  # span name -> self time
    calls: dict = field(default_factory=lambda: defaultdict(int))    # span name -> calls
    values: dict = field(default_factory=lambda: defaultdict(int))   # span name -> summed value


def operations(tracer, op_prefix: str) -> dict:
    """Op id -> Operation, for the operations whose top span is named
    ``op_prefix<label>``. Every per-layer figure is made from these."""
    selfs = tracer.self_ns()
    ops = {}
    for sid, parent, op, name, start, end, _v in tracer.spans:
        if parent == 0 and name.startswith(op_prefix):
            ops[op] = Operation(name[len(op_prefix):], end - start)
    for sid, parent, op, name, start, end, value in tracer.spans:
        if op in ops and parent:
            ops[op].self_ns[name] += selfs[sid]
            ops[op].calls[name] += 1
            if value is not None:
                ops[op].values[name] += value
    return ops


def _per_op(ops, field_name, span_names) -> list:
    """Per operation that calls any of ``span_names``, the sum of their figures."""
    return [sum(getattr(o, field_name).get(s, 0) for s in span_names) for o in ops.values()
            if any(s in o.calls for s in span_names)]


def breakdown(ops) -> dict:
    """Label -> (operations, median op ms, {span name: (median self ms, median calls)})."""
    by_label = defaultdict(dict)
    for op_id, o in ops.items():
        by_label[o.label][op_id] = o
    out = {}
    for label, group in by_label.items():
        names = sorted({n for o in group.values() for n in o.calls})
        out[label] = (len(group), statistics.median(o.ns for o in group.values()) / 1e6,
                      {n: (statistics.median(o.self_ns.get(n, 0) for o in group.values()) / 1e6,
                           statistics.median(o.calls.get(n, 0) for o in group.values()))
                       for n in names})
    return out


def metrics(ops) -> dict:
    """Every metric the given operations can give."""
    out = {}
    for metric_name, span_names in TIMED.items():
        per_op = _per_op(ops, "self_ns", span_names)
        if per_op:
            out[metric_name] = _metric(statistics.median(per_op) / 1e6, "ms")
    for metric_name, span in CALLS.items():
        per_op = _per_op(ops, "calls", (span,))
        if per_op:
            out[metric_name] = _metric(statistics.median(per_op), "count")
    for metric_name, (span_names, unit) in VALUES.items():
        per_op = _per_op(ops, "values", span_names)
        if per_op:
            out[metric_name] = _metric(statistics.median(per_op), unit)

    table = breakdown(ops)
    # A child call minus the baseline run just before it (see CliSession.trace_round).
    below = {"import": "interpreter", **{cmd: "import" for cmd in CLI_COMMANDS}}
    diffs = defaultdict(list)
    for op_id, o in ops.items():
        prev = ops.get(op_id - 1)
        if o.label in below and prev and prev.label == below[o.label]:
            diffs[o.label].append((o.ns - prev.ns) / 1e6)
    if "interpreter" in table:
        out["cli.interpreter_ms"] = _metric(table["interpreter"][1], "ms")
    for label, ms in diffs.items():
        name = "cli.import_ms" if label == "import" else f"cli.{label}_work_ms"
        out[name] = _metric(statistics.median(ms), "ms")
    # Deep-graph labels are node counts: the largest graph against the one
    # nearest half its size.
    sizes = sorted(int(label) for label in table if label.isdigit())
    if len(sizes) > 1:
        big = sizes[-1]
        half = min(sizes[:-1], key=lambda n: abs(2 * n - big))
        per_node = {n: table[str(n)][1] / n for n in (big, half)}
        out["deep.growth_x"] = _metric(per_node[big] / per_node[half], "x")
    return out
