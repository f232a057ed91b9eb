"""Graph-to-graph parameter-reduction passes, validators, and diffing.

Two rewrite passes are provided, applied per tagged module:

  * kernel replacement: the first separable conv of each module trades a
    same-padding 3x3 kernel for 1x1 (a 9x cut of its depthwise kernel),
  * fire insertion: a module's main stack (its convs whose role is not
    ``residual``, and each BatchNorm or Activation fed by the stack) becomes
    a squeeze 1x1 -> expand 1x1 -> expand 3x3 triplet, so the 3x3 layer sees
    the narrow expand1 width instead of the module's full input width. The
    module's other nodes are kept as wired, reading the triplet for the
    stack; its one kept conv, the projection, is resized, and one is inserted
    before an Add on the module input when that input's width differs.
    expand3's stride keeps the stack's output size. A module with no such
    stride, a second kept conv, or a stack fed by anything but the module
    input or without one output is a ModuleStructureError. The pass builds
    its result and the result's per-node table in one walk: a node it keeps
    as it was, with no input of a new shape, keeps its input row; every
    other node gets its kind's shape rule, and the projection decision
    reads the module input's width from that table.

``cndkit.zoo.build_optimized_xception`` is both passes applied to
``build_xception``, so fire-module and residual wiring lives only here.

Both passes are total: a graph with no matching modules comes back unchanged
with an empty report; neither changes a node's output height or width.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest

from . import analyzer
from .errors import (
    InvalidFireSpecError,
    ModuleStructureError,
    ResidualShapeBrokenError,
    ShapeMismatchError,
    UnknownModuleTagError,
    ValidationError,
    capped,
    printable,
)
from .graph import (
    KINDS,
    PADDING_SAME,
    VALID_ACTIVATIONS,
    VALID_STRIDES,
    Activation,
    Add,
    BatchNorm,
    Conv2D,
    LayerKind,
    LayerNode,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    _keep_shapes,
    _window_dim,
    check_append,
    check_endpoints,
    check_size,
    group_modules,
    is_conv,
    topo_sort,
)


@dataclass(frozen=True)
class NodeChange:
    """One node a pass changed: its id and its kind before and after, as text
    (``(none)`` before a node the pass added)."""

    node_id: str
    before: str
    after: str


@dataclass(frozen=True)
class PassReport:
    """What one pass did: the nodes it changed, the graph's params before and
    after, and the fire modules of its result that break the fire rule."""

    pass_name: str
    nodes_changed: tuple[NodeChange, ...]
    params_before: int
    params_after: int
    violations: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "pass_name": self.pass_name,
            "nodes_changed": [
                {"id": c.node_id, "before": c.before, "after": c.after}
                for c in self.nodes_changed
            ],
            "params_before": self.params_before,
            "params_after": self.params_after,
            "violations": list(self.violations),
        }


def _describe(kind) -> str:
    if is_conv(kind):
        return f"{type(kind).__name__}(f{kind.filters},k{kind.kernel},s{kind.stride})"
    return type(kind).__name__


# -- strategy 1: kernel replacement -------------------------------------------

def strategy1_replace_kernels(graph: ModelGraph) -> tuple[ModelGraph, PassReport]:
    """Give the first separable conv of every tagged module a 1x1 kernel.

    Only modules whose leading separable conv still has a same-padding 3x3
    kernel are touched, which makes the pass idempotent and keeps every
    node's shape. Filters, stride, and padding are untouched.
    """
    rows = analyzer.analyze(graph)
    leading = (
        next((node for _, node in members if type(node.kind) is SeparableConv2D), None)
        for members in group_modules(graph.nodes).values()
    )
    targets = {node.id for node in leading
               if node is not None and (node.kind.kernel, node.kind.padding) == (3, PADDING_SAME)}

    params_before = analyzer.total_params(rows)
    if not targets:
        return graph, PassReport("strategy1_replace_kernels", (), params_before, params_before)

    changed: list[NodeChange] = []
    new_nodes: list[LayerNode] = []
    params_after = params_before
    made: dict[LayerKind, tuple[LayerKind, str, str]] = {}  # one 1x1 kind per targeted kind
    for row in rows:
        node = row.node
        if node.id in targets:
            if node.kind not in made:
                new_kind = dataclasses.replace(node.kind, kernel=1)
                made[node.kind] = (new_kind, _describe(node.kind), _describe(new_kind))
            new_kind, before, after = made[node.kind]
            changed.append(NodeChange(node.id, before, after))
            node = LayerNode(node.id, new_kind, node.inputs, node.tag)
            params_after += (
                analyzer.count_params_layer(node, row.params.channels_in).total - row.params.total
            )
        new_nodes.append(node)
    result = dataclasses.replace(graph, nodes=tuple(new_nodes))
    # A same-padding 1x1 kernel changes no node's shape, so the input's last
    # shape stands for the result's; the input's table goes before any check.
    last_shape = rows[-1].shape_out
    del rows, new_nodes
    check_endpoints(result, last_shape)
    _keep_shapes(result, graph._shapes)  # the input's, kept by analyze
    return result, PassReport("strategy1_replace_kernels", tuple(changed), params_before, params_after)


# -- strategy 2: fire-module insertion -----------------------------------------

@dataclass(frozen=True)
class FireModuleSpec:
    """Squeeze/expand filter counts of one fire module.

    A usable spec keeps the squeeze width below the combined expand width
    (s1x1 < e1x1 + e3x3); construction allows any positive counts so that
    ``check_fire_spec`` and strategy2's ``violations`` can report the violation.
    """

    s1x1: int
    e1x1: int
    e3x3: int

    def __post_init__(self):
        check_size("FireModuleSpec.s1x1", self.s1x1)
        check_size("FireModuleSpec.e1x1", self.e1x1)
        check_size("FireModuleSpec.e3x3", self.e3x3)

    def is_valid(self) -> bool:
        return self.s1x1 < self.e1x1 + self.e3x3


def check_fire_spec(spec: FireModuleSpec, module: str | None = None) -> None:
    if not isinstance(spec, FireModuleSpec):
        raise InvalidFireSpecError(f"fire spec must be a FireModuleSpec, got {capped(spec)}",
                                   module=module)
    if not spec.is_valid():
        raise InvalidFireSpecError(
            f"squeeze filters must stay below the expand total: "
            f"s1x1={capped(spec.s1x1)} is not < e1x1+e3x3={capped(spec.e1x1 + spec.e3x3)}",
            module=module,
        )


# Kinds are frozen values, so every conv unit shares these.
_BATCH_NORM = BatchNorm()
_ACTIVATIONS = {fn: Activation(fn) for fn in VALID_ACTIVATIONS}


def conv_unit(nodes: list[LayerNode], base_id: str, kind: LayerKind, source: str, tag: str,
              activation: str | None = "relu") -> str:
    """Append conv -> BatchNorm [-> Activation] to ``nodes``, the last two with
    ``_bn`` and ``_act`` added to ``base_id`` and ``tag``; return the tail id."""
    nodes.append(LayerNode(base_id, kind, (source,), tag))
    nodes.append(LayerNode(f"{base_id}_bn", _BATCH_NORM, (base_id,), f"{tag}_bn"))
    if activation is not None:
        act = _ACTIVATIONS.get(activation) if type(activation) is str else None
        nodes.append(LayerNode(f"{base_id}_act", act or Activation(activation), (f"{base_id}_bn",),
                               f"{tag}_act"))
    return nodes[-1].id


def make_fire_module(
    input_id: str,
    spec: FireModuleSpec,
    stride_out: int = 1,
    *,
    id_prefix: str | None = None,
    module_tag: str = "fire/m1",
) -> list[LayerNode]:
    """Nodes of one fire module: squeeze 1x1 -> expand 1x1 -> expand 3x3.

    Every conv is separable and followed by BatchNorm + relu. ``stride_out``
    is applied to the final 3x3 expand so a module can downsample in place.
    Returns the nodes in wiring order; the last node is the module output.
    """
    check_fire_spec(spec, module=module_tag)
    prefix = id_prefix if id_prefix is not None else module_tag.replace("/", "_")
    plan = (
        ("squeeze", SeparableConv2D(spec.s1x1, 1)),
        ("expand1", SeparableConv2D(spec.e1x1, 1)),
        ("expand3", SeparableConv2D(spec.e3x3, 3, stride=stride_out)),
    )
    nodes: list[LayerNode] = []
    source = input_id
    for role, kind in plan:
        source = conv_unit(nodes, f"{prefix}_{role}", kind, source, f"{module_tag}/{role}")
    return nodes


_REWRITABLE_KINDS = (Conv2D, SeparableConv2D, MaxPool, BatchNorm, Activation, Add)


def _module_structure(members: list[tuple[str, LayerNode]], module: str, fed_out: dict[str, str],
                      row_of: dict[str, analyzer.LayerRow]):
    """Pick apart one tagged module, given its ``(role, node)`` members in
    stored order, ``fed_out`` (node id -> a consumer outside its module) and
    ``row_of``: its input, main stack (id -> node), the stack's one output
    and the expand3 stride that keeps the stack's output size. Only its tail,
    the one node no module node consumes, may feed a node outside."""
    id_set = {node.id for _, node in members}
    external: list[str] = []
    consumed: set[str] = set()
    stack: dict[str, LayerNode] = {}
    stack_fed: list[str] = []  # module nodes off the stack that feed it
    read: list[str] = []  # stack nodes that module nodes off the stack read
    kept_convs: list[str] = []
    for role, node in members:
        if type(node.kind) not in _REWRITABLE_KINDS:
            raise ModuleStructureError(
                f"module {capped(module)} contains a {type(node.kind).__name__} node; "
                "only conv/pool/norm/activation/add modules can be rewritten"
            )
        for src in node.inputs:
            if src not in id_set and src not in external:
                external.append(src)
        consumed.update(node.inputs)
        if (is_conv(node.kind) and role != "residual"
                or type(node.kind) in (BatchNorm, Activation) and node.inputs[0] in stack):
            if node.inputs[0] in id_set and node.inputs[0] not in stack:
                stack_fed.append(node.inputs[0])
            stack[node.id] = node
        else:
            if is_conv(node.kind):
                kept_convs.append(node.id)
            read += [src for src in node.inputs if src in stack and src not in read]
    if len(external) != 1:
        raise ModuleStructureError(
            f"module {capped(module)} must be fed by exactly one outside node, "
            f"found {capped(external)}"
        )

    tails = [node.id for _, node in members if node.id not in consumed]
    if len(tails) != 1:
        raise ModuleStructureError(
            f"module {capped(module)} must have a single output, found {capped(tails)}"
        )
    for _, node in members:
        if node.id in fed_out and node.id != tails[0]:
            raise ModuleStructureError(
                f"module {capped(module)}: node {capped(node.id)} feeds {capped(fed_out[node.id])} "
                f"outside the module; only its output {capped(tails[0])} may"
            )
    if len(kept_convs) > 1:
        raise ModuleStructureError(
            f"module {capped(module)} keeps more than one conv off its main stack, "
            f"found {capped(kept_convs)}; only one projection can be resized"
        )
    if stack_fed:
        raise ModuleStructureError(
            f"module {capped(module)}: its main stack is fed by {capped(stack_fed[0])}, "
            f"not by the module input {capped(external[0])}"
        )
    outputs = read + [tail for tail in tails if tail in stack]
    if len(outputs) != 1:
        raise ModuleStructureError(
            f"module {capped(module)} must have one main-stack output, found {capped(outputs)}"
        )
    shape_in, shape_out = row_of[external[0]].shape_out, row_of[outputs[0]].shape_out
    strides = [s for s in VALID_STRIDES if (shape_out.height, shape_out.width) == tuple(
        _window_dim(d, 3, s, PADDING_SAME, module) for d in (shape_in.height, shape_in.width))]
    if not strides:
        raise ModuleStructureError(
            f"module {capped(module)}: no expand3 stride maps its input's {shape_in.height}x"
            f"{shape_in.width} to its main stack's {shape_out.height}x{shape_out.width}")
    return external[0], stack, outputs[0], strides[0]


def strategy2_insert_fire(
    graph: ModelGraph, specs: dict[str, FireModuleSpec]
) -> tuple[ModelGraph, PassReport]:
    """Replace each targeted module's main stack with a fire triplet.

    ``specs`` maps module tags (e.g. ``"entry_flow/m2"``) to the fire widths
    to insert. Every other node of the module keeps its id and its wiring;
    the projection is resized to the new output width, or inserted where an
    identity residual no longer matches. The pass infers shapes once, for
    its input, and builds its result and the result's table in one walk:
    each node it emits passes ``check_append`` and keeps its input row when
    it is the same node object and none of its inputs changed shape, or
    gets its kind's shape rule and ``analyzer``'s row rule. An identity
    residual reads its width from that table; ``params_after`` is its total.
    """
    if not isinstance(specs, dict):
        raise ValidationError(
            f"specs must be a dict of module tag -> FireModuleSpec, got {capped(specs)}"
        )
    groups = group_modules(graph.nodes)
    for tag, spec in specs.items():
        if tag not in groups:
            raise UnknownModuleTagError(
                f"no module tagged {capped(tag)} in graph {capped(graph.name)}"
            )
        check_fire_spec(spec, module=tag)
    rows = analyzer.analyze(graph)
    params_before = analyzer.total_params(rows)
    # Every spec is valid and every other module is kept as it is, tags
    # included, so the result's violations are those of the modules left.
    violations = tuple(_fire_violations((m, g) for m, g in groups.items() if m not in specs))
    if not specs:
        return graph, PassReport("strategy2_insert_fire", (), params_before, params_before,
                                 violations=violations)

    row_of = {row.node.id: row for row in rows}
    owner = {node.id: module for module in specs for _, node in groups[module]}
    fed_out = {src: node.id for node in reversed(graph.nodes) for src in node.inputs
               if src in owner and owner[src] != owner.get(node.id)}
    # every module is checked before any is rewritten; modules in stored order
    structures = {module: _module_structure(groups[module], module, fed_out, row_of)
                  for module in groups if module in specs}
    del rows, groups, fed_out  # the walk reads the input's rows by id only
    remap: dict[str, str] = {}  # each replaced stack's output -> its fire tail
    changed: list[NodeChange] = []
    table: list[analyzer.LayerRow] = []  # the result's rows, so far
    shapes: dict[str, TensorShape] = {}  # the result's ids so far -> output shape
    shared: dict[tuple[int, int, int], TensorShape] = {}
    moved: set[str] = set()  # ids whose shape is not their input row's, new ids included

    def emit(node: LayerNode) -> None:
        """Append ``node`` to the result and its row to ``table``."""
        check_append(shapes, node)
        row = row_of.get(node.id)
        if row is not None and row.node is node and moved.isdisjoint(node.inputs):
            shapes[node.id] = row.shape_out
        else:
            try:  # a shape rule reads only input_shape of its graph, which the result keeps
                shape = shapes[node.id] = KINDS[type(node.kind)].shape(graph, node, shapes, shared)
            except ShapeMismatchError as exc:
                raise ResidualShapeBrokenError(
                    f"fire insertion broke residual shapes in {capped(graph.name)}: {exc}"
                ) from exc
            if row is None or shape != row.shape_out:
                moved.add(node.id)
            (row,) = analyzer._layer_rows((node,), shapes)
        table.append(row)

    def fresh(base: str, build) -> list[LayerNode]:
        """Emit and return the nodes ``build(made, prefix)`` appends to
        ``made`` for the first prefix of ``base``, ``base_f``, ``base_f_f``,
        ... none of whose ids is taken: the one naming rule for the nodes
        the pass adds."""
        while True:
            made: list[LayerNode] = []
            build(made, base)
            if not any(node.id in row_of or node.id in shapes for node in made):
                for node in made:
                    emit(node)
                return made
            base += "_f"

    # The fire triplet takes the place of the module's first node and the
    # module's other nodes follow in stored order: a topological order still.
    for node in graph.nodes:
        module = owner.get(node.id)
        if module is not None:
            spec = specs[module]
            module_input, stack, stack_out, stride = structures[module]
            source = remap.get(module_input, module_input)
            if stack_out not in remap:  # the module's first node
                fire = fresh(module.replace("/", "_") + "_fire", lambda made, prefix: made.extend(
                    make_fire_module(source, spec, stride, id_prefix=prefix, module_tag=module)))
                main_convs = [n for n in stack.values() if is_conv(n.kind)]
                for old, new in zip_longest(main_convs, [n for n in fire if is_conv(n.kind)]):
                    changed.append(NodeChange((old or new).id, _describe(old.kind) if old else "(none)",
                                              _describe(new.kind) if new else "(removed)"))
                remap[stack_out] = fire[-1].id
            if node.id in stack:
                continue
            if is_conv(node.kind):  # the projection, the module's one kept conv
                new_kind = dataclasses.replace(node.kind, filters=spec.e3x3)
                if new_kind != node.kind:
                    changed.append(NodeChange(node.id, _describe(node.kind), _describe(new_kind)))
                    node = LayerNode(node.id, new_kind, node.inputs, node.tag)
            elif (type(node.kind) is Add and module_input in node.inputs
                  and shapes[source].channels != spec.e3x3):
                # An Add reads its inputs at the module input's height and
                # width, which the fire keeps, so only the width needs a fix.
                res_kind = Conv2D(spec.e3x3, 1)
                res = fresh(module.replace("/", "_") + "_res", lambda made, prefix: conv_unit(
                    made, prefix, res_kind, source, f"{module}/residual", activation=None))
                changed.append(NodeChange(res[0].id, "(identity residual)", _describe(res_kind)))
                node = LayerNode(node.id, node.kind, tuple(
                    res[-1].id if i == module_input else i for i in node.inputs), node.tag)
        emit(node if remap.keys().isdisjoint(node.inputs) else LayerNode(
            node.id, node.kind, tuple([remap.get(i, i) for i in node.inputs]), node.tag))

    del row_of, owner, shapes, moved  # the checks below read the result's table only
    result = dataclasses.replace(graph, nodes=tuple(row.node for row in table))
    report = PassReport(
        "strategy2_insert_fire",
        tuple(changed),
        params_before,
        analyzer.total_params(table),
        violations=violations,
    )
    check_endpoints(result, table[-1].shape_out)
    _keep_shapes(result, tuple(row.shape_out for row in table))  # emit checked every node
    return result, report


# -- strategy 3: downsampling audit ---------------------------------------------

@dataclass(frozen=True)
class DownsampleEntry:
    """One stride-2 or pooling node: its position as a fraction of the graph's
    depth, and its input and output shapes."""

    node_id: str
    depth_fraction: float
    input_shape: TensorShape
    output_shape: TensorShape


@dataclass(frozen=True)
class DownsampleAudit:
    """The downsampling nodes in order, how many sit in the first half of the
    depth, and whether most of the spatial reduction happens late."""

    entries: tuple[DownsampleEntry, ...]
    early_pool_count: int
    late_downsample_flag: bool


def strategy3_audit(graph: ModelGraph) -> DownsampleAudit:
    """List every stride-2 or pooling node with its position and shapes.

    ``late_downsample_flag`` is true when at least half of the total spatial
    reduction (log2 of the input-to-final-feature-map area ratio) happens in
    the second half of the graph's depth; ``early_pool_count`` counts listed
    nodes in the first half. Global average pooling is head collapse, not
    downsampling, and is excluded.
    """
    rows = analyzer.analyze(graph)
    denom = max(len(rows) - 1, 1)
    entries = [
        DownsampleEntry(row.node.id, pos / denom, row.shape_in, row.shape_out)
        for pos, row in enumerate(rows)
        if type(row.node.kind) is MaxPool
        or (is_conv(row.node.kind) and row.node.kind.stride == 2)
    ]

    early = sum(1 for e in entries if e.depth_fraction < 0.5)
    flag = False
    if entries:
        input_area = graph.input_shape.area
        final_area = entries[-1].output_shape.area
        mid_area = input_area
        for e in entries:
            if e.depth_fraction < 0.5:
                mid_area = e.output_shape.area
        total_bits = math.log2(input_area / final_area)
        late_bits = math.log2(mid_area / final_area)
        flag = total_bits > 0 and late_bits >= 0.5 * total_bits
    return DownsampleAudit(tuple(entries), early, flag)


# -- fire-module rule ------------------------------------------------------------

def _fire_violations(modules) -> list[str]:
    """The one fire rule: a message for each ``(module, (role, node) members)``
    pair whose squeeze, expand1 and expand3 convs break s1x1 < e1x1 + e3x3.
    A module without all three has none."""
    violations: list[str] = []
    for module, members in modules:
        filters = {role: node.kind.filters for role, node in members
                   if role in ("squeeze", "expand1", "expand3") and is_conv(node.kind)}
        if len(filters) == 3:
            s, e1, e3 = filters["squeeze"], filters["expand1"], filters["expand3"]
            if not FireModuleSpec(s, e1, e3).is_valid():
                violations.append(
                    f"{module}: s1x1={s} must be < e1x1+e3x3={e1 + e3} (e1x1={e1}, e3x3={e3})"
                )
    return violations


# -- structural comparison and diff ------------------------------------------------

def structurally_equal(a: ModelGraph, b: ModelGraph) -> bool:
    """True when two graphs match node-for-node up to a renaming of ids.

    Nodes are compared by kind (with attrs), tag, and canonicalized wiring;
    name, metadata and the stored order of the nodes are ignored.
    """
    # One key -> number table for both graphs, so a structure gets the same
    # number in either graph whatever order its nodes are stored in.
    table: dict[tuple, int] = {}

    def canon(graph: ModelGraph):
        assigned: dict[str, int] = {}
        topo_sort(graph)
        for node in graph.nodes:
            # kinds are frozen dataclasses, equal by class and fields
            key = (node.kind, node.tag, tuple(assigned[i] for i in node.inputs))
            assigned[node.id] = table.setdefault(key, len(table))
        terminal = assigned[graph.terminal_id()]
        return (graph.input_shape, graph.num_classes, Counter(assigned.values()), terminal)

    return canon(a) == canon(b)


def _module_summary(rows: list[analyzer.LayerRow], total: int) -> dict[str, dict]:
    """Main-conv kernels and filters and params per module, then the params
    of nodes in no module, if any, as ``(untagged)``."""
    params = {row.node.id: row.params.total for row in rows}
    out: dict[str, dict] = {}
    for module, members in group_modules(row.node for row in rows).items():
        convs = [node.kind for role, node in members if is_conv(node.kind) and role != "residual"]
        out[module] = {"kernels": [k.kernel for k in convs], "filters": [k.filters for k in convs],
                       "params": sum(params[node.id] for _, node in members)}
    untagged = total - sum(info["params"] for info in out.values())
    if untagged:
        out["(untagged)"] = {"kernels": [], "filters": [], "params": untagged}
    return out


def percentage_reduction(params_before: int, params_after: int) -> float:
    if params_before == 0:
        return 0.0
    return (params_before - params_after) / params_before * 100.0


def diff(original: ModelGraph, transformed: ModelGraph) -> str:
    """Side-by-side per-module comparison of kernels, filters, and params."""
    rows_a = analyzer.analyze(original)
    rows_b = analyzer.analyze(transformed)
    total_a = analyzer.total_params(rows_a)
    total_b = analyzer.total_params(rows_b)
    mods_a = _module_summary(rows_a, total_a)
    mods_b = _module_summary(rows_b, total_b)
    modules = {**mods_a, **mods_b}  # A's modules, then those only B has

    def fmt(info: dict | None, field: str) -> str:
        if info is None:
            return "-"
        if field == "params":
            return f"{info['params']:,}"
        values = info[field]
        return ",".join(str(v) for v in values) if values else "-"

    header = (
        f"{'module':<18} {'kernels A':>10} {'filters A':>16} {'params A':>12} "
        f"{'kernels B':>10} {'filters B':>16} {'params B':>12} {'delta':>12}"
    )
    lines = [f"model A: {printable(original.name)}", f"model B: {printable(transformed.name)}",
             header, "-" * len(header)]
    for module in modules:
        a = mods_a.get(module)
        b = mods_b.get(module)
        delta = (b["params"] if b else 0) - (a["params"] if a else 0)
        lines.append(
            f"{printable(module):<18} {fmt(a, 'kernels'):>10} {fmt(a, 'filters'):>16} {fmt(a, 'params'):>12} "
            f"{fmt(b, 'kernels'):>10} {fmt(b, 'filters'):>16} {fmt(b, 'params'):>12} {delta:>+12,}"
        )
    reduction = percentage_reduction(total_a, total_b)
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<18} {'':>10} {'':>16} {total_a:>12,} {'':>10} {'':>16} {total_b:>12,} "
        f"{total_b - total_a:>+12,}"
    )
    lines.append(f"parameter reduction: {reduction:.1f}%")
    return "\n".join(lines) + "\n"
