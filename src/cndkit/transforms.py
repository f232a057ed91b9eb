"""Graph-to-graph parameter-reduction passes, validators, and diffing.

Two rewrite passes are provided, applied per tagged module:

  * kernel replacement: the first separable conv of each module trades its
    3x3 kernel for 1x1 (a 9x cut of that layer's depthwise kernel),
  * fire insertion: a module's conv stack is replaced by a squeeze 1x1 ->
    expand 1x1 -> expand 3x3 triplet, so the 3x3 layer sees the narrow
    expand1 width instead of the module's full input width. Pooling and
    residual structure are preserved; the residual projection is resized,
    or inserted when the new output width differs from the module's input
    width as earlier rewrites left it.

``cndkit.zoo.build_optimized_xception`` is both passes applied to
``build_xception``, so fire-module and residual wiring lives only here.

Both passes are total: a graph with no matching modules comes back unchanged
with an empty report.
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
)
from .graph import (
    PADDING_SAME,
    Activation,
    Add,
    BatchNorm,
    Conv2D,
    GlobalAvgPool,
    LayerKind,
    LayerNode,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    check_endpoints,
    check_size,
    group_modules,
    is_conv,
    topo_sort,
)


@dataclass(frozen=True)
class NodeChange:
    node_id: str
    before: str
    after: str


@dataclass(frozen=True)
class PassReport:
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

    Only modules whose leading separable conv still has a 3x3 kernel are
    touched, which makes the pass idempotent. Filters, stride, and padding
    are untouched.
    """
    rows = analyzer.analyze(graph)
    leading = (
        next((node for _, node in members if type(node.kind) is SeparableConv2D), None)
        for members in group_modules(graph.nodes).values()
    )
    targets = {node.id for node in leading if node is not None and node.kind.kernel == 3}

    params_before = analyzer.total_params(rows)
    if not targets:
        return graph, PassReport("strategy1_replace_kernels", (), params_before, params_before)

    changed: list[NodeChange] = []
    new_nodes: list[LayerNode] = []
    params_after = params_before
    shapes_kept = True
    for row in rows:
        node = row.node
        if node.id in targets:
            new_kind = dataclasses.replace(node.kind, kernel=1)
            changed.append(NodeChange(node.id, _describe(node.kind), _describe(new_kind)))
            node = dataclasses.replace(node, kind=new_kind)
            params_after += (
                analyzer.count_params_layer(node, row.params.channels_in).total - row.params.total
            )
            shapes_kept = shapes_kept and new_kind.padding == PADDING_SAME
        new_nodes.append(node)
    result = dataclasses.replace(graph, nodes=tuple(new_nodes))
    # A 1x1 kernel changes no node's channels, so the input's last shape
    # stands for the result's; the input's table goes before any check.
    last_shape = rows[-1].shape_out
    del rows, new_nodes
    if not shapes_kept:
        # Under valid padding the 1x1 kernel widens the output map, which can
        # change a flattening Dense further down or break an Add.
        params_after = analyzer.count_params(result).total
    check_endpoints(result, last_shape)
    return result, PassReport("strategy1_replace_kernels", tuple(changed), params_before, params_after)


# -- strategy 2: fire-module insertion -----------------------------------------

@dataclass(frozen=True)
class FireModuleSpec:
    """Squeeze/expand filter counts of one fire module.

    A usable spec keeps the squeeze width below the combined expand width
    (s1x1 < e1x1 + e3x3); construction allows any positive counts so that
    validators and passes can report the violation themselves.
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


def conv_unit(nodes: list[LayerNode], base_id: str, kind: LayerKind, source: str, tag: str,
              activation: str | None = "relu") -> str:
    """Append conv -> BatchNorm [-> Activation] to ``nodes``, the last two with
    ``_bn`` and ``_act`` added to ``base_id`` and ``tag``; return the tail id."""
    nodes.append(LayerNode(base_id, kind, (source,), tag))
    nodes.append(LayerNode(f"{base_id}_bn", BatchNorm(), (base_id,), f"{tag}_bn"))
    if activation is not None:
        nodes.append(LayerNode(f"{base_id}_act", Activation(activation), (f"{base_id}_bn",), f"{tag}_act"))
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
_WIDTH_KEEPING_KINDS = (BatchNorm, Activation, MaxPool, Add, GlobalAvgPool)


def _module_structure(members: list[tuple[str, LayerNode]], module: str, fed_out: dict[str, str]):
    """Pick apart one tagged module, given its ``(role, node)`` members and
    ``fed_out`` (node id -> a consumer outside its module): input, main convs,
    pool, add, projection and tail (the one node no other node of the module
    consumes, and the only one a node outside it may)."""
    nodes = [node for _, node in members]
    id_set = {n.id for n in nodes}
    for node in nodes:
        if type(node.kind) not in _REWRITABLE_KINDS:
            raise ModuleStructureError(
                f"module {capped(module)} contains a {type(node.kind).__name__} node; "
                "only conv/pool/norm/activation/add modules can be rewritten"
            )

    external = []
    for node in nodes:
        for src in node.inputs:
            if src not in id_set and src not in external:
                external.append(src)
    if len(external) != 1:
        raise ModuleStructureError(
            f"module {capped(module)} must be fed by exactly one outside node, "
            f"found {capped(external)}"
        )
    module_input = external[0]

    main_convs = [n for role, n in members if is_conv(n.kind) and role != "residual"]
    pools = [n for n in nodes if type(n.kind) is MaxPool]
    adds = [n for n in nodes if type(n.kind) is Add]
    proj = next((n for role, n in members if is_conv(n.kind) and role == "residual"), None)
    proj_bn = None
    if proj is not None:
        proj_bn = next(
            (n for n in nodes if type(n.kind) is BatchNorm and n.inputs == (proj.id,)), None
        )
    if len(pools) > 1 or len(adds) > 1:
        raise ModuleStructureError(
            f"module {capped(module)} has more than one pool or add; cannot rewrite"
        )

    consumed = {src for n in nodes for src in n.inputs}
    tails = [n.id for n in nodes if n.id not in consumed]
    if len(tails) != 1:
        raise ModuleStructureError(
            f"module {capped(module)} must have a single output, found {capped(tails)}"
        )
    for node in nodes:
        if node.id in fed_out and node.id != tails[0]:
            raise ModuleStructureError(
                f"module {capped(module)}: node {capped(node.id)} feeds {capped(fed_out[node.id])} "
                f"outside the module; only its output {capped(tails[0])} may"
            )
    return module_input, main_convs, (pools[0] if pools else None), (adds[0] if adds else None), proj, proj_bn, tails[0]


def strategy2_insert_fire(
    graph: ModelGraph, specs: dict[str, FireModuleSpec]
) -> tuple[ModelGraph, PassReport]:
    """Replace each targeted module's conv stack with a fire triplet.

    ``specs`` maps module tags (e.g. ``"entry_flow/m2"``) to the fire widths
    to insert. Pool and Add nodes keep their ids; the residual projection is
    resized to the new output width, or inserted when an identity residual
    no longer matches.
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
    if not specs:
        return graph, PassReport("strategy2_insert_fire", (), params_before, params_before)

    row_of = {row.node.id: row for row in rows}
    added: set[str] = set()  # ids of the nodes the pass adds; row_of holds the input's
    owner = {node.id: module for module in specs for _, node in groups[module]}
    fed_out = {src: node.id for node in reversed(graph.nodes) for src in node.inputs
               if src in owner and owner[src] != owner.get(node.id)}
    # every module is checked before any is rewritten; modules in stored order
    structures = {module: _module_structure(groups[module], module, fed_out)
                  for module in groups if module in specs}
    # Every spec is valid and every other module is kept as it is, tags
    # included, so the result's violations are those of the modules left.
    violations = _fire_violations((m, members) for m, members in groups.items() if m not in specs)
    remap: dict[str, str] = {}
    widths: dict[str, int] = {}  # old id -> new width: rewritten tails and what passes them on
    changed: list[NodeChange] = []
    new_nodes: list[LayerNode] = []

    def fresh(base: str, build) -> list[LayerNode]:
        """Add and return the nodes ``build(made, prefix)`` appends to ``made``
        for the first prefix of ``base``, ``base_f``, ``base_f_f``, ... none of
        whose ids is taken: the one naming rule for the nodes the pass adds."""
        while True:
            made: list[LayerNode] = []
            build(made, base)
            ids = [node.id for node in made]
            if not any(i in row_of or i in added for i in ids):
                added.update(ids)
                new_nodes.extend(made)
                return made
            base += "_f"

    def rebuild(module: str, spec: FireModuleSpec) -> None:
        module_input, main_convs, pool, add_node, proj, proj_bn, old_tail = structures[module]
        source = remap.get(module_input, module_input)
        in_shape = row_of[module_input].shape_out
        in_channels = widths.get(module_input, in_shape.channels)
        out_shape = row_of[old_tail].shape_out
        downsamples = out_shape.height < in_shape.height or out_shape.width < in_shape.width
        stride_out = 1 if pool is not None or not downsamples else 2

        fire = fresh(module.replace("/", "_") + "_fire", lambda made, prefix: made.extend(
            make_fire_module(source, spec, stride_out=stride_out, id_prefix=prefix, module_tag=module)))
        main_tail = fire[-1].id

        for old, new in zip_longest(main_convs, [n for n in fire if is_conv(n.kind)]):
            changed.append(NodeChange((old or new).id, _describe(old.kind) if old else "(none)",
                                      _describe(new.kind) if new else "(removed)"))

        if pool is not None:
            new_nodes.append(dataclasses.replace(pool, inputs=(main_tail,)))
            main_tail = pool.id

        if add_node is not None:
            if proj is not None:
                new_kind = dataclasses.replace(proj.kind, filters=spec.e3x3)
                if new_kind != proj.kind:
                    changed.append(NodeChange(proj.id, _describe(proj.kind), _describe(new_kind)))
                new_nodes.append(dataclasses.replace(proj, kind=new_kind, inputs=(source,)))
                res_tail = proj.id
                if proj_bn is not None:
                    new_nodes.append(dataclasses.replace(proj_bn, inputs=(proj.id,)))
                    res_tail = proj_bn.id
            elif spec.e3x3 == in_channels and not downsamples:
                res_tail = source
            else:
                res_kind = Conv2D(spec.e3x3, 1, stride=2 if downsamples else 1)
                res = fresh(module.replace("/", "_") + "_res", lambda made, prefix: conv_unit(
                    made, prefix, res_kind, source, f"{module}/residual", activation=None))
                changed.append(NodeChange(res[0].id, "(identity residual)", _describe(res_kind)))
                res_tail = res[-1].id
            new_nodes.append(dataclasses.replace(add_node, inputs=(main_tail, res_tail)))
            remap[old_tail] = add_node.id
        else:
            remap[old_tail] = main_tail
        widths[old_tail] = spec.e3x3

    for node in graph.nodes:
        module = owner.get(node.id)
        if module is not None:
            if node is groups[module][0][1]:  # the module's first node
                rebuild(module, specs[module])
            continue
        inputs = tuple(remap.get(i, i) for i in node.inputs)
        new_nodes.append(node if inputs == node.inputs else dataclasses.replace(node, inputs=inputs))
        if type(node.kind) in _WIDTH_KEEPING_KINDS and node.inputs[0] in widths:
            widths[node.id] = widths[node.inputs[0]]

    result = dataclasses.replace(graph, nodes=tuple(new_nodes))
    # The input's table goes before the result's is built, so the two are
    # never held at once.
    del rows, row_of, groups, owner, new_nodes
    try:
        rows_after = analyzer.analyze(result)
    except ShapeMismatchError as exc:
        raise ResidualShapeBrokenError(
            f"fire insertion broke residual shapes in {capped(graph.name)}: {exc}"
        ) from exc
    check_endpoints(result, rows_after[-1].shape_out)
    report = PassReport(
        "strategy2_insert_fire",
        tuple(changed),
        params_before,
        analyzer.total_params(rows_after),
        violations=tuple(violations),
    )
    return result, report


# -- strategy 3: downsampling audit ---------------------------------------------

@dataclass(frozen=True)
class DownsampleEntry:
    node_id: str
    depth_fraction: float
    input_shape: TensorShape
    output_shape: TensorShape


@dataclass(frozen=True)
class DownsampleAudit:
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


# -- fire-module validator --------------------------------------------------------

def validate_fire_constraints(graph: ModelGraph) -> list[str]:
    """Check every squeeze/expand1/expand3 triple for s1x1 < e1x1 + e3x3.

    Returns one message per violating module; an empty list means the graph
    has no violating fire module (vacuously true without fire tags).
    """
    return _fire_violations(group_modules(graph.nodes).items())


def _fire_violations(modules) -> list[str]:
    """The one fire rule, over ``(module, (role, node) members)`` pairs."""
    violations: list[str] = []
    for module, members in modules:
        widths = {role: node.kind.filters for role, node in members
                  if role in ("squeeze", "expand1", "expand3") and is_conv(node.kind)}
        if len(widths) == 3:
            s, e1, e3 = widths["squeeze"], widths["expand1"], widths["expand3"]
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
    lines = [f"model A: {original.name}", f"model B: {transformed.name}", header, "-" * len(header)]
    for module in modules:
        a = mods_a.get(module)
        b = mods_b.get(module)
        delta = (b["params"] if b else 0) - (a["params"] if a else 0)
        lines.append(
            f"{module:<18} {fmt(a, 'kernels'):>10} {fmt(a, 'filters'):>16} {fmt(a, 'params'):>12} "
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
