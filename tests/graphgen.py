"""Random graph generation and independent counting oracles for the tests.

The oracles deliberately avoid the library's arithmetic: shapes come from
index-range enumeration with explicit while-loops, parameter counts from
materializing each kernel's index set and counting its elements one by one.
The measurement reader is rebuilt on ``csv.DictReader`` with per-column rules.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
from itertools import product

from cndkit.errors import MeasurementRangeError, ParseError, capped
from cndkit.graph import (
    Activation,
    Add,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Input,
    LayerNode,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    validate,
)
from cndkit.pareto import CSV_HEADER, ModelMeasurement


def _fits(dim_h: int, dim_w: int, window: int, padding: str) -> bool:
    return padding == "same" or (dim_h >= window and dim_w >= window)


def random_graph(
    rng: random.Random,
    max_layers: int = 8,
    max_dim: int = 16,
    max_channels: int = 32,
    name: str = "random",
) -> ModelGraph:
    """A random valid chain with occasional residual blocks and a head.

    ``num_classes`` is the width of the last node, as ``validate`` requires."""
    h = rng.randint(4, max_dim)
    w = rng.randint(4, max_dim)
    c = rng.randint(1, 4)
    # This draw is unused, as the last node's width is the class count; it is
    # kept so that each seed still gives the same layers.
    rng.randint(2, 10)
    nodes = [LayerNode("n0", Input())]
    tip, th, tw, tc = "n0", h, w, c
    collapsed = False
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"n{counter}"

    def out_dim(dim: int, window: int, stride: int, padding: str) -> int:
        if padding == "same":
            return -(-dim // stride)
        return (dim - window) // stride + 1

    budget = rng.randint(1, max_layers)
    while budget > 0:
        budget -= 1
        if collapsed:
            choice = rng.choice(("bn", "act", "dense"))
        else:
            choice = rng.choice(
                ("conv", "sep", "conv", "sep", "pool", "bn", "act", "res", "gap", "dense")
            )
        if choice in ("conv", "sep"):
            kernel = rng.choice((1, 3))
            stride = rng.choice((1, 2))
            padding = rng.choice(("same", "valid"))
            if not _fits(th, tw, kernel, padding):
                padding = "same"
            filters = rng.randint(1, max_channels)
            kind = (
                Conv2D(filters, kernel, stride=stride, padding=padding, has_bias=rng.random() < 0.3)
                if choice == "conv"
                else SeparableConv2D(filters, kernel, stride=stride, padding=padding)
            )
            nid = fresh()
            nodes.append(LayerNode(nid, kind, (tip,)))
            th, tw = out_dim(th, kernel, stride, padding), out_dim(tw, kernel, stride, padding)
            tip, tc = nid, filters
        elif choice == "pool":
            pool = rng.choice((1, 3))
            stride = rng.choice((1, 2))
            padding = rng.choice(("same", "valid"))
            if not _fits(th, tw, pool, padding):
                padding = "same"
            nid = fresh()
            nodes.append(LayerNode(nid, MaxPool(pool, stride, padding), (tip,)))
            th, tw = out_dim(th, pool, stride, padding), out_dim(tw, pool, stride, padding)
            tip = nid
        elif choice == "bn":
            nid = fresh()
            nodes.append(LayerNode(nid, BatchNorm(), (tip,)))
            tip = nid
        elif choice == "act":
            nid = fresh()
            nodes.append(LayerNode(nid, Activation("relu"), (tip,)))
            tip = nid
        elif choice == "res":
            filters = rng.randint(1, max_channels)
            kernel = rng.choice((1, 3))
            main = fresh()
            nodes.append(LayerNode(main, SeparableConv2D(filters, kernel), (tip,)))
            proj = fresh()
            nodes.append(LayerNode(proj, Conv2D(filters, 1), (tip,)))
            join = fresh()
            nodes.append(LayerNode(join, Add(), (main, proj)))
            tip, tc = join, filters
        elif choice == "gap":
            nid = fresh()
            nodes.append(LayerNode(nid, GlobalAvgPool(), (tip,)))
            tip, th, tw = nid, 1, 1
            collapsed = True
        elif choice == "dense":
            units = rng.randint(2, max_channels)
            nid = fresh()
            nodes.append(LayerNode(nid, Dense(units, has_bias=rng.random() < 0.7), (tip,)))
            tip, th, tw, tc = nid, 1, 1, units
            collapsed = True
    return validate(ModelGraph(name, TensorShape(h, w, c), tc, tuple(nodes)))


def random_wiring(rng: random.Random, max_nodes: int = 30, name: str = "wiring") -> ModelGraph:
    """A random DAG stored in dependency order, for order and wiring tests.

    Each node takes 0-2 inputs drawn from earlier nodes, repeats allowed, so
    there are several roots and long parallel branches. Kinds only match the
    arity (Input, Conv2D, Add); shapes are not meant to check out.
    """
    nodes: list[LayerNode] = []
    for i in range(rng.randint(1, max_nodes)):
        arity = rng.choice((0, 1, 1, 2, 2)) if i else 0
        inputs = tuple(f"w{rng.randrange(i)}" for _ in range(arity))
        kind = (Input(), Conv2D(4, 1), Add())[arity]
        nodes.append(LayerNode(f"w{i}", kind, inputs))
    return ModelGraph(name=name, input_shape=TensorShape(8, 8, 3), num_classes=2, nodes=tuple(nodes))


def random_topological_order(graph: ModelGraph, rng: random.Random) -> ModelGraph:
    """``graph`` with its nodes re-stored in a random dependency order.

    Each step stores a node drawn at random from those whose inputs are all
    stored already. Expects a valid graph: unique ids, no cycle.
    """
    pending = list(graph.nodes)
    stored: list[LayerNode] = []
    placed: set[str] = set()
    while pending:
        ready = [i for i, n in enumerate(pending) if all(src in placed for src in n.inputs)]
        node = pending.pop(rng.choice(ready))
        placed.add(node.id)
        stored.append(node)
    return dataclasses.replace(graph, nodes=tuple(stored))


# untagged, flat, an empty module name, three and four parts
_TAG_POOL = (None, "flat", "a/b", "f/m1/sep1", "f/m1/residual", "f/m2/sep1", "f//sep1",
             "f/m2/x/residual", "g/m1/add")


def random_tags(graph: ModelGraph, rng: random.Random) -> ModelGraph:
    """``graph`` with each node's tag drawn from ``_TAG_POOL``."""
    nodes = tuple(dataclasses.replace(n, tag=rng.choice(_TAG_POOL)) for n in graph.nodes)
    return dataclasses.replace(graph, nodes=nodes)


def random_fire_graph(rng: random.Random, max_modules: int = 4) -> ModelGraph:
    """A stem conv, a chain of 1 to ``max_modules`` modules, then a classifier
    head. A module is squeeze -> expand1 -> expand3 separable convs of random
    widths, each followed by BatchNorm, tagged ``f/m<i>/<role>``, so it breaks
    the fire rule whenever its squeeze is at least the expand widths' sum.
    Now and then a module has a residual projection and Add, a conv's role is
    another one (``sep``) or the module is untagged."""
    side = rng.randint(4, 12)
    input_shape = TensorShape(side, side, rng.randint(1, 4))
    nodes = [LayerNode("in", Input()), LayerNode("stem", Conv2D(rng.randint(1, 16), 3), ("in",))]
    tip = "stem"
    for i in range(rng.randint(1, max_modules)):
        module = None if rng.random() < 0.15 else f"f/m{i}"

        def tagged(node_id, kind, inputs, role):
            return LayerNode(node_id, kind, inputs, None if module is None else f"{module}/{role}")

        source = tip
        for role in ("squeeze", "expand1", "expand3"):
            width = rng.randint(1, 40 if role == "squeeze" else 20)
            conv = f"m{i}_{role}"
            nodes.append(tagged(conv, SeparableConv2D(width, rng.choice((1, 3))), (tip,),
                                role if rng.random() < 0.85 else "sep"))
            nodes.append(tagged(f"{conv}_bn", BatchNorm(), (conv,), f"{role}_bn"))
            tip = f"{conv}_bn"
        if rng.random() < 0.4:
            proj = f"m{i}_res"
            nodes.append(tagged(proj, Conv2D(width, 1), (source,), "residual"))
            nodes.append(tagged(f"m{i}_add", Add(), (tip, proj), "add"))
            tip = f"m{i}_add"
    nodes.append(LayerNode("gap", GlobalAvgPool(), (tip,)))
    units = rng.randint(2, 10)
    nodes.append(LayerNode("head", Dense(units), ("gap",)))
    return validate(ModelGraph("fire", input_shape, units, tuple(nodes)))


def with_off_stack_nodes(graph: ModelGraph, rng: random.Random) -> ModelGraph:
    """``graph``, from ``random_fire_graph``, with random nodes added to its
    tagged modules off their main stacks. Now and then a module gets a relu
    after its output, a stride-1 MaxPool in front of its projection, a
    BatchNorm (and a relu after it) behind its projection, or its Add's
    inputs swapped; and, which strategy2 must reject, a second conv behind
    its projection or a relu between its input and its squeeze."""
    nodes = list(graph.nodes)

    def insert(after: str, node: LayerNode, readers: set[str]) -> None:
        """Store ``node`` right after ``after``, and make each of ``readers``
        read ``node`` where it read ``after``."""
        for i, n in enumerate(nodes):
            if n.id in readers:
                nodes[i] = dataclasses.replace(
                    n, inputs=tuple(node.id if src == after else src for src in n.inputs))
        nodes.insert(next(i for i, n in enumerate(nodes) if n.id == after) + 1, node)

    def readers(node_id: str) -> set[str]:
        return {n.id for n in nodes if node_id in n.inputs}

    by_id = {n.id: n for n in graph.nodes}
    for i in range(len(by_id)):
        squeeze = next((n for n in nodes if n.id == f"m{i}_squeeze"), None)
        if squeeze is None:
            break
        module = oracle_split_tag(squeeze.tag)[0]
        if module is None:
            continue
        proj, add = f"m{i}_res", f"m{i}_add"
        tail = add if add in by_id else f"m{i}_expand3_bn"
        if rng.random() < 0.3:
            insert(tail, LayerNode(f"m{i}_post", Activation("relu"), (tail,), f"{module}/post_act"),
                   readers(tail))
        if proj in by_id:
            width = by_id[proj].kind.filters
            if rng.random() < 0.3:
                source = squeeze.inputs[0]
                insert(source, LayerNode(f"m{i}_res_pool", MaxPool(3, 1), (source,),
                                         f"{module}/res_pool"), {proj})
            if rng.random() < 0.1:
                insert(proj, LayerNode(f"m{i}_res2", Conv2D(width, 1), (proj,), f"{module}/residual"),
                       readers(proj))
            if rng.random() < 0.4:
                insert(proj, LayerNode(f"m{i}_res_bn", BatchNorm(), (proj,), f"{module}/residual_bn"),
                       readers(proj))
                if rng.random() < 0.5:
                    insert(f"m{i}_res_bn", LayerNode(f"m{i}_res_act", Activation("relu"),
                                                     (f"m{i}_res_bn",), f"{module}/residual_act"),
                           readers(f"m{i}_res_bn"))
            if rng.random() < 0.3:
                j = next(j for j, n in enumerate(nodes) if n.id == add)
                nodes[j] = dataclasses.replace(nodes[j], inputs=nodes[j].inputs[::-1])
        if rng.random() < 0.1:
            source = squeeze.inputs[0]
            insert(source, LayerNode(f"m{i}_pre", Activation("relu"), (source,), f"{module}/pre_act"),
                   {squeeze.id})
    return validate(dataclasses.replace(graph, nodes=tuple(nodes)))


def with_random_stack_windows(graph: ModelGraph, rng: random.Random) -> ModelGraph:
    """``graph``, from ``random_fire_graph``, with a random stride and padding
    for each separable conv of a tagged module that has no Add, so that its
    main stack may keep, halve or otherwise shrink its input's map. A valid
    padding whose window does not fit the conv's input is made same."""
    nodes = list(graph.nodes)
    with_add = {oracle_split_tag(n.tag)[0] for n in nodes if type(n.kind) is Add}
    for i, node in enumerate(nodes):
        module = oracle_split_tag(node.tag)[0]
        if type(node.kind) is not SeparableConv2D or module is None or module in with_add:
            continue
        h, w, _ = oracle_shapes(dataclasses.replace(graph, nodes=tuple(nodes[:i])))[node.inputs[0]]
        stride, padding = rng.choice((1, 2)), rng.choice(("same", "valid"))
        if not _fits(h, w, node.kind.kernel, padding):
            padding = "same"
        nodes[i] = dataclasses.replace(
            node, kind=dataclasses.replace(node.kind, stride=stride, padding=padding))
    return validate(dataclasses.replace(graph, nodes=tuple(nodes)))


def rename_ids(graph: ModelGraph, names: dict[str, str]) -> ModelGraph:
    """``graph`` with every node id and input reference mapped through ``names``."""
    nodes = tuple(
        dataclasses.replace(n, id=names[n.id], inputs=tuple(names[i] for i in n.inputs))
        for n in graph.nodes
    )
    return dataclasses.replace(graph, nodes=nodes)


# -- oracles ---------------------------------------------------------------------


def _enum_dim(dim: int, window: int, stride: int, padding: str) -> int:
    """Count output positions by walking the index range explicitly."""
    count, pos = 0, 0
    if padding == "valid":
        while pos + window <= dim:
            count += 1
            pos += stride
    else:
        while pos < dim:
            count += 1
            pos += stride
    return count


def oracle_shapes(graph: ModelGraph) -> dict[str, tuple[int, int, int]]:
    """Per-node output shapes from index-range enumeration.

    Relies on graph.nodes being stored in topological order, which holds for
    any graph that ``topo_sort`` or ``validate`` accepts.
    """
    shapes: dict[str, tuple[int, int, int]] = {}
    for node in graph.nodes:
        kind = node.kind
        ins = [shapes[i] for i in node.inputs]
        if isinstance(kind, Input):
            s = graph.input_shape
            shapes[node.id] = (s.height, s.width, s.channels)
        elif isinstance(kind, (Conv2D, SeparableConv2D)):
            h, w, _ = ins[0]
            shapes[node.id] = (
                _enum_dim(h, kind.kernel, kind.stride, kind.padding),
                _enum_dim(w, kind.kernel, kind.stride, kind.padding),
                kind.filters,
            )
        elif isinstance(kind, MaxPool):
            h, w, c = ins[0]
            shapes[node.id] = (
                _enum_dim(h, kind.pool_size, kind.stride, kind.padding),
                _enum_dim(w, kind.pool_size, kind.stride, kind.padding),
                c,
            )
        elif isinstance(kind, GlobalAvgPool):
            shapes[node.id] = (1, 1, ins[0][2])
        elif isinstance(kind, (BatchNorm, Activation)):
            shapes[node.id] = ins[0]
        elif isinstance(kind, Add):
            assert ins[0] == ins[1], f"oracle: Add {node.id} inputs differ"
            shapes[node.id] = ins[0]
        elif isinstance(kind, Dense):
            shapes[node.id] = (1, 1, kind.units)
        else:
            raise AssertionError(f"oracle: unhandled kind {kind}")
    return shapes


def oracle_split_tag(tag: str | None) -> tuple[str | None, str | None]:
    """``(module, role)`` of a ``flow/module/role`` tag by partitioning at its
    first two and its last slash; ``(None, None)`` below two slashes."""
    if tag is None or tag.count("/") < 2:
        return None, None
    flow, _, rest = tag.partition("/")
    module = rest.partition("/")[0]
    return f"{flow}/{module}", tag.rpartition("/")[2]


def oracle_main_stack(graph: ModelGraph, module: str) -> set[str]:
    """Ids of ``module``'s main stack, found by reachability: each conv of the
    module whose role is not ``residual``, then, until no more turn up, each
    BatchNorm or Activation of the module fed by a node already found. The
    stored order is not used."""
    members = [(n, oracle_split_tag(n.tag)) for n in graph.nodes]
    members = [(n, role) for n, (owner, role) in members if owner == module]
    stack = {n.id for n, role in members
             if type(n.kind) in (Conv2D, SeparableConv2D) and role != "residual"}
    while True:
        found = {n.id for n, _ in members
                 if type(n.kind) in (BatchNorm, Activation) and n.inputs[0] in stack}
        if found <= stack:
            return stack
        stack |= found


def oracle_topo_sort(graph: ModelGraph) -> list[str]:
    """Topological order by the quadratic rule: at each step place the first
    stored node whose id is unplaced and whose inputs are all placed.

    Stops when no node is ready, so a cycle, an input that names no node or a
    repeated id leaves the result shorter than the node list.
    """
    placed: set[str] = set()
    order: list[str] = []
    nodes = list(graph.nodes)
    while len(order) < len(nodes):
        ready = next(
            (n for n in nodes if n.id not in placed and all(i in placed for i in n.inputs)),
            None,
        )
        if ready is None:
            break
        placed.add(ready.id)
        order.append(ready.id)
    return order


def oracle_node_params(node: LayerNode, in_shape: tuple[int, int, int] | None) -> int:
    """Count one node's parameters by enumerating kernel index tuples."""
    kind = node.kind
    if isinstance(kind, Conv2D):
        c = in_shape[2]
        n = sum(1 for _ in product(range(c), range(kind.filters), range(kind.kernel), range(kind.kernel)))
        if kind.has_bias:
            n += sum(1 for _ in range(kind.filters))
        return n
    if isinstance(kind, SeparableConv2D):
        c = in_shape[2]
        depthwise = sum(1 for _ in product(range(c), range(kind.kernel), range(kind.kernel)))
        pointwise = sum(1 for _ in product(range(c), range(kind.filters)))
        return depthwise + pointwise
    if isinstance(kind, BatchNorm):
        return sum(1 for _ in product(range(in_shape[2]), range(4)))
    if isinstance(kind, Dense):
        flat = in_shape[0] * in_shape[1] * in_shape[2]
        n = sum(1 for _ in product(range(flat), range(kind.units)))
        if kind.has_bias:
            n += sum(1 for _ in range(kind.units))
        return n
    return 0


def oracle_params(graph: ModelGraph) -> tuple[dict[str, int], int]:
    """Per-node and total parameter counts by brute-force enumeration."""
    shapes = oracle_shapes(graph)
    per_node: dict[str, int] = {}
    total = 0
    for node in graph.nodes:
        in_shape = shapes[node.inputs[0]] if node.inputs else None
        n = oracle_node_params(node, in_shape)
        per_node[node.id] = n
        total += n
    return per_node, total


def oracle_macs(graph: ModelGraph) -> int:
    """Multiply-accumulates per kind over oracle_shapes: one per kernel weight
    per output position for convs, one per weight for Dense, none elsewhere."""
    shapes = oracle_shapes(graph)
    total = 0
    for node in graph.nodes:
        kind = node.kind
        if not node.inputs:
            continue
        out_h, out_w, _ = shapes[node.id]
        in_h, in_w, c = shapes[node.inputs[0]]
        if isinstance(kind, Conv2D):
            total += out_h * out_w * kind.filters * c * kind.kernel * kind.kernel
        elif isinstance(kind, SeparableConv2D):
            depthwise = c * kind.kernel * kind.kernel
            pointwise = c * kind.filters
            total += out_h * out_w * (depthwise + pointwise)
        elif isinstance(kind, Dense):
            total += kind.units * in_h * in_w * c
    return total


def oracle_pareto_front(records):
    """O(n^2) brute-force non-dominated filtering, sorted like pareto_front."""
    front = []
    for r in records:
        dominated = False
        for s in records:
            if (
                s.test_acc >= r.test_acc
                and s.avg_mem_mb <= r.avg_mem_mb
                and (s.test_acc > r.test_acc or s.avg_mem_mb < r.avg_mem_mb)
            ):
                dominated = True
                break
        if not dominated:
            front.append(r)
    return sorted(front, key=lambda r: (r.avg_mem_mb, -r.test_acc, r.model, r.experiment))


_PERCENT_COLUMNS = ("train_acc", "test_acc")
_FINITE_COLUMNS = ("avg_mem_mb", "avg_epoch_time_s", "avg_inf_time_ms")
_OPTIONAL_COLUMNS = {"avg_epoch_time_s": float, "avg_inf_time_ms": float, "params": int}


def reference_load_measurements(text: str) -> list[ModelMeasurement]:
    """``pareto.load_measurements`` rebuilt on ``csv.DictReader``: each row a
    dict keyed by the stripped header, each rule checked by column name in
    the order the loader documents, each record built from checked values.

    Rows are numbered by ``line_num``, which counts lines, so it equals the
    loader's row number only for text with no line break inside a quoted
    cell."""
    reader = csv.DictReader(io.StringIO(text))
    header = [name.strip() for name in reader.fieldnames or ()]
    if tuple(header) != CSV_HEADER:
        raise ParseError(f"header must be {','.join(CSV_HEADER)}", row=1)
    reader.fieldnames = header
    records = []
    for row in reader:
        row_num = reader.line_num
        extra = row.pop(None, [])  # cells past the header
        given = [v for v in row.values() if v is not None] + extra
        if all(v.strip() == "" for v in given):
            continue
        if len(given) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} cells, got {len(given)}", row=row_num)
        cells = {k: v.strip() for k, v in row.items()}
        if cells["model"] == "":
            raise ParseError("model name must not be empty", row=row_num, column="model")
        values = {"model": cells["model"], "experiment": cells["experiment"]}
        for column in ("train_acc", "test_acc", "avg_mem_mb"):
            try:
                values[column] = float(cells[column])
            except ValueError:
                raise ParseError(f"cannot parse {capped(cells[column])} as a number",
                                 row=row_num, column=column) from None
        for column, convert in _OPTIONAL_COLUMNS.items():
            if cells[column] == "":
                values[column] = None
                continue
            try:
                values[column] = convert(cells[column])
            except ValueError:
                raise ParseError(f"cannot parse {capped(cells[column])}",
                                 row=row_num, column=column) from None

        def out_of_range(what: str) -> MeasurementRangeError:
            return MeasurementRangeError(f"row {row_num}: {capped(values['model'])}: {what}")

        for column in _PERCENT_COLUMNS:
            if not (values[column] >= 0.0 and values[column] <= 100.0):
                raise out_of_range(f"{column}={values[column]} outside [0, 100]")
        for column in _FINITE_COLUMNS:
            v = values[column]
            if v is not None and (v != v or v in (math.inf, -math.inf)):
                raise out_of_range(f"{column}={v} must be finite")
        if values["avg_mem_mb"] <= 0:
            raise out_of_range(f"avg_mem_mb={values['avg_mem_mb']} must be positive")
        if values["params"] is not None and values["params"] < 0:
            raise out_of_range(f"params={capped(values['params'])} must not be negative")
        records.append(ModelMeasurement(**values))
    return records


# -- count and choice verdicts -----------------------------------------------------

_ORACLE_MAX_SIZE = 2**31 - 1

# Each site that takes a count or a choice, by the name its error gives (after
# the function's name where two sites share it), with its rule written out
# from the documented limits: ("size", least, most), most None for no upper
# bound, or ("choice", the allowed values).
VERDICT_RULES: dict[str, tuple] = {
    **{f"{kind} {attr}": rule for kind in ("Conv2D", "SeparableConv2D") for attr, rule in (
        ("filters", ("size", 1, _ORACLE_MAX_SIZE)),
        ("kernel", ("choice", (1, 3))),
        ("stride", ("choice", (1, 2))),
        ("padding", ("choice", ("same", "valid"))),
    )},
    "MaxPool pool_size": ("choice", (1, 3)),
    "MaxPool stride": ("choice", (1, 2)),
    "MaxPool padding": ("choice", ("same", "valid")),
    "Activation fn": ("choice", ("relu", "softmax", "sigmoid")),
    "Dense units": ("size", 1, _ORACLE_MAX_SIZE),
    "TensorShape.height": ("size", 1, _ORACLE_MAX_SIZE),
    "FireModuleSpec.e3x3": ("size", 1, _ORACLE_MAX_SIZE),
    "num_classes": ("size", 1, _ORACLE_MAX_SIZE),
    "build_xception num_classes": ("size", 2, _ORACLE_MAX_SIZE),
    "build_mobilenet_v2 num_classes": ("size", 2, _ORACLE_MAX_SIZE),
    "exit_filters[0]": ("size", 1, _ORACLE_MAX_SIZE),
    "activation_sizes batch": ("size", 1, _ORACLE_MAX_SIZE),
    "batch": ("size", 1, _ORACLE_MAX_SIZE),
    "overhead_bytes": ("size", 0, _ORACLE_MAX_SIZE),
    "input_channels": ("size", 0, None),
    "mode": ("choice", ("training", "inference")),
    "optimizer": ("choice", ("sgd_momentum", "adam")),
}


def oracle_verdict(site: str, value: object) -> bool:
    """Whether ``site`` accepts ``value``: a size is an int (not a bool) in
    its range; a choice is an int or a str (not a subclass) among the allowed
    values, compared as a ``(class, value)`` pair."""
    rule = VERDICT_RULES[site]
    if rule[0] == "size":
        _, least, most = rule
        return type(value) is int and least <= value and (most is None or value <= most)
    return type(value) in (int, str) and (type(value), value) in {(type(c), c) for c in rule[1]}


# -- kind attr errors --------------------------------------------------------------

_SIZE = ("size", 1, _ORACLE_MAX_SIZE)
_FLAG = ("bool",)

# Each layer kind's attrs in field order, with a valid value and the rule the
# README states for it ("File formats" and "Layer kinds"): a size, one of the
# choices, or an exact bool.
ORACLE_KIND_ATTRS: dict[str, tuple[tuple[str, object, tuple], ...]] = {
    "Input": (), "GlobalAvgPool": (), "BatchNorm": (), "Add": (),
    "Conv2D": (("filters", 8, _SIZE), ("kernel", 3, ("choice", (1, 3))),
               ("stride", 1, ("choice", (1, 2))), ("padding", "same", ("choice", ("same", "valid"))),
               ("has_bias", False, _FLAG)),
    "SeparableConv2D": (("filters", 8, _SIZE), ("kernel", 3, ("choice", (1, 3))),
                        ("stride", 1, ("choice", (1, 2))),
                        ("padding", "same", ("choice", ("same", "valid")))),
    "MaxPool": (("pool_size", 3, ("choice", (1, 3))), ("stride", 2, ("choice", (1, 2))),
                ("padding", "same", ("choice", ("same", "valid")))),
    "Activation": (("fn", "relu", ("choice", ("relu", "softmax", "sigmoid"))),),
    "Dense": (("units", 10, _SIZE), ("has_bias", True, _FLAG)),
}


def _oracle_echo(value: object) -> str:
    """``value`` as an error message shows it: its repr, cut to 80 characters
    with a trailing ``...``, or its type for an int of more than 4,300 digits,
    which Python does not print."""
    if type(value) is int and abs(value) >= 10**4300:
        return "<int too large to print>"
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:77]}..."


def oracle_attr_error(kind: str, attrs: dict[str, object]) -> str | None:
    """The error text of building ``kind`` with ``attrs``: the first attr, in
    field order, that breaks its rule, or None when every one holds.

    A size is an exact int (not a bool) from 1 to 2,147,483,647; a choice
    equals one of its choices with that choice's exact class; a flag is an
    exact bool."""
    for name, _, rule in ORACLE_KIND_ATTRS[kind]:
        if name not in attrs:
            continue
        value, what = attrs[name], f"{kind} {name}"
        if rule[0] == "size":
            if type(value) is not int:
                return f"{what} must be an int, got {_oracle_echo(value)}"
            if value < rule[1]:
                return f"{what} must be >= {rule[1]}, got {_oracle_echo(value)}"
            if value > rule[2]:
                return f"{what} must be at most {rule[2]}, got {_oracle_echo(value)}"
        elif rule[0] == "bool":
            if type(value) is not bool:
                return f"{what} must be a bool, got {_oracle_echo(value)}"
        elif not any(type(value) is type(c) and value == c for c in rule[1]):
            return f"{what} must be one of {rule[1]}, got {_oracle_echo(value)}"
    return None
