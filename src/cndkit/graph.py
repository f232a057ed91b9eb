"""Layer-graph intermediate representation for convolutional networks.

A model is a directed acyclic graph of typed layer nodes, each stored after
its inputs; tensor shapes are inferred along the edges rather than stored.
Graphs are immutable values: every operation returns a new graph and never
mutates its argument, so they are safe to share across threads.

Tags follow a ``flow/module/role`` convention, e.g. ``entry_flow/m2/sep1``:
the first two components name the architectural module a node belongs to and
the last one the node's role inside it (``sep1``, ``squeeze``, ``expand3``,
``residual``, ``pool``, ``add``, ...). ``group_modules`` groups nodes by
module with their roles; untagged and flat (one- or two-part) tags belong to
no module. Residual-projection convolutions carry the ``residual`` role and
are not counted as part of a module's main stack.

Everything the toolkit knows about a layer kind is one row of ``KINDS``,
keyed by the kind's exact class: its number of inputs, its shape rule, its
attr names, its input-channel rule and its parameter rule (the formulas are
in the ``analyzer`` docstring). ``check_append``, which every path that
builds or checks a graph goes through, rejects any other object, a subclass
of a kind included, as an unknown layer kind.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Union

from .errors import (
    ArityError,
    DuplicateIdError,
    NonPositiveDimError,
    ShapeMismatchError,
    UnknownInputError,
    ValidationError,
    capped,
)

PADDING_SAME = "same"
PADDING_VALID = "valid"
VALID_KERNELS = (1, 3)
VALID_STRIDES = (1, 2)
VALID_PADDINGS = (PADDING_SAME, PADDING_VALID)
VALID_ACTIVATIONS = ("relu", "softmax", "sigmoid")
# The largest dim, width, unit or class count: every count derived from sizes
# (params, MACs, bytes) then stays a few dozen digits, so it can be printed
# and rounded to millions as a float.
MAX_SIZE = 2**31 - 1


# Sizes and counts must be exact ints: 1.0 and True compare equal to 1, but
# would make parameter counts floats or let a bool stand for a batch size.
def check_size(what: str, value: int, least: int = 1, most: int | None = MAX_SIZE) -> None:
    """Raise a ``ValidationError`` naming ``what`` unless ``value`` is an
    exact int from ``least`` to ``most`` (no upper bound when ``most`` is None)."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an int, got {capped(value)}")
    if value < least:
        raise ValidationError(f"{what} must be >= {least}, got {capped(value)}")
    if most is not None and value > most:
        raise ValidationError(f"{what} must be at most {most}, got {capped(value)}")


# A choice must also have the exact class of the choice it equals: True and
# 1.0 equal 1, but would be written back to model JSON as another value.
def check_choice(what: str, value: object, choices: tuple) -> None:
    """Raise a ``ValidationError`` naming ``what`` unless ``value`` equals one
    of ``choices`` and has that choice's exact class."""
    for choice in choices:
        if type(value) is type(choice) and value == choice:
            return
    raise ValidationError(f"{what} must be one of {choices}, got {capped(value)}")


@dataclass(frozen=True, slots=True)
class TensorShape:
    """Spatial extent and channel count of an activation map."""

    height: int
    width: int
    channels: int

    def __post_init__(self):
        check_size("TensorShape.height", self.height)
        check_size("TensorShape.width", self.width)
        check_size("TensorShape.channels", self.channels)

    @property
    def area(self) -> int:
        return self.height * self.width

    @property
    def elements(self) -> int:
        return self.height * self.width * self.channels


# Flags must be exact bools: 1, None or "no" would be read by truth value but
# written back to model JSON as a number, null or string.
def _check_bool(owner: str, name: str, value: bool) -> None:
    if type(value) is not bool:
        raise ValidationError(f"{owner} {name} must be a bool, got {capped(value)}")


@dataclass(frozen=True, slots=True)
class Input:
    pass


@dataclass(frozen=True, slots=True)
class Conv2D:
    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME
    has_bias: bool = False

    def __post_init__(self):
        check_size("Conv2D filters", self.filters)
        check_choice("Conv2D kernel", self.kernel, VALID_KERNELS)
        check_choice("Conv2D stride", self.stride, VALID_STRIDES)
        check_choice("Conv2D padding", self.padding, VALID_PADDINGS)
        _check_bool("Conv2D", "has_bias", self.has_bias)


@dataclass(frozen=True, slots=True)
class SeparableConv2D:
    """Depthwise + pointwise convolution fused into a single node."""

    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME

    def __post_init__(self):
        check_size("SeparableConv2D filters", self.filters)
        check_choice("SeparableConv2D kernel", self.kernel, VALID_KERNELS)
        check_choice("SeparableConv2D stride", self.stride, VALID_STRIDES)
        check_choice("SeparableConv2D padding", self.padding, VALID_PADDINGS)


@dataclass(frozen=True, slots=True)
class MaxPool:
    pool_size: int = 3
    stride: int = 2
    padding: str = PADDING_SAME

    def __post_init__(self):
        check_choice("MaxPool pool_size", self.pool_size, VALID_KERNELS)
        check_choice("MaxPool stride", self.stride, VALID_STRIDES)
        check_choice("MaxPool padding", self.padding, VALID_PADDINGS)


@dataclass(frozen=True, slots=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True, slots=True)
class BatchNorm:
    """Per-channel normalization: 2 trainable + 2 statistic params per channel."""


@dataclass(frozen=True, slots=True)
class Activation:
    fn: str = "relu"

    def __post_init__(self):
        check_choice("Activation fn", self.fn, VALID_ACTIVATIONS)


@dataclass(frozen=True, slots=True)
class Add:
    pass


@dataclass(frozen=True, slots=True)
class Dense:
    units: int
    has_bias: bool = True

    def __post_init__(self):
        check_size("Dense units", self.units)
        _check_bool("Dense", "has_bias", self.has_bias)


def is_conv(kind: LayerKind) -> bool:
    return type(kind) in (Conv2D, SeparableConv2D)


@dataclass(frozen=True, slots=True)
class LayerNode:
    id: str
    kind: LayerKind
    inputs: tuple[str, ...] = ()
    tag: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"node id must be a non-empty string, got {capped(self.id)}")
        if self.tag is not None and not isinstance(self.tag, str):
            raise ValidationError(
                f"node {capped(self.id)} tag must be a string or None, got {capped(self.tag)}"
            )
        # tuple("in") would be ("i", "n"): a string is one id, not a sequence of them
        if isinstance(self.inputs, str) or not hasattr(self.inputs, "__iter__"):
            raise ValidationError(
                f"node {capped(self.id)} inputs must be a sequence of node ids, got {capped(self.inputs)}"
            )
        inputs = tuple(self.inputs)
        for src in inputs:
            if not isinstance(src, str):
                raise ValidationError(
                    f"node {capped(self.id)} input ids must be strings, got {capped(src)}"
                )
        object.__setattr__(self, "inputs", inputs)


@dataclass(frozen=True, slots=True)
class ModelGraph:
    name: str
    input_shape: TensorShape
    num_classes: int
    nodes: tuple[LayerNode, ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def node(self, node_id: str) -> LayerNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def consumers(self) -> dict[str, list[str]]:
        """Map node id -> ids of nodes that consume its output."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                if src in out:
                    out[src].append(n.id)
        return out

    def terminal_id(self) -> str:
        consumed = {src for n in self.nodes for src in n.inputs}
        # one entry per id, in stored order, as the keys of consumers()
        tails = list(dict.fromkeys(n.id for n in self.nodes if n.id not in consumed))
        if len(tails) != 1:
            raise ValidationError(f"graph must have exactly one terminal node, found {capped(tails)}")
        return tails[0]


# -- tag helpers --------------------------------------------------------------

def make_tag(flow: str, module: str, role: str) -> str:
    return f"{flow}/{module}/{role}"


def _split_tag(tag: str | None) -> tuple[str | None, str | None]:
    """`flow/module/role` -> (`flow/module`, `role`); (None, None) for an
    untagged or flat tag. The one place a tag is split."""
    parts = () if tag is None else tag.split("/")
    if len(parts) < 3:
        return None, None
    return f"{parts[0]}/{parts[1]}", parts[-1]


def module_of(tag: str | None) -> str | None:
    """`flow/module/role` -> `flow/module`; None for untagged or flat tags."""
    return _split_tag(tag)[0]


def role_of(tag: str | None) -> str | None:
    return _split_tag(tag)[1]


def group_modules(nodes: Iterable[LayerNode]) -> dict[str, list[tuple[str, LayerNode]]]:
    """``(role, node)`` per module, nodes in the given order, modules in order
    of first appearance; untagged and flat-tagged nodes belong to none."""
    groups: dict[str, list[tuple[str, LayerNode]]] = {}
    for node in nodes:
        module, role = _split_tag(node.tag)
        if module is not None:
            groups.setdefault(module, []).append((role, node))
    return groups


def module_groups(graph: ModelGraph) -> dict[str, list[str]]:
    """Node ids per module tag, keyed in order of first appearance."""
    return {m: [node.id for _, node in members] for m, members in group_modules(graph.nodes).items()}


# -- construction -------------------------------------------------------------

def add_layer(graph: ModelGraph, node: LayerNode) -> ModelGraph:
    """Return a new graph extended with ``node``.

    The node's inputs must already exist, so graphs built through this
    function are acyclic and stored in topological order.
    """
    check_append({n.id for n in graph.nodes}, node)
    return dataclasses.replace(graph, nodes=graph.nodes + (node,))


def check_append(ids: set[str] | dict[str, str], node: LayerNode) -> None:
    """Check that ``node`` may follow nodes with ``ids`` (a set of them, or a
    dict keyed by them): a new id, inputs among ``ids``, a kind with a row
    in ``KINDS`` and that kind's arity.
    Raises a ``ValidationError`` for the first check that fails; ``ids`` is
    not changed."""
    if node.id in ids:
        raise DuplicateIdError(f"node id {capped(node.id)} already present")
    for src in node.inputs:
        if src not in ids:
            raise UnknownInputError(
                f"node {capped(node.id)} references unknown input {capped(src)}"
            )
    try:
        want = KINDS[type(node.kind)][0]
    except KeyError:
        raise unknown_kind(node) from None
    if len(node.inputs) != want:
        raise ArityError(
            f"node {capped(node.id)} ({type(node.kind).__name__}) needs {want} input(s), "
            f"got {len(node.inputs)}"
        )


def unknown_kind(node: LayerNode) -> ValidationError:
    """The error for a node whose kind has no row in ``KINDS``."""
    return ValidationError(f"node {capped(node.id)}: unknown layer kind {type(node.kind).__name__}")


def topo_sort(graph: ModelGraph) -> list[str]:
    """Node ids in stored order, checked to be a topological order.

    Every node must be stored after its inputs: each one passes
    ``check_append`` against the nodes before it (new id, known inputs,
    known kind and its arity). Raises that ``ValidationError`` for the first
    stored node at fault. A list with no forward reference is acyclic, so a cycle
    shows as an unknown input of its first stored node. Nothing is reordered.
    """
    ids: set[str] = set()
    for node in graph.nodes:
        check_append(ids, node)
        ids.add(node.id)
    return [node.id for node in graph.nodes]


# -- shape inference -----------------------------------------------------------

def _window_dim(dim: int, window: int, stride: int, padding: str, node_id: str) -> int:
    if padding == PADDING_SAME:
        return -(-dim // stride)  # ceil
    out = (dim - window) // stride + 1
    if out < 1:
        raise NonPositiveDimError(
            f"node {capped(node_id)}: window {window} exceeds input dim {dim} under valid padding"
        )
    return out


def _shared(made: dict, height: int, width: int, channels: int) -> TensorShape:
    """The one ``TensorShape`` of these dims in ``made``, built (and so
    validated) the first time they occur."""
    key = (height, width, channels)
    shape = made.get(key)
    if shape is None:
        shape = made[key] = TensorShape(height, width, channels)
    return shape


# Shape rules: (graph, node, shapes so far, shared shapes) -> output shape.

def _input_shape(graph, node, shapes, made):
    return graph.input_shape


def _conv_shape(graph, node, shapes, made):
    kind, s = node.kind, shapes[node.inputs[0]]
    return _shared(
        made,
        _window_dim(s.height, kind.kernel, kind.stride, kind.padding, node.id),
        _window_dim(s.width, kind.kernel, kind.stride, kind.padding, node.id),
        kind.filters,
    )


def _pool_shape(graph, node, shapes, made):
    kind, s = node.kind, shapes[node.inputs[0]]
    return _shared(
        made,
        _window_dim(s.height, kind.pool_size, kind.stride, kind.padding, node.id),
        _window_dim(s.width, kind.pool_size, kind.stride, kind.padding, node.id),
        s.channels,
    )


def _global_pool_shape(graph, node, shapes, made):
    return _shared(made, 1, 1, shapes[node.inputs[0]].channels)


def _same_shape(graph, node, shapes, made):
    return shapes[node.inputs[0]]


def _add_shape(graph, node, shapes, made):
    a, b = shapes[node.inputs[0]], shapes[node.inputs[1]]
    if a != b:
        raise ShapeMismatchError(
            f"Add node {capped(node.id)} inputs differ: "
            f"{a.height}x{a.width}x{a.channels} vs {b.height}x{b.width}x{b.channels}"
        )
    return a


def _dense_shape(graph, node, shapes, made):
    return _shared(made, 1, 1, node.kind.units)


class LayerParams(NamedTuple):
    """Per-layer parameter accounting entry."""

    node_id: str
    channels_in: int
    filters: int
    kernel_elems: int
    kernel_params: int
    aux_params: int

    @property
    def total(self) -> int:
        return self.kernel_params + self.aux_params


# Param rules: (node id, kind, input channels) -> entry, one per formula of
# the analyzer docstring.

def _conv_params(node_id: str, kind: Conv2D, c: int) -> LayerParams:
    k = kind.kernel * kind.kernel
    return LayerParams(node_id, c, kind.filters, k, c * kind.filters * k,
                       kind.filters if kind.has_bias else 0)


def _separable_params(node_id: str, kind: SeparableConv2D, c: int) -> LayerParams:
    k = kind.kernel * kind.kernel
    return LayerParams(node_id, c, kind.filters, k, c * k + c * kind.filters, 0)


def _batchnorm_params(node_id: str, kind: BatchNorm, c: int) -> LayerParams:
    return LayerParams(node_id, c, c, 0, 0, 4 * c)


def _dense_params(node_id: str, kind: Dense, c: int) -> LayerParams:
    return LayerParams(node_id, c, kind.units, 1, kind.units * c, kind.units if kind.has_bias else 0)


def _no_params(node_id: str, kind, c: int) -> LayerParams:
    return LayerParams(node_id, c, 0, 0, 0, 0)


_CHANNELS = attrgetter("channels")
_FLATTENED = attrgetter("elements")  # Dense reads H*W*C of its input

# kind class -> (number of inputs, shape rule, attr names, input-channel rule,
# param rule). The attr names are the dataclass fields, which are also the
# kind's schema-v1 attrs. Any object whose exact class has no row is unknown.
KINDS: dict[type, tuple[int, Callable, tuple[str, ...], Callable, Callable]] = {
    cls: (arity, rule, tuple(f.name for f in dataclasses.fields(cls)), channels_of, params)
    for cls, arity, rule, channels_of, params in (
        (Input, 0, _input_shape, _CHANNELS, _no_params),
        (Conv2D, 1, _conv_shape, _CHANNELS, _conv_params),
        (SeparableConv2D, 1, _conv_shape, _CHANNELS, _separable_params),
        (MaxPool, 1, _pool_shape, _CHANNELS, _no_params),
        (GlobalAvgPool, 1, _global_pool_shape, _CHANNELS, _no_params),
        (BatchNorm, 1, _same_shape, _CHANNELS, _batchnorm_params),
        (Activation, 1, _same_shape, _CHANNELS, _no_params),
        (Add, 2, _add_shape, _CHANNELS, _no_params),
        (Dense, 1, _dense_shape, _FLATTENED, _dense_params),
    )
}

KIND_CLASSES: tuple[type, ...] = tuple(KINDS)
LayerKind = Union[KIND_CLASSES]


def infer_shapes(graph: ModelGraph) -> dict[str, TensorShape]:
    """Output shape of every node, keyed by node id in stored order.

    ``topo_sort`` checks that order first. Same padding: ceil(dim/stride).
    Valid padding: floor((dim-k)/stride)+1. Dense and GlobalAvgPool collapse
    spatial dims to 1x1. Nodes with equal output dims share one shape.
    """
    topo_sort(graph)  # every kind has a row in KINDS
    shapes: dict[str, TensorShape] = {}
    made: dict[tuple[int, int, int], TensorShape] = {}
    for node in graph.nodes:
        shapes[node.id] = KINDS[type(node.kind)][1](graph, node, shapes, made)
    return shapes


# -- validation ----------------------------------------------------------------

def validate(graph: ModelGraph) -> ModelGraph:
    """Check all structural invariants and return the graph unchanged:
    ``infer_shapes`` (stored order, see ``topo_sort``, and shape consistency,
    including Add input equality), then ``check_endpoints``."""
    shapes = infer_shapes(graph)
    check_endpoints(graph, next(reversed(shapes.values()), None))
    return graph


def check_endpoints(graph: ModelGraph, last_shape: TensorShape | None) -> None:
    """The whole-graph checks after shape inference, for ``validate`` and
    strategy2's result: exactly one Input node, a string ``name``, string to
    string ``metadata``, an exact-int ``num_classes`` from 1 to ``MAX_SIZE``
    and exactly one terminal node, with ``num_classes`` channels in
    ``last_shape`` (in a checked stored order the terminal is the last node)."""
    inputs = [n.id for n in graph.nodes if type(n.kind) is Input]
    if len(inputs) != 1:
        raise ValidationError(f"graph must have exactly one Input node, found {capped(inputs)}")
    if not isinstance(graph.name, str):
        raise ValidationError(f"graph name must be a string, got {capped(graph.name)}")
    if not isinstance(graph.metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in graph.metadata.items()):
        raise ValidationError(
            f"graph metadata must map strings to strings, got {capped(graph.metadata)}"
        )
    check_size("num_classes", graph.num_classes)
    tail = graph.terminal_id()
    if last_shape.channels != graph.num_classes:
        raise ValidationError(
            f"terminal node {capped(tail)} outputs {last_shape.channels} channels, "
            f"but num_classes is {graph.num_classes}"
        )
