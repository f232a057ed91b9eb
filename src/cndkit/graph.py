"""Layer-graph intermediate representation for convolutional networks.

A model is a directed acyclic graph of typed layer nodes, each stored after
its inputs; tensor shapes are inferred along the edges rather than stored.
A graph is made once from its list of nodes, then checked once by ``validate``.
Graphs are immutable values: every operation returns a new graph and never
changes its argument's fields. A graph object does keep two columns in stored
order, owned here alone: its nodes' output shapes (``shapes_of``) and their
parameter entries (``entries_of``), each built on first use, or kept by
``checked`` for a load's or a pass's result. Both follow from the frozen nodes
and input shape alone, so graphs stay safe to share across threads.

Tags follow a ``flow/module/role`` convention, e.g. ``entry_flow/m2/sep1``:
the first two components name the architectural module a node belongs to and
the last one the node's role inside it (``sep1``, ``squeeze``, ``expand3``,
``residual``, ``pool``, ``add``, ...). ``group_modules`` groups nodes by
module with their roles; untagged and flat (one- or two-part) tags belong to
no module. Residual-projection convolutions carry the ``residual`` role and
are not counted as part of a module's main stack.

Everything the toolkit knows about a layer kind is its ``KindRow`` in ``KINDS``,
keyed by its exact class, and each kind attr has one value rule. Every path
that builds or checks a graph goes through ``check_append``, which rejects any
other object, a subclass of a kind included, as an unknown layer kind.
"""

from __future__ import annotations

from dataclasses import field, fields
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
    frozen_value,
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


@frozen_value
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
def _check_bool(what: str, value: bool) -> None:
    if type(value) is not bool:
        raise ValidationError(f"{what} must be a bool, got {capped(value)}")


# Each kind attr's one value rule, (what, value) -> None, keyed by attr name.
_ATTR_RULES: dict[str, Callable[[str, object], None]] = {
    "filters": check_size, "units": check_size, "has_bias": _check_bool,
    **{name: lambda what, value, choices=choices: check_choice(what, value, choices)
       for name, choices in (("kernel", VALID_KERNELS), ("pool_size", VALID_KERNELS),
                             ("stride", VALID_STRIDES), ("padding", VALID_PADDINGS),
                             ("fn", VALID_ACTIVATIONS))},
}


def _check_attrs(kind: LayerKind) -> None:
    """Every kind's one ``__post_init__``: each attr's rule, in field order."""
    for name, what, rule in kind._checks:
        rule(what, getattr(kind, name))


def _kind(cls: type) -> type:
    """``cls`` as a frozen slotted dataclass, its attr checks worked out once into ``_checks``."""
    cls.__post_init__ = _check_attrs
    cls = frozen_value(cls)
    cls._checks = tuple((f.name, f"{cls.__name__} {f.name}", _ATTR_RULES[f.name]) for f in fields(cls))
    return cls


@_kind
class Input:
    """The graph's one source node: its output is ``ModelGraph.input_shape``."""


@_kind
class Conv2D:
    """A square-kernel convolution; ``has_bias`` adds one param per filter."""

    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME
    has_bias: bool = False


@_kind
class SeparableConv2D:
    """Depthwise + pointwise convolution fused into a single node."""

    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME


@_kind
class MaxPool:
    """Max pooling over a square window; no params."""

    pool_size: int = 3
    stride: int = 2
    padding: str = PADDING_SAME


@_kind
class GlobalAvgPool:
    """The mean of each channel over height and width, a 1x1 map; no params."""


@_kind
class BatchNorm:
    """Per-channel normalization: 2 trainable + 2 statistic params per channel."""


@_kind
class Activation:
    """The elementwise function ``fn``; no params."""

    fn: str = "relu"


@_kind
class Add:
    """The elementwise sum of two inputs of one shape; no params."""


@_kind
class Dense:
    """A fully connected layer of ``units`` outputs over its flattened input."""

    units: int
    has_bias: bool = True


def is_conv(kind: LayerKind) -> bool:
    return type(kind) in (Conv2D, SeparableConv2D)


@frozen_value
class LayerNode:
    """One node: its id, layer kind, the ids of its inputs in order, and an
    optional ``flow/module/role`` tag."""

    id: str
    kind: LayerKind
    inputs: tuple[str, ...] = ()
    tag: str | None = None

    # ``dataclass`` keeps this one constructor: it checks, then writes each slot
    # once by its descriptor, with no ``object.__setattr__`` or ``__post_init__`` call.
    def __init__(self, id: str, kind: LayerKind, inputs: tuple[str, ...] = (),
                 tag: str | None = None):
        if not isinstance(id, str) or not id:
            raise ValidationError(f"node id must be a non-empty string, got {capped(id)}")
        if tag is not None and not isinstance(tag, str):
            raise ValidationError(f"node {capped(id)} tag must be a string or None, got {capped(tag)}")
        if type(inputs) is not tuple:
            # tuple("in") would be ("i", "n"): a string is one id, not a sequence of them
            if isinstance(inputs, str) or not hasattr(inputs, "__iter__"):
                raise ValidationError(
                    f"node {capped(id)} inputs must be a sequence of node ids, got {capped(inputs)}"
                )
            inputs = tuple(inputs)
        for src in inputs:
            if not isinstance(src, str):
                raise ValidationError(f"node {capped(id)} input ids must be strings, got {capped(src)}")
        _set_id(self, id)
        _set_kind(self, kind)
        _set_inputs(self, inputs)
        _set_tag(self, tag)


_set_id, _set_kind, _set_inputs, _set_tag = (
    LayerNode.id.__set__, LayerNode.kind.__set__, LayerNode.inputs.__set__, LayerNode.tag.__set__)


@frozen_value
class ModelGraph:
    """A named layer graph: input shape, class count, nodes in stored order
    and string metadata. ``validate`` checks it. ``_shapes`` and ``_params`` are
    the kept columns (module docstring), not in ``__init__``, ``repr`` or ``==``."""

    name: str
    input_shape: TensorShape
    num_classes: int
    nodes: tuple[LayerNode, ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)
    _shapes: tuple[TensorShape, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _params: tuple[LayerParams, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if isinstance(self.metadata, dict):  # a graph never shares its caller's dict
            object.__setattr__(self, "metadata", dict(self.metadata))

    def terminal_id(self) -> str:
        consumed = {src for n in self.nodes for src in n.inputs}
        # each unconsumed id once, in stored order, even if it is stored twice
        tails = list(dict.fromkeys(n.id for n in self.nodes if n.id not in consumed))
        if len(tails) != 1:
            raise ValidationError(f"graph must have exactly one terminal node, found {capped(tails)}")
        return tails[0]


# -- tag helpers --------------------------------------------------------------

def make_tag(flow: str, module: str, role: str) -> str:
    return f"{flow}/{module}/{role}"


def group_modules(nodes: Iterable[LayerNode]) -> dict[str, list[tuple[str, LayerNode]]]:
    """``(role, node)`` per module, nodes in the given order, modules in order
    of first appearance: a ``flow/module/role`` tag puts its node in module
    ``flow/module`` with role ``role``; untagged and flat-tagged nodes belong
    to none. The one place a tag is split."""
    groups: dict[str, list[tuple[str, LayerNode]]] = {}
    module, members = None, []  # the module of the last member seen, and its list
    for node in nodes:
        head, _, role = (node.tag or "").rpartition("/")
        if head != module:  # a new run, a deeper tag or no member: find the module
            first = head.find("/")
            if first < 0:
                continue
            end = head.find("/", first + 1)
            if (name := head if end < 0 else head[:end]) != module:
                module, members = name, groups.setdefault(name, [])
        members.append((role, node))
    return groups


# -- construction -------------------------------------------------------------

def check_append(ids: set[str] | dict[str, object], node: LayerNode) -> None:
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
        want = KINDS[type(node.kind)].arity
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
    """Per-layer parameter accounting entry; the param rules skip its Python-level ``__new__``."""

    node_id: str
    channels_in: int
    filters: int
    kernel_elems: int
    kernel_params: int
    aux_params: int

    @property
    def total(self) -> int:
        return self.kernel_params + self.aux_params


def _conv_params(node_id: str, kind: Conv2D, c: int) -> LayerParams:
    k = kind.kernel * kind.kernel
    return tuple.__new__(LayerParams, (node_id, c, kind.filters, k, c * kind.filters * k,
                                       kind.filters if kind.has_bias else 0))


def _separable_params(node_id: str, kind: SeparableConv2D, c: int) -> LayerParams:
    k = kind.kernel * kind.kernel
    return tuple.__new__(LayerParams, (node_id, c, kind.filters, k, c * k + c * kind.filters, 0))


def _batchnorm_params(node_id: str, kind: BatchNorm, c: int) -> LayerParams:
    return tuple.__new__(LayerParams, (node_id, c, c, 0, 0, 4 * c))


def _dense_params(node_id: str, kind: Dense, c: int) -> LayerParams:
    return tuple.__new__(LayerParams, (node_id, c, kind.units, 1, kind.units * c,
                                       kind.units if kind.has_bias else 0))


def _no_params(node_id: str, kind, c: int) -> LayerParams:
    return tuple.__new__(LayerParams, (node_id, c, 0, 0, 0, 0))


class KindRow(NamedTuple):
    """A kind's row of ``KINDS``; an object whose exact class has none is no kind."""

    arity: int  # number of inputs
    shape: Callable  # (graph, node, shapes so far, shared shapes) -> output shape
    attrs: tuple[str, ...]  # the dataclass fields, which are the schema-v1 attrs
    channels: Callable  # first input's shape -> input channels
    params: Callable  # (node id, kind, input channels) -> LayerParams, by the analyzer formulas


_CHANNELS = attrgetter("channels")
_FLATTENED = attrgetter("elements")  # Dense reads H*W*C of its input

KINDS: dict[type, KindRow] = {
    cls: KindRow(arity, shape, tuple(f.name for f in fields(cls)), channels, params)
    for cls, arity, shape, channels, params in (
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


def node_entry(node: LayerNode, shapes: dict[str, TensorShape]) -> LayerParams:
    """``node``'s entry by its kind's rules, its first input's shape read from
    ``shapes``: the one row rule."""
    row = KINDS[type(node.kind)]
    return row.params(node.id, node.kind, row.channels(shapes[node.inputs[0]]) if node.inputs else 0)


# -- kept columns: their one owner ---------------------------------------------

def shapes_of(graph: ModelGraph) -> tuple[TensorShape, ...]:
    """The nodes' output shapes in stored order, kept by the first call, which
    checks that order (``topo_sort``) and infers them; a failed call keeps none."""
    shapes = graph._shapes
    if shapes is None:
        topo_sort(graph)
        shapes = tuple(shapes_in_order(graph).values())
        object.__setattr__(graph, "_shapes", shapes)
    return shapes


def entries_of(graph: ModelGraph) -> tuple[LayerParams, ...]:
    """The nodes' parameter entries in stored order, kept by the first call:
    the one row pass, which nothing else runs."""
    entries = graph._params
    if entries is None:
        shapes = infer_shapes(graph)  # rejects a kind with no row in KINDS
        entries = tuple([node_entry(node, shapes) for node in graph.nodes])
        object.__setattr__(graph, "_params", entries)
    return entries


def checked(graph: ModelGraph, shapes: tuple[TensorShape, ...],
            entries: tuple[LayerParams, ...] | None = None) -> ModelGraph:
    """``graph`` keeping ``shapes`` and ``entries`` once ``check_endpoints``
    passes: the one writer, for a load or pass that checked its stored order
    as ``topo_sort`` does and built the columns over that order."""
    check_endpoints(graph, shapes)
    object.__setattr__(graph, "_shapes", shapes)
    object.__setattr__(graph, "_params", entries)
    return graph


def check_order(graph: ModelGraph) -> None:
    """``topo_sort``'s check alone, unless the graph keeps shapes (and so was checked)."""
    if graph._shapes is None:
        topo_sort(graph)


def infer_shapes(graph: ModelGraph) -> dict[str, TensorShape]:
    """``shapes_of`` as a new dict keyed by node id. Same padding: ceil(dim/stride).
    Valid padding: floor((dim-k)/stride)+1. Dense and GlobalAvgPool collapse
    spatial dims to 1x1. Nodes with equal output dims share one shape."""
    return dict(zip([node.id for node in graph.nodes], shapes_of(graph)))


def shapes_in_order(graph: ModelGraph) -> dict[str, TensorShape]:
    """``infer_shapes`` over a stored order already checked as ``topo_sort``
    checks it (so every kind has a row in ``KINDS``): the one shape loop.
    ``input_shape`` is checked before any shape is read. Nothing enforces that
    precondition here, so the shapes are not kept on ``graph``."""
    if type(graph.input_shape) is not TensorShape:
        raise ValidationError(f"input_shape must be a TensorShape, got {capped(graph.input_shape)}")
    shapes: dict[str, TensorShape] = {}
    made: dict[tuple[int, int, int], TensorShape] = {}
    for node in graph.nodes:
        shapes[node.id] = KINDS[type(node.kind)].shape(graph, node, shapes, made)
    return shapes


# -- validation ----------------------------------------------------------------

def validate(graph: ModelGraph) -> ModelGraph:
    """Check all structural invariants and return the graph unchanged:
    ``shapes_of`` (stored order, see ``topo_sort``, and shape consistency,
    including Add input equality), then ``check_endpoints``."""
    check_endpoints(graph, shapes_of(graph))
    return graph


def check_endpoints(graph: ModelGraph, shapes: tuple[TensorShape, ...]) -> None:
    """The whole-graph checks after shape inference, for ``validate`` and
    ``checked``: exactly one Input node, a string ``name``, string to string
    ``metadata``, an exact-int ``num_classes`` from 1 to ``MAX_SIZE`` and one
    terminal node, the last in a checked order, whose shape has that many channels."""
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
    if shapes[-1].channels != graph.num_classes:
        raise ValidationError(
            f"terminal node {capped(tail)} outputs {shapes[-1].channels} channels, "
            f"but num_classes is {graph.num_classes}"
        )
