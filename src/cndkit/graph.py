"""Layer-graph intermediate representation for convolutional networks.

A model is a directed acyclic graph of typed layer nodes, each stored after
its inputs; tensor shapes are inferred along the edges rather than stored.
Graphs are immutable values: every operation returns a new graph and never
mutates its argument, so they are safe to share across threads.

Tags follow a ``flow/module/role`` convention, e.g. ``entry_flow/m2/sep1``:
the first two components name the architectural module a node belongs to and
the last one the node's role inside it (``sep1``, ``squeeze``, ``expand3``,
``residual``, ``pool``, ``add``, ...). ``module_of``/``role_of`` split a tag;
untagged nodes belong to no module. Residual-projection convolutions carry
the ``residual`` role and are not counted as part of a module's main stack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Union

from .errors import (
    ArityError,
    DuplicateIdError,
    NonPositiveDimError,
    ShapeMismatchError,
    UnknownInputError,
    ValidationError,
)

PADDING_SAME = "same"
PADDING_VALID = "valid"
VALID_KERNELS = (1, 3)
VALID_STRIDES = (1, 2)
VALID_ACTIVATIONS = ("relu", "softmax", "sigmoid")


@dataclass(frozen=True)
class TensorShape:
    """Spatial extent and channel count of an activation map."""

    height: int
    width: int
    channels: int

    def __post_init__(self):
        for name in ("height", "width", "channels"):
            v = getattr(self, name)
            if type(v) is not int or v < 1:
                raise ValidationError(f"TensorShape.{name} must be a positive integer, got {v!r}")

    @property
    def area(self) -> int:
        return self.height * self.width

    @property
    def elements(self) -> int:
        return self.height * self.width * self.channels


# Sizes must be exact ints: 1.0 and True compare equal to 1, but would make
# parameter counts floats.
def _check_positive(owner: str, name: str, value: int) -> None:
    if type(value) is not int or value < 1:
        raise ValidationError(f"{owner} {name} must be a positive integer, got {value!r}")


# Flags must be exact bools: 1, None or "no" would be read by truth value but
# written back to model JSON as a number, null or string.
def _check_bool(owner: str, name: str, value: bool) -> None:
    if type(value) is not bool:
        raise ValidationError(f"{owner} {name} must be a bool, got {value!r}")


def _check_kernel(kernel: int) -> None:
    if type(kernel) is not int or kernel not in VALID_KERNELS:
        raise ValidationError(f"kernel size must be one of {VALID_KERNELS}, got {kernel}")


def _check_stride(stride: int) -> None:
    if type(stride) is not int or stride not in VALID_STRIDES:
        raise ValidationError(f"stride must be one of {VALID_STRIDES}, got {stride}")


def _check_padding(padding: str) -> None:
    if padding not in (PADDING_SAME, PADDING_VALID):
        raise ValidationError(f"padding must be 'same' or 'valid', got {padding!r}")


@dataclass(frozen=True)
class Input:
    pass


@dataclass(frozen=True)
class Conv2D:
    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME
    has_bias: bool = False

    def __post_init__(self):
        _check_positive("Conv2D", "filters", self.filters)
        _check_kernel(self.kernel)
        _check_stride(self.stride)
        _check_padding(self.padding)
        _check_bool("Conv2D", "has_bias", self.has_bias)


@dataclass(frozen=True)
class SeparableConv2D:
    """Depthwise + pointwise convolution fused into a single node."""

    filters: int
    kernel: int
    stride: int = 1
    padding: str = PADDING_SAME

    def __post_init__(self):
        _check_positive("SeparableConv2D", "filters", self.filters)
        _check_kernel(self.kernel)
        _check_stride(self.stride)
        _check_padding(self.padding)


@dataclass(frozen=True)
class MaxPool:
    pool_size: int = 3
    stride: int = 2
    padding: str = PADDING_SAME

    def __post_init__(self):
        _check_kernel(self.pool_size)
        _check_stride(self.stride)
        _check_padding(self.padding)


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class BatchNorm:
    """Per-channel normalization: 2 trainable + 2 statistic params per channel."""


@dataclass(frozen=True)
class Activation:
    fn: str = "relu"

    def __post_init__(self):
        if self.fn not in VALID_ACTIVATIONS:
            raise ValidationError(f"activation must be one of {VALID_ACTIVATIONS}, got {self.fn!r}")


@dataclass(frozen=True)
class Add:
    pass


@dataclass(frozen=True)
class Dense:
    units: int
    has_bias: bool = True

    def __post_init__(self):
        _check_positive("Dense", "units", self.units)
        _check_bool("Dense", "has_bias", self.has_bias)


LayerKind = Union[
    Input, Conv2D, SeparableConv2D, MaxPool, GlobalAvgPool, BatchNorm, Activation, Add, Dense
]

KIND_CLASSES: tuple[type, ...] = (
    Input, Conv2D, SeparableConv2D, MaxPool, GlobalAvgPool, BatchNorm, Activation, Add, Dense,
)


def expected_arity(kind: LayerKind) -> int:
    if isinstance(kind, Input):
        return 0
    if isinstance(kind, Add):
        return 2
    return 1


def is_conv(kind: LayerKind) -> bool:
    return isinstance(kind, (Conv2D, SeparableConv2D))


@dataclass(frozen=True)
class LayerNode:
    id: str
    kind: LayerKind
    inputs: tuple[str, ...] = ()
    tag: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("node id must be a non-empty string")
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
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

    def node_map(self) -> dict[str, LayerNode]:
        return {n.id: n for n in self.nodes}

    def consumers(self) -> dict[str, list[str]]:
        """Map node id -> ids of nodes that consume its output."""
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for src in n.inputs:
                if src in out:
                    out[src].append(n.id)
        return out

    def terminal_id(self) -> str:
        tails = [nid for nid, cons in self.consumers().items() if not cons]
        if len(tails) != 1:
            raise ValidationError(f"graph must have exactly one terminal node, found {tails}")
        return tails[0]


# -- tag helpers --------------------------------------------------------------

def make_tag(flow: str, module: str, role: str) -> str:
    return f"{flow}/{module}/{role}"


def module_of(tag: str | None) -> str | None:
    """`flow/module/role` -> `flow/module`; None for untagged or flat tags."""
    if tag is None:
        return None
    parts = tag.split("/")
    if len(parts) < 3:
        return None
    return "/".join(parts[:2])


def role_of(tag: str | None) -> str | None:
    if tag is None:
        return None
    parts = tag.split("/")
    if len(parts) < 3:
        return None
    return parts[-1]


def module_groups(graph: ModelGraph) -> dict[str, list[str]]:
    """Node ids per module tag, keyed in order of first appearance."""
    groups: dict[str, list[str]] = {}
    for node in graph.nodes:
        mod = module_of(node.tag)
        if mod is not None:
            groups.setdefault(mod, []).append(node.id)
    return groups


# -- construction -------------------------------------------------------------

def add_layer(graph: ModelGraph, node: LayerNode) -> ModelGraph:
    """Return a new graph extended with ``node``.

    The node's inputs must already exist, so graphs built through this
    function are acyclic and stored in topological order.
    """
    check_append({n.id for n in graph.nodes}, node)
    return dataclasses.replace(graph, nodes=graph.nodes + (node,))


def check_append(ids: set[str], node: LayerNode) -> None:
    """Check that ``node`` may follow nodes with ``ids``: a new id, inputs
    among ``ids`` and the arity of its kind. Raises the matching
    ``ValidationError`` subclass; ``ids`` is not changed."""
    if node.id in ids:
        raise DuplicateIdError(f"node id {node.id!r} already present")
    for src in node.inputs:
        if src not in ids:
            raise UnknownInputError(f"node {node.id!r} references unknown input {src!r}")
    want = expected_arity(node.kind)
    if len(node.inputs) != want:
        raise ArityError(
            f"node {node.id!r} ({type(node.kind).__name__}) needs {want} input(s), "
            f"got {len(node.inputs)}"
        )


def topo_sort(graph: ModelGraph) -> list[str]:
    """Node ids in stored order, checked to be a topological order.

    Every node must be stored after its inputs: each one passes
    ``check_append`` against the nodes before it (new id, known inputs,
    arity of its kind). Raises that ``ValidationError`` for the first stored
    node at fault. A list with no forward reference is acyclic, so a cycle
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
            f"node {node_id!r}: window {window} exceeds input dim {dim} under valid padding"
        )
    return out


def infer_shapes(graph: ModelGraph) -> dict[str, TensorShape]:
    """Output shape of every node, keyed by node id in stored order.

    ``topo_sort`` checks that order first. Same padding: ceil(dim/stride).
    Valid padding: floor((dim-k)/stride)+1. Dense and GlobalAvgPool collapse
    spatial dims to 1x1.
    """
    topo_sort(graph)
    shapes: dict[str, TensorShape] = {}
    for node in graph.nodes:
        node_id, kind = node.id, node.kind
        ins = [shapes[i] for i in node.inputs]
        if isinstance(kind, Input):
            shapes[node_id] = graph.input_shape
        elif isinstance(kind, (Conv2D, SeparableConv2D)):
            s = ins[0]
            shapes[node_id] = TensorShape(
                _window_dim(s.height, kind.kernel, kind.stride, kind.padding, node_id),
                _window_dim(s.width, kind.kernel, kind.stride, kind.padding, node_id),
                kind.filters,
            )
        elif isinstance(kind, MaxPool):
            s = ins[0]
            shapes[node_id] = TensorShape(
                _window_dim(s.height, kind.pool_size, kind.stride, kind.padding, node_id),
                _window_dim(s.width, kind.pool_size, kind.stride, kind.padding, node_id),
                s.channels,
            )
        elif isinstance(kind, GlobalAvgPool):
            shapes[node_id] = TensorShape(1, 1, ins[0].channels)
        elif isinstance(kind, (BatchNorm, Activation)):
            shapes[node_id] = ins[0]
        elif isinstance(kind, Add):
            a, b = ins
            if a != b:
                raise ShapeMismatchError(
                    f"Add node {node_id!r} inputs differ: "
                    f"{a.height}x{a.width}x{a.channels} vs {b.height}x{b.width}x{b.channels}"
                )
            shapes[node_id] = a
        elif isinstance(kind, Dense):
            shapes[node_id] = TensorShape(1, 1, kind.units)
        else:  # pragma: no cover - closed union
            raise ValidationError(f"unknown layer kind {type(kind).__name__}")
    return shapes


# -- validation ----------------------------------------------------------------

def validate(graph: ModelGraph) -> ModelGraph:
    """Check all structural invariants and return the graph unchanged:
    ``infer_shapes`` (stored order, see ``topo_sort``, and shape consistency,
    including Add input equality), then ``check_endpoints``."""
    infer_shapes(graph)
    check_endpoints(graph)
    return graph


def check_endpoints(graph: ModelGraph) -> None:
    """The checks of ``validate`` that need no shapes: exactly one Input
    node, positive ``num_classes`` and exactly one terminal node."""
    inputs = [n.id for n in graph.nodes if isinstance(n.kind, Input)]
    if len(inputs) != 1:
        raise ValidationError(f"graph must have exactly one Input node, found {inputs}")
    if graph.num_classes < 1:
        raise ValidationError(f"num_classes must be positive, got {graph.num_classes}")
    graph.terminal_id()
