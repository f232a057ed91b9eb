"""Static resource analysis: parameters, FLOPs, activations, memory.

Every analysis here is a fold over the two columns a graph keeps in stored
order, read through ``graph.shapes_of`` and ``graph.entries_of``: the nodes'
output shapes and their parameter entries. ``analyze`` zips both into one row
per node. An entry, a ``graph.LayerParams``, comes from the input-channel and
param rules in the kind's row of ``graph.KINDS`` (C = input channels, M =
filters, K = kernel elements, i.e. 1 or 9):

    kind              kernel params       aux params               MACs
    Conv2D            C*M*K               M if bias else 0         H'W' * C*M*K
    SeparableConv2D   C*K + C*M           0 (never biased)         H'W' * (C*K + C*M)
    BatchNorm         0                   4C (2C train + 2C stats) 0
    Dense             units*C_flat        units if bias else 0     units*C_flat
    Pool/Add/Act/...  0                   0                        0

Dense flattens its input, so C_flat = H*W*C of the incoming shape. MACs are
``H'W' * kernel params`` for every kind, H'W' being the output area: a
Dense output is 1x1, and a bias adds no multiply.

The memory model is deliberately coarse: 4 bytes per scalar, gradients and
optimizer state sized by trainable params (momentum 1x, adaptive 2x), training
activations = 2x the forward sum (forward + gradient buffers), inference
activations = the peak in+out footprint of a single layer. It predicts
orderings between models, not absolute process-level megabytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .graph import (
    KINDS,
    BatchNorm,
    LayerNode,
    LayerParams,
    ModelGraph,
    TensorShape,
    check_choice,
    check_size,
    entries_of,
    infer_shapes,
    shapes_of,
    unknown_kind,
)

BYTES_PER_SCALAR = 4
OPTIMIZER_STATE_MULTIPLIER = {"sgd_momentum": 1, "adam": 2}


@dataclass(frozen=True)
class ParamReport:
    """Per-layer parameter entries in stored order, their total and the
    trainable total (the total less BatchNorm's moving statistics)."""

    per_layer: tuple[LayerParams, ...]
    total: int
    total_trainable: int


def round_params_millions(total: int) -> float:
    """Round a raw parameter count to 0.1M, half up (21_068_429 -> 21.1).

    The rounding is exact integer arithmetic; the one division by 10 then
    gives the double nearest the rounded value, for any ``total >= 0``."""
    return (total + 50_000) // 100_000 / 10


def count_params_layer(node: LayerNode, input_channels: int) -> LayerParams:
    """Parameter entry for one node given its (flattened, for Dense) input channels."""
    check_size("input_channels", input_channels, least=0, most=None)
    row = KINDS.get(type(node.kind))
    if row is None:
        raise unknown_kind(node)
    return row.params(node.id, node.kind, input_channels)


class LayerRow(NamedTuple):
    """One node of ``analyze``: its shapes and parameter entry."""

    node: LayerNode
    shape_in: TensorShape | None  # first input's shape; None for the Input node
    shape_out: TensorShape
    params: LayerParams

    @property
    def macs(self) -> int:
        return self.shape_out.area * self.params.kernel_params


def analyze(graph: ModelGraph) -> list[LayerRow]:
    """One row per node, in stored order, from the shapes and entries the graph keeps."""
    entries = entries_of(graph)
    shapes = infer_shapes(graph)
    # tuple.__new__ skips the Python-level __new__ that NamedTuple adds
    return [tuple.__new__(LayerRow, (node, shapes[node.inputs[0]] if node.inputs else None, shape, entry))
            for node, shape, entry in zip(graph.nodes, shapes.values(), entries)]


_KERNEL_PARAMS, _AUX_PARAMS = (itemgetter(LayerParams._fields.index(name))
                                for name in ("kernel_params", "aux_params"))


def total_params(entries: tuple[LayerParams, ...]) -> int:
    """The sum of the entries' ``total``s, folded column by column."""
    return sum(map(_KERNEL_PARAMS, entries)) + sum(map(_AUX_PARAMS, entries))


def count_params(graph: ModelGraph) -> ParamReport:
    """Parameter report over the whole graph; ``per_layer`` is the tuple the graph keeps."""
    entries = entries_of(graph)
    total = total_params(entries)
    # BatchNorm's moving mean and variance count in the total but are never trained
    stats = 2 * sum([e.channels_in for node, e in zip(graph.nodes, entries) if type(node.kind) is BatchNorm])
    return ParamReport(entries, total, total - stats)


def flops_estimate(graph: ModelGraph) -> int:
    """Multiply-accumulate count for one forward pass at batch 1."""
    return sum(shape.area * entry.kernel_params for shape, entry in zip(shapes_of(graph), entries_of(graph)))


def activation_sizes(graph: ModelGraph, batch: int = 1) -> list[tuple[str, int]]:
    """Output element count (batch * H * W * C) per node, in stored order."""
    check_size("batch", batch)
    return [(node.id, batch * shape.elements) for node, shape in zip(graph.nodes, shapes_of(graph))]


@dataclass(frozen=True)
class MemoryAssumptions:
    """What a ``MemoryEstimate`` assumed: bytes per scalar, the optimizer and
    its state per weight, batch size, mode and a fixed overhead in bytes."""

    bytes_per_scalar: int
    optimizer: str
    optimizer_state_multiplier: int
    batch_size: int
    mode: str
    overhead_bytes: int


@dataclass(frozen=True)
class MemoryEstimate:
    """Modeled memory in bytes, part by part, and the assumptions behind it."""

    weights_bytes: int
    gradients_bytes: int
    optimizer_state_bytes: int
    activations_bytes: int
    total_bytes: int
    assumptions: MemoryAssumptions

    def as_dict(self) -> dict:
        """Fields by name, in declaration order, with ``assumptions`` nested."""
        return dataclasses.asdict(self)


def memory_estimate(
    graph: ModelGraph,
    batch: int = 1,
    mode: str = "training",
    optimizer: str = "adam",
    overhead_bytes: int = 0,
) -> MemoryEstimate:
    """Modeled memory footprint; see module docstring for the formula."""
    check_choice("mode", mode, ("training", "inference"))
    check_choice("optimizer", optimizer, tuple(OPTIMIZER_STATE_MULTIPLIER))
    check_size("batch", batch)
    check_size("overhead_bytes", overhead_bytes, least=0)

    report = count_params(graph)
    weights = report.total * BYTES_PER_SCALAR
    multiplier = OPTIMIZER_STATE_MULTIPLIER[optimizer]
    sizes = activation_sizes(graph, batch)

    if mode == "training":
        gradients = report.total_trainable * BYTES_PER_SCALAR
        optimizer_state = multiplier * report.total_trainable * BYTES_PER_SCALAR
        activations = 2 * sum(elems for _, elems in sizes) * BYTES_PER_SCALAR
    else:
        gradients = 0
        optimizer_state = 0
        by_node = dict(sizes)
        peak = max(
            (by_node[n.id] + sum(by_node[i] for i in n.inputs) for n in graph.nodes), default=0
        )
        activations = peak * BYTES_PER_SCALAR

    total = weights + gradients + optimizer_state + activations + overhead_bytes
    assumptions = MemoryAssumptions(
        BYTES_PER_SCALAR, optimizer, multiplier, batch, mode, overhead_bytes
    )
    return MemoryEstimate(weights, gradients, optimizer_state, activations, total, assumptions)
