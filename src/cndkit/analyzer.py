"""Static resource analysis: parameters, FLOPs, activations, memory.

Every analysis here is a fold over ``analyze(graph)``: one row per node, in
stored order (which ``topo_sort`` checks is a dependency order), holding the
node, its input and output shapes and its parameter entry
(``activation_sizes`` needs only the shapes). The entry, a
``graph.LayerParams``, comes from the input-channel and param rules in the
kind's row of ``graph.KINDS`` (C = input channels, M = filters, K = kernel
elements, i.e. 1 or 9):

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
    infer_shapes,
    unknown_kind,
)

BYTES_PER_SCALAR = 4
OPTIMIZER_STATE_MULTIPLIER = {"sgd_momentum": 1, "adam": 2}


@dataclass(frozen=True)
class ParamReport:
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
    return row[4](node.id, node.kind, input_channels)


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
    """One row per node, in stored order, from a single shape inference."""
    shapes = infer_shapes(graph)  # rejects a kind with no row in KINDS
    rows: list[LayerRow] = []
    for node in graph.nodes:
        kind = node.kind
        _, _, _, channels_of, rule = KINDS[type(kind)]
        if node.inputs:
            shape_in = shapes[node.inputs[0]]
            entry = rule(node.id, kind, channels_of(shape_in))
        else:
            shape_in = None
            entry = rule(node.id, kind, 0)
        rows.append(LayerRow(node, shape_in, shapes[node.id], entry))
    return rows


def total_params(rows: list[LayerRow]) -> int:
    return sum(row.params.total for row in rows)


def _moving_stats(rows: list[LayerRow]) -> int:
    """BatchNorm mean and variance: counted in the total, never trained."""
    return sum(2 * r.params.channels_in for r in rows if type(r.node.kind) is BatchNorm)


def count_params(graph: ModelGraph) -> ParamReport:
    """Parameter report over the whole graph, per-layer entries in stored order."""
    rows = analyze(graph)
    total = total_params(rows)
    return ParamReport(tuple(row.params for row in rows), total, total - _moving_stats(rows))


def flops_estimate(graph: ModelGraph) -> int:
    """Multiply-accumulate count for one forward pass at batch 1."""
    return sum(row.macs for row in analyze(graph))


def activation_sizes(graph: ModelGraph, batch: int = 1) -> list[tuple[str, int]]:
    """Output element count (batch * H * W * C) per node, in stored order."""
    check_size("batch", batch)
    return [(node_id, batch * shape.elements) for node_id, shape in infer_shapes(graph).items()]


@dataclass(frozen=True)
class MemoryAssumptions:
    bytes_per_scalar: int
    optimizer: str
    optimizer_state_multiplier: int
    batch_size: int
    mode: str
    overhead_bytes: int


@dataclass(frozen=True)
class MemoryEstimate:
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

    rows = analyze(graph)
    total = total_params(rows)
    weights = total * BYTES_PER_SCALAR
    multiplier = OPTIMIZER_STATE_MULTIPLIER[optimizer]
    sizes = activation_sizes(graph, batch)

    if mode == "training":
        trainable = total - _moving_stats(rows)
        gradients = trainable * BYTES_PER_SCALAR
        optimizer_state = multiplier * trainable * BYTES_PER_SCALAR
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
