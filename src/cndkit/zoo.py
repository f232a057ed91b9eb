"""Builders for the architectures the toolkit analyzes.

Three graphs are provided: the 36-conv/14-module separable-convolution
baseline (Xception layout), a squeeze/expand-optimized variant of it (the
baseline run through both rewrite passes of :mod:`cndkit.transforms`), and
an inverted-residual reference (MobileNetV2 layout, width 1.0).

Conventions shared by all builders:
  * convolutions carry no bias (a BatchNorm follows each); the classifier
    Dense carries bias,
  * each conv is emitted as conv -> BatchNorm -> relu unless noted
    (residual projections and inverted-residual bottlenecks skip the relu),
    by :func:`cndkit.transforms.conv_unit`, which ``make_fire_module`` uses
    too; each builder appends to a node list and ends with ``validate``,
  * module tags follow ``flow/mN/role`` (see graph module docstring).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ValidationError, capped
from .graph import (
    Activation,
    Add,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Input,
    LayerKind,
    LayerNode,
    MaxPool,
    ModelGraph,
    SeparableConv2D,
    TensorShape,
    check_size,
    checked,
    entries_of,
    make_tag,
    shapes_of,
    validate,
)
from .transforms import FireModuleSpec, conv_unit, strategy1_replace_kernels, strategy2_insert_fire

STEM_FILTERS = (32, 64)
ENTRY_MODULE_FILTERS = (128, 256, 728)
MIDDLE_MODULE_COUNT = 8
MIDDLE_FILTERS = 728
EXIT_FILTERS = (728, 1024, 1536, 2048)


@dataclass(frozen=True)
class OptimizedConfig:
    """Fire-module widths for the optimized build.

    One spec per entry-flow residual module (3) and per middle-flow module
    (8), plus the widths of the exit flow's four separable convs.
    """

    entry_fire: tuple[FireModuleSpec, ...]
    middle_fire: tuple[FireModuleSpec, ...]
    exit_filters: tuple[int, int, int, int] = EXIT_FILTERS

    def __post_init__(self):
        for name in ("entry_fire", "middle_fire", "exit_filters"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):
                raise ValidationError(f"{name} must be a tuple or list, got {capped(value)}")
            object.__setattr__(self, name, tuple(value))
        if len(self.entry_fire) != len(ENTRY_MODULE_FILTERS):
            raise ValidationError(
                f"entry_fire needs {len(ENTRY_MODULE_FILTERS)} specs, got {len(self.entry_fire)}"
            )
        if len(self.middle_fire) != MIDDLE_MODULE_COUNT:
            raise ValidationError(
                f"middle_fire needs {MIDDLE_MODULE_COUNT} specs, got {len(self.middle_fire)}"
            )
        _check_exit_filters(self.exit_filters)


def _check_exit_filters(exit_filters) -> None:
    if not isinstance(exit_filters, (tuple, list)):
        raise ValidationError(f"exit_filters must be a tuple or list, got {capped(exit_filters)}")
    if len(exit_filters) != 4:
        raise ValidationError(f"exit_filters needs 4 counts, got {len(exit_filters)}")
    for i, width in enumerate(exit_filters):
        check_size(f"exit_filters[{i}]", width)


# Widths picked so the optimized build totals 15,798,273 params (~25% below
# the 21,068,429 baseline) while every squeeze stays narrower than its
# module's input and every expand1 is narrower than the original channels.
DEFAULT_OPTIMIZED_CONFIG = OptimizedConfig(
    entry_fire=(
        FireModuleSpec(64, 96, 128),
        FireModuleSpec(128, 192, 256),
        FireModuleSpec(256, 364, 728),
    ),
    middle_fire=tuple(FireModuleSpec(414, 600, 728) for _ in range(MIDDLE_MODULE_COUNT)),
)


def _add(nodes: list[LayerNode], node_id: str, kind: LayerKind, inputs: tuple[str, ...],
         tag: str) -> str:
    nodes.append(LayerNode(node_id, kind, inputs, tag))
    return node_id


def _stem(nodes: list[LayerNode]) -> str:
    x = conv_unit(
        nodes, "stem_conv1", Conv2D(STEM_FILTERS[0], 3, stride=2, padding="valid"), "input",
        make_tag("entry_flow", "m1", "conv1"),
    )
    return conv_unit(
        nodes, "stem_conv2", Conv2D(STEM_FILTERS[1], 3, padding="valid"), x,
        make_tag("entry_flow", "m1", "conv2"),
    )


def _pool_residual_tail(nodes: list[LayerNode], prefix: str, flow: str, mod: str,
                        main_tail: str, module_input: str, out_filters: int) -> str:
    """MaxPool on the main path + strided 1x1 projection, joined by Add."""
    pool = _add(nodes, f"{prefix}_pool", MaxPool(3, 2), (main_tail,), make_tag(flow, mod, "pool"))
    res = conv_unit(
        nodes, f"{prefix}_res", Conv2D(out_filters, 1, stride=2), module_input,
        make_tag(flow, mod, "residual"), activation=None,
    )
    return _add(nodes, f"{prefix}_add", Add(), (pool, res), make_tag(flow, mod, "add"))


def _head(nodes: list[LayerNode], source: str, num_classes: int, flow: str, mod: str) -> None:
    x = _add(nodes, "gap", GlobalAvgPool(), (source,), make_tag(flow, mod, "gap"))
    x = _add(nodes, "classifier", Dense(num_classes), (x,), make_tag(flow, mod, "head"))
    _add(nodes, "predictions", Activation("softmax"), (x,), make_tag(flow, mod, "head_act"))


def build_xception(
    input_shape: TensorShape = TensorShape(299, 299, 3),
    num_classes: int = 101,
    exit_filters: tuple[int, int, int, int] = EXIT_FILTERS,
) -> ModelGraph:
    """Baseline graph: 36 convs in 14 modules, residuals around all but the
    first and last, downsampling in the entry flow and once in the exit flow.

    ``exit_filters`` are the widths of the exit flow's four separable convs
    (m13 sep1, sep2; m14 sep1, sep2); the m13 residual projection matches
    the second.
    """
    check_size("num_classes", num_classes, least=2)
    _check_exit_filters(exit_filters)
    nodes = [LayerNode("input", Input())]
    x = _stem(nodes)

    for i, filters in enumerate(ENTRY_MODULE_FILTERS):
        mod = f"m{i + 2}"
        prefix = f"entry_{mod}"
        a = conv_unit(nodes, f"{prefix}_sep1", SeparableConv2D(filters, 3), x,
                      make_tag("entry_flow", mod, "sep1"))
        b = conv_unit(nodes, f"{prefix}_sep2", SeparableConv2D(filters, 3), a,
                      make_tag("entry_flow", mod, "sep2"))
        x = _pool_residual_tail(nodes, prefix, "entry_flow", mod, b, x, filters)

    for i in range(MIDDLE_MODULE_COUNT):
        mod = f"m{i + 5}"
        prefix = f"middle_{mod}"
        tail = x
        for j in range(3):
            tail = conv_unit(
                nodes, f"{prefix}_sep{j + 1}", SeparableConv2D(MIDDLE_FILTERS, 3), tail,
                make_tag("middle_flow", mod, f"sep{j + 1}"),
            )
        x = _add(nodes, f"{prefix}_add", Add(), (tail, x), make_tag("middle_flow", mod, "add"))

    f1, f2, f3, f4 = exit_filters
    a = conv_unit(nodes, "exit_m13_sep1", SeparableConv2D(f1, 3), x, make_tag("exit_flow", "m13", "sep1"))
    b = conv_unit(nodes, "exit_m13_sep2", SeparableConv2D(f2, 3), a, make_tag("exit_flow", "m13", "sep2"))
    x = _pool_residual_tail(nodes, "exit_m13", "exit_flow", "m13", b, x, f2)
    x = conv_unit(nodes, "exit_m14_sep1", SeparableConv2D(f3, 3), x, make_tag("exit_flow", "m14", "sep1"))
    x = conv_unit(nodes, "exit_m14_sep2", SeparableConv2D(f4, 3), x, make_tag("exit_flow", "m14", "sep2"))
    _head(nodes, x, num_classes, "exit_flow", "m14")
    return validate(ModelGraph("xception", input_shape, num_classes, tuple(nodes),
                               {"family": "xception", "variant": "original"}))


def build_optimized_xception(
    input_shape: TensorShape = TensorShape(299, 299, 3),
    num_classes: int = 101,
    config: OptimizedConfig = DEFAULT_OPTIMIZED_CONFIG,
) -> ModelGraph:
    """Optimized variant: :func:`build_xception` with ``config.exit_filters``,
    then :func:`strategy1_replace_kernels` (each module's leading separable
    conv gets a 1x1 kernel) and :func:`strategy2_insert_fire` (a fire module
    in each entry and middle module, widths from ``config``).
    """
    if not isinstance(config, OptimizedConfig):
        raise ValidationError(f"config must be an OptimizedConfig, got {capped(config)}")
    graph = build_xception(input_shape, num_classes, exit_filters=config.exit_filters)
    graph, _ = strategy1_replace_kernels(graph)
    specs = {f"entry_flow/m{i + 2}": spec for i, spec in enumerate(config.entry_fire)}
    specs.update({f"middle_flow/m{i + 5}": spec for i, spec in enumerate(config.middle_fire)})
    graph, _ = strategy2_insert_fire(graph, specs)
    optimized = dataclasses.replace(graph, name="optimized-xception",
                                    metadata={"family": "xception", "variant": "optimized"})
    return checked(optimized, shapes_of(graph), entries_of(graph))  # the same nodes, kept by strategy2


# (expansion factor, output channels, repeats, first stride) per stage
_MOBILENET_V2_STAGES = (
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def build_mobilenet_v2(
    input_shape: TensorShape = TensorShape(224, 224, 3), num_classes: int = 101
) -> ModelGraph:
    """Inverted-residual reference network at width 1.0.

    The depthwise 3x3 + linear 1x1 projection of each bottleneck is expressed
    as a single SeparableConv2D node, which is how this IR accounts separable
    parameters; the contract is parameter equivalence, not op-for-op
    equivalence with a runtime implementation.
    """
    check_size("num_classes", num_classes, least=2)
    nodes = [LayerNode("input", Input())]
    x = conv_unit(nodes, "stem_conv", Conv2D(32, 3, stride=2), "input", make_tag("stem", "m1", "conv"))
    channels = 32

    block = 2
    for expansion, out_channels, repeats, first_stride in _MOBILENET_V2_STAGES:
        for r in range(repeats):
            stride = first_stride if r == 0 else 1
            mod = f"m{block}"
            prefix = f"block{block}"
            tail = x
            if expansion != 1:
                tail = conv_unit(
                    nodes, f"{prefix}_expand", Conv2D(channels * expansion, 1), tail,
                    make_tag("blocks", mod, "expand"),
                )
            tail = conv_unit(
                nodes, f"{prefix}_sepconv", SeparableConv2D(out_channels, 3, stride=stride), tail,
                make_tag("blocks", mod, "sepconv"), activation=None,
            )
            if stride == 1 and channels == out_channels:
                tail = _add(nodes, f"{prefix}_add", Add(), (tail, x), make_tag("blocks", mod, "add"))
            x = tail
            channels = out_channels
            block += 1

    x = conv_unit(nodes, "head_conv", Conv2D(1280, 1), x, make_tag("head", f"m{block}", "conv"))
    _head(nodes, x, num_classes, "head", f"m{block}")
    return validate(ModelGraph("mobilenetv2", input_shape, num_classes, tuple(nodes),
                               {"family": "mobilenetv2", "variant": "width-1.0"}))
