"""Compact-network-design toolkit.

Represents CNNs as immutable layer graphs, builds the reference
architectures, applies squeeze/expand parameter-reduction passes, statically
analyzes parameters/FLOPs/memory, and runs dual-objective (accuracy vs.
memory) Pareto analysis over measurement data.
"""

from .analyzer import (
    LayerParams,
    LayerRow,
    MemoryEstimate,
    ParamReport,
    activation_sizes,
    analyze,
    count_params,
    count_params_layer,
    flops_estimate,
    memory_estimate,
    round_params_millions,
)
from .graph import (
    Activation,
    Add,
    BatchNorm,
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
    add_layer,
    infer_shapes,
    module_groups,
    module_of,
    role_of,
    topo_sort,
    validate,
)
from .pareto import (
    ModelMeasurement,
    Quadrant,
    QuadrantConfig,
    classify_quadrant,
    export_plot_data,
    load_fixture,
    load_measurements,
    memory_frontier,
    pareto_front,
)
from .serialize import deserialize, load_model, save_model, serialize
from .transforms import (
    DownsampleAudit,
    FireModuleSpec,
    PassReport,
    diff,
    make_fire_module,
    strategy1_replace_kernels,
    strategy2_insert_fire,
    strategy3_audit,
    structurally_equal,
    validate_fire_constraints,
)
from .zoo import (
    DEFAULT_OPTIMIZED_CONFIG,
    OptimizedConfig,
    build_mobilenet_v2,
    build_optimized_xception,
    build_xception,
)

__version__ = "0.1.0"

__all__ = [
    "Activation", "Add", "BatchNorm", "Conv2D", "Dense", "GlobalAvgPool", "Input",
    "LayerKind", "LayerNode", "MaxPool", "ModelGraph", "SeparableConv2D", "TensorShape",
    "add_layer", "infer_shapes", "module_groups", "module_of", "role_of", "topo_sort",
    "validate", "serialize", "deserialize", "save_model", "load_model",
    "FireModuleSpec", "OptimizedConfig", "DEFAULT_OPTIMIZED_CONFIG",
    "build_xception", "build_optimized_xception", "build_mobilenet_v2", "make_fire_module",
    "LayerParams", "LayerRow", "ParamReport", "MemoryEstimate", "analyze", "count_params",
    "count_params_layer", "flops_estimate", "activation_sizes", "memory_estimate",
    "round_params_millions",
    "PassReport", "DownsampleAudit", "strategy1_replace_kernels", "strategy2_insert_fire",
    "strategy3_audit", "validate_fire_constraints", "diff", "structurally_equal",
    "ModelMeasurement", "Quadrant", "QuadrantConfig", "load_measurements", "load_fixture",
    "memory_frontier", "classify_quadrant", "pareto_front", "export_plot_data",
    "__version__",
]
